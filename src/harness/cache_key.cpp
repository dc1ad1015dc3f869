#include "harness/cache_key.hpp"

#include <cstring>

#include "sched/modulo/modulo.hpp"

namespace ilp {

void hash_domain_salt(engine::HashStream& h, std::string_view domain) {
  h.str(domain);
  h.i32(kCacheKeyVersion);
}

void hash_machine_model(engine::HashStream& h, const MachineModel& m) {
  h.i32(m.issue_width).i32(m.branch_slots);
  h.i32(m.lat_int_alu).i32(m.lat_int_mul).i32(m.lat_int_div).i32(m.lat_branch);
  h.i32(m.lat_load).i32(m.lat_store);
  h.i32(m.lat_fp_alu).i32(m.lat_fp_conv).i32(m.lat_fp_mul).i32(m.lat_fp_div);
}

void hash_compile_options(engine::HashStream& h, const CompileOptions& opts) {
  h.i32(opts.unroll.max_factor);
  h.u64(opts.unroll.max_body_insts);
  h.boolean(opts.unroll.merge_counter_updates);
  // Nest restructuring knobs change the compiled shape before any other pass.
  h.boolean(opts.nest.interchange).boolean(opts.nest.fuse);
  h.boolean(opts.nest.fission).boolean(opts.nest.tile);
  h.i32(opts.nest.tile_size);
  h.boolean(opts.schedule);
  // Scheduler backend identity: results from one backend must never be
  // served to a request for the other, and any behavior change in the
  // modulo scheduler (kModuloSchedulerVersion bump) invalidates its cells.
  h.i32(static_cast<int>(opts.scheduler));
  if (opts.scheduler == SchedulerKind::Modulo) {
    h.i32(kModuloSchedulerVersion);
    h.u64(opts.modulo.max_body_insts);
    h.i32(opts.modulo.max_stages);
    h.i32(opts.modulo.max_ii_over_min);
    h.i32(opts.modulo.budget_ratio);
  }
}

std::uint64_t service_cell_key(std::string_view source, OptLevel level,
                               const std::optional<TransformSet>& transforms,
                               const NestOptions& nest, SchedulerKind scheduler,
                               int issue, int unroll, std::int64_t debug_sleep_ms) {
  engine::HashStream h;
  hash_domain_salt(h, "ilpd-cell");
  h.str(source);
  h.boolean(transforms.has_value());
  if (transforms) {
    h.boolean(transforms->unroll).boolean(transforms->rename);
    h.boolean(transforms->combine).boolean(transforms->strength);
    h.boolean(transforms->height).boolean(transforms->acc_expand);
    h.boolean(transforms->ind_expand).boolean(transforms->search_expand);
  } else {
    h.i32(static_cast<int>(level));
  }
  // The service materializes exactly these CompileOptions in compute_cell;
  // hashing through the shared builder keeps key and computation in lockstep.
  CompileOptions opts;
  opts.unroll.max_factor = unroll;
  opts.nest = nest;
  opts.scheduler = scheduler;
  hash_compile_options(h, opts);
  h.i32(issue);
  h.i64(debug_sleep_ms);
  return h.digest();
}

std::uint64_t service_base_key(std::string_view source) {
  engine::HashStream h;
  hash_domain_salt(h, "ilpd-base");
  h.str(source);
  return h.digest();
}

std::uint64_t service_search_key(std::string_view source, int issue, int beam,
                                 int rounds, int max_sims, double sim_fraction,
                                 bool cost_model) {
  engine::HashStream h;
  hash_domain_salt(h, "ilpd-tune");
  h.str(source);
  h.i32(issue).i32(beam).i32(rounds).i32(max_sims);
  std::uint64_t frac_bits = 0;
  static_assert(sizeof(frac_bits) == sizeof(sim_fraction));
  std::memcpy(&frac_bits, &sim_fraction, sizeof(frac_bits));
  h.u64(frac_bits);
  h.boolean(cost_model);
  return h.digest();
}

}  // namespace ilp

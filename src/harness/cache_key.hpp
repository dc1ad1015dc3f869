// Shared, versioned cache-key salt builder.
//
// Every content-addressed cache family salts its key here, through
// hash_domain_salt and `kCacheKeyVersion`:
//   * "ilp92-cell"  study cells (harness/experiment.cpp study_cell_key);
//   * "ilpd-cell"   ilpd cells, shared by compile, batch and autotune
//                   candidates (service_cell_key), plus the hot response
//                   tier's per-variant salt of that key;
//   * "ilpd-base"   the Conv @ issue-1 speedup baseline (service_base_key);
//   * "tune-cell"   the tuner's own measurements (tune/tune.cpp);
//   * "ilpd-tune"   whole autotune searches (service_search_key).
// Adding a knob (or changing what an existing one means) is one bump here
// and every persisted cache rolls over together.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "engine/cache.hpp"
#include "machine/machine.hpp"
#include "trans/level.hpp"

namespace ilp {

// Version of the knob wire format below.  v3 was the last hand-maintained
// generation ("ilp92-cell-v3" / "ilpd-cell-v3"); v4 is the first shared one.
inline constexpr int kCacheKeyVersion = 4;

// Domain salt: the cache family name plus the shared version, so distinct
// families can never collide and all of them invalidate on one bump.
void hash_domain_salt(engine::HashStream& h, std::string_view domain);

// Machine identity: issue width, branch slots and the full Table-1 latency
// set — results for one machine must never answer a request for another.
void hash_machine_model(engine::HashStream& h, const MachineModel& m);

// Every compile-affecting knob in CompileOptions: unroll limits, nest
// restructuring (pass subset + tile size), the scheduling toggle, and the
// scheduler-backend identity — including kModuloSchedulerVersion and the
// modulo search limits when that backend is selected, so a behavior change
// in the modulo scheduler invalidates exactly its cells.
void hash_compile_options(engine::HashStream& h, const CompileOptions& opts);

// Content hash of one service/tune evaluation cell: (source, level-or-
// explicit-transform-set, nest, scheduler, issue, unroll).  ilpd request
// routing, in-flight coalescing, the response cache and the autotuner's
// candidate evaluations all use this one function, so tuning traffic and
// compile traffic share cache entries for identical work.
std::uint64_t service_cell_key(std::string_view source, OptLevel level,
                               const std::optional<TransformSet>& transforms,
                               const NestOptions& nest, SchedulerKind scheduler,
                               int issue, int unroll, std::int64_t debug_sleep_ms);

// Content hash of the service's speedup baseline for `source`: its Conv
// cycles at issue 1, shared by every level and width of that source.
std::uint64_t service_base_key(std::string_view source);

// Content hash of one ilpd autotune search: the source and every search
// knob.
std::uint64_t service_search_key(std::string_view source, int issue, int beam,
                                 int rounds, int max_sims, double sim_fraction,
                                 bool cost_model);

// Hot-tier variant salt ("profile" in ASCII): a pre-serialized profiled body
// must never answer an unprofiled request for the same cell, and vice versa.
constexpr std::uint64_t hot_profile_variant(std::uint64_t key) {
  return key ^ 0x70726f66696c65ull;
}

}  // namespace ilp

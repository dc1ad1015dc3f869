#include "harness/experiment.hpp"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <future>
#include <memory>
#include <thread>

#include "engine/memo.hpp"
#include "engine/metrics.hpp"
#include "engine/pool.hpp"
#include "engine/trace.hpp"
#include "frontend/compile.hpp"
#include "harness/cache_key.hpp"
#include "sim/simulator.hpp"
#include "support/assert.hpp"
#include "support/strings.hpp"

namespace ilp {

namespace {

// A pipeline stage of `level` threw: the cell fails with this text.
Error stage_error(const std::string& name, OptLevel level, const char* what) {
  return Error{strformat("workload '%s' failed at %s: %s", name.c_str(), level_name(level),
                         what)};
}

// Beside pass.simulate: the dynamic instructions simulated, and how many of
// them had their timing fast-forwarded (SimResult::ff_instructions).
void count_simulated(const SimResult& r) {
  engine::MetricsRegistry& reg = engine::MetricsRegistry::global();
  reg.add_count("sim.instructions", r.instructions);
  reg.add_count("sim.ff_instructions", r.ff_instructions);
}

}  // namespace

Expected<LoopPlan> LoopPlan::build(const Workload& w, const CompileOptions& opts) {
  LoopPlan plan;
  plan.name_ = w.name;
  plan.opts_ = opts;
  {
    engine::ScopedTimer timer("pass.frontend");
    DiagnosticEngine diags;
    auto r = dsl::compile(w.source, diags);
    if (!r)
      return Error{strformat("workload '%s' failed to compile: %s", w.name.c_str(),
                             diags.to_string().c_str())};
    plan.fn_ = std::move(r->fn);
  }
  CompileContext& ctx = CompileContext::local();
  ctx.begin_compile();
  try {
    compile_prefix(plan.fn_, opts, plan.stats_, ctx);
  } catch (const std::exception& e) {
    plan.error_ = e.what();
  }
  return plan;
}

Expected<LevelPlan> LoopPlan::level(OptLevel level,
                                    const std::optional<TransformSet>& set) const& {
  return fork(level, set.value_or(TransformSet::for_level(level)), opts_, fn_);
}

Expected<LevelPlan> LoopPlan::level(OptLevel level,
                                    const std::optional<TransformSet>& set) && {
  return fork(level, set.value_or(TransformSet::for_level(level)), opts_, std::move(fn_));
}

Expected<LevelPlan> LoopPlan::level(OptLevel level, const CompileOptions& opts) const {
  ILP_ASSERT(opts.nest == opts_.nest, "a level fork must keep its prefix's nest set");
  return fork(level, TransformSet::for_level(level), opts, fn_);
}

bool LoopPlan::same_prefix(const LoopPlan& o) const {
  return !error_ && !o.error_ && same_code(fn_, o.fn_);
}

Expected<LevelPlan> LoopPlan::fork(OptLevel level, const TransformSet& set,
                                   const CompileOptions& opts, Function fn) const {
  if (error_) return stage_error(name_, level, error_->c_str());
  LevelPlan out;
  out.name_ = name_;
  out.level_ = level;
  out.set_ = set;
  out.opts_ = opts;
  out.fn_ = std::move(fn);
  out.stats_ = stats_;
  try {
    compile_level(out.fn_, set, opts, out.stats_, CompileContext::local());
  } catch (const std::exception& e) {
    return stage_error(name_, level, e.what());
  }
  return out;
}

Expected<CompiledLoop> LevelPlan::compile(const MachineModel& m,
                                          TransformStats* stats) const& {
  return leaf(m, stats, fn_);
}

Expected<CompiledLoop> LevelPlan::compile(const MachineModel& m, TransformStats* stats) && {
  return leaf(m, stats, std::move(fn_));
}

Expected<Function> LevelPlan::schedule(const MachineModel& m,
                                       SchedulerKind scheduler) const {
  CompileOptions opts = opts_;
  opts.scheduler = scheduler;
  return backend(m, opts, nullptr, fn_);
}

Expected<Function> LevelPlan::backend(const MachineModel& m, const CompileOptions& opts,
                                      TransformStats* stats, Function fn) const {
  TransformStats s = stats_;
  try {
    compile_backend(fn, set_, m, opts, s, CompileContext::local());
  } catch (const std::exception& e) {
    return stage_error(name_, level_, e.what());
  }
  if (stats != nullptr) *stats = s;
  return fn;
}

bool LevelPlan::same_leaves(const LevelPlan& o) const {
  return opts_.schedule == o.opts_.schedule && opts_.scheduler == o.opts_.scheduler &&
         opts_.modulo == o.opts_.modulo && same_code(fn_, o.fn_);
}

std::uint64_t LevelPlan::leaves_hash() const {
  engine::HashStream h;
  h.u64(code_hash(fn_)).boolean(opts_.schedule).i32(static_cast<int>(opts_.scheduler));
  h.u64(opts_.modulo.max_body_insts).i32(opts_.modulo.max_stages);
  h.i32(opts_.modulo.max_ii_over_min).i32(opts_.modulo.budget_ratio);
  return h.digest();
}

void LevelPlan::book_shared(const TransformStats& leaf) const {
  TransformStats s = stats_;
  s.modulo = leaf.modulo;
  s.schedule_ns = leaf.schedule_ns;
  s.ir_insts_after = leaf.ir_insts_after;
  book_compile_counters(s, set_);
}

Expected<CompiledLoop> LevelPlan::leaf(const MachineModel& m, TransformStats* stats,
                                       Function fn) const {
  auto scheduled = backend(m, opts_, stats, std::move(fn));
  if (!scheduled) return Error{scheduled.error_message()};
  CompiledLoop out;
  out.fn = std::move(*scheduled);
  {
    engine::ScopedTimer timer("pass.regalloc");
    out.regs = measure_register_usage(out.fn);
  }
  return out;
}

Expected<CompiledLoop> try_compile_workload(const Workload& w, OptLevel level,
                                            const MachineModel& m,
                                            const CompileOptions& opts,
                                            TransformStats* stats,
                                            const std::optional<TransformSet>& set) {
  auto plan = LoopPlan::build(w, opts);
  if (!plan) return Error{plan.error_message()};
  auto lv = std::move(*plan).level(level, set);
  if (!lv) return Error{lv.error_message()};
  return std::move(*lv).compile(m, stats);
}

Expected<std::uint64_t> try_simulate_cycles(const Function& fn, const MachineModel& m) {
  engine::ScopedTimer timer("pass.simulate");
  const RunOutcome out = run_seeded(fn, m);
  count_simulated(out.result);
  if (!out.result.ok) return Error{"simulation failed: " + out.result.error};
  return out.result.cycles;
}

Expected<ProfiledSim> try_simulate_profile(const Function& fn, const MachineModel& m) {
  engine::ScopedTimer timer("pass.simulate");
  ProfiledSim out;
  SimOptions opts;
  opts.profile = &out.profile;
  RunOutcome run = run_seeded(fn, m, std::move(opts));
  count_simulated(run.result);
  if (!run.result.ok) return Error{"simulation failed: " + run.result.error};
  out.result = std::move(run.result);
  return out;
}

CompiledLoop compile_workload(const Workload& w, OptLevel level, const MachineModel& m,
                              const CompileOptions& opts) {
  auto r = try_compile_workload(w, level, m, opts);
  ILP_ASSERT(r.has_value(), r.error_message().c_str());
  return std::move(*r);
}

std::uint64_t simulate_cycles(const Function& fn, const MachineModel& m) {
  auto r = try_simulate_cycles(fn, m);
  ILP_ASSERT(r.has_value(), r.error_message().c_str());
  return *r;
}

std::uint64_t study_cell_key(const Workload& w, OptLevel level, const MachineModel& m,
                             const CompileOptions& opts) {
  engine::HashStream h;
  hash_domain_salt(h, "ilp92-cell");  // shared version: see harness/cache_key.hpp
  h.str(w.source);
  h.i32(static_cast<int>(level));
  hash_machine_model(h, m);
  hash_compile_options(h, opts);
  return h.digest();
}

namespace {

// One (loop, level, width) cell of the sweep, in cacheable form.
struct CellResult {
  std::uint64_t cycles = 0;
  RegUsage regs{};
  std::string error;
};

std::string encode_cell(const CellResult& c) {
  if (!c.error.empty()) return "v1 err " + c.error;
  return strformat("v1 ok %" PRIu64 " %d %d", c.cycles, c.regs.int_regs, c.regs.fp_regs);
}

bool decode_cell(const std::string& payload, CellResult& out) {
  if (payload.rfind("v1 err ", 0) == 0) {
    out = CellResult{};
    out.error = payload.substr(7);
    return true;
  }
  CellResult c;
  if (std::sscanf(payload.c_str(), "v1 ok %" SCNu64 " %d %d", &c.cycles,
                  &c.regs.int_regs, &c.regs.fp_regs) == 3) {
    out = c;
    return true;
  }
  return false;  // unknown schema (stale disk entry): treat as miss
}

// Every study outcome is cached, a compile error included (it is
// deterministic); a job that threw stores nothing.
constexpr engine::Codec<CellResult> kCellCodec{encode_cell, decode_cell};

constexpr std::size_t kCellsPerLoop = kLevels.size() * kIssueWidths.size();

// Plan jobs run at most this many times `jobs` loops ahead of the leaf jobs.
constexpr std::size_t kPlanLookahead = 2;

// Levels of one loop that compile to the same leaves (LevelPlan::same_leaves),
// ascending; the first is the representative whose leaves are computed, the
// others are its twins.
struct LeafGroup {
  std::vector<std::size_t> levels;  // indices into kLevels
  std::vector<LevelPlan> plans;     // one per level
};

// One loop's cells and the level plans its leaf jobs share.  The plan job
// fills the cache hits and the groups; each leaf job then computes its
// group's missed cells, writing only its own levels' slots.
struct LoopCells {
  std::array<CellResult, kCellsPerLoop> cells{};
  std::array<std::uint64_t, kCellsPerLoop> keys{};
  std::array<bool, kCellsPerLoop> missed{};
  std::array<bool, kCellsPerLoop> shared{};  // filled from a twin's leaf
  std::vector<LeafGroup> groups;

  [[nodiscard]] bool level_missed(std::size_t li) const {
    for (std::size_t wi = 0; wi < kIssueWidths.size(); ++wi)
      if (missed[li * kIssueWidths.size() + wi]) return true;
    return false;
  }
};

// Fails every missed cell in [first, last) with `error`; a compile error is
// deterministic, so it is cached like any computed cell.
void fail_missed(LoopCells& lc, std::size_t first, std::size_t last,
                 const std::string& error, engine::ResultCache* cache) {
  for (std::size_t i = first; i < last; ++i) {
    if (!lc.missed[i]) continue;
    lc.cells[i] = CellResult{};
    lc.cells[i].error = error;
    if (cache != nullptr)
      engine::memo_store(*cache, lc.keys[i], kCellCodec, lc.cells[i]);
  }
}

// A job that escapes with an exception fails the cells it was computing,
// which are never cached.
void fail_threw(LoopCells& lc, std::size_t first, std::size_t last,
                const std::exception& e) {
  fail_missed(lc, first, last, strformat("study job threw: %s", e.what()), nullptr);
}

// Plan job: looks up every cell of the loop; if one missed, runs the frontend
// and Conv, then the level stage of every level with a missed cell, and
// groups the levels by their leaves.
void run_plan_job(const Workload& w, const CompileOptions& copts,
                  engine::ResultCache* cache, LoopCells& lc) {
  engine::TraceScope trace(w.name, "plan");
  engine::ScopedTimer timer("study.job");
  lc.missed.fill(true);
  try {
    if (cache != nullptr) {
      for (std::size_t li = 0; li < kLevels.size(); ++li)
        for (std::size_t wi = 0; wi < kIssueWidths.size(); ++wi) {
          const std::size_t i = li * kIssueWidths.size() + wi;
          lc.keys[i] = study_cell_key(w, kLevels[li], MachineModel::issue(kIssueWidths[wi]),
                                      copts);
          if (auto hit = engine::memo_lookup(*cache, lc.keys[i], kCellCodec)) {
            lc.cells[i] = std::move(*hit);
            lc.missed[i] = false;
          }
        }
    }
    if (std::find(lc.missed.begin(), lc.missed.end(), true) == lc.missed.end()) return;
    auto plan = LoopPlan::build(w, copts);
    if (!plan) {
      fail_missed(lc, 0, kCellsPerLoop, plan.error_message(), cache);
      return;
    }
    for (std::size_t li = 0; li < kLevels.size(); ++li) {
      if (!lc.level_missed(li)) continue;
      auto lv = plan->level(kLevels[li]);
      if (!lv) {
        const std::size_t first = li * kIssueWidths.size();
        fail_missed(lc, first, first + kIssueWidths.size(), lv.error_message(), cache);
        continue;
      }
      const auto twin =
          std::find_if(lc.groups.begin(), lc.groups.end(),
                       [&](const LeafGroup& g) { return g.plans.front().same_leaves(*lv); });
      LeafGroup& g = twin != lc.groups.end() ? *twin : lc.groups.emplace_back();
      g.levels.push_back(li);
      g.plans.push_back(std::move(*lv));
    }
  } catch (const std::exception& e) {
    lc.groups.clear();
    fail_threw(lc, 0, kCellsPerLoop, e);
  }
}

// Schedules, measures and simulates one cell of a level; `stats`, when
// non-null, receives the compile's transformation counters.
CellResult run_leaf(const Workload& w, const LevelPlan& lv, OptLevel level,
                    const MachineModel& m, TransformStats* stats = nullptr) {
  CellResult c;
  auto compiled = lv.compile(m, stats);
  if (!compiled) {
    c.error = compiled.error_message();
    return c;
  }
  c.regs = compiled->regs;
  auto cycles = try_simulate_cycles(compiled->fn, m);
  if (!cycles) {
    c.error = strformat("workload '%s' at %s issue-%d: %s", w.name.c_str(),
                        level_name(level), m.issue_width, cycles.error_message().c_str());
    return c;
  }
  c.cycles = *cycles;
  return c;
}

// Leaf job: one leaf per width that any level of the group missed, computed
// on the representative and filled into every twin's missed cell.  A twin
// whose shared cell failed computes that cell on its own plan instead, so
// the error names its own level.
void run_leaf_job(const Workload& w, std::size_t gi, engine::ResultCache* cache,
                  LoopCells& lc) {
  LeafGroup& g = lc.groups[gi];
  const OptLevel rep = kLevels[g.levels.front()];
  engine::TraceScope trace(strformat("%s/%s", w.name.c_str(), level_name(rep)), "plan");
  engine::ScopedTimer timer("study.job");
  for (std::size_t wi = 0; wi < kIssueWidths.size(); ++wi) {
    const auto cell_of = [&](std::size_t k) {
      return g.levels[k] * kIssueWidths.size() + wi;
    };
    bool any_missed = false;
    for (std::size_t k = 0; k < g.levels.size(); ++k) any_missed |= lc.missed[cell_of(k)];
    if (!any_missed) continue;
    const MachineModel m = MachineModel::issue(kIssueWidths[wi]);
    engine::TraceScope cell(
        strformat("%s/%s/w%d", w.name.c_str(), level_name(rep), m.issue_width), "cell");
    TransformStats leaf;
    std::optional<CellResult> result;
    for (std::size_t k = 0; k < g.levels.size(); ++k) {
      const std::size_t i = cell_of(k);
      if (!lc.missed[i]) continue;
      try {
        if (!result) result = run_leaf(w, g.plans.front(), rep, m, &leaf);
        if (k == 0) {
          lc.cells[i] = *result;
        } else if (result->error.empty()) {
          lc.cells[i] = *result;
          lc.shared[i] = true;
          g.plans[k].book_shared(leaf);
          engine::MetricsRegistry::global().add_count("study.cells_shared");
        } else {
          lc.cells[i] = run_leaf(w, g.plans[k], kLevels[g.levels[k]], m);
        }
        if (cache != nullptr)
          engine::memo_store(*cache, lc.keys[i], kCellCodec, lc.cells[i]);
      } catch (const std::exception& e) {
        fail_threw(lc, i, i + 1, e);
      }
    }
  }
  g.plans.clear();
}

}  // namespace

StudyResult run_study(const std::vector<Workload>& workloads, const StudyOptions& opts) {
  engine::Stopwatch wall;

  std::unique_ptr<engine::ResultCache> owned_cache;
  engine::ResultCache* cache = opts.cache;
  if (cache == nullptr && !opts.cache_dir.empty()) {
    owned_cache = std::make_unique<engine::ResultCache>(opts.cache_dir);
    cache = owned_cache.get();
  }
  const engine::CacheStats cache_before = cache ? cache->stats() : engine::CacheStats{};

  std::vector<LoopCells> loops(workloads.size());

  int jobs = opts.jobs;
  if (jobs <= 0) jobs = static_cast<int>(std::thread::hardware_concurrency());
  if (jobs < 1) jobs = 1;

  StudyResult res;
  res.stats.jobs = jobs;

  if (jobs == 1) {
    for (std::size_t loop_i = 0; loop_i < workloads.size(); ++loop_i) {
      LoopCells& lc = loops[loop_i];
      run_plan_job(workloads[loop_i], opts.compile, cache, lc);
      for (std::size_t gi = 0; gi < lc.groups.size(); ++gi)
        run_leaf_job(workloads[loop_i], gi, cache, lc);
    }
  } else {
    // Plan jobs run at most kPlanLookahead * `jobs` loops ahead: once loop
    // i's plan is done, its leaf jobs are queued behind the plans already in
    // flight, followed by the next loop's plan.  So only a few plans are
    // alive at a time.  Jobs write only their own loop's (or levels') slots,
    // and results are read by cell index — never by completion order — so
    // parallel aggregation is byte-identical to serial.
    engine::ThreadPool pool(static_cast<unsigned>(jobs));
    std::vector<std::future<void>> plans(workloads.size());
    std::vector<std::future<void>> leaves;
    leaves.reserve(workloads.size() * kLevels.size());
    std::size_t next = 0;
    const auto submit_plan = [&] {
      plans[next] = pool.submit([&w = workloads[next], &lc = loops[next], &opts,
                                 cache] { run_plan_job(w, opts.compile, cache, lc); });
      ++next;
    };
    const std::size_t ahead = kPlanLookahead * static_cast<std::size_t>(jobs);
    while (next < workloads.size() && next < ahead) submit_plan();
    for (std::size_t loop_i = 0; loop_i < workloads.size(); ++loop_i) {
      plans[loop_i].get();
      for (std::size_t gi = 0; gi < loops[loop_i].groups.size(); ++gi)
        leaves.push_back(pool.submit([&w = workloads[loop_i], gi, &lc = loops[loop_i],
                                      cache] { run_leaf_job(w, gi, cache, lc); }));
      if (next < workloads.size()) submit_plan();
    }
    for (auto& f : leaves) f.get();
    res.stats.peak_queue_depth = pool.peak_queue_depth();
  }

  for (std::size_t loop_i = 0; loop_i < workloads.size(); ++loop_i) {
    const Workload& w = workloads[loop_i];
    LoopStudy ls;
    ls.name = w.name;
    ls.group = w.group;
    ls.type = w.type;
    ls.conds = w.conds;
    for (std::size_t li = 0; li < kLevels.size(); ++li) {
      for (std::size_t wi = 0; wi < kIssueWidths.size(); ++wi) {
        const std::size_t i = li * kIssueWidths.size() + wi;
        const CellResult& c = loops[loop_i].cells[i];
        if (loops[loop_i].shared[i]) ++res.stats.shared_cells;
        if (!c.error.empty()) {
          ++res.stats.failed_cells;
          if (ls.error.empty()) ls.error = c.error;
          continue;
        }
        ls.cycles[li][wi] = c.cycles;
        if (kIssueWidths[wi] == 8) ls.regs[li] = c.regs;
      }
    }
    if (opts.verbose) {
      if (ls.ok())
        std::fprintf(stderr, "  %-12s base=%llu lev4@8=%llu\n", ls.name.c_str(),
                     static_cast<unsigned long long>(ls.base_cycles()),
                     static_cast<unsigned long long>(ls.cycles[4][3]));
      else
        std::fprintf(stderr, "  %-12s FAILED: %s\n", ls.name.c_str(), ls.error.c_str());
    }
    res.loops.push_back(std::move(ls));
  }

  res.stats.cells = loops.size() * kCellsPerLoop;
  if (cache != nullptr) {
    const engine::CacheStats after = cache->stats();
    res.stats.cache_hits = after.hits - cache_before.hits;
    res.stats.cache_disk_hits = after.disk_hits - cache_before.disk_hits;
    res.stats.cache_misses = after.misses - cache_before.misses;
    res.stats.cache_invalid = after.invalid - cache_before.invalid;
  } else {
    res.stats.cache_misses = res.stats.cells;
  }
  res.stats.wall_seconds = wall.seconds();
  return res;
}

StudyResult run_study(const StudyOptions& opts) { return run_study(workload_suite(), opts); }

double StudyResult::mean_speedup(OptLevel level, int width_index) const {
  if (loops.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& l : loops) sum += l.speedup(level, width_index);
  return sum / static_cast<double>(loops.size());
}

double StudyResult::mean_speedup_where(OptLevel level, int width_index,
                                       bool doall_only) const {
  double sum = 0.0;
  int n = 0;
  for (const auto& l : loops) {
    const bool is_doall = l.type == dsl::LoopType::DoAll;
    if (is_doall != doall_only) continue;
    sum += l.speedup(level, width_index);
    ++n;
  }
  return n == 0 ? 0.0 : sum / n;
}

double StudyResult::mean_registers(OptLevel level) const {
  if (loops.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& l : loops)
    sum += l.regs[static_cast<std::size_t>(level)].total();
  return sum / static_cast<double>(loops.size());
}

std::string StudyResult::to_json() const {
  std::string out;
  out.reserve(4096 + loops.size() * 1024);
  out += "{\n  \"schema\": \"ilp92-study-v1\",\n  \"issue_widths\": [1, 2, 4, 8],\n";
  out += "  \"levels\": [\"Conv\", \"Lev1\", \"Lev2\", \"Lev3\", \"Lev4\"],\n";
  out += "  \"loops\": [\n";
  for (std::size_t i = 0; i < loops.size(); ++i) {
    const LoopStudy& l = loops[i];
    out += strformat("    {\"name\": \"%s\", \"group\": \"%s\", \"type\": \"%s\", "
                     "\"conds\": %s,\n",
                     json_escape(l.name).c_str(), json_escape(l.group).c_str(),
                     dsl::loop_type_name(l.type), l.conds ? "true" : "false");
    out += strformat("     \"error\": \"%s\",\n", json_escape(l.error).c_str());
    out += "     \"cycles\": [";
    for (std::size_t li = 0; li < kLevels.size(); ++li) {
      out += li == 0 ? "[" : ", [";
      for (std::size_t wi = 0; wi < kIssueWidths.size(); ++wi)
        out += strformat("%s%llu", wi == 0 ? "" : ", ",
                         static_cast<unsigned long long>(l.cycles[li][wi]));
      out += "]";
    }
    out += "],\n     \"registers\": [";
    for (std::size_t li = 0; li < kLevels.size(); ++li)
      out += strformat("%s{\"int\": %d, \"fp\": %d}", li == 0 ? "" : ", ",
                       l.regs[li].int_regs, l.regs[li].fp_regs);
    out += "],\n     \"speedups\": [";
    for (std::size_t li = 0; li < kLevels.size(); ++li) {
      out += li == 0 ? "[" : ", [";
      for (std::size_t wi = 0; wi < kIssueWidths.size(); ++wi)
        out += strformat("%s%.6f", wi == 0 ? "" : ", ",
                         l.speedup(kLevels[li], static_cast<int>(wi)));
      out += "]";
    }
    out += strformat("]}%s\n", i + 1 < loops.size() ? "," : "");
  }
  out += "  ],\n  \"mean_speedup\": [";
  for (std::size_t li = 0; li < kLevels.size(); ++li) {
    out += li == 0 ? "[" : ", [";
    for (std::size_t wi = 0; wi < kIssueWidths.size(); ++wi)
      out += strformat("%s%.6f", wi == 0 ? "" : ", ",
                       mean_speedup(kLevels[li], static_cast<int>(wi)));
    out += "]";
  }
  out += "],\n  \"mean_registers\": [";
  for (std::size_t li = 0; li < kLevels.size(); ++li)
    out += strformat("%s%.6f", li == 0 ? "" : ", ", mean_registers(kLevels[li]));
  out += "]\n}\n";
  return out;
}

std::string StudyResult::telemetry_json() const {
  std::string out = "{\n";
  out += strformat(
      "  \"cells\": %llu,\n  \"failed_cells\": %llu,\n  \"shared_cells\": %llu,\n"
      "  \"jobs\": %d,\n"
      "  \"peak_queue_depth\": %llu,\n  \"wall_seconds\": %.6f,\n"
      "  \"cache\": {\"hits\": %llu, \"disk_hits\": %llu, \"misses\": %llu, "
      "\"invalid\": %llu, \"hit_rate\": %.4f},\n",
      static_cast<unsigned long long>(stats.cells),
      static_cast<unsigned long long>(stats.failed_cells),
      static_cast<unsigned long long>(stats.shared_cells), stats.jobs,
      static_cast<unsigned long long>(stats.peak_queue_depth), stats.wall_seconds,
      static_cast<unsigned long long>(stats.cache_hits),
      static_cast<unsigned long long>(stats.cache_disk_hits),
      static_cast<unsigned long long>(stats.cache_misses),
      static_cast<unsigned long long>(stats.cache_invalid), stats.cache_hit_rate());
  out += "  \"passes\": " + engine::MetricsRegistry::global().to_json(2) + "\n}\n";
  return out;
}

}  // namespace ilp

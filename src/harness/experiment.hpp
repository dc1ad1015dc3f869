// The paper's experimental methodology (Section 3.1), end to end:
//
//   for each of the 40 loop nests
//     for each transformation level Conv..Lev4
//       compile (front end -> Conv -> ILP transformations -> superblock
//       scheduling), measure graph-coloring register usage, and run the
//       execution-driven simulator at issue rates 1, 2, 4, 8.
//
// Speedups are relative to the issue-1 processor with conventional
// optimizations, exactly as in the paper ("the base configuration for all
// speedup calculations is an issue-1 processor with conventional compiler
// transformations"), so super-linear speedups can occur.
//
// The 800 cells of the full suite share most of their compile work: Conv is
// the common prefix of all five levels, and only the backend (modulo and list
// scheduling) reads the machine.  So the study runs one cell plan per loop, a
// tree that forks where the inputs do:
//
//   source -> frontend + nest pre-passes + Conv          once per loop
//     -> copy, level transformations + cleanup           once per (loop, level)
//       -> twin levels share leaves                      once per distinct level
//         -> copy, schedule + renumber, registers, simulate once per (level, width)
//
// (LoopPlan / LevelPlan below; trans/level.hpp has the three stages.)  The
// levels are cumulative, so when a level's added transformations find nothing
// to do its code is a lower level's; such twins (LevelPlan::same_leaves) share
// one leaf per width, and each twin's cell is filled from it as if compiled
// (StudyStats::shared_cells).  The
// level stage forks on a TransformSet: a paper level's set by default, or an
// explicit ablation set (ilpd's `transforms` requests).  Every leaf is
// identical to a fresh try_compile_workload of its cell, which is the same
// tree with one level and one width, moved instead of copied.  Outside the
// tests, LoopPlan::build is the only caller of the frontend in the harness,
// the tuner and the server.
//
// The autotuner (tune/tune.hpp) grows the same tree per search on its own
// axes: one LoopPlan per nest set, kept for the whole search, and per
// candidate a level fork that takes the candidate's options (unroll,
// scheduler), moved into a backend that stops before register measurement.
// Const plans are forked concurrently by the tuner's pool jobs; a fork only
// reads its parent.
//
// The plans run through the experiment engine (src/engine/): a thread pool
// (`StudyOptions::jobs`) executes one plan job per loop, which runs the prefix
// and every level stage and groups twin levels, then one leaf job per distinct
// level that computes its missed widths' leaves and fills its twins' cells;
// plan jobs run at most 2 x `jobs` loops ahead of the leaf jobs, so only a few
// plans are alive at once.  A content-addressed cache memoizes single cells
// across runs and processes (`StudyOptions::cache_dir`), a twin's cell under
// its own key; a plan job looks up all of its loop's cells first, so the
// frontend runs only for a loop with a missing cell and a level only for a
// level with one.  The telemetry layer records
// per-pass and per-job wall times.  Results are aggregated by cell index, so
// parallel output — including the serialized JSON — is byte-identical to a
// serial run.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "engine/cache.hpp"
#include "regalloc/regalloc.hpp"
#include "sim/profile.hpp"
#include "sim/simulator.hpp"
#include "support/expected.hpp"
#include "trans/level.hpp"
#include "workloads/suite.hpp"

namespace ilp {

inline constexpr std::array<int, 4> kIssueWidths = {1, 2, 4, 8};
inline constexpr std::array<OptLevel, 5> kLevels = {
    OptLevel::Conv, OptLevel::Lev1, OptLevel::Lev2, OptLevel::Lev3, OptLevel::Lev4};

struct LoopStudy {
  std::string name;
  std::string group;
  dsl::LoopType type = dsl::LoopType::DoAll;
  bool conds = false;
  // Empty when every cell of this loop succeeded; otherwise the first
  // failing cell's message (tagged with level/width).  Failed cells leave
  // cycles == 0, which speedup() already maps to 0.0.
  std::string error;

  // cycles[level][width-index]; width indices follow kIssueWidths.
  std::array<std::array<std::uint64_t, 4>, 5> cycles{};
  // Register usage of the code compiled for the issue-8 machine, per level
  // (Figure 11 reports usage for the issue-8 configuration).
  std::array<RegUsage, 5> regs{};

  [[nodiscard]] bool ok() const { return error.empty(); }
  [[nodiscard]] std::uint64_t base_cycles() const { return cycles[0][0]; }
  [[nodiscard]] double speedup(OptLevel level, int width_index) const {
    const auto c = cycles[static_cast<std::size_t>(level)][static_cast<std::size_t>(
        width_index)];
    return c == 0 ? 0.0 : static_cast<double>(base_cycles()) / static_cast<double>(c);
  }
};

struct StudyOptions {
  CompileOptions compile;   // unroll limits etc.
  bool verbose = false;     // progress lines to stderr
  // Worker threads for the cell sweep: 1 = serial in the calling thread
  // (the default, and the reference for determinism checks), 0 = one per
  // hardware thread, N = exactly N pool workers.
  int jobs = 1;
  // Non-empty: persist cell results under this directory (created lazily)
  // so re-runs of unchanged cells are near-free across processes.
  std::string cache_dir;
  // Optional externally owned cache (takes precedence over cache_dir); lets
  // several run_study calls in one process share a memoization tier.
  engine::ResultCache* cache = nullptr;
};

// Engine observability for one run_study call.  Wall-clock values vary run
// to run, so none of this participates in StudyResult::to_json (which must
// stay byte-identical between serial and parallel runs); it is exported
// separately via telemetry_json().
struct StudyStats {
  std::uint64_t cells = 0;         // total study cells executed or recalled
  std::uint64_t failed_cells = 0;  // cells that recorded an error
  // Cells filled from a twin level's leaf (LevelPlan::same_leaves) instead
  // of being scheduled, measured and simulated again.
  std::uint64_t shared_cells = 0;
  std::uint64_t cache_hits = 0;    // memory-tier hits during this run
  std::uint64_t cache_disk_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_invalid = 0;  // hits rejected as stale/corrupted
  int jobs = 1;                    // resolved worker count actually used
  std::size_t peak_queue_depth = 0;
  double wall_seconds = 0.0;

  [[nodiscard]] double cache_hit_rate() const {
    const std::uint64_t n = cache_hits + cache_disk_hits + cache_misses;
    return n == 0 ? 0.0
                  : static_cast<double>(cache_hits + cache_disk_hits - cache_invalid) /
                        static_cast<double>(n);
  }
};

struct StudyResult {
  std::vector<LoopStudy> loops;
  StudyStats stats;

  [[nodiscard]] double mean_speedup(OptLevel level, int width_index) const;
  // Subset means (Figures 12/14): predicate over loop type.
  [[nodiscard]] double mean_speedup_where(OptLevel level, int width_index,
                                          bool doall_only) const;
  [[nodiscard]] double mean_registers(OptLevel level) const;

  // Deterministic serialization of the study (schema "ilp92-study-v1"):
  // loops with per-cell cycles, per-level registers, speedups and the mean
  // tables.  Byte-identical for a given workload set regardless of jobs or
  // cache state; see tests/engine/study_engine_test.cpp.
  [[nodiscard]] std::string to_json() const;
  // Engine telemetry (stats above + the global pass-timing registry).
  [[nodiscard]] std::string telemetry_json() const;
};

// Runs the full study over the Table 2 suite (or a caller-provided subset).
StudyResult run_study(const StudyOptions& opts = {});
StudyResult run_study(const std::vector<Workload>& workloads,
                      const StudyOptions& opts = {});

// Compiles one workload at one level for one machine; exposed for benches.
struct CompiledLoop {
  Function fn{"x"};
  RegUsage regs;
};

class LevelPlan;

// The shared prefix of one workload's cells: frontend, nest pre-passes and
// the conventional optimizations, run once.  Errors carry the same text as
// try_compile_workload's: build() fails when the frontend rejects the source,
// level() when a pipeline stage throws (tagged with the level asked for).
class LoopPlan {
 public:
  static Expected<LoopPlan> build(const Workload& w, const CompileOptions& opts = {});

  // Runs the transformations of `set` and cleanup on a copy of the prefix
  // (the rvalue form moves the prefix instead).  `set` defaults to the
  // paper's `level` (TransformSet::for_level); an explicit one is the
  // ablation form, and `level` then only tags errors.
  [[nodiscard]] Expected<LevelPlan> level(
      OptLevel level, const std::optional<TransformSet>& set = std::nullopt) const&;
  [[nodiscard]] Expected<LevelPlan> level(
      OptLevel level, const std::optional<TransformSet>& set = std::nullopt) &&;
  // The candidate form (the tuner's): the fork runs `level`'s
  // transformations with `opts`' unroll options, and its backend uses
  // `opts`' scheduler.  `opts.nest` must be the prefix's (asserted): the
  // prefix already ran it.
  [[nodiscard]] Expected<LevelPlan> level(OptLevel level, const CompileOptions& opts) const;

 private:
  LoopPlan() = default;
  Expected<LevelPlan> fork(OptLevel level, const TransformSet& set,
                           const CompileOptions& opts, Function fn) const;

  std::string name_;
  CompileOptions opts_;
  Function fn_{"x"};
  TransformStats stats_;
  std::optional<std::string> error_;  // set when the prefix threw
};

// One (workload, level) of a plan: everything but the machine-dependent
// backend.
class LevelPlan {
 public:
  // Schedules a copy of the level for `m` and measures its registers (the
  // rvalue form moves the level instead).  `stats`, when non-null, receives
  // the compile's transformation counters, as from try_compile_workload.
  [[nodiscard]] Expected<CompiledLoop> compile(const MachineModel& m,
                                               TransformStats* stats = nullptr) const&;
  [[nodiscard]] Expected<CompiledLoop> compile(const MachineModel& m,
                                               TransformStats* stats = nullptr) &&;
  // The backend alone: the level, moved, scheduled for `m` with no register
  // measurement (the tuner's leaf).
  [[nodiscard]] Expected<Function> schedule(const MachineModel& m) &&;

  // True when `o` compiles to the same leaves: the same code (same_code,
  // ir/function.hpp) and the same backend options.  Cumulative levels whose
  // added transformations found nothing to do are such twins.
  [[nodiscard]] bool same_leaves(const LevelPlan& o) const;
  // Books a cell of this level filled from a twin's compiled leaf, whose
  // compile returned `leaf`: this level's transformation counters with the
  // leaf's backend fields, as compile() would have booked them.
  void book_shared(const TransformStats& leaf) const;

 private:
  friend class LoopPlan;
  LevelPlan() = default;
  Expected<CompiledLoop> leaf(const MachineModel& m, TransformStats* stats,
                              Function fn) const;
  Expected<Function> backend(const MachineModel& m, TransformStats* stats,
                             Function fn) const;

  std::string name_;
  OptLevel level_ = OptLevel::Conv;
  TransformSet set_;
  CompileOptions opts_;
  Function fn_{"x"};
  TransformStats stats_;
};

// Error-returning paths used by the study so one bad workload fails its
// cell, not the whole sweep.
// `stats`, when non-null, receives the per-compile transformation counters
// (loops unrolled, accumulators expanded, ...; see trans/level.hpp).
// try_compile_workload is the cell plan of a single cell; `set` forks its
// level stage as in LoopPlan::level.
Expected<CompiledLoop> try_compile_workload(
    const Workload& w, OptLevel level, const MachineModel& m,
    const CompileOptions& opts = {}, TransformStats* stats = nullptr,
    const std::optional<TransformSet>& set = std::nullopt);
Expected<std::uint64_t> try_simulate_cycles(const Function& fn, const MachineModel& m);

// Profiled variant: same seeded run, but every cycle x issue slot is
// attributed through sim/profile.hpp.  The profile is returned next to the
// result so callers (ilpc --profile, the explain layer, ilpd, bench_profile)
// get cycles and the why-of-the-cycles from one simulation.
struct ProfiledSim {
  SimResult result;
  CycleProfile profile;
};
Expected<ProfiledSim> try_simulate_profile(const Function& fn, const MachineModel& m);

// Hard-failing convenience wrappers (abort with the error message), kept for
// direct callers — the ablation and regpressure benches — where a failure is
// a programming error rather than data.
CompiledLoop compile_workload(const Workload& w, OptLevel level, const MachineModel& m,
                              const CompileOptions& opts = {});
std::uint64_t simulate_cycles(const Function& fn, const MachineModel& m);

// Content-address of one study cell: FNV-1a over the workload source, level,
// every machine parameter and every compile option (plus a schema version).
// Exposed for the cache tests.
std::uint64_t study_cell_key(const Workload& w, OptLevel level, const MachineModel& m,
                             const CompileOptions& opts);

}  // namespace ilp

// Autotuner: beam search over the transformation space, cost-model pruned.
//
// The paper fixes five transformation levels; the repo exposes a much larger
// per-program space — {level, unroll factor, nest pass subset, tile size,
// scheduler backend}.  autotune() searches it with simulated cycles as the
// objective:
//
//   round 0   the five paper levels at the default knobs (always simulated —
//             the Lev4 seed makes "never worse than Lev4" hold by
//             construction, and the seeds calibrate the cost model);
//   round k   every single-knob mutation of the current beam, deduplicated
//             against everything already visited, is *analyzed* (compiled,
//             features extracted) and ranked by the cost model; only the top
//             `sim_fraction` (at least `beam_width`) is *simulated*, the
//             rest are pruned.  Survivors refresh the calibration and the
//             beam; the search stops when no round improves the best, the
//             rounds or simulation budget runs out, or `cancelled()` fires.
//
// Everything is deterministic for a fixed (source, options): candidates are
// generated in sorted order, evaluated batches are collected by submission
// index, calibration updates happen in index order, and every ranking uses
// explicit (value, config-order) keys — so a parallel evaluator returns
// byte-identical results to a serial one, and identical requests coalesce
// on content hash.  Evaluation is abstracted behind `Evaluator`; the one
// implementation, LocalEvaluator, runs in-process (ilpc/bench: thread pool +
// result cache) and inside ilpd (the service's pool, measuring through its
// cell cache).
//
// A search's candidates share one source and vary only the nest set, level,
// unroll and scheduler, so LocalEvaluator compiles them through one plan
// tree per search (SearchPlan, built on harness/experiment.hpp's cell plans).
// Knobs often do nothing on a given loop (a nest flag that finds no legal
// nest, a level that adds nothing, a modulo request that does not pipeline),
// so every stage is addressed by its code, not by the config that asked:
//
//   source -> frontend + nest pre-passes + Conv    once per nest set,
//                                                  grouped by prefix code
//     -> copy, level transformations + cleanup     once per (prefix group,
//                                                  level, unroll)
//       -> copy, schedule at the search's width    once per (level code,
//          + feature extraction                    scheduler): the leaf
//         -> simulate                              once per leaf code
//
// Codes are found by code_hash and confirmed by same_code (ir/function.hpp)
// through engine::SlotTable; each slot is filled once by whichever job
// reaches it first, so twins in one pool batch coalesce.  A group's levels
// fork from its first prefix, whose code every member shares.  The memo
// lives for one search: level forks and leaves are kept until the evaluator
// sees another (source, issue), because a later round's configs reach them
// too.  Every config still gets its own Analysis and Measurement; the
// ResultCache is looked up under the config's own key first, and a shared
// measurement is stored under each twin's key without being flagged a cache
// hit, so a search's TuneResult is the same as if every config had been
// compiled and simulated on its own.  The exact counters tune.levels_shared,
// tune.schedules_shared and tune.sims_shared count the stages a config
// reached already computed.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/cache.hpp"
#include "engine/pool.hpp"
#include "ir/function.hpp"
#include "sched/modulo/modulo.hpp"
#include "support/expected.hpp"
#include "trans/level.hpp"
#include "trans/nest/nest.hpp"
#include "tune/costmodel.hpp"

namespace ilp::tune {

// Knob grids for single-knob mutations.  Sorted, so neighbor generation
// order — and therefore every downstream tie-break — is deterministic.
inline constexpr std::array<int, 5> kUnrollGrid = {1, 2, 4, 8, 16};
inline constexpr std::array<int, 4> kTileGrid = {4, 8, 16, 32};

// One point of the search space.
struct TuneConfig {
  OptLevel level = OptLevel::Lev4;
  int unroll = 8;
  NestOptions nest;
  SchedulerKind scheduler = SchedulerKind::List;

  bool operator==(const TuneConfig&) const = default;

  // Dense, total, deterministic order used for dedup and every tie-break.
  // Uses the low 28 bits; unique for unroll < 128 and tile_size < 8192.
  [[nodiscard]] std::uint64_t order_key() const;
  // The inverse of order_key; asserts that `key` encodes a valid config.
  [[nodiscard]] static TuneConfig from_order_key(std::uint64_t key);
  // Compact human-readable name, e.g. "Lev4/u8/list" or
  // "Lev3/u4/modulo+interchange+tile16".
  [[nodiscard]] std::string name() const;
  [[nodiscard]] std::string to_json() const;
};

// The tuner's reference point: Lev4 at the service defaults.
[[nodiscard]] TuneConfig default_config();
[[nodiscard]] CompileOptions to_compile_options(const TuneConfig& c);

struct TuneOptions {
  int issue = 8;
  int beam_width = 4;        // configs carried between rounds
  int max_rounds = 3;        // mutation rounds after the seed round
  double sim_fraction = 0.5; // share of each analyzed frontier simulated
  int max_sims = 48;         // simulation budget, seeds included
  bool use_cost_model = true;  // false: simulate every candidate (exhaustive)
  // Polled between evaluation batches; true stops the search with the best
  // found so far (`stopped_early` set).  Wire deadlines and drains here.
  std::function<bool()> cancelled;
};

// Audit record of one candidate, in deterministic evaluation order.  A
// search keeps one per candidate and a caller may keep many searches, so it
// stays small: the config is held as its order key, and the first failure's
// message is TuneResult::error when every seed fails (no other reader needs
// a candidate's).
struct CandidateEval {
  CandidateEval(const TuneConfig& c, int round);

  [[nodiscard]] TuneConfig config() const { return TuneConfig::from_order_key(config_key); }

  std::uint32_t config_key = 0;  // TuneConfig::order_key()
  std::uint16_t round = 0;
  bool simulated : 1 = false;  // false: pruned by the cost model (or budget)
  bool ok : 1 = true;          // compile/simulate succeeded
  bool cache_hit : 1 = false;  // measurement served from the result cache
  std::uint64_t cycles = 0;    // simulated cycles when simulated && ok
};
static_assert(sizeof(CandidateEval) <= 16, "a search keeps one per candidate");

struct TuneResult {
  bool ok = false;
  std::string error;
  bool stopped_early = false;  // cancelled() fired mid-search

  TuneConfig best;
  std::uint64_t best_cycles = 0;
  std::uint64_t lev4_cycles = 0;  // the default_config() seed's cycles

  int rounds = 0;  // mutation rounds actually run
  std::uint64_t considered = 0;
  std::uint64_t simulated = 0;
  std::uint64_t pruned = 0;
  std::uint64_t cache_hits = 0;
  double model_mape = 0.0;

  std::vector<CandidateEval> evals;

  [[nodiscard]] double speedup_vs_lev4() const {
    return best_cycles == 0 ? 0.0
                            : static_cast<double>(lev4_cycles) /
                                  static_cast<double>(best_cycles);
  }
  // Deterministic digest of the search (configs, flags, cycles — everything
  // except cache hits, which legitimately vary with cache warmth).  Equal
  // signatures mean "the same search happened"; the determinism tests and
  // the parallel-vs-serial oracle compare these.
  [[nodiscard]] std::string signature() const;
  // JSON object (schema "tune-result-v1") embedded in ilpd autotune
  // responses and bench rows.
  [[nodiscard]] std::string to_json() const;
};

// Evaluation backend.  Batch interfaces return one entry per input config at
// the same index; implementations may run members concurrently but must not
// reorder results.
class Evaluator {
 public:
  struct Analysis {
    bool ok = false;
    IrFeatures features;
    std::string error;
  };
  struct Measurement {
    bool ok = false;
    std::uint64_t cycles = 0;
    // CycleProfile mem-wait slot share of the run (cached alongside cycles);
    // the default seed's value feeds the cost model's load correction.
    double mem_wait = 0.0;
    bool cache_hit = false;
    std::string error;
  };

  virtual ~Evaluator() = default;
  // Compile + feature extraction, no simulation (the cheap phase the model
  // ranks from).
  virtual std::vector<Analysis> analyze(const std::string& source, int issue,
                                        const std::vector<TuneConfig>& cfgs) = 0;
  // Simulate (compiling first what analyze did not keep); memoized through
  // a content-addressed cache.
  virtual std::vector<Measurement> measure(const std::string& source, int issue,
                                           const std::vector<TuneConfig>& cfgs) = 0;
};

// One search's plan tree (see the top of this file).  Safe to call from
// concurrent jobs.  A prefix is keyed by the nest set (tile_size only when
// tiling is on: nothing else reads it).
class SearchPlan {
 public:
  // `keep_leaves` false drops each leaf once its features are extracted, for
  // a caller that measures elsewhere (ilpd); simulate() and leaf() are then
  // unavailable.
  SearchPlan(std::string source, int issue, bool keep_leaves = true);
  ~SearchPlan();
  SearchPlan(const SearchPlan&) = delete;
  SearchPlan& operator=(const SearchPlan&) = delete;

  [[nodiscard]] const std::string& source() const { return source_; }
  [[nodiscard]] int issue() const { return issue_; }

  // The features of `c`'s leaf, or the compile error (try_compile_workload's
  // text).
  [[nodiscard]] Evaluator::Analysis analyze(const TuneConfig& c);
  // `c`'s leaf simulated, profiled, with the conservation check enforced.
  [[nodiscard]] Evaluator::Measurement simulate(const TuneConfig& c);
  // `c` compiled and scheduled for the search's issue width, registers not
  // measured; identical to a one-shot compile of the config.  Configs that
  // compile to the same code share one leaf, which lives as long as the plan.
  [[nodiscard]] Expected<const Function*> leaf(const TuneConfig& c);

 private:
  struct Tree;
  struct Config;
  Config& place(const TuneConfig& c);

  std::string source_;
  int issue_;
  bool keep_leaves_;
  std::unique_ptr<Tree> tree_;
};

// The evaluator: ilpc, the benches, the tests and ilpd all run this one.
// Batches fan out on the optional thread pool (null: serial on the calling
// thread).  Each job runs under the caller's request context
// (obs::current_request()), so a traced request gets an "analyze <config>" /
// "measure <config>" span per candidate, and each batch's wall time lands in
// the tune.phase.search / tune.phase.simulate histograms.
//
// analyze compiles every candidate through the SearchPlan of (source,
// issue), kept until either changes.  A measurement is one call of the
// measure function per candidate.  The default looks the candidate up in
// `cache` (null: none) under a "tune-cell" domain key derived from the same
// shared salt builder as the service cells, and on a miss takes the plan's
// simulation of its leaf (a config analyze never saw is built through the
// same tree), stored under the candidate's key.  ilpd passes its own, which
// runs the candidate as a compile cell through its shard cache, so a tuned
// cell and a compiled cell are one cache entry; the plan then keeps no
// leaves, and only the analysis is shared between twins.
//
// One search at a time: analyze and measure must not be called concurrently
// on one evaluator.
class LocalEvaluator : public Evaluator {
 public:
  using MeasureFn = std::function<Measurement(const std::string& source, int issue,
                                              const TuneConfig& config)>;

  explicit LocalEvaluator(engine::ThreadPool* pool = nullptr,
                          engine::ResultCache* cache = nullptr);
  LocalEvaluator(engine::ThreadPool* pool, MeasureFn measure);
  ~LocalEvaluator() override;

  std::vector<Analysis> analyze(const std::string& source, int issue,
                                const std::vector<TuneConfig>& cfgs) override;
  std::vector<Measurement> measure(const std::string& source, int issue,
                                   const std::vector<TuneConfig>& cfgs) override;

 private:
  SearchPlan& plan_for(const std::string& source, int issue);

  engine::ThreadPool* pool_;
  engine::ResultCache* cache_ = nullptr;
  MeasureFn measure_;  // empty: simulate the leaf (memoized in cache_)
  std::unique_ptr<SearchPlan> plan_;
};

TuneResult autotune(const std::string& source, const TuneOptions& opts,
                    Evaluator& eval);
// Convenience overload running on a LocalEvaluator.
TuneResult autotune(const std::string& source, const TuneOptions& opts = {},
                    engine::ThreadPool* pool = nullptr,
                    engine::ResultCache* cache = nullptr);

// Fixed-subgrid pruning audit — the cost model's accountability contract.
//
// Evaluates `grid` twice over the same evaluator: once pruned (measure the
// five paper seeds, calibrate, simulate only the model-ranked top
// `sim_fraction` of the rest) and once exhaustively (measure everything —
// the ground truth; the shared cache makes the overlap free).  Because the
// ground truth covers the pruned-away set too, the audit reports exactly
// what pruning cost: whether the pruned pass still found the true best, and
// the precision of the pruned set (how many skipped configs were indeed not
// better than the found best).
struct PruningAudit {
  bool ok = false;
  std::string error;
  std::uint64_t exhaustive_best = 0;  // true min cycles over the whole grid
  std::uint64_t pruned_best = 0;      // min cycles over the simulated subset
  std::uint64_t grid_size = 0;
  std::uint64_t simulated = 0;  // seeds + model-ranked survivors
  std::uint64_t pruned = 0;     // configs never simulated by the pruned pass
  std::uint64_t true_negatives = 0;  // pruned configs with cycles >= pruned_best
  double model_mape = 0.0;

  [[nodiscard]] bool equal_best() const { return pruned_best == exhaustive_best; }
  [[nodiscard]] double pruned_fraction() const {
    return grid_size == 0 ? 0.0
                          : static_cast<double>(pruned) /
                                static_cast<double>(grid_size);
  }
  [[nodiscard]] double precision() const {
    return pruned == 0 ? 1.0
                       : static_cast<double>(true_negatives) /
                             static_cast<double>(pruned);
  }
};

// `grid` must contain the five paper seed configs (the calibration set); the
// default grid below does.  Only `opts.issue` and `opts.sim_fraction` apply.
PruningAudit audit_pruning(const std::string& source, const TuneOptions& opts,
                           const std::vector<TuneConfig>& grid, Evaluator& eval);

// The default audit sub-grid: every level x unroll {1,2,4,8,16}, list
// scheduler, no nest passes (25 configs, seeds included).
[[nodiscard]] std::vector<TuneConfig> default_audit_grid();

}  // namespace ilp::tune

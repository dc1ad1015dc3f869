#include "tune/tune.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <exception>
#include <future>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>

#include "engine/memo.hpp"
#include "engine/metrics.hpp"
#include "harness/cache_key.hpp"
#include "harness/experiment.hpp"
#include "obs/context.hpp"
#include "sim/profile.hpp"
#include "support/assert.hpp"
#include "support/strings.hpp"
#include "workloads/suite.hpp"

namespace ilp::tune {

namespace {

Workload adhoc_workload(const std::string& source) {
  Workload w;
  w.name = "tune";
  w.source = source;
  return w;
}

}  // namespace

std::uint64_t TuneConfig::order_key() const {
  // level(3) | unroll(7) | sched(1) | nest flags(4) | tile_size(13): dense
  // enough to be unique over the legal knob ranges, ordered so seeds sort by
  // level and neighbors sort stably by which knob mutated.
  std::uint64_t k = static_cast<std::uint64_t>(level) & 0x7u;
  k = (k << 7) | (static_cast<std::uint64_t>(unroll) & 0x7fu);
  k = (k << 1) | (scheduler == SchedulerKind::Modulo ? 1u : 0u);
  k = (k << 1) | (nest.interchange ? 1u : 0u);
  k = (k << 1) | (nest.fuse ? 1u : 0u);
  k = (k << 1) | (nest.fission ? 1u : 0u);
  k = (k << 1) | (nest.tile ? 1u : 0u);
  k = (k << 13) | (static_cast<std::uint64_t>(nest.tile_size) & 0x1fffu);
  return k;
}

TuneConfig TuneConfig::from_order_key(std::uint64_t key) {
  ILP_ASSERT(key >> 28 == 0, "not a TuneConfig order key");
  TuneConfig c;
  c.nest.tile_size = static_cast<int>(key & 0x1fffu);
  c.nest.tile = (key >> 13 & 1u) != 0;
  c.nest.fission = (key >> 14 & 1u) != 0;
  c.nest.fuse = (key >> 15 & 1u) != 0;
  c.nest.interchange = (key >> 16 & 1u) != 0;
  c.scheduler = (key >> 17 & 1u) != 0 ? SchedulerKind::Modulo : SchedulerKind::List;
  c.unroll = static_cast<int>(key >> 18 & 0x7fu);
  const std::uint64_t level = key >> 25;
  ILP_ASSERT(level <= static_cast<std::uint64_t>(OptLevel::Lev4), "order key level out of range");
  ILP_ASSERT(c.unroll >= 1, "order key unroll out of range");
  ILP_ASSERT(c.nest.tile_size >= 1, "order key tile size out of range");
  c.level = static_cast<OptLevel>(level);
  return c;
}

CandidateEval::CandidateEval(const TuneConfig& c, int r)
    : config_key(static_cast<std::uint32_t>(c.order_key())),
      round(static_cast<std::uint16_t>(r)) {
  ILP_ASSERT(r >= 0 && r <= UINT16_MAX, "round out of range");
  ILP_ASSERT(config() == c, "config outside the order key's ranges");
}

std::string TuneConfig::name() const {
  std::string out = strformat("%s/u%d/%s", level_name(level), unroll,
                              scheduler_kind_name(scheduler));
  if (nest.interchange) out += "+interchange";
  if (nest.fuse) out += "+fuse";
  if (nest.fission) out += "+fission";
  if (nest.tile) out += strformat("+tile%d", nest.tile_size);
  return out;
}

std::string TuneConfig::to_json() const {
  return strformat(
      "{\"level\": \"%s\", \"unroll\": %d, \"scheduler\": \"%s\", "
      "\"nest\": {\"interchange\": %s, \"fuse\": %s, \"fission\": %s, "
      "\"tile\": %s, \"tile_size\": %d}}",
      level_name(level), unroll, scheduler_kind_name(scheduler),
      nest.interchange ? "true" : "false", nest.fuse ? "true" : "false",
      nest.fission ? "true" : "false", nest.tile ? "true" : "false",
      nest.tile_size);
}

TuneConfig default_config() { return TuneConfig{}; }

CompileOptions to_compile_options(const TuneConfig& c) {
  CompileOptions opts;
  opts.unroll.max_factor = c.unroll;
  opts.nest = c.nest;
  opts.scheduler = c.scheduler;
  return opts;
}

std::string TuneResult::signature() const {
  std::string out = strformat(
      "ok=%d best=%s cycles=%" PRIu64 " lev4=%" PRIu64 " rounds=%d "
      "considered=%" PRIu64 " simulated=%" PRIu64 " pruned=%" PRIu64 "\n",
      ok ? 1 : 0, best.name().c_str(), best_cycles, lev4_cycles, rounds,
      considered, simulated, pruned);
  for (const CandidateEval& e : evals)
    out += strformat("r%d %s sim=%d ok=%d cycles=%" PRIu64 "\n", e.round,
                     e.config().name().c_str(), e.simulated ? 1 : 0, e.ok ? 1 : 0,
                     e.cycles);
  return out;
}

std::string TuneResult::to_json() const {
  return strformat(
      "{\"schema\": \"tune-result-v1\", \"ok\": %s, \"stopped_early\": %s, "
      "\"best\": %s, \"best_name\": \"%s\", \"best_cycles\": %" PRIu64
      ", \"lev4_cycles\": %" PRIu64 ", \"speedup_vs_lev4\": %.4f, "
      "\"rounds\": %d, \"candidates\": {\"considered\": %" PRIu64
      ", \"simulated\": %" PRIu64 ", \"pruned\": %" PRIu64
      ", \"cache_hits\": %" PRIu64 "}, \"model_mape\": %.4f%s}",
      ok ? "true" : "false", stopped_early ? "true" : "false",
      best.to_json().c_str(), best.name().c_str(), best_cycles, lev4_cycles,
      speedup_vs_lev4(), rounds, considered, simulated, pruned, cache_hits,
      model_mape,
      error.empty()
          ? ""
          : strformat(", \"error\": \"%s\"", json_escape(error).c_str())
                .c_str());
}

// SearchPlan ----------------------------------------------------------------

namespace {

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  return engine::HashStream{}.u64(a).u64(b).digest();
}

// Adds one to an exact sharing counter when `ran` is false: the stage was
// already computed for another config.
void count_shared(bool ran, const char* name) {
  if (!ran) engine::MetricsRegistry::global().add_count(name);
}

}  // namespace

// The plan tree's stages, each a SlotTable of slots filled once under their
// own once_flag by whichever job reaches them first.  A slot's key fields are
// set when it is made and never change.
struct SearchPlan::Tree {
  // One per nest set: frontend, nest pre-passes and Conv.
  struct Prefix {
    NestOptions nest;
    std::once_flag once;
    std::optional<Expected<LoopPlan>> plan;
    const Prefix* group = nullptr;  // the first prefix of the same code
  };
  struct Group {
    const Prefix* rep;
  };
  // One per (prefix group, level, unroll): the level stage, forked from the
  // group's first prefix with the default backend options, so same_leaves
  // compares the forks' code.
  struct Level {
    const Prefix* group;
    OptLevel level;
    int unroll;
    std::once_flag once;
    std::optional<Expected<LevelPlan>> plan;
    std::uint64_t hash = 0;  // plan->leaves_hash()
  };
  // One per leaf code: its simulation.
  struct Sim {
    Function code;
    std::once_flag once;
    Evaluator::Measurement result;
  };
  // One per (level code, scheduler): the backend and the leaf's features.
  struct Leaf {
    const LevelPlan* level;
    SchedulerKind scheduler;
    std::once_flag once;
    Expected<IrFeatures> features = Error{};
    Sim* sim = nullptr;  // null when the plan keeps no leaves
  };

  engine::SlotTable<Prefix> prefixes;
  engine::SlotTable<Group> groups;
  engine::SlotTable<Level> levels;
  engine::SlotTable<Leaf> leaves;
  engine::SlotTable<Sim> sims;
  engine::SlotTable<Config> configs;
};

// Where one config landed: its leaf, or the prefix or level error.
struct SearchPlan::Config {
  std::uint64_t key;
  std::once_flag once;
  std::string error;
  Tree::Leaf* leaf = nullptr;

  // The config's compile error, or null when it compiled.
  [[nodiscard]] const std::string* failure() const {
    if (leaf == nullptr) return &error;
    return leaf->features ? nullptr : &leaf->features.error_message();
  }
};

SearchPlan::SearchPlan(std::string source, int issue, bool keep_leaves)
    : source_(std::move(source)),
      issue_(issue),
      keep_leaves_(keep_leaves),
      tree_(std::make_unique<Tree>()) {}

SearchPlan::~SearchPlan() = default;

SearchPlan::Config& SearchPlan::place(const TuneConfig& c) {
  Tree& t = *tree_;
  const std::uint64_t key = c.order_key();
  Config& x = t.configs
                  .find_or_insert(
                      key, [&](const Config& o) { return o.key == key; },
                      [&] { return std::make_unique<Config>(key); })
                  .first;
  std::call_once(x.once, [&] {
    // Prefix, grouped by code once built.
    NestOptions nest = c.nest;
    if (!nest.tile) nest.tile_size = NestOptions{}.tile_size;
    TuneConfig nest_only;
    nest_only.nest = nest;
    Tree::Prefix& p = t.prefixes
                          .find_or_insert(
                              nest_only.order_key(),
                              [&](const Tree::Prefix& o) { return o.nest == nest; },
                              [&] { return std::make_unique<Tree::Prefix>(nest); })
                          .first;
    std::call_once(p.once, [&] {
      CompileOptions opts;
      opts.nest = nest;
      p.plan.emplace(LoopPlan::build(adhoc_workload(source_), opts));
      p.group = &p;
      if (!*p.plan) return;
      const LoopPlan& mine = **p.plan;
      p.group = t.groups
                    .find_or_insert(
                        mine.prefix_hash(),
                        [&](const Tree::Group& g) { return (**g.rep->plan).same_prefix(mine); },
                        [&] { return std::make_unique<Tree::Group>(&p); })
                    .first.rep;
    });
    const Tree::Prefix& group = *p.group;
    const Expected<LoopPlan>& loop = *group.plan;
    if (!loop) {
      x.error = loop.error_message();
      return;
    }

    // Level stage, per (prefix group, level, unroll).
    Tree::Level& lv =
        t.levels
            .find_or_insert(
                mix(mix(reinterpret_cast<std::uintptr_t>(&group),
                        static_cast<std::uint64_t>(c.level)),
                    static_cast<std::uint64_t>(c.unroll)),
                [&](const Tree::Level& o) {
                  return o.group == &group && o.level == c.level && o.unroll == c.unroll;
                },
                [&] { return std::make_unique<Tree::Level>(&group, c.level, c.unroll); })
            .first;
    bool ran = false;
    std::call_once(lv.once, [&] {
      CompileOptions opts = to_compile_options(c);
      opts.nest = group.nest;
      opts.scheduler = SchedulerKind::List;
      lv.plan.emplace(loop->level(c.level, opts));
      if (*lv.plan) lv.hash = (*lv.plan)->leaves_hash();
      ran = true;
    });
    count_shared(ran, "tune.levels_shared");
    if (!*lv.plan) {
      x.error = lv.plan->error_message();
      return;
    }

    // Backend, per (level code, scheduler); then the leaf's simulation slot.
    const LevelPlan& level = **lv.plan;
    Tree::Leaf& leaf =
        t.leaves
            .find_or_insert(
                mix(lv.hash, static_cast<std::uint64_t>(c.scheduler)),
                [&](const Tree::Leaf& o) {
                  return o.scheduler == c.scheduler && o.level->same_leaves(level);
                },
                [&] { return std::make_unique<Tree::Leaf>(&level, c.scheduler); })
            .first;
    ran = false;
    std::call_once(leaf.once, [&] {
      ran = true;
      const MachineModel m = MachineModel::issue(issue_);
      auto fn = leaf.level->schedule(m, leaf.scheduler);
      if (!fn) {
        leaf.features = Error{fn.error_message()};
        return;
      }
      leaf.features = extract_features(*fn, m);
      if (!keep_leaves_) return;
      leaf.sim = &t.sims
                      .find_or_insert(
                          code_hash(*fn),
                          [&](const Tree::Sim& o) { return same_code(o.code, *fn); },
                          [&] { return std::make_unique<Tree::Sim>(std::move(*fn)); })
                      .first;
    });
    count_shared(ran, "tune.schedules_shared");
    x.leaf = &leaf;
  });
  return x;
}

Evaluator::Analysis SearchPlan::analyze(const TuneConfig& c) {
  const Config& x = place(c);
  Evaluator::Analysis a;
  if (const std::string* error = x.failure()) {
    a.error = *error;
    return a;
  }
  a.ok = true;
  a.features = *x.leaf->features;
  return a;
}

namespace {

// Simulates a leaf profiled.  The conservation check is the tuner's
// per-candidate oracle: a simulated result whose slot accounting does not
// close is a bug, never a winner.
Evaluator::Measurement simulate_leaf(const Function& fn, const MachineModel& m) {
  Evaluator::Measurement out;
  auto sim = try_simulate_profile(fn, m);
  if (!sim) {
    out.error = sim.error_message();
    return out;
  }
  if (std::string violation = sim->profile.check_conservation(); !violation.empty()) {
    out.error = "profile conservation violated: " + violation;
    return out;
  }
  out.ok = true;
  out.cycles = sim->result.cycles;
  out.mem_wait = sim->profile.fraction(StallCause::MemWait);
  return out;
}

}  // namespace

Evaluator::Measurement SearchPlan::simulate(const TuneConfig& c) {
  ILP_ASSERT(keep_leaves_, "this plan keeps no leaves");
  const Config& x = place(c);
  if (const std::string* error = x.failure()) {
    Evaluator::Measurement out;
    out.error = *error;
    return out;
  }
  Tree::Sim& s = *x.leaf->sim;
  bool ran = false;
  std::call_once(s.once, [&] {
    s.result = simulate_leaf(s.code, MachineModel::issue(issue_));
    ran = true;
  });
  count_shared(ran, "tune.sims_shared");
  return s.result;
}

Expected<const Function*> SearchPlan::leaf(const TuneConfig& c) {
  ILP_ASSERT(keep_leaves_, "this plan keeps no leaves");
  const Config& x = place(c);
  if (const std::string* error = x.failure()) return Error{*error};
  return &x.leaf->sim->code;
}

// LocalEvaluator ------------------------------------------------------------

namespace {

std::uint64_t tune_cell_key(const std::string& source, int issue,
                            const TuneConfig& c) {
  engine::HashStream h;
  hash_domain_salt(h, "tune-cell");
  // Same field set as the ilpd cell (shared salt builder) so a knob bump
  // rolls this domain over with the rest.
  h.u64(service_cell_key(source, c.level, std::nullopt, c.nest, c.scheduler,
                         issue, c.unroll, 0));
  return h.digest();
}

// A failed measurement is recomputed, never stored.
constexpr engine::Codec<Evaluator::Measurement> kMeasurementCodec{
    [](const Evaluator::Measurement& m) {
      return strformat("tune-v1 ok %" PRIu64 " %.9f", m.cycles, m.mem_wait);
    },
    [](const std::string& payload, Evaluator::Measurement& out) {
      out.ok = out.cache_hit = std::sscanf(payload.c_str(), "tune-v1 ok %" SCNu64 " %lf",
                                           &out.cycles, &out.mem_wait) == 2;
      return out.ok;
    },
    [](const Evaluator::Measurement& m) { return !m.ok; }};

// Runs `one(i)` for every config of a batch, on the pool when there is one,
// results by input index.  Each job runs under the caller's request context
// and records a "<verb> <config>" span; the label is built only for a traced
// request.  Every job settles before an exception escapes, so none outlives
// `one`.
template <typename Result, typename One>
std::vector<Result> run_batch(engine::ThreadPool* pool, const char* verb,
                              const std::vector<TuneConfig>& cfgs, const One& one) {
  const obs::RequestContext* rc = obs::current_request();
  auto job = [rc, verb, &one, &cfgs](std::size_t i) {
    obs::RequestScope scope(rc);
    std::string label;
    if (rc != nullptr && rc->sink != nullptr)
      label = strformat("%s %s", verb, cfgs[i].name().c_str());
    obs::SpanScope span(label, "tune");
    return one(i);
  };
  std::vector<Result> out(cfgs.size());
  if (pool == nullptr || cfgs.size() < 2) {
    for (std::size_t i = 0; i < cfgs.size(); ++i) out[i] = job(i);
    return out;
  }
  std::vector<std::future<Result>> futures;
  futures.reserve(cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i)
    futures.push_back(pool->submit([&job, i] { return job(i); }));
  std::exception_ptr error;
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    try {
      out[i] = futures[i].get();
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
  return out;
}

}  // namespace

LocalEvaluator::LocalEvaluator(engine::ThreadPool* pool, engine::ResultCache* cache)
    : pool_(pool), cache_(cache) {}

LocalEvaluator::LocalEvaluator(engine::ThreadPool* pool, MeasureFn measure)
    : pool_(pool), measure_(std::move(measure)) {}

LocalEvaluator::~LocalEvaluator() = default;

SearchPlan& LocalEvaluator::plan_for(const std::string& source, int issue) {
  if (!plan_ || plan_->issue() != issue || plan_->source() != source)
    plan_ = std::make_unique<SearchPlan>(source, issue, /*keep_leaves=*/!measure_);
  return *plan_;
}

std::vector<Evaluator::Analysis> LocalEvaluator::analyze(
    const std::string& source, int issue, const std::vector<TuneConfig>& cfgs) {
  static obs::Histogram& search_hist =
      engine::MetricsRegistry::global().histogram("tune.phase.search");
  const engine::Stopwatch wall;
  SearchPlan& plan = plan_for(source, issue);
  auto out = run_batch<Analysis>(pool_, "analyze", cfgs,
                                 [&](std::size_t i) { return plan.analyze(cfgs[i]); });
  search_hist.record(wall.nanos());
  return out;
}

std::vector<Evaluator::Measurement> LocalEvaluator::measure(
    const std::string& source, int issue, const std::vector<TuneConfig>& cfgs) {
  static obs::Histogram& simulate_hist =
      engine::MetricsRegistry::global().histogram("tune.phase.simulate");
  const engine::Stopwatch wall;
  SearchPlan& plan = plan_for(source, issue);
  auto one = [&](std::size_t i) {
    const TuneConfig& c = cfgs[i];
    if (measure_) return measure_(source, issue, c);
    if (cache_ == nullptr) return plan.simulate(c);
    return engine::memoize(*cache_, tune_cell_key(source, issue, c), kMeasurementCodec,
                           [&] { return plan.simulate(c); });
  };
  auto out = run_batch<Measurement>(pool_, "measure", cfgs, one);
  simulate_hist.record(wall.nanos());
  return out;
}

// Search core ---------------------------------------------------------------

namespace {

// Single-knob mutations of `c`, in a fixed order.
std::vector<TuneConfig> neighbors(const TuneConfig& c) {
  std::vector<TuneConfig> out;
  for (const OptLevel l : kLevels) {
    TuneConfig n = c;
    n.level = l;
    out.push_back(n);
  }
  for (const int u : kUnrollGrid) {
    TuneConfig n = c;
    n.unroll = u;
    out.push_back(n);
  }
  for (const SchedulerKind s : {SchedulerKind::List, SchedulerKind::Modulo}) {
    TuneConfig n = c;
    n.scheduler = s;
    out.push_back(n);
  }
  for (int flag = 0; flag < 4; ++flag) {
    TuneConfig n = c;
    bool* f = flag == 0   ? &n.nest.interchange
              : flag == 1 ? &n.nest.fuse
              : flag == 2 ? &n.nest.fission
                          : &n.nest.tile;
    *f = !*f;
    out.push_back(n);
  }
  if (c.nest.tile)
    for (const int ts : kTileGrid) {
      TuneConfig n = c;
      n.nest.tile_size = ts;
      out.push_back(n);
    }
  return out;
}

struct Simulated {
  TuneConfig config;
  std::uint64_t cycles = 0;

  // The deterministic "better" order: fewer cycles, then lower config key.
  [[nodiscard]] bool better_than(const Simulated& o) const {
    if (cycles != o.cycles) return cycles < o.cycles;
    return config.order_key() < o.config.order_key();
  }
};

}  // namespace

TuneResult autotune(const std::string& source, const TuneOptions& opts,
                    Evaluator& eval) {
  TuneResult result;
  const int max_sims = std::max(opts.max_sims, static_cast<int>(kLevels.size()));
  int sims_left = max_sims;

  CostModel model;  // mem-wait share folded in after the first seed lands
  std::set<std::uint64_t> visited;
  std::vector<Simulated> ranked;  // every simulated-ok candidate, kept sorted
  std::string first_error;        // of the first candidate that failed

  auto cancelled = [&] { return opts.cancelled && opts.cancelled(); };

  // Evaluates one frontier: analyze everything, rank by predicted cycles,
  // simulate the surviving fraction, feed the truth back into the model.
  // `simulate_all` bypasses pruning (the seed round, and exhaustive mode).
  auto run_round = [&](const std::vector<TuneConfig>& frontier, int round,
                       bool simulate_all) {
    result.considered += frontier.size();
    const auto analyses = eval.analyze(source, opts.issue, frontier);

    struct Cand {
      std::size_t idx;
      double predicted;
    };
    std::vector<Cand> viable;
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      if (!analyses[i].ok) {
        CandidateEval e(frontier[i], round);
        e.ok = false;
        if (first_error.empty()) first_error = analyses[i].error;
        result.evals.push_back(e);
        continue;
      }
      viable.push_back({i, model.predict(analyses[i].features, frontier[i].level)});
    }
    // Rank by (predicted, config order): the order keys break prediction
    // ties deterministically, including the uncalibrated all-equal case.
    std::sort(viable.begin(), viable.end(), [&](const Cand& a, const Cand& b) {
      if (a.predicted != b.predicted) return a.predicted < b.predicted;
      return frontier[a.idx].order_key() < frontier[b.idx].order_key();
    });
    std::size_t n_sim = viable.size();
    if (!simulate_all && opts.use_cost_model) {
      n_sim = static_cast<std::size_t>(
          std::ceil(opts.sim_fraction * static_cast<double>(viable.size())));
      n_sim = std::max(n_sim, static_cast<std::size_t>(
                                  std::min<std::size_t>(viable.size(),
                                                        static_cast<std::size_t>(
                                                            opts.beam_width))));
    }
    n_sim = std::min(n_sim, static_cast<std::size_t>(std::max(0, sims_left)));

    // Survivors go back to frontier order so evaluator batches — and the
    // calibration updates below — are independent of the ranking's history.
    std::vector<std::size_t> sim_idx, pruned_idx;
    for (std::size_t k = 0; k < viable.size(); ++k)
      (k < n_sim ? sim_idx : pruned_idx).push_back(viable[k].idx);
    std::sort(sim_idx.begin(), sim_idx.end());
    std::sort(pruned_idx.begin(), pruned_idx.end());

    std::vector<TuneConfig> to_sim;
    to_sim.reserve(sim_idx.size());
    for (const std::size_t i : sim_idx) to_sim.push_back(frontier[i]);
    const auto measurements = eval.measure(source, opts.issue, to_sim);
    sims_left -= static_cast<int>(to_sim.size());

    // The default seed's measured mem-wait share parameterizes the model's
    // load correction; install it before this batch's observations so the
    // calibration ratios and later predictions use the same raw estimate.
    if (round == 0)
      for (std::size_t k = 0; k < to_sim.size(); ++k)
        if (measurements[k].ok && to_sim[k] == default_config())
          model.set_mem_wait_share(measurements[k].mem_wait);

    for (std::size_t k = 0; k < sim_idx.size(); ++k) {
      const std::size_t i = sim_idx[k];
      CandidateEval e(frontier[i], round);
      e.simulated = true;
      const auto& meas = measurements[k];
      if (meas.ok) {
        e.cycles = meas.cycles;
        e.cache_hit = meas.cache_hit;
        ++result.simulated;
        if (meas.cache_hit) ++result.cache_hits;
        model.observe(analyses[i].features, frontier[i].level, meas.cycles);
        ranked.push_back({frontier[i], meas.cycles});
      } else {
        e.ok = false;
        if (first_error.empty()) first_error = meas.error;
        ++result.simulated;
      }
      result.evals.push_back(e);
    }
    for (const std::size_t i : pruned_idx) {
      result.evals.emplace_back(frontier[i], round);
      ++result.pruned;
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const Simulated& a, const Simulated& b) { return a.better_than(b); });
  };

  // Round 0: the paper's five levels at the default knobs.
  std::vector<TuneConfig> seeds;
  for (const OptLevel l : kLevels) {
    TuneConfig c;
    c.level = l;
    seeds.push_back(c);
    visited.insert(c.order_key());
  }
  run_round(seeds, 0, /*simulate_all=*/true);

  for (const CandidateEval& e : result.evals)
    if (e.simulated && e.ok && e.config() == default_config())
      result.lev4_cycles = e.cycles;

  if (ranked.empty()) {
    // Every seed failed: surface the first error (deterministic order).
    result.error = result.evals.empty() ? "no candidates" : first_error;
    result.model_mape = model.mape();
    return result;
  }

  // Mutation rounds.
  for (int round = 1; round <= opts.max_rounds; ++round) {
    if (cancelled()) {
      result.stopped_early = true;
      break;
    }
    if (sims_left <= 0) break;
    const std::uint64_t best_before = ranked.front().cycles;

    // Frontier: single-knob mutations of the current beam, deduplicated
    // against everything visited, in order-key order.
    std::vector<TuneConfig> frontier;
    const std::size_t beam =
        std::min(ranked.size(), static_cast<std::size_t>(std::max(1, opts.beam_width)));
    for (std::size_t b = 0; b < beam; ++b)
      for (const TuneConfig& n : neighbors(ranked[b].config))
        if (visited.insert(n.order_key()).second) frontier.push_back(n);
    if (frontier.empty()) break;
    std::sort(frontier.begin(), frontier.end(),
              [](const TuneConfig& a, const TuneConfig& b) {
                return a.order_key() < b.order_key();
              });

    run_round(frontier, round, /*simulate_all=*/!opts.use_cost_model);
    result.rounds = round;
    if (ranked.front().cycles >= best_before) break;  // hill-climb: no gain
  }

  result.evals.shrink_to_fit();  // the record outlives the search: no growth slack
  result.ok = true;
  result.best = ranked.front().config;
  result.best_cycles = ranked.front().cycles;
  result.model_mape = model.mape();
  return result;
}

TuneResult autotune(const std::string& source, const TuneOptions& opts,
                    engine::ThreadPool* pool, engine::ResultCache* cache) {
  LocalEvaluator eval(pool, cache);
  return autotune(source, opts, eval);
}

// Pruning audit -------------------------------------------------------------

std::vector<TuneConfig> default_audit_grid() {
  std::vector<TuneConfig> grid;
  for (const OptLevel l : kLevels)
    for (const int u : kUnrollGrid) {
      TuneConfig c;
      c.level = l;
      c.unroll = u;
      grid.push_back(c);
    }
  return grid;
}

PruningAudit audit_pruning(const std::string& source, const TuneOptions& opts,
                           const std::vector<TuneConfig>& grid, Evaluator& eval) {
  PruningAudit audit;
  audit.grid_size = grid.size();

  CostModel model;
  const auto analyses = eval.analyze(source, opts.issue, grid);

  // Split the grid into the five calibration seeds and the rest.
  std::vector<std::size_t> seed_idx, rest_idx;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    TuneConfig seed_shape;  // default knobs at this level
    seed_shape.level = grid[i].level;
    (grid[i] == seed_shape ? seed_idx : rest_idx).push_back(i);
  }
  if (seed_idx.size() != kLevels.size()) {
    audit.error = strformat("grid must contain the %zu paper seeds, found %zu",
                            kLevels.size(), seed_idx.size());
    return audit;
  }

  // Pruned pass: measure the seeds, calibrate, rank the rest, simulate the
  // top fraction.  Batches stay in grid order for determinism.
  std::vector<TuneConfig> seeds;
  for (const std::size_t i : seed_idx) seeds.push_back(grid[i]);
  const auto seed_meas = eval.measure(source, opts.issue, seeds);
  for (std::size_t k = 0; k < seed_idx.size(); ++k) {
    const std::size_t i = seed_idx[k];
    if (!seed_meas[k].ok) {
      audit.error = seed_meas[k].error;
      return audit;
    }
    if (grid[i] == default_config())
      model.set_mem_wait_share(seed_meas[k].mem_wait);
  }
  for (std::size_t k = 0; k < seed_idx.size(); ++k)
    model.observe(analyses[seed_idx[k]].features, grid[seed_idx[k]].level,
                  seed_meas[k].cycles);

  struct Cand {
    std::size_t idx;
    double predicted;
  };
  std::vector<Cand> viable;
  for (const std::size_t i : rest_idx) {
    if (!analyses[i].ok) continue;  // uncompilable: not a candidate either way
    viable.push_back({i, model.predict(analyses[i].features, grid[i].level)});
  }
  std::sort(viable.begin(), viable.end(), [&](const Cand& a, const Cand& b) {
    if (a.predicted != b.predicted) return a.predicted < b.predicted;
    return grid[a.idx].order_key() < grid[b.idx].order_key();
  });
  const auto n_sim = static_cast<std::size_t>(
      std::ceil(opts.sim_fraction * static_cast<double>(viable.size())));
  std::vector<std::size_t> survive_idx, pruned_idx;
  for (std::size_t k = 0; k < viable.size(); ++k)
    (k < n_sim ? survive_idx : pruned_idx).push_back(viable[k].idx);
  std::sort(survive_idx.begin(), survive_idx.end());
  std::sort(pruned_idx.begin(), pruned_idx.end());

  std::vector<TuneConfig> survivors;
  for (const std::size_t i : survive_idx) survivors.push_back(grid[i]);
  const auto surv_meas = eval.measure(source, opts.issue, survivors);

  audit.simulated = seed_idx.size() + survive_idx.size();
  audit.pruned = pruned_idx.size();
  audit.pruned_best = UINT64_MAX;
  for (const auto& m : seed_meas)
    if (m.ok) audit.pruned_best = std::min(audit.pruned_best, m.cycles);
  for (std::size_t k = 0; k < survive_idx.size(); ++k)
    if (surv_meas[k].ok) {
      audit.pruned_best = std::min(audit.pruned_best, surv_meas[k].cycles);
      model.observe(analyses[survive_idx[k]].features,
                    grid[survive_idx[k]].level, surv_meas[k].cycles);
    }

  // Ground truth: measure the pruned-away set too (cache makes the rest
  // free), so the audit can say exactly what pruning would have missed.
  std::vector<TuneConfig> skipped;
  for (const std::size_t i : pruned_idx) skipped.push_back(grid[i]);
  const auto skip_meas = eval.measure(source, opts.issue, skipped);
  audit.exhaustive_best = audit.pruned_best;
  for (const auto& m : skip_meas) {
    if (!m.ok) continue;
    audit.exhaustive_best = std::min(audit.exhaustive_best, m.cycles);
    if (m.cycles >= audit.pruned_best) ++audit.true_negatives;
  }

  audit.model_mape = model.mape();
  audit.ok = true;
  return audit;
}

}  // namespace ilp::tune

// tune_suite: one tune::autotune per Table-2 nest at default TuneOptions,
// through tune::LocalEvaluator on a 2-worker engine pool, with a fresh
// ResultCache every pass.  --seed orders the nests within a pass; searches
// are independent and deterministic, so the order changes no result.
//
// Oracles: every winner passes the interpreter-digest check bench_autotune
// uses (it runs under the interpreter, and recompiling it gives the same
// digest), its interpreted final state matches the simulated unoptimised
// program, and every nest's search signature and considered / simulated /
// pruned counts are identical in every pass.
//
// Traced run: untimed-by-spans passes first (the untraced rate), then passes
// through a timing Evaluator decorator that records a span around every
// analyze and measure batch.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/interp.hpp"
#include "engine/cache.hpp"
#include "engine/pool.hpp"
#include "frontend/compile.hpp"
#include "harness/experiment.hpp"
#include "support/strings.hpp"
#include "tune/tune.hpp"

namespace perfbench {
namespace {

using namespace ilp;

constexpr unsigned kWorkers = 2;

// Time and config counts of the analyze / measure batches of some searches.
struct BatchTotals {
  std::uint64_t analyze_ns = 0, measure_ns = 0;
  std::uint64_t analyzed = 0, measured = 0, hits = 0;
};

// Forwards to an inner evaluator, timing each batch into `totals` and
// recording a span per batch under the search in progress.
class TimingEvaluator final : public tune::Evaluator {
 public:
  TimingEvaluator(tune::Evaluator& inner, BatchTotals& totals, Spans& spans)
      : inner_(inner), totals_(totals), spans_(spans) {}

  std::vector<Analysis> analyze(const std::string& source, int issue,
                                const std::vector<tune::TuneConfig>& cfgs) override {
    const std::uint64_t t0 = now_ns();
    auto out = inner_.analyze(source, issue, cfgs);
    const std::uint64_t t1 = now_ns();
    totals_.analyze_ns += t1 - t0;
    totals_.analyzed += cfgs.size();
    spans_.add("tune.analyze", search_span, search_id, t0, t1);
    return out;
  }

  std::vector<Measurement> measure(const std::string& source, int issue,
                                   const std::vector<tune::TuneConfig>& cfgs) override {
    const std::uint64_t t0 = now_ns();
    auto out = inner_.measure(source, issue, cfgs);
    const std::uint64_t t1 = now_ns();
    totals_.measure_ns += t1 - t0;
    totals_.measured += cfgs.size();
    for (const Measurement& m : out) totals_.hits += m.cache_hit ? 1 : 0;
    spans_.add("tune.measure", search_span, search_id, t0, t1);
    return out;
  }

  int search_span = -1;
  std::uint64_t search_id = 0;

 private:
  tune::Evaluator& inner_;
  BatchTotals& totals_;
  Spans& spans_;
};

// Spans and batch totals of a traced pass.
struct Tracing {
  Spans spans;
  BatchTotals totals;
};

struct Search {
  std::size_t nest = 0;  // index into the suite (Table-2 order)
  double ms = 0.0;
  tune::TuneResult result;
};

struct Pass {
  double seconds = 0.0;
  std::vector<Search> searches;  // in execution order
};

// One pass over the suite in `order`, through the timing decorator when
// `tracing` is set.  `search_seq` numbers searches across passes.
Pass run_pass(const std::vector<Workload>& suite, const std::vector<std::size_t>& order,
              engine::ThreadPool& pool, Tracing* tracing, std::uint64_t* search_seq) {
  engine::ResultCache cache;
  tune::LocalEvaluator local(&pool, &cache);
  std::unique_ptr<TimingEvaluator> timing;
  if (tracing != nullptr)
    timing = std::make_unique<TimingEvaluator>(local, tracing->totals, tracing->spans);
  tune::Evaluator& eval = timing ? static_cast<tune::Evaluator&>(*timing) : local;
  Pass p;
  const std::uint64_t t0 = now_ns();
  for (std::size_t nest : order) {
    const std::uint64_t id = (*search_seq)++;
    int span = -1;
    if (timing) {
      span = tracing->spans.open("tune.search", -1, id);
      timing->search_span = span;
      timing->search_id = id;
    }
    const std::uint64_t s0 = now_ns();
    tune::TuneResult r = tune::autotune(suite[nest].source, tune::TuneOptions{}, eval);
    const double ms = static_cast<double>(now_ns() - s0) / 1e6;
    if (timing) tracing->spans.close(span);
    p.searches.push_back({nest, ms, std::move(r)});
  }
  p.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  return p;
}

std::string counts_of(const tune::TuneResult& r) {
  return strformat("%" PRIu64 "/%" PRIu64 "/%" PRIu64, r.considered, r.simulated,
                   r.pruned);
}

// The search of each nest, by suite index, from a reference pass.
struct Reference {
  std::vector<std::string> signature, counts;
};

Reference reference_of(const Pass& p, std::size_t n) {
  Reference ref{std::vector<std::string>(n), std::vector<std::string>(n)};
  for (const Search& s : p.searches) {
    ref.signature[s.nest] = s.result.signature();
    ref.counts[s.nest] = counts_of(s.result);
  }
  return ref;
}

// Returns the number of searches that failed or differ from the reference.
std::uint64_t check_pass(Result& res, const Pass& p, const Reference& ref) {
  std::uint64_t bad = 0;
  for (const Search& s : p.searches) {
    const bool ok = s.result.ok && s.result.signature() == ref.signature[s.nest] &&
                    counts_of(s.result) == ref.counts[s.nest];
    if (!ok) {
      ++bad;
      std::fprintf(stderr, "perfbench: search of nest %zu failed or changed: %s\n",
                   s.nest, s.result.error.c_str());
    }
  }
  res.check(bad == 0, "tune pass: every search ok, same signature and counts");
  return bad;
}

// The winner of `r` for `w`: interpreter digest runs and is reproducible
// across recompiles, and the interpreted final state matches the simulated
// unoptimised program.  Returns an empty string when it holds.
std::string check_winner(const Workload& w, const tune::TuneResult& r) {
  const MachineModel m = MachineModel::issue(tune::TuneOptions{}.issue);
  const auto compile_winner = [&] {
    return try_compile_workload(w, r.best.level, m, tune::to_compile_options(r.best));
  };
  auto a = compile_winner();
  if (!a) return "winner failed to compile";
  bool ok = false;
  std::string err;
  const std::uint64_t digest = testing::run_digest(a->fn, &ok, &err);
  if (!ok) return "winner failed under the interpreter: " + err;
  auto b = compile_winner();
  if (!b || testing::run_digest(b->fn) != digest) return "winner is not compile-deterministic";

  DiagnosticEngine diags;
  auto base = dsl::compile(w.source, diags);
  if (!base) return "source failed to compile";
  const RunOutcome want = run_seeded(base->fn, m);
  RunOutcome interp;
  seed_arrays(a->fn, interp.memory);
  testing::InterpResult ir = testing::interpret(a->fn, interp.memory);
  if (!ir.ok) return "winner failed under the interpreter: " + ir.error;
  interp.result.ok = true;
  interp.result.regs = std::move(ir.regs);
  return compare_observable(base->fn, want, interp, 1e-6);
}

double median_pass_seconds(const std::vector<Pass>& passes) {
  std::vector<double> s;
  for (const Pass& p : passes) s.push_back(p.seconds);
  return median(s);
}

// Passes for `seconds`, and at least `min_passes`.
std::vector<Pass> timed_passes(const std::vector<Workload>& suite,
                               const std::vector<std::size_t>& order,
                               engine::ThreadPool& pool, double seconds, int min_passes,
                               Tracing* tracing, std::uint64_t* seq) {
  std::vector<Pass> passes;
  const std::uint64_t t0 = now_ns();
  while (static_cast<int>(passes.size()) < min_passes ||
         static_cast<double>(now_ns() - t0) / 1e9 < seconds)
    passes.push_back(run_pass(suite, order, pool, tracing, seq));
  return passes;
}

}  // namespace

Result run_tune_workload(const Args& args) {
  Result res;
  const std::vector<Workload>& suite = workload_suite();
  std::vector<std::size_t> order(suite.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::mt19937_64 rng(args.seed);
  std::shuffle(order.begin(), order.end(), rng);
  std::uint64_t seq = 0;

  if (!args.trace) {
    // Conv issue-1 cycles of each nest: the paper's speedup base.
    std::vector<double> base_cycles;
    for (const Workload& w : suite) {
      auto c = try_compile_workload(w, OptLevel::Conv, MachineModel::issue(1));
      auto s = c ? try_simulate_cycles(c->fn, MachineModel::issue(1))
                 : Expected<std::uint64_t>(Error{c.error_message()});
      base_cycles.push_back(s ? static_cast<double>(*s) : 0.0);
    }

    // Set-up: pool start plus one untimed pass, three times; the last pool
    // serves the timed passes.
    std::vector<double> setups;
    std::unique_ptr<engine::ThreadPool> pool;
    Pass first;
    for (int i = 0; i < 3; ++i) {
      const std::uint64_t t0 = now_ns();
      pool = std::make_unique<engine::ThreadPool>(kWorkers);
      Pass p = run_pass(suite, order, *pool, nullptr, &seq);
      setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      if (i == 0) first = std::move(p);
    }
    const Reference ref = reference_of(first, suite.size());
    const std::vector<Pass> passes =
        timed_passes(suite, order, *pool, args.seconds, 5, nullptr, &seq);

    std::uint64_t bad_searches = 0, searches = 0;
    for (const Pass& p : passes) {
      bad_searches += check_pass(res, p, ref);
      searches += p.searches.size();
    }
    // Winner oracles, once per nest (every pass found the same winner).
    std::uint64_t bad_winners = 0;
    std::vector<double> gains(suite.size()), speedups(suite.size());
    for (const Search& s : passes.front().searches) {
      const std::string why = check_winner(suite[s.nest], s.result);
      if (!why.empty()) {
        ++bad_winners;
        std::fprintf(stderr, "perfbench: winner oracle, %s: %s\n",
                     suite[s.nest].name.c_str(), why.c_str());
      }
      gains[s.nest] = s.result.speedup_vs_lev4();
      speedups[s.nest] = base_cycles[s.nest] / static_cast<double>(s.result.best_cycles);
    }
    res.check(bad_winners == 0, "every winner passes the interpreter oracles");
    res.attempted += searches;
    res.failed += std::min(searches, bad_searches + bad_winners * passes.size());

    std::vector<double> pass_times;
    for (const Pass& p : passes) pass_times.push_back(p.seconds);
    print_series("setup_s", setups);
    print_series("pass_s", pass_times);
    // At least 5 timed passes, so at least 200 searches and p90 has twenty
    // beyond it; a 30 s run has about twelve passes.
    std::vector<double> search_ms, sim_rate;
    for (const Pass& p : passes) {
      std::uint64_t sims = 0;
      for (const Search& s : p.searches) {
        search_ms.push_back(s.ms);
        sims += s.result.simulated - s.result.cache_hits;
      }
      sim_rate.push_back(static_cast<double>(sims) / p.seconds);
    }
    std::printf("# invariants {\"passes\": %zu, \"searches\": %" PRIu64
                ", \"bad_searches\": %" PRIu64 ", \"bad_winners\": %" PRIu64 "}\n",
                passes.size(), searches, bad_searches, bad_winners);

    const double searches_per_s =
        static_cast<double>(suite.size()) / median(pass_times);
    const double p50 = quantile(search_ms, 0.5), p90 = quantile(search_ms, 0.9);
    res.set("setup_s", median(setups));
    res.set("peak_rss_mb", peak_rss_mb());
    res.set("ok_ratio", res.ok_ratio());
    res.set("searches_per_s", searches_per_s);
    res.set("search_ms_p50", p50);
    res.set("search_ms_p90", p90);
    res.set("tune_gain_gmean", gmean(gains));
    // Names from the other workloads (README.md): simulated candidate cells
    // per second, the winners' speedup over Conv issue-1, and the search
    // rate and latency.
    res.set("cells_per_s", median(sim_rate));
    res.set("study_speedup_gmean", gmean(speedups));
    res.set("requests_per_s", searches_per_s);
    res.set("warm_us_p50", p50 * 1e3);
    res.set("warm_us_p90", p90 * 1e3);
    return res;
  }

  // --- traced run: half untraced passes, half through the timing decorator.
  engine::ThreadPool pool(kWorkers);
  const Pass first = run_pass(suite, order, pool, nullptr, &seq);  // warm-up
  const Reference ref = reference_of(first, suite.size());
  const std::vector<Pass> plain =
      timed_passes(suite, order, pool, args.seconds / 2.0, 1, nullptr, &seq);
  Tracing tracing;
  const std::vector<Pass> traced =
      timed_passes(suite, order, pool, args.seconds / 2.0, 1, &tracing, &seq);
  const BatchTotals& totals = tracing.totals;
  std::uint64_t searches = 0, considered = 0, pruned = 0;
  double search_ns = 0.0;
  for (const Pass& p : plain) check_pass(res, p, ref);
  for (const Pass& p : traced) {
    check_pass(res, p, ref);
    for (const Search& s : p.searches) {
      ++searches;
      considered += s.result.considered;
      pruned += s.result.pruned;
      search_ns += s.ms * 1e6;
    }
  }
  res.attempted += searches;
  std::vector<double> mape(suite.size());
  for (const Search& s : first.searches) mape[s.nest] = s.result.model_mape;
  double mape_sum = 0.0;
  for (double m : mape) mape_sum += m;

  const double n = static_cast<double>(searches);
  const std::uint64_t misses = totals.measured - totals.hits;
  const double plain_rate = static_cast<double>(suite.size()) / median_pass_seconds(plain);
  const double traced_rate = static_cast<double>(suite.size()) / median_pass_seconds(traced);
  res.set("tune.analyze_ms_per_search", static_cast<double>(totals.analyze_ns) / 1e6 / n);
  res.set("tune.measure_ms_per_search", static_cast<double>(totals.measure_ns) / 1e6 / n);
  res.set("tune.search_self_ms_per_search",
          (search_ns - static_cast<double>(totals.analyze_ns + totals.measure_ns)) / 1e6 / n);
  res.set("tune.compiles_per_search", static_cast<double>(totals.analyzed + misses) / n);
  res.set("tune.sims_per_search", static_cast<double>(misses) / n);
  res.set("tune.pruned_ratio", static_cast<double>(pruned) / static_cast<double>(considered));
  res.set("tune.cache_hit_ratio",
          static_cast<double>(totals.hits) / static_cast<double>(totals.measured));
  res.set("tune.model_mape", mape_sum / static_cast<double>(mape.size()));
  res.set("obs.trace_overhead", (plain_rate - traced_rate) / plain_rate);

  const std::string path = kTraceDir + "/tune_suite.trace.json";
  res.check(tracing.spans.write_chrome_trace(path), "write Chrome trace " + path);
  std::printf("# trace %s (%zu spans)\n", path.c_str(), tracing.spans.size());
  return res;
}

}  // namespace perfbench

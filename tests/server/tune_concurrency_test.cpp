// Autotune verb tests: protocol validation, whole-result caching, deadline
// and drain behavior, the tune job limit, stats/metrics families, and mixed
// concurrent autotune+compile traffic (the TSan target for the tuner's
// service integration).
#include "server/service.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/fixtures.hpp"
#include "server/json.hpp"
#include "support/strings.hpp"

namespace ilp::server {
namespace {

JsonValue parse_ok(const std::string& line) {
  std::string err;
  auto v = JsonValue::parse(line, &err);
  EXPECT_TRUE(v.has_value()) << err << "\n" << line;
  return v.value_or(JsonValue{});
}

std::string error_kind_of(const JsonValue& v) {
  const JsonValue* e = v.find("error");
  return e != nullptr && e->find("kind") != nullptr ? e->find("kind")->as_string()
                                                    : std::string();
}

std::string autotune_line(const std::string& workload, int rounds = 1,
                          std::int64_t deadline_ms = 0, int max_sims = 12) {
  std::string line = strformat(
      R"({"id": 7, "kind": "autotune", "workload": "%s", "beam": 2, )"
      R"("rounds": %d, "max_sims": %d)",
      workload.c_str(), rounds, max_sims);
  if (deadline_ms > 0)
    line += strformat(R"(, "deadline_ms": %lld)",
                      static_cast<long long>(deadline_ms));
  line += "}";
  return line;
}

ServiceConfig config(int workers) {
  ServiceConfig cfg;
  cfg.workers = workers;
  return cfg;
}

TEST(TuneVerb, AutotuneReturnsBestNoWorseThanLev4) {
  Service service(config(4));
  const JsonValue v = parse_ok(service.serve(autotune_line("APS-1")).to_line());
  ASSERT_TRUE(v.find("ok") != nullptr && v.find("ok")->as_bool()) << error_kind_of(v);
  EXPECT_EQ(v.find("kind")->as_string(), "autotune");
  EXPECT_FALSE(v.find("cached")->as_bool());
  ASSERT_NE(v.find("request_id"), nullptr);
  const JsonValue* r = v.find("result");
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->find("ok")->as_bool());
  const std::int64_t best = r->find("best_cycles")->as_int();
  const std::int64_t lev4 = r->find("lev4_cycles")->as_int();
  EXPECT_GT(lev4, 0);
  EXPECT_LE(best, lev4);
  EXPECT_GE(r->find("speedup_vs_lev4")->as_double(), 1.0);

  const ServiceCounters c = service.counters();
  EXPECT_EQ(c.tune_requests, 1u);
  EXPECT_EQ(c.tune_cached, 0u);
  EXPECT_GE(c.tune_candidates_simulated, 5u);  // the seed round at minimum
}

TEST(TuneVerb, RepeatSearchReplaysWholeResultFromCache) {
  Service service(config(4));
  const std::string line = autotune_line("SRS-1");
  const JsonValue cold = parse_ok(service.serve(line).to_line());
  ASSERT_TRUE(cold.find("ok")->as_bool());
  const JsonValue warm = parse_ok(service.serve(line).to_line());
  ASSERT_TRUE(warm.find("ok")->as_bool());
  EXPECT_TRUE(warm.find("cached")->as_bool());
  // The replay is the stored search verbatim: same winner, same counts.
  EXPECT_EQ(warm.find("result")->find("best_name")->as_string(),
            cold.find("result")->find("best_name")->as_string());
  EXPECT_EQ(warm.find("result")->find("best_cycles")->as_int(),
            cold.find("result")->find("best_cycles")->as_int());
  const ServiceCounters c = service.counters();
  EXPECT_EQ(c.tune_requests, 2u);
  EXPECT_EQ(c.tune_cached, 1u);
}

TEST(TuneVerb, MalformedRequestsAreBadRequests) {
  Service service(config(2));
  const char* bad[] = {
      // unknown workload
      R"({"kind": "autotune", "workload": "NOPE-9"})",
      // neither source nor workload / both at once
      R"({"kind": "autotune"})",
      R"({"kind": "autotune", "workload": "APS-1", "source": "x"})",
      // out-of-range knobs
      R"({"kind": "autotune", "workload": "APS-1", "sim_fraction": 0})",
      R"({"kind": "autotune", "workload": "APS-1", "sim_fraction": 1.5})",
      R"({"kind": "autotune", "workload": "APS-1", "beam": 0})",
      R"({"kind": "autotune", "workload": "APS-1", "rounds": -1})",
      R"({"kind": "autotune", "workload": "APS-1", "max_sims": 0})",
  };
  for (const char* line : bad) {
    const JsonValue v = parse_ok(service.serve(line).to_line());
    EXPECT_FALSE(v.find("ok")->as_bool()) << line;
    EXPECT_EQ(error_kind_of(v), "bad_request") << line;
  }
}

TEST(TuneVerb, DeadlineStopsSearchWithBestSoFarNotError) {
  Service service(config(4));
  // 1 ms cannot cover the seed round (NAS-5 simulates about 1 ms per seed;
  // APS-1's whole seed round can finish inside 1 ms), so the search stops at
  // the first cancellation poll — and still answers with the seeds' best.
  const JsonValue v =
      parse_ok(service.serve(autotune_line("NAS-5", /*rounds=*/4,
                                           /*deadline_ms=*/1, /*max_sims=*/48))
                   .to_line());
  ASSERT_TRUE(v.find("ok")->as_bool()) << error_kind_of(v);
  const JsonValue* r = v.find("result");
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->find("stopped_early")->as_bool());
  EXPECT_LE(r->find("best_cycles")->as_int(), r->find("lev4_cycles")->as_int());
  EXPECT_EQ(service.counters().tune_stopped_early, 1u);

  // A truncated search must not poison the whole-result cache: the same
  // search with a generous deadline runs fresh and completes...
  const JsonValue full =
      parse_ok(service.serve(autotune_line("NAS-5", /*rounds=*/4)).to_line());
  ASSERT_TRUE(full.find("ok")->as_bool());
  EXPECT_FALSE(full.find("cached")->as_bool());
  EXPECT_FALSE(full.find("result")->find("stopped_early")->as_bool());
  // ...and only the complete run is what later requests replay.
  const JsonValue warm =
      parse_ok(service.serve(autotune_line("NAS-5", /*rounds=*/4)).to_line());
  EXPECT_TRUE(warm.find("cached")->as_bool());
  EXPECT_FALSE(warm.find("result")->find("stopped_early")->as_bool());
}

TEST(TuneVerb, DrainRefusesNewSearches) {
  Service service(config(2));
  service.begin_drain();
  const JsonValue v = parse_ok(service.serve(autotune_line("APS-1")).to_line());
  EXPECT_FALSE(v.find("ok")->as_bool());
  EXPECT_EQ(error_kind_of(v), "shutting_down");
}

TEST(TuneVerb, JobLimitRejectsSearchesAsOverloaded) {
  ServiceConfig cfg = config(2);
  cfg.tune_job_limit = 0;
  Service service(cfg);
  const JsonValue v = parse_ok(service.serve(autotune_line("APS-1")).to_line());
  EXPECT_FALSE(v.find("ok")->as_bool());
  EXPECT_EQ(error_kind_of(v), "overloaded");
}

TEST(TuneVerb, StatsAndMetricsCarryTuneFamilies) {
  Service service(config(4));
  // The exposition carries the tune histograms from boot, before any search.
  EXPECT_NE(service.metrics_exposition().find("tune_phase_search_seconds"),
            std::string::npos);
  ASSERT_TRUE(parse_ok(service.serve(autotune_line("APS-1")).to_line())
                  .find("ok")
                  ->as_bool());

  const JsonValue stats = parse_ok(service.serve(R"({"kind": "stats"})").to_line());
  const JsonValue* tune = stats.find("stats")->find("tune");
  ASSERT_NE(tune, nullptr);
  EXPECT_GE(tune->find("requests")->as_int(), 1);
  EXPECT_GE(tune->find("candidates")->find("simulated")->as_int(), 5);
  EXPECT_GE(tune->find("search_us")->find("count")->as_int(), 1);
  EXPECT_GE(tune->find("simulate_us")->find("count")->as_int(), 1);

  const std::string exposition = service.metrics_exposition();
  for (const char* name :
       {"tune_requests", "tune_results_cached", "tune_coalesced",
        "tune_stopped_early", "tune_candidates_simulated",
        "tune_candidates_pruned", "tune_candidate_cache_hits",
        "tune_jobs_inflight", "tune_phase_search_seconds",
        "tune_phase_simulate_seconds"})
    EXPECT_NE(exposition.find(name), std::string::npos) << name;
}

// A tuned cell is a compiled cell: the search's Lev4 seed at the default
// knobs and a `compile` of the same loop at the same width share one cache
// entry, so the compile after a search executes nothing.
TEST(TuneVerb, TunedCellIsACompiledCell) {
  Service service(config(4));
  const JsonValue tuned = parse_ok(service.serve(autotune_line("APS-1")).to_line());
  ASSERT_TRUE(tuned.find("ok")->as_bool()) << error_kind_of(tuned);
  const std::uint64_t executed = service.counters().cells_executed;
  EXPECT_GT(executed, 0u);

  const JsonValue compiled = parse_ok(service.serve(
      R"({"id": 8, "kind": "compile", "workload": "APS-1", "level": "lev4", )"
      R"("issue": 8})").to_line());
  ASSERT_TRUE(compiled.find("ok")->as_bool()) << error_kind_of(compiled);
  EXPECT_TRUE(compiled.find("cached")->as_bool());
  EXPECT_EQ(service.counters().cells_executed, executed);
  EXPECT_EQ(compiled.find("cycles")->as_int(),
            tuned.find("result")->find("lev4_cycles")->as_int());
}

// Identical searches racing from many threads: every reply carries the same
// winner, whether it executed, coalesced onto the in-flight search, or
// replayed from the whole-result cache.
TEST(TuneVerb, ConcurrentIdenticalSearchesAgree) {
  Service service(config(4));
  constexpr int kThreads = 6;
  std::vector<std::string> replies(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i)
      threads.emplace_back([&service, &replies, i] {
        replies[static_cast<std::size_t>(i)] =
            service.serve(autotune_line("TFS-1")).to_line();
      });
    for (std::thread& t : threads) t.join();
  }
  std::string best_name;
  for (const std::string& reply : replies) {
    const JsonValue v = parse_ok(reply);
    ASSERT_TRUE(v.find("ok")->as_bool()) << reply;
    const std::string name = v.find("result")->find("best_name")->as_string();
    if (best_name.empty()) best_name = name;
    EXPECT_EQ(name, best_name);
  }
  EXPECT_EQ(service.counters().tune_requests,
            static_cast<std::uint64_t>(kThreads));
}

// The TSan workhorse: autotune searches and compile requests for overlapping
// sources running concurrently — candidate evaluations and compile cells
// share the same shard caches and coalescing maps.
TEST(TuneVerb, ConcurrentAutotuneAndCompileTraffic) {
  Service service(config(4));
  const char* workloads[] = {"APS-1", "SDS-1"};
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (const char* w : workloads)
    threads.emplace_back([&service, &failures, w] {
      std::string err;
      const auto v = JsonValue::parse(service.serve(autotune_line(w)).to_line(), &err);
      if (!v || v->find("ok") == nullptr || !v->find("ok")->as_bool())
        failures.fetch_add(1);
    });
  for (const char* w : workloads)
    for (const char* level : {"lev2", "lev4"})
      threads.emplace_back([&service, &failures, w, level] {
        const std::string line = strformat(
            R"({"kind": "compile", "workload": "%s", "level": "%s"})", w, level);
        for (int i = 0; i < 3; ++i) {
          std::string err;
          const auto v = JsonValue::parse(service.serve(line).to_line(), &err);
          if (!v || v->find("ok") == nullptr || !v->find("ok")->as_bool())
            failures.fetch_add(1);
        }
      });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Drain still settles with tune traffic in the mix.
  service.begin_drain();
  service.wait_drained();
  EXPECT_EQ(service.inflight_cells(), 0u);
}

}  // namespace
}  // namespace ilp::server

// Service-layer tests: admission control, request coalescing, deadlines,
// graceful drain and outcome accounting, all through serve() — no sockets
// involved.  serve() executes a compile cell inline on the calling thread, so
// concurrent requests come from std::async threads.  The
// debug_sleep_ms request field (part of the cell key) manufactures slow cells
// so overload and drain states are reachable deterministically.
#include "server/service.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/fixtures.hpp"
#include "server/json.hpp"
#include "support/strings.hpp"

namespace ilp::server {
namespace {

struct TempDir {
  std::string path;
  TempDir() {
    static int counter = 0;
    const auto base = std::filesystem::temp_directory_path() /
                      ("ilp_service_test_" + std::to_string(::getpid()) + "_" +
                       std::to_string(counter++));
    std::filesystem::create_directories(base);
    path = base.string();
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

ServiceConfig config(int workers, std::size_t queue_limit = 64,
                     std::string cache_dir = "") {
  ServiceConfig cfg;
  cfg.workers = workers;
  cfg.queue_limit = queue_limit;
  cfg.cache_dir = std::move(cache_dir);
  return cfg;
}

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

// A compile request over a generated source; `sleep_ms` manufactures a slow
// cell (and is part of the cell key, so distinct sleeps never coalesce).
std::string compile_line(std::uint64_t seed, std::int64_t sleep_ms = 0,
                         std::int64_t deadline_ms = 0) {
  std::string line = strformat(
      R"({"id": %llu, "kind": "compile", "source": "%s", "level": "lev2", "issue": 8)",
      static_cast<unsigned long long>(seed),
      json_escape(ilp::testing::random_program(seed)).c_str());
  if (sleep_ms > 0) line += strformat(R"(, "debug_sleep_ms": %lld)",
                                      static_cast<long long>(sleep_ms));
  if (deadline_ms > 0) line += strformat(R"(, "deadline_ms": %lld)",
                                         static_cast<long long>(deadline_ms));
  line += "}";
  return line;
}

TEST(Service, CompileRequestReturnsMeasuredCell) {
  Service service(config(2));
  const auto v = parse_ok(service.serve(
      R"({"id": 1, "kind": "compile", "workload": "APS-1", "level": "lev4"})").to_line());
  ASSERT_TRUE(v.find("ok")->as_bool()) << error_kind_of(v);
  EXPECT_GT(v.find("cycles")->as_int(), 0);
  EXPECT_GT(v.find("base_cycles")->as_int(), v.find("cycles")->as_int());
  EXPECT_GT(v.find("speedup")->as_double(), 1.0);
  EXPECT_GT(v.find("registers")->find("fp")->as_int(), 0);
  EXPECT_FALSE(v.find("cached")->as_bool());
}

TEST(Service, RepeatRequestIsServedFromCache) {
  Service service(config(2));
  const std::string line = compile_line(9001);
  const auto first = parse_ok(service.serve(line).to_line());
  ASSERT_TRUE(first.find("ok")->as_bool()) << error_kind_of(first);
  EXPECT_FALSE(first.find("cached")->as_bool());

  const auto second = parse_ok(service.serve(line).to_line());
  ASSERT_TRUE(second.find("ok")->as_bool());
  EXPECT_TRUE(second.find("cached")->as_bool());
  EXPECT_EQ(second.find("cycles")->as_int(), first.find("cycles")->as_int());
  EXPECT_EQ(service.counters().cells_executed, 1u);
}

TEST(Service, CacheSurvivesRestartThroughDiskTier) {
  TempDir dir;
  const std::string line = compile_line(9002);
  std::int64_t cycles = 0;
  {
    Service service(config(2, 64, dir.path));
    const auto v = parse_ok(service.serve(line).to_line());
    ASSERT_TRUE(v.find("ok")->as_bool()) << error_kind_of(v);
    cycles = v.find("cycles")->as_int();
  }
  Service restarted(config(2, 64, dir.path));
  const auto v = parse_ok(restarted.serve(line).to_line());
  ASSERT_TRUE(v.find("ok")->as_bool());
  EXPECT_TRUE(v.find("cached")->as_bool());
  EXPECT_EQ(v.find("cycles")->as_int(), cycles);
  EXPECT_EQ(restarted.counters().cells_executed, 0u);
}

// The bounded queue: capacity = workers + queue_limit = 1; a second distinct
// request while the first sleeps must be rejected immediately with
// `overloaded` — not parked, not hung.
TEST(Service, OverloadIsRejectedImmediately) {
  Service service(config(1, 0));
  ASSERT_EQ(service.capacity(), 1u);

  auto slow = std::async(std::launch::async, [&] {
    return service.serve(compile_line(9100, /*sleep_ms=*/800)).to_line();
  });
  while (service.inflight_cells() == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  const auto t0 = std::chrono::steady_clock::now();
  const auto v = parse_ok(service.serve(compile_line(9101)).to_line());
  const auto elapsed = std::chrono::steady_clock::now() - t0;

  EXPECT_FALSE(v.find("ok")->as_bool());
  EXPECT_EQ(error_kind_of(v), "overloaded");
  EXPECT_LT(elapsed, std::chrono::milliseconds(500));  // never waits for the slot
  EXPECT_EQ(service.counters().overloaded, 1u);

  const auto ok = parse_ok(slow.get());
  EXPECT_TRUE(ok.find("ok")->as_bool()) << error_kind_of(ok);
}

TEST(Service, OverflowingBatchIsRejectedWhole) {
  Service service(config(1, 1));  // capacity 2
  const auto v = parse_ok(service.serve(
      R"({"kind": "batch", "workloads": ["APS-1"], "levels": ["conv"],)"
      R"( "widths": [1, 2, 4]})").to_line());  // 3 cells > capacity 2
  EXPECT_FALSE(v.find("ok")->as_bool());
  EXPECT_EQ(error_kind_of(v), "overloaded");
  EXPECT_EQ(service.inflight_cells(), 0u);  // all-or-nothing admission
}

// Two identical in-flight requests coalesce onto one engine job.
TEST(Service, DuplicateInflightRequestsCoalesce) {
  Service service(config(2));
  const std::string line = compile_line(9200, /*sleep_ms=*/300);

  auto serve_line = [&] { return service.serve(line).to_line(); };
  auto a = std::async(std::launch::async, serve_line);
  while (service.inflight_cells() == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  auto b = std::async(std::launch::async, serve_line);

  const auto ra = parse_ok(a.get());
  const auto rb = parse_ok(b.get());
  ASSERT_TRUE(ra.find("ok")->as_bool()) << error_kind_of(ra);
  ASSERT_TRUE(rb.find("ok")->as_bool()) << error_kind_of(rb);
  EXPECT_EQ(ra.find("cycles")->as_int(), rb.find("cycles")->as_int());

  const ServiceCounters c = service.counters();
  EXPECT_EQ(c.coalesced, 1u);       // the second arrival joined the first
  EXPECT_EQ(c.cells_executed, 1u);  // exactly one cell ran
}

// The transport's dispatch ring is the compile queue: a line whose ring wait
// already consumed its deadline is answered without admitting or executing.
TEST(Service, DeadlineExceededWhileQueued) {
  Service service(config(1, 4));
  const std::string line = compile_line(9300, /*sleep_ms=*/0, /*deadline_ms=*/60);
  const auto v = parse_ok(service.serve(line, /*queued_ns=*/60'000'000).to_line());
  EXPECT_FALSE(v.find("ok")->as_bool());
  EXPECT_EQ(error_kind_of(v), "deadline_exceeded");
  ServiceCounters c = service.counters();
  EXPECT_EQ(c.deadline_exceeded, 1u);
  EXPECT_EQ(c.cells_executed, 0u);
  EXPECT_EQ(service.inflight_cells(), 0u);

  // The same line with budget left over executes normally.
  const auto ok = parse_ok(service.serve(line, /*queued_ns=*/59'000'000).to_line());
  EXPECT_TRUE(ok.find("ok")->as_bool()) << error_kind_of(ok);
  c = service.counters();
  EXPECT_EQ(c.deadline_exceeded, 1u);
  EXPECT_EQ(c.cells_executed, 1u);
  EXPECT_EQ(service.inflight_cells(), 0u);
}

// A joiner stops waiting for its in-flight twin when its own deadline fires;
// the executor is unaffected.
TEST(Service, JoinerDeadlineFiresWhileExecutorSleeps) {
  Service service(config(2));
  auto executor = std::async(std::launch::async, [&] {
    return service.serve(compile_line(9310, /*sleep_ms=*/600)).to_line();
  });
  while (service.inflight_cells() == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // deadline_ms is not part of the cell key, so this joins the executor.
  const auto t0 = std::chrono::steady_clock::now();
  const auto v = parse_ok(
      service.serve(compile_line(9310, /*sleep_ms=*/600, /*deadline_ms=*/50))
          .to_line());
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::milliseconds(500));
  EXPECT_FALSE(v.find("ok")->as_bool());
  EXPECT_EQ(error_kind_of(v), "deadline_exceeded");

  const auto done = parse_ok(executor.get());
  EXPECT_TRUE(done.find("ok")->as_bool()) << error_kind_of(done);
  const ServiceCounters c = service.counters();
  EXPECT_EQ(c.coalesced, 1u);
  EXPECT_EQ(c.deadline_exceeded, 1u);
  EXPECT_EQ(c.cells_executed, 1u);
}

// An executor whose deadline fires inside debug_sleep_ms caches nothing: the
// next identical request executes the cell afresh.
TEST(Service, ExecutorDeadlineIsNotCached) {
  Service service(config(1));
  const auto v = parse_ok(
      service.serve(compile_line(9320, /*sleep_ms=*/300, /*deadline_ms=*/50))
          .to_line());
  EXPECT_EQ(error_kind_of(v), "deadline_exceeded");
  EXPECT_EQ(service.counters().cells_executed, 0u);
  EXPECT_EQ(service.inflight_cells(), 0u);

  const auto again = parse_ok(
      service.serve(compile_line(9320, /*sleep_ms=*/300, /*deadline_ms=*/5000))
          .to_line());
  ASSERT_TRUE(again.find("ok")->as_bool()) << error_kind_of(again);
  EXPECT_FALSE(again.find("cached")->as_bool());
  EXPECT_EQ(service.counters().cells_executed, 1u);
}

// Every reply bumps exactly one outcome counter, so the counters close:
// received == ok + bad_request + overloaded + shutting_down +
// deadline_exceeded + compile_errors + internal_errors.
TEST(Service, OutcomeCountersCloseOverEveryReply) {
  Service service(config(1, 48));  // capacity 49
  auto serve_json = [&](const std::string& line, std::uint64_t queued_ns = 0) {
    return parse_ok(service.serve(line, queued_ns).to_line());
  };
  auto closes = [&] {
    const ServiceCounters c = service.counters();
    return c.received == c.ok + c.bad_request + c.overloaded + c.shutting_down +
                             c.deadline_exceeded + c.compile_errors +
                             c.internal_errors;
  };

  EXPECT_TRUE(serve_json(compile_line(9330)).find("ok")->as_bool());
  EXPECT_EQ(error_kind_of(serve_json("{{{{")), "bad_request");
  EXPECT_EQ(error_kind_of(serve_json(R"({"kind": "compile", "workload": "NOPE-99"})")),
            "bad_request");
  EXPECT_EQ(error_kind_of(serve_json(
                R"({"kind": "compile", "source": "program broken\nloop i = {"})")),
            "compile_error");
  EXPECT_TRUE(closes());

  // An executor that hits its deadline, joined by a twin with a generous
  // one: both replies are deadline_exceeded, and each counts once.
  auto executor = std::async(std::launch::async, [&] {
    return serve_json(compile_line(9331, /*sleep_ms=*/2000, /*deadline_ms=*/300));
  });
  while (service.inflight_cells() == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(error_kind_of(serve_json(
                compile_line(9331, /*sleep_ms=*/2000, /*deadline_ms=*/5000))),
            "deadline_exceeded");
  EXPECT_EQ(error_kind_of(executor.get()), "deadline_exceeded");
  ServiceCounters c = service.counters();
  EXPECT_EQ(c.coalesced, 1u);
  EXPECT_EQ(c.deadline_exceeded, 2u);
  EXPECT_EQ(c.compile_errors, 1u);
  EXPECT_TRUE(closes());

  EXPECT_EQ(error_kind_of(serve_json(compile_line(9332, 0, /*deadline_ms=*/50),
                                     /*queued_ns=*/50'000'000)),
            "deadline_exceeded");

  // A batch whose deadline cancels its queued members is still one ok reply.
  const auto batch = serve_json(
      R"({"kind": "batch", "workloads": ["APS-1", "SDS-1"],)"
      R"( "widths": [1, 2, 4, 8], "deadline_ms": 1})");  // 40 cells
  ASSERT_TRUE(batch.find("ok")->as_bool()) << error_kind_of(batch);
  std::size_t cancelled = 0;
  for (const JsonValue& cell : batch.find("cells")->items())
    if (cell.find("error")->as_string() == "cancelled: batch deadline exceeded")
      ++cancelled;
  EXPECT_GT(cancelled, 0u);
  EXPECT_EQ(error_kind_of(serve_json(R"({"kind": "batch"})")), "overloaded");
  EXPECT_TRUE(serve_json(R"({"kind": "stats"})").find("ok")->as_bool());

  service.begin_drain();
  EXPECT_EQ(error_kind_of(serve_json(compile_line(9333))), "shutting_down");

  c = service.counters();
  EXPECT_EQ(c.received, 11u);
  EXPECT_EQ(c.ok, 3u);
  EXPECT_EQ(c.bad_request, 2u);
  EXPECT_EQ(c.overloaded, 1u);
  EXPECT_EQ(c.shutting_down, 1u);
  EXPECT_EQ(c.deadline_exceeded, 3u);
  EXPECT_EQ(c.compile_errors, 1u);
  EXPECT_EQ(c.internal_errors, 0u);
  EXPECT_TRUE(closes());
  service.wait_drained();
}

TEST(Service, BatchComputesFullCrossProduct) {
  Service service(config(4));
  const auto v = parse_ok(service.serve(
      R"({"id": 5, "kind": "batch", "workloads": ["APS-1", "SDS-1"],)"
      R"( "levels": ["conv", "lev4"], "widths": [1, 8]})").to_line());
  ASSERT_TRUE(v.find("ok")->as_bool()) << error_kind_of(v);
  const JsonValue* cells = v.find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_EQ(cells->size(), 8u);  // 2 workloads x 2 levels x 2 widths
  for (const JsonValue& cell : cells->items()) {
    EXPECT_EQ(cell.find("error")->as_string(), "");
    EXPECT_GT(cell.find("cycles")->as_int(), 0);
  }
  // Lev4@8 must beat Conv@1 for APS-1 (the paper's headline case).
  EXPECT_LT(cells->items()[3].find("cycles")->as_int(),
            cells->items()[0].find("cycles")->as_int());
  EXPECT_EQ(service.inflight_cells(), 0u);
}

// The ablation form (`transforms`) runs the same cell plan as `level`: with
// Lev4's set it is the Lev4 cell in every measured field, and a source the
// frontend rejects fails with the level path's text.
TEST(Service, ExplicitTransformsMatchTheLevelPath) {
  Service service(config(2));
  const auto by_level = parse_ok(service.serve(
      R"({"id": 1, "kind": "compile", "workload": "APS-1", "level": "lev4"})").to_line());
  const auto by_set = parse_ok(service.serve(
      R"({"id": 2, "kind": "compile", "workload": "APS-1", "transforms": )"
      R"({"unroll": true, "rename": true, "combine": true, "strength": true, )"
      R"("height": true, "acc_expand": true, "ind_expand": true, "search_expand": true}})")
                                   .to_line());
  ASSERT_TRUE(by_level.find("ok")->as_bool()) << error_kind_of(by_level);
  ASSERT_TRUE(by_set.find("ok")->as_bool()) << error_kind_of(by_set);
  EXPECT_FALSE(by_set.find("cached")->as_bool());  // distinct cell keys
  EXPECT_EQ(by_set.find("cycles")->as_int(), by_level.find("cycles")->as_int());
  for (const char* bank : {"int", "fp"})
    EXPECT_EQ(by_set.find("registers")->find(bank)->as_int(),
              by_level.find("registers")->find(bank)->as_int())
        << bank;
  const JsonValue* want = by_level.find("transforms");
  const JsonValue* got = by_set.find("transforms");
  ASSERT_NE(want, nullptr);
  ASSERT_NE(got, nullptr);
  EXPECT_GT(want->find("loops_unrolled")->as_int(), 0);
  for (const auto& [name, value] : want->members()) {
    ASSERT_NE(got->find(name), nullptr) << name;
    EXPECT_EQ(got->find(name)->as_int(), value.as_int()) << name;
  }

  const char* broken = R"(program p\nloop i = 0 to {)";
  const auto level_err = parse_ok(
      service.serve(strformat(R"({"id": 3, "kind": "compile", "source": "%s", )"
                              R"("level": "lev4"})", broken)).to_line());
  const auto set_err = parse_ok(service.serve(strformat(
      R"({"id": 4, "kind": "compile", "source": "%s", "transforms": {"unroll": true}})",
      broken)).to_line());
  EXPECT_EQ(error_kind_of(set_err), "compile_error");
  const std::string message = set_err.find("error")->find("message")->as_string();
  EXPECT_EQ(message.rfind("workload 'adhoc' failed to compile: ", 0), 0u) << message;
  EXPECT_EQ(message, level_err.find("error")->find("message")->as_string());
}

TEST(Service, BatchReusesCompileCacheEntries) {
  Service service(config(2));
  parse_ok(service
               .serve(R"({"kind": "compile", "workload": "SDS-1", "level": "conv",)"
                      R"( "issue": 1})")
               .to_line());
  const std::uint64_t executed = service.counters().cells_executed;
  const auto v = parse_ok(
      service
          .serve(R"({"kind": "batch", "workloads": ["SDS-1"], "levels": ["conv"],)"
                 R"( "widths": [1]})")
          .to_line());
  ASSERT_TRUE(v.find("ok")->as_bool());
  // The batch cell hit the entry the compile request stored: same key space.
  EXPECT_EQ(service.counters().cells_executed, executed);
}

// Drain: new work is refused with `shutting_down`, the sleeping request that
// was already admitted completes, and wait_drained() returns.
TEST(Service, DrainFinishesAdmittedWorkAndRefusesNew) {
  Service service(config(2));
  auto slow = std::async(std::launch::async, [&] {
    return service.serve(compile_line(9400, /*sleep_ms=*/400)).to_line();
  });
  while (service.inflight_cells() == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  service.begin_drain();
  EXPECT_TRUE(service.draining());

  const auto refused = parse_ok(service.serve(compile_line(9401)).to_line());
  EXPECT_FALSE(refused.find("ok")->as_bool());
  EXPECT_EQ(error_kind_of(refused), "shutting_down");

  // Stats must still answer during a drain (that is how drains are observed).
  const auto stats = parse_ok(service.serve(R"({"kind": "stats"})").to_line());
  ASSERT_TRUE(stats.find("ok")->as_bool());
  EXPECT_TRUE(stats.find("stats")->find("draining")->as_bool());

  service.wait_drained();
  EXPECT_EQ(service.inflight_cells(), 0u);
  const auto done = parse_ok(slow.get());
  EXPECT_TRUE(done.find("ok")->as_bool()) << error_kind_of(done);
}

TEST(Service, MalformedAndUnknownInputsProduceProtocolErrors) {
  Service service(config(1));
  EXPECT_EQ(error_kind_of(parse_ok(service.serve("{{{{").to_line())), "bad_request");
  EXPECT_EQ(error_kind_of(parse_ok(service.serve(
                R"({"kind": "compile", "workload": "NOPE-99"})").to_line())),
            "bad_request");
  const auto compile_err = parse_ok(service.serve(
      R"({"kind": "compile", "source": "program broken\nloop i = {"})").to_line());
  EXPECT_EQ(error_kind_of(compile_err), "compile_error");
  const ServiceCounters c = service.counters();
  EXPECT_EQ(c.bad_request, 2u);
  EXPECT_EQ(c.compile_errors, 1u);
  EXPECT_EQ(service.inflight_cells(), 0u);
}

TEST(Service, StatsReflectTraffic) {
  Service service(config(2));
  parse_ok(service.serve(compile_line(9500)).to_line());
  parse_ok(service.serve(compile_line(9500)).to_line());  // cache hit
  const auto v = parse_ok(service.serve(R"({"id": 9, "kind": "stats"})").to_line());
  ASSERT_TRUE(v.find("ok")->as_bool());
  EXPECT_EQ(v.find("id")->as_int(), 9);
  const JsonValue* stats = v.find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->find("requests")->find("received")->as_int(), 3);
  EXPECT_EQ(stats->find("cells_executed")->as_int(), 1);
  EXPECT_EQ(stats->find("workers")->as_int(), 2);
  // The repeat is answered from the pre-serialized hot tier.
  EXPECT_EQ(stats->find("requests")->find("hot_hits")->as_int(), 1);
}

}  // namespace
}  // namespace ilp::server

// End-to-end observability through the service layer: the `metrics` verb,
// per-request trace files, transformation counters in responses, and the
// latency histograms backing stats_json — all via serve(), no sockets.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "common/fixtures.hpp"
#include "obs/prom_lint.hpp"
#include "server/json.hpp"
#include "server/service.hpp"
#include "support/strings.hpp"

namespace ilp::server {
namespace {

struct TempDir {
  std::string path;
  TempDir() {
    static int counter = 0;
    const auto base = std::filesystem::temp_directory_path() /
                      ("ilp_obs_test_" + std::to_string(::getpid()) + "_" +
                       std::to_string(counter++));
    std::filesystem::create_directories(base);
    path = base.string();
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

JsonValue parse_ok(const std::string& line) {
  std::string err;
  auto v = JsonValue::parse(line, &err);
  EXPECT_TRUE(v.has_value()) << err << "\n" << line;
  return v.value_or(JsonValue{});
}

std::string compile_line(std::uint64_t seed, const char* level = "lev4",
                         bool trace = false) {
  return strformat(
      R"({"id": %llu, "kind": "compile", "source": "%s", "level": "%s", "issue": 8%s})",
      static_cast<unsigned long long>(seed),
      json_escape(ilp::testing::random_program(seed)).c_str(), level,
      trace ? R"(, "trace": true)" : "");
}

TEST(Observability, MetricsVerbReturnsValidPrometheusExposition) {
  Service service(ServiceConfig{});
  // Give the histograms something to chew on.
  for (std::uint64_t seed = 1; seed <= 3; ++seed)
    parse_ok(service.serve(compile_line(seed)).to_line());

  const auto reply =
      parse_ok(service.serve(R"({"id": "m", "kind": "metrics"})").to_line());
  ASSERT_TRUE(reply.find("ok")->as_bool());
  EXPECT_EQ(reply.find("kind")->as_string(), "metrics");
  EXPECT_EQ(reply.find("format")->as_string(), "prometheus-0.0.4");
  ASSERT_NE(reply.find("exposition"), nullptr);
  const std::string exposition = reply.find("exposition")->as_string();

  const auto problems = ilp::testing::lint_prometheus(exposition);
  EXPECT_TRUE(problems.empty()) << problems.front() << "\n--- exposition:\n"
                                << exposition;

  // The request-latency histogram must be present and non-empty: we just
  // served three compile requests.
  EXPECT_NE(exposition.find("# TYPE server_request_latency_seconds histogram"),
            std::string::npos);
  EXPECT_EQ(exposition.find("server_request_latency_seconds_count 0\n"),
            std::string::npos);
  // Service counters and gauges ride along.
  EXPECT_NE(exposition.find("server_requests_received"), std::string::npos);
  EXPECT_NE(exposition.find("server_queue_depth"), std::string::npos);
  EXPECT_NE(exposition.find("cache_memory_bytes"), std::string::npos);
  // Phase histograms from compute_cell.
  EXPECT_NE(exposition.find("server_phase_compile_seconds_bucket"),
            std::string::npos);
  EXPECT_NE(exposition.find("server_phase_simulate_seconds_bucket"),
            std::string::npos);
}

// A live-out dot-product reduction: Lev4 must unroll it and expand the
// accumulator (without `out` the whole reduction is dead and DCE'd away).
constexpr const char* kDotProduct =
    "program dot\\narray A[256] fp\\narray B[256] fp\\n"
    "scalar s fp out\\nloop i = 0 to 255 { s = s + A[i] * B[i]; }\\n";

TEST(Observability, CompileResponseCarriesTransformCounters) {
  Service service(ServiceConfig{});
  const auto reply = parse_ok(service.serve(
      strformat(R"({"id": 1, "kind": "compile", "source": "%s", "level": "lev4"})",
                kDotProduct)).to_line());
  ASSERT_TRUE(reply.find("ok")->as_bool()) << reply.find("error") << "\n";
  const JsonValue* t = reply.find("transforms");
  ASSERT_NE(t, nullptr);
  for (const char* key :
       {"loops_unrolled", "regs_renamed", "accs_expanded", "inds_expanded",
        "searches_expanded", "ops_combined", "strength_reduced",
        "trees_rebalanced", "ir_insts_before", "ir_insts_after"})
    ASSERT_NE(t->find(key), nullptr) << key;
  // Lev4 on a reducible accumulator loop must at least unroll and expand.
  EXPECT_GT(t->find("loops_unrolled")->as_int(), 0);
  EXPECT_GT(t->find("accs_expanded")->as_int(), 0);
  EXPECT_GT(t->find("ir_insts_before")->as_int(), 0);
  EXPECT_GE(t->find("ir_insts_after")->as_int(),
            t->find("ir_insts_before")->as_int());
  // And the response is tagged with the server-minted request id.
  ASSERT_NE(reply.find("request_id"), nullptr);
  EXPECT_EQ(reply.find("request_id")->as_string().rfind("r-", 0), 0u);
}

TEST(Observability, ConvCellReportsZeroTransforms) {
  Service service(ServiceConfig{});
  const auto reply = parse_ok(service.serve(
      strformat(R"({"id": 1, "kind": "compile", "source": "%s", "level": "conv"})",
                kDotProduct)).to_line());
  ASSERT_TRUE(reply.find("ok")->as_bool());
  const JsonValue* t = reply.find("transforms");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->find("loops_unrolled")->as_int(), 0);
  EXPECT_EQ(t->find("regs_renamed")->as_int(), 0);
  EXPECT_EQ(t->find("accs_expanded")->as_int(), 0);
}

TEST(Observability, TracedRequestWritesChromeTraceWithCorrelatedSpans) {
  TempDir traces;
  ServiceConfig cfg;
  cfg.trace_dir = traces.path;
  Service service(cfg);

  const auto reply =
      parse_ok(service.serve(compile_line(42, "lev4", /*trace=*/true)).to_line());
  ASSERT_TRUE(reply.find("ok")->as_bool());
  ASSERT_NE(reply.find("request_id"), nullptr);
  const std::string rid = reply.find("request_id")->as_string();
  ASSERT_NE(reply.find("trace_file"), nullptr);
  const std::string trace_file = reply.find("trace_file")->as_string();
  ASSERT_TRUE(std::filesystem::exists(trace_file)) << trace_file;

  std::ifstream in(trace_file);
  std::stringstream ss;
  ss << in.rdbuf();
  const auto doc = parse_ok(ss.str());
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);

  // The trace must contain the request span, the engine job span, and at
  // least one compiler pass span — all tagged with this request's id.
  std::set<std::string> names;
  for (const JsonValue& ev : events->items()) {
    ASSERT_NE(ev.find("name"), nullptr);
    const JsonValue* args = ev.find("args");
    ASSERT_NE(args, nullptr) << "span without args: " << ev.find("name")->as_string();
    ASSERT_NE(args->find("request_id"), nullptr);
    EXPECT_EQ(args->find("request_id")->as_string(), rid);
    names.insert(ev.find("name")->as_string());
  }
  EXPECT_TRUE(names.count("request")) << "missing request span";
  EXPECT_TRUE(names.count("job")) << "missing job span";
  bool has_pass = false;
  for (const std::string& n : names)
    if (n.rfind("pass.", 0) == 0) has_pass = true;
  EXPECT_TRUE(has_pass) << "no pass.* span in trace";
}

TEST(Observability, UntracedRequestsWriteNothing) {
  TempDir traces;
  ServiceConfig cfg;
  cfg.trace_dir = traces.path;
  Service service(cfg);
  parse_ok(service.serve(compile_line(43)).to_line());
  std::size_t files = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator(traces.path))
    ++files;
  EXPECT_EQ(files, 0u);
}

TEST(Observability, TraceRequestWithoutTraceDirStillSucceeds) {
  Service service(ServiceConfig{});
  const auto reply =
      parse_ok(service.serve(compile_line(44, "lev4", /*trace=*/true)).to_line());
  ASSERT_TRUE(reply.find("ok")->as_bool());
  EXPECT_EQ(reply.find("trace_file"), nullptr);
}

TEST(Observability, StatsJsonExposesLatencyPercentilesAndGauges) {
  Service service(ServiceConfig{});
  // The latency histogram lives in the process-wide registry, so other
  // tests in this binary may already have fed it: assert on the delta.
  const auto before = parse_ok(service.serve(R"({"id": 1, "kind": "stats"})").to_line());
  const std::int64_t baseline =
      before.find("stats")->find("latency_us")->find("count")->as_int();
  for (std::uint64_t seed = 10; seed < 14; ++seed)
    parse_ok(service.serve(compile_line(seed)).to_line());
  const auto reply = parse_ok(service.serve(R"({"id": 2, "kind": "stats"})").to_line());
  const JsonValue* stats = reply.find("stats");
  ASSERT_NE(stats, nullptr);
  const JsonValue* lat = stats->find("latency_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->find("count")->as_int(), baseline + 4);
  EXPECT_GT(lat->find("p50")->as_double(), 0.0);
  EXPECT_GE(lat->find("p99")->as_double(), lat->find("p50")->as_double());
  const JsonValue* pool = stats->find("pool");
  ASSERT_NE(pool, nullptr);
  ASSERT_NE(pool->find("queue_depth"), nullptr);
  ASSERT_NE(pool->find("active_jobs"), nullptr);
  EXPECT_EQ(pool->find("queue_depth")->as_int(), 0);  // idle after the burst
  const JsonValue* cache = stats->find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_GT(cache->find("memory_bytes")->as_int(), 0);
}

TEST(Observability, RequestIdsAreUniqueAndMonotonic) {
  Service service(ServiceConfig{});
  std::set<std::string> ids;
  for (std::uint64_t seed = 50; seed < 55; ++seed) {
    const auto reply = parse_ok(service.serve(compile_line(seed)).to_line());
    ASSERT_NE(reply.find("request_id"), nullptr);
    ids.insert(reply.find("request_id")->as_string());
  }
  EXPECT_EQ(ids.size(), 5u);
}

TEST(Observability, CachedRepeatStillGetsFreshRequestIdAndTransforms) {
  TempDir cache;
  ServiceConfig cfg;
  cfg.cache_dir = cache.path;
  Service service(cfg);
  const auto first = parse_ok(service.serve(compile_line(77)).to_line());
  const auto second = parse_ok(service.serve(compile_line(77)).to_line());
  ASSERT_TRUE(second.find("ok")->as_bool());
  EXPECT_TRUE(second.find("cached")->as_bool());
  // v2 cache payloads round-trip the transformation counters.
  ASSERT_NE(second.find("transforms"), nullptr);
  EXPECT_EQ(second.find("transforms")->find("loops_unrolled")->as_int(),
            first.find("transforms")->find("loops_unrolled")->as_int());
  EXPECT_NE(first.find("request_id")->as_string(),
            second.find("request_id")->as_string());
}

}  // namespace
}  // namespace ilp::server

// Transport-equivalence tests: the epoll/writev path must be byte-identical
// to in-process serve() calls, and pipelined replies must come back in
// request order even when shards complete out of order.
//
// Byte-identity is the acceptance contract for the zero-copy response split
// (protocol.hpp CompileBody): a warm reply assembled from pre-serialized
// segments via writev and a cold reply built as one string must be the same
// bytes on the wire.  Two identically-configured Services are driven with
// the same line sequence — one through serve(), one through a real Server
// socket — so the minted request ids (r-<n>) line up and the replies can be
// compared verbatim.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/fixtures.hpp"
#include "server/json.hpp"
#include "server/netclient.hpp"
#include "server/server.hpp"
#include "server/service.hpp"
#include "support/strings.hpp"

namespace ilp::server {
namespace {

ServiceConfig workers(int n) {
  ServiceConfig cfg;
  cfg.workers = n;
  return cfg;
}

// `id` defaults to the seed.
std::string compile_line(std::uint64_t seed, const char* extra = "",
                         std::optional<std::uint64_t> id = std::nullopt) {
  return strformat(
      R"({"id": %llu, "kind": "compile", "source": "%s", "level": "lev4", "issue": 8%s})",
      static_cast<unsigned long long>(id.value_or(seed)),
      json_escape(ilp::testing::random_program(seed)).c_str(), extra);
}

// The fuzz-corpus sequence both paths replay: cold compiles, warm repeats
// (the zero-copy segment path), the modulo backend, a parse error, an
// unknown workload and a named-workload compile.  Batch is excluded — its
// response embeds wall-clock timing and can never be byte-stable.
std::vector<std::string> corpus_lines() {
  std::vector<std::string> lines;
  for (std::uint64_t seed = 9'100; seed < 9'104; ++seed)
    lines.push_back(compile_line(seed));
  lines.push_back(compile_line(9'100));  // warm repeat: cached=true segments
  lines.push_back(compile_line(9'101));
  lines.push_back(compile_line(9'102, R"(, "scheduler": "modulo")"));
  lines.push_back(compile_line(9'102, R"(, "scheduler": "modulo")"));  // warm
  lines.push_back("{\"kind\": \"compile\"");                 // parse error
  lines.push_back(R"({"id": 7, "kind": "compile", "workload": "no-such", "level": "lev1"})");
  lines.push_back(R"({"id": 8, "kind": "compile", "workload": "APS-1", "level": "lev2"})");
  return lines;
}

TEST(EpollTransport, RepliesAreByteIdenticalToInProcessServe) {
  const std::vector<std::string> lines = corpus_lines();

  // Reference: in-process serve() on one fresh service.
  std::vector<std::string> expected;
  {
    Service reference(workers(2));
    expected.reserve(lines.size());
    for (const std::string& line : lines)
      expected.push_back(reference.serve(line).to_line());
  }

  // Same sequence over a real socket, sequentially so the request-id mint
  // stays aligned with the reference service.
  Service service(workers(2));
  Server server(service);
  ASSERT_TRUE(server.start()) << server.error();
  LineClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  for (std::size_t i = 0; i < lines.size(); ++i) {
    ASSERT_TRUE(client.send_line(lines[i]));
    const auto reply = client.recv_line(30'000);
    ASSERT_TRUE(reply.has_value()) << "no reply to line " << i;
    EXPECT_EQ(*reply, expected[i]) << "transport changed the bytes of line " << i;
  }
}

// Pipelined requests on one connection complete on different shards in
// whatever order the work dictates; the replies must still be emitted in
// request order.  The first request sleeps, so every later (fast, warm)
// request finishes before it — any reordering bug surfaces immediately.
TEST(EpollTransport, PipelinedRepliesKeepRequestOrder) {
  Service service(workers(2));
  Server server(service);
  ASSERT_TRUE(server.start()) << server.error();
  LineClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

  // Warm the fast cells first so the pipelined phase is pure dispatch.
  for (std::uint64_t seed = 9'200; seed < 9'204; ++seed) {
    ASSERT_TRUE(client.send_line(compile_line(seed)));
    ASSERT_TRUE(client.recv_line(30'000).has_value());
  }

  std::vector<std::string> batch;
  batch.push_back(compile_line(9'210, R"(, "debug_sleep_ms": 200)"));
  for (std::uint64_t seed = 9'200; seed < 9'204; ++seed)
    batch.push_back(compile_line(seed));
  std::string wire;
  for (const std::string& line : batch) wire += line + "\n";
  ASSERT_TRUE(client.send_raw(wire));

  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto reply = client.recv_line(30'000);
    ASSERT_TRUE(reply.has_value()) << "no reply to pipelined line " << i;
    const auto v = JsonValue::parse(*reply);
    ASSERT_TRUE(v.has_value()) << *reply;
    EXPECT_TRUE(v->find("ok")->as_bool()) << *reply;
    const std::int64_t want = i == 0 ? 9'210 : static_cast<std::int64_t>(9'199 + i);
    EXPECT_EQ(v->find("id")->as_int(), want)
        << "reply " << i << " out of order: " << *reply;
  }

  // One large burst in a single write: the connection's read buffer holds
  // hundreds of complete lines at once (warm compiles spread over both
  // shards, stats on shard 0), and every reply still comes back in request
  // order.
  constexpr std::uint64_t kBurst = 300;
  wire.clear();
  for (std::uint64_t i = 0; i < kBurst; ++i)
    wire += (i % 3 == 0 ? strformat(R"({"id": %llu, "kind": "stats"})",
                                    static_cast<unsigned long long>(i))
                        : compile_line(9'200 + i % 4, "", i)) +
            "\n";
  ASSERT_TRUE(client.send_raw(wire));
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    const auto reply = client.recv_line(30'000);
    ASSERT_TRUE(reply.has_value()) << "no reply to burst line " << i;
    const auto v = JsonValue::parse(*reply);
    ASSERT_TRUE(v.has_value()) << *reply;
    ASSERT_EQ(v->find("id")->as_int(), static_cast<std::int64_t>(i))
        << "burst reply out of order: " << *reply;
  }
}

// A full dispatch ring is explicit backpressure: the line is answered
// `overloaded` by the transport itself, still in request order, and the
// connection survives.
TEST(EpollTransport, FullRingAnswersOverloadedInOrder) {
  Service service(workers(1));
  ServerConfig cfg;
  cfg.ring_capacity = 1;
  Server server(service, cfg);
  ASSERT_TRUE(server.start()) << server.error();
  LineClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

  // Warm the fast cell, then pipeline: one sleeper to occupy the only shard
  // worker plus a burst that must overflow the one-slot ring.
  ASSERT_TRUE(client.send_line(compile_line(9'300)));
  ASSERT_TRUE(client.recv_line(30'000).has_value());

  constexpr int kBurst = 10;
  std::string wire = compile_line(9'301, R"(, "debug_sleep_ms": 300)") + "\n";
  for (int i = 0; i < kBurst; ++i) wire += compile_line(9'300) + "\n";
  ASSERT_TRUE(client.send_raw(wire));

  int ok = 0, overloaded = 0;
  std::vector<std::int64_t> ids;
  for (int i = 0; i < kBurst + 1; ++i) {
    const auto reply = client.recv_line(30'000);
    ASSERT_TRUE(reply.has_value()) << "no reply to burst line " << i;
    const auto v = JsonValue::parse(*reply);
    ASSERT_TRUE(v.has_value()) << *reply;
    ids.push_back(v->find("id")->as_int());
    if (v->find("ok")->as_bool()) {
      ++ok;
    } else {
      EXPECT_EQ(v->find("error")->find("kind")->as_string(), "overloaded");
      ++overloaded;
    }
  }
  // The sleeper always completes; with a one-slot ring at most one burst
  // line can be parked behind it, so most of the burst is shed.
  EXPECT_GE(ok, 1);
  EXPECT_GT(overloaded, 0);
  EXPECT_EQ(ok + overloaded, kBurst + 1);
  // Replies stay in request order even when some are transport-synthesized.
  ASSERT_EQ(ids.size(), static_cast<std::size_t>(kBurst + 1));
  EXPECT_EQ(ids.front(), 9'301);
  for (std::size_t i = 1; i < ids.size(); ++i) EXPECT_EQ(ids[i], 9'300);
}

}  // namespace
}  // namespace ilp::server

// ilpd_warm: an in-process server::Server (2 shard workers and its IO
// thread) over a server::Service, driven by one client thread that polls
// every connection.
//
// Set-up starts the daemon and prefills the warm corpus: 32 seeded
// testing::random_program compile requests at Lev4, issue 4 (--corpus-seed
// picks the programs).  The timed phase then replays the corpus closed-loop
// on 4 connections, each keeping kDepth requests in flight; --seed orders
// the replay.
//
// Oracles: every reply is ok, and its result fields are byte-equal to its
// prefill reply's.  Invariants from the daemon's own `stats` and `metrics`
// verbs: cells executed == prefill (exactly-once execution, and no warm
// request executed again) and zero rejections.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/fixtures.hpp"
#include "engine/metrics.hpp"
#include "obs/log.hpp"
#include "server/json.hpp"
#include "server/netclient.hpp"
#include "server/server.hpp"
#include "server/service.hpp"
#include "support/strings.hpp"

namespace perfbench {
namespace {

using namespace ilp;

constexpr int kCorpus = 32;
constexpr int kIssue = 4;
constexpr int kConnections = 4;
// Requests in flight per connection.  A deep pipeline keeps the client, IO
// thread and shard workers busy instead of parking and waking once per
// request: with one request in flight, a host that stole 15% of the CPU cut
// warm throughput by 65%; with 64, by about 10%.
constexpr std::size_t kDepth = 64;

std::string compile_line(std::uint64_t id, const std::string& source) {
  return strformat(R"({"id":%llu,"kind":"compile","source":"%s","level":"lev4","issue":%d})",
                   static_cast<unsigned long long>(id), json_escape(source).c_str(),
                   kIssue) +
         "\n";
}

std::uint64_t field_u64(const std::string& reply, const char* key) {
  const std::size_t at = reply.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(reply.c_str() + at + std::strlen(key), nullptr, 10);
}

// A warm request and what its reply must say.
struct WarmEntry {
  std::string line;
  std::string id_prefix;  // `{"id": <n>`
  std::string fields;     // result fields of a cached reply, between id and request_id
};

// The daemon: service, transport, and the prefilled warm corpus.
struct Daemon {
  std::unique_ptr<server::Service> service;
  std::unique_ptr<server::Server> server;
  std::vector<std::string> prefill_replies;
  std::size_t distinct_cells = 0;
};

std::unique_ptr<Daemon> start_daemon(const std::vector<WarmEntry>& corpus) {
  auto d = std::make_unique<Daemon>();
  server::ServiceConfig cfg;
  cfg.workers = 2;
  d->service = std::make_unique<server::Service>(cfg);
  d->server = std::make_unique<server::Server>(*d->service);
  if (!d->server->start()) {
    std::fprintf(stderr, "perfbench: server start failed: %s\n", d->server->error().c_str());
    return nullptr;
  }
  server::LineClient c;
  if (!c.connect("127.0.0.1", d->server->port())) return nullptr;
  std::set<std::string> distinct;
  for (const WarmEntry& e : corpus) {
    distinct.insert(e.line.substr(e.line.find(",\"kind\"")));
    if (!c.send_raw(e.line)) return nullptr;
    auto reply = c.recv_line(120'000);
    if (!reply) return nullptr;
    d->prefill_replies.push_back(std::move(*reply));
  }
  d->distinct_cells = distinct.size();
  return d;
}

// Result fields of a compile reply: between the echoed id and request_id.
std::optional<std::string> result_fields(const std::string& reply, const std::string& id_prefix) {
  const std::size_t end = reply.rfind(", \"request_id\": ");
  if (reply.rfind(id_prefix, 0) != 0 || end == std::string::npos || end < id_prefix.size())
    return std::nullopt;
  return reply.substr(id_prefix.size(), end - id_prefix.size());
}

// A request in flight: its corpus index and when it was sent.
struct Sent {
  std::size_t entry = 0;
  std::uint64_t ns = 0;
};

// One client connection: blocking socket, up to kDepth requests in flight,
// answered in request order.
struct Conn {
  int fd = -1;
  std::string rbuf;
  std::size_t cursor = 0;  // position in this connection's walk
  std::deque<Sent> inflight;
};

int connect_to(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

bool send_all(int fd, const std::string& data) {
  const char* p = data.data();
  std::size_t n = data.size();
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

// Round trips, cut into fixed windows of the timed phase.  When a window
// closes, its rate, its exact p50/p90 and its count of slow replies (more
// than twice the window's p50) are kept and its samples dropped; a phase
// reports the median over all its windows.  The sample buffer is allocated
// and touched up front, so the client's memory does not grow with the
// request rate (peak_rss_mb must not read a faster daemon as a bigger one).
class Windows {
 public:
  explicit Windows(std::size_t capacity) : buf_(capacity, 0) {}

  void record(std::uint64_t ns) {
    ++total_;
    if (n_ < buf_.size()) buf_[n_] = ns;
    ++n_;
  }
  // Closes the current window of `seconds`.  Its percentiles count only
  // with at least 100 samples, so p90 has ten samples beyond it.
  void close(double seconds) {
    rate_.push_back(static_cast<double>(n_) / seconds);
    const std::size_t kept = std::min(n_, buf_.size());
    std::vector<double> v(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(kept));
    if (kept >= 100) {
      const double p50 = quantile(v, 0.5);
      for (double x : v) slow_ += x > 2.0 * p50 ? 1 : 0;
      p50_.push_back(p50 / 1e3);
      p90_.push_back(quantile(std::move(v), 0.9) / 1e3);
    }
    n_ = 0;
  }
  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] std::uint64_t slow() const { return slow_; }
  [[nodiscard]] const std::vector<double>& rates() const { return rate_; }
  // Medians over the windows; latencies in us.
  [[nodiscard]] double rate() const { return median(rate_); }
  [[nodiscard]] double p50_us() const { return median(p50_); }
  [[nodiscard]] double p90_us() const { return median(p90_); }

 private:
  std::vector<std::uint64_t> buf_;
  std::size_t n_ = 0;
  std::uint64_t total_ = 0, slow_ = 0;
  std::vector<double> rate_, p50_, p90_;
};

constexpr double kWindowSeconds = 1.0;

// What one timed phase saw.
struct Phase {
  Windows warm{200'000};
  std::uint64_t replies = 0;  // every reply, also those after the last window
  std::uint64_t bad_replies = 0;
  bool completed = false;
};

// The load generator: polls every connection, sends the next request on a
// connection as soon as its reply arrives, until `seconds` have passed;
// then waits for the outstanding replies.
class Client {
 public:
  Client(const std::vector<WarmEntry>& corpus, std::vector<std::size_t> warm_order)
      : corpus_(corpus), warm_order_(std::move(warm_order)) {}

  bool connect(int port) {
    for (int i = 0; i < kConnections; ++i) {
      Conn c;
      c.fd = connect_to(port);
      if (c.fd < 0) return false;
      c.cursor = static_cast<std::size_t>(i) * warm_order_.size() / kConnections;
      conns_.push_back(std::move(c));
    }
    return true;
  }

  ~Client() {
    for (Conn& c : conns_)
      if (c.fd >= 0) ::close(c.fd);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  Phase run(double seconds, Spans* spans, std::size_t max_spans) {
    Phase ph;
    spans_ = spans;
    max_spans_ = max_spans;
    const std::uint64_t t0 = now_ns();
    const auto window_ns = static_cast<std::uint64_t>(kWindowSeconds * 1e9);
    const std::uint64_t windows = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(seconds / kWindowSeconds + 0.5));
    const std::uint64_t stop = t0 + windows * window_ns;
    std::uint64_t window_end = t0 + window_ns;
    const auto close_window = [&] { ph.warm.close(kWindowSeconds); };
    for (Conn& c : conns_)
      for (std::size_t k = 0; k < kDepth; ++k)
        if (!send_next(c)) return fail(ph);
    std::vector<pollfd> fds(conns_.size());
    char chunk[16384];
    for (;;) {
      std::size_t waiting = 0;
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        const bool busy = !conns_[i].inflight.empty();
        fds[i] = {conns_[i].fd, static_cast<short>(busy ? POLLIN : 0), 0};
        waiting += busy ? 1 : 0;
      }
      if (waiting == 0) break;
      if (::poll(fds.data(), fds.size(), 30'000) <= 0) return fail(ph);
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        Conn& c = conns_[i];
        const ssize_t n = ::read(c.fd, chunk, sizeof chunk);
        if (n <= 0) return fail(ph);
        c.rbuf.append(chunk, static_cast<std::size_t>(n));
        const std::uint64_t t = now_ns();
        for (; window_end <= stop && t >= window_end; window_end += window_ns)
          close_window();
        std::size_t at = 0;
        for (std::size_t nl; (nl = c.rbuf.find('\n', at)) != std::string::npos; at = nl + 1) {
          if (c.inflight.empty()) return fail(ph);
          on_reply(c.inflight.front(), std::string_view(c.rbuf).substr(at, nl - at), t, ph,
                   static_cast<int>(i), t < stop);
          c.inflight.pop_front();
          if (t < stop && !send_next(c)) return fail(ph);
        }
        c.rbuf.erase(0, at);
      }
    }
    for (; window_end <= stop; window_end += window_ns) close_window();  // no reply
    ph.completed = true;
    return ph;
  }

  // A verb round trip on connection 0 (between timed phases).
  std::optional<std::string> verb(const char* kind) {
    const std::string line = strformat(R"({"id":"perfbench","kind":"%s"})", kind) + "\n";
    if (!send_all(conns_[0].fd, line)) return std::nullopt;
    std::string& buf = conns_[0].rbuf;
    char chunk[16384];
    for (;;) {
      const std::size_t nl = buf.find('\n');
      if (nl != std::string::npos) {
        std::string out = buf.substr(0, nl);
        buf.erase(0, nl + 1);
        return out;
      }
      pollfd p{conns_[0].fd, POLLIN, 0};
      if (::poll(&p, 1, 30'000) <= 0) return std::nullopt;
      const ssize_t n = ::read(conns_[0].fd, chunk, sizeof chunk);
      if (n <= 0) return std::nullopt;
      buf.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  Phase& fail(Phase& ph) {
    ++ph.bad_replies;
    std::fprintf(stderr, "perfbench: client connection failed\n");
    return ph;
  }

  bool send_next(Conn& c) {
    const std::size_t entry = warm_order_[c.cursor++ % warm_order_.size()];
    c.inflight.push_back({entry, now_ns()});
    return send_all(c.fd, corpus_[entry].line);
  }

  // Checks a reply; counts it in the windows when it arrived before `stop`.
  void on_reply(const Sent& req, std::string_view reply, std::uint64_t t, Phase& ph, int tid,
                bool in_window) {
    ++ph.replies;
    if (in_window) ph.warm.record(t - req.ns);
    const WarmEntry& e = corpus_[req.entry];
    const bool ok =
        reply.substr(0, e.id_prefix.size()) == e.id_prefix &&
        reply.substr(e.id_prefix.size(), e.fields.size()) == e.fields &&
        reply.substr(e.id_prefix.size() + e.fields.size(), 17) == ", \"request_id\": \"";
    if (!ok) {
      if (ph.bad_replies == 0)
        std::fprintf(stderr, "perfbench: bad reply: %.*s\n", static_cast<int>(reply.size()),
                     reply.data());
      ++ph.bad_replies;
    }
    if (spans_ != nullptr && spans_->size() < max_spans_)
      spans_->add("request.warm", -1, req.entry, req.ns, t, tid);
  }

  const std::vector<WarmEntry>& corpus_;
  std::vector<std::size_t> warm_order_;
  std::vector<Conn> conns_;
  Spans* spans_ = nullptr;
  std::size_t max_spans_ = 0;
};

// Numbers read back from the daemon's stats and metrics verbs.
struct DaemonStats {
  bool ok = false;
  std::uint64_t hot_hits = 0, cells_executed = 0, overloaded = 0, deadline = 0;
  std::uint64_t ring_drops = 0;
  double service_us_p50 = 0.0, queue_wait_us_p90 = 0.0;
};

DaemonStats read_stats(Client& client) {
  DaemonStats s;
  const auto stats = client.verb("stats");
  const auto metrics = client.verb("metrics");
  if (!stats || !metrics) return s;
  const auto doc = server::JsonValue::parse(*stats);
  const auto mdoc = server::JsonValue::parse(*metrics);
  const server::JsonValue* st = doc ? doc->find("stats") : nullptr;
  const server::JsonValue* exposition = mdoc ? mdoc->find("exposition") : nullptr;
  if (st == nullptr || exposition == nullptr || !exposition->is_string()) return s;
  const auto num = [](const server::JsonValue* obj, const char* key) {
    const server::JsonValue* v = obj != nullptr ? obj->find(key) : nullptr;
    return v != nullptr ? v->as_double() : 0.0;
  };
  const server::JsonValue* req = st->find("requests");
  s.hot_hits = static_cast<std::uint64_t>(num(req, "hot_hits"));
  s.overloaded = static_cast<std::uint64_t>(num(req, "overloaded"));
  s.deadline = static_cast<std::uint64_t>(num(req, "deadline_exceeded"));
  s.cells_executed = static_cast<std::uint64_t>(num(st, "cells_executed"));
  s.service_us_p50 = num(st->find("latency_us"), "p50");
  s.queue_wait_us_p90 = num(st->find("queue_wait_us"), "p90");
  // Sum of server_shard_ring_drops{shard="i"} samples.
  const std::string& text = exposition->as_string();
  for (std::size_t at = text.find("\nserver_shard_ring_drops{"); at != std::string::npos;
       at = text.find("\nserver_shard_ring_drops{", at + 1)) {
    const std::size_t sp = text.find("} ", at);
    if (sp != std::string::npos)
      s.ring_drops += static_cast<std::uint64_t>(std::strtod(text.c_str() + sp + 2, nullptr));
  }
  s.ok = true;
  return s;
}

}  // namespace

Result run_ilpd_workload(const Args& args) {
  Result res;
  obs::Logger::global().set_level(obs::LogLevel::Warn);  // no start/stop lines per set-up
  // Inputs: the warm corpus from --corpus-seed, the replay order from --seed.
  std::vector<WarmEntry> corpus;
  for (int i = 0; i < kCorpus; ++i) {
    WarmEntry e;
    e.line = compile_line(static_cast<std::uint64_t>(i),
                          testing::random_program(args.corpus_seed + static_cast<std::uint64_t>(i)));
    e.id_prefix = strformat("{\"id\": %d", i);
    corpus.push_back(std::move(e));
  }
  std::vector<std::size_t> warm_order(corpus.size());
  for (std::size_t i = 0; i < warm_order.size(); ++i) warm_order[i] = i;
  std::mt19937_64 warm_rng(args.seed);
  std::shuffle(warm_order.begin(), warm_order.end(), warm_rng);

  // Set-up, fifteen times (one takes about 50 ms): daemon start plus the
  // prefill; the last one serves.
  std::vector<double> setups;
  std::unique_ptr<Daemon> daemon;
  for (int i = 0; i < 15; ++i) {
    daemon.reset();
    const std::uint64_t t0 = now_ns();
    daemon = start_daemon(corpus);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (!daemon) {
      res.check(false, "daemon start and prefill");
      return res;
    }
  }
  std::vector<double> speedups;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const std::string& reply = daemon->prefill_replies[i];
    auto fields = result_fields(reply, corpus[i].id_prefix);
    const std::size_t flag = fields ? fields->find("\"cached\": false") : std::string::npos;
    const bool ok = reply.find("\"ok\": true") != std::string::npos && flag != std::string::npos;
    res.check(ok, "prefill reply ok and executed: " + reply.substr(0, 120));
    if (!ok) return res;
    corpus[i].fields = fields->replace(flag + 10, 5, "true");
    speedups.push_back(static_cast<double>(field_u64(reply, "\"base_cycles\": ")) /
                       static_cast<double>(field_u64(reply, "\"cycles\": ")));
  }

  Client client(corpus, warm_order);
  if (!client.connect(daemon->server->port())) {
    res.check(false, "connect the load connections");
    return res;
  }

  auto check_invariants = [&](const DaemonStats& end) {
    res.check(end.ok, "stats and metrics verbs answer");
    res.check(end.cells_executed == daemon->distinct_cells,
              strformat("cells executed %" PRIu64 " == prefill %zu", end.cells_executed,
                        daemon->distinct_cells));
    res.check(end.overloaded + end.deadline + end.ring_drops == 0, "zero rejections");
    std::printf("# invariants {\"cells_executed\": %" PRIu64 ", \"prefill\": %zu, "
                "\"overloaded\": %" PRIu64 ", \"deadline_exceeded\": %" PRIu64
                ", \"ring_drops\": %" PRIu64 "}\n",
                end.cells_executed, daemon->distinct_cells, end.overloaded, end.deadline,
                end.ring_drops);
  };
  auto count_replies = [&](const Phase& ph) {
    res.attempted += ph.replies;
    res.failed += ph.bad_replies;
    res.check(ph.completed && ph.warm.total() > 0, "timed phase completed");
  };

  if (!args.trace) {
    const Phase ph = client.run(args.seconds, nullptr, 0);
    count_replies(ph);
    check_invariants(read_stats(client));

    print_series("setup_s", setups);
    print_series("warm_rate_windows", ph.warm.rates());
    const double rps = ph.warm.rate();
    const double p50 = ph.warm.p50_us();
    const double p90 = ph.warm.p90_us();
    res.set("setup_s", median(setups));
    res.set("peak_rss_mb", peak_rss_mb());
    res.set("ok_ratio", res.ok_ratio());
    res.set("requests_per_s", rps);
    res.set("warm_us_p50", p50);
    res.set("warm_us_p90", p90);
    // Names from the other workloads (README.md).  No search runs here:
    // every answer is the Lev4 configuration, so its gain over Lev4 is 1.
    res.set("tune_gain_gmean", 1.0);
    res.set("cells_per_s", rps);
    res.set("searches_per_s", rps);
    res.set("search_ms_p50", p50 / 1e3);
    res.set("search_ms_p90", p90 / 1e3);
    res.set("study_speedup_gmean", gmean(speedups));
    return res;
  }

  // --- traced run: an untraced half, then a half with a client span per
  // request and the daemon's stats/metrics read at its start and end.
  const Phase plain = client.run(args.seconds / 2.0, nullptr, 0);
  engine::MetricsRegistry::global().reset();  // daemon percentiles cover the traced half
  const DaemonStats start = read_stats(client);
  Spans spans;
  constexpr std::size_t kMaxSpans = 20'000;
  const Phase traced = client.run(args.seconds / 2.0, &spans, kMaxSpans);
  const DaemonStats end = read_stats(client);
  count_replies(plain);
  count_replies(traced);
  check_invariants(end);

  res.set("server.service_us_p50", end.service_us_p50);
  res.set("server.transport_us_p50", traced.warm.p50_us() - end.service_us_p50);
  res.set("server.queue_wait_us_p90", end.queue_wait_us_p90);
  res.set("server.hot_hit_ratio", static_cast<double>(end.hot_hits - start.hot_hits) /
                                      static_cast<double>(traced.replies));
  res.set("server.cells_executed", static_cast<double>(end.cells_executed));
  res.set("server.warm_blocked_share",
          static_cast<double>(traced.warm.slow()) /
              static_cast<double>(traced.warm.total()));
  res.set("server.rejected", static_cast<double>(end.overloaded + end.deadline + end.ring_drops));
  res.set("obs.trace_overhead", (plain.warm.rate() - traced.warm.rate()) / plain.warm.rate());

  const std::string path = kTraceDir + "/ilpd_warm.trace.json";
  res.check(spans.write_chrome_trace(path), "write Chrome trace " + path);
  std::printf("# trace %s (%zu spans, first %zu requests of the traced half)\n",
              path.c_str(), spans.size(), kMaxSpans);
  return res;
}

}  // namespace perfbench

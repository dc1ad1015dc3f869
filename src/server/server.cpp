#include "server/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <map>

#include "obs/log.hpp"
#include "obs/prometheus.hpp"
#include "support/strings.hpp"

namespace ilp::server {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

// Wire literals for segment-assembled replies.  Byte-for-byte the pieces
// assemble_compile_response() glues around the shared CompileBody segments —
// the transport-equivalence test pins the two paths together.
constexpr std::string_view kIdPrefix = "{\"id\": ";
constexpr std::string_view kTrue = "true";
constexpr std::string_view kFalse = "false";
constexpr std::string_view kReqIdPrefix = ", \"request_id\": \"";
constexpr std::string_view kSegTail = "\"}\n";

// At most this many segments describe one reply on the wire.
constexpr std::size_t kMaxSegments = 8;

// Fills `segs` with the reply's wire segments; returns the count.  Flat
// replies must already carry their trailing newline.
std::size_t reply_segments(const Reply& r,
                           std::array<std::string_view, kMaxSegments>& segs) {
  if (r.body == nullptr) {
    segs[0] = r.flat;
    return 1;
  }
  segs = {kIdPrefix, r.id_json,           r.body->pre, r.cached ? kTrue : kFalse,
          r.body->post, kReqIdPrefix, r.request_id, kSegTail};
  return kMaxSegments;
}

std::size_t reply_wire_size(const Reply& r) {
  std::array<std::string_view, kMaxSegments> segs;
  const std::size_t n = reply_segments(r, segs);
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) total += segs[i].size();
  return total;
}

}  // namespace

// Per-connection transport state; owned and touched by the IO thread only.
struct Server::Conn {
  int fd = -1;
  std::uint64_t id = 0;
  std::string inbuf;           // bytes read, tail may be a partial line
  std::uint64_t next_seq = 0;  // arrival number of the next dispatched line
  std::uint64_t next_write = 0;  // seq whose reply is emitted next
  std::uint64_t inflight = 0;    // dispatched lines without a reply yet
  std::map<std::uint64_t, Reply> pending;  // out-of-order completions parked
  // Ordered outgoing replies.  front_off is how many bytes of the front
  // reply a previous short writev already sent.
  std::deque<Reply> outq;
  std::size_t front_off = 0;
  bool want_write = false;  // EPOLLOUT currently armed
  bool peer_closed = false;
  bool reading = true;  // false once the drain begins
};

Server::Server(Service& service, ServerConfig cfg)
    : service_(service), cfg_(std::move(cfg)) {}

Server::~Server() {
  request_stop();
  wait();
  service_.set_transport_metrics(nullptr);
  for (const int fd : {stop_efd_, done_efd_, epoll_fd_})
    if (fd >= 0) ::close(fd);
}

bool Server::start() {
  stop_efd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  done_efd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (stop_efd_ < 0 || done_efd_ < 0 || epoll_fd_ < 0) {
    error_ = strformat("eventfd/epoll: %s", std::strerror(errno));
    return false;
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    error_ = strformat("socket: %s", std::strerror(errno));
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(cfg_.port));
  if (::inet_pton(AF_INET, cfg_.host.c_str(), &addr.sin_addr) != 1) {
    error_ = strformat("invalid listen address '%s'", cfg_.host.c_str());
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    error_ = strformat("bind %s:%d: %s", cfg_.host.c_str(), cfg_.port,
                       std::strerror(errno));
    return false;
  }
  if (::listen(listen_fd_, 128) != 0) {
    error_ = strformat("listen: %s", std::strerror(errno));
    return false;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0)
    port_ = ntohs(addr.sin_port);

  const std::size_t shards = static_cast<std::size_t>(service_.shard_count());
  lanes_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    auto lane = std::make_unique<Lane>(cfg_.ring_capacity);
    lane->efd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (lane->efd < 0) {
      error_ = strformat("eventfd: %s", std::strerror(errno));
      return false;
    }
    lanes_.push_back(std::move(lane));
  }
  // Outstanding replies are bounded by what the lanes can hold plus one
  // executing request per shard, so a completion ring this size cannot fill
  // while connections are alive; the producer still spins-and-wakes if it
  // ever does (e.g. replies parked for a closed connection).
  completions_ = std::make_unique<MpscRing<Completion>>(
      shards * lanes_[0]->ring.capacity() + shards);

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = 0;  // 0 = listener
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u64 = 1;  // 1 = stop eventfd
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, stop_efd_, &ev);
  ev.data.u64 = 2;  // 2 = completion eventfd
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, done_efd_, &ev);

  service_.set_transport_metrics(
      [this](std::string& out) { append_transport_metrics(out); });

  obs::log_info("listener started",
                {obs::field("host", cfg_.host), obs::field("port", port_),
                 obs::field("shards", static_cast<int>(shards)),
                 obs::field("ring_capacity", lanes_[0]->ring.capacity())});
  workers_live_.store(static_cast<int>(shards), std::memory_order_release);
  for (std::size_t i = 0; i < shards; ++i)
    lanes_[i]->thread = std::thread([this, i] { worker_loop(i); });
  io_thread_ = std::thread([this] { io_loop(); });
  return true;
}

void Server::request_stop() {
  if (stop_efd_ >= 0) {
    const std::uint64_t one = 1;
    // Best effort; eventfd write is async-signal-safe, and a full counter
    // means a stop is already pending.
    [[maybe_unused]] const ssize_t r = ::write(stop_efd_, &one, sizeof one);
  }
}

void Server::wait() {
  if (io_thread_.joinable()) io_thread_.join();
}

void Server::wake_io() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t r = ::write(done_efd_, &one, sizeof one);
}

void Server::wake_lane(Lane& lane) {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t r = ::write(lane.efd, &one, sizeof one);
}

// ---------------------------------------------------------------------------
// Shard workers

void Server::worker_loop(std::size_t shard) {
  Lane& lane = *lanes_[shard];
  Dispatch d;
  for (;;) {
    if (lane.ring.try_pop(d)) {
      const std::uint64_t t = now_ns();
      Completion comp;
      comp.conn_id = d.conn_id;
      comp.seq = d.seq;
      comp.reply =
          service_.serve_parsed(std::move(d.parsed),
                                t > d.enqueued_ns ? t - d.enqueued_ns : 0);
      d = Dispatch{};  // release request strings before parking
      while (!completions_->try_push(std::move(comp))) {
        // Only replies for closed connections can accumulate this far; the
        // IO thread is the consumer, so wake it and retry.
        wake_io();
        std::this_thread::yield();
      }
      // Gated wakeup (store-buffer pattern): the IO thread sets io_parked_
      // and re-checks the ring before sleeping, we publish and re-check the
      // flag.  Both sides fence, so at least one of them sees the other.
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (io_parked_.load(std::memory_order_relaxed)) wake_io();
      continue;
    }
    if (workers_stop_.load(std::memory_order_acquire)) break;
    // Park until the IO thread pushes; the timeout bounds any lost wakeup.
    lane.parked.store(true, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (lane.ring.empty_approx() &&
        !workers_stop_.load(std::memory_order_acquire)) {
      pollfd p{lane.efd, POLLIN, 0};
      ::poll(&p, 1, cfg_.poll_interval_ms);
      std::uint64_t drain = 0;
      [[maybe_unused]] const ssize_t r =
          ::read(lane.efd, &drain, sizeof drain);
    }
    lane.parked.store(false, std::memory_order_relaxed);
  }
  workers_live_.fetch_sub(1, std::memory_order_acq_rel);
  // The IO thread may be parked on its own eventfd waiting for us to exit.
  wake_io();
}

// ---------------------------------------------------------------------------
// IO thread

void Server::io_loop() {
  epoll_event events[64];
  for (;;) {
    drain_completions();

    // Drain finished: every connection has been answered, flushed and
    // closed.  Stop the workers, let them finish ring stragglers (replies
    // for force-closed connections), then wait out the service.
    if (stopping_.load(std::memory_order_acquire) && conns_.empty()) {
      workers_stop_.store(true, std::memory_order_release);
      for (auto& lane : lanes_) wake_lane(*lane);
      while (workers_live_.load(std::memory_order_acquire) > 0) {
        drain_completions();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      for (auto& lane : lanes_)
        if (lane->thread.joinable()) lane->thread.join();
      drain_completions();
      service_.wait_drained();
      obs::log_info("drain complete");
      return;
    }

    io_parked_.store(true, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    int n = 0;
    if (completions_->empty_approx())
      n = ::epoll_wait(epoll_fd_, events, 64, cfg_.poll_interval_ms);
    io_parked_.store(false, std::memory_order_relaxed);
    if (n < 0) {
      if (errno == EINTR) continue;
      obs::log_warn("epoll_wait failed",
                    {obs::field("errno", std::strerror(errno))});
      continue;
    }

    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == 0) {
        accept_ready();
        continue;
      }
      if (tag == 1) {  // request_stop()
        std::uint64_t v = 0;
        [[maybe_unused]] const ssize_t r = ::read(stop_efd_, &v, sizeof v);
        begin_drain_locked_io();
        continue;
      }
      if (tag == 2) {  // completions pending
        std::uint64_t v = 0;
        [[maybe_unused]] const ssize_t r = ::read(done_efd_, &v, sizeof v);
        continue;  // drained at the top of the loop
      }
      const auto it = conns_.find(tag);
      if (it == conns_.end()) continue;  // closed earlier in this batch
      Conn& c = *it->second;
      if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0 && c.inflight == 0 &&
          c.outq.empty()) {
        close_conn(c);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0 && !flush_conn(c)) {
        close_conn(c);
        continue;
      }
      if ((events[i].events & (EPOLLIN | EPOLLHUP)) != 0) read_ready(c);
    }

    // Deferred erase: events later in a batch may still name a closed conn.
    for (const std::uint64_t id : dead_conns_) conns_.erase(id);
    dead_conns_.clear();
  }
}

void Server::begin_drain_locked_io() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  obs::log_info("listener closing; drain begins");
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
  ::close(listen_fd_);
  listen_fd_ = -1;
  service_.begin_drain();
  // Every complete line already received is dispatched (the service answers
  // `shutting_down` for work it no longer admits); reading stops, so partial
  // lines never complete.  Idle connections close right here.
  for (auto& [id, conn] : conns_) {
    Conn& c = *conn;
    c.reading = false;
    dispatch_lines(c);
    maybe_finish_conn(c);
  }
  for (const std::uint64_t id : dead_conns_) conns_.erase(id);
  dead_conns_.clear();
}

void Server::accept_ready() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      obs::log_warn("accept failed",
                    {obs::field("errno", std::strerror(errno))});
      return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLET;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    obs::log_debug("connection accepted", {obs::field("fd", fd)});
    conns_.emplace(conn->id, std::move(conn));
  }
}

void Server::read_ready(Conn& c) {
  if (!c.reading) return;
  char chunk[16384];
  for (;;) {
    const ssize_t n = ::read(c.fd, chunk, sizeof chunk);
    if (n > 0) {
      c.inbuf.append(chunk, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof chunk) break;  // drained
      continue;
    }
    if (n == 0) {
      c.peer_closed = true;  // serve what arrived, close once flushed
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    c.peer_closed = true;
    break;
  }
  dispatch_lines(c);
  maybe_finish_conn(c);
}

void Server::dispatch_lines(Conn& c) {
  // Scan with a cursor and drop the consumed prefix once per read, so a
  // pipelined burst of n lines costs O(n), not O(n^2) buffer shifting.
  std::size_t start = 0;
  std::size_t nl;
  while ((nl = c.inbuf.find('\n', start)) != std::string::npos) {
    std::string line = c.inbuf.substr(start, nl - start);
    start = nl + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;

    Dispatch d;
    d.conn_id = c.id;
    d.seq = c.next_seq++;
    d.parsed = service_.parse_and_route(line);
    d.enqueued_ns = now_ns();
    ++c.inflight;

    Lane& lane = *lanes_[d.parsed.shard];
    const std::string id_json =
        d.parsed.req ? d.parsed.req->id_json : std::string("null");
    if (!lane.ring.try_push(std::move(d))) {
      // try_push leaves `d` intact on failure, but we only need its seq:
      // the ring is this path's admission queue, so a full ring is the same
      // explicit backpressure as a full service queue.
      lane.drops.fetch_add(1, std::memory_order_relaxed);
      Reply r;
      r.flat = serialize_error(id_json, ErrorKind::Overloaded,
                               "dispatch ring full; retry later");
      r.flat += '\n';
      on_reply(c, c.next_seq - 1, std::move(r));
      continue;
    }
    lane.dispatched.fetch_add(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (lane.parked.load(std::memory_order_relaxed)) wake_lane(lane);
  }
  c.inbuf.erase(0, start);
}

void Server::drain_completions() {
  Completion comp;
  while (completions_->try_pop(comp)) {
    const auto it = conns_.find(comp.conn_id);
    if (it == conns_.end()) continue;  // connection died while we worked
    Conn& c = *it->second;
    on_reply(c, comp.seq, std::move(comp.reply));
    maybe_finish_conn(c);
  }
}

// Sequences one finished reply into the connection's ordered output and
// flushes opportunistically.
void Server::on_reply(Conn& c, std::uint64_t seq, Reply r) {
  --c.inflight;
  if (r.body == nullptr && (r.flat.empty() || r.flat.back() != '\n'))
    r.flat += '\n';
  c.pending.emplace(seq, std::move(r));
  while (!c.pending.empty() && c.pending.begin()->first == c.next_write) {
    c.outq.push_back(std::move(c.pending.begin()->second));
    c.pending.erase(c.pending.begin());
    ++c.next_write;
  }
  if (!flush_conn(c)) close_conn(c);
}

// Gathers as many queued replies as fit into one writev, straight from the
// shared response segments.  Returns false if the connection broke.
bool Server::flush_conn(Conn& c) {
  if (c.fd < 0) return false;
  while (!c.outq.empty()) {
    iovec iov[64];
    std::size_t iovs = 0;
    std::size_t skip = c.front_off;
    for (const Reply& r : c.outq) {
      std::array<std::string_view, kMaxSegments> segs;
      const std::size_t nseg = reply_segments(r, segs);
      for (std::size_t s = 0; s < nseg && iovs < 64; ++s) {
        std::string_view seg = segs[s];
        if (skip >= seg.size()) {
          skip -= seg.size();
          continue;
        }
        seg.remove_prefix(skip);
        skip = 0;
        iov[iovs].iov_base = const_cast<char*>(seg.data());
        iov[iovs].iov_len = seg.size();
        ++iovs;
      }
      if (iovs >= 64) break;
    }
    if (iovs == 0) return true;
    const ssize_t w = ::writev(c.fd, iov, static_cast<int>(iovs));
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!c.want_write) {
          epoll_event ev{};
          ev.events = EPOLLIN | EPOLLOUT | EPOLLET;
          ev.data.u64 = c.id;
          ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
          c.want_write = true;
        }
        return true;
      }
      obs::Logger::global().warn_rate_limited(
          "conn_write", "dropping connection: response write failed",
          {obs::field("fd", c.fd), obs::field("errno", std::strerror(errno))});
      return false;
    }
    // Advance the cursor across fully-written replies.
    std::size_t advanced = static_cast<std::size_t>(w) + c.front_off;
    while (!c.outq.empty()) {
      const std::size_t sz = reply_wire_size(c.outq.front());
      if (advanced < sz) break;
      advanced -= sz;
      c.outq.pop_front();
    }
    c.front_off = advanced;
  }
  if (c.want_write) {
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLET;
    ev.data.u64 = c.id;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
    c.want_write = false;
  }
  return true;
}

void Server::close_conn(Conn& c) {
  if (c.fd < 0) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c.fd, nullptr);
  ::close(c.fd);
  c.fd = -1;
  dead_conns_.push_back(c.id);
}

// Closes the connection once there is nothing left to do on it: no reply in
// flight, everything flushed, and either the drain or the peer ended it.
void Server::maybe_finish_conn(Conn& c) {
  if (c.fd < 0) return;
  const bool quiesced = c.inflight == 0 && c.outq.empty() && c.pending.empty();
  if (quiesced && (stopping_.load(std::memory_order_acquire) || c.peer_closed))
    close_conn(c);
}

void Server::append_transport_metrics(std::string& out) const {
  obs::prom::begin_gauge_family(out, "server.shard_queue_depth",
                                "Lines waiting in each shard's dispatch ring");
  for (std::size_t i = 0; i < lanes_.size(); ++i)
    obs::prom::append_gauge_sample(
        out, "server.shard_queue_depth", "shard", std::to_string(i),
        static_cast<double>(lanes_[i]->ring.size_approx()));
  obs::prom::begin_counter_family(
      out, "server.shard_ring_drops",
      "Lines answered `overloaded` because the dispatch ring was full");
  for (std::size_t i = 0; i < lanes_.size(); ++i)
    obs::prom::append_counter_sample(
        out, "server.shard_ring_drops", "shard", std::to_string(i),
        lanes_[i]->drops.load(std::memory_order_relaxed));
  obs::prom::begin_counter_family(out, "server.shard_dispatched",
                                  "Lines routed to each shard's ring");
  for (std::size_t i = 0; i < lanes_.size(); ++i)
    obs::prom::append_counter_sample(
        out, "server.shard_dispatched", "shard", std::to_string(i),
        lanes_[i]->dispatched.load(std::memory_order_relaxed));
}

}  // namespace ilp::server

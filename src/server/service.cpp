#include "server/service.hpp"

#include <cinttypes>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <type_traits>
#include <vector>

#include "engine/trace.hpp"
#include "harness/cache_key.hpp"
#include "harness/experiment.hpp"
#include "obs/context.hpp"
#include "obs/log.hpp"
#include "obs/prometheus.hpp"
#include "sim/simulator.hpp"
#include "support/strings.hpp"
#include "tune/tune.hpp"
#include "workloads/suite.hpp"

namespace ilp::server {

namespace {
using Clock = std::chrono::steady_clock;
}  // namespace

// What one memoised computation settles to, and what its joiners receive: a
// cell (resp), a baseline (resp.cycles) or a whole search (tune_json).
// Errors are values, never exceptions, so cleanup and accounting stay on one
// code path.
struct Service::Outcome {
  bool ok = false;
  ErrorKind err = ErrorKind::Internal;
  std::string message;
  CompileResponse resp;
  std::string tune_json;  // "tune-result-v1" object of a search
  bool stopped_early = false;

  static Outcome failure(ErrorKind kind, std::string message) {
    Outcome out;
    out.err = kind;
    out.message = std::move(message);
    return out;
  }
};

struct Service::Flight {
  std::shared_future<Outcome> future;
};

struct Service::Memoized {
  Outcome out;
  Via via = Via::Computed;
};

// A work request's claim on the service: the cells it reserves, whether it
// also takes a search slot, and its deadline.  The deadline counts from when
// the line was read, so the dispatch-ring wait is part of it.
struct Service::Ticket {
  std::int64_t deadline_ms = 0;  // 0: none
  std::uint64_t queued_ns = 0;
  Clock::time_point end;  // when the deadline fires
  std::size_t cells = 1;
  bool search = false;

  // Clients may ask for any non-negative deadline; one beyond ten years is
  // capped so the time-point arithmetic cannot overflow.
  Ticket(std::int64_t ms, std::uint64_t queued, Clock::time_point dequeued)
      : deadline_ms(ms),
        queued_ns(queued),
        end(dequeued - std::chrono::nanoseconds(queued) +
            std::chrono::milliseconds(std::min<std::int64_t>(ms, 315'360'000'000))) {}

  // The ring wait alone used up the deadline.
  [[nodiscard]] bool spent_queued() const {
    return deadline_ms > 0 &&
           static_cast<std::int64_t>(queued_ns / 1'000'000) >= deadline_ms;
  }
  [[nodiscard]] bool expired() const {
    return deadline_ms > 0 && Clock::now() >= end;
  }
  // Waits for `f` until the deadline; false when the deadline fired first.
  template <typename Future>
  [[nodiscard]] bool wait(const Future& f) const {
    return deadline_ms <= 0 || f.wait_until(end) != std::future_status::timeout;
  }
  [[nodiscard]] Outcome exceeded() const {
    return Outcome::failure(ErrorKind::DeadlineExceeded,
                            strformat("deadline of %lld ms exceeded",
                                      static_cast<long long>(deadline_ms)));
  }
};

// Per-request observability state, alive for the whole request: autotune's
// candidate jobs re-install its context on pool workers (through
// obs::current_request()) while the search runs.  The trace recorder lives
// here.
struct Service::RequestObs {
  std::string id;
  engine::Stopwatch wall;  // started when the request id is minted
  std::shared_ptr<engine::TraceRecorder> recorder;  // null unless traced
  obs::RequestContext ctx;

  explicit RequestObs(std::string rid, bool traced) : id(std::move(rid)) {
    if (traced) {
      recorder = std::make_shared<engine::TraceRecorder>();
      recorder->enable();
    }
    ctx.request_id = id;
    ctx.sink = recorder.get();
  }
};

namespace {

std::optional<ErrorKind> parse_error_kind(std::string_view name) {
  for (const ErrorKind k :
       {ErrorKind::BadRequest, ErrorKind::Overloaded, ErrorKind::ShuttingDown,
        ErrorKind::DeadlineExceeded, ErrorKind::CompileError, ErrorKind::SimError,
        ErrorKind::Internal})
    if (name == error_kind_name(k)) return k;
  return std::nullopt;
}

Workload adhoc_workload(const std::string& source) {
  Workload w;
  w.name = "adhoc";
  w.source = source;
  return w;
}

// Cache payload schema for one served cell.  Versioned like the study cells:
// an unknown prefix (including pre-observability "ilpd-v1"/"ilpd-v2" entries,
// "ilpd-v3" ones, which lack the nest-restructuring counters, and "ilpd-v4"
// ones, which lack the stall-accounting tail) decodes as a miss, never as
// garbage.  An ok payload is "ilpd-v5 ok" and the decimal fields below, then
// the ProfileSummary's six per-cause slot totals and its occupancy
// histogram (count-prefixed).
template <typename Response, typename Sched>
auto cell_fields(Response& r, Sched& sched) {
  auto& t = r.transforms;
  auto& m = t.modulo;
  return std::tie(r.cycles, r.base_cycles, r.dynamic_instructions, r.stall_cycles,
                  r.static_instructions, r.blocks, r.int_regs, r.fp_regs,
                  t.loops_unrolled, t.regs_renamed, t.accs_expanded, t.inds_expanded,
                  t.searches_expanded, t.ops_combined, t.strength_reduced,
                  t.trees_rebalanced, t.loops_interchanged, t.loops_fused,
                  t.loops_fissioned, t.loops_tiled, t.ir_insts_before, t.ir_insts_after,
                  sched, m.loops_pipelined, m.loops_fallback, m.backtracks, m.min_ii_sum,
                  m.achieved_ii_sum, m.max_stages, r.profile.width, r.profile.cycles);
}

std::string encode_cell(const Service::Outcome& c) {
  if (!c.ok)
    return strformat("ilpd-v5 err %s %s", error_kind_name(c.err), c.message.c_str());
  std::string s = "ilpd-v5 ok";
  auto put = [&s](auto v) {
    s += ' ';
    s += std::to_string(v);
  };
  const int sched = static_cast<int>(c.resp.scheduler);
  std::apply([&](const auto&... v) { (put(v), ...); }, cell_fields(c.resp, sched));
  const ProfileSummary& p = c.resp.profile;
  for (const std::uint64_t v : p.slots) put(v);
  put(p.occupancy.size());
  for (const std::uint64_t v : p.occupancy) put(v);
  return s;
}

bool decode_cell(const std::string& payload, Service::Outcome& out) {
  if (payload.rfind("ilpd-v5 err ", 0) == 0) {
    const std::string rest = payload.substr(12);
    const std::size_t sp = rest.find(' ');
    if (sp == std::string::npos) return false;
    const auto kind = parse_error_kind(rest.substr(0, sp));
    if (!kind) return false;
    out = Service::Outcome::failure(*kind, rest.substr(sp + 1));
    return true;
  }
  constexpr std::string_view kOk = "ilpd-v5 ok ";
  if (payload.rfind(kOk, 0) != 0) return false;
  const char* q = payload.c_str() + kOk.size();
  auto get = [&q](auto& v) {
    using T = std::remove_reference_t<decltype(v)>;
    char* end = nullptr;
    if constexpr (std::is_signed_v<T>)
      v = static_cast<T>(std::strtoll(q, &end, 10));
    else
      v = static_cast<T>(std::strtoull(q, &end, 10));
    if (end == q) return false;
    q = end;
    return true;
  };
  Service::Outcome c;
  CompileResponse& r = c.resp;
  ProfileSummary& p = r.profile;
  int sched = 0;
  std::uint64_t occ_count = 0;
  if (!std::apply([&](auto&... v) { return (get(v) && ...); }, cell_fields(r, sched)))
    return false;
  for (std::uint64_t& v : p.slots)
    if (!get(v)) return false;
  // Occupancy is width + 1 bins by construction; a tail claiming more is a
  // corrupt payload, not a larger machine.
  if (!get(occ_count) || occ_count != static_cast<std::uint64_t>(p.width) + 1 ||
      occ_count > payload.size())
    return false;
  p.occupancy.resize(occ_count);
  for (std::uint64_t& v : p.occupancy)
    if (!get(v)) return false;
  r.scheduler = sched == 1 ? SchedulerKind::Modulo : SchedulerKind::List;
  c.ok = true;
  r.have_transforms = true;
  r.speedup = r.cycles == 0 ? 0.0
                            : static_cast<double>(r.base_cycles) /
                                  static_cast<double>(r.cycles);
  out = std::move(c);
  return true;
}

// A deadline-hit cell (its deadline fired inside debug_sleep_ms) was never
// computed, so it is never stored.
constexpr engine::Codec<Service::Outcome> kCellCodec{
    encode_cell, decode_cell,
    [](const Service::Outcome& c) {
      return !c.ok && c.err == ErrorKind::DeadlineExceeded;
    }};

// The baseline payload is the bare cycle count.
constexpr engine::Codec<Service::Outcome> kBaseCodec{
    [](const Service::Outcome& b) { return strformat("%" PRIu64, b.resp.cycles); },
    [](const std::string& payload, Service::Outcome& out) {
      out.ok = std::sscanf(payload.c_str(), "%" SCNu64, &out.resp.cycles) == 1;
      return out.ok;
    },
    [](const Service::Outcome& b) { return !b.ok; }};

// Whole autotune results: the "tune-result-v1" JSON object behind a prefix,
// replayed verbatim on a hit.  Only complete searches are stored: a
// deadline-truncated one must not shadow the full answer for the next
// identical request.
constexpr std::string_view kTunePayloadPrefix = "ilpd-tune-v1 ";
constexpr engine::Codec<Service::Outcome> kSearchCodec{
    [](const Service::Outcome& s) { return std::string(kTunePayloadPrefix) + s.tune_json; },
    [](const std::string& payload, Service::Outcome& out) {
      out.ok = payload.rfind(kTunePayloadPrefix, 0) == 0;
      if (out.ok) out.tune_json = payload.substr(kTunePayloadPrefix.size());
      return out.ok;
    },
    [](const Service::Outcome& s) { return !s.ok || s.stopped_early; }};

// Content hash of one compile cell; every verb's cells key through here.
std::uint64_t cell_key(const std::string& source, const CompileRequest& c) {
  return service_cell_key(source, c.level, c.transforms, c.nest, c.scheduler,
                          c.issue, c.unroll, c.debug_sleep_ms);
}

Reply flat_reply(std::string line) {
  Reply r;
  r.flat = std::move(line);
  return r;
}

// Converts a service cell into the tuner's measurement, enforcing the
// conservation identity on the cached ProfileSummary — a result whose slot
// accounting does not close must never rank, let alone win.
tune::Evaluator::Measurement to_measurement(const Service::Outcome& cell,
                                            bool cache_hit) {
  tune::Evaluator::Measurement m;
  m.cache_hit = cache_hit;
  if (!cell.ok) {
    m.error = cell.message;
    return m;
  }
  const ProfileSummary& p = cell.resp.profile;
  std::uint64_t total = 0;
  for (const std::uint64_t v : p.slots) total += v;
  if (total != static_cast<std::uint64_t>(p.width) * p.cycles) {
    m.error = "profile summary conservation violated";
    return m;
  }
  m.ok = true;
  m.cycles = cell.resp.cycles;
  m.mem_wait =
      total == 0
          ? 0.0
          : static_cast<double>(p.slots[static_cast<std::size_t>(StallCause::MemWait)]) /
                static_cast<double>(total);
  return m;
}

// Reserves `n` of `limit` on `used`, or fails without blocking.
bool reserve(std::atomic<std::size_t>& used, std::size_t n, std::size_t limit) {
  std::size_t cur = used.load(std::memory_order_relaxed);
  while (cur + n <= limit)
    if (used.compare_exchange_weak(cur, cur + n, std::memory_order_acq_rel,
                                   std::memory_order_relaxed))
      return true;
  return false;
}

}  // namespace

template <typename Compute>
Service::Memoized Service::memo(std::uint64_t key, const engine::Codec<Outcome>& codec,
                                const Ticket* ticket, Compute&& compute) {
  Shard& sh = shard_for(key);
  if (auto hit = engine::memo_lookup(*sh.cache, key, codec))
    return {std::move(*hit), Via::Hit};

  std::shared_ptr<Flight> flight;
  std::promise<Outcome> settle;
  std::optional<Outcome> refusal;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    if (auto it = sh.inflight.find(key); it != sh.inflight.end()) {
      flight = it->second;
    } else if (ticket == nullptr || !(refusal = admit(*ticket))) {
      flight = std::make_shared<Flight>(Flight{settle.get_future().share()});
      sh.inflight.emplace(key, flight);
      owner = true;
    }
  }
  if (refusal) return {std::move(*refusal), Via::Refused};
  if (!owner) {
    if (ticket != nullptr && !ticket->wait(flight->future))
      return {ticket->exceeded(), Via::Joined};
    return {flight->future.get(), Via::Joined};
  }

  Memoized m;
  // Look again now that the key is registered: a twin can finish (store,
  // then erase, in that order) between the miss above and the registration,
  // and the registration lock orders this lookup after its store — so each
  // key computes exactly once.
  if (auto hit = engine::memo_lookup(*sh.cache, key, codec)) {
    m = {std::move(*hit), Via::Hit};
  } else {
    try {
      m.out = compute();
    } catch (const std::exception& e) {
      m.out = Outcome::failure(ErrorKind::Internal,
                               strformat("computation threw: %s", e.what()));
    }
    engine::memo_store(*sh.cache, key, codec, m.out);
  }
  settle.set_value(m.out);
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    sh.inflight.erase(key);
  }
  if (ticket != nullptr) release(*ticket);
  return m;
}

// Conv @ issue-1 cycles of `source` — the paper's speedup baseline, shared
// by every level and width of the source.  0 when the source does not
// compile or simulate.
std::uint64_t Service::base_cycles_for(const std::string& source) {
  auto compute = [&source] {
    Outcome out;
    out.ok = true;
    const MachineModel m = MachineModel::issue(1);
    auto compiled = try_compile_workload(adhoc_workload(source), OptLevel::Conv, m);
    if (compiled) {
      auto sim = try_simulate_cycles(compiled->fn, m);
      if (sim) out.resp.cycles = *sim;
    }
    return out;
  };
  const Outcome base = memo(service_base_key(source), kBaseCodec, nullptr, compute).out;
  // Only a throw fails it; the cell that asked fails with it.
  if (!base.ok) throw std::runtime_error(base.message);
  return base.resp.cycles;
}

// Compile + simulate one cell (no cache, no accounting — callers own both).
// Phase wall times land in the server.phase.* histograms; the transformation
// counters land in the response.
Service::Outcome Service::compute_cell(const std::string& source,
                                       const CompileRequest& c) {
  static obs::Histogram& compile_hist =
      engine::MetricsRegistry::global().histogram("server.phase.compile");
  static obs::Histogram& schedule_hist =
      engine::MetricsRegistry::global().histogram("server.phase.schedule");
  static obs::Histogram& simulate_hist =
      engine::MetricsRegistry::global().histogram("server.phase.simulate");

  Outcome out;
  const MachineModel m = MachineModel::issue(c.issue);
  CompileOptions opts;
  opts.unroll.max_factor = c.unroll;
  opts.nest = c.nest;
  opts.scheduler = c.scheduler;

  TransformStats tstats;
  engine::Stopwatch compile_watch;
  auto compiled = try_compile_workload(adhoc_workload(source), c.level, m, opts, &tstats,
                                       c.transforms);
  if (!compiled) {
    out.err = ErrorKind::CompileError;
    out.message = compiled.error_message();
    return out;
  }
  compile_hist.record(compile_watch.nanos());
  schedule_hist.record(tstats.schedule_ns);

  const Function& fn = compiled->fn;
  const RegUsage regs = compiled->regs;
  engine::Stopwatch sim_watch;
  // Every executed cell is profiled: the daemon-lifetime accumulators behind
  // the `profile` verb and the sim_stall_slots_total exposition sum over all
  // cells, and {"profile": true} responses serialize the summary straight
  // out of the cache entry.  A profiled run is observably identical to an
  // unprofiled one (SimOptions::profile contract), so the cell key does not
  // include the flag and coalescing/caching work across it.
  CycleProfile profile;
  std::vector<IssueEvent> issue_events;
  SimOptions sim_opts;
  sim_opts.profile = &profile;
  const obs::RequestContext* rc = obs::current_request();
  const bool lanes = rc != nullptr && rc->sink != nullptr;
  if (lanes) sim_opts.trace = &issue_events;
  const RunOutcome run = [&] {
    obs::SpanScope span("simulate", "sim");
    return run_seeded(fn, m, sim_opts);
  }();
  simulate_hist.record(sim_watch.nanos());
  if (!run.result.ok) {
    out.err = ErrorKind::SimError;
    out.message = run.result.error;
    return out;
  }
  accumulate_profile(profile);
  if (lanes && !issue_events.empty()) {
    // Per-request Chrome trace: render the (trace_limit-bounded) issue window
    // as one lane per slot.  Slot index is the event's position within its
    // cycle — the trace records issues in order, so a cycle's events arrive
    // consecutively.
    std::unordered_map<std::uint32_t, Opcode> op_of;
    for (const Block& b : fn.blocks())
      for (const Instruction& in : b.insts) op_of.emplace(in.uid, in.op);
    std::uint64_t cur_cycle = ~std::uint64_t{0};
    int slot = 0;
    for (const IssueEvent& e : issue_events) {
      if (e.cycle != cur_cycle) {
        cur_cycle = e.cycle;
        slot = 0;
      }
      const auto it = op_of.find(e.uid);
      rc->sink->record_issue_slot(
          it != op_of.end() ? opcode_name(it->second) : "?", e.cycle, slot++,
          rc->request_id);
    }
  }

  out.ok = true;
  CompileResponse& r = out.resp;
  r.profile = ProfileSummary::from(profile);
  r.cycles = run.result.cycles;
  r.dynamic_instructions = run.result.instructions;
  r.stall_cycles = run.result.stall_cycles;
  r.static_instructions = static_cast<int>(fn.num_insts());
  r.blocks = static_cast<int>(fn.num_blocks());
  r.int_regs = regs.int_regs;
  r.fp_regs = regs.fp_regs;
  r.have_transforms = true;
  r.transforms = tstats;
  r.scheduler = c.scheduler;
  r.base_cycles = base_cycles_for(source);
  r.speedup = r.cycles == 0 ? 0.0
                            : static_cast<double>(r.base_cycles) /
                                  static_cast<double>(r.cycles);
  return out;
}


Service::Service(ServiceConfig cfg)
    : cfg_(std::move(cfg)),
      latency_hist_(
          engine::MetricsRegistry::global().histogram("server.request_latency")),
      queue_wait_hist_(
          engine::MetricsRegistry::global().histogram("server.queue_wait")) {
  workers_ = cfg_.workers;
  if (workers_ <= 0) workers_ = static_cast<int>(std::thread::hardware_concurrency());
  if (workers_ < 1) workers_ = 1;
  capacity_ = static_cast<std::size_t>(workers_) + cfg_.queue_limit;
  shards_.reserve(static_cast<std::size_t>(workers_));
  for (int i = 0; i < workers_; ++i) {
    auto sh = std::make_unique<Shard>();
    // Shards partition the memory tier; the disk tier is one directory
    // shared by all of them (keys are globally unique, so partitions never
    // collide on a file, and a restart with a different worker count still
    // finds every entry).
    sh->cache = std::make_unique<engine::ResultCache>(cfg_.cache_dir);
    shards_.push_back(std::move(sh));
  }
  pool_ = std::make_unique<engine::ThreadPool>(static_cast<unsigned>(workers_));
  // Materialize the tune-phase histograms at boot so the exposition carries
  // them before the first autotune request (scrapes can --require-hist them).
  engine::MetricsRegistry::global().histogram("tune.phase.search");
  engine::MetricsRegistry::global().histogram("tune.phase.simulate");
  obs::log_info("service started",
                {obs::field("workers", workers_), obs::field("capacity", capacity_),
                 obs::field("shards", static_cast<int>(shards_.size())),
                 obs::field("cache_dir", cfg_.cache_dir),
                 obs::field("trace_dir", cfg_.trace_dir)});
}

Service::~Service() {
  // Jobs capture `this`; drain them while every member is still alive.
  pool_->shutdown();
}

std::size_t Service::shard_index(std::uint64_t key) const {
  // Fibonacci-mix the digest so structured keys still spread evenly.
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) %
         shards_.size();
}

void Service::begin_drain() {
  if (!draining_.exchange(true, std::memory_order_acq_rel))
    obs::log_info("drain started",
                  {obs::field("inflight_cells", inflight_cells())});
}

bool Service::draining() const { return draining_.load(std::memory_order_acquire); }

void Service::wait_drained() {
  std::unique_lock<std::mutex> lock(drain_mu_);
  drained_cv_.wait(lock, [this] {
    return inflight_cells_.load(std::memory_order_acquire) == 0;
  });
}

ServiceCounters Service::counters() const {
  auto get = [this](Counter c) {
    return counters_[c].load(std::memory_order_relaxed);
  };
  ServiceCounters c;
  c.received = get(kReceived);
  c.ok = get(kOk);
  c.bad_request = get(kBadRequest);
  c.overloaded = get(kOverloaded);
  c.shutting_down = get(kShuttingDown);
  c.deadline_exceeded = get(kDeadlineExceeded);
  c.compile_errors = get(kCompileErrors);
  c.internal_errors = get(kInternalErrors);
  c.coalesced = get(kCoalesced);
  c.cells_executed = get(kCellsExecuted);
  c.hot_hits = get(kHotHits);
  c.tune_requests = get(kTuneRequests);
  c.tune_cached = get(kTuneCached);
  c.tune_coalesced = get(kTuneCoalesced);
  c.tune_stopped_early = get(kTuneStoppedEarly);
  c.tune_candidates_simulated =
      tune_cand_simulated_.load(std::memory_order_relaxed);
  c.tune_candidates_pruned = tune_cand_pruned_.load(std::memory_order_relaxed);
  c.tune_candidate_cache_hits =
      tune_cand_cache_hits_.load(std::memory_order_relaxed);
  return c;
}

engine::CacheStats Service::cache_stats() const {
  engine::CacheStats total;
  for (const auto& sh : shards_) {
    const engine::CacheStats s = sh->cache->stats();
    total.hits += s.hits;
    total.disk_hits += s.disk_hits;
    total.misses += s.misses;
    total.invalid += s.invalid;
    total.stores += s.stores;
  }
  return total;
}

std::optional<Service::Outcome> Service::admit(const Ticket& t) {
  if (t.spent_queued()) return t.exceeded();
  if (t.search && !reserve(tune_jobs_, 1, cfg_.tune_job_limit)) {
    obs::Logger::global().warn_rate_limited(
        "overloaded", "autotune rejected: job limit reached",
        {obs::field("limit", cfg_.tune_job_limit)});
    return Outcome::failure(ErrorKind::Overloaded,
                            strformat("autotune job limit reached (%zu searches in flight)",
                                      cfg_.tune_job_limit));
  }
  if (!reserve(inflight_cells_, t.cells, capacity_)) {
    if (t.search) tune_jobs_.fetch_sub(1, std::memory_order_relaxed);
    obs::Logger::global().warn_rate_limited(
        "overloaded", "request rejected: admission queue full",
        {obs::field("cells", t.cells), obs::field("capacity", capacity_)});
    return Outcome::failure(
        ErrorKind::Overloaded,
        strformat("admission queue full (%zu in flight + %zu requested > capacity %zu)",
                  inflight_cells(), t.cells, capacity_));
  }
  return std::nullopt;
}

void Service::release(const Ticket& t) {
  if (t.search) tune_jobs_.fetch_sub(1, std::memory_order_relaxed);
  if (inflight_cells_.fetch_sub(t.cells, std::memory_order_acq_rel) == t.cells) {
    // Notify under the drain lock so a waiter between its predicate check
    // and its sleep cannot miss the wakeup.
    std::lock_guard<std::mutex> lock(drain_mu_);
    drained_cv_.notify_all();
  }
}

Service::Counter Service::error_counter(ErrorKind kind) {
  switch (kind) {
    case ErrorKind::BadRequest: return kBadRequest;
    case ErrorKind::Overloaded: return kOverloaded;
    case ErrorKind::ShuttingDown: return kShuttingDown;
    case ErrorKind::DeadlineExceeded: return kDeadlineExceeded;
    case ErrorKind::CompileError:
    case ErrorKind::SimError: return kCompileErrors;
    case ErrorKind::Internal: break;
  }
  return kInternalErrors;
}

std::string Service::refuse(const std::string& id_json, const Outcome& out) {
  bump(error_counter(out.err));
  obs::log_debug("request failed", {obs::field("kind", error_kind_name(out.err)),
                                    obs::field("message", out.message)});
  return serialize_error(id_json, out.err, out.message);
}

std::string Service::write_request_trace(const RequestObs& ro) const {
  if (ro.recorder == nullptr) return {};
  // The request span is recorded explicitly (rather than via SpanScope) so
  // it lands before the file is written.
  ro.recorder->record_span("request", "server", 0, ro.recorder->now_us(), ro.id);
  const std::string path =
      (std::filesystem::path(cfg_.trace_dir) / ("req-" + ro.id + ".json")).string();
  std::error_code ec;
  std::filesystem::create_directories(cfg_.trace_dir, ec);
  if (!ro.recorder->write_chrome_trace(path)) {
    obs::log_warn("failed to write request trace", {obs::field("path", path)});
    return {};
  }
  obs::log_info("request trace written",
                {obs::field("path", path),
                 obs::field("spans", ro.recorder->event_count())});
  return path;
}

Service::ParsedRequest Service::parse_and_route(const std::string& line) const {
  ParsedRequest p;
  std::string error;
  p.req = parse_request(line, &error);
  if (!p.req) {
    p.parse_error = std::move(error);
    return p;
  }
  if (p.req->kind != RequestKind::Compile) return p;
  const CompileRequest& c = p.req->compile;
  if (!c.workload.empty()) {
    const Workload* w = find_workload(c.workload);
    if (w == nullptr) return p;  // source stays empty: bad_request downstream
    p.source = w->source;
  } else {
    p.source = c.source;
  }
  p.cell_key = cell_key(p.source, c);
  p.shard = shard_index(p.cell_key);
  return p;
}

Reply Service::serve(const std::string& line, std::uint64_t queued_ns) {
  return serve_parsed(parse_and_route(line), queued_ns);
}

Reply Service::serve_parsed(ParsedRequest p, std::uint64_t queued_ns) {
  bump(kReceived);
  if (!p.req) {
    bump(kBadRequest);
    obs::Logger::global().warn_rate_limited(
        "bad_request", "request rejected: malformed line",
        {obs::field("error", p.parse_error)});
    return flat_reply(serialize_error("null", ErrorKind::BadRequest, p.parse_error));
  }
  const Request& req = *p.req;
  switch (req.kind) {
    case RequestKind::Stats: {
      bump(kOk);
      return flat_reply(serialize_stats_response(req.id_json, stats_json()));
    }
    case RequestKind::Metrics: {
      bump(kOk);
      return flat_reply(serialize_metrics_response(req.id_json, metrics_exposition()));
    }
    case RequestKind::Profile: {
      // Like stats: answers during a drain so accounting stays observable.
      bump(kOk);
      return flat_reply(serialize_profile_response(req.id_json, profile_json()));
    }
    case RequestKind::Compile:
    case RequestKind::Batch:
    case RequestKind::Autotune: {
      if (draining())
        return flat_reply(refuse(
            req.id_json, Outcome::failure(ErrorKind::ShuttingDown,
                                          "drain in progress; no new work accepted")));
      const bool wants_trace =
          (req.kind == RequestKind::Compile && req.compile.trace) ||
          (req.kind == RequestKind::Autotune && req.autotune.trace);
      const bool traced = wants_trace && !cfg_.trace_dir.empty();
      RequestObs ro(
          strformat("r-%" PRIu64,
                    request_seq_.fetch_add(1, std::memory_order_relaxed) + 1),
          traced);
      if (wants_trace && !traced)
        obs::Logger::global().warn_rate_limited(
            "trace_untraceable", "trace requested but no --trace-dir configured");
      const std::int64_t asked =
          req.kind == RequestKind::Compile ? req.compile.deadline_ms
          : req.kind == RequestKind::Batch ? req.batch.deadline_ms
                                           : req.autotune.deadline_ms;
      Ticket ticket(asked > 0 ? asked : cfg_.default_deadline_ms, queued_ns,
                    ro.wall.start());
      ticket.search = req.kind == RequestKind::Autotune;
      obs::RequestScope scope(&ro.ctx);
      obs::log_debug(req.kind == RequestKind::Compile  ? "compile request"
                     : req.kind == RequestKind::Batch ? "batch request"
                                                      : "autotune request");
      Reply r = req.kind == RequestKind::Compile
                    ? handle_compile(p, ro, ticket)
                : req.kind == RequestKind::Autotune
                    ? flat_reply(handle_autotune(req, ro, ticket))
                    : flat_reply(handle_batch(req, ticket));
      latency_hist_.record(ro.wall.nanos());
      return r;
    }
  }
  return flat_reply(refuse(req.id_json, Outcome::failure(ErrorKind::Internal,
                                                         "unhandled request kind")));
}

Service::Memoized Service::cell(std::uint64_t key, const std::string& source,
                                const CompileRequest& c, const Ticket* ticket) {
  return memo(key, kCellCodec, ticket, [&] {
    // debug_sleep stands in for long compute and honors the deadline.
    const auto sleep_end = Clock::now() + std::chrono::milliseconds(c.debug_sleep_ms);
    while (Clock::now() < sleep_end) {
      if (ticket != nullptr && ticket->expired()) return ticket->exceeded();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    bump(kCellsExecuted);
    return compute_cell(source, c);
  });
}

Reply Service::handle_compile(const ParsedRequest& p, const RequestObs& ro,
                              const Ticket& ticket) {
  const Request& req = *p.req;
  const CompileRequest& c = req.compile;
  auto segment_reply = [&](std::shared_ptr<const CompileBody> body, bool cached) {
    bump(kOk);
    Reply r;
    r.body = std::move(body);
    r.id_json = req.id_json;
    r.cached = cached;
    r.request_id = ro.id;
    return r;
  };

  if (!c.workload.empty() && p.source.empty())
    return flat_reply(refuse(req.id_json,
                             Outcome::failure(ErrorKind::BadRequest,
                                              strformat("unknown workload '%s'",
                                                        c.workload.c_str()))));
  const std::uint64_t key = p.cell_key;
  // Pre-serialized bodies differ between profiled and unprofiled responses
  // (the "profile" field lives in the shared `post` segment), so the hot
  // tier keys the two shapes apart.  The cell key itself — coalescing, the
  // result cache, shard routing — is profile-blind: every executed cell
  // carries its summary and the flag only gates serialization.
  const std::uint64_t hot_key = c.profile ? hot_profile_variant(key) : key;
  Shard& sh = *shards_[p.shard];
  queue_wait_hist_.record(ticket.queued_ns);

  // Hot tier: the response segments for this cell were already built — the
  // reply is three pointer copies, serialized (or writev'd) at write time.
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    auto it = sh.hot.find(hot_key);
    if (it != sh.hot.end()) {
      bump(kHotHits);
      return segment_reply(it->second, /*cached=*/true);
    }
  }

  Memoized m = [&] {
    obs::SpanScope span("job", "engine");
    return cell(key, p.source, c, &ticket);
  }();
  if (m.via == Via::Joined) bump(kCoalesced);
  // Only the request whose cell ran writes a trace; joiners and hits write
  // none.
  const std::string trace_file = m.via == Via::Computed ? write_request_trace(ro) : "";
  if (!m.out.ok) return flat_reply(refuse(req.id_json, m.out));

  CompileResponse& r = m.out.resp;
  r.have_profile = c.profile;
  auto body = std::make_shared<const CompileBody>(serialize_compile_body(r));
  // Promote into the hot tier, bounded: it is cleared wholesale when full.
  if (m.via != Via::Joined && cfg_.hot_entries_per_shard > 0) {
    std::lock_guard<std::mutex> lock(sh.mu);
    if (sh.hot.size() >= cfg_.hot_entries_per_shard) sh.hot.clear();
    sh.hot[hot_key] = body;
  }
  const bool cached = m.via == Via::Hit;
  if (trace_file.empty()) return segment_reply(std::move(body), cached);
  // A traced reply names its trace file, so it is built whole.
  bump(kOk);
  r.request_id = ro.id;
  r.cached = cached;
  r.trace_file = trace_file;
  return flat_reply(serialize_compile_response(req.id_json, r));
}

std::string Service::handle_batch(const Request& req, Ticket ticket) {
  const BatchRequest& b = req.batch;
  engine::Stopwatch elapsed;

  // Resolve the slice up front so a bad name is a bad_request, not a cell.
  std::vector<const Workload*> loops;
  if (b.workloads.empty()) {
    for (const Workload& w : workload_suite()) loops.push_back(&w);
  } else {
    for (const std::string& name : b.workloads) {
      const Workload* w = find_workload(name);
      if (w == nullptr)
        return refuse(req.id_json,
                      Outcome::failure(ErrorKind::BadRequest,
                                       strformat("unknown workload '%s'", name.c_str())));
      loops.push_back(w);
    }
  }
  std::vector<OptLevel> levels(b.levels);
  if (levels.empty()) levels.assign(kLevels.begin(), kLevels.end());
  std::vector<int> widths(b.widths);
  if (widths.empty()) widths.assign(kIssueWidths.begin(), kIssueWidths.end());

  const std::size_t n = loops.size() * levels.size() * widths.size();
  if (n == 0)
    return refuse(req.id_json, Outcome::failure(ErrorKind::BadRequest, "empty batch"));

  // All-or-nothing admission for the whole slice.
  ticket.cells = n;
  if (auto refusal = admit(ticket)) return refuse(req.id_json, *refusal);

  // One job group per batch: the whole slice cancels as a unit when the
  // deadline fires; members already running finish (and land in the cache).
  // Each cell is pinned to the pool worker owning its shard, so a cell's
  // cache partition is written by the thread that owns it.
  engine::JobGroup group(*pool_);
  std::vector<BatchCell> cells(n);
  std::vector<std::future<BatchCell>> futures;
  futures.reserve(n);
  std::size_t idx = 0;
  for (const Workload* w : loops)
    for (const OptLevel level : levels)
      for (const int width : widths) {
        BatchCell& slot = cells[idx++];
        slot.workload = w->name;
        slot.level = level;
        slot.width = width;
        CompileRequest spec;
        spec.level = level;
        spec.issue = width;
        spec.scheduler = b.scheduler;
        const std::uint64_t key = cell_key(w->source, spec);
        engine::Stopwatch queued;
        futures.push_back(group.submit_pinned(
            static_cast<unsigned>(shard_index(key)),
            [this, w, spec, key, slot, queued]() -> BatchCell {
              queue_wait_hist_.record(queued.nanos());
              BatchCell cell_out = slot;
              const Outcome out = cell(key, w->source, spec, nullptr).out;
              if (out.ok) {
                cell_out.cycles = out.resp.cycles;
                cell_out.int_regs = out.resp.int_regs;
                cell_out.fp_regs = out.resp.fp_regs;
              } else {
                cell_out.error = out.message;
              }
              return cell_out;
            }));
      }

  bool cancelled = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (!cancelled && !ticket.wait(futures[i])) {
      group.cancel();  // queued members settle as JobCancelled below
      cancelled = true;
    }
    try {
      cells[i] = futures[i].get();
    } catch (const engine::JobCancelled&) {
      cells[i].error = "cancelled: batch deadline exceeded";
    } catch (const std::exception& e) {
      cells[i].error = strformat("batch cell threw: %s", e.what());
    }
  }
  release(ticket);

  bump(kOk);
  return serialize_batch_response(req.id_json, cells, elapsed.seconds() * 1e3);
}

std::string Service::handle_autotune(const Request& req, const RequestObs& ro,
                                     const Ticket& ticket) {
  bump(kTuneRequests);
  const AutotuneRequest& a = req.autotune;
  std::string source = a.source;
  if (!a.workload.empty()) {
    const Workload* w = find_workload(a.workload);
    if (w == nullptr)
      return refuse(req.id_json, Outcome::failure(ErrorKind::BadRequest,
                                                  strformat("unknown workload '%s'",
                                                            a.workload.c_str())));
    source = w->source;
  }

  // The search runs on this thread; candidate evaluations fan onto the pool
  // through the evaluator.  The deadline and a drain both feed the tuner's
  // cancellation hook, so either stops the search between batches with the
  // best found so far (stopped_early), never a dropped request.
  auto search = [&] {
    tune::TuneOptions topts;
    topts.issue = a.issue;
    topts.beam_width = a.beam;
    topts.max_rounds = a.rounds;
    topts.sim_fraction = a.sim_fraction;
    topts.max_sims = a.max_sims;
    topts.use_cost_model = a.cost_model;
    topts.cancelled = [this, &ticket] { return draining() || ticket.expired(); };

    obs::SpanScope span("autotune", "tune");
    // Candidates measure as compile cells through the shard caches, so a
    // tuned cell and a compiled cell are one cache entry and one execution.
    auto measure = [this](const std::string& src, int issue, const tune::TuneConfig& tc) {
      CompileRequest spec;
      spec.level = tc.level;
      spec.nest = tc.nest;
      spec.scheduler = tc.scheduler;
      spec.issue = issue;
      spec.unroll = tc.unroll;
      const Memoized m = cell(cell_key(src, spec), src, spec, nullptr);
      return to_measurement(m.out, m.via == Via::Hit);
    };
    tune::LocalEvaluator eval(pool_.get(), measure);
    const tune::TuneResult r = tune::autotune(source, topts, eval);
    tune_cand_simulated_.fetch_add(r.simulated, std::memory_order_relaxed);
    tune_cand_pruned_.fetch_add(r.pruned, std::memory_order_relaxed);
    tune_cand_cache_hits_.fetch_add(r.cache_hits, std::memory_order_relaxed);
    if (r.stopped_early) bump(kTuneStoppedEarly);
    if (!r.ok) return Outcome::failure(ErrorKind::CompileError, r.error);
    Outcome out;
    out.ok = true;
    out.tune_json = r.to_json();
    out.stopped_early = r.stopped_early;
    obs::log_info("autotune finished",
                  {obs::field("best", r.best.name()),
                   obs::field("best_cycles", r.best_cycles),
                   obs::field("lev4_cycles", r.lev4_cycles),
                   obs::field("simulated", r.simulated),
                   obs::field("pruned", r.pruned),
                   obs::field("stopped_early", r.stopped_early ? 1 : 0)});
    return out;
  };
  const Memoized m =
      memo(service_search_key(source, a.issue, a.beam, a.rounds, a.max_sims,
                              a.sim_fraction, a.cost_model),
           kSearchCodec, &ticket, search);
  if (m.via == Via::Hit) bump(kTuneCached);
  if (m.via == Via::Joined) bump(kTuneCoalesced);
  const std::string trace_file = m.via == Via::Computed ? write_request_trace(ro) : "";
  if (!m.out.ok) return refuse(req.id_json, m.out);
  bump(kOk);
  return serialize_autotune_response(req.id_json, m.out.tune_json, m.via == Via::Hit,
                                     ro.id, trace_file, ro.wall.seconds() * 1e3);
}

void Service::accumulate_profile(const CycleProfile& p) {
  for (int i = 0; i < kNumStallCauses; ++i)
    stall_slots_[static_cast<std::size_t>(i)].fetch_add(
        p.slots[static_cast<std::size_t>(i)], std::memory_order_relaxed);
  for (std::size_t k = 0; k < p.occupancy.size(); ++k) {
    const std::size_t bin = k < kOccupancyBins ? k : kOccupancyBins - 1;
    occupancy_[bin].fetch_add(p.occupancy[k], std::memory_order_relaxed);
  }
  profiled_cells_.fetch_add(1, std::memory_order_relaxed);
  profiled_cycles_.fetch_add(p.cycles, std::memory_order_relaxed);
}

std::string Service::profile_json() const {
  std::string slots = "{";
  for (int i = 0; i < kNumStallCauses; ++i) {
    if (i > 0) slots += ", ";
    slots += strformat(
        "\"%s\": %" PRIu64, stall_cause_name(static_cast<StallCause>(i)),
        stall_slots_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed));
  }
  slots += "}";
  // Trim trailing zero bins so single-width daemons stay readable; bin 0 is
  // always reported (it is the stall-cycle count).
  std::size_t top = kOccupancyBins;
  while (top > 1 && occupancy_[top - 1].load(std::memory_order_relaxed) == 0)
    --top;
  std::string occ = "[";
  for (std::size_t k = 0; k < top; ++k) {
    if (k > 0) occ += ", ";
    occ += strformat("%" PRIu64, occupancy_[k].load(std::memory_order_relaxed));
  }
  occ += "]";
  return strformat("{\"cells\": %" PRIu64 ", \"cycles\": %" PRIu64
                   ", \"slots\": %s, \"occupancy\": %s}",
                   profiled_cells_.load(std::memory_order_relaxed),
                   profiled_cycles_.load(std::memory_order_relaxed), slots.c_str(),
                   occ.c_str());
}

std::string Service::stats_json() const {
  const ServiceCounters c = counters();
  const engine::CacheStats cs = cache_stats();
  std::size_t cache_entries = 0, cache_bytes = 0, hot_entries = 0;
  for (const auto& sh : shards_) {
    cache_entries += sh->cache->size();
    cache_bytes += sh->cache->memory_bytes();
    std::lock_guard<std::mutex> lock(sh->mu);
    hot_entries += sh->hot.size();
  }
  const obs::Histogram::Snapshot lat = latency_hist_.snapshot();
  const obs::Histogram::Snapshot qw = queue_wait_hist_.snapshot();
  // Per-stage search/simulate wall percentiles: what loadgen's --autotune
  // mode reports as the server-side split of tuning latency.
  const obs::Histogram::Snapshot tsearch =
      engine::MetricsRegistry::global().histogram("tune.phase.search").snapshot();
  const obs::Histogram::Snapshot tsim =
      engine::MetricsRegistry::global().histogram("tune.phase.simulate").snapshot();
  const std::string tune = strformat(
      "\"tune\": {\"requests\": %" PRIu64 ", \"cached\": %" PRIu64
      ", \"coalesced\": %" PRIu64 ", \"stopped_early\": %" PRIu64
      ", \"jobs_inflight\": %zu, "
      "\"candidates\": {\"simulated\": %" PRIu64 ", \"pruned\": %" PRIu64
      ", \"cache_hits\": %" PRIu64 "}, "
      "\"search_us\": {\"count\": %" PRIu64 ", \"p50\": %.1f, \"p90\": %.1f, "
      "\"p99\": %.1f, \"p999\": %.1f, \"mean\": %.1f}, "
      "\"simulate_us\": {\"count\": %" PRIu64 ", \"p50\": %.1f, \"p90\": %.1f, "
      "\"p99\": %.1f, \"p999\": %.1f, \"mean\": %.1f}}",
      c.tune_requests, c.tune_cached, c.tune_coalesced, c.tune_stopped_early,
      tune_jobs_.load(std::memory_order_relaxed), c.tune_candidates_simulated,
      c.tune_candidates_pruned, c.tune_candidate_cache_hits, tsearch.count,
      tsearch.quantile(0.50) / 1e3, tsearch.quantile(0.90) / 1e3,
      tsearch.quantile(0.99) / 1e3, tsearch.quantile(0.999) / 1e3,
      tsearch.mean() / 1e3, tsim.count, tsim.quantile(0.50) / 1e3,
      tsim.quantile(0.90) / 1e3, tsim.quantile(0.99) / 1e3,
      tsim.quantile(0.999) / 1e3, tsim.mean() / 1e3);
  return strformat(
      "{\"uptime_seconds\": %.3f, \"draining\": %s, \"workers\": %d, "
      "\"shards\": %d, "
      "\"capacity\": %zu, \"inflight_cells\": %zu, "
      "\"requests\": {\"received\": %" PRIu64 ", \"ok\": %" PRIu64
      ", \"bad_request\": %" PRIu64 ", \"overloaded\": %" PRIu64
      ", \"shutting_down\": %" PRIu64 ", \"deadline_exceeded\": %" PRIu64
      ", \"compile_errors\": %" PRIu64 ", \"internal\": %" PRIu64
      ", \"coalesced\": %" PRIu64 ", \"hot_hits\": %" PRIu64 "}, "
      "\"cells_executed\": %" PRIu64 ", "
      "\"latency_us\": {\"count\": %" PRIu64 ", \"p50\": %.1f, \"p90\": %.1f, "
      "\"p99\": %.1f, \"p999\": %.1f, \"mean\": %.1f}, "
      "\"queue_wait_us\": {\"count\": %" PRIu64 ", \"p50\": %.1f, \"p90\": %.1f, "
      "\"p99\": %.1f, \"p999\": %.1f, \"mean\": %.1f}, "
      "\"pool\": {\"jobs_executed\": %zu, \"queue_depth\": %zu, "
      "\"active_jobs\": %zu, \"peak_queue_depth\": %zu}, "
      "\"cache\": {\"hits\": %" PRIu64 ", \"disk_hits\": %" PRIu64
      ", \"misses\": %" PRIu64 ", \"invalid\": %" PRIu64 ", \"stores\": %" PRIu64
      ", \"hit_rate\": %.4f, \"memory_entries\": %zu, \"memory_bytes\": %zu, "
      "\"hot_entries\": %zu}, %s}",
      uptime_.seconds(), draining() ? "true" : "false", workers_,
      shard_count(), capacity_, inflight_cells(), c.received, c.ok,
      c.bad_request, c.overloaded, c.shutting_down, c.deadline_exceeded,
      c.compile_errors, c.internal_errors, c.coalesced, c.hot_hits,
      c.cells_executed, lat.count, lat.quantile(0.50) / 1e3,
      lat.quantile(0.90) / 1e3, lat.quantile(0.99) / 1e3,
      lat.quantile(0.999) / 1e3, lat.mean() / 1e3, qw.count,
      qw.quantile(0.50) / 1e3, qw.quantile(0.90) / 1e3, qw.quantile(0.99) / 1e3,
      qw.quantile(0.999) / 1e3, qw.mean() / 1e3, pool_->jobs_executed(),
      pool_->queue_depth(), pool_->active_jobs(), pool_->peak_queue_depth(),
      cs.hits, cs.disk_hits, cs.misses, cs.invalid, cs.stores, cs.hit_rate(),
      cache_entries, cache_bytes, hot_entries, tune.c_str());
}

std::string Service::metrics_exposition() const {
  // The registry covers pass.*, trans.*, study.* and the server.* histograms;
  // the service adds its own counters and point-in-time gauges.
  std::string out = engine::MetricsRegistry::global().to_prometheus();

  const ServiceCounters c = counters();
  obs::prom::append_counter(out, "server.requests_received", c.received,
                            "Request lines received (any verb)");
  obs::prom::append_counter(out, "server.requests_ok", c.ok);
  obs::prom::append_counter(out, "server.requests_bad_request", c.bad_request);
  obs::prom::append_counter(out, "server.requests_overloaded", c.overloaded);
  obs::prom::append_counter(out, "server.requests_shutting_down", c.shutting_down);
  obs::prom::append_counter(out, "server.requests_deadline_exceeded",
                            c.deadline_exceeded);
  obs::prom::append_counter(out, "server.requests_compile_errors", c.compile_errors);
  obs::prom::append_counter(out, "server.requests_internal_errors",
                            c.internal_errors);
  obs::prom::append_counter(out, "server.requests_coalesced", c.coalesced,
                            "Requests that joined an in-flight twin");
  obs::prom::append_counter(out, "server.requests_hot_hits", c.hot_hits,
                            "Replies served from pre-serialized segments");
  obs::prom::append_counter(out, "server.cells_executed", c.cells_executed,
                            "Cells actually computed (not cache hits)");

  obs::prom::append_counter(out, "tune.requests", c.tune_requests,
                            "Autotune searches requested");
  obs::prom::append_counter(out, "tune.results_cached", c.tune_cached,
                            "Whole-search results replayed from the cache");
  obs::prom::append_counter(out, "tune.coalesced", c.tune_coalesced,
                            "Requests that joined an identical in-flight search");
  obs::prom::append_counter(out, "tune.stopped_early", c.tune_stopped_early,
                            "Searches stopped by a deadline or drain");
  obs::prom::append_counter(out, "tune.candidates_simulated",
                            c.tune_candidates_simulated);
  obs::prom::append_counter(out, "tune.candidates_pruned",
                            c.tune_candidates_pruned,
                            "Candidates skipped by the cost model");
  obs::prom::append_counter(out, "tune.candidate_cache_hits",
                            c.tune_candidate_cache_hits,
                            "Candidate measurements served from the cell cache");

  // Cycle-accounting taxonomy (sim/profile.hpp), summed over every executed
  // cell: the six series partition width * cycles exactly.
  obs::prom::begin_counter_family(
      out, "sim.stall_slots_total",
      "Simulated issue slots by attribution cause (closed taxonomy; the "
      "series sum to issue_width * cycles over all executed cells)");
  for (int i = 0; i < kNumStallCauses; ++i)
    obs::prom::append_counter_sample(
        out, "sim.stall_slots_total", "cause",
        stall_cause_name(static_cast<StallCause>(i)),
        stall_slots_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed));
  obs::prom::begin_counter_family(
      out, "sim.issue_occupancy_total",
      "Simulated cycles by number of instructions issued that cycle");
  for (std::size_t k = 0; k < kOccupancyBins; ++k) {
    const std::uint64_t v = occupancy_[k].load(std::memory_order_relaxed);
    if (v != 0 || k == 0)
      obs::prom::append_counter_sample(out, "sim.issue_occupancy_total", "slots",
                                       std::to_string(k), v);
  }
  obs::prom::append_counter(out, "sim.profiled_cells", profiled_cells_.load(
                                                           std::memory_order_relaxed),
                            "Executed cells whose profile was accumulated");
  obs::prom::append_counter(
      out, "sim.profiled_cycles",
      profiled_cycles_.load(std::memory_order_relaxed),
      "Simulated cycles across all accumulated profiles");

  obs::prom::append_gauge(out, "server.uptime_seconds", uptime_.seconds());
  obs::prom::append_gauge(out, "server.workers", workers_);
  obs::prom::append_gauge(out, "server.shards",
                          static_cast<double>(shard_count()));
  obs::prom::append_gauge(out, "server.capacity", static_cast<double>(capacity_));
  obs::prom::append_gauge(out, "server.inflight_cells",
                          static_cast<double>(inflight_cells()),
                          "Admitted-but-unsettled cells (queued or executing)");
  obs::prom::append_gauge(out, "server.queue_depth",
                          static_cast<double>(pool_->queue_depth()),
                          "Jobs waiting in the pool queue right now");
  obs::prom::append_gauge(out, "server.active_jobs",
                          static_cast<double>(pool_->active_jobs()));
  obs::prom::append_gauge(out, "server.draining", draining() ? 1.0 : 0.0);
  obs::prom::append_gauge(out, "tune.jobs_inflight",
                          static_cast<double>(
                              tune_jobs_.load(std::memory_order_relaxed)),
                          "Autotune searches currently executing");

  const engine::CacheStats cs = cache_stats();
  obs::prom::append_counter(out, "cache.hits", cs.hits);
  obs::prom::append_counter(out, "cache.disk_hits", cs.disk_hits);
  obs::prom::append_counter(out, "cache.misses", cs.misses);
  obs::prom::append_counter(out, "cache.invalid", cs.invalid);
  obs::prom::append_counter(out, "cache.stores", cs.stores);
  std::size_t cache_entries = 0, cache_bytes = 0;
  std::vector<std::size_t> hot_sizes, inflight_sizes;
  hot_sizes.reserve(shards_.size());
  inflight_sizes.reserve(shards_.size());
  for (const auto& sh : shards_) {
    cache_entries += sh->cache->size();
    cache_bytes += sh->cache->memory_bytes();
    std::lock_guard<std::mutex> lock(sh->mu);
    hot_sizes.push_back(sh->hot.size());
    inflight_sizes.push_back(sh->inflight.size());
  }
  obs::prom::append_gauge(out, "cache.memory_entries",
                          static_cast<double>(cache_entries));
  obs::prom::append_gauge(out, "cache.memory_bytes",
                          static_cast<double>(cache_bytes),
                          "Payload bytes held by the in-memory tier");

  obs::prom::begin_gauge_family(out, "server.shard_hot_entries",
                                "Pre-serialized responses held per shard");
  for (std::size_t i = 0; i < hot_sizes.size(); ++i)
    obs::prom::append_gauge_sample(out, "server.shard_hot_entries", "shard",
                                   std::to_string(i),
                                   static_cast<double>(hot_sizes[i]));
  obs::prom::begin_gauge_family(out, "server.shard_inflight",
                                "Memoised computations in flight per shard");
  for (std::size_t i = 0; i < inflight_sizes.size(); ++i)
    obs::prom::append_gauge_sample(out, "server.shard_inflight", "shard",
                                   std::to_string(i),
                                   static_cast<double>(inflight_sizes[i]));

  {
    std::lock_guard<std::mutex> lock(transport_mu_);
    if (transport_metrics_) transport_metrics_(out);
  }
  return out;
}

void Service::set_transport_metrics(std::function<void(std::string&)> fn) {
  std::lock_guard<std::mutex> lock(transport_mu_);
  transport_metrics_ = std::move(fn);
}

}  // namespace ilp::server

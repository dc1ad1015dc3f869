#include "server/service.hpp"

#include <cinttypes>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <thread>
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

// Future value of one admitted cell; errors are values, never exceptions, so
// cleanup and accounting stay on one code path.
struct Service::CellOutcome {
  bool ok = false;
  ErrorKind err = ErrorKind::Internal;
  std::string message;
  CompileResponse resp;
};

struct Service::Inflight {
  std::shared_future<CellOutcome> future;
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

using Clock = std::chrono::steady_clock;

std::optional<ErrorKind> parse_error_kind(std::string_view name) {
  for (const ErrorKind k :
       {ErrorKind::BadRequest, ErrorKind::Overloaded, ErrorKind::ShuttingDown,
        ErrorKind::DeadlineExceeded, ErrorKind::CompileError, ErrorKind::SimError,
        ErrorKind::Internal})
    if (name == error_kind_name(k)) return k;
  return std::nullopt;
}

// Cache payload schema for one served cell.  Versioned like the study cells:
// an unknown prefix (including pre-observability "ilpd-v1"/"ilpd-v2" entries,
// "ilpd-v3" ones, which lack the nest-restructuring counters, and "ilpd-v4"
// ones, which lack the stall-accounting tail) decodes as a miss, never as
// garbage.  The v5 tail is the ProfileSummary: width, cycles, the six
// per-cause slot totals, then the occupancy histogram (count-prefixed).
std::string encode_cell(const Service::CellOutcome& c) {
  if (!c.ok)
    return strformat("ilpd-v5 err %s %s", error_kind_name(c.err), c.message.c_str());
  const CompileResponse& r = c.resp;
  const TransformStats& t = r.transforms;
  std::string s =
      strformat("ilpd-v5 ok %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
                " %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %zu %zu"
                " %d %d %d %d %d %d %d",
                r.cycles, r.base_cycles, r.dynamic_instructions, r.stall_cycles,
                r.static_instructions, r.blocks, r.int_regs, r.fp_regs,
                t.loops_unrolled, t.regs_renamed, t.accs_expanded,
                t.inds_expanded, t.searches_expanded, t.ops_combined,
                t.strength_reduced, t.trees_rebalanced, t.loops_interchanged,
                t.loops_fused, t.loops_fissioned, t.loops_tiled,
                t.ir_insts_before, t.ir_insts_after, static_cast<int>(r.scheduler),
                t.modulo.loops_pipelined, t.modulo.loops_fallback,
                t.modulo.backtracks, t.modulo.min_ii_sum,
                t.modulo.achieved_ii_sum, t.modulo.max_stages);
  const ProfileSummary& p = r.profile;
  s += strformat(" %d %" PRIu64, p.width, p.cycles);
  for (const std::uint64_t v : p.slots) s += strformat(" %" PRIu64, v);
  s += strformat(" %zu", p.occupancy.size());
  for (const std::uint64_t v : p.occupancy) s += strformat(" %" PRIu64, v);
  return s;
}

bool decode_cell(const std::string& payload, Service::CellOutcome& out) {
  if (payload.rfind("ilpd-v5 err ", 0) == 0) {
    const std::string rest = payload.substr(12);
    const std::size_t sp = rest.find(' ');
    if (sp == std::string::npos) return false;
    const auto kind = parse_error_kind(rest.substr(0, sp));
    if (!kind) return false;
    out = Service::CellOutcome{};
    out.err = *kind;
    out.message = rest.substr(sp + 1);
    return true;
  }
  Service::CellOutcome c;
  CompileResponse& r = c.resp;
  TransformStats& t = r.transforms;
  int sched_kind = 0;
  int consumed = 0;
  if (std::sscanf(payload.c_str(),
                  "ilpd-v5 ok %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64
                  " %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %zu %zu"
                  " %d %d %d %d %d %d %d%n",
                  &r.cycles, &r.base_cycles, &r.dynamic_instructions, &r.stall_cycles,
                  &r.static_instructions, &r.blocks, &r.int_regs, &r.fp_regs,
                  &t.loops_unrolled, &t.regs_renamed, &t.accs_expanded,
                  &t.inds_expanded, &t.searches_expanded, &t.ops_combined,
                  &t.strength_reduced, &t.trees_rebalanced, &t.loops_interchanged,
                  &t.loops_fused, &t.loops_fissioned, &t.loops_tiled,
                  &t.ir_insts_before, &t.ir_insts_after, &sched_kind,
                  &t.modulo.loops_pipelined, &t.modulo.loops_fallback,
                  &t.modulo.backtracks, &t.modulo.min_ii_sum,
                  &t.modulo.achieved_ii_sum, &t.modulo.max_stages, &consumed) != 29)
    return false;
  const char* q = payload.c_str() + consumed;
  auto next_u64 = [&q](std::uint64_t& v) {
    char* end = nullptr;
    v = std::strtoull(q, &end, 10);
    if (end == q) return false;
    q = end;
    return true;
  };
  ProfileSummary& p = r.profile;
  std::uint64_t width = 0, occ_count = 0;
  if (!next_u64(width) || !next_u64(p.cycles)) return false;
  p.width = static_cast<int>(width);
  for (std::uint64_t& v : p.slots)
    if (!next_u64(v)) return false;
  // Occupancy is width + 1 bins by construction; a tail claiming more is a
  // corrupt payload, not a larger machine.
  if (!next_u64(occ_count) || occ_count != width + 1) return false;
  p.occupancy.resize(occ_count);
  for (std::uint64_t& v : p.occupancy)
    if (!next_u64(v)) return false;
  r.scheduler = sched_kind == 1 ? SchedulerKind::Modulo : SchedulerKind::List;
  c.ok = true;
  r.have_transforms = true;
  r.speedup = r.cycles == 0 ? 0.0
                            : static_cast<double>(r.base_cycles) /
                                  static_cast<double>(r.cycles);
  out = c;
  return true;
}

// Content hash of one autotune search: source + every search knob, salted in
// the shared version domain so a knob bump rolls the whole-result cache over
// with the cells.
std::uint64_t tune_request_key(const std::string& source, const AutotuneRequest& a) {
  engine::HashStream h;
  hash_domain_salt(h, "ilpd-tune");
  h.str(source);
  h.i32(a.issue).i32(a.beam).i32(a.rounds).i32(a.max_sims);
  std::uint64_t frac_bits = 0;
  static_assert(sizeof(frac_bits) == sizeof(a.sim_fraction));
  std::memcpy(&frac_bits, &a.sim_fraction, sizeof(frac_bits));
  h.u64(frac_bits);
  h.boolean(a.cost_model);
  return h.digest();
}

Reply flat_reply(std::string line) {
  Reply r;
  r.flat = std::move(line);
  return r;
}

// Cache payload prefix for whole autotune results: the stored body is the
// "tune-result-v1" JSON object, replayed verbatim on a warm hit.
constexpr std::string_view kTunePayloadPrefix = "ilpd-tune-v1 ";

}  // namespace

// Conv @ issue-1 cycles of `source` — the paper's speedup baseline.  Cached
// under its own key: every level/width of the same source shares one entry.
std::uint64_t Service::base_cycles_for(const std::string& source) {
  engine::HashStream h;
  h.str("ilpd-base-v1");
  h.str(source);
  const std::uint64_t key = h.digest();
  engine::ResultCache& cache = cache_for(key);
  if (auto payload = cache.lookup(key)) {
    std::uint64_t cycles = 0;
    if (std::sscanf(payload->c_str(), "%" SCNu64, &cycles) == 1) return cycles;
    cache.invalidate(key);
  }
  Workload w;
  w.name = "adhoc";
  w.source = source;
  std::uint64_t cycles = 0;
  auto compiled = try_compile_workload(w, OptLevel::Conv, MachineModel::issue(1));
  if (compiled) {
    auto sim = try_simulate_cycles(compiled->fn, MachineModel::issue(1));
    if (sim) cycles = *sim;
  }
  cache.store(key, strformat("%" PRIu64, cycles));
  return cycles;
}

// Compile + simulate one cell (no cache, no accounting — callers own both).
// Phase wall times land in the server.phase.* histograms; the transformation
// counters land in the response.
Service::CellOutcome Service::compute_cell(
    const std::string& source, OptLevel level,
    const std::optional<TransformSet>& transforms, const NestOptions& nest,
    SchedulerKind scheduler, int issue, int unroll) {
  static obs::Histogram& compile_hist =
      engine::MetricsRegistry::global().histogram("server.phase.compile");
  static obs::Histogram& schedule_hist =
      engine::MetricsRegistry::global().histogram("server.phase.schedule");
  static obs::Histogram& simulate_hist =
      engine::MetricsRegistry::global().histogram("server.phase.simulate");

  Service::CellOutcome out;
  const MachineModel m = MachineModel::issue(issue);
  CompileOptions opts;
  opts.unroll.max_factor = unroll;
  opts.nest = nest;
  opts.scheduler = scheduler;

  TransformStats tstats;
  engine::Stopwatch compile_watch;
  Workload w;
  w.name = "adhoc";
  w.source = source;
  auto compiled = try_compile_workload(w, level, m, opts, &tstats, transforms);
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
  r.scheduler = scheduler;
  r.base_cycles = base_cycles_for(source);
  r.speedup = r.cycles == 0 ? 0.0
                            : static_cast<double>(r.base_cycles) /
                                  static_cast<double>(r.cycles);
  return out;
}

// --- Autotune plumbing ------------------------------------------------------

// Future value of one whole autotune search (the coalescing unit).
struct Service::TuneOutcome {
  bool ok = false;
  ErrorKind err = ErrorKind::Internal;
  std::string message;
  std::string result_json;  // "tune-result-v1" object when ok
  bool stopped_early = false;
};

struct Service::TuneInflight {
  std::shared_future<TuneOutcome> future;
};

Service::CellOutcome Service::cached_cell(
    std::uint64_t key, const std::string& source, OptLevel level,
    const std::optional<TransformSet>& transforms, const NestOptions& nest,
    SchedulerKind scheduler, int issue, int unroll, bool* cache_hit) {
  engine::ResultCache& cache = cache_for(key);
  if (auto payload = cache.lookup(key)) {
    CellOutcome hit;
    if (decode_cell(*payload, hit)) {
      if (cache_hit != nullptr) *cache_hit = true;
      return hit;
    }
    cache.invalidate(key);
  }
  CellOutcome out;
  try {
    out = compute_cell(source, level, transforms, nest, scheduler, issue, unroll);
  } catch (const std::exception& e) {
    out.ok = false;
    out.err = ErrorKind::Internal;
    out.message = strformat("cell threw: %s", e.what());
  }
  cache.store(key, encode_cell(out));
  bump(kCellsExecuted);
  return out;
}

namespace {

// Converts a service cell into the tuner's measurement, enforcing the
// conservation identity on the cached ProfileSummary — a result whose slot
// accounting does not close must never rank, let alone win.
tune::Evaluator::Measurement to_measurement(const Service::CellOutcome& cell,
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

}  // namespace

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

void Service::hot_insert(Shard& sh, std::uint64_t key,
                         std::shared_ptr<const CompileBody> body) {
  if (cfg_.hot_entries_per_shard == 0) return;
  if (sh.hot.size() >= cfg_.hot_entries_per_shard) sh.hot.clear();
  sh.hot[key] = std::move(body);
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

bool Service::try_admit(std::size_t n) {
  std::size_t cur = inflight_cells_.load(std::memory_order_relaxed);
  while (cur + n <= capacity_)
    if (inflight_cells_.compare_exchange_weak(cur, cur + n,
                                              std::memory_order_acq_rel,
                                              std::memory_order_relaxed))
      return true;
  return false;
}

void Service::settle_cells(std::size_t n) {
  if (inflight_cells_.fetch_sub(n, std::memory_order_acq_rel) == n) {
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
  p.cell_key = service_cell_key(p.source, c.level, c.transforms, c.nest,
                                c.scheduler, c.issue, c.unroll, c.debug_sleep_ms);
  p.has_key = true;
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
      if (draining()) {
        bump(kShuttingDown);
        return flat_reply(serialize_error(req.id_json, ErrorKind::ShuttingDown,
                                    "drain in progress; no new work accepted"));
      }
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
      obs::RequestScope scope(&ro.ctx);
      obs::log_debug(req.kind == RequestKind::Compile  ? "compile request"
                     : req.kind == RequestKind::Batch ? "batch request"
                                                      : "autotune request");
      Reply r = req.kind == RequestKind::Compile
                    ? handle_compile(p, ro, queued_ns)
                : req.kind == RequestKind::Autotune
                    ? flat_reply(handle_autotune(req, ro))
                    : flat_reply(handle_batch(req));
      latency_hist_.record(ro.wall.nanos());
      return r;
    }
  }
  bump(kInternalErrors);
  return flat_reply(
      serialize_error(req.id_json, ErrorKind::Internal, "unhandled request kind"));
}

Reply Service::handle_compile(const ParsedRequest& p,
                              const RequestObs& ro,
                              std::uint64_t queued_ns) {
  const Request& req = *p.req;
  const CompileRequest& c = req.compile;
  auto respond_error = [&](const CellOutcome& out) {
    bump(error_counter(out.err));
    obs::log_debug("compile request failed",
                   {obs::field("kind", error_kind_name(out.err)),
                    obs::field("message", out.message)});
    return flat_reply(serialize_error(req.id_json, out.err, out.message));
  };
  auto segment_reply = [&](std::shared_ptr<const CompileBody> body, bool cached) {
    bump(kOk);
    Reply r;
    r.body = std::move(body);
    r.id_json = req.id_json;
    r.cached = cached;
    r.request_id = ro.id;
    return r;
  };

  if (!c.workload.empty() && p.source.empty()) {
    bump(kBadRequest);
    return flat_reply(serialize_error(
        req.id_json, ErrorKind::BadRequest,
        strformat("unknown workload '%s'", c.workload.c_str())));
  }
  const std::uint64_t key = p.cell_key;
  // Pre-serialized bodies differ between profiled and unprofiled responses
  // (the "profile" field lives in the shared `post` segment), so the hot
  // tier keys the two shapes apart.  The cell key itself — coalescing, the
  // result cache, shard routing — is profile-blind: every executed cell
  // carries its summary and the flag only gates serialization.
  const std::uint64_t hot_key = c.profile ? hot_profile_variant(key) : key;
  Shard& sh = *shards_[p.shard];
  queue_wait_hist_.record(queued_ns);

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

  // Result-cache tier (memory partition, then shared disk).  A decoded hit
  // is pre-serialized once and promoted into the hot tier.
  if (auto payload = sh.cache->lookup(key)) {
    CellOutcome out;
    if (decode_cell(*payload, out)) {
      if (out.ok) {
        out.resp.have_profile = c.profile;
        auto body =
            std::make_shared<const CompileBody>(serialize_compile_body(out.resp));
        {
          std::lock_guard<std::mutex> lock(sh.mu);
          hot_insert(sh, hot_key, body);
        }
        return segment_reply(std::move(body), /*cached=*/true);
      }
      return respond_error(out);
    }
    sh.cache->invalidate(key);
  }

  const std::int64_t deadline_ms =
      c.deadline_ms > 0 ? c.deadline_ms : cfg_.default_deadline_ms;
  const std::int64_t queued_ms = static_cast<std::int64_t>(queued_ns / 1'000'000);
  auto deadline_reply = [&]() {
    bump(kDeadlineExceeded);
    obs::log_debug("deadline exceeded while waiting",
                   {obs::field("deadline_ms", deadline_ms)});
    return flat_reply(serialize_error(req.id_json, ErrorKind::DeadlineExceeded,
                                      strformat("deadline of %lld ms exceeded",
                                                static_cast<long long>(deadline_ms))));
  };
  // The dispatch ring is the admission queue: a line whose ring wait already
  // consumed its whole deadline is cancelled-while-queued, before it can
  // occupy an admission slot.
  if (deadline_ms > 0 && queued_ms >= deadline_ms) return deadline_reply();

  // Join an identical in-flight cell (it can only be executing on another
  // thread — identical keys on THIS shard's ring are processed serially), or
  // admit and execute inline.
  std::shared_ptr<Inflight> entry;
  std::promise<CellOutcome> settle_promise;
  bool executor = false;
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    auto it = sh.inflight.find(key);
    if (it != sh.inflight.end()) {
      entry = it->second;
    } else if (try_admit(1)) {
      entry = std::make_shared<Inflight>();
      entry->future = settle_promise.get_future().share();
      sh.inflight.emplace(key, entry);
      executor = true;
    }
  }
  if (entry == nullptr) {
    bump(kOverloaded);
    obs::Logger::global().warn_rate_limited(
        "overloaded", "request rejected: admission queue full",
        {obs::field("capacity", capacity_)});
    return flat_reply(serialize_error(
        req.id_json, ErrorKind::Overloaded,
        strformat("admission queue full (%zu cells in flight, capacity %zu)",
                  inflight_cells(), capacity_)));
  }

  // Joiners share the executor's outcome but not its spans: only the
  // executor writes a request trace.
  if (!executor) {
    bump(kCoalesced);
    if (deadline_ms > 0 &&
        entry->future.wait_for(std::chrono::milliseconds(deadline_ms - queued_ms)) ==
            std::future_status::timeout)
      return deadline_reply();
    CellOutcome out = entry->future.get();
    if (!out.ok) return respond_error(out);
    bump(kOk);
    out.resp.request_id = ro.id;
    out.resp.have_profile = c.profile;
    return flat_reply(serialize_compile_response(req.id_json, out.resp));
  }

  // Executor: the cell runs here, on the calling (shard worker) thread.
  CellOutcome out;
  bool deadline_hit = false;
  bool raced_hit = false;
  std::shared_ptr<const CompileBody> body;
  {
    obs::SpanScope span("job", "engine");
    if (c.debug_sleep_ms > 0) {
      // debug_sleep stands in for long compute and honors the remaining
      // deadline budget.
      const auto sleep_end = Clock::now() + std::chrono::milliseconds(c.debug_sleep_ms);
      const auto deadline_end =
          Clock::now() + std::chrono::milliseconds(deadline_ms - queued_ms);
      while (Clock::now() < sleep_end) {
        if (deadline_ms > 0 && Clock::now() >= deadline_end) {
          deadline_hit = true;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    if (deadline_hit) {
      out.err = ErrorKind::DeadlineExceeded;
      out.message = "cancelled while queued (deadline exceeded)";
    } else {
      // The cache lookup inside cached_cell closes the lookup->admit race:
      // an identical cell can finish (cache store, then inflight erase, in
      // that order) between this request's cache miss and its admission.
      // The admission lock synchronizes with the erase, so re-checking is
      // guaranteed to see the twin's payload — every cell executes (and
      // accumulates into the profile counters) exactly once.
      out = cached_cell(key, p.source, c.level, c.transforms, c.nest, c.scheduler,
                        c.issue, c.unroll, &raced_hit);
      if (out.ok) {
        out.resp.have_profile = c.profile;  // joiners re-gate from their own flag
        body = std::make_shared<const CompileBody>(serialize_compile_body(out.resp));
      }
    }
  }
  settle_promise.set_value(out);
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    sh.inflight.erase(key);
    if (body != nullptr) hot_insert(sh, hot_key, body);
  }
  settle_cells(1);

  if (deadline_hit) return deadline_reply();
  const std::string trace_file = write_request_trace(ro);
  if (!out.ok) return respond_error(out);
  if (trace_file.empty()) return segment_reply(std::move(body), /*cached=*/raced_hit);
  // A traced reply names its trace file, so it is built whole.
  bump(kOk);
  out.resp.request_id = ro.id;
  out.resp.cached = raced_hit;
  out.resp.trace_file = trace_file;
  return flat_reply(serialize_compile_response(req.id_json, out.resp));
}

std::string Service::handle_batch(const Request& req) {
  const BatchRequest& b = req.batch;
  engine::Stopwatch elapsed;

  // Resolve the slice up front so a bad name is a bad_request, not a cell.
  std::vector<const Workload*> loops;
  if (b.workloads.empty()) {
    for (const Workload& w : workload_suite()) loops.push_back(&w);
  } else {
    for (const std::string& name : b.workloads) {
      const Workload* w = find_workload(name);
      if (w == nullptr) {
        bump(kBadRequest);
        return serialize_error(req.id_json, ErrorKind::BadRequest,
                               strformat("unknown workload '%s'", name.c_str()));
      }
      loops.push_back(w);
    }
  }
  std::vector<OptLevel> levels(b.levels);
  if (levels.empty()) levels.assign(kLevels.begin(), kLevels.end());
  std::vector<int> widths(b.widths);
  if (widths.empty()) widths.assign(kIssueWidths.begin(), kIssueWidths.end());

  const std::size_t n = loops.size() * levels.size() * widths.size();
  if (n == 0) {
    bump(kBadRequest);
    return serialize_error(req.id_json, ErrorKind::BadRequest, "empty batch");
  }

  // All-or-nothing admission for the whole slice.
  if (!try_admit(n)) {
    bump(kOverloaded);
    obs::Logger::global().warn_rate_limited(
        "overloaded", "batch rejected: admission queue full",
        {obs::field("cells", n), obs::field("capacity", capacity_)});
    return serialize_error(
        req.id_json, ErrorKind::Overloaded,
        strformat("batch of %zu cells exceeds capacity %zu (in flight: %zu)", n,
                  capacity_, inflight_cells()));
  }

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
        engine::Stopwatch queued;
        const SchedulerKind scheduler = req.batch.scheduler;
        const std::uint64_t key = service_cell_key(w->source, level, std::nullopt,
                                                   NestOptions{}, scheduler, width, 8, 0);
        futures.push_back(group.submit_pinned(
            static_cast<unsigned>(shard_index(key)),
            [this, w, level, width, scheduler, key, queued]() -> BatchCell {
              queue_wait_hist_.record(queued.nanos());
              BatchCell cell;
              cell.workload = w->name;
              cell.level = level;
              cell.width = width;
              const CellOutcome out = cached_cell(key, w->source, level, std::nullopt,
                                                  NestOptions{}, scheduler, width, 8);
              if (out.ok) {
                cell.cycles = out.resp.cycles;
                cell.int_regs = out.resp.int_regs;
                cell.fp_regs = out.resp.fp_regs;
              } else {
                cell.error = out.message;
              }
              return cell;
            }));
      }

  const std::int64_t deadline_ms =
      b.deadline_ms > 0 ? b.deadline_ms : cfg_.default_deadline_ms;
  const auto deadline_tp = Clock::now() + std::chrono::milliseconds(
                                              deadline_ms > 0 ? deadline_ms : 0);
  bool cancelled = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (deadline_ms > 0 && !cancelled &&
        futures[i].wait_until(deadline_tp) == std::future_status::timeout) {
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
  settle_cells(n);

  bump(kOk);
  return serialize_batch_response(req.id_json, cells, elapsed.seconds() * 1e3);
}

std::string Service::handle_autotune(const Request& req,
                                     const RequestObs& ro) {
  bump(kTuneRequests);
  const AutotuneRequest& a = req.autotune;
  std::string source = a.source;
  if (!a.workload.empty()) {
    const Workload* w = find_workload(a.workload);
    if (w == nullptr) {
      bump(kBadRequest);
      return serialize_error(req.id_json, ErrorKind::BadRequest,
                             strformat("unknown workload '%s'", a.workload.c_str()));
    }
    source = w->source;
  }

  const std::uint64_t tkey = tune_request_key(source, a);
  engine::ResultCache& tcache = cache_for(tkey);

  auto respond = [&](const TuneOutcome& out, bool cached,
                     const std::string& trace_file) {
    if (out.ok) {
      bump(kOk);
      return serialize_autotune_response(req.id_json, out.result_json, cached,
                                         ro.id, trace_file,
                                         ro.wall.seconds() * 1e3);
    }
    bump(error_counter(out.err));
    obs::log_debug("autotune request failed",
                   {obs::field("kind", error_kind_name(out.err)),
                    obs::field("message", out.message)});
    return serialize_error(req.id_json, out.err, out.message);
  };

  // Warm path: an identical search already ran to completion — replay it.
  if (auto payload = tcache.lookup(tkey)) {
    if (payload->rfind(kTunePayloadPrefix, 0) == 0) {
      bump(kTuneCached);
      TuneOutcome out;
      out.ok = true;
      out.result_json = payload->substr(kTunePayloadPrefix.size());
      return respond(out, /*cached=*/true, {});
    }
    tcache.invalidate(tkey);
  }

  // Join an identical in-flight search, or admit a new one against both the
  // tune-job bound (searches saturate the pool, so a handful is plenty) and
  // the global admission counter (a search occupies one cell slot end to
  // end, which is what folds it into drain accounting).
  std::shared_ptr<TuneInflight> entry;
  std::promise<TuneOutcome> publish;
  bool executor = false;
  {
    std::lock_guard<std::mutex> lock(tune_mu_);
    auto it = tune_inflight_.find(tkey);
    if (it != tune_inflight_.end()) {
      entry = it->second;
    } else if (tune_jobs_.load(std::memory_order_relaxed) < cfg_.tune_job_limit &&
               try_admit(1)) {
      tune_jobs_.fetch_add(1, std::memory_order_relaxed);
      entry = std::make_shared<TuneInflight>();
      entry->future = publish.get_future().share();
      tune_inflight_.emplace(tkey, entry);
      executor = true;
    }
  }
  if (entry == nullptr) {
    bump(kOverloaded);
    obs::Logger::global().warn_rate_limited(
        "overloaded", "autotune rejected: job limit reached",
        {obs::field("limit", cfg_.tune_job_limit)});
    return serialize_error(
        req.id_json, ErrorKind::Overloaded,
        strformat("autotune job limit reached (%zu searches in flight)",
                  cfg_.tune_job_limit));
  }

  const std::int64_t deadline_ms =
      a.deadline_ms > 0 ? a.deadline_ms : cfg_.default_deadline_ms;

  if (!executor) {
    bump(kTuneCoalesced);
    std::shared_future<TuneOutcome> fut = entry->future;
    if (deadline_ms > 0 &&
        fut.wait_for(std::chrono::milliseconds(deadline_ms)) ==
            std::future_status::timeout) {
      bump(kDeadlineExceeded);
      obs::log_debug("deadline exceeded while waiting",
                     {obs::field("deadline_ms", deadline_ms)});
      return serialize_error(req.id_json, ErrorKind::DeadlineExceeded,
                             strformat("deadline of %lld ms exceeded",
                                       static_cast<long long>(deadline_ms)));
    }
    return respond(fut.get(), /*cached=*/false, {});
  }

  // Executor: the search runs on this thread; candidate evaluations fan onto
  // the pool through the evaluator.  The deadline and a drain both feed the
  // tuner's cancellation hook, so either stops the search between batches
  // with the best found so far (stopped_early), never a dropped request.
  const auto deadline_tp =
      Clock::now() +
      std::chrono::milliseconds(deadline_ms > 0 ? deadline_ms : 0);
  tune::TuneOptions topts;
  topts.issue = a.issue;
  topts.beam_width = a.beam;
  topts.max_rounds = a.rounds;
  topts.sim_fraction = a.sim_fraction;
  topts.max_sims = a.max_sims;
  topts.use_cost_model = a.cost_model;
  topts.cancelled = [this, deadline_ms, deadline_tp] {
    return draining() || (deadline_ms > 0 && Clock::now() >= deadline_tp);
  };

  TuneOutcome out;
  {
    obs::SpanScope span("autotune", "tune");
    // Candidates measure as compile cells through the shard caches, so a
    // tuned cell and a compiled cell are one cache entry and one execution.
    auto measure = [this](const std::string& src, int issue, const tune::TuneConfig& c) {
      const std::uint64_t key = service_cell_key(src, c.level, std::nullopt, c.nest,
                                                 c.scheduler, issue, c.unroll, 0);
      bool hit = false;
      const CellOutcome cell = cached_cell(key, src, c.level, std::nullopt, c.nest,
                                           c.scheduler, issue, c.unroll, &hit);
      return to_measurement(cell, hit);
    };
    tune::LocalEvaluator eval(pool_.get(), measure);
    const tune::TuneResult r = [&] {
      try {
        return tune::autotune(source, topts, eval);
      } catch (const std::exception& e) {
        tune::TuneResult bad;
        bad.error = strformat("search threw: %s", e.what());
        return bad;
      }
    }();
    tune_cand_simulated_.fetch_add(r.simulated, std::memory_order_relaxed);
    tune_cand_pruned_.fetch_add(r.pruned, std::memory_order_relaxed);
    tune_cand_cache_hits_.fetch_add(r.cache_hits, std::memory_order_relaxed);
    if (r.stopped_early) bump(kTuneStoppedEarly);
    out.stopped_early = r.stopped_early;
    if (r.ok) {
      out.ok = true;
      out.result_json = r.to_json();
      // Whole-search memoization: only complete runs are stored — a
      // deadline-truncated search must not shadow the full answer for the
      // next identical request.
      if (!r.stopped_early)
        tcache.store(tkey, std::string(kTunePayloadPrefix) + out.result_json);
      obs::log_info(
          "autotune finished",
          {obs::field("best", r.best.name()),
           obs::field("best_cycles", r.best_cycles),
           obs::field("lev4_cycles", r.lev4_cycles),
           obs::field("simulated", r.simulated),
           obs::field("pruned", r.pruned),
           obs::field("stopped_early", r.stopped_early ? 1 : 0)});
    } else {
      out.err = ErrorKind::CompileError;
      out.message = r.error;
    }
  }

  publish.set_value(out);
  {
    std::lock_guard<std::mutex> lock(tune_mu_);
    tune_inflight_.erase(tkey);
  }
  tune_jobs_.fetch_sub(1, std::memory_order_relaxed);
  settle_cells(1);

  const std::string trace_file = write_request_trace(ro);
  return respond(out, /*cached=*/false, trace_file);
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
                                "Coalescing-map entries per shard");
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

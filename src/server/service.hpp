// The compile-and-simulate service behind ilpd: admission control, request
// coalescing, deadlines and graceful drain on top of the experiment engine —
// sharded per core so the hot path never takes a cross-core lock.
//
// Request life cycle (one path for every transport and for tests):
//
//   serve(text) = parse_and_route (IO thread: parse, content hash, shard)
//               + serve_parsed    (shard worker: admission, inline execution
//                                  -> zero-copy response segments)
//
//   * State is sharded: the result cache, the pre-serialized hot-response
//     tier and the in-flight coalescing map are split into `workers` shards
//     keyed by the cell's content hash.  The epoll transport routes requests
//     so that a shard's structures are touched by one worker thread almost
//     always; per-shard mutexes remain for cross-shard joiners, batch and
//     autotune pool jobs and the stats walkers, but they are uncontended in
//     steady state.  (The result cache partitions lock internally: autotune
//     measurements run on any pool worker and write whichever partition
//     their cell key names.)
//   * Admission is a bounded counter: at most `workers + queue_limit` study
//     cells may be in flight (queued or executing).  A request that would
//     exceed the bound is rejected immediately with an `overloaded` error —
//     backpressure is always explicit, never a silently growing queue.
//   * Identical in-flight compile requests coalesce: the request key is the
//     engine cache's content hash (HashStream over source, pipeline, machine
//     and options), and the owning shard's in-flight map lets later arrivals
//     share the first arrival's future instead of duplicating work — even
//     when the arrivals ride different transports.
//   * Completed cells persist in the shard's engine::ResultCache partition
//     (memory + optional shared disk tier), and successful compile cells
//     additionally keep their serialized response segments in the shard's
//     hot tier, so a warm repeat over the epoll transport costs one hash
//     lookup and a writev — no JSON is built per reply (protocol.hpp
//     CompileBody).
//   * Every request carries a deadline (client-set or the service default).
//     The compile queue is the transport's dispatch ring: a line whose ring
//     wait already exceeded its deadline is answered `deadline_exceeded`
//     without executing, and a joiner stops waiting for its in-flight twin
//     when its own deadline fires.  A cell already computing always finishes
//     into the cache.  Batch members still queued on the engine pool when
//     the batch deadline fires are cancelled through its JobGroup hook.
//   * begin_drain() flips the service into shutdown mode: compile/batch
//     requests are refused with `shutting_down` (stats still answers), and
//     wait_drained() blocks until every admitted cell has settled.
//   * Observability: every request gets a server-minted id (r-<n>) that is
//     stamped on log lines, echoed in compile responses, and used as the
//     span correlation key.  Work requests record end-to-end latency and
//     queue wait into log-bucketed histograms; the `metrics` verb returns a
//     Prometheus text exposition of everything (including per-shard gauges
//     the transport registers via set_transport_metrics), and a compile
//     request with {"trace": true} writes a request-scoped Chrome trace when
//     the service has a trace_dir — with the simulated issue window rendered
//     as per-slot lanes next to the wall-clock spans.
//   * Cycle accounting: every executed cell runs under the simulator's
//     stall-attribution profile (sim/profile.hpp).  A compile request with
//     {"profile": true} gets the cell's summary in its response; the
//     `profile` verb reports daemon-lifetime per-cause totals; the metrics
//     exposition carries them as sim_stall_slots_total{cause=...} and
//     sim_issue_occupancy_total{slots=...}.
//
// The service is transport-agnostic and fully thread-safe; server.cpp feeds
// it lines from its shard workers via serve_parsed(), tests call serve()
// directly.  The epoll transport's writev'd bytes equal Reply::to_line() for
// the same request sequence (pinned by tests/server/epoll_transport_test.cpp).
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <optional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/cache.hpp"
#include "engine/metrics.hpp"
#include "engine/pool.hpp"
#include "obs/histogram.hpp"
#include "server/protocol.hpp"

namespace ilp::server {

struct ServiceConfig {
  int workers = 0;                 // 0 = one per hardware thread
  std::size_t queue_limit = 64;    // admitted-but-unfinished cells beyond workers
  std::int64_t default_deadline_ms = 30'000;  // 0 = no default deadline
  std::string cache_dir;           // non-empty: persistent result tier
  // Non-empty: compile requests with {"trace": true} write a per-request
  // Chrome trace (request → job → pass spans) to <trace_dir>/req-<id>.json.
  std::string trace_dir;
  // Hot-tier bound per shard: pre-serialized response bodies kept for warm
  // zero-copy replies.  The tier is cleared wholesale when it fills (the
  // result cache underneath still answers; only the pre-serialization is
  // redone), so memory stays bounded under adversarial key churn.
  std::size_t hot_entries_per_shard = 4096;
  // Concurrent autotune searches (each one fans candidate evaluations onto
  // the engine pool, so a handful saturates every worker).  A request beyond
  // the bound is refused `overloaded`, like any admission failure.
  std::size_t tune_job_limit = 4;
};

struct ServiceCounters {
  std::uint64_t received = 0;
  std::uint64_t ok = 0;
  std::uint64_t bad_request = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t shutting_down = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t compile_errors = 0;  // compile_error + sim_error responses
  std::uint64_t internal_errors = 0;
  std::uint64_t coalesced = 0;       // requests that joined an in-flight twin
  std::uint64_t cells_executed = 0;  // cells actually computed (not cached)
  std::uint64_t hot_hits = 0;        // replies served from pre-serialized segments
  // Autotune verb accounting (the tune.* metric families).
  std::uint64_t tune_requests = 0;
  std::uint64_t tune_cached = 0;         // whole-search replays from the cache
  std::uint64_t tune_coalesced = 0;      // joined an identical in-flight search
  std::uint64_t tune_stopped_early = 0;  // deadline/drain stopped the search
  std::uint64_t tune_candidates_simulated = 0;
  std::uint64_t tune_candidates_pruned = 0;    // skipped by the cost model
  std::uint64_t tune_candidate_cache_hits = 0; // measurements served from cache
};

class Service {
 public:
  explicit Service(ServiceConfig cfg = {});
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  // The request entry, split in two so each half runs on the right thread.
  // Every request gets exactly one reply (Reply::to_line() has no trailing
  // newline) — every failure mode has a protocol representation.
  //
  // parse_and_route runs on the IO thread: it parses the line once, resolves
  // the compile source and computes the cell's content hash, whose shard
  // index tells the transport which dispatch ring the line belongs to
  // (identical cells always route to the same shard, so coalescing and cache
  // hits stay shard-local).  Unroutable lines (parse errors, stats, batch,
  // unknown workloads) get shard 0 — any shard answers them correctly.
  //
  // serve_parsed runs on the shard worker, blocking until the reply is
  // ready: compile cells execute inline on the calling thread (the shard
  // worker set IS the execution resource) and warm hits return shared
  // pre-serialized segments instead of a fresh string.  `queued_ns` is the
  // time the line waited in the dispatch ring; it counts against the
  // request's deadline and lands in the queue-wait histogram.
  struct ParsedRequest {
    std::optional<Request> req;  // nullopt => parse_error holds the reason
    std::string parse_error;
    std::string source;  // resolved compile source text ("" if unknown workload)
    std::uint64_t cell_key = 0;
    bool has_key = false;
    std::size_t shard = 0;
  };
  [[nodiscard]] ParsedRequest parse_and_route(const std::string& line) const;
  Reply serve_parsed(ParsedRequest p, std::uint64_t queued_ns = 0);
  // Both halves in one call (tests and single-threaded callers).
  Reply serve(const std::string& line, std::uint64_t queued_ns = 0);

  // Refuse new compile/batch work from now on (`shutting_down`); stats
  // requests still answer so drains are observable.
  void begin_drain();
  [[nodiscard]] bool draining() const;
  // Blocks until every admitted cell has settled (run, failed or cancelled).
  void wait_drained();

  [[nodiscard]] ServiceCounters counters() const;
  [[nodiscard]] engine::CacheStats cache_stats() const;
  [[nodiscard]] std::size_t inflight_cells() const {
    return inflight_cells_.load(std::memory_order_acquire);
  }
  [[nodiscard]] int workers() const { return workers_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  // Number of state shards (== workers): cache partition, hot tier and
  // coalescing map are all split this way, and the transport sizes its
  // dispatch rings to match.
  [[nodiscard]] int shard_count() const { return workers_; }

  // The stats-response body; exposed for ilpd's --stats-on-exit report.
  [[nodiscard]] std::string stats_json() const;
  // The profile-response body: daemon-lifetime cycle-accounting totals
  // (per-cause slots + issue-occupancy histogram, sim/profile.hpp taxonomy)
  // summed over every executed cell.  Like stats, the `profile` verb answers
  // during a drain.
  [[nodiscard]] std::string profile_json() const;
  // Prometheus text exposition: the global MetricsRegistry (pass.*, trans.*,
  // server.* histograms) plus the service's own gauges and counters and
  // whatever the transport registered.  The `metrics` wire verb returns
  // this, JSON-wrapped.
  [[nodiscard]] std::string metrics_exposition() const;
  // Transport hook: called (under a lock) during metrics_exposition so the
  // server can append its per-shard ring gauges (shard_queue_depth,
  // shard_ring_drops) to the same exposition.
  void set_transport_metrics(std::function<void(std::string&)> fn);

  // Defined in service.cpp; public so the file-local compute/encode helpers
  // there can name them.
  struct CellOutcome;
  struct Inflight;
  struct RequestObs;
  struct TuneOutcome;
  struct TuneInflight;

 private:
  // Internal counter mirror of ServiceCounters (same order); relaxed
  // atomics so the request path never takes a stats lock.
  enum Counter : unsigned {
    kReceived, kOk, kBadRequest, kOverloaded, kShuttingDown,
    kDeadlineExceeded, kCompileErrors, kInternalErrors, kCoalesced,
    kCellsExecuted, kHotHits, kTuneRequests, kTuneCached, kTuneCoalesced,
    kTuneStoppedEarly, kCounterCount,
  };
  void bump(Counter c) {
    counters_[c].fetch_add(1, std::memory_order_relaxed);
  }
  // The outcome counter an error reply of `kind` bumps.  Every reply bumps
  // exactly one outcome counter, so received == ok + the error counters.
  static Counter error_counter(ErrorKind kind);

  // One state shard.  Padded so neighbouring shards never false-share; the
  // mutex is uncontended when the transport routes by the same hash.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::unordered_map<std::uint64_t, std::shared_ptr<Inflight>> inflight;
    std::unordered_map<std::uint64_t, std::shared_ptr<const CompileBody>> hot;
    std::unique_ptr<engine::ResultCache> cache;
  };

  [[nodiscard]] std::size_t shard_index(std::uint64_t key) const;
  [[nodiscard]] Shard& shard_for(std::uint64_t key) {
    return *shards_[shard_index(key)];
  }
  [[nodiscard]] engine::ResultCache& cache_for(std::uint64_t key) {
    return *shard_for(key).cache;
  }
  // Bounded-insert into the shard's hot tier (clears wholesale when full).
  void hot_insert(Shard& sh, std::uint64_t key,
                  std::shared_ptr<const CompileBody> body);

  // Bounded admission: reserves `n` cells or fails without blocking.
  bool try_admit(std::size_t n);
  // Exactly-once bookkeeping when admitted cells settle.
  void settle_cells(std::size_t n);

  // Runs the cell on the calling thread, coalesces identical in-flight
  // cells via a promise-backed in-flight entry, returns zero-copy segments
  // on warm hits.
  Reply handle_compile(const ParsedRequest& p,
                       const RequestObs& ro,
                       std::uint64_t queued_ns);
  std::string handle_batch(const Request& req);
  // Autotune verb: coalesced by search content hash, whole results cached,
  // candidate evaluations fanned onto the pool by tune::LocalEvaluator, whose
  // measurements are cached_cell calls (so they share the compile verb's
  // cells), deadline/drain folded into the search's cancellation hook so it
  // stops with the best found so far.
  std::string handle_autotune(const Request& req,
                              const RequestObs& ro);

  // Closes a traced request's Chrome trace with its `request` span and
  // writes it to <trace_dir>/req-<id>.json; returns the path, or "" when the
  // request is untraced or the write failed.
  std::string write_request_trace(const RequestObs& ro) const;

  // Compiles the cell through its cell plan (harness/experiment.hpp; the
  // `transforms` ablation form forks the level stage on that set) and
  // simulates it profiled.  No cache, no accounting: cached_cell owns both.
  CellOutcome compute_cell(const std::string& source, OptLevel level,
                           const std::optional<TransformSet>& transforms,
                           const NestOptions& nest, SchedulerKind scheduler,
                           int issue, int unroll);
  // The one way a cell runs: the shard cache's entry for `key` when it
  // decodes, otherwise compute_cell, stored under `key` and counted in
  // cells_executed (a throwing cell is stored as an `internal` error).
  // Compile executors, batch members and autotune measurements all call it,
  // so identical work is one cache entry whichever verb asked for it.
  // `cache_hit`, when non-null, is set on a hit.
  CellOutcome cached_cell(std::uint64_t key, const std::string& source,
                          OptLevel level, const std::optional<TransformSet>& transforms,
                          const NestOptions& nest, SchedulerKind scheduler, int issue,
                          int unroll, bool* cache_hit = nullptr);
  std::uint64_t base_cycles_for(const std::string& source);
  // Folds one executed cell's profile into the daemon-lifetime accumulators
  // behind profile_json() and the sim.* metric families.
  void accumulate_profile(const CycleProfile& p);

  ServiceConfig cfg_;
  int workers_ = 1;
  std::size_t capacity_ = 1;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<engine::ThreadPool> pool_;
  engine::Stopwatch uptime_;
  std::atomic<std::uint64_t> request_seq_{0};  // request-id mint

  // Latency histograms live in the (process-global) MetricsRegistry so the
  // exposition walks them with everything else; the references are cached
  // here because histogram() takes the registry lock.
  obs::Histogram& latency_hist_;
  obs::Histogram& queue_wait_hist_;

  std::atomic<std::size_t> inflight_cells_{0};
  std::mutex drain_mu_;  // pairs with drained_cv_ only (never on the hot path)
  std::condition_variable drained_cv_;
  std::atomic<bool> draining_{false};

  std::array<std::atomic<std::uint64_t>, kCounterCount> counters_{};

  // Daemon-lifetime cycle accounting (relaxed: totals, not orderings).
  // Occupancy bins cover issue widths up to kOccupancyBins - 1; wider
  // machines clamp into the top bin.
  static constexpr std::size_t kOccupancyBins = 33;
  std::array<std::atomic<std::uint64_t>, kNumStallCauses> stall_slots_{};
  std::array<std::atomic<std::uint64_t>, kOccupancyBins> occupancy_{};
  std::atomic<std::uint64_t> profiled_cells_{0};
  std::atomic<std::uint64_t> profiled_cycles_{0};

  // Autotune state: a service-wide coalescing map (searches are rare and
  // long compared to cells, so one mutex is fine) and bounded-concurrency
  // accounting.  Candidate counters are add-by-n, hence outside Counter.
  std::mutex tune_mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<TuneInflight>> tune_inflight_;
  std::atomic<std::size_t> tune_jobs_{0};
  std::atomic<std::uint64_t> tune_cand_simulated_{0};
  std::atomic<std::uint64_t> tune_cand_pruned_{0};
  std::atomic<std::uint64_t> tune_cand_cache_hits_{0};

  mutable std::mutex transport_mu_;
  std::function<void(std::string&)> transport_metrics_;
};

}  // namespace ilp::server

// The ilpd wire protocol: one JSON object per line, in both directions.
//
// Requests (all fields beyond `kind` optional unless noted):
//
//   {"id": <any scalar, echoed>, "kind": "compile",
//    "source": "<DSL text>" | "workload": "<Table 2 name>",   // exactly one
//    "level": "conv"|"lev1"|"lev2"|"lev3"|"lev4",             // default lev4
//    "transforms": {"unroll": true, ...},   // overrides level (ablation form)
//    "nest": {"interchange": true, "fuse": true, "fission": true,
//             "tile": true, "tile_size": 16},  // pre-pass loop restructuring
//    "issue": 8, "unroll": 8,
//    "deadline_ms": 10000, "debug_sleep_ms": 0}
//
//   {"kind": "batch",
//    "workloads": ["APS-1", ...],           // empty/absent = full suite
//    "levels": ["conv", ...], "widths": [1, 2, 4, 8],
//    "deadline_ms": 60000}
//
//   {"kind": "autotune",
//    "source": "<DSL text>" | "workload": "<Table 2 name>",   // exactly one
//    "issue": 8, "beam": 4, "rounds": 3, "sim_fraction": 0.5,
//    "max_sims": 48, "cost_model": true,    // false: exhaustive (no pruning)
//    "deadline_ms": 30000, "trace": true}   // deadline stops the search with
//                                           // the best found so far
//
//   {"kind": "stats"}
//
//   {"kind": "metrics"}        // Prometheus text exposition, JSON-wrapped
//
//   {"kind": "profile"}        // daemon-lifetime stall accounting: global
//                              // per-cause slot totals and the issue-
//                              // occupancy histogram over every simulated
//                              // cell (sim/profile.hpp taxonomy)
//
// Compile requests additionally accept {"trace": true}: when the daemon was
// started with --trace-dir, the request is traced end to end (request → job
// → pass spans, all tagged with the minted request id) and the response
// names the Chrome trace file that was written; traced requests also carry
// the simulated issue-slot lanes.  {"profile": true} attaches the cell's
// cycle-accounting summary (per-cause slots + occupancy histogram) to the
// compile response under "profile".
//
// Responses: {"id": ..., "ok": true, "kind": ..., <result fields>} or
// {"id": ..., "ok": false, "error": {"kind": "<ErrorKind>", "message": ...}}.
// Compile responses echo the server-minted "request_id" and, for cells that
// were actually compiled (not cache hits from before this schema), the
// paper's per-transformation counters under "transforms".
//
// Error kinds are a closed enum so clients can switch on them; `overloaded`
// and `shutting_down` are the admission controller's explicit backpressure
// signals — the daemon never parks a request it cannot serve.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "server/json.hpp"
#include "sim/profile.hpp"
#include "trans/level.hpp"

namespace ilp::server {

enum class RequestKind { Compile, Batch, Autotune, Stats, Metrics, Profile };

enum class ErrorKind {
  BadRequest,        // malformed JSON / unknown fields / bad values
  Overloaded,        // admission queue full — retry later
  ShuttingDown,      // drain in progress — connect elsewhere
  DeadlineExceeded,  // request-scoped deadline fired first
  CompileError,      // DSL front-end / transformation failure
  SimError,          // simulation failed
  Internal,          // engine job threw
};

[[nodiscard]] const char* error_kind_name(ErrorKind k);

struct CompileRequest {
  std::string source;           // exactly one of source/workload is set
  std::string workload;
  OptLevel level = OptLevel::Lev4;
  std::optional<TransformSet> transforms;  // set => custom ablation pipeline
  NestOptions nest;  // affine nest restructuring pre-passes (all off by default)
  SchedulerKind scheduler = SchedulerKind::List;  // "scheduler": "list"|"modulo"
  int issue = 8;
  int unroll = 8;
  std::int64_t deadline_ms = 0;     // 0 => service default
  std::int64_t debug_sleep_ms = 0;  // test/bench aid: sleep inside the job
  bool trace = false;               // request-scoped Chrome trace (needs --trace-dir)
  bool profile = false;             // attach the cell's stall-accounting summary
};

struct BatchRequest {
  std::vector<std::string> workloads;  // empty => full Table 2 suite
  std::vector<OptLevel> levels;        // empty => all five
  std::vector<int> widths;             // empty => {1, 2, 4, 8}
  SchedulerKind scheduler = SchedulerKind::List;
  std::int64_t deadline_ms = 0;
};

struct AutotuneRequest {
  std::string source;  // exactly one of source/workload is set
  std::string workload;
  int issue = 8;
  int beam = 4;
  int rounds = 3;
  double sim_fraction = 0.5;
  int max_sims = 48;
  bool cost_model = true;  // false: simulate every candidate (exhaustive)
  std::int64_t deadline_ms = 0;  // 0 => service default; stops, not kills
  bool trace = false;  // request-scoped Chrome trace (needs --trace-dir)
};

struct Request {
  RequestKind kind = RequestKind::Stats;
  std::string id_json;  // client id, re-serialized verbatim ("null" if absent)
  CompileRequest compile;
  BatchRequest batch;
  AutotuneRequest autotune;
};

// Parses one request line.  On failure returns nullopt and fills `error`
// with a message suitable for a bad_request response.
std::optional<Request> parse_request(const std::string& line, std::string* error);

// --- Response builders (serialization only; the service fills the data) ----

// Wire-compact cycle-accounting summary: the global per-cause totals and the
// occupancy histogram of one cell's profiled run.  The full CycleProfile
// (per-block matrix, per-opcode tallies) stays server-local — the summary is
// what round-trips through the response and the result cache.
struct ProfileSummary {
  int width = 0;
  std::uint64_t cycles = 0;
  std::array<std::uint64_t, kNumStallCauses> slots{};
  std::vector<std::uint64_t> occupancy;  // width + 1 bins

  static ProfileSummary from(const CycleProfile& p) {
    ProfileSummary s;
    s.width = p.width;
    s.cycles = p.cycles;
    s.slots = p.slots;
    s.occupancy = p.occupancy;
    return s;
  }
  // {"width": W, "cycles": C, "slots": {"issued": ...}, "occupancy": [...]}
  [[nodiscard]] std::string to_json() const;
};

struct CompileResponse {
  std::uint64_t cycles = 0;
  std::uint64_t base_cycles = 0;  // Conv @ issue-1 of the same source
  double speedup = 0.0;
  std::uint64_t dynamic_instructions = 0;
  std::uint64_t stall_cycles = 0;  // cycles slot 0 could not issue (schedule quality)
  int static_instructions = 0;
  int blocks = 0;                  // schedule summary
  int int_regs = 0;
  int fp_regs = 0;
  bool cached = false;  // served without running compile+simulate
  // Which ILP transformations fired for this cell (trans/level.hpp); absent
  // from responses decoded out of pre-observability cache entries.
  bool have_transforms = false;
  TransformStats transforms;
  // Set when the request asked for {"profile": true}; serialized into the
  // response's "profile" field.
  bool have_profile = false;
  ProfileSummary profile;
  SchedulerKind scheduler = SchedulerKind::List;  // echoed backend choice
  std::string request_id;  // server-minted; also the trace correlation key
  std::string trace_file;  // non-empty when a request-scoped trace was written
};

struct BatchCell {
  std::string workload;
  OptLevel level = OptLevel::Conv;
  int width = 1;
  std::uint64_t cycles = 0;
  int int_regs = 0;
  int fp_regs = 0;
  std::string error;  // per-cell failure; batch itself still succeeds
};

std::string serialize_compile_response(const std::string& id_json,
                                       const CompileResponse& r);

// --- Zero-copy response segments -------------------------------------------
//
// A compile response differs between two replies for the same cell only in
// the echoed client id, the `cached` flag and the server-minted request id.
// Everything else is split into two immutable segments that the service
// caches per cell and the epoll transport emits with writev — no per-reply
// serialization, no per-reply copy of the (largest) measured part:
//
//   {"id": <id_json><pre><true|false><post>, "request_id": "r-N"}\n
//
// assemble_compile_response() glues the same pieces into one string; by
// construction it produces exactly the bytes serialize_compile_response
// yields for the equivalent CompileResponse.  The transport-equivalence test
// (tests/server/epoll_transport_test.cpp) pins the epoll transport's writev'd
// segments to Reply::to_line() over a corpus of cold, warm and error lines.
struct CompileBody {
  std::string pre;   // `, "ok": true, ... "cached": ` — follows the echoed id
  std::string post;  // `, "scheduler": ...` — transforms/modulo tail, pre-`}`
};

// Serializes the id-independent segments of `r` (ignores r.cached,
// r.request_id and r.trace_file — those are per-reply).
CompileBody serialize_compile_body(const CompileResponse& r);

std::string assemble_compile_response(const std::string& id_json,
                                      const CompileBody& body, bool cached,
                                      const std::string& request_id,
                                      const std::string& trace_file);

// One response, ready for the wire.  Either `flat` holds the whole line
// (stats, errors, traced requests, batch), or `body` is set and the line is
// assembled from shared segments at write time.
struct Reply {
  std::string flat;                         // used when body == nullptr
  std::shared_ptr<const CompileBody> body;  // zero-copy compile form
  std::string id_json;
  bool cached = false;
  std::string request_id;

  [[nodiscard]] std::string to_line() const {
    return body == nullptr ? flat
                           : assemble_compile_response(id_json, *body, cached,
                                                       request_id, {});
  }
};
// `result_json` is the tuner's own "tune-result-v1" object (tune/tune.hpp);
// `cached` marks a whole-search replay from the tune result cache.
std::string serialize_autotune_response(const std::string& id_json,
                                        const std::string& result_json,
                                        bool cached,
                                        const std::string& request_id,
                                        const std::string& trace_file,
                                        double elapsed_ms);
std::string serialize_batch_response(const std::string& id_json,
                                     const std::vector<BatchCell>& cells,
                                     double elapsed_ms);
// `stats_body` is a pre-rendered JSON object (the service owns the schema).
std::string serialize_stats_response(const std::string& id_json,
                                     const std::string& stats_body);
// Wraps a Prometheus text exposition as a JSON string field.
std::string serialize_metrics_response(const std::string& id_json,
                                       const std::string& exposition);
// `profile_body` is a pre-rendered JSON object (the service owns the schema:
// daemon-lifetime per-cause totals + occupancy accumulated over every cell).
std::string serialize_profile_response(const std::string& id_json,
                                       const std::string& profile_body);
std::string serialize_error(const std::string& id_json, ErrorKind kind,
                            const std::string& message);

// Shared helpers.
[[nodiscard]] std::optional<OptLevel> parse_level_name(std::string_view name);

}  // namespace ilp::server

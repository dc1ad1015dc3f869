// Request-scoped context: a request id plus an optional trace sink, carried
// in a thread-local and re-established on whichever thread does the work.
//
// The service mints a RequestContext per wire request in serve_parsed and
// installs it with a RequestScope on the thread that serves it (a compile
// cell executes right there); pool jobs working for the request (autotune
// candidate evaluations) capture the context by shared_ptr and install their
// own RequestScope on the worker thread, so everything downstream — log
// lines, trace spans, pass instrumentation — sees the same request id
// without any plumbing through the compile pipeline's signatures.
//
// TraceSink is the abstract span consumer implemented by engine::TraceRecorder
// (obs cannot depend on engine; engine links obs for the histograms).  A null
// sink means the request is not traced: SpanScope then costs one thread-local
// load and a branch.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace ilp::obs {

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  // Microseconds since the sink's epoch.
  [[nodiscard]] virtual std::uint64_t now_us() const = 0;
  virtual void record_span(std::string_view name, std::string_view category,
                           std::uint64_t ts_us, std::uint64_t dur_us,
                           std::string_view request_id) = 0;
  // One simulated issue slot: instruction `op_name` issued in `cycle` at
  // slot position `slot` (0-based within the cycle).  Sinks that render
  // timelines map these onto per-slot lanes; the default drops them so
  // span-only sinks are unaffected.  Simulated cycles, not wall time.
  virtual void record_issue_slot(std::string_view op_name, std::uint64_t cycle,
                                 int slot, std::string_view request_id) {
    (void)op_name;
    (void)cycle;
    (void)slot;
    (void)request_id;
  }
};

struct RequestContext {
  std::string request_id;
  TraceSink* sink = nullptr;  // non-null => spans are recorded
};

// The context installed on this thread, or nullptr outside any request.
[[nodiscard]] const RequestContext* current_request();
// "" outside any request; the logger stamps this onto every line.
[[nodiscard]] std::string_view current_request_id();

// RAII installer; nests (the previous context is restored on destruction).
class RequestScope {
 public:
  explicit RequestScope(const RequestContext* ctx);
  ~RequestScope();
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  const RequestContext* prev_;
};

// Records [construction, destruction) as a span against the current
// request's sink.  No-op (one TLS load) when the request is untraced or
// there is no request.  `name` and `category` must outlive the scope —
// callers pass string literals.
class SpanScope {
 public:
  SpanScope(std::string_view name, std::string_view category);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  const RequestContext* ctx_;  // null or sink-less => inactive
  std::string_view name_;
  std::string_view category_;
  std::uint64_t start_us_ = 0;
};

}  // namespace ilp::obs

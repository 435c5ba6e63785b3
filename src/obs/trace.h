// Span-based tracing — OPCQA_TRACE_SPAN(name) RAII sites threaded
// through server unit execution, planner dispatch, chain-walk
// enumeration, cache probe/spill/restore and snapshot-store Put/Get/GC,
// compiled behind OPCQA_TRACING with the failpoint discipline
// (util/failpoint.h): without the definition every macro expands to
// `do {} while (0)` / an empty scope object and trace.cc compiles to an
// empty translation unit, so stock builds carry no branch, no symbol
// and no byte of the tracer (CI asserts `nm | grep -c SpanTracer` == 0
// next to the failpoint check).
//
// ## Model
//
// A span is a named interval on one thread. Spans nest lexically; the
// per-thread depth at entry is recorded so exporters can re-indent the
// tree without interval arithmetic. OPCQA_TRACE_REQUEST(id, tenant)
// stamps the current thread's request context; every span opened inside
// the scope carries it — that is what turns a served trace into
// per-request phase timelines (opcqa_cli --trace-out / --slow-ms).
//
// ## Runtime switch
//
// Compiled-in but disabled (the default even in tracing builds until
// Enable() — the CLI enables it when --trace-out or --slow-ms is set),
// a span site costs one relaxed atomic load, same as an unarmed
// failpoint. Enabled, each span end appends one record to a per-thread
// buffer under that buffer's (uncontended) mutex; Collect() merges.
// Tracing never changes answers — tests/obs_test.cc asserts tracing-on
// byte-identity.
//
// ## Timed scopes
//
// Every layer boundary is both a span and a latency histogram:
// OPCQA_TIMED_SCOPE("layer.op") opens span "layer.op" and times the
// scope into histogram "layer.op_ms" (obs/metrics.h). The histogram half
// is always compiled; the span half follows OPCQA_TRACING like
// OPCQA_TRACE_SPAN.

#ifndef OPCQA_OBS_TRACE_H_
#define OPCQA_OBS_TRACE_H_

#include "obs/metrics.h"

#define OPCQA_TRACE_CONCAT_INNER(a, b) a##b
#define OPCQA_TRACE_CONCAT(a, b) OPCQA_TRACE_CONCAT_INNER(a, b)

#ifdef OPCQA_TRACING

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/span.h"

namespace opcqa {
namespace obs {

class SpanTracer {
 public:
  /// Per-thread span buffer + context. Owned jointly by the thread
  /// (thread_local shared_ptr) and the tracer's registry, so records
  /// survive thread exit until Collect().
  struct ThreadLog {
    uint32_t index = 0;
    uint32_t depth = 0;
    uint64_t request_id = 0;
    std::string tenant;
    std::mutex mutex;  // guards `spans` against Collect()/Enable()
    std::vector<SpanRecord> spans;
  };

  static SpanTracer& Global();

  /// Arms the tracer: clears every thread's buffer and resets the
  /// epoch. Not thread-safe against in-flight spans — call before
  /// serving starts (the CLI does it before any work).
  void Enable();
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Merged records from every thread, (thread, start) ordered.
  std::vector<SpanRecord> Collect() const;

  /// The calling thread's log, registered on first use.
  ThreadLog& Local();

  uint64_t NowNanos() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// Appends a finished span for the calling thread (TraceSpan dtor).
  void Finish(const char* name, uint64_t start_ns, uint32_t depth);

 private:
  SpanTracer() = default;

  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<ThreadLog>> logs_;
  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

/// RAII span (use via OPCQA_TRACE_SPAN). Captures the enabled check at
/// entry: a span open across Disable() still records, keeping depths
/// balanced.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    SpanTracer& tracer = SpanTracer::Global();
    if (!tracer.enabled()) return;
    name_ = name;
    start_ns_ = tracer.NowNanos();
    depth_ = tracer.Local().depth++;
  }
  ~TraceSpan() {
    if (name_ == nullptr) return;
    SpanTracer::Global().Finish(name_, start_ns_, depth_);
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;
  uint64_t start_ns_ = 0;
  uint32_t depth_ = 0;
};

/// RAII request context (use via OPCQA_TRACE_REQUEST): spans opened
/// inside the scope carry (request_id, tenant). Restores the previous
/// context on exit, so nested scopes (a unit member inside a unit) work.
class TraceRequestScope {
 public:
  TraceRequestScope(uint64_t request_id, std::string_view tenant) {
    SpanTracer::ThreadLog& log = SpanTracer::Global().Local();
    previous_id_ = log.request_id;
    previous_tenant_ = std::move(log.tenant);
    log.request_id = request_id;
    log.tenant = std::string(tenant);
  }
  ~TraceRequestScope() {
    SpanTracer::ThreadLog& log = SpanTracer::Global().Local();
    log.request_id = previous_id_;
    log.tenant = std::move(previous_tenant_);
  }

  TraceRequestScope(const TraceRequestScope&) = delete;
  TraceRequestScope& operator=(const TraceRequestScope&) = delete;

 private:
  uint64_t previous_id_ = 0;
  std::string previous_tenant_;
};

}  // namespace obs
}  // namespace opcqa

/// Opens a span covering the rest of the enclosing scope.
#define OPCQA_TRACE_SPAN(name)    \
  ::opcqa::obs::TraceSpan OPCQA_TRACE_CONCAT(opcqa_trace_span_, \
                                             __LINE__)(name)

/// Stamps the request context for the rest of the enclosing scope.
#define OPCQA_TRACE_REQUEST(id, tenant)                         \
  ::opcqa::obs::TraceRequestScope OPCQA_TRACE_CONCAT(           \
      opcqa_trace_request_, __LINE__)((id), (tenant))

#else  // !OPCQA_TRACING

// Stock build: the tracer vanishes. No class, no atomic load, no
// symbols — `nm libopcqa.a | grep SpanTracer` finds nothing (asserted
// in CI bench-smoke, like the failpoint registry).
#define OPCQA_TRACE_SPAN(name) \
  do {                         \
  } while (0)
#define OPCQA_TRACE_REQUEST(id, tenant) \
  do {                                  \
  } while (0)

#endif  // OPCQA_TRACING

/// Span `name` plus histogram `name "_ms"` over the rest of the enclosing
/// scope; `name` must be a string literal. The histogram handle is a
/// per-site static, so the registry lookup happens once.
#define OPCQA_TIMED_SCOPE(name)                                        \
  OPCQA_TRACE_SPAN(name);                                              \
  static ::opcqa::obs::Histogram* const OPCQA_TRACE_CONCAT(            \
      opcqa_timed_histogram_, __LINE__) =                              \
      ::opcqa::obs::MetricsRegistry::Global().GetHistogram(name "_ms"); \
  ::opcqa::obs::ScopedTimer OPCQA_TRACE_CONCAT(opcqa_timed_scope_,     \
                                               __LINE__)(              \
      OPCQA_TRACE_CONCAT(opcqa_timed_histogram_, __LINE__))

#endif  // OPCQA_OBS_TRACE_H_

// Deterministic, coroutine-aware request tracing.
//
// The paper's central claim — symmetrical striping turns full-bisection
// bandwidth into file-system bandwidth — is an argument about where time
// goes inside one operation. This subsystem makes that auditable: every VFS
// call decomposes into per-stripe fan-out, kv-client attempts (with retries,
// backoff and breaker rejections), server service time and network transfer
// legs, and whole workflow DAGs are one trace rooted at the runner.
//
// Design rules:
//  * Contexts are values. A TraceContext is {tracer, trace id, span id,
//    node} threaded explicitly through coroutine arguments (fs::VfsContext
//    carries one across the VFS boundary). There is no thread-local state:
//    simulated processes are coroutines multiplexed on one real thread, so
//    TLS would attribute spans to whichever coroutine happened to run last.
//  * Timestamps are simulated nanoseconds (Simulation::now()), so a trace
//    is bit-identical across same-seed runs. Recording never schedules
//    events or draws randomness, so attaching a tracer cannot change the
//    event stream: Simulation::EventDigest() is identical with tracing on,
//    off, or absent (the `trace_determinism` ctest and
//    `ablation_trace_overhead` bench both assert this).
//  * Storage is a bounded ring: the newest `max_finished_spans` completed
//    spans are kept; older ones are dropped and counted. Open spans mirror
//    live coroutines and are tracked in a side table.
//
// A null tracer pointer disables everything: the helpers below (Child, End,
// Event, Annotate, ScopedSpan) are no-ops costing one pointer test, so
// uninstrumented runs pay nothing and allocate nothing.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/strfmt.h"
#include "sim/simulation.h"

namespace memfs::trace {

using TraceId = std::uint64_t;
using SpanId = std::uint64_t;

class Tracer;

// The propagated context: which span of which trace the current logical
// operation runs under. Passed by value through async layers; default
// constructed = tracing inactive.
struct TraceContext {
  Tracer* tracer = nullptr;
  TraceId trace_id = 0;
  SpanId span_id = 0;
  // Node attributed to spans started from this context (exported as the
  // Chrome trace "process").
  std::uint32_t node = 0;

  bool active() const { return tracer != nullptr; }
};

// A point event inside a span ("retry", "breaker_fast_fail", ...).
struct SpanEvent {
  std::string name;
  sim::SimTime when = 0;
};

struct SpanRecord {
  TraceId trace_id = 0;
  SpanId span_id = 0;
  SpanId parent_id = 0;  // 0 = root of its trace
  std::string name;
  std::string category;  // layer: vfs / striper / replica / kv / net / ...
  sim::SimTime start = 0;
  sim::SimTime end = 0;
  std::uint32_t node = 0;
  std::vector<SpanEvent> events;
  std::vector<std::pair<std::string, std::string>> args;
};

struct TracerConfig {
  // Ring capacity for completed spans; the oldest are dropped (and counted)
  // beyond this. Default is generous: a traced 8-node Montage run is in the
  // tens of thousands of spans.
  std::size_t max_finished_spans = 1u << 20;
};

class Tracer {
 public:
  explicit Tracer(sim::Simulation& sim, TracerConfig config = {})
      : sim_(&sim), config_(config) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Opens a root span of a fresh trace.
  TraceContext StartTrace(std::string_view name, std::string_view category,
                          std::uint32_t node = 0);

  // Opens a child span under `parent` (same trace, parent's node). The
  // caller must pass an active context; the free helper Child() below is
  // the null-safe form every call site uses.
  TraceContext StartSpan(const TraceContext& parent, std::string_view name,
                         std::string_view category);

  // As StartSpan, but attributed to an explicit node (a server-side span
  // started from a client-side context).
  TraceContext StartSpanOn(const TraceContext& parent, std::string_view name,
                           std::string_view category, std::uint32_t node);

  // Point event / key-value annotation on an open span. Silently ignored if
  // the span already ended (a detached child may outlive its parent's
  // interest in it).
  void AddEvent(const TraceContext& span, std::string_view name);
  void Annotate(const TraceContext& span, std::string_view key,
                std::string value);

  // Closes the span at the current simulated time and moves it to the
  // finished ring. Ending an unknown/already-ended span is a no-op.
  void EndSpan(const TraceContext& span);

  // Completed spans, oldest first (in EndSpan order — deterministic).
  const std::deque<SpanRecord>& finished() const { return finished_; }

  std::size_t open_spans() const { return open_.size(); }
  std::uint64_t spans_started() const { return next_span_id_ - 1; }
  std::uint64_t dropped_spans() const { return dropped_; }
  std::uint64_t traces_started() const { return next_trace_id_ - 1; }

  // Deterministic text dump of every finished span (ids, times, events,
  // args) — the byte stream the trace_determinism audit compares across
  // same-seed runs.
  void Serialize(std::ostream& os) const;

 private:
  SpanId Open(TraceId trace, SpanId parent, std::string_view name,
              std::string_view category, std::uint32_t node);

  sim::Simulation* sim_;
  TracerConfig config_;
  TraceId next_trace_id_ = 1;
  SpanId next_span_id_ = 1;
  std::uint64_t dropped_ = 0;
  std::unordered_map<SpanId, SpanRecord> open_;
  std::deque<SpanRecord> finished_;
};

// --- Null-safe helpers (the instrumentation surface) ---

inline TraceContext Child(const TraceContext& parent, std::string_view name,
                          std::string_view category) {
  if (parent.tracer == nullptr) return {};
  return parent.tracer->StartSpan(parent, name, category);
}

// Child span attributed to a different node than its parent (client-side
// context opening a server-side span).
inline TraceContext ChildOn(const TraceContext& parent, std::string_view name,
                            std::string_view category, std::uint32_t node) {
  if (parent.tracer == nullptr) return {};
  return parent.tracer->StartSpanOn(parent, name, category, node);
}

inline void End(const TraceContext& span) {
  if (span.tracer != nullptr) span.tracer->EndSpan(span);
}

inline void Event(const TraceContext& span, std::string_view name) {
  if (span.tracer != nullptr) span.tracer->AddEvent(span, name);
}

// The value is copied into a string only when the span is traced, so an
// untraced op pays one pointer test and builds no string.
inline void Annotate(const TraceContext& span, std::string_view key,
                     std::string_view value) {
  if (span.tracer != nullptr) {
    span.tracer->Annotate(span, key, std::string(value));
  }
}

// Integer annotation (counts, sizes, ids): the decimal text — the same bytes
// std::to_string would produce — is likewise formatted only when traced.
inline void Annotate(const TraceContext& span, std::string_view key,
                     std::uint64_t value) {
  if (span.tracer == nullptr) return;
  std::string text;
  strfmt::AppendUint(text, value);
  span.tracer->Annotate(span, key, std::move(text));
}

// RAII span for coroutine bodies: opens a child of `parent` on construction,
// ends it on destruction (coroutine frame teardown runs destructors, so
// every co_return path closes the span at the correct simulated time).
class ScopedSpan {
 public:
  ScopedSpan() = default;
  ScopedSpan(const TraceContext& parent, std::string_view name,
             std::string_view category)
      : ctx_(Child(parent, name, category)) {}

  // Takes ownership of ending an already-opened span (an attempt span the
  // retry driver opened and handed to the attempt coroutine).
  static ScopedSpan Adopt(const TraceContext& span) {
    ScopedSpan scoped;
    scoped.ctx_ = span;
    return scoped;
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ScopedSpan(ScopedSpan&& other) noexcept : ctx_(other.ctx_) {
    other.ctx_ = {};
  }
  ScopedSpan& operator=(ScopedSpan&& other) noexcept {
    if (this != &other) {
      Close();
      ctx_ = other.ctx_;
      other.ctx_ = {};
    }
    return *this;
  }

  ~ScopedSpan() { Close(); }

  // Ends the span early (before scope exit); idempotent.
  void Close() {
    if (ctx_.tracer != nullptr) {
      ctx_.tracer->EndSpan(ctx_);
      ctx_.tracer = nullptr;
    }
  }

  const TraceContext& context() const { return ctx_; }

 private:
  TraceContext ctx_{};
};

}  // namespace memfs::trace

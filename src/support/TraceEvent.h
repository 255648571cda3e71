//===- support/TraceEvent.h - Scoped tracing spans --------------*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scoped RAII tracing spans exported as Chrome trace-event JSON, so a
/// whole cable-cli or spec-lint run can be opened in chrome://tracing or
/// Perfetto and read like a flame chart: lattice construction, journal
/// fsyncs, session commands — each on the thread that actually executed
/// it.
///
///   { TraceSpan Span("lattice-build"); buildLattice(...); }
///
/// Design:
///
///  - Disarmed (the default), a span costs one relaxed atomic load; no
///    clock sample, no allocation. Arm with TraceLog::setEnabled(true)
///    (done by `--trace-out`).
///  - Armed, each completed span appends one event to a ring buffer owned
///    by its thread (a per-thread mutex serializes only against the
///    exporter, never other recording threads). When a ring fills, the
///    oldest events are overwritten and counted as dropped — tracing
///    never grows without bound and never blocks the pipeline.
///  - Timestamps are steady-clock microseconds relative to the first
///    armed use in the process; thread ids are small dense integers
///    assigned in first-use order, with optional human names
///    (TraceLog::setThreadName) emitted as metadata events.
///
/// The export format is the Chrome trace-event JSON object form:
/// {"traceEvents": [...], "otherData": {...build info...}} with "X"
/// (complete) duration events — accepted by chrome://tracing, Perfetto,
/// and speedscope. See docs/OBSERVABILITY.md.
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_SUPPORT_TRACEEVENT_H
#define CABLE_SUPPORT_TRACEEVENT_H

#include "support/Status.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cable {

/// Process-wide span log.
class TraceLog {
public:
  /// True when span recording is armed (the TraceSpan fast-path gate).
  static bool enabled() {
#ifdef CABLE_NO_INSTRUMENT
    return false;
#else
    return Armed.load(std::memory_order_relaxed);
#endif
  }

  static void setEnabled(bool On);

  /// Names the calling thread in the exported trace (e.g. "main").
  static void setThreadName(std::string Name);

  /// Renders every recorded span as a Chrome trace-event JSON document.
  /// \p ToolName goes into otherData along with the build stamp.
  static std::string exportJson(std::string_view ToolName);

  /// exportJson written atomically to \p Path (AtomicFile).
  static Status writeJson(const std::string &Path, std::string_view ToolName);

  /// Total spans recorded (across all threads, including overwritten).
  static uint64_t spanCount();

  /// Spans lost to ring-buffer wraparound.
  static uint64_t droppedCount();

  /// Drops every recorded span and resets drop counters; thread ids and names persist. Ring capacity changes take
  /// effect for rings created after the call (test isolation).
  static void reset();

  /// Per-thread ring capacity in events for rings created afterwards
  /// (default 65536). Minimum 4.
  static void setRingCapacity(size_t Events);

  //===--------------------------------------------------------------------===//
  // Active-span stacks (the flight recorder's "where was every thread").
  //
  // Armed by CrashDump::install via setStackCapture: each live TraceSpan
  // pushes its name onto a fixed-storage per-thread stack at construction
  // and pops at destruction, so a fatal-signal dump can report the active
  // span stack of every thread without touching the heap. Disarmed (the
  // default) the cost is one extra relaxed load per span.
  //===--------------------------------------------------------------------===//

  static constexpr size_t kCrashStackMaxDepth = 24;
  static constexpr size_t kCrashStackNameBytes = 48;

  static bool stackCaptureEnabled() {
#ifdef CABLE_NO_INSTRUMENT
    return false;
#else
    return StacksArmed.load(std::memory_order_relaxed);
#endif
  }
  static void setStackCapture(bool On);

  /// One thread's active spans, read async-signal-safely: \p Frames
  /// points at \p Depth NUL-terminated names spaced kCrashStackNameBytes
  /// apart, innermost last. The storage is fixed and never freed; a
  /// racing push/pop can at worst show a stale frame, never a torn
  /// pointer.
  struct CrashStackView {
    uint32_t Tid = 0;
    const char *ThreadName = nullptr; ///< may be empty, never null
    uint32_t Depth = 0;
    const char *Frames = nullptr;
  };

  /// Async-signal-safe: number of registered per-thread stacks.
  static size_t crashStackCount();
  /// Async-signal-safe: fills \p Out for stack \p I (< crashStackCount()).
  static bool crashStackRead(size_t I, CrashStackView &Out);

private:
  friend class TraceSpan;
  static void record(std::string Name, uint64_t StartUs, uint64_t DurUs,
                     int64_t Arg, bool HasArg);
  static uint64_t nowUs();
  static bool pushCrashStack(std::string_view Name);
  static void popCrashStack();

  static std::atomic<bool> Armed;
  static std::atomic<bool> StacksArmed;
};

/// One scoped span. Records [construction, destruction) on the current
/// thread when tracing is armed; otherwise costs one relaxed load.
class TraceSpan {
public:
  explicit TraceSpan(std::string_view Name) : TraceSpan(Name, 0, false) {}

  /// A span with one integer argument (partition size, byte count, ...),
  /// exported as args.n.
  TraceSpan(std::string_view Name, int64_t Arg) : TraceSpan(Name, Arg, true) {}

  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

  ~TraceSpan() {
    if (Pushed)
      TraceLog::popCrashStack();
    if (!Active)
      return;
    uint64_t End = TraceLog::nowUs();
    TraceLog::record(std::move(Name), StartUs, End - StartUs, Arg, HasArg);
  }

private:
  TraceSpan(std::string_view Name, int64_t Arg, bool HasArg)
      : Active(TraceLog::enabled()), Arg(Arg), HasArg(HasArg) {
    if (Active) {
      this->Name.assign(Name);
      StartUs = TraceLog::nowUs();
    }
    if (TraceLog::stackCaptureEnabled())
      Pushed = TraceLog::pushCrashStack(Name);
  }

  bool Active;
  bool Pushed = false;
  int64_t Arg;
  bool HasArg;
  uint64_t StartUs = 0;
  std::string Name;
};

} // namespace cable

#endif // CABLE_SUPPORT_TRACEEVENT_H

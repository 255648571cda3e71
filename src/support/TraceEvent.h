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
/// fsyncs, session commands.
///
///   { TraceSpan Span("lattice-build"); buildLattice(...); }
///
/// Design:
///
///  - One thread. Cable answers one user's commands on one thread, and
///    the recorder is built for exactly that: one span ring and one span
///    stack, no locks, no thread ids. The first thread that records owns
///    the recorder; debug builds assert that every later span closes on
///    it. The export names that thread "main" and gives every event tid 1.
///  - Disarmed (the default), a span costs one relaxed atomic load; no
///    clock sample, no allocation. Arm with TraceLog::setEnabled(true)
///    (done by `--trace-out`).
///  - Armed, each completed span appends one event to the ring. When the
///    ring fills, the oldest events are overwritten and counted as
///    dropped: tracing never grows without bound and never blocks the
///    pipeline.
///  - Timestamps are steady-clock microseconds relative to the first
///    armed use in the process.
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

/// Process-wide span log. Single-threaded: see the file comment.
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

  /// Renders every recorded span as a Chrome trace-event JSON document.
  /// \p ToolName goes into otherData along with the build stamp.
  static std::string exportJson(std::string_view ToolName);

  /// exportJson written atomically to \p Path (AtomicFile).
  static Status writeJson(const std::string &Path, std::string_view ToolName);

  /// Total spans recorded, including overwritten ones.
  static uint64_t spanCount();

  /// Spans lost to ring-buffer wraparound.
  static uint64_t droppedCount();

  /// Drops every recorded span and resets the span and drop counts (test
  /// isolation).
  static void reset();

  /// Sets the ring capacity in events (default 65536, minimum 4) and, like
  /// reset(), drops every recorded span.
  static void setRingCapacity(size_t Events);

  //===--------------------------------------------------------------------===//
  // The active-span stack (the flight recorder's "what was running").
  //
  // Armed by CrashDump::install via setStackCapture: each live TraceSpan
  // pushes its name onto one fixed-storage stack at construction and pops
  // at destruction, so a fatal-signal dump can report the open spans
  // without touching the heap. Disarmed (the default) the cost is one
  // extra relaxed load per span.
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

  /// The open spans: \p Frames points at \p Depth NUL-terminated names
  /// spaced kCrashStackNameBytes apart, outermost first. The storage is
  /// static and never freed.
  struct CrashStackView {
    uint32_t Depth = 0;
    const char *Frames = nullptr;
  };

  /// Async-signal-safe: the open spans as a handler interrupting the
  /// recording thread sees them. A push the signal interrupted is not yet
  /// counted; a pop it interrupted may still show its frame.
  static CrashStackView crashStack();

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

/// One scoped span. Records [construction, destruction) when tracing is
/// armed; otherwise costs one relaxed load.
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

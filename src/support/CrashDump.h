//===- support/CrashDump.h - Fatal-path flight recorder ---------*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The black box: an async-signal-safe dumper that leaves a
/// `cable-crashdump/1` JSON document when a Cable process dies badly —
/// fatal signals (SIGSEGV/SIGABRT/SIGBUS), std::terminate, the tools'
/// exit-4 unhandled-exception path, and injected `crash`-mode failpoints.
///
/// The dump carries everything a post-mortem needs and nothing that
/// requires a live process: the last-N structured log records (from
/// Log's pre-rendered crash ring), the open spans of the one recording
/// thread (TraceLog's fixed-storage stack), a metrics snapshot (the crash
/// index: counters, gauge value/high, histogram count/sum/max), and the
/// BuildInfo stamp. Everything on the dump path is arranged at install
/// time — the output fd is pre-opened, the document prefix is
/// pre-formatted — so the fatal path itself is write(2) loops over
/// static buffers.
///
/// Enabled by the CABLE_CRASH_DIR environment variable (the tools call
/// install() unconditionally; without the variable it is a no-op). The
/// dump lands at `$CABLE_CRASH_DIR/crash.<pid>.json`. A clean exit
/// unlinks the (empty) file via disarm().
///
/// Satellite duty: installTerminateHandlers and registerSignalArtifacts
/// wire both tools' SIGINT/SIGTERM fast-exit path, so an interrupted run
/// still flushes `--metrics-out`, `--run-report`, and `--log-out` through
/// the same signal-safe writer instead of dying observability-blind.
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_SUPPORT_CRASHDUMP_H
#define CABLE_SUPPORT_CRASHDUMP_H

#include <string>
#include <vector>

namespace cable {

class CrashDump {
public:
  /// Installs the recorder when $CABLE_CRASH_DIR is set: pre-opens the
  /// dump file, pre-formats the document prefix, hooks
  /// SIGSEGV/SIGABRT/SIGBUS and std::terminate, and arms Log's crash
  /// ring and TraceLog's span-stack capture. Without the variable this
  /// is a no-op. Call once, early, after observability flags are parsed.
  static void install(const char *Tool);

  /// install() with an explicit directory (tests).
  static void installAt(const char *Tool, const char *Dir);

  /// Clean-exit teardown: closes the fd and unlinks the file unless a
  /// dump was actually written.
  static void disarm();

  /// Writes the dump now. Async-signal-safe. \p Reason must be a string
  /// with static storage ("signal", "terminate", "unhandled-exception",
  /// "failpoint-crash"); \p Sig is the signal number or 0. Only the
  /// first dump wins; later calls return false. Returns false when not
  /// installed.
  static bool dumpNow(const char *Reason, int Sig = 0);

  /// Registers the observability artifact paths the SIGINT/SIGTERM
  /// handler must flush. Independent of CABLE_CRASH_DIR. Empty paths are
  /// skipped at signal time. \p Args is pre-escaped here, in normal
  /// context, so the handler only writes bytes.
  static void registerSignalArtifacts(const char *Tool,
                                      const std::string &LogOut,
                                      const std::string &MetricsOut,
                                      const std::string &ReportOut,
                                      const std::vector<std::string> &Args);

  /// Async-signal-safe: writes reduced-but-valid `cable-log/1`,
  /// `cable-metrics/1`, and `cable-run-report/1` documents (whichever
  /// paths were registered) for a run dying with \p ExitCode. Histograms
  /// carry count/sum/max only and log records come from the crash ring —
  /// documented as the signal-exit subset in docs/OBSERVABILITY.md.
  static void writeArtifactsFromSignal(int ExitCode);

  /// The tools' signal setup. SIGINT/SIGTERM fsync \p JournalFd (when
  /// >= 0), flush the registered artifacts via writeArtifactsFromSignal,
  /// and _exit with 128 + the signal number. Every applied journal
  /// command was already fsynced before it ran (write-ahead), so the
  /// fsync is belt and braces: Ctrl-C never loses labels. SIGPIPE is
  /// ignored, so a dead pipe reader (a closed pager) surfaces as an EPIPE
  /// error status rather than killing the process. Call again with a new
  /// fd when a journal opens, and with -1 before it closes.
  static void installTerminateHandlers(int JournalFd = -1);
};

} // namespace cable

#endif // CABLE_SUPPORT_CRASHDUMP_H

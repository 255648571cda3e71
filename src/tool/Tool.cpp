//===- tool/Tool.cpp - Setup shared by the command-line tools -------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "tool/Tool.h"

#include "support/BuildInfo.h"
#include "support/CrashDump.h"
#include "support/Failpoint.h"
#include "support/Log.h"
#include "support/Metrics.h"
#include "support/RunReport.h"
#include "support/StringUtil.h"
#include "support/TraceEvent.h"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <vector>

using namespace cable;

const char *const Tool::CommonUsage =
    "\n"
    "lattice cache and budgets:\n"
    "  --cache-dir DIR    content-addressed lattice store: verified warm\n"
    "                     loads instead of rebuilds; corrupt artifacts are\n"
    "                     quarantined and rebuilt (default: $CABLE_CACHE_DIR)\n"
    "  --no-cache         ignore $CABLE_CACHE_DIR and any --cache-dir\n"
    "  --time-budget MS   wall-clock limit per budgeted phase\n"
    "  --max-concepts N   stop after enumerating N concepts\n"
    "  --keep-going       on budget exhaustion, continue with what was\n"
    "                     computed instead of exiting\n"
    "\n"
    "observability (see docs/OBSERVABILITY.md):\n"
    "  --version          print version, git SHA, and build type; exit\n"
    "  --stats            print the metrics table before exiting\n"
    "  --metrics-out FILE write a cable-metrics/1 JSON snapshot at exit\n"
    "  --trace-out FILE   write Chrome trace-event JSON (Perfetto) at exit\n"
    "  --run-report FILE  write a cable-run-report/1 JSON document at exit\n"
    "  --log-out FILE     write cable-log/1 JSONL at exit ($CABLE_LOG)\n"
    "  --log-level LEVEL  debug|info|warn|error (default info)\n"
    "  --list-failpoints  list fault-injection point names and exit\n"
    "  $CABLE_CRASH_DIR=DIR makes a crash leave DIR/crash.<pid>.json\n";

namespace {

/// Logs and reports an artifact writer's failure. The log itself is
/// written last, so these land in it.
void warnWriteFailed(const char *What, const std::string &Path,
                     const Status &St) {
  CABLE_LOG_WARN("tool", "observability-write-failed",
                 std::string(What) + " not written",
                 {Log::str("path", Path), Log::str("error", St.message())});
  std::fprintf(stderr, "warning: cannot write %s: %s\n", What,
               St.diagnostic().render().c_str());
}

} // namespace

std::optional<int> Tool::parse(std::initializer_list<ToolFlag> Own) {
  if (Status St = Failpoint::configureFromEnv(); !St.isOk()) {
    std::fprintf(stderr, "error: CABLE_FAILPOINTS: %s\n",
                 St.message().c_str());
    return 1;
  }
  bool NoCache = false, Help = false, Version = false, ListFailpoints = false;
  std::optional<unsigned long> TimeBudget, MaxConcepts;
  std::string LogLevel;
  std::vector<ToolFlag> Flags = {
      {"--cache-dir", &Build.CacheDir},
      {"--no-cache", &NoCache},
      {"--time-budget", &TimeBudget},
      {"--max-concepts", &MaxConcepts},
      {"--keep-going", &KeepGoing},
      {"--stats", &PrintStats},
      {"--metrics-out", &MetricsOut},
      {"--trace-out", &TraceOut},
      {"--run-report", &RunReportOut},
      {"--log-out", &LogOut},
      {"--log-level", &LogLevel},
      {"--version", &Version},
      {"--list-failpoints", &ListFailpoints},
      {"--help", &Help},
      {"-h", &Help},
  };
  Flags.insert(Flags.end(), Own.begin(), Own.end());

  for (size_t I = 0; I < Args.size(); ++I) {
    const std::string &Arg = Args[I];
    const ToolFlag *F = nullptr;
    for (const ToolFlag &Candidate : Flags)
      if (Arg == Candidate.Name)
        F = &Candidate;
    if (!F) {
      std::fprintf(stderr, "unknown option '%s' (try --help)\n", Arg.c_str());
      return 1;
    }
    if (bool *const *Switch = std::get_if<bool *>(&F->Target)) {
      **Switch = true;
      // The informational flags end the run where they stand.
      if (Help) {
        printUsage();
        return 0;
      }
      if (Version) {
        std::printf("%s\n", buildinfo::versionLine(Name).c_str());
        return 0;
      }
      if (ListFailpoints) {
        for (const std::string &Point : Failpoint::registeredNames())
          std::printf("%s\n", Point.c_str());
        return 0;
      }
      continue;
    }
    if (I + 1 >= Args.size()) {
      std::fprintf(stderr, "error: %s expects a value\n", Arg.c_str());
      return 1;
    }
    const std::string &Value = Args[++I];
    if (std::string *const *Text = std::get_if<std::string *>(&F->Target)) {
      **Text = Value;
      continue;
    }
    std::optional<unsigned long> N = parseUnsignedLong(Value);
    if (!N) {
      std::fprintf(stderr, "error: %s expects a number, got '%s'\n",
                   Arg.c_str(), Value.c_str());
      return 1;
    }
    if (unsigned long *const *Plain = std::get_if<unsigned long *>(&F->Target))
      **Plain = *N;
    else
      *std::get<std::optional<unsigned long> *>(F->Target) = N;
  }

  if (!LogLevel.empty()) {
    Log::Level L = Log::Level::Info;
    if (!Log::parseLevel(LogLevel, L)) {
      std::fprintf(stderr,
                   "error: --log-level expects debug, info, warn, or error, "
                   "got '%s'\n",
                   LogLevel.c_str());
      return 1;
    }
    Log::setLevel(L);
  }
  if (TimeBudget) {
    // A larger count would wrap to a negative duration.
    long long Max = std::chrono::milliseconds::max().count();
    if (*TimeBudget > static_cast<unsigned long long>(Max)) {
      std::fprintf(stderr,
                   "error: --time-budget expects a number, got '%lu' (at "
                   "most %lld)\n",
                   *TimeBudget, Max);
      return 1;
    }
    Build.ResourceBudget.TimeLimit = std::chrono::milliseconds(*TimeBudget);
  }
  if (MaxConcepts)
    Build.ResourceBudget.MaxConcepts = *MaxConcepts;
  if (NoCache)
    Build.CacheDir.clear();
  else if (Build.CacheDir.empty())
    if (const char *Env = std::getenv("CABLE_CACHE_DIR"))
      Build.CacheDir = Env;
  if (LogOut.empty())
    if (const char *Env = std::getenv("CABLE_LOG"); Env && *Env)
      LogOut = Env;

  // Armed before any input is read, so journal recovery and cache events
  // from session setup are captured.
  if (PrintStats || !MetricsOut.empty() || !RunReportOut.empty())
    Metrics::setEnabled(true);
  if (!TraceOut.empty()) {
    TraceLog::setEnabled(true);
    TraceLog::setThreadName("main");
  }
  if (!LogOut.empty())
    Log::setEnabled(true);
  // The flight recorder (a no-op without $CABLE_CRASH_DIR) and the
  // signal-exit artifact paths: armed before the work starts so the
  // earliest failure already leaves a black box.
  CrashDump::install(Name);
  CrashDump::registerSignalArtifacts(Name, LogOut, MetricsOut, RunReportOut,
                                     Args);
  return std::nullopt;
}

int Tool::fail(Diagnostic D, const std::string &File) {
  if (!File.empty())
    D.File = File;
  std::fprintf(stderr, "%s\n", D.render().c_str());
  return 1;
}

std::optional<int> Tool::truncatedBy(const Status &Why, const char *Stage,
                                     const char *KeepGoingDoes) {
  Truncated = true;
  Diagnostic D = Why.diagnostic();
  if (!KeepGoing) {
    std::fprintf(stderr, "%s\n", D.render().c_str());
    std::fprintf(stderr,
                 "error: %s was truncated; rerun with --keep-going to %s\n",
                 Stage, KeepGoingDoes);
    return 1;
  }
  D.Level = Severity::Warning;
  std::printf("%s\n", D.render().c_str());
  return std::nullopt;
}

void Tool::warnCacheDiagnostics(const Session &S) {
  for (const Status &CacheSt : S.cacheDiagnostics()) {
    Diagnostic Warn = CacheSt.diagnostic();
    Warn.Level = Severity::Warning;
    std::fprintf(stderr, "%s\n", Warn.render().c_str());
  }
}

void Tool::emitObservability(int ExitCode) const {
  if (PrintStats)
    std::printf("\n-- run statistics --\n%s", Metrics::renderTable().c_str());
  if (!TraceOut.empty())
    if (Status St = TraceLog::writeJson(TraceOut, Name); !St.isOk())
      warnWriteFailed("trace", TraceOut, St);
  if (!MetricsOut.empty())
    if (Status St = writeMetricsJson(MetricsOut, Name); !St.isOk())
      warnWriteFailed("metrics", MetricsOut, St);
  if (!RunReportOut.empty()) {
    RunReportInfo Info;
    Info.Tool = Name;
    Info.Args = Args;
    Info.Truncated = Truncated;
    Info.CleanExit = CleanExit.value_or(ExitCode == 0);
    Info.ExitCode = ExitCode;
    if (Status St = writeRunReport(RunReportOut, Info); !St.isOk())
      warnWriteFailed("run report", RunReportOut, St);
  }
  // The log goes last so the other writers' failures are on record in it.
  if (!LogOut.empty())
    if (Status St = Log::writeJsonl(LogOut, Name); !St.isOk())
      std::fprintf(stderr, "warning: cannot write log: %s\n",
                   St.diagnostic().render().c_str());
}

int Tool::main(int Argc, char **Argv, int (*Body)(Tool &)) {
  // Installed before any work: SIGPIPE must be ignored from the first
  // write (a dead pipe reader is an EPIPE status, not a process death).
  // cable-cli re-installs it with the journal's fd once a journal opens.
  CrashDump::installTerminateHandlers();
  Args.assign(Argv + 1, Argv + Argc);
  int Code;
  try {
    Code = Body(*this);
  } catch (const std::exception &E) {
    // An escaping exception (e.g. a real bad_alloc) surfaces here instead
    // of aborting. The exit-4 path is a crash in every sense but the
    // signal: leave a black box before the normal writers run (they may be
    // the casualty). A journal on disk stays valid either way.
    std::fprintf(stderr, "error: unhandled exception: %s\n", E.what());
    CABLE_LOG_ERROR("tool", "unhandled-exception", "exception reached main",
                    {Log::str("what", E.what())});
    CrashDump::dumpNow("unhandled-exception");
    Code = 4;
  }
  emitObservability(Code);
  // Clean exits unlink the recorder's untouched pre-opened file.
  CrashDump::disarm();
  return Code;
}

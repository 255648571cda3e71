//===- tools/spec-lint.cpp - Batch specification checking -------*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The non-interactive half of the paper's workflow: check a temporal
// specification against program traces and report the violations *grouped
// by concept* instead of as a flat list — §2.1's complaint is precisely
// that "the tool lists each trace with all of the calls it makes ... and
// in no particular order". For each maximal violation cluster the report
// shows the trace count, the shared reference-FA transitions, an
// sk-strings FA summary, and sample traces.
//
// Usage:
//   spec-lint --spec FILE --traces FILE            (scenario traces)
//   spec-lint --spec FILE --runs FILE --seeds a,b  (slice runs first)
//   spec-lint --spec-regex 'REGEX' ...
//
// Exit code: 0 = no violations, 1 = violations reported or an error
// (bad flags, unreadable files, malformed input — diagnosed on stderr
// with file:line:col positions, never an abort).
//
//===----------------------------------------------------------------------===//

#include "cable/Session.h"
#include "fa/Parse.h"
#include "fa/Regex.h"
#include "fa/Templates.h"
#include "support/AtomicFile.h"
#include "support/BuildInfo.h"
#include "support/CrashDump.h"
#include "support/Failpoint.h"
#include "support/Log.h"
#include "support/Metrics.h"
#include "support/RunReport.h"
#include "support/StringUtil.h"
#include "support/TraceEvent.h"
#include "verifier/Verifier.h"

#include <cstdarg>
#include <cstdlib>
#include <cstdio>
#include <optional>
#include <string>

using namespace cable;

namespace {

/// The cluster report accumulates here so it can go to stdout and (with
/// --report FILE) to an atomically-replaced file in one rendering pass.
void appendf(std::string &Out, const char *Fmt, ...)
    __attribute__((format(printf, 2, 3)));
void appendf(std::string &Out, const char *Fmt, ...) {
  va_list Ap;
  va_start(Ap, Fmt);
  char Stack[512];
  va_list Copy;
  va_copy(Copy, Ap);
  int N = std::vsnprintf(Stack, sizeof(Stack), Fmt, Ap);
  va_end(Ap);
  if (N < 0) {
    va_end(Copy);
    return;
  }
  if (static_cast<size_t>(N) < sizeof(Stack)) {
    Out.append(Stack, static_cast<size_t>(N));
  } else {
    std::string Big(static_cast<size_t>(N) + 1, '\0');
    std::vsnprintf(Big.data(), Big.size(), Fmt, Copy);
    Big.resize(static_cast<size_t>(N));
    Out += Big;
  }
  va_end(Copy);
}

bool parseCount(const std::string &Text, unsigned long &Out) {
  std::optional<unsigned long> N = parseUnsignedLong(Text);
  if (!N)
    return false;
  Out = *N;
  return true;
}

void printUsage() {
  std::printf(
      "spec-lint: check a temporal specification against traces and group\n"
      "the violations with concept analysis\n"
      "\n"
      "  --spec FILE        specification automaton (fa/Parse format)\n"
      "  --spec-regex RE    specification as a regex (fa/Regex syntax)\n"
      "  --traces FILE      scenario traces, one per line\n"
      "  --runs FILE        full program runs; sliced into scenarios\n"
      "  --seeds a,b,c      seed event names for --runs slicing\n"
      "  --max-samples N    sample traces shown per cluster (default 3)\n"
      "  --report FILE      also write the cluster report to FILE\n"
      "                     (atomic replace: readers never see a torn file)\n"
      "  --dot FILE         write the violation lattice as Graphviz DOT\n"
      "  --time-budget MS   wall-clock limit per pipeline phase (scenario\n"
      "                     checking, violation clustering)\n"
      "  --max-concepts N   stop clustering after enumerating N concepts\n"
      "  --keep-going       on budget exhaustion, report what was computed\n"
      "                     (prefix of scenarios, partial clusters) instead\n"
      "                     of exiting with an error\n"
      "  --cache-dir DIR    content-addressed lattice artifact store for\n"
      "                     the violation-clustering step: verified warm\n"
      "                     hits skip the rebuild, corrupt artifacts are\n"
      "                     quarantined and rebuilt, concurrent cold\n"
      "                     starts build once (per-key flock)\n"
      "                     (default: $CABLE_CACHE_DIR, else off)\n"
      "  --no-cache         ignore $CABLE_CACHE_DIR and any --cache-dir\n"
      "  --cache-verify M   'full' checks every artifact checksum on load\n"
      "                     (default); 'header' skips the body CRC\n"
      "  --list-failpoints  list fault-injection point names and exit\n"
      "\n"
      "observability (see docs/OBSERVABILITY.md):\n"
      "  --version          print version, git SHA, and build type; exit\n"
      "  --stats            print the metrics table before exiting\n"
      "  --metrics-out FILE write a cable-metrics/1 JSON snapshot at exit\n"
      "  --trace-out FILE   record tracing spans, write Chrome trace-event\n"
      "                     JSON at exit (Perfetto / chrome://tracing)\n"
      "  --run-report FILE  write a cable-run-report/1 JSON document\n"
      "  --log-out FILE     write structured cable-log/1 JSONL at exit\n"
      "                     (default: $CABLE_LOG, else off)\n"
      "  --log-level LEVEL  debug|info|warn|error (default info)\n"
      "                     $CABLE_CRASH_DIR=DIR arms the flight recorder:\n"
      "                     a fatal signal, std::terminate, or injected\n"
      "                     crash leaves DIR/crash.<pid>.json\n");
}

/// Observability outputs, written on every exit path of main.
struct ObservabilityOptions {
  std::string TraceOut;
  std::string MetricsOut;
  std::string RunReportOut;
  std::string LogOut;
  bool PrintStats = false;
  std::vector<std::string> Args;
  bool Truncated = false;
  /// The pipeline ran to a report. Distinguishes exit 1 = "violations
  /// found" (clean) from exit 1 = "bad flags / unreadable input".
  bool Completed = false;
} GObs;

void emitObservability(int ExitCode) {
  if (GObs.PrintStats)
    std::printf("\n-- run statistics --\n%s", Metrics::renderTable().c_str());
  if (!GObs.TraceOut.empty()) {
    if (Status St = TraceLog::writeJson(GObs.TraceOut, "spec-lint");
        !St.isOk())
      std::fprintf(stderr, "warning: cannot write trace: %s\n",
                   St.diagnostic().render().c_str());
  }
  if (!GObs.MetricsOut.empty()) {
    if (Status St = writeMetricsJson(GObs.MetricsOut, "spec-lint");
        !St.isOk())
      std::fprintf(stderr, "warning: cannot write metrics: %s\n",
                   St.diagnostic().render().c_str());
  }
  if (!GObs.RunReportOut.empty()) {
    RunReportInfo Info;
    Info.Tool = "spec-lint";
    Info.Args = GObs.Args;
    Info.Truncated = GObs.Truncated;
    // Exit code 1 also covers "violations found", which is a clean run;
    // CleanExit means "the pipeline produced its report".
    Info.CleanExit = GObs.Completed;
    Info.ExitCode = ExitCode;
    if (Status St = writeRunReport(GObs.RunReportOut, Info); !St.isOk())
      std::fprintf(stderr, "warning: cannot write run report: %s\n",
                   St.diagnostic().render().c_str());
  }
  if (!GObs.LogOut.empty()) {
    if (Status St = Log::writeJsonl(GObs.LogOut, "spec-lint"); !St.isOk())
      std::fprintf(stderr, "warning: cannot write log: %s\n",
                   St.diagnostic().render().c_str());
  }
}

int runLint(int Argc, char **Argv) {
  CrashDump::installTerminateHandlers();
  for (int I = 1; I < Argc; ++I)
    GObs.Args.emplace_back(Argv[I]);
  if (Status St = Failpoint::configureFromEnv(); !St.isOk()) {
    std::fprintf(stderr, "error: CABLE_FAILPOINTS: %s\n",
                 St.message().c_str());
    return 1;
  }
  std::string SpecFile, SpecRegex, TracesFile, RunsFile, SeedsArg;
  std::string ReportFile, DotFile;
  size_t MaxSamples = 3;
  bool NoCache = false;
  SessionOptions BuildOpts;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> std::string {
      return I + 1 < Argc ? Argv[++I] : std::string();
    };
    if (Arg == "--spec")
      SpecFile = Next();
    else if (Arg == "--spec-regex")
      SpecRegex = Next();
    else if (Arg == "--traces")
      TracesFile = Next();
    else if (Arg == "--runs")
      RunsFile = Next();
    else if (Arg == "--seeds")
      SeedsArg = Next();
    else if (Arg == "--report")
      ReportFile = Next();
    else if (Arg == "--dot")
      DotFile = Next();
    else if (Arg == "--max-samples" || Arg == "--time-budget" ||
             Arg == "--max-concepts") {
      std::string Value = Next();
      unsigned long N;
      if (!parseCount(Value, N)) {
        std::fprintf(stderr, "error: %s expects a number, got '%s'\n",
                     Arg.c_str(), Value.c_str());
        return 1;
      }
      if (Arg == "--max-samples")
        MaxSamples = N;
      else if (Arg == "--time-budget")
        BuildOpts.ResourceBudget.TimeLimit = std::chrono::milliseconds(N);
      else
        BuildOpts.ResourceBudget.MaxConcepts = N;
    } else if (Arg == "--keep-going") {
      BuildOpts.KeepGoing = true;
    } else if (Arg == "--cache-dir") {
      BuildOpts.CacheDir = Next();
    } else if (Arg == "--no-cache") {
      NoCache = true;
    } else if (Arg == "--cache-verify") {
      std::string Mode = Next();
      if (Mode == "full")
        BuildOpts.CacheVerifyMode = LatticeVerify::Full;
      else if (Mode == "header")
        BuildOpts.CacheVerifyMode = LatticeVerify::Header;
      else {
        std::fprintf(stderr,
                     "error: --cache-verify expects 'full' or 'header', "
                     "got '%s'\n",
                     Mode.c_str());
        return 1;
      }
    } else if (Arg == "--list-failpoints") {
      for (const std::string &Name : Failpoint::registeredNames())
        std::printf("%s\n", Name.c_str());
      return 0;
    } else if (Arg == "--version") {
      std::printf("%s\n", buildinfo::versionLine("spec-lint").c_str());
      return 0;
    } else if (Arg == "--stats") {
      GObs.PrintStats = true;
      Metrics::setEnabled(true);
    } else if (Arg == "--metrics-out") {
      GObs.MetricsOut = Next();
      Metrics::setEnabled(true);
    } else if (Arg == "--run-report") {
      GObs.RunReportOut = Next();
      Metrics::setEnabled(true);
    } else if (Arg == "--trace-out") {
      GObs.TraceOut = Next();
      TraceLog::setEnabled(true);
      TraceLog::setThreadName("main");
    } else if (Arg == "--log-out") {
      GObs.LogOut = Next();
      Log::setEnabled(true);
    } else if (Arg == "--log-level") {
      std::string LevelText = Next();
      Log::Level L;
      if (!Log::parseLevel(LevelText, L)) {
        std::fprintf(stderr,
                     "error: --log-level expects debug, info, warn, or "
                     "error, got '%s'\n",
                     LevelText.c_str());
        return 1;
      }
      Log::setLevel(L);
    } else if (Arg == "--help" || Arg == "-h") {
      printUsage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", Arg.c_str());
      return 1;
    }
  }
  if ((SpecFile.empty() == SpecRegex.empty()) ||
      (TracesFile.empty() == RunsFile.empty())) {
    printUsage();
    return 1;
  }
  if (BuildOpts.CacheDir.empty() && !NoCache)
    if (const char *Env = std::getenv("CABLE_CACHE_DIR"))
      BuildOpts.CacheDir = Env;
  if (NoCache)
    BuildOpts.CacheDir.clear();
  if (GObs.LogOut.empty())
    if (const char *Env = std::getenv("CABLE_LOG"); Env && *Env) {
      GObs.LogOut = Env;
      Log::setEnabled(true);
    }
  // Flight recorder (no-op without $CABLE_CRASH_DIR) and the signal-exit
  // artifact paths, armed before any input is read.
  CrashDump::install("spec-lint");
  CrashDump::registerSignalArtifacts("spec-lint", GObs.LogOut,
                                     GObs.MetricsOut, GObs.RunReportOut,
                                     GObs.Args);

  // Load traces or runs.
  std::string InputPath = TracesFile.empty() ? RunsFile : TracesFile;
  StatusOr<std::string> InputText = readFileToString(InputPath);
  if (!InputText) {
    std::fprintf(stderr, "%s\n",
                 InputText.status().diagnostic().render().c_str());
    return 1;
  }
  Diagnostic Diag;
  std::optional<TraceSet> Input = TraceSet::parse(*InputText, Diag);
  if (!Input) {
    Diag.File = InputPath;
    std::fprintf(stderr, "%s\n", Diag.render().c_str());
    return 1;
  }

  // Load the specification.
  Automaton Spec;
  if (!SpecFile.empty()) {
    StatusOr<std::string> SpecText = readFileToString(SpecFile);
    if (!SpecText) {
      std::fprintf(stderr, "%s\n",
                   SpecText.status().diagnostic().render().c_str());
      return 1;
    }
    std::optional<Automaton> FA =
        parseAutomaton(*SpecText, Input->table(), Diag);
    if (!FA) {
      Diag.File = SpecFile;
      std::fprintf(stderr, "%s\n", Diag.render().c_str());
      return 1;
    }
    Spec = std::move(*FA);
  } else {
    std::optional<Automaton> FA = compileRegex(SpecRegex, Input->table(), Diag);
    if (!FA) {
      Diag.File = "--spec-regex";
      std::fprintf(stderr, "%s\n", Diag.render().c_str());
      return 1;
    }
    Spec = FA->withoutEpsilons();
  }

  // Verify (budgeted: one checkpoint per scenario).
  BudgetMeter VerifyMeter(BuildOpts.ResourceBudget);
  VerificationResult R;
  TraceSpan LintSpan("spec-lint", static_cast<int64_t>(Input->size()));
  if (!RunsFile.empty()) {
    ExtractorOptions Extract;
    for (const std::string &Seed : splitString(SeedsArg, ','))
      if (!Seed.empty())
        Extract.SeedNames.push_back(Seed);
    if (Extract.SeedNames.empty()) {
      std::fprintf(stderr, "error: --runs requires --seeds\n");
      return 1;
    }
    Extract.TransitiveValues = true;
    R = verifyAgainstRuns(*Input, Spec, Extract, VerifyMeter);
  } else {
    R = verifyScenarios(*Input, Spec, VerifyMeter);
  }
  if (R.Truncated) {
    GObs.Truncated = true;
    if (!BuildOpts.KeepGoing) {
      std::fprintf(stderr, "%s\n",
                   R.CheckStatus.diagnostic().render().c_str());
      std::fprintf(stderr,
                   "error: scenario checking was truncated; rerun with "
                   "--keep-going to report the checked prefix\n");
      return 1;
    }
    Diagnostic Warn = R.CheckStatus.diagnostic();
    Warn.Level = Severity::Warning;
    std::printf("%s\n", Warn.render().c_str());
    std::printf("warning: only the first %zu scenario(s) were checked\n",
                R.NumScenarios);
  }

  std::string Report;
  appendf(Report,
          "spec-lint: %zu scenario(s) checked, %zu violation(s), "
          "%zu accepted\n",
          R.NumScenarios, R.Violations.size(), R.Accepted.size());
  auto Finish = [&](int Code) {
    std::printf("%s", Report.c_str());
    if (!ReportFile.empty()) {
      if (Status St = AtomicFile::write(ReportFile, Report); !St.isOk()) {
        std::fprintf(stderr, "%s\n", St.diagnostic().render().c_str());
        return 1;
      }
    }
    GObs.Completed = true;
    return Code;
  };
  if (R.Violations.empty()) {
    if (!DotFile.empty())
      appendf(Report, "no violations; %s not written\n", DotFile.c_str());
    return Finish(0);
  }

  // Cluster the violations and report the maximal clusters (the top
  // concept's children), each with the three §4.1 summaries.
  Automaton Ref = makeUnorderedFA(templateAlphabet(R.Violations.traces()),
                                  R.Violations.table());
  StatusOr<Session> Built =
      Session::build(std::move(R.Violations), std::move(Ref), BuildOpts);
  if (!Built) {
    std::fprintf(stderr, "%s\n", Built.status().diagnostic().render().c_str());
    return 1;
  }
  Session &S = *Built;
  // Cache trouble degrades to a plain rebuild; each incident still gets a
  // warning so a corrupting disk or a foreign file in the store is seen.
  for (const Status &CacheSt : S.cacheDiagnostics()) {
    Diagnostic Warn = CacheSt.diagnostic();
    Warn.Level = Severity::Warning;
    std::fprintf(stderr, "%s\n", Warn.render().c_str());
  }
  if (S.truncated()) {
    GObs.Truncated = true;
    const Diagnostic &D = S.buildStatus().diagnostic();
    if (!BuildOpts.KeepGoing) {
      std::fprintf(stderr, "%s\n", D.render().c_str());
      std::fprintf(stderr,
                   "error: violation clustering was truncated; rerun with "
                   "--keep-going to report the partial clusters\n");
      return 1;
    }
    Diagnostic Warn = D;
    Warn.Level = Severity::Warning;
    std::printf("%s\n", Warn.render().c_str());
    std::printf("warning: clusters below are from a partial lattice; the "
                "baseline identical-trace clustering still has all %zu "
                "class(es)\n",
                S.baselineClasses().numClasses());
  }
  const ConceptLattice &L = S.lattice();

  appendf(Report,
          "\n%zu unique violation trace(s) in %zu concept(s); maximal "
          "clusters:\n",
          S.numObjects(), L.size());
  std::vector<Session::NodeId> Clusters = L.children(L.top());
  if (Clusters.empty())
    Clusters.push_back(L.top());
  for (Session::NodeId Id : Clusters) {
    const Concept &C = L.node(Id);
    if (C.Extent.none())
      continue;
    appendf(Report,
            "\n== cluster c%u: %zu trace(s), %zu shared transition(s)\n", Id,
            C.Extent.count(), C.Intent.count());
    appendf(Report, "   transitions:");
    for (TransitionId TI : S.showTransitions(Id))
      appendf(Report, " %s",
              S.referenceFA().transition(TI).Label.render(S.table()).c_str());
    appendf(Report, "\n   summary FA:\n");
    Automaton FA = S.showFA(Id, TraceSelect::All);
    std::string Text = FA.renderText(S.table());
    // Indent the FA listing.
    std::string Indented = "     ";
    for (char Ch : Text) {
      Indented += Ch;
      if (Ch == '\n')
        Indented += "     ";
    }
    appendf(Report, "%s\n", Indented.c_str());
    size_t Shown = 0;
    for (size_t Obj : S.showTraces(Id, TraceSelect::All)) {
      if (++Shown > MaxSamples) {
        appendf(Report, "   ...\n");
        break;
      }
      appendf(Report, "   %s\n", S.object(Obj).render(S.table()).c_str());
    }
  }
  if (!DotFile.empty()) {
    if (Status St = AtomicFile::write(DotFile, S.renderDot("spec_lint"));
        !St.isOk()) {
      std::fprintf(stderr, "%s\n", St.diagnostic().render().c_str());
      return 1;
    }
  }
  return Finish(1);
}

} // namespace

int main(int Argc, char **Argv) {
  int Code = runLint(Argc, Argv);
  emitObservability(Code);
  CrashDump::disarm();
  return Code;
}

//===- tools/cable-cli.cpp - The Cable tool ---------------------*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// A command-line rendition of the paper's Dotty-based Cable tool (§4). It
// loads traces (from a file, or a generated protocol workload), clusters
// them against a reference FA, and offers the paper's commands: concept
// listing with the green/yellow/red states, the three summary views, the
// `Label traces` command with its selection semantics, Focus sub-sessions
// with label merge-back, and DOT export. Reads commands from stdin (or a
// --script file), so it works both interactively and scripted.
//
// With --journal DIR every command is write-ahead logged before it is
// applied and the session state is snapshotted periodically, so a crash,
// Ctrl-C, or I/O failure never loses labeling work: restarting with the
// same --journal DIR (and the same input flags) replays the snapshot plus
// the journal tail through the same command dispatcher and resumes exactly
// where the session died.
//
// Usage:
//   cable-cli --traces FILE [--ref REGEX | --unordered | --seed EVENT]
//   cable-cli --protocol NAME [--seed EVENT | ...]   (synthetic workload)
//   cable-cli --help
//
//===----------------------------------------------------------------------===//

#include "cable/Advisor.h"
#include "cable/Journal.h"
#include "cable/Session.h"
#include "cable/Strategies.h"
#include "cable/WellFormed.h"
#include "fa/Dfa.h"
#include "fa/Parse.h"
#include "fa/Regex.h"
#include "fa/Templates.h"
#include "support/AtomicFile.h"
#include "support/BuildInfo.h"
#include "support/CrashDump.h"
#include "support/Failpoint.h"
#include "support/Log.h"
#include "support/Metrics.h"
#include "support/RNG.h"
#include "support/RunReport.h"
#include "support/StringUtil.h"
#include "support/TraceEvent.h"
#include "workload/Generator.h"
#include "workload/Oracle.h"
#include "workload/ReferenceFA.h"

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

using namespace cable;

namespace {

void printUsage() {
  std::printf(
      "cable-cli: debug temporal specifications with concept analysis\n"
      "\n"
      "input (one of):\n"
      "  --traces FILE      load traces (one per line: name or name(v0,..))\n"
      "  --protocol NAME    generate the named synthetic workload\n"
      "                     (one of the 17 evaluation protocols or 'stdio')\n"
      "\n"
      "reference FA (default: unordered template):\n"
      "  --ref REGEX        compile REGEX (fa/Regex syntax)\n"
      "  --ref-file FILE    load an automaton in the fa/Parse format\n"
      "  --seed EVENT       seed-order template on EVENT, e.g. XtFree(v0)\n"
      "  --recommended      protocol's recommended FA (with --protocol)\n"
      "\n"
      "lattice cache:\n"
      "  --cache-dir DIR    content-addressed lattice artifact store: a\n"
      "                     completed build publishes its lattice (atomic\n"
      "                     write-temp + fsync + rename), later runs with\n"
      "                     the same context x builder x budget key start\n"
      "                     from a verified mmap instead of rebuilding;\n"
      "                     concurrent cold starts build once (per-key\n"
      "                     flock single-flight); corrupt artifacts are\n"
      "                     quarantined to <key>.corrupt.<n> and rebuilt\n"
      "                     (default: $CABLE_CACHE_DIR, else off)\n"
      "  --no-cache         ignore $CABLE_CACHE_DIR and any --cache-dir\n"
      "  --cache-verify M   'full' verifies every section checksum on\n"
      "                     load (default); 'header' skips the body CRC\n"
      "                     (structural bounds are always checked)\n"
      "\n"
      "resource budgets:\n"
      "  --time-budget MS   wall-clock limit for lattice construction\n"
      "  --max-concepts N   stop after enumerating N concepts\n"
      "  --keep-going       on budget exhaustion, continue with the partial\n"
      "                     lattice and the (always complete) identical-\n"
      "                     trace baseline clustering instead of exiting\n"
      "\n"
      "durability:\n"
      "  --journal DIR      write-ahead log + snapshots in DIR; restarting\n"
      "                     with the same DIR (and input flags) recovers\n"
      "                     and resumes the session after a crash\n"
      "  --snapshot-every N compact the journal every N commands\n"
      "                     (default 25; 0 = after every command)\n"
      "  --journal-sync M   when appends reach disk: 'always' fsyncs each\n"
      "                     command before applying it (interactive\n"
      "                     default; at most the in-flight command is\n"
      "                     lost, even to power failure), 'batch' defers\n"
      "                     the fsync to snapshots and shutdown (--script\n"
      "                     default; a process crash still loses nothing,\n"
      "                     and the script re-seeds anything a power cut\n"
      "                     could drop)\n"
      "  --script FILE      read commands from FILE instead of stdin; with\n"
      "                     --journal, resumes at the first line the\n"
      "                     journal has not yet made durable\n"
      "  --list-failpoints  list fault-injection point names and exit\n"
      "\n"
      "observability (see docs/OBSERVABILITY.md):\n"
      "  --version          print version, git SHA, and build type; exit\n"
      "  --stats            print the metrics table when the session ends\n"
      "  --metrics-out FILE write a cable-metrics/1 JSON snapshot at exit\n"
      "  --trace-out FILE   record tracing spans and write Chrome\n"
      "                     trace-event JSON at exit (open in Perfetto or\n"
      "                     chrome://tracing)\n"
      "  --run-report FILE  write a cable-run-report/1 JSON document (tool,\n"
      "                     argv, build stamp, metrics, truncation) at exit\n"
      "  --log-out FILE     write structured cable-log/1 JSONL at exit\n"
      "                     (default: $CABLE_LOG, else off)\n"
      "  --log-level LEVEL  debug|info|warn|error (default info)\n"
      "                     $CABLE_CRASH_DIR=DIR arms the flight recorder:\n"
      "                     a fatal signal, std::terminate, or injected\n"
      "                     crash leaves DIR/crash.<pid>.json\n"
      "\n"
      "commands (stdin):\n"
      "  ls                  list concepts (state, size, similarity)\n"
      "  fa ID [SEL]         Show FA summary (SEL: all|unlabeled|LABEL)\n"
      "  transitions ID      Show transitions of the concept's intent\n"
      "  traces ID [SEL]     Show traces\n"
      "  label ID NAME [SEL] Label traces (SEL: all|unlabeled|from OLD)\n"
      "  focus ID REGEX      start a Focus sub-session with REGEX\n"
      "  unfocus             end the sub-session, merging labels back\n"
      "  check NAME          FA over all traces labeled NAME (Step 2b)\n"
      "  diff NAME NAME      shortest trace separating two labels' FAs\n"
      "  suggest ID          rank focus seeds that would split concept ID\n"
      "  meet ID ID          greatest lower bound of two concepts\n"
      "  join ID ID          least upper bound of two concepts\n"
      "  undo                revert the last labeling operation\n"
      "  save FILE           save the current labels (atomic, checksummed)\n"
      "  load FILE           restore labels saved with 'save'\n"
      "  oracle              auto-label with the protocol oracle (demo)\n"
      "  dot FILE            write the lattice as Graphviz DOT (atomic)\n"
      "  classes             list identical-trace baseline classes (§5)\n"
      "  status              labeling progress\n"
      "  stats               metrics recorded so far (arm with --stats,\n"
      "                      --metrics-out, or --run-report)\n"
      "  help / quit\n");
}

struct CliState {
  std::unique_ptr<Session> Base;
  // Focus stack: sessions above Base; labels merge down on unfocus.
  std::vector<std::unique_ptr<FocusSession>> Stack;
  std::optional<ProtocolModel> Protocol;

  // Durability (idle unless --journal was given).
  Journal Wal;
  unsigned long SnapshotEvery = 25;
  uint64_t SinceSnapshot = 0;

  Session &current() {
    return Stack.empty() ? *Base : Stack.back()->Sub;
  }
  Session &parentOfTop() {
    return Stack.size() <= 1 ? *Base : Stack[Stack.size() - 2]->Sub;
  }
};

std::optional<TraceSelect> parseSelect(const std::vector<std::string> &Args,
                                       size_t From, Session &S,
                                       std::optional<LabelId> &FromLabel) {
  if (Args.size() <= From)
    return TraceSelect::All;
  if (Args[From] == "all")
    return TraceSelect::All;
  if (Args[From] == "unlabeled")
    return TraceSelect::Unlabeled;
  if (Args[From] == "from" && Args.size() > From + 1) {
    FromLabel = S.internLabel(Args[From + 1]);
    return TraceSelect::WithLabel;
  }
  // A bare label name.
  FromLabel = S.internLabel(Args[From]);
  return TraceSelect::WithLabel;
}

std::optional<Session::NodeId> parseConcept(const std::string &Text,
                                            const Session &S) {
  std::string_view Id = Text;
  if (!Id.empty() && Id[0] == 'c')
    Id.remove_prefix(1);
  std::optional<unsigned long> N = parseUnsignedLong(Id);
  if (!N) {
    std::printf("error: bad concept id '%s'\n", Text.c_str());
    return std::nullopt;
  }
  if (*N >= S.lattice().size()) {
    std::printf("error: concept %lu out of range (lattice has %zu)\n", *N,
                S.lattice().size());
    return std::nullopt;
  }
  return static_cast<Session::NodeId>(*N);
}

void cmdLs(Session &S) {
  for (Session::NodeId Id : S.lattice().topDownOrder()) {
    const char *State = "";
    switch (S.stateOf(Id)) {
    case ConceptState::Unlabeled:
      State = "[green ]";
      break;
    case ConceptState::PartlyLabeled:
      State = "[yellow]";
      break;
    case ConceptState::FullyLabeled:
      State = "[red   ]";
      break;
    }
    const Concept &C = S.lattice().node(Id);
    std::printf("%s c%-3u traces=%-4zu sim=%-3zu children:", State, Id,
                C.Extent.count(), C.Intent.count());
    for (Session::NodeId Child : S.lattice().children(Id))
      std::printf(" c%u", Child);
    std::printf("\n");
  }
}

void cmdStatus(Session &S) {
  size_t Unlabeled = S.unlabeledObjects().count();
  std::printf("%zu unique traces; %zu unlabeled; %zu labels; %zu concepts\n",
              S.numObjects(), Unlabeled, S.numLabels(), S.lattice().size());
  for (LabelId L = 0; L < S.numLabels(); ++L)
    std::printf("  %-16s %zu trace(s)\n", S.labelName(L).c_str(),
                S.objectsWithLabel(L).count());
  if (!S.rejectedObjects().empty())
    std::printf("warning: %zu trace(s) rejected by the reference FA\n",
                S.rejectedObjects().size());
}

/// Executes one already-split command. The dispatcher is shared between
/// live input and journal replay, which is what makes recovery exact: a
/// replayed command goes through byte-for-byte the same code path as the
/// original keystrokes. Returns false when the command failed (bad
/// arguments, I/O error); interactive sessions print and continue, but
/// scripted runs fail-stop so an error never silently corrupts a batch.
bool executeCommand(CliState &Cli, const std::vector<std::string> &Args) {
  Session &S = Cli.current();
  const std::string &Cmd = Args[0];

  // One span per session command; the name is only materialized when
  // tracing is armed.
  std::string SpanName;
  if (TraceLog::enabled())
    SpanName = "cmd " + Cmd;
  TraceSpan Span(SpanName);
  Metrics::counter("cli.commands").add();

  if (Cmd == "stats") {
    std::fputs(Metrics::renderTable().c_str(), stdout);
    return true;
  }
  if (Cmd == "help") {
    printUsage();
    return true;
  }
  if (Cmd == "ls") {
    cmdLs(S);
    return true;
  }
  if (Cmd == "status") {
    cmdStatus(S);
    return true;
  }
  if (Cmd == "classes") {
    const TraceClasses &Classes = S.baselineClasses();
    for (size_t C = 0; C < Classes.numClasses(); ++C)
      std::printf("  class %-3zu x%-4u %s\n", C, Classes.Multiplicity[C],
                  Classes.Representatives[C].render(S.table()).c_str());
    return true;
  }
  if (Cmd == "fa" && Args.size() >= 2) {
    std::optional<Session::NodeId> Id = parseConcept(Args[1], S);
    if (!Id)
      return false;
    std::optional<LabelId> From;
    std::optional<TraceSelect> Sel = parseSelect(Args, 2, S, From);
    if (!Sel)
      return false;
    Automaton FA = S.showFA(*Id, *Sel, From);
    std::printf("%s", FA.renderText(S.table()).c_str());
    return true;
  }
  if (Cmd == "transitions" && Args.size() >= 2) {
    std::optional<Session::NodeId> Id = parseConcept(Args[1], S);
    if (!Id)
      return false;
    for (TransitionId TI : S.showTransitions(*Id)) {
      const Transition &T = S.referenceFA().transition(TI);
      std::printf("  t%-3u q%u --%s--> q%u\n", TI, T.From,
                  T.Label.render(S.table()).c_str(), T.To);
    }
    return true;
  }
  if (Cmd == "traces" && Args.size() >= 2) {
    std::optional<Session::NodeId> Id = parseConcept(Args[1], S);
    if (!Id)
      return false;
    std::optional<LabelId> From;
    std::optional<TraceSelect> Sel = parseSelect(Args, 2, S, From);
    if (!Sel)
      return false;
    for (size_t Obj : S.showTraces(*Id, *Sel, From)) {
      std::string Label = S.labelOf(Obj)
                              ? S.labelName(*S.labelOf(Obj))
                              : std::string("-");
      std::printf("  [%s] %s\n", Label.c_str(),
                  S.object(Obj).render(S.table()).c_str());
    }
    return true;
  }
  if (Cmd == "label" && Args.size() >= 3) {
    std::optional<Session::NodeId> Id = parseConcept(Args[1], S);
    if (!Id)
      return false;
    LabelId NewLabel = S.internLabel(Args[2]);
    std::optional<LabelId> From;
    std::optional<TraceSelect> Sel = parseSelect(Args, 3, S, From);
    if (!Sel)
      return false;
    if (Args.size() == 3)
      Sel = TraceSelect::Unlabeled; // Default: label the unlabeled.
    size_t N = S.labelTraces(*Id, *Sel, NewLabel, From);
    std::printf("labeled %zu trace(s) as '%s'\n", N, Args[2].c_str());
    return true;
  }
  if (Cmd == "focus" && Args.size() >= 3) {
    std::optional<Session::NodeId> Id = parseConcept(Args[1], S);
    if (!Id)
      return false;
    std::string Pattern;
    for (size_t I = 2; I < Args.size(); ++I) {
      if (I != 2)
        Pattern += ' ';
      Pattern += Args[I];
    }
    std::string Err;
    std::optional<Automaton> FA = compileRegex(Pattern, S.table(), Err);
    if (!FA) {
      std::printf("error: bad focus regex: %s\n", Err.c_str());
      return false;
    }
    Cli.Stack.push_back(std::make_unique<FocusSession>(
        S.focus(*Id, FA->withoutEpsilons())));
    Session &Sub = Cli.current();
    std::printf("focused: %zu traces, %zu concepts",
                Sub.numObjects(), Sub.lattice().size());
    if (!Sub.rejectedObjects().empty())
      std::printf(" (%zu rejected by the focus FA)",
                  Sub.rejectedObjects().size());
    std::printf("\n");
    return true;
  }
  if (Cmd == "unfocus") {
    if (Cli.Stack.empty()) {
      std::printf("not in a focus session\n");
      return false;
    }
    Session &Parent = Cli.parentOfTop();
    Parent.mergeBack(*Cli.Stack.back());
    Cli.Stack.pop_back();
    std::printf("labels merged back\n");
    return true;
  }
  if (Cmd == "check" && Args.size() >= 2) {
    LabelId L = S.internLabel(Args[1]);
    Automaton FA = S.showFA(S.lattice().top(), TraceSelect::WithLabel, L);
    std::printf("FA over all traces labeled '%s':\n%s", Args[1].c_str(),
                FA.renderText(S.table()).c_str());
    return true;
  }
  if (Cmd == "oracle") {
    if (!Cli.Protocol) {
      std::printf("oracle requires --protocol\n");
      return false;
    }
    Oracle Truth(*Cli.Protocol, S.table());
    ReferenceLabeling Target = Truth.referenceLabeling(S);
    ExpertSimStrategy Expert;
    StrategyCost Cost = Expert.run(S, Target);
    std::printf("expert simulation: %zu inspections + %zu label ops "
                "(%s)\n",
                Cost.Inspections, Cost.LabelOps,
                Cost.Finished ? "finished" : "DID NOT FINISH");
    return true;
  }
  if ((Cmd == "meet" || Cmd == "join") && Args.size() >= 3) {
    std::optional<Session::NodeId> A = parseConcept(Args[1], S);
    std::optional<Session::NodeId> B = parseConcept(Args[2], S);
    if (!A || !B)
      return false;
    Session::NodeId R = Cmd == "meet" ? S.lattice().meet(*A, *B)
                                      : S.lattice().join(*A, *B);
    std::printf("%s(c%u, c%u) = %s\n", Cmd.c_str(), *A, *B,
                S.describeConcept(R).c_str());
    return true;
  }
  if (Cmd == "undo") {
    std::printf(S.undo() ? "undone\n" : "nothing to undo\n");
    return true;
  }
  if (Cmd == "diff" && Args.size() >= 3) {
    LabelId L1 = S.internLabel(Args[1]);
    LabelId L2 = S.internLabel(Args[2]);
    Automaton A = S.showFA(S.lattice().top(), TraceSelect::WithLabel, L1);
    Automaton B = S.showFA(S.lattice().top(), TraceSelect::WithLabel, L2);
    std::vector<Trace> Reps;
    for (size_t Obj = 0; Obj < S.numObjects(); ++Obj)
      Reps.push_back(S.object(Obj));
    std::vector<EventId> Alphabet = collectAlphabet(Reps);
    Dfa DA = Dfa::determinize(A, Alphabet, S.table());
    Dfa DB = Dfa::determinize(B, Alphabet, S.table());
    if (std::optional<Trace> W = Dfa::shortestDifference(DA, DB)) {
      std::printf("shortest separating trace: %s\n  accepted by the "
                  "'%s' FA: %s; by the '%s' FA: %s\n",
                  W->render(S.table()).c_str(), Args[1].c_str(),
                  DA.accepts(*W) ? "yes" : "no", Args[2].c_str(),
                  DB.accepts(*W) ? "yes" : "no");
    } else {
      std::printf("the two labels' FAs are language-equivalent over the "
                  "session alphabet\n");
    }
    return true;
  }
  if (Cmd == "suggest" && Args.size() >= 2) {
    std::optional<Session::NodeId> Id = parseConcept(Args[1], S);
    if (!Id)
      return false;
    std::vector<SeedSuggestion> Suggestions = suggestFocusSeeds(S, *Id);
    std::vector<ProjectionSuggestion> Projections =
        suggestNameProjections(S, *Id);
    if (Suggestions.empty() && Projections.empty()) {
      std::printf("no seed-order or name-projection template splits "
                  "this concept\n");
      return false;
    }
    for (const SeedSuggestion &Sg : Suggestions)
      std::printf("  seed order on %-24s -> %zu groups "
                  "(%zu traces carry the seed)\n",
                  S.table().renderEvent(Sg.Seed).c_str(), Sg.NumGroups,
                  Sg.NumAccepted);
    for (const ProjectionSuggestion &Pg : Projections)
      std::printf("  name projection on v%-13u -> %zu groups\n", Pg.Value,
                  Pg.NumGroups);
    return true;
  }
  if (Cmd == "save" && Args.size() >= 2) {
    // Atomic + checksummed: a crash mid-save leaves the previous file,
    // and a corrupted file is detected on load instead of half-applied.
    Status St = AtomicFile::write(
        Args[1], withChecksumHeader("cable-labels", 2, S.serializeLabels()));
    if (!St.isOk()) {
      std::printf("error: %s\n", St.diagnostic().render().c_str());
      return false;
    }
    std::printf("wrote labels to %s\n", Args[1].c_str());
    return true;
  }
  if (Cmd == "load" && Args.size() >= 2) {
    StatusOr<std::string> Text = readFileToString(Args[1]);
    if (!Text) {
      std::printf("error: %s\n", Text.status().diagnostic().render().c_str());
      return false;
    }
    // v2 files are checksum-verified; headerless v1 files still load.
    StatusOr<CheckedText> Checked =
        readChecksumHeader("cable-labels", *Text, Args[1],
                           /*AllowLegacy=*/true);
    if (!Checked) {
      std::printf("error: %s\n",
                  Checked.status().diagnostic().render().c_str());
      return false;
    }
    std::string Err;
    size_t Unmatched = 0;
    if (!S.loadLabels(Checked->Body, Err, &Unmatched)) {
      Diagnostic D;
      D.Code = ErrorCode::ParseError;
      D.File = Args[1];
      D.Message = Err;
      std::printf("error: %s\n", D.render().c_str());
      return false;
    }
    std::printf("labels loaded (%zu line(s) matched no trace here)\n",
                Unmatched);
    return true;
  }
  if (Cmd == "dot" && Args.size() >= 2) {
    Status St = AtomicFile::write(Args[1], S.renderDot("cable_lattice"));
    if (!St.isOk()) {
      std::printf("error: %s\n", St.diagnostic().render().c_str());
      return false;
    }
    std::printf("wrote %s\n", Args[1].c_str());
    return true;
  }
  std::printf("unknown command '%s' (try 'help')\n", Cmd.c_str());
  return false;
}

/// Temporarily routes stdout to /dev/null (journal replay re-executes
/// commands whose output the user already saw in the previous life).
class StdoutSilencer {
public:
  StdoutSilencer() {
    std::fflush(stdout);
    Saved = ::dup(1);
    int Null = ::open("/dev/null", O_WRONLY);
    if (Null >= 0) {
      ::dup2(Null, 1);
      ::close(Null);
    }
  }
  ~StdoutSilencer() {
    if (Saved >= 0) {
      std::fflush(stdout);
      ::dup2(Saved, 1);
      ::close(Saved);
    }
  }

private:
  int Saved = -1;
};

/// Observability outputs requested on the command line. Written by
/// emitObservability after runCli returns (every exit path except an
/// injected crash's _Exit), so partial runs still leave artifacts.
struct ObservabilityOptions {
  std::string TraceOut;
  std::string MetricsOut;
  std::string RunReportOut;
  std::string LogOut;
  bool PrintStats = false;
  std::vector<std::string> Args; ///< argv[1..] as invoked.
  bool Truncated = false;        ///< The lattice build was truncated.
} GObs;

void emitObservability(int ExitCode) {
  if (GObs.PrintStats)
    std::printf("\n-- run statistics --\n%s", Metrics::renderTable().c_str());
  if (!GObs.TraceOut.empty()) {
    if (Status St = TraceLog::writeJson(GObs.TraceOut, "cable-cli");
        !St.isOk()) {
      CABLE_LOG_WARN("tool", "observability-write-failed",
                     "trace not written",
                     {Log::str("path", GObs.TraceOut),
                      Log::str("error", St.message())});
      std::fprintf(stderr, "warning: cannot write trace: %s\n",
                   St.diagnostic().render().c_str());
    }
  }
  if (!GObs.MetricsOut.empty()) {
    if (Status St = writeMetricsJson(GObs.MetricsOut, "cable-cli");
        !St.isOk()) {
      CABLE_LOG_WARN("tool", "observability-write-failed",
                     "metrics not written",
                     {Log::str("path", GObs.MetricsOut),
                      Log::str("error", St.message())});
      std::fprintf(stderr, "warning: cannot write metrics: %s\n",
                   St.diagnostic().render().c_str());
    }
  }
  if (!GObs.RunReportOut.empty()) {
    RunReportInfo Info;
    Info.Tool = "cable-cli";
    Info.Args = GObs.Args;
    Info.Truncated = GObs.Truncated;
    Info.CleanExit = ExitCode == 0;
    Info.ExitCode = ExitCode;
    if (Status St = writeRunReport(GObs.RunReportOut, Info); !St.isOk()) {
      CABLE_LOG_WARN("tool", "observability-write-failed",
                     "run report not written",
                     {Log::str("path", GObs.RunReportOut),
                      Log::str("error", St.message())});
      std::fprintf(stderr, "warning: cannot write run report: %s\n",
                   St.diagnostic().render().c_str());
    }
  }
  // The log is written last so failures of the other artifact writers are
  // themselves on record as observability-write-failed events.
  if (!GObs.LogOut.empty()) {
    if (Status St = Log::writeJsonl(GObs.LogOut, "cable-cli"); !St.isOk())
      std::fprintf(stderr, "warning: cannot write log: %s\n",
                   St.diagnostic().render().c_str());
  }
}

/// Snapshot + compact when due. Only base-level state is snapshotted, so
/// while a Focus sub-session is open compaction waits (the journal tail
/// still holds the focus commands and replays them on recovery).
void maybeSnapshot(CliState &Cli, bool Force) {
  bool Due = Force ? Cli.SinceSnapshot > 0
                   : Cli.SinceSnapshot >= std::max(Cli.SnapshotEvery, 1ul);
  if (Cli.Wal.isOpen() && Cli.Stack.empty() && Due) {
    Status St = Cli.Wal.snapshot(Cli.Base->serializeSnapshot());
    if (St.isOk()) {
      Cli.SinceSnapshot = 0;
    } else {
      // Not fatal: the log still has everything; recovery just replays
      // more.
      Diagnostic D = St.diagnostic();
      D.Level = Severity::Warning;
      std::fprintf(stderr, "%s\n", D.render().c_str());
    }
  }
}

int runCli(int Argc, char **Argv) {
  // Installed before any work: SIGPIPE must be ignored from the first
  // write (a dead pipe reader is an EPIPE status, not a process death).
  // Re-installed with the journal's fd once a journal opens.
  CrashDump::installTerminateHandlers();
  for (int I = 1; I < Argc; ++I)
    GObs.Args.emplace_back(Argv[I]);
  if (Status St = Failpoint::configureFromEnv(); !St.isOk()) {
    std::fprintf(stderr, "error: CABLE_FAILPOINTS: %s\n",
                 St.message().c_str());
    return 1;
  }

  std::string TracesFile, RefRegex, RefFile, SeedEvent, ProtocolName;
  std::string JournalDir, ScriptFile, JournalSync;
  bool Recommended = false;
  bool NoCache = false;
  SessionOptions BuildOpts;
  unsigned long SnapshotEvery = 25;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> std::string {
      return I + 1 < Argc ? Argv[++I] : std::string();
    };
    auto NextNumber = [&](const char *Flag,
                          std::optional<unsigned long> &Out) {
      std::string N = Next();
      Out = parseUnsignedLong(N);
      if (!Out) {
        std::fprintf(stderr, "error: %s expects a number, got '%s'\n", Flag,
                     N.c_str());
        return false;
      }
      return true;
    };
    if (Arg == "--traces")
      TracesFile = Next();
    else if (Arg == "--ref")
      RefRegex = Next();
    else if (Arg == "--ref-file")
      RefFile = Next();
    else if (Arg == "--seed")
      SeedEvent = Next();
    else if (Arg == "--protocol")
      ProtocolName = Next();
    else if (Arg == "--recommended")
      Recommended = true;
    else if (Arg == "--journal")
      JournalDir = Next();
    else if (Arg == "--script")
      ScriptFile = Next();
    else if (Arg == "--snapshot-every") {
      std::optional<unsigned long> N;
      if (!NextNumber("--snapshot-every", N))
        return 1;
      SnapshotEvery = *N;
    } else if (Arg == "--journal-sync") {
      JournalSync = Next();
      if (JournalSync != "always" && JournalSync != "batch") {
        std::fprintf(stderr,
                     "error: --journal-sync expects 'always' or 'batch', "
                     "got '%s'\n",
                     JournalSync.c_str());
        return 1;
      }
    } else if (Arg == "--list-failpoints") {
      for (const std::string &Name : Failpoint::registeredNames())
        std::printf("%s\n", Name.c_str());
      return 0;
    } else if (Arg == "--version") {
      std::printf("%s\n", buildinfo::versionLine("cable-cli").c_str());
      return 0;
    } else if (Arg == "--stats") {
      GObs.PrintStats = true;
      Metrics::setEnabled(true);
    } else if (Arg == "--metrics-out") {
      // Armed at parse time, before the journal opens, so recovery
      // counters (torn tails, replayed commands) are captured.
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
      // Armed at parse time like --metrics-out, so journal-recovery and
      // cache events from session setup are captured.
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
    } else if (Arg == "--time-budget") {
      std::optional<unsigned long> N;
      if (!NextNumber("--time-budget", N))
        return 1;
      BuildOpts.ResourceBudget.TimeLimit = std::chrono::milliseconds(*N);
    } else if (Arg == "--max-concepts") {
      std::optional<unsigned long> N;
      if (!NextNumber("--max-concepts", N))
        return 1;
      BuildOpts.ResourceBudget.MaxConcepts = *N;
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
    } else if (Arg == "--help" || Arg == "-h") {
      printUsage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown option '%s' (try --help)\n", Arg.c_str());
      return 1;
    }
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
  // The flight recorder (a no-op without $CABLE_CRASH_DIR) and the
  // signal-exit artifact paths: both must be armed before the journal
  // opens so the earliest failure already leaves a black box.
  CrashDump::install("cable-cli");
  CrashDump::registerSignalArtifacts("cable-cli", GObs.LogOut,
                                     GObs.MetricsOut, GObs.RunReportOut,
                                     GObs.Args);

  CliState Cli;
  Cli.SnapshotEvery = SnapshotEvery;

  // Assemble the trace set.
  TraceSet Traces;
  if (!ProtocolName.empty()) {
    if (ProtocolName == "stdio") {
      Cli.Protocol = stdioProtocol();
    } else if (const ProtocolModel *M = findProtocol(ProtocolName)) {
      Cli.Protocol = *M;
    } else {
      std::fprintf(stderr, "error: unknown protocol '%s'; valid names:\n",
                   ProtocolName.c_str());
      std::fprintf(stderr, "  stdio\n");
      for (const std::string &Name : protocolNames())
        std::fprintf(stderr, "  %s\n", Name.c_str());
      return 1;
    }
    EventTable Table;
    WorkloadGenerator Gen(*Cli.Protocol, Table);
    RNG Rand(0xC11);
    Traces = Gen.generateScenarios(
        Rand, Cli.Protocol->NumRuns * Cli.Protocol->ScenariosPerRun);
    std::printf("generated %zu scenario traces for protocol %s\n",
                Traces.size(), Cli.Protocol->Name.c_str());
  } else if (!TracesFile.empty()) {
    StatusOr<std::string> Text = readFileToString(TracesFile);
    if (!Text) {
      std::fprintf(stderr, "%s\n",
                   Text.status().diagnostic().render().c_str());
      return 1;
    }
    Diagnostic Diag;
    std::optional<TraceSet> Parsed = TraceSet::parse(*Text, Diag);
    if (!Parsed) {
      Diag.File = TracesFile;
      std::fprintf(stderr, "%s\n", Diag.render().c_str());
      return 1;
    }
    Traces = std::move(*Parsed);
    std::printf("loaded %zu traces from %s\n", Traces.size(),
                TracesFile.c_str());
  } else {
    printUsage();
    return 1;
  }
  if (Traces.empty()) {
    std::fprintf(stderr, "error: no traces\n");
    return 1;
  }

  // Build the reference FA.
  Automaton Ref;
  if (!RefRegex.empty()) {
    Diagnostic Diag;
    std::optional<Automaton> FA = compileRegex(RefRegex, Traces.table(), Diag);
    if (!FA) {
      Diag.File = "--ref";
      std::fprintf(stderr, "%s\n", Diag.render().c_str());
      return 1;
    }
    Ref = FA->withoutEpsilons();
  } else if (!RefFile.empty()) {
    StatusOr<std::string> Text = readFileToString(RefFile);
    if (!Text) {
      std::fprintf(stderr, "%s\n",
                   Text.status().diagnostic().render().c_str());
      return 1;
    }
    Diagnostic Diag;
    std::optional<Automaton> FA = parseAutomaton(*Text, Traces.table(), Diag);
    if (!FA) {
      Diag.File = RefFile;
      std::fprintf(stderr, "%s\n", Diag.render().c_str());
      return 1;
    }
    Ref = std::move(*FA);
  } else if (!SeedEvent.empty()) {
    std::string Err;
    std::optional<EventId> Seed = Traces.table().parseEvent(SeedEvent, Err);
    if (!Seed) {
      std::fprintf(stderr, "error: bad --seed event: %s\n", Err.c_str());
      return 1;
    }
    Ref = makeSeedOrderFA(templateAlphabet(Traces.traces()), *Seed,
                          Traces.table());
  } else if (Recommended && Cli.Protocol) {
    Ref = makeProtocolReferenceFA(Traces.traces(), Traces.table(),
                                  *Cli.Protocol);
  } else {
    Ref = makeUnorderedFA(templateAlphabet(Traces.traces()), Traces.table());
  }

  StatusOr<Session> Built =
      Session::build(std::move(Traces), std::move(Ref), BuildOpts);
  if (!Built) {
    std::fprintf(stderr, "%s\n", Built.status().diagnostic().render().c_str());
    return 1;
  }
  Cli.Base = std::make_unique<Session>(std::move(*Built));
  GObs.Truncated = Cli.Base->truncated();
  // Cache problems never fail a build — they degrade to a normal one —
  // but each is worth a warning (a quarantined artifact is evidence of
  // disk corruption or a foreign file in the store).
  for (const Status &CacheSt : Cli.Base->cacheDiagnostics()) {
    Diagnostic Warn = CacheSt.diagnostic();
    Warn.Level = Severity::Warning;
    std::fprintf(stderr, "%s\n", Warn.render().c_str());
  }
  if (Cli.Base->cacheHit())
    std::printf("lattice loaded from cache (%s)\n",
                BuildOpts.CacheDir.c_str());
  if (Cli.Base->truncated()) {
    const Diagnostic &D = Cli.Base->buildStatus().diagnostic();
    if (!BuildOpts.KeepGoing) {
      std::fprintf(stderr, "%s\n", D.render().c_str());
      std::fprintf(stderr,
                   "error: lattice construction was truncated; rerun with "
                   "--keep-going to continue with the partial lattice and "
                   "the baseline trace classes\n");
      return 1;
    }
    Diagnostic Warn = D;
    Warn.Level = Severity::Warning;
    std::printf("%s\n", Warn.render().c_str());
    std::printf("continuing with a partial lattice (%zu concepts); the "
                "baseline identical-trace clustering (%zu classes) is "
                "complete — see 'classes'\n",
                Cli.Base->lattice().size(),
                Cli.Base->baselineClasses().numClasses());
  }
  std::printf("session: %zu unique traces, %zu FA transitions, %zu "
              "concepts\n",
              Cli.Base->numObjects(),
              Cli.Base->referenceFA().numTransitions(),
              Cli.Base->lattice().size());

  // Open the journal, recover, and replay. Recovery is write-ahead
  // replay: the snapshot restores labels and undo history, then the log
  // tail re-executes through executeCommand — the same dispatcher as
  // live input — with stdout silenced.
  uint64_t ScriptSkip = 0;
  if (!JournalDir.empty()) {
    Journal::Recovery Rec;
    StatusOr<Journal> J = Journal::open(JournalDir, Rec);
    if (!J) {
      std::fprintf(stderr, "%s\n", J.status().diagnostic().render().c_str());
      return 1;
    }
    Cli.Wal = std::move(*J);
    // Scripted runs group-commit by default: the script file already
    // re-seeds any tail a power cut could drop, so per-command fsyncs
    // buy nothing there. Interactive sessions keep fsync-per-command.
    bool Batch = JournalSync.empty() ? !ScriptFile.empty()
                                     : JournalSync == "batch";
    Cli.Wal.setSyncPolicy(Batch ? Journal::SyncPolicy::Batched
                                : Journal::SyncPolicy::EveryRecord);
    CrashDump::installTerminateHandlers(Cli.Wal.fd());
    if (!Rec.TornTail.isOk())
      std::fprintf(stderr, "%s\n", Rec.TornTail.diagnostic().render().c_str());
    if (Rec.HasSnapshot) {
      if (Status St = Cli.Base->loadSnapshot(Rec.SnapshotBody); !St.isOk()) {
        std::fprintf(stderr, "%s\n", St.diagnostic().render().c_str());
        std::fprintf(stderr,
                     "error: cannot restore the journal snapshot; was "
                     "%s created with different --traces/--protocol/--ref "
                     "flags?\n",
                     JournalDir.c_str());
        return 1;
      }
    }
    if (!Rec.Commands.empty()) {
      StdoutSilencer Quiet;
      for (const std::string &Cmd : Rec.Commands) {
        std::vector<std::string> Args = splitWhitespace(Cmd);
        if (!Args.empty())
          executeCommand(Cli, Args);
      }
    }
    ScriptSkip = Cli.Wal.lastSeq();
    if (Rec.UncleanShutdown)
      std::printf("journal: unclean shutdown detected; recovered the "
                  "session (snapshot seq %llu + %zu replayed command(s))\n",
                  static_cast<unsigned long long>(Rec.SnapshotSeq),
                  Rec.Commands.size());
    else if (Rec.HasSnapshot || !Rec.Commands.empty())
      std::printf("journal: resumed previous session (snapshot seq %llu + "
                  "%zu replayed command(s))\n",
                  static_cast<unsigned long long>(Rec.SnapshotSeq),
                  Rec.Commands.size());
    // Compact a long replayed tail right away so the next recovery is
    // cheap (no-op when the tail was empty or a focus is open).
    Cli.SinceSnapshot = Rec.Commands.size();
    maybeSnapshot(Cli, /*Force=*/!Rec.Commands.empty());
  }
  std::printf("type 'help' for commands\n");

  // Command source: stdin, or --script FILE (a journal-backed script run
  // resumes at the first command the journal has not made durable; blank
  // and comment lines are never journaled and never counted).
  std::vector<std::string> Script;
  size_t ScriptAt = 0;
  bool FromScript = !ScriptFile.empty();
  if (FromScript) {
    StatusOr<std::string> Text = readFileToString(ScriptFile);
    if (!Text) {
      std::fprintf(stderr, "%s\n",
                   Text.status().diagnostic().render().c_str());
      return 1;
    }
    Script = splitString(*Text, '\n');
  }
  auto NextLine = [&](std::string &Line) -> bool {
    for (;;) {
      if (FromScript) {
        if (ScriptAt >= Script.size())
          return false;
        Line = Script[ScriptAt++];
      } else {
        std::printf("cable> ");
        std::fflush(stdout);
        if (!std::getline(std::cin, Line))
          return false;
      }
      std::string_view Body = trimString(Line);
      if (Body.empty() || Body[0] == '#')
        continue;
      if (FromScript && ScriptSkip > 0) {
        --ScriptSkip; // Already durable and replayed; do not re-run.
        continue;
      }
      return true;
    }
  };

  std::string Line;
  while (NextLine(Line)) {
    std::vector<std::string> Args = splitWhitespace(Line);
    const std::string &Cmd = Args[0];
    if (Cmd == "quit" || Cmd == "exit")
      break;
    if (Cli.Wal.isOpen()) {
      // Write-ahead: the command must be durable before it can have any
      // effect. If the log cannot take it, applying it would silently
      // break the crash guarantee — refuse and die loudly instead.
      if (Status St = Cli.Wal.append(trimString(Line)); !St.isOk()) {
        std::fprintf(stderr, "%s\n", St.diagnostic().render().c_str());
        std::fprintf(stderr,
                     "error: journal append failed; exiting to preserve "
                     "durability (everything up to the previous command "
                     "is recoverable with --journal %s)\n",
                     JournalDir.c_str());
        return 3;
      }
      ++Cli.SinceSnapshot;
    }
    bool Ok = executeCommand(Cli, Args);
    if (!Ok && FromScript) {
      // Fail-stop before the post-command snapshot: the failed command is
      // already journaled but not covered by any snapshot, so a re-run
      // with the same --journal replays it (and a transient failure heals).
      std::fprintf(stderr,
                   "error: command '%s' failed; a scripted session stops "
                   "at the first error%s\n",
                   Line.c_str(),
                   Cli.Wal.isOpen()
                       ? " (re-run with the same --journal to retry it)"
                       : "");
      return 5;
    }
    maybeSnapshot(Cli, /*Force=*/false);
  }

  // Clean shutdown: snapshot whatever is pending (unless a focus is still
  // open — then the log tail carries it) and drop the ACTIVE marker.
  if (Cli.Wal.isOpen()) {
    maybeSnapshot(Cli, /*Force=*/true);
    CrashDump::installTerminateHandlers();
    if (Status St = Cli.Wal.closeClean(); !St.isOk())
      std::fprintf(stderr, "%s\n", St.diagnostic().render().c_str());
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  // An escaping exception (e.g. a real bad_alloc) surfaces here instead
  // of aborting; the journal on disk stays valid either way.
  int Code;
  try {
    Code = runCli(Argc, Argv);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: unhandled exception: %s\n", E.what());
    // The exit-4 path is a crash in every sense but the signal: leave a
    // black box before the normal writers run (they may be the casualty).
    CABLE_LOG_ERROR("tool", "unhandled-exception", "exception reached main",
                    {Log::str("what", E.what())});
    CrashDump::dumpNow("unhandled-exception");
    Code = 4;
  }
  // Trace/metrics/run-report files are written even when the run failed:
  // a report of a failed run is exactly when you want the evidence.
  emitObservability(Code);
  // Clean exits unlink the recorder's untouched pre-opened file.
  CrashDump::disarm();
  return Code;
}

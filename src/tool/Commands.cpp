//===- tool/Commands.cpp - The Cable command interpreter ------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "tool/Commands.h"

#include "cable/Advisor.h"
#include "cable/Strategies.h"
#include "fa/Dfa.h"
#include "fa/Regex.h"
#include "support/AtomicFile.h"
#include "support/Metrics.h"
#include "support/StringUtil.h"
#include "support/TraceEvent.h"
#include "workload/Oracle.h"

#include <algorithm>
#include <map>

using namespace cable;

const char *cable::commandHelp() {
  return "commands:\n"
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
         "  help / quit\n";
}

namespace {

/// Parses the optional selection at Args[At]: all | unlabeled | from OLD |
/// LABEL. Label names are looked up, never created, so an unknown one
/// selects no traces. Fails only on `from` without a label.
std::optional<TraceSelect> parseSelect(const std::vector<std::string> &Args,
                                       size_t At, const Session &S,
                                       std::optional<LabelId> &FromLabel,
                                       std::string &Out) {
  if (Args.size() <= At || Args[At] == "all")
    return TraceSelect::All;
  if (Args[At] == "unlabeled")
    return TraceSelect::Unlabeled;
  std::string_view Name = Args[At];
  if (Name == "from") {
    if (Args.size() <= At + 1) {
      Out += "error: 'from' needs a label name\n";
      return std::nullopt;
    }
    Name = Args[At + 1];
  }
  FromLabel = S.findLabel(Name);
  return TraceSelect::WithLabel;
}

std::optional<Session::NodeId> parseConcept(const std::string &Text,
                                            const Session &S,
                                            std::string &Out) {
  std::string_view Id = Text;
  if (!Id.empty() && Id[0] == 'c')
    Id.remove_prefix(1);
  std::optional<unsigned long> N = parseUnsignedLong(Id);
  if (!N) {
    appendf(Out, "error: bad concept id '%s'\n", Text.c_str());
    return std::nullopt;
  }
  if (*N >= S.lattice().size()) {
    appendf(Out, "error: concept %lu out of range (lattice has %zu)\n", *N,
            S.lattice().size());
    return std::nullopt;
  }
  return static_cast<Session::NodeId>(*N);
}

void cmdLs(const Session &S, std::string &Out) {
  // By ConceptState: Unlabeled, PartlyLabeled, FullyLabeled.
  static const char *const States[] = {"[green ]", "[yellow]", "[red   ]"};
  for (Session::NodeId Id : S.lattice().topDownOrder()) {
    const Concept &C = S.lattice().node(Id);
    appendf(Out, "%s c%-3u traces=%-4zu sim=%-3zu children:",
            States[static_cast<int>(S.stateOf(Id))], Id, C.Extent.count(),
            C.Intent.count());
    for (Session::NodeId Child : S.lattice().children(Id))
      appendf(Out, " c%u", Child);
    Out += '\n';
  }
}

void cmdStatus(const Session &S, std::string &Out) {
  appendf(Out, "%zu unique traces; %zu unlabeled; %zu labels; %zu concepts\n",
          S.numObjects(), S.unlabeledObjects().count(), S.numLabels(),
          S.lattice().size());
  for (LabelId L = 0; L < S.numLabels(); ++L)
    appendf(Out, "  %-16s %zu trace(s)\n", S.labelName(L).c_str(),
            S.objectsWithLabel(L).count());
  if (!S.rejectedObjects().empty())
    appendf(Out, "warning: %zu trace(s) rejected by the reference FA\n",
            S.rejectedObjects().size());
}

/// Reports a failed command's diagnostic.
bool failWith(std::string &Out, const Diagnostic &D) {
  appendf(Out, "error: %s\n", D.render().c_str());
  return false;
}

/// A result that ends the session: \p St's diagnostic, then \p Advice.
CommandResult fatal(const Status &St, const std::string &Advice = "") {
  CommandResult R;
  R.Ok = false;
  R.Fatal = true;
  R.Err = St.diagnostic().render() + "\n" + Advice;
  return R;
}

/// The FA over every trace carrying label \p Name (none if it is unknown).
Automaton labelFA(const Session &S, std::string_view Name) {
  return S.showFA(S.lattice().top(), TraceSelect::WithLabel,
                  S.findLabel(Name));
}

} // namespace

CommandResult CommandInterpreter::execute(std::string_view Line) {
  // A journaled `load` carries the file it read after the first newline.
  size_t Eol = Line.find('\n');
  std::optional<StatusOr<std::string>> Loaded;
  if (Eol != std::string_view::npos)
    Loaded = std::string(Line.substr(Eol + 1));
  std::vector<std::string> Args = splitWhitespace(Line.substr(0, Eol));
  CommandResult R;
  R.Ok = Args.empty() || apply(Args, Loaded ? &*Loaded : nullptr, R.Out);
  return R;
}

/// Every handler is deterministic, so replaying a journal through here
/// reproduces the lost session exactly.
bool CommandInterpreter::apply(const std::vector<std::string> &Args,
                               const StatusOr<std::string> *Loaded,
                               std::string &Out) {
  Session &S = current();
  const std::string &Cmd = Args[0];

  // One span per session command; the name is only materialized when
  // tracing or the flight recorder's span stack is armed.
  std::string SpanName;
  if (TraceLog::enabled() || TraceLog::stackCaptureEnabled())
    SpanName = "cmd " + Cmd;
  TraceSpan Span(SpanName);
  Metrics::counter("cli.commands").add();

  // Most commands name a concept first; its id is parsed once, here.
  static const std::map<std::string_view, size_t> MinArgs = {
      {"fa", 2},      {"transitions", 2}, {"traces", 2},
      {"suggest", 2}, {"label", 3},       {"focus", 3}};
  std::optional<Session::NodeId> Id;
  if (auto It = MinArgs.find(Cmd);
      It != MinArgs.end() && Args.size() >= It->second)
    if (!(Id = parseConcept(Args[1], S, Out)))
      return false;

  if (Cmd == "stats") {
    Out += Metrics::renderTable();
    return true;
  }
  if (Cmd == "help") {
    Out += commandHelp();
    return true;
  }
  if (Cmd == "ls") {
    cmdLs(S, Out);
    return true;
  }
  if (Cmd == "status") {
    cmdStatus(S, Out);
    return true;
  }
  if (Cmd == "classes") {
    const TraceClasses &Classes = S.baselineClasses();
    for (size_t C = 0; C < Classes.numClasses(); ++C)
      appendf(Out, "  class %-3zu x%-4u %s\n", C, Classes.Multiplicity[C],
              Classes.Representatives[C].render(S.table()).c_str());
    return true;
  }
  if (Cmd == "fa" && Id) {
    std::optional<LabelId> From;
    std::optional<TraceSelect> Sel = parseSelect(Args, 2, S, From, Out);
    if (!Sel)
      return false;
    Out += S.showFA(*Id, *Sel, From).renderText(S.table());
    return true;
  }
  if (Cmd == "transitions" && Id) {
    for (TransitionId TI : S.showTransitions(*Id)) {
      const Transition &T = S.referenceFA().transition(TI);
      appendf(Out, "  t%-3u q%u --%s--> q%u\n", TI, T.From,
              T.Label.render(S.table()).c_str(), T.To);
    }
    return true;
  }
  if (Cmd == "traces" && Id) {
    std::optional<LabelId> From;
    std::optional<TraceSelect> Sel = parseSelect(Args, 2, S, From, Out);
    if (!Sel)
      return false;
    for (size_t Obj : S.showTraces(*Id, *Sel, From)) {
      std::string Label = S.labelOf(Obj) ? S.labelName(*S.labelOf(Obj))
                                         : std::string("-");
      appendf(Out, "  [%s] %s\n", Label.c_str(),
              S.object(Obj).render(S.table()).c_str());
    }
    return true;
  }
  if (Cmd == "label" && Id) {
    std::optional<LabelId> From;
    std::optional<TraceSelect> Sel = parseSelect(Args, 3, S, From, Out);
    if (!Sel)
      return false;
    if (Args.size() == 3)
      Sel = TraceSelect::Unlabeled; // Default: label the unlabeled.
    size_t N = S.labelTraces(*Id, *Sel, S.internLabel(Args[2]), From);
    appendf(Out, "labeled %zu trace(s) as '%s'\n", N, Args[2].c_str());
    return true;
  }
  if (Cmd == "focus" && Id) {
    std::vector<std::string> Words(Args.begin() + 2, Args.end());
    std::string Err;
    std::optional<Automaton> FA =
        compileRegex(joinStrings(Words, " "), S.table(), Err);
    if (!FA) {
      appendf(Out, "error: bad focus regex: %s\n", Err.c_str());
      return false;
    }
    Stack.push_back(std::make_unique<FocusSession>(
        S.focus(*Id, FA->withoutEpsilons())));
    Session &Sub = current();
    appendf(Out, "focused: %zu traces, %zu concepts", Sub.numObjects(),
            Sub.lattice().size());
    if (!Sub.rejectedObjects().empty())
      appendf(Out, " (%zu rejected by the focus FA)",
              Sub.rejectedObjects().size());
    Out += '\n';
    return true;
  }
  if (Cmd == "unfocus") {
    if (Stack.empty()) {
      Out += "not in a focus session\n";
      return false;
    }
    Session &Parent = Stack.size() == 1 ? Base : Stack[Stack.size() - 2]->Sub;
    Parent.mergeBack(*Stack.back());
    Stack.pop_back();
    Out += "labels merged back\n";
    return true;
  }
  if (Cmd == "check" && Args.size() >= 2) {
    appendf(Out, "FA over all traces labeled '%s':\n%s", Args[1].c_str(),
            labelFA(S, Args[1]).renderText(S.table()).c_str());
    return true;
  }
  if (Cmd == "oracle") {
    if (!Protocol) {
      Out += "oracle requires --protocol\n";
      return false;
    }
    Oracle Truth(*Protocol, S.table());
    ReferenceLabeling Target = Truth.referenceLabeling(S);
    ExpertSimStrategy Expert;
    StrategyCost Cost = Expert.run(S, Target);
    appendf(Out, "expert simulation: %zu inspections + %zu label ops (%s)\n",
            Cost.Inspections, Cost.LabelOps,
            Cost.Finished ? "finished" : "DID NOT FINISH");
    return true;
  }
  if ((Cmd == "meet" || Cmd == "join") && Args.size() >= 3) {
    std::optional<Session::NodeId> A = parseConcept(Args[1], S, Out);
    std::optional<Session::NodeId> B = parseConcept(Args[2], S, Out);
    if (!A || !B)
      return false;
    Session::NodeId R = Cmd == "meet" ? S.lattice().meet(*A, *B)
                                      : S.lattice().join(*A, *B);
    appendf(Out, "%s(c%u, c%u) = %s\n", Cmd.c_str(), *A, *B,
            S.describeConcept(R).c_str());
    return true;
  }
  if (Cmd == "undo") {
    Out += S.undo() ? "undone\n" : "nothing to undo\n";
    return true;
  }
  if (Cmd == "diff" && Args.size() >= 3) {
    std::vector<EventId> Alphabet =
        collectAlphabet(S.baselineClasses().Representatives);
    Dfa DA = Dfa::determinize(labelFA(S, Args[1]), Alphabet, S.table());
    Dfa DB = Dfa::determinize(labelFA(S, Args[2]), Alphabet, S.table());
    if (std::optional<Trace> W = Dfa::shortestDifference(DA, DB)) {
      appendf(Out,
              "shortest separating trace: %s\n  accepted by the '%s' FA: "
              "%s; by the '%s' FA: %s\n",
              W->render(S.table()).c_str(), Args[1].c_str(),
              DA.accepts(*W) ? "yes" : "no", Args[2].c_str(),
              DB.accepts(*W) ? "yes" : "no");
    } else {
      Out += "the two labels' FAs are language-equivalent over the session "
             "alphabet\n";
    }
    return true;
  }
  if (Cmd == "suggest" && Id) {
    std::vector<SeedSuggestion> Suggestions = suggestFocusSeeds(S, *Id);
    std::vector<ProjectionSuggestion> Projections =
        suggestNameProjections(S, *Id);
    if (Suggestions.empty() && Projections.empty()) {
      Out += "no seed-order or name-projection template splits this "
             "concept\n";
      return false;
    }
    for (const SeedSuggestion &Sg : Suggestions)
      appendf(Out,
              "  seed order on %-24s -> %zu groups (%zu traces carry the "
              "seed)\n",
              S.table().renderEvent(Sg.Seed).c_str(), Sg.NumGroups,
              Sg.NumAccepted);
    for (const ProjectionSuggestion &Pg : Projections)
      appendf(Out, "  name projection on v%-13u -> %zu groups\n", Pg.Value,
              Pg.NumGroups);
    return true;
  }
  if (Cmd == "save" && Args.size() >= 2) {
    // Atomic + checksummed: a crash mid-save leaves the previous file,
    // and a corrupted file is detected on load instead of half-applied.
    Status St = AtomicFile::write(
        Args[1], withChecksumHeader("cable-labels", 2, S.serializeLabels()));
    if (!St.isOk())
      return failWith(Out, St.diagnostic());
    appendf(Out, "wrote labels to %s\n", Args[1].c_str());
    return true;
  }
  if (Cmd == "load" && Args.size() >= 2) {
    StatusOr<std::string> Text = Loaded ? *Loaded : readFileToString(Args[1]);
    if (!Text)
      return failWith(Out, Text.status().diagnostic());
    // v2 files are checksum-verified; headerless v1 files still load.
    StatusOr<CheckedText> Checked =
        readChecksumHeader("cable-labels", *Text, Args[1],
                           /*AllowLegacy=*/true);
    if (!Checked)
      return failWith(Out, Checked.status().diagnostic());
    Diagnostic D;
    size_t Unmatched = 0;
    if (!S.loadLabels(Checked->Body, D.Message, &Unmatched)) {
      D.Code = ErrorCode::ParseError;
      D.File = Args[1];
      return failWith(Out, D);
    }
    appendf(Out, "labels loaded (%zu line(s) matched no trace here)\n",
            Unmatched);
    return true;
  }
  if (Cmd == "dot" && Args.size() >= 2) {
    Status St = AtomicFile::write(Args[1], S.renderDot("cable_lattice"));
    if (!St.isOk())
      return failWith(Out, St.diagnostic());
    appendf(Out, "wrote %s\n", Args[1].c_str());
    return true;
  }
  appendf(Out, "unknown command '%s' (try 'help')\n", Cmd.c_str());
  return false;
}

void CommandInterpreter::maybeSnapshot(bool Force, std::string &Err) {
  bool Due = Force ? SinceSnapshot > 0
                   : SinceSnapshot >= std::max(SnapshotEvery, 1ul);
  if (!Wal.isOpen() || !Stack.empty() || !Due)
    return;
  if (Status St = Wal.snapshot(Base.serializeSnapshot()); St.isOk()) {
    SinceSnapshot = 0;
  } else {
    // Not fatal: the log still has everything; recovery just replays more.
    Diagnostic D = St.diagnostic();
    D.Level = Severity::Warning;
    Err += D.render() + "\n";
  }
}

CommandResult CommandInterpreter::openJournal(const std::string &Dir,
                                              Journal::SyncPolicy Policy,
                                              unsigned long Every) {
  Journal::Recovery Rec;
  StatusOr<Journal> J = Journal::open(Dir, Rec);
  if (!J)
    return fatal(J.status());
  Wal = std::move(*J);
  Wal.setSyncPolicy(Policy);
  JournalDir = Dir;
  SnapshotEvery = Every;
  CommandResult R;
  if (!Rec.TornTail.isOk())
    R.Err += Rec.TornTail.diagnostic().render() + "\n";
  if (Rec.HasSnapshot)
    if (Status St = Base.loadSnapshot(Rec.SnapshotBody); !St.isOk()) {
      CommandResult F = fatal(St, "error: cannot restore the journal "
                                  "snapshot; was " + Dir + " created with "
                                  "different --traces/--protocol/--ref "
                                  "flags?\n");
      F.Err.insert(0, R.Err); // The torn-tail warning came first.
      return F;
    }
  for (const std::string &Cmd : Rec.Commands)
    execute(Cmd);
  if (Rec.UncleanShutdown || Rec.HasSnapshot || !Rec.Commands.empty())
    appendf(R.Out,
            "journal: %s (snapshot seq %llu + %zu replayed command(s))\n",
            Rec.UncleanShutdown
                ? "unclean shutdown detected; recovered the session"
                : "resumed previous session",
            static_cast<unsigned long long>(Rec.SnapshotSeq),
            Rec.Commands.size());
  // Compact a long replayed tail right away so the next recovery is cheap
  // (no-op when the tail was empty or a focus is open).
  SinceSnapshot = Rec.Commands.size();
  maybeSnapshot(/*Force=*/!Rec.Commands.empty(), R.Err);
  return R;
}

CommandResult CommandInterpreter::run(std::string_view Line) {
  std::vector<std::string> Args = splitWhitespace(Line);
  if (!Wal.isOpen() || Args.empty())
    return execute(Line);
  // A `load` record carries the bytes the command reads, so replay never
  // depends on the file's later contents (a later `save` may overwrite
  // it). An unreadable file fails the command before it is journaled:
  // replayed, it could succeed against a file that appeared since.
  CommandResult R;
  std::string Record(trimString(Line));
  std::optional<StatusOr<std::string>> Loaded;
  if (Args[0] == "load" && Args.size() >= 2) {
    Loaded = readFileToString(Args[1]);
    if (!Loaded->isOk()) {
      R.Ok = apply(Args, &*Loaded, R.Out);
      return R;
    }
    Record += "\n" + **Loaded;
  }
  // Write-ahead: the command must be durable before it can have any
  // effect. If the log cannot take it, applying it would silently break the
  // crash guarantee — refuse instead.
  if (Status St = Wal.append(Record); !St.isOk())
    return fatal(St, "error: journal append failed; exiting to preserve "
                     "durability (everything up to the previous command is "
                     "recoverable with --journal " + JournalDir + ")\n");
  ++SinceSnapshot;
  R.Ok = apply(Args, Loaded ? &*Loaded : nullptr, R.Out);
  // A failed command stays out of the next snapshot, so a scripted run
  // that stops on it replays it on the next start (a transient failure
  // heals); replay reproduces every other failure exactly.
  if (R.Ok)
    maybeSnapshot(/*Force=*/false, R.Err);
  return R;
}

CommandResult CommandInterpreter::close() {
  CommandResult R;
  if (!Wal.isOpen())
    return R;
  maybeSnapshot(/*Force=*/true, R.Err);
  if (Status St = Wal.closeClean(); !St.isOk())
    R.Err += St.diagnostic().render() + "\n";
  return R;
}

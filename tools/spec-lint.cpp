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
// with file:line:col positions, never an abort), 4 = an unhandled
// exception (see docs/OBSERVABILITY.md).
//
//===----------------------------------------------------------------------===//

#include "cable/Session.h"
#include "fa/Parse.h"
#include "fa/Regex.h"
#include "fa/Templates.h"
#include "support/AtomicFile.h"
#include "support/StringUtil.h"
#include "support/TraceEvent.h"
#include "tool/Tool.h"
#include "verifier/Verifier.h"

#include <cstdio>
#include <optional>
#include <string>

using namespace cable;

namespace {

const char *const kUsage =
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
    "  --dot FILE         write the violation lattice as Graphviz DOT\n";

int runLint(Tool &T) {
  // Exit 1 also means "violations found", which is a clean run: the run
  // report's clean_exit records whether the report was produced.
  T.CleanExit = false;
  std::string SpecFile, SpecRegex, TracesFile, RunsFile, SeedsArg;
  std::string ReportFile, DotFile;
  unsigned long MaxSamples = 3;
  if (std::optional<int> Exit = T.parse({
          {"--spec", &SpecFile},
          {"--spec-regex", &SpecRegex},
          {"--traces", &TracesFile},
          {"--runs", &RunsFile},
          {"--seeds", &SeedsArg},
          {"--report", &ReportFile},
          {"--dot", &DotFile},
          {"--max-samples", &MaxSamples},
      }))
    return *Exit;
  if ((SpecFile.empty() == SpecRegex.empty()) ||
      (TracesFile.empty() == RunsFile.empty())) {
    T.printUsage();
    return 1;
  }

  // Load traces or runs.
  std::string InputPath = TracesFile.empty() ? RunsFile : TracesFile;
  StatusOr<std::string> InputText = readFileToString(InputPath);
  if (!InputText)
    return Tool::fail(InputText.status());
  Diagnostic Diag;
  std::optional<TraceSet> Input = TraceSet::parse(*InputText, Diag);
  if (!Input)
    return Tool::fail(Diag, InputPath);

  // Load the specification.
  Automaton Spec;
  if (!SpecFile.empty()) {
    StatusOr<std::string> SpecText = readFileToString(SpecFile);
    if (!SpecText)
      return Tool::fail(SpecText.status());
    std::optional<Automaton> FA =
        parseAutomaton(*SpecText, Input->table(), Diag);
    if (!FA)
      return Tool::fail(Diag, SpecFile);
    Spec = std::move(*FA);
  } else {
    std::optional<Automaton> FA = compileRegex(SpecRegex, Input->table(), Diag);
    if (!FA)
      return Tool::fail(Diag, "--spec-regex");
    Spec = FA->withoutEpsilons();
  }

  // Verify (budgeted: one checkpoint per scenario).
  BudgetMeter VerifyMeter(T.Build.ResourceBudget);
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
    if (std::optional<int> Exit =
            T.truncatedBy(R.CheckStatus, "scenario checking",
                          "report the checked prefix"))
      return *Exit;
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
    if (!ReportFile.empty())
      if (Status St = AtomicFile::write(ReportFile, Report); !St.isOk())
        return Tool::fail(St);
    T.CleanExit = true;
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
      Session::build(std::move(R.Violations), std::move(Ref), T.Build);
  if (!Built)
    return Tool::fail(Built.status());
  Session &S = *Built;
  Tool::warnCacheDiagnostics(S);
  if (S.truncated()) {
    if (std::optional<int> Exit =
            T.truncatedBy(S.buildStatus(), "violation clustering",
                          "report the partial clusters"))
      return *Exit;
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
  if (!DotFile.empty())
    if (Status St = AtomicFile::write(DotFile, S.renderDot("spec_lint"));
        !St.isOk())
      return Tool::fail(St);
  return Finish(1);
}

} // namespace

int main(int Argc, char **Argv) {
  Tool T("spec-lint", kUsage);
  return T.main(Argc, Argv, runLint);
}

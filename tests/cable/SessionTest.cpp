//===- tests/cable/SessionTest.cpp -----------------------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "cable/Session.h"

#include "../TestHelpers.h"
#include "cable/Strategies.h"
#include "fa/Templates.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

using namespace cable;
using cable::test::compileFA;
using cable::test::makeTrace;
using cable::test::parseTraces;

namespace {

/// The §2.1 violation-trace population over the Fig. 3-style reference FA.
Session makeStdioSession() {
  TraceSet Traces = parseTraces("popen(v0) fread(v0) pclose(v0)\n"
                                "popen(v0) fwrite(v0) pclose(v0)\n"
                                "popen(v0) fread(v0)\n"
                                "fopen(v0) fread(v0)\n"
                                "fopen(v0) pclose(v0)\n"
                                "popen(v0) fread(v0) pclose(v0)\n");
  Automaton RefFA = makeUnorderedFA(templateAlphabet(Traces.traces()),
                                    Traces.table());
  return Session(std::move(Traces), std::move(RefFA));
}

} // namespace

TEST(SessionTest, ObjectsAreIdenticalTraceClasses) {
  Session S = makeStdioSession();
  EXPECT_EQ(S.allTraces().size(), 6u);
  EXPECT_EQ(S.numObjects(), 5u) << "two identical popen traces share a class";
  EXPECT_EQ(S.multiplicity(0), 2u);
}

TEST(SessionTest, ContextIsExecutedTransitionRelation) {
  Session S = makeStdioSession();
  const Context &Ctx = S.context();
  EXPECT_EQ(Ctx.numObjects(), S.numObjects());
  EXPECT_EQ(Ctx.numAttributes(), S.referenceFA().numTransitions());
  for (size_t Obj = 0; Obj < S.numObjects(); ++Obj) {
    BitVector Expected =
        S.referenceFA().executedTransitions(S.object(Obj), S.table());
    for (size_t A = 0; A < Ctx.numAttributes(); ++A)
      EXPECT_EQ(Ctx.related(Obj, A), Expected.test(A))
          << "object " << Obj << ", transition " << A;
  }
  EXPECT_TRUE(S.rejectedObjects().empty())
      << "the unordered reference FA accepts every trace";
}

TEST(SessionTest, RelationLedgerTicksOncePerSession) {
  bool WasEnabled = Metrics::enabled();
  Metrics::setEnabled(true);
  uint64_t Calls = Metrics::counterValue("fa.relation-calls");
  uint64_t Objects = Metrics::counterValue("fa.relation-objects");
  Session S = makeStdioSession();
  EXPECT_EQ(Metrics::counterValue("fa.relation-calls") - Calls, 1u);
  EXPECT_EQ(Metrics::counterValue("fa.relation-objects") - Objects,
            S.numObjects());
  Metrics::setEnabled(WasEnabled);
}

TEST(SessionTest, RejectedObjectsReported) {
  TraceSet Traces = parseTraces("a(v0)\nb(v0)\n");
  Automaton RefFA = compileFA("a(v0)", Traces.table());
  Session S(std::move(Traces), std::move(RefFA));
  ASSERT_EQ(S.rejectedObjects().size(), 1u);
  EXPECT_EQ(S.rejectedObjects()[0], 1u);
}

TEST(SessionTest, LabelInterningStable) {
  Session S = makeStdioSession();
  LabelId Good = S.internLabel("good");
  LabelId Bad = S.internLabel("bad");
  EXPECT_NE(Good, Bad);
  EXPECT_EQ(S.internLabel("good"), Good);
  EXPECT_EQ(S.labelName(Bad), "bad");
  EXPECT_EQ(S.numLabels(), 2u);
}

TEST(SessionTest, ConceptStatesTransition) {
  Session S = makeStdioSession();
  LabelId Good = S.internLabel("good");
  Session::NodeId Top = S.lattice().top();
  EXPECT_EQ(S.stateOf(Top), ConceptState::Unlabeled);

  // Label one object by hand: top becomes partly labeled.
  S.setLabel(0, Good);
  EXPECT_EQ(S.stateOf(Top), ConceptState::PartlyLabeled);

  // Label everything: fully labeled.
  S.labelTraces(Top, TraceSelect::Unlabeled, Good);
  EXPECT_EQ(S.stateOf(Top), ConceptState::FullyLabeled);
  EXPECT_TRUE(S.allLabeled());
}

TEST(SessionTest, EmptyConceptIsFullyLabeled) {
  Session S = makeStdioSession();
  Session::NodeId Bottom = S.lattice().bottom();
  if (S.lattice().node(Bottom).Extent.none())
    EXPECT_EQ(S.stateOf(Bottom), ConceptState::FullyLabeled);
}

TEST(SessionTest, LabelingDescendantAffectsAncestor) {
  Session S = makeStdioSession();
  LabelId Good = S.internLabel("good");
  Session::NodeId Top = S.lattice().top();
  // Label any non-top concept's traces; top must become PartlyLabeled.
  for (Session::NodeId Id = 0; Id < S.lattice().size(); ++Id) {
    if (Id == Top)
      continue;
    BitVector Extent = S.lattice().node(Id).Extent;
    if (Extent.none() || Extent.count() == S.numObjects())
      continue;
    S.labelTraces(Id, TraceSelect::All, Good);
    EXPECT_EQ(S.stateOf(Top), ConceptState::PartlyLabeled);
    EXPECT_EQ(S.stateOf(Id), ConceptState::FullyLabeled);
    return;
  }
  FAIL() << "no suitable concept found";
}

TEST(SessionTest, LabelSelectionModes) {
  Session S = makeStdioSession();
  LabelId Good = S.internLabel("good");
  LabelId Bad = S.internLabel("bad");
  Session::NodeId Top = S.lattice().top();

  S.setLabel(0, Good);
  S.setLabel(1, Good);
  // Unlabeled selection labels only the remaining three.
  size_t Changed = S.labelTraces(Top, TraceSelect::Unlabeled, Bad);
  EXPECT_EQ(Changed, S.numObjects() - 2);
  EXPECT_EQ(*S.labelOf(0), Good);
  EXPECT_EQ(*S.labelOf(2), Bad);

  // Relabel: WithLabel moves all good to bad.
  Changed = S.labelTraces(Top, TraceSelect::WithLabel, Bad, Good);
  EXPECT_EQ(Changed, 2u);
  for (size_t Obj = 0; Obj < S.numObjects(); ++Obj)
    EXPECT_EQ(*S.labelOf(Obj), Bad);

  // All: overwrite everything back to good.
  Changed = S.labelTraces(Top, TraceSelect::All, Good);
  EXPECT_EQ(Changed, S.numObjects());
}

TEST(SessionTest, ClearLabelsResets) {
  Session S = makeStdioSession();
  LabelId Good = S.internLabel("good");
  S.labelTraces(S.lattice().top(), TraceSelect::All, Good);
  EXPECT_TRUE(S.allLabeled());
  S.clearLabels();
  EXPECT_FALSE(S.allLabeled());
  EXPECT_EQ(S.unlabeledObjects().count(), S.numObjects());
}

TEST(SessionTest, ShowTransitionsIsIntent) {
  Session S = makeStdioSession();
  for (Session::NodeId Id = 0; Id < S.lattice().size(); ++Id) {
    std::vector<TransitionId> Ts = S.showTransitions(Id);
    EXPECT_EQ(Ts.size(), S.lattice().node(Id).Intent.count());
  }
}

TEST(SessionTest, ShowFASummarizesSelectedTraces) {
  Session S = makeStdioSession();
  Session::NodeId Top = S.lattice().top();
  Automaton FA = S.showFA(Top, TraceSelect::All);
  for (size_t Obj = 0; Obj < S.numObjects(); ++Obj)
    EXPECT_TRUE(FA.accepts(S.object(Obj), S.table()));

  // Labeled subset: FA of good traces only accepts those.
  LabelId Good = S.internLabel("good");
  S.setLabel(0, Good);
  Automaton GoodFA = S.showFA(Top, TraceSelect::WithLabel, Good);
  EXPECT_TRUE(GoodFA.accepts(S.object(0), S.table()));
  EXPECT_FALSE(GoodFA.accepts(S.object(3), S.table()));
}

TEST(SessionTest, OwnObjectsDisjointFromChildren) {
  Session S = makeStdioSession();
  for (Session::NodeId Id = 0; Id < S.lattice().size(); ++Id) {
    BitVector Own = S.ownObjects(Id);
    EXPECT_TRUE(Own.isSubsetOf(S.lattice().node(Id).Extent));
    for (Session::NodeId C : S.lattice().children(Id))
      EXPECT_FALSE(Own.intersects(S.lattice().node(C).Extent));
  }
}

TEST(SessionTest, FocusAndMergeBack) {
  Session S = makeStdioSession();
  Session::NodeId Top = S.lattice().top();

  // Focus on the whole trace set with a seed-order FA on pclose.
  std::vector<Trace> Reps;
  for (size_t Obj = 0; Obj < S.numObjects(); ++Obj)
    Reps.push_back(S.object(Obj));
  EventTable &T = S.table();
  std::vector<EventId> Alpha = templateAlphabet(Reps);
  EventId Seed = T.internEvent("pclose", {0});
  FocusSession F = S.focus(Top, makeSeedOrderFA(Alpha, Seed, T));

  EXPECT_EQ(F.Sub.numObjects(), S.numObjects());
  // In the sub-session, traces without pclose are rejected by the
  // reference FA.
  EXPECT_FALSE(F.Sub.rejectedObjects().empty());

  LabelId SubGood = F.Sub.internLabel("good");
  F.Sub.setLabel(0, SubGood);
  F.Sub.setLabel(2, SubGood);
  S.mergeBack(F);

  LabelId Good = S.internLabel("good");
  EXPECT_EQ(*S.labelOf(F.ParentObjects[0]), Good);
  EXPECT_EQ(*S.labelOf(F.ParentObjects[2]), Good);
  EXPECT_FALSE(S.labelOf(F.ParentObjects[1]).has_value());
}

TEST(SessionTest, UndoRevertsLabelTraces) {
  Session S = makeStdioSession();
  LabelId Good = S.internLabel("good");
  LabelId Bad = S.internLabel("bad");
  EXPECT_EQ(S.undoDepth(), 0u);
  EXPECT_FALSE(S.undo());

  S.labelTraces(S.lattice().top(), TraceSelect::All, Good);
  EXPECT_EQ(S.undoDepth(), 1u);
  S.labelTraces(S.lattice().top(), TraceSelect::All, Bad);
  EXPECT_EQ(S.undoDepth(), 2u);

  ASSERT_TRUE(S.undo());
  for (size_t Obj = 0; Obj < S.numObjects(); ++Obj)
    EXPECT_EQ(*S.labelOf(Obj), Good);
  ASSERT_TRUE(S.undo());
  for (size_t Obj = 0; Obj < S.numObjects(); ++Obj)
    EXPECT_FALSE(S.labelOf(Obj).has_value());
  EXPECT_FALSE(S.undo());
}

TEST(SessionTest, UndoRevertsSetLabelAndMergeBack) {
  Session S = makeStdioSession();
  LabelId Good = S.internLabel("good");
  S.setLabel(2, Good);
  ASSERT_TRUE(S.undo());
  EXPECT_FALSE(S.labelOf(2).has_value());

  FocusSession F = S.focus(
      S.lattice().top(),
      makeUnorderedFA(templateAlphabet(S.allTraces().traces()), S.table()));
  F.Sub.setLabel(0, F.Sub.internLabel("bad"));
  S.mergeBack(F);
  ASSERT_TRUE(S.labelOf(F.ParentObjects[0]).has_value());
  ASSERT_TRUE(S.undo());
  EXPECT_FALSE(S.labelOf(F.ParentObjects[0]).has_value());
}

TEST(SessionTest, ClearLabelsDropsUndoHistory) {
  Session S = makeStdioSession();
  S.labelTraces(S.lattice().top(), TraceSelect::All, S.internLabel("good"));
  EXPECT_GT(S.undoDepth(), 0u);
  S.clearLabels();
  EXPECT_EQ(S.undoDepth(), 0u);
  EXPECT_FALSE(S.undo());
}

TEST(SessionTest, LoadLabelsIsAtomicOnErrors) {
  Session S = makeStdioSession();
  std::string Err;
  // First line valid, second malformed: no label may stick.
  std::string Text = S.object(0).render(S.table());
  EXPECT_FALSE(S.loadLabels("good " + Text + "\nmalformed\n", Err));
  for (size_t Obj = 0; Obj < S.numObjects(); ++Obj)
    EXPECT_FALSE(S.labelOf(Obj).has_value());
}

TEST(SessionTest, RenderDotShowsStateColors) {
  Session S = makeStdioSession();
  std::string Dot = S.renderDot("s");
  EXPECT_NE(Dot.find("palegreen"), std::string::npos);
  LabelId Good = S.internLabel("good");
  S.labelTraces(S.lattice().top(), TraceSelect::All, Good);
  Dot = S.renderDot("s");
  EXPECT_EQ(Dot.find("palegreen"), std::string::npos);
  EXPECT_NE(Dot.find("lightcoral"), std::string::npos);
}

TEST(SessionTest, EmptyTraceSetDegeneratesGracefully) {
  TraceSet Traces; // No traces at all.
  EventTable &T = Traces.table();
  Automaton Ref;
  StateId S0 = Ref.addState();
  Ref.setStart(S0);
  Ref.setAccepting(S0);
  Ref.addTransition(S0, S0, TransitionLabel::exact(T.internName("a"), {}));
  Session S(std::move(Traces), std::move(Ref));
  EXPECT_EQ(S.numObjects(), 0u);
  EXPECT_TRUE(S.allLabeled()) << "vacuously";
  EXPECT_GE(S.lattice().size(), 1u);
  EXPECT_EQ(S.stateOf(S.lattice().top()), ConceptState::FullyLabeled);
  LabelId Good = S.internLabel("good");
  EXPECT_EQ(S.labelTraces(S.lattice().top(), TraceSelect::All, Good), 0u);
  EXPECT_EQ(S.serializeLabels(), "");
}

TEST(SessionTest, TransitionlessReferenceFA) {
  // A reference FA with no transitions: every nonempty trace is rejected,
  // all attribute rows are empty, and the lattice collapses to one
  // concept — a degenerate but legal session.
  TraceSet Traces = parseTraces("a\nb\n");
  Automaton Ref;
  StateId S0 = Ref.addState();
  Ref.setStart(S0);
  Ref.setAccepting(S0);
  Session S(std::move(Traces), std::move(Ref));
  EXPECT_EQ(S.rejectedObjects().size(), 2u);
  EXPECT_EQ(S.lattice().size(), 1u);
  // Labeling still works (everything lands in the top concept).
  LabelId Bad = S.internLabel("bad");
  EXPECT_EQ(S.labelTraces(S.lattice().top(), TraceSelect::All, Bad), 2u);
  EXPECT_TRUE(S.allLabeled());
}

TEST(SessionTest, SingleTraceSession) {
  TraceSet Traces = parseTraces("a(v0) b(v0)\n");
  Automaton Ref =
      makeUnorderedFA(templateAlphabet(Traces.traces()), Traces.table());
  Session S(std::move(Traces), std::move(Ref));
  EXPECT_EQ(S.numObjects(), 1u);
  EXPECT_GE(S.lattice().size(), 1u);
  ReferenceLabeling Target = makeReferenceLabeling(S, {"good"});
  TopDownStrategy TD;
  StrategyCost Cost = TD.run(S, Target);
  EXPECT_TRUE(Cost.Finished);
  EXPECT_EQ(Cost.total(), 2u);
}

TEST(SessionTest, DescribeConceptMentionsStateAndSim) {
  Session S = makeStdioSession();
  std::string Desc = S.describeConcept(S.lattice().top());
  EXPECT_NE(Desc.find("sim="), std::string::npos);
  EXPECT_NE(Desc.find("unlabeled"), std::string::npos);
}

TEST(SessionTest, BuildRejectsEpsilonAutomaton) {
  TraceSet Traces = parseTraces("a(v0)\n");
  Automaton Eps;
  StateId S0 = Eps.addState(), S1 = Eps.addState();
  Eps.setStart(S0);
  Eps.setAccepting(S1);
  Eps.addTransition(S0, S1, TransitionLabel::epsilon());
  StatusOr<Session> Built = Session::build(std::move(Traces), std::move(Eps));
  ASSERT_FALSE(Built.isOk());
  EXPECT_EQ(Built.status().code(), ErrorCode::InvalidArgument);
}

TEST(SessionTest, ConceptCapTruncatesButKeepsBaselineClasses) {
  TraceSet Traces = parseTraces("popen(v0) fread(v0) pclose(v0)\n"
                                "popen(v0) fwrite(v0) pclose(v0)\n"
                                "popen(v0) fread(v0)\n"
                                "fopen(v0) fread(v0)\n"
                                "fopen(v0) pclose(v0)\n");
  Automaton RefFA = makeUnorderedFA(templateAlphabet(Traces.traces()),
                                    Traces.table());
  SessionOptions Opts;
  Opts.ResourceBudget.MaxConcepts = 2;
  StatusOr<Session> Built =
      Session::build(std::move(Traces), std::move(RefFA), Opts);
  ASSERT_TRUE(Built.isOk()) << Built.status().render();
  EXPECT_TRUE(Built->truncated());
  EXPECT_EQ(Built->buildStatus().code(), ErrorCode::ResourceExhausted);
  // The §5 baseline clustering never depends on the lattice budget.
  EXPECT_EQ(Built->baselineClasses().numClasses(), 5u);
  // The partial lattice is still a usable bounded structure.
  EXPECT_GE(Built->lattice().size(), 1u);
  EXPECT_LE(Built->lattice().size(), 4u);
}

TEST(SessionTest, UnlimitedBuildMatchesLegacyConstructor) {
  Session Legacy = makeStdioSession();
  TraceSet Traces = parseTraces("popen(v0) fread(v0) pclose(v0)\n"
                                "popen(v0) fwrite(v0) pclose(v0)\n"
                                "popen(v0) fread(v0)\n"
                                "fopen(v0) fread(v0)\n"
                                "fopen(v0) pclose(v0)\n"
                                "popen(v0) fread(v0) pclose(v0)\n");
  Automaton RefFA = makeUnorderedFA(templateAlphabet(Traces.traces()),
                                    Traces.table());
  StatusOr<Session> Built = Session::build(std::move(Traces), std::move(RefFA));
  ASSERT_TRUE(Built.isOk());
  EXPECT_FALSE(Built->truncated());
  EXPECT_EQ(Built->lattice().size(), Legacy.lattice().size());
  EXPECT_EQ(Built->numObjects(), Legacy.numObjects());
}

// -- Undo inside Focus sub-sessions -----------------------------------------
//
// A Focus sub-session is a full Session with its own undo history; undoing
// inside it must neither leak into the parent's history nor survive the
// merge-back incorrectly.

TEST(SessionTest, UndoInsideFocusOnlyAffectsTheSubSession) {
  Session S = makeStdioSession();
  S.setLabel(3, S.internLabel("outer"));
  size_t ParentDepth = S.undoDepth();

  FocusSession F = S.focus(
      S.lattice().top(),
      makeUnorderedFA(templateAlphabet(S.allTraces().traces()), S.table()));
  LabelId Good = F.Sub.internLabel("good");
  LabelId Bad = F.Sub.internLabel("bad");
  F.Sub.setLabel(0, Bad);
  F.Sub.setLabel(1, Good);
  EXPECT_EQ(F.Sub.undoDepth(), 2u);

  // Undo the mislabel inside the focus, then relabel.
  ASSERT_TRUE(F.Sub.undo());
  ASSERT_TRUE(F.Sub.undo());
  EXPECT_FALSE(F.Sub.labelOf(0).has_value());
  F.Sub.setLabel(0, Good);

  // The parent's history never moved.
  EXPECT_EQ(S.undoDepth(), ParentDepth);

  S.mergeBack(F);
  EXPECT_EQ(S.labelName(*S.labelOf(F.ParentObjects[0])), "good");
  EXPECT_FALSE(S.labelOf(F.ParentObjects[1]).has_value())
      << "undone sub-session label leaked through merge-back";
  EXPECT_EQ(S.labelName(*S.labelOf(3)), "outer");
}

TEST(SessionTest, MergeBackAfterSubSessionUndoIsOneParentUndoStep) {
  Session S = makeStdioSession();
  FocusSession F = S.focus(
      S.lattice().top(),
      makeUnorderedFA(templateAlphabet(S.allTraces().traces()), S.table()));
  F.Sub.setLabel(0, F.Sub.internLabel("bad"));
  ASSERT_TRUE(F.Sub.undo());
  F.Sub.setLabel(0, F.Sub.internLabel("good"));
  F.Sub.setLabel(2, F.Sub.internLabel("good"));

  size_t Before = S.undoDepth();
  S.mergeBack(F);
  EXPECT_EQ(S.undoDepth(), Before + 1);

  // One undo reverts the entire merge, including labels whose sub-session
  // history was rewritten by undo.
  ASSERT_TRUE(S.undo());
  EXPECT_FALSE(S.labelOf(F.ParentObjects[0]).has_value());
  EXPECT_FALSE(S.labelOf(F.ParentObjects[2]).has_value());
}

TEST(SessionTest, UndoInsideFocusThenMergeBackRoundTripsThroughSnapshot) {
  // The journal snapshots only base-level state, so the exact labels that
  // exist after an undo-inside-focus merge must survive serializeSnapshot.
  Session S = makeStdioSession();
  FocusSession F = S.focus(
      S.lattice().top(),
      makeUnorderedFA(templateAlphabet(S.allTraces().traces()), S.table()));
  F.Sub.setLabel(0, F.Sub.internLabel("bad"));
  ASSERT_TRUE(F.Sub.undo());
  F.Sub.setLabel(0, F.Sub.internLabel("good"));
  S.mergeBack(F);

  Session R = makeStdioSession();
  ASSERT_TRUE(R.loadSnapshot(S.serializeSnapshot()).isOk());
  EXPECT_EQ(R.serializeSnapshot(), S.serializeSnapshot());
  ASSERT_TRUE(R.undo());
  EXPECT_FALSE(R.labelOf(F.ParentObjects[0]).has_value());
}

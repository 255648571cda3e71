//===- tests/cable/PersistenceTest.cpp -------------------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "cable/Session.h"

#include "../TestHelpers.h"
#include "fa/Templates.h"

#include <gtest/gtest.h>

using namespace cable;
using cable::test::compileFA;
using cable::test::parseTraces;

namespace {

Session makeSession(const char *Text) {
  TraceSet Traces = parseTraces(Text);
  Automaton Ref =
      makeUnorderedFA(templateAlphabet(Traces.traces()), Traces.table());
  return Session(std::move(Traces), std::move(Ref));
}

} // namespace

TEST(PersistenceTest, RoundTripPreservesLabels) {
  Session A = makeSession("x(v0) y(v0)\nx(v0)\ny(v0)\n");
  LabelId Good = A.internLabel("good");
  LabelId Bad = A.internLabel("bad");
  A.setLabel(0, Good);
  A.setLabel(1, Bad);
  // Object 2 left unlabeled.
  std::string Saved = A.serializeLabels();

  Session B = makeSession("x(v0) y(v0)\nx(v0)\ny(v0)\n");
  std::string Err;
  size_t Unmatched = 0;
  ASSERT_TRUE(B.loadLabels(Saved, Err, &Unmatched)) << Err;
  EXPECT_EQ(Unmatched, 0u);
  EXPECT_EQ(B.labelName(*B.labelOf(0)), "good");
  EXPECT_EQ(B.labelName(*B.labelOf(1)), "bad");
  EXPECT_FALSE(B.labelOf(2).has_value());
}

TEST(PersistenceTest, LabelsSurviveReclusteringWithDifferentFA) {
  // The §4.3 remedy re-clusters with a new FA; labels are matched by
  // trace content, so they carry over.
  Session A = makeSession("seed(v0) a(v0)\nseed(v0) b(v0)\n");
  A.setLabel(0, A.internLabel("good"));
  A.setLabel(1, A.internLabel("bad"));
  std::string Saved = A.serializeLabels();

  TraceSet Traces = parseTraces("seed(v0) b(v0)\nseed(v0) a(v0)\n");
  EventId Seed = Traces.table().internEvent("seed", {0});
  Automaton Ref = makeSeedOrderFA(templateAlphabet(Traces.traces()), Seed,
                                  Traces.table());
  Session B(std::move(Traces), std::move(Ref));
  std::string Err;
  ASSERT_TRUE(B.loadLabels(Saved, Err)) << Err;
  // Object order differs; match by content.
  EXPECT_EQ(B.labelName(*B.labelOf(0)), "bad");  // seed b
  EXPECT_EQ(B.labelName(*B.labelOf(1)), "good"); // seed a
}

TEST(PersistenceTest, UnmatchedTracesCounted) {
  Session A = makeSession("x(v0)\n");
  A.setLabel(0, A.internLabel("good"));
  std::string Saved = A.serializeLabels() + "bad z(v0) w(v0)\n";

  Session B = makeSession("x(v0)\n");
  std::string Err;
  size_t Unmatched = 0;
  ASSERT_TRUE(B.loadLabels(Saved, Err, &Unmatched)) << Err;
  EXPECT_EQ(Unmatched, 1u);
  EXPECT_EQ(B.labelName(*B.labelOf(0)), "good");
}

TEST(PersistenceTest, CommentsAndBlanksIgnored) {
  Session A = makeSession("x(v0)\n");
  std::string Err;
  ASSERT_TRUE(A.loadLabels("# comment\n\n  \ngood x(v0)\n", Err)) << Err;
  EXPECT_EQ(A.labelName(*A.labelOf(0)), "good");
}

TEST(PersistenceTest, MalformedLineRejected) {
  Session A = makeSession("x(v0)\n");
  std::string Err;
  EXPECT_FALSE(A.loadLabels("justonetoken\n", Err));
  EXPECT_NE(Err.find("line 1"), std::string::npos) << Err;
}

TEST(PersistenceTest, ConceptStatesReflectLoadedLabels) {
  Session A = makeSession("x(v0)\ny(v0)\n");
  std::string Err;
  ASSERT_TRUE(A.loadLabels("good x(v0)\ngood y(v0)\n", Err)) << Err;
  EXPECT_TRUE(A.allLabeled());
  EXPECT_EQ(A.stateOf(A.lattice().top()), ConceptState::FullyLabeled);
}

// -- Session snapshots (journal compaction state) ---------------------------

TEST(PersistenceTest, SnapshotRoundTripsLabelsInternOrderAndUndo) {
  Session A = makeSession("x(v0) y(v0)\nx(v0)\ny(v0)\n");
  // Intern a label that never gets used: the order must still survive,
  // or replayed label-id allocation would diverge.
  A.internLabel("zebra");
  LabelId Good = A.internLabel("good");
  A.setLabel(0, Good);
  A.labelTraces(A.lattice().top(), TraceSelect::Unlabeled,
                A.internLabel("bad"));
  ASSERT_TRUE(A.undo());
  A.setLabel(1, Good);

  Session B = makeSession("x(v0) y(v0)\nx(v0)\ny(v0)\n");
  ASSERT_TRUE(B.loadSnapshot(A.serializeSnapshot()).isOk());
  EXPECT_EQ(B.serializeSnapshot(), A.serializeSnapshot());
  EXPECT_EQ(B.numLabels(), A.numLabels());
  EXPECT_EQ(B.labelName(0), "zebra");
  EXPECT_EQ(B.labelName(*B.labelOf(0)), "good");
  EXPECT_EQ(B.labelName(*B.labelOf(1)), "good");
  EXPECT_EQ(B.undoDepth(), A.undoDepth());

  // The undo history replays identically: both sessions step back to the
  // same states.
  while (A.undoDepth() > 0) {
    ASSERT_TRUE(A.undo());
    ASSERT_TRUE(B.undo());
    EXPECT_EQ(B.serializeSnapshot(), A.serializeSnapshot());
  }
  EXPECT_FALSE(B.undo());
}

TEST(PersistenceTest, SnapshotRejectsObjectCountMismatch) {
  Session A = makeSession("x(v0)\ny(v0)\n");
  A.setLabel(0, A.internLabel("good"));
  std::string Snap = A.serializeSnapshot();

  Session B = makeSession("x(v0)\n");
  Status St = B.loadSnapshot(Snap);
  ASSERT_FALSE(St.isOk());
  EXPECT_EQ(St.diagnostic().Code, ErrorCode::InvalidArgument);
  // The failed load left B untouched.
  EXPECT_EQ(B.numLabels(), 0u);
  EXPECT_FALSE(B.labelOf(0).has_value());
}

TEST(PersistenceTest, SnapshotRejectsGarbageWithAPositionedError) {
  Session A = makeSession("x(v0)\n");
  Status St = A.loadSnapshot("objects 1\nwat 7 barf\n");
  ASSERT_FALSE(St.isOk());
  EXPECT_EQ(St.diagnostic().Code, ErrorCode::ParseError);
  EXPECT_EQ(St.diagnostic().Pos.Line, 2u);
  EXPECT_EQ(A.numLabels(), 0u);
}

TEST(PersistenceTest, SnapshotOfEmptySessionIsLoadable) {
  Session A = makeSession("x(v0)\n");
  Session B = makeSession("x(v0)\n");
  ASSERT_TRUE(B.loadSnapshot(A.serializeSnapshot()).isOk());
  EXPECT_EQ(B.numLabels(), 0u);
  EXPECT_EQ(B.undoDepth(), 0u);
}

// -- Undo order when a labels file names a trace twice -----------------------

TEST(PersistenceTest, UndoOfALoadNamingATraceTwiceRestoresTheOriginal) {
  Session A = makeSession("x(v0)\ny(v0)\n");
  A.setLabel(0, A.internLabel("good"));
  std::string Name = A.object(0).render(A.table());
  std::string Err;
  ASSERT_TRUE(A.loadLabels("bad " + Name + "\nworse " + Name + "\n", Err))
      << Err;
  EXPECT_EQ(A.labelName(*A.labelOf(0)), "worse");
  ASSERT_TRUE(A.undo());
  EXPECT_EQ(A.labelName(*A.labelOf(0)), "good");
  EXPECT_EQ(A.objectsWithLabel(*A.findLabel("good")).count(), 1u);
  EXPECT_EQ(A.objectsWithLabel(*A.findLabel("bad")).count(), 0u);
  EXPECT_EQ(A.objectsWithLabel(*A.findLabel("worse")).count(), 0u);
}

TEST(PersistenceTest, FailedLoadNamingATraceTwiceLeavesTheSessionUnchanged) {
  Session A = makeSession("x(v0)\ny(v0)\n");
  A.setLabel(0, A.internLabel("good"));
  std::string Before = A.serializeSnapshot();
  std::string Name = A.object(0).render(A.table());
  std::string Err;
  EXPECT_FALSE(A.loadLabels(
      "bad " + Name + "\nworse " + Name + "\nmalformed\n", Err));
  EXPECT_NE(Err.find("line 3"), std::string::npos) << Err;
  EXPECT_EQ(A.labelName(*A.labelOf(0)), "good");
  EXPECT_EQ(A.numLabels(), 1u) << "a failed load must intern no label";
  EXPECT_EQ(A.undoDepth(), 1u);
  EXPECT_EQ(A.serializeSnapshot(), Before);
}

//===- tests/cable/SessionModelTest.cpp ------------------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Model-based testing of the Session's labeling state machine: a random
// sequence of label / setLabel / undo / mergeBack / loadLabels /
// loadSnapshot / clearLabels operations is applied both to the Session and
// to a trivial reference model (a map from object to label plus an
// explicit history). After every step the two must agree, and the derived
// views (concept states, selections, label populations) must match
// recomputation from the model. The model is the oracle for the Session's
// incremental label bitsets.
//
//===----------------------------------------------------------------------===//

#include "SessionModel.h"

#include <gtest/gtest.h>

using namespace cable;
using namespace cable::test;

class SessionModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SessionModelTest, RandomOperationSequencesAgreeWithModel) {
  RNG Rand(GetParam() * 9176 + 3);
  Session S = makeRandomSession(Rand);
  Model M(S.numObjects());

  LabelId Good = S.internLabel("good");
  LabelId Bad = S.internLabel("bad");
  std::vector<LabelId> AllLabels{Good, Bad};
  std::optional<std::string> Saved;
  Model SavedModel(0);

  for (int Step = 0; Step < 60; ++Step) {
    switch (Rand.nextBounded(8)) {
    case 0: { // labelTraces with a random selection mode.
      auto Id = static_cast<ConceptLattice::NodeId>(
          Rand.nextIndex(S.lattice().size()));
      LabelId L = AllLabels[Rand.nextIndex(AllLabels.size())];
      size_t Mode = Rand.nextBounded(3);
      TraceSelect Select = Mode == 0   ? TraceSelect::All
                           : Mode == 1 ? TraceSelect::Unlabeled
                                       : TraceSelect::WithLabel;
      std::optional<LabelId> From;
      if (Select == TraceSelect::WithLabel)
        From = AllLabels[Rand.nextIndex(AllLabels.size())];

      M.snapshot();
      size_t Changed = S.labelTraces(Id, Select, L, From);
      size_t ModelChanged = 0;
      for (size_t Obj : S.lattice().node(Id).Extent) {
        bool Selected =
            Select == TraceSelect::All ||
            (Select == TraceSelect::Unlabeled && !M.Labels[Obj]) ||
            (Select == TraceSelect::WithLabel && M.Labels[Obj] == From);
        if (Selected && M.Labels[Obj] != std::optional<LabelId>(L)) {
          M.Labels[Obj] = L;
          ++ModelChanged;
        }
      }
      EXPECT_EQ(Changed, ModelChanged);
      break;
    }
    case 1: { // setLabel.
      size_t Obj = Rand.nextIndex(S.numObjects());
      LabelId L = AllLabels[Rand.nextIndex(AllLabels.size())];
      M.snapshot();
      S.setLabel(Obj, L);
      M.Labels[Obj] = L;
      break;
    }
    case 2: { // undo.
      bool Expected = M.undo();
      EXPECT_EQ(S.undo(), Expected);
      break;
    }
    case 3: { // focus + label inside + mergeBack.
      auto Id = static_cast<ConceptLattice::NodeId>(
          Rand.nextIndex(S.lattice().size()));
      if (S.lattice().node(Id).Extent.none())
        break;
      FocusSession F = S.focus(
          Id, makeUnorderedFA(templateAlphabet(S.allTraces().traces()),
                              S.table()));
      // Label a random sub-object with a random label.
      size_t SubObj = Rand.nextIndex(F.Sub.numObjects());
      LabelId L = F.Sub.internLabel(Rand.nextBool(0.5) ? "good" : "bad");
      F.Sub.setLabel(SubObj, L);
      M.snapshot();
      S.mergeBack(F);
      M.Labels[F.ParentObjects[SubObj]] =
          S.internLabel(F.Sub.labelName(L));
      break;
    }
    case 4: { // Serialization round trip must be faithful mid-stream.
      std::string Saved = S.serializeLabels();
      size_t Lines = 0;
      for (char C : Saved)
        Lines += C == '\n';
      size_t LabeledCount = 0;
      for (const auto &L : M.Labels)
        LabeledCount += L.has_value();
      EXPECT_EQ(Lines, LabeledCount);
      break;
    }
    case 5: { // loadLabels: duplicate traces, unmatched and malformed lines.
      const char *Names[] = {"good", "bad", "ugly"};
      std::vector<std::pair<size_t, std::string>> Lines;
      std::string Text;
      bool Malformed = false;
      size_t NumLines = 1 + Rand.nextIndex(4);
      for (size_t I = 0; I < NumLines; ++I) {
        size_t Obj = Rand.nextIndex(S.numObjects());
        if (!Lines.empty() && Rand.nextBool(0.3))
          Obj = Lines.back().first; // The same trace again.
        std::string Name = Names[Rand.nextIndex(3)];
        Lines.emplace_back(Obj, Name);
        Text += Name + " " + S.object(Obj).render(S.table()) + "\n";
        if (Rand.nextBool(0.2))
          Text += "good zz\n"; // Names no trace of this session.
        if (Rand.nextBool(0.1)) {
          Text += "malformed\n";
          Malformed = true;
        }
      }
      size_t LabelsBefore = S.numLabels();
      std::string Err;
      EXPECT_EQ(S.loadLabels(Text, Err), !Malformed) << Err;
      if (Malformed) {
        EXPECT_EQ(S.numLabels(), LabelsBefore);
        break;
      }
      M.snapshot();
      for (const auto &[Obj, Name] : Lines)
        M.Labels[Obj] = S.findLabel(Name);
      break;
    }
    case 6: { // Snapshot now, or restore an earlier snapshot.
      if (!Saved || Rand.nextBool(0.5)) {
        Saved = S.serializeSnapshot();
        SavedModel = M;
        break;
      }
      ASSERT_TRUE(S.loadSnapshot(*Saved).isOk());
      M = SavedModel;
      break;
    }
    case 7: { // clearLabels drops labels and history.
      S.clearLabels();
      M.Labels.assign(M.Labels.size(), std::nullopt);
      M.History.clear();
      break;
    }
    }
    expectAgreement(S, M);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionModelTest,
                         ::testing::Range<uint64_t>(0, 20));

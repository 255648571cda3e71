//===- tests/cable/SessionModel.h - Reference model of labeling -*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The trivial reference model the model-based suites check a Session
// against (a map from object to label plus an explicit history of full
// snapshots), the random session generators they run on (complete and
// budget-truncated lattices), and the agreement check. Shared by
// SessionModelTest (Session operations) and the command interpreter fuzz
// test (command lines).
//
//===----------------------------------------------------------------------===//

#ifndef CABLE_TESTS_CABLE_SESSIONMODEL_H
#define CABLE_TESTS_CABLE_SESSIONMODEL_H

#include "cable/Session.h"
#include "fa/Templates.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

namespace cable::test {

/// The reference model: labels plus an undo history of full snapshots.
struct Model {
  std::vector<std::optional<LabelId>> Labels;
  std::vector<std::vector<std::optional<LabelId>>> History;

  explicit Model(size_t N) : Labels(N) {}

  void snapshot() { History.push_back(Labels); }
  bool undo() {
    if (History.empty())
      return false;
    Labels = History.back();
    History.pop_back();
    return true;
  }
};

/// 3-10 random traces over the events a..d.
inline TraceSet makeRandomTraces(RNG &Rand) {
  TraceSet Traces;
  std::vector<std::string> Pool{"a", "b", "c", "d"};
  size_t N = 3 + Rand.nextIndex(8);
  for (size_t I = 0; I < N; ++I) {
    Trace T;
    size_t Len = 1 + Rand.nextIndex(4);
    for (size_t J = 0; J < Len; ++J)
      T.append(Traces.table().internEvent(Pool[Rand.nextIndex(Pool.size())]));
    Traces.add(std::move(T));
  }
  return Traces;
}

/// Random traces clustered with the unordered template.
inline Session makeRandomSession(RNG &Rand) {
  TraceSet Traces = makeRandomTraces(Rand);
  Automaton Ref =
      makeUnorderedFA(templateAlphabet(Traces.traces()), Traces.table());
  return Session(std::move(Traces), std::move(Ref));
}

/// As makeRandomSession, but built by Session::build under a concept cap
/// of 2-4, drawing again until the cap truncates the lattice.
inline Session makeTruncatedSession(RNG &Rand) {
  for (;;) {
    TraceSet Traces = makeRandomTraces(Rand);
    Automaton Ref =
        makeUnorderedFA(templateAlphabet(Traces.traces()), Traces.table());
    SessionOptions Options;
    Options.ResourceBudget.MaxConcepts = 2 + Rand.nextIndex(3);
    StatusOr<Session> S =
        Session::build(std::move(Traces), std::move(Ref), Options);
    if (S.isOk() && S->truncated())
      return std::move(*S);
  }
}

inline void expectAgreement(const Session &S, const Model &M) {
  ASSERT_EQ(M.Labels.size(), S.numObjects());
  for (size_t Obj = 0; Obj < S.numObjects(); ++Obj)
    EXPECT_EQ(S.labelOf(Obj), M.Labels[Obj]) << "object " << Obj;

  // Global views.
  size_t Unlabeled = 0;
  for (const auto &L : M.Labels)
    Unlabeled += !L.has_value();
  EXPECT_EQ(S.unlabeledObjects().count(), Unlabeled);
  EXPECT_EQ(S.allLabeled(), Unlabeled == 0);
  EXPECT_EQ(S.undoDepth(), M.History.size());

  // Label populations recomputed from the model; one id past the last
  // label stands for an unknown label, which has no objects.
  for (LabelId L = 0; L <= S.numLabels(); ++L) {
    std::vector<size_t> Want;
    for (size_t Obj = 0; Obj < S.numObjects(); ++Obj)
      if (M.Labels[Obj] == std::optional<LabelId>(L))
        Want.push_back(Obj);
    EXPECT_EQ(S.objectsWithLabel(L).toIndices(), Want) << "label " << L;
  }

  // Selections in all three modes recomputed from the model.
  for (ConceptLattice::NodeId Id = 0; Id < S.lattice().size(); ++Id) {
    const BitVector &Extent = S.lattice().node(Id).Extent;
    EXPECT_EQ(S.selectObjects(Id, TraceSelect::All).toIndices(),
              Extent.toIndices());
    std::vector<size_t> Unlabeled;
    for (size_t Obj : Extent)
      if (!M.Labels[Obj])
        Unlabeled.push_back(Obj);
    EXPECT_EQ(S.selectObjects(Id, TraceSelect::Unlabeled).toIndices(),
              Unlabeled)
        << "concept " << Id;
    EXPECT_TRUE(S.selectObjects(Id, TraceSelect::WithLabel).none());
    for (LabelId L = 0; L <= S.numLabels(); ++L) {
      std::vector<size_t> With;
      for (size_t Obj : Extent)
        if (M.Labels[Obj] == std::optional<LabelId>(L))
          With.push_back(Obj);
      EXPECT_EQ(S.selectObjects(Id, TraceSelect::WithLabel, L).toIndices(),
                With)
          << "concept " << Id << ", label " << L;
    }
  }

  // Concept states recomputed from the model.
  for (ConceptLattice::NodeId Id = 0; Id < S.lattice().size(); ++Id) {
    bool AnyLabeled = false, AnyUnlabeled = false;
    for (size_t Obj : S.lattice().node(Id).Extent) {
      (M.Labels[Obj] ? AnyLabeled : AnyUnlabeled) = true;
    }
    ConceptState Expected =
        AnyLabeled && AnyUnlabeled
            ? ConceptState::PartlyLabeled
            : (AnyUnlabeled ? ConceptState::Unlabeled
                            : ConceptState::FullyLabeled);
    EXPECT_EQ(S.stateOf(Id), Expected) << "concept " << Id;
  }
}

} // namespace cable::test

#endif // CABLE_TESTS_CABLE_SESSIONMODEL_H

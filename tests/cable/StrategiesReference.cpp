//===- tests/cable/StrategiesReference.cpp - Strategy oracle ---------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "StrategiesReference.h"

#include <deque>
#include <unordered_set>

using namespace cable;

namespace {

using NodeId = ConceptLattice::NodeId;

/// Inspection already charged: one label command if the concept's
/// unlabeled traces share a target label.
bool labelIfUniform(Session &S, NodeId Id, const ReferenceLabeling &Target,
                    StrategyCost &Cost) {
  BitVector U = S.selectObjects(Id, TraceSelect::Unlabeled);
  if (U.none() || !Target.uniform(U))
    return false;
  S.labelTraces(Id, TraceSelect::Unlabeled, Target.sharedLabel(U));
  ++Cost.LabelOps;
  return true;
}

} // namespace

StrategyCost cable::test::referenceTopDown(Session &S,
                                           const ReferenceLabeling &Target,
                                           std::optional<RNG> Rand) {
  S.clearLabels();
  StrategyCost Cost;
  const ConceptLattice &L = S.lattice();

  for (;;) {
    if (S.allLabeled()) {
      Cost.Finished = true;
      return Cost;
    }
    bool Progress = false;
    std::vector<bool> Enqueued(L.size(), false);
    std::deque<NodeId> Queue;
    Queue.push_back(L.top());
    Enqueued[L.top()] = true;
    while (!Queue.empty()) {
      NodeId Id = Queue.front();
      Queue.pop_front();
      if (S.stateOf(Id) != ConceptState::FullyLabeled) {
        ++Cost.Inspections;
        if (labelIfUniform(S, Id, Target, Cost))
          Progress = true;
      }
      std::vector<NodeId> Children = L.children(Id);
      if (Rand)
        Rand->shuffle(Children);
      for (NodeId C : Children)
        if (!Enqueued[C] && S.stateOf(C) != ConceptState::FullyLabeled) {
          Enqueued[C] = true;
          Queue.push_back(C);
        }
    }
    if (!Progress)
      return Cost;
  }
}

StrategyCost cable::test::referenceBottomUp(Session &S,
                                            const ReferenceLabeling &Target,
                                            std::optional<RNG> Rand) {
  S.clearLabels();
  StrategyCost Cost;
  const ConceptLattice &L = S.lattice();

  while (!S.allLabeled()) {
    std::vector<NodeId> Ready;
    for (NodeId Id = 0; Id < L.size(); ++Id) {
      if (S.stateOf(Id) == ConceptState::FullyLabeled)
        continue;
      bool ChildrenDone = true;
      for (NodeId C : L.children(Id))
        if (S.stateOf(C) != ConceptState::FullyLabeled) {
          ChildrenDone = false;
          break;
        }
      if (ChildrenDone) {
        Ready.push_back(Id);
        if (!Rand)
          break;
      }
    }
    if (Ready.empty())
      return Cost;
    NodeId Next = Rand ? Ready[Rand->nextIndex(Ready.size())] : Ready[0];
    ++Cost.Inspections;
    if (!labelIfUniform(S, Next, Target, Cost))
      return Cost;
  }
  Cost.Finished = true;
  return Cost;
}

StrategyCost cable::test::referenceRandom(Session &S,
                                          const ReferenceLabeling &Target,
                                          RNG Rand) {
  S.clearLabels();
  StrategyCost Cost;
  const ConceptLattice &L = S.lattice();

  size_t SinceLastLabel = 0;
  while (!S.allLabeled()) {
    std::vector<NodeId> Candidates;
    for (NodeId Id = 0; Id < L.size(); ++Id)
      if (S.stateOf(Id) != ConceptState::FullyLabeled)
        Candidates.push_back(Id);
    NodeId Pick = Candidates[Rand.nextIndex(Candidates.size())];
    ++Cost.Inspections;
    if (labelIfUniform(S, Pick, Target, Cost)) {
      SinceLastLabel = 0;
    } else if (++SinceLastLabel > 4 * L.size() + 64) {
      return Cost;
    }
  }
  Cost.Finished = true;
  return Cost;
}

StrategyCost cable::test::referenceOptimal(Session &S,
                                           const ReferenceLabeling &Target,
                                           size_t StateCap,
                                           size_t *StatesInserted) {
  S.clearLabels();
  StrategyCost Cost;
  const ConceptLattice &L = S.lattice();
  size_t N = S.numObjects();
  if (StatesInserted)
    *StatesInserted = 0;

  if (N == 0) {
    Cost.Finished = true;
    return Cost;
  }
  BitVector Start(N);
  BitVector Goal(N);
  Goal.setAll();

  std::unordered_set<BitVector, BitVectorHash> Seen;
  std::deque<std::pair<BitVector, size_t>> Queue;
  Seen.insert(Start);
  Queue.emplace_back(Start, 0);
  auto Report = [&] {
    if (StatesInserted)
      *StatesInserted = Seen.size();
  };

  while (!Queue.empty()) {
    auto [Labeled, Moves] = Queue.front();
    Queue.pop_front();
    if (Labeled == Goal) {
      Cost.Inspections = Moves;
      Cost.LabelOps = Moves;
      Cost.Finished = true;
      for (size_t Obj = 0; Obj < N; ++Obj)
        S.setLabel(Obj, Target.Target[Obj]);
      Report();
      return Cost;
    }
    for (NodeId Id = 0; Id < L.size(); ++Id) {
      BitVector U = L.node(Id).Extent;
      U.andNot(Labeled);
      if (U.none() || !Target.uniform(U))
        continue;
      BitVector NextSet = Labeled;
      NextSet |= U;
      if (Seen.insert(NextSet).second) {
        if (Seen.size() > StateCap) {
          Report();
          return Cost;
        }
        Queue.emplace_back(std::move(NextSet), Moves + 1);
      }
    }
  }
  Report();
  return Cost;
}

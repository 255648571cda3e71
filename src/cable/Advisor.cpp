//===- cable/Advisor.cpp - Interactive lattice fine-tuning -----------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "cable/Advisor.h"

#include "fa/Templates.h"
#include "support/BitVector.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

using namespace cable;

std::vector<SeedSuggestion>
cable::suggestFocusSeeds(const Session &S, ConceptLattice::NodeId Id,
                         size_t MaxSuggestions) {
  // The concept's traces and their alphabet.
  std::vector<Trace> Traces;
  for (size_t Obj : S.lattice().node(Id).Extent)
    Traces.push_back(S.object(Obj));
  if (Traces.size() < 2)
    return {};
  std::vector<EventId> Alphabet = templateAlphabet(Traces);

  // The advisor only reads the table; seed-order FAs over existing events
  // intern nothing new, so a private copy keeps the API const.
  EventTable Table = S.table();

  std::vector<SeedSuggestion> Out;
  for (EventId Seed : Alphabet) {
    Automaton FA = makeSeedOrderFA(Alphabet, Seed, Table);
    RelationScanner Relation(FA, Table);
    std::unordered_set<BitVector, BitVectorHash> Groups;
    size_t Accepted = 0;
    bool AnyRejected = false;
    for (const Trace &T : Traces) {
      const BitVector &Row = Relation.executed(T);
      if (Row.none()) {
        AnyRejected = true;
        continue;
      }
      ++Accepted;
      Groups.insert(Row);
    }
    SeedSuggestion Suggestion;
    Suggestion.Seed = Seed;
    // Rejected traces form one extra group (empty attribute rows).
    Suggestion.NumGroups = Groups.size() + (AnyRejected ? 1 : 0);
    Suggestion.NumAccepted = Accepted;
    if (Suggestion.NumGroups >= 2)
      Out.push_back(Suggestion);
  }
  std::sort(Out.begin(), Out.end(),
            [](const SeedSuggestion &A, const SeedSuggestion &B) {
              if (A.NumGroups != B.NumGroups)
                return A.NumGroups > B.NumGroups;
              if (A.NumAccepted != B.NumAccepted)
                return A.NumAccepted > B.NumAccepted;
              return A.Seed < B.Seed;
            });
  if (Out.size() > MaxSuggestions)
    Out.resize(MaxSuggestions);
  return Out;
}

std::vector<ProjectionSuggestion>
cable::suggestNameProjections(const Session &S, ConceptLattice::NodeId Id,
                              size_t MaxSuggestions) {
  std::vector<Trace> Traces;
  for (size_t Obj : S.lattice().node(Id).Extent)
    Traces.push_back(S.object(Obj));
  if (Traces.size() < 2)
    return {};
  std::vector<EventId> Alphabet = templateAlphabet(Traces);
  EventTable Table = S.table();

  // Candidate values: every canonical value any trace mentions.
  std::vector<ValueId> Values;
  {
    std::unordered_set<ValueId> Seen;
    for (EventId E : Alphabet)
      for (ValueId V : Table.event(E).Args)
        if (Seen.insert(V).second)
          Values.push_back(V);
  }

  std::vector<ProjectionSuggestion> Out;
  for (ValueId V : Values) {
    Automaton FA = makeNameProjectionFA(Alphabet, V, Table);
    RelationScanner Relation(FA, Table);
    std::unordered_set<BitVector, BitVectorHash> Groups;
    for (const Trace &T : Traces)
      Groups.insert(Relation.executed(T));
    if (Groups.size() >= 2)
      Out.push_back(ProjectionSuggestion{V, Groups.size()});
  }
  std::sort(Out.begin(), Out.end(),
            [](const ProjectionSuggestion &A, const ProjectionSuggestion &B) {
              if (A.NumGroups != B.NumGroups)
                return A.NumGroups > B.NumGroups;
              return A.Value < B.Value;
            });
  if (Out.size() > MaxSuggestions)
    Out.resize(MaxSuggestions);
  return Out;
}

Automaton cable::buildSuggestedFocusFA(const Session &S,
                                       ConceptLattice::NodeId Id,
                                       EventId Seed) {
  std::vector<Trace> Traces;
  for (size_t Obj : S.lattice().node(Id).Extent)
    Traces.push_back(S.object(Obj));
  std::vector<EventId> Alphabet = templateAlphabet(Traces);
  EventTable Table = S.table();
  return Automaton::disjointUnion(makeUnorderedFA(Alphabet, Table),
                                  makeSeedOrderFA(Alphabet, Seed, Table));
}

StrategyCost AutoFocusStrategy::run(Session &S,
                                    const ReferenceLabeling &Target) {
  S.clearLabels();
  return runAtDepth(S, Target, 0);
}

StrategyCost AutoFocusStrategy::runAtDepth(Session &S,
                                           const ReferenceLabeling &Target,
                                           size_t Depth) {
  StrategyCost Cost;
  const ConceptLattice &L = S.lattice();
  using NodeId = ConceptLattice::NodeId;

  for (;;) {
    if (S.allLabeled()) {
      Cost.Finished = true;
      return Cost;
    }

    // One top-down sweep (same policy as TopDownStrategy).
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
        BitVector U = S.selectObjects(Id, TraceSelect::Unlabeled);
        if (U.any() && Target.uniform(U)) {
          S.labelTraces(Id, TraceSelect::Unlabeled, Target.sharedLabel(U));
          ++Cost.LabelOps;
          Progress = true;
        }
      }
      for (NodeId C : L.children(Id))
        if (!Enqueued[C] && S.stateOf(C) != ConceptState::FullyLabeled) {
          Enqueued[C] = true;
          Queue.push_back(C);
        }
    }
    if (Progress)
      continue;

    // Stuck: the lattice is not well-formed for what remains. Find the
    // lowest stuck concept (smallest extent still carrying unlabeled
    // traces) and focus it with the best suggested seed FA.
    if (Depth >= MaxFocusDepth)
      return Cost;
    std::optional<NodeId> Stuck;
    size_t BestSize = static_cast<size_t>(-1);
    for (NodeId Id = 0; Id < L.size(); ++Id) {
      if (S.stateOf(Id) == ConceptState::FullyLabeled)
        continue;
      size_t Size = L.node(Id).Extent.count();
      if (Size < BestSize) {
        BestSize = Size;
        Stuck = Id;
      }
    }
    if (!Stuck)
      return Cost; // Unreachable: !allLabeled implies a stuck concept.

    std::vector<SeedSuggestion> Suggestions = suggestFocusSeeds(S, *Stuck);
    bool Focused = false;
    for (const SeedSuggestion &Suggestion : Suggestions) {
      ++Cost.Inspections; // Opening and examining the focus is an op.
      FocusSession F =
          S.focus(*Stuck, buildSuggestedFocusFA(S, *Stuck, Suggestion.Seed));

      // Restrict the target labeling to the sub-session's objects.
      ReferenceLabeling SubTarget;
      for (size_t ParentObj : F.ParentObjects)
        SubTarget.Target.push_back(Target.Target[ParentObj]);
      // Sub-session labels must share ids with the parent: intern the
      // parent's names in order.
      for (LabelId Id = 0; Id < S.numLabels(); ++Id)
        F.Sub.internLabel(S.labelName(Id));

      StrategyCost SubCost = runAtDepth(F.Sub, SubTarget, Depth + 1);
      Cost.Inspections += SubCost.Inspections;
      Cost.LabelOps += SubCost.LabelOps;
      if (!SubCost.Finished)
        continue; // Try the next suggestion.
      S.mergeBack(F);
      Focused = true;
      break;
    }
    if (!Focused)
      return Cost; // No suggestion separates the stuck concept.
  }
}

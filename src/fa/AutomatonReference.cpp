//===- fa/AutomatonReference.cpp - The per-trace relation oracle ----------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "fa/AutomatonReference.h"

#include <cassert>

using namespace cable;

BitVector cable::executedTransitionsReference(const Automaton &FA,
                                             const Trace &T,
                                             const EventTable &Table) {
  assert(!FA.hasEpsilons() &&
         "executedTransitions requires an epsilon-free automaton");
  size_t N = T.size();

  // Forward[i] = states reachable from a start state consuming T[0..i).
  std::vector<BitVector> Forward(N + 1, BitVector(FA.numStates()));
  Forward[0] = FA.startSet();
  for (size_t I = 0; I < N; ++I) {
    const Event &E = Table.event(T[I]);
    for (size_t S : Forward[I])
      for (TransitionId TI : FA.outgoing(S)) {
        const Transition &Tr = FA.transition(TI);
        if (Tr.Label.matches(E))
          Forward[I + 1].set(Tr.To);
      }
  }

  // Backward[i] = states from which consuming T[i..N) can reach acceptance.
  std::vector<BitVector> Backward(N + 1, BitVector(FA.numStates()));
  for (size_t S = 0; S < FA.numStates(); ++S)
    if (FA.isAccepting(static_cast<StateId>(S)))
      Backward[N].set(S);
  for (size_t I = N; I > 0; --I) {
    const Event &E = Table.event(T[I - 1]);
    for (size_t S = 0; S < FA.numStates(); ++S)
      for (TransitionId TI : FA.outgoing(S)) {
        const Transition &Tr = FA.transition(TI);
        if (Tr.Label.matches(E) && Backward[I].test(Tr.To)) {
          Backward[I - 1].set(S);
          break;
        }
      }
  }

  // A transition is executed iff it fires at some position of an accepting
  // run: its source is forward-reachable there and its target completes to
  // acceptance.
  BitVector Executed(FA.numTransitions());
  for (size_t I = 0; I < N; ++I) {
    const Event &E = Table.event(T[I]);
    for (size_t S : Forward[I])
      for (TransitionId TI : FA.outgoing(S)) {
        const Transition &Tr = FA.transition(TI);
        if (Tr.Label.matches(E) && Backward[I + 1].test(Tr.To))
          Executed.set(TI);
      }
  }
  return Executed;
}

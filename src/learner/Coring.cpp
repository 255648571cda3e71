//===- learner/Coring.cpp - Frequency-based coring -------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "learner/Coring.h"

#include "support/Metrics.h"
#include "support/TraceEvent.h"

#include <cassert>

using namespace cable;

namespace {
Metrics::Counter &Calls = Metrics::counter("learner.coring-calls");
} // namespace

Automaton cable::coreAutomaton(const CountedAutomaton &CA,
                               const EventTable &Table, double MinFraction) {
  assert(MinFraction >= 0 && MinFraction <= 1 && "fraction out of range");
  TraceSpan Span("coring");
  Calls.add();
  Automaton Out;
  for (size_t S = 0; S < CA.numStates(); ++S) {
    StateId Id = Out.addState();
    double Total = static_cast<double>(CA.totalCount(static_cast<StateId>(S)));
    bool KeepFinal =
        CA.isFinal(static_cast<StateId>(S)) &&
        static_cast<double>(CA.finalCount(static_cast<StateId>(S))) >=
            MinFraction * Total;
    Out.setAccepting(Id, KeepFinal);
  }
  if (CA.numStates() > 0)
    Out.setStart(0);
  for (const CountedAutomaton::Edge &E : CA.edges()) {
    double Total = static_cast<double>(CA.totalCount(E.From));
    if (static_cast<double>(E.Count) >= MinFraction * Total)
      Out.addTransition(E.From, E.To,
                        TransitionLabel::exactEvent(Table.event(E.Symbol)));
  }
  return Out.trimmed();
}

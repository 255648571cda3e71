//===- learner/KTails.cpp - The k-tails FA learner --------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "learner/KTails.h"

#include "learner/Quotient.h"
#include "support/Metrics.h"
#include "support/TraceEvent.h"

#include <map>
#include <set>
#include <vector>

using namespace cable;

namespace {

Metrics::Counter &Calls = Metrics::counter("learner.ktails-calls");

/// The k-tail set of a PTA state: accepted suffixes of length <= K. The
/// PTA is acyclic and deterministic, so plain recursion suffices.
std::set<std::vector<EventId>> tails(const CountedAutomaton &PTA,
                                     StateId State, unsigned K) {
  std::set<std::vector<EventId>> Out;
  if (PTA.isFinal(State))
    Out.insert(std::vector<EventId>()); // The empty tail: acceptance here.
  if (K == 0)
    return Out;
  for (size_t EI : PTA.outgoing(State)) {
    const CountedAutomaton::Edge &E = PTA.edge(EI);
    for (const std::vector<EventId> &Suffix : tails(PTA, E.To, K - 1)) {
      std::vector<EventId> Tail;
      Tail.reserve(Suffix.size() + 1);
      Tail.push_back(E.Symbol);
      Tail.insert(Tail.end(), Suffix.begin(), Suffix.end());
      Out.insert(std::move(Tail));
    }
  }
  return Out;
}

} // namespace

CountedAutomaton cable::learnKTails(const std::vector<Trace> &Traces,
                                    unsigned K) {
  TraceSpan Span("ktails-learn", static_cast<int64_t>(Traces.size()));
  Calls.add();
  CountedAutomaton PTA = CountedAutomaton::buildPTA(Traces);

  // Partition states by their k-tail sets.
  std::map<std::set<std::vector<EventId>>, uint32_t> KeyOfTails;
  std::vector<uint32_t> ClassKeyOf(PTA.numStates());
  for (size_t S = 0; S < PTA.numStates(); ++S) {
    std::set<std::vector<EventId>> T = tails(PTA, static_cast<StateId>(S), K);
    auto [It, Inserted] =
        KeyOfTails.emplace(std::move(T),
                           static_cast<uint32_t>(KeyOfTails.size()));
    (void)Inserted;
    ClassKeyOf[S] = It->second;
  }
  return quotientAutomaton(PTA, ClassKeyOf);
}

Automaton cable::learnKTailsFA(const std::vector<Trace> &Traces,
                               const EventTable &Table, unsigned K) {
  return learnKTails(Traces, K).toAutomaton(Table);
}

//===- miner/Miner.cpp - The Strauss pipeline ------------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "miner/Miner.h"

#include "support/Metrics.h"
#include "support/TraceEvent.h"

using namespace cable;

Specification Miner::learn(const std::vector<Trace> &Scenarios,
                           const EventTable &Table, std::string Name) const {
  TraceSpan Span("miner-learn", static_cast<int64_t>(Scenarios.size()));
  Specification Spec;
  Spec.Name = std::move(Name);
  Spec.FA = learnSkStringsFA(Scenarios, Table, Options.Learn);
  Metrics::counter("miner.specs-learned").add();
  return Spec;
}

MiningResult Miner::mine(const TraceSet &Runs, std::string Name) const {
  MiningResult Result;
  {
    TraceSpan Span("miner-extract",
                   static_cast<int64_t>(Runs.traces().size()));
    Result.Scenarios = extract(Runs);
  }
  Metrics::counter("miner.scenarios-extracted")
      .add(Result.Scenarios.traces().size());
  Result.Spec = learn(Result.Scenarios.traces(), Result.Scenarios.table(),
                      std::move(Name));
  return Result;
}

Session Miner::debugSession(TraceSet Scenarios, Automaton ReferenceFA) const {
  return Session(std::move(Scenarios), std::move(ReferenceFA));
}

StatusOr<Session> Miner::debugSessionBudgeted(TraceSet Scenarios,
                                              Automaton ReferenceFA) const {
  SessionOptions SessionOpts;
  SessionOpts.ResourceBudget = Options.ResourceBudget;
  SessionOpts.KeepGoing = Options.KeepGoing;
  return Session::build(std::move(Scenarios), std::move(ReferenceFA),
                        SessionOpts);
}

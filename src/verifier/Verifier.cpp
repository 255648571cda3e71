//===- verifier/Verifier.cpp - Specification testing harness ---------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "verifier/Verifier.h"

#include "support/Metrics.h"
#include "support/TraceEvent.h"

using namespace cable;

VerificationResult cable::verifyScenarios(const TraceSet &Scenarios,
                                          const Automaton &Spec,
                                          const BudgetMeter &Meter) {
  TraceSpan Span("verify-scenarios",
                 static_cast<int64_t>(Scenarios.traces().size()));
  VerificationResult Out;
  Out.Violations.table() = Scenarios.table();
  Out.Accepted.table() = Scenarios.table();
  RelationScanner Scanner(Spec, Scenarios.table());
  for (const Trace &T : Scenarios.traces()) {
    // One checkpoint per scenario: simulation is linear in the trace, so
    // overshoot past the deadline is bounded by one trace's work.
    if (Meter.expired()) {
      Out.Truncated = true;
      Out.CheckStatus = Meter.stopStatus("verification");
      break;
    }
    ++Out.NumScenarios;
    if (Scanner.accepts(T))
      Out.Accepted.add(T);
    else
      Out.Violations.add(T);
  }
  Metrics::counter("verifier.scenarios-checked").add(Out.NumScenarios);
  Metrics::counter("verifier.violations")
      .add(Out.Violations.traces().size());
  return Out;
}

VerificationResult cable::verifyScenarios(const TraceSet &Scenarios,
                                          const Automaton &Spec) {
  BudgetMeter Unlimited{Budget{}};
  return verifyScenarios(Scenarios, Spec, Unlimited);
}

VerificationResult cable::verifyAgainstRuns(const TraceSet &Runs,
                                            const Automaton &Spec,
                                            const ExtractorOptions &Extract,
                                            const BudgetMeter &Meter) {
  return verifyScenarios(extractScenarios(Runs, Extract), Spec, Meter);
}

VerificationResult cable::verifyAgainstRuns(const TraceSet &Runs,
                                            const Automaton &Spec,
                                            const ExtractorOptions &Extract) {
  return verifyScenarios(extractScenarios(Runs, Extract), Spec);
}

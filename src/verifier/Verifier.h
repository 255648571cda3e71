//===- verifier/Verifier.h - Specification testing harness ------*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "program verification tool" of §2.1, reduced to what the paper's
/// method actually consumes. A real verifier analyzes a program against a
/// temporal specification and reports *violation traces* — short execution
/// traces that appear in the program but are rejected by the specification
/// FA. Here the program is represented by its (synthetic) execution runs:
/// the verifier slices them into per-object scenarios exactly as the miner
/// front end does, checks each against the specification, and reports the
/// rejected ones. That reproduces both properties §2.1 leans on: traces
/// arrive in no particular order and contain all the calls they make, not
/// just the relevant ones.
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_VERIFIER_VERIFIER_H
#define CABLE_VERIFIER_VERIFIER_H

#include "fa/Automaton.h"
#include "miner/ScenarioExtractor.h"
#include "support/Budget.h"
#include "support/Status.h"

namespace cable {

/// Result of checking a specification against program runs.
struct VerificationResult {
  /// Scenarios the specification rejected, in discovery order.
  TraceSet Violations;
  /// Scenarios the specification accepted.
  TraceSet Accepted;
  /// Scenarios examined (< the total when Truncated).
  size_t NumScenarios = 0;
  /// True when the budget's deadline passed before every scenario was
  /// checked; Violations/Accepted then cover a prefix only.
  bool Truncated = false;
  /// Ok, or the diagnostic explaining the truncation.
  Status CheckStatus;
};

/// Tests \p Spec against the program runs in \p Runs (§2.1 "debugging by
/// testing"). \p Extract controls scenario slicing.
VerificationResult verifyAgainstRuns(const TraceSet &Runs,
                                     const Automaton &Spec,
                                     const ExtractorOptions &Extract);

/// Tests \p Spec against already-extracted scenario traces.
VerificationResult verifyScenarios(const TraceSet &Scenarios,
                                   const Automaton &Spec);

/// Budgeted variants: check \p Meter between scenarios and stop early —
/// with Truncated set and a prefix of the results — when it expires.
VerificationResult verifyAgainstRuns(const TraceSet &Runs,
                                     const Automaton &Spec,
                                     const ExtractorOptions &Extract,
                                     const BudgetMeter &Meter);
VerificationResult verifyScenarios(const TraceSet &Scenarios,
                                   const Automaton &Spec,
                                   const BudgetMeter &Meter);

} // namespace cable

#endif // CABLE_VERIFIER_VERIFIER_H

//===- miner/Miner.h - The Strauss pipeline ---------------------*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Strauss specification miner (Fig. 7): a front end that extracts
/// scenario traces from program runs and a back end that learns a
/// temporal-specification FA from them with sk-strings. Debugging a mined
/// specification (§2.2) re-runs only the back end on the scenario traces a
/// Cable user labeled `good`.
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_MINER_MINER_H
#define CABLE_MINER_MINER_H

#include "cable/Session.h"
#include "learner/SkStrings.h"
#include "miner/ScenarioExtractor.h"

#include <string>

namespace cable {

/// A mined temporal specification.
struct Specification {
  std::string Name;
  Automaton FA;

  size_t numStates() const { return FA.numStates(); }
  size_t numTransitions() const { return FA.numTransitions(); }
};

/// Miner configuration: front-end and back-end knobs.
struct MinerOptions {
  ExtractorOptions Extract;
  SkStringsOptions Learn;
};

/// Result of a full mining run.
struct MiningResult {
  /// The scenario traces the front end extracted (with multiplicity).
  TraceSet Scenarios;
  /// The learned specification.
  Specification Spec;
};

/// The Strauss miner.
class Miner {
public:
  explicit Miner(MinerOptions Options) : Options(std::move(Options)) {}

  /// Front end only.
  TraceSet extract(const TraceSet &Runs) const {
    return extractScenarios(Runs, Options.Extract);
  }

  /// Back end only: learns an FA from \p Scenarios. This is the entry
  /// point re-run on `good`-labeled traces during debugging.
  Specification learn(const std::vector<Trace> &Scenarios,
                      const EventTable &Table, std::string Name) const;

  /// Full pipeline.
  MiningResult mine(const TraceSet &Runs, std::string Name) const;

  /// Opens a Cable debugging session over \p Scenarios clustered against
  /// \p ReferenceFA (§2.2: debugging a mined specification). A budgeted
  /// session is built with Session::build directly.
  Session debugSession(TraceSet Scenarios, Automaton ReferenceFA) const;

  const MinerOptions &options() const { return Options; }

private:
  MinerOptions Options;
};

} // namespace cable

#endif // CABLE_MINER_MINER_H

//===- miner/ScenarioExtractor.h - Strauss front end ------------*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The front end of the Strauss pipeline (Fig. 7): extracts short scenario
/// traces from full program-run traces.
///
/// The paper's front end follows flow dependences in instrumented runs;
/// that machinery is external to this paper ([1]). What Cable consumes is
/// its *output* — short, per-object scenario traces — and this module
/// produces the same thing by object-identity slicing: each occurrence of
/// a *seed* event starts a scenario containing every event of the run that
/// mentions one of the scenario's values (optionally growing the value set
/// transitively through shared events). Extracted scenarios are value-
/// canonicalized, so identical protocols from different runs compare
/// equal.
///
/// Each run is indexed once: per value, the ascending positions that
/// mention it (its posting list) and the first position of a seed event
/// that mentions it. A scenario is the union of its values' posting lists;
/// the transitive closure is a breadth-first search over them; a seed
/// opens no scenario when a value of its set was mentioned by an earlier
/// seed event (a value no seed mentions never counts). The rescanning
/// extractor this replaced is the test oracle extractScenariosReference
/// (miner/ScenarioExtractorReference.h).
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_MINER_SCENARIOEXTRACTOR_H
#define CABLE_MINER_SCENARIOEXTRACTOR_H

#include "trace/TraceSet.h"

#include <string>
#include <vector>

namespace cable {

/// Controls scenario extraction.
struct ExtractorOptions {
  /// Event names whose occurrences open scenarios (e.g. "fopen", "popen").
  std::vector<std::string> SeedNames;

  /// If true, values reachable through shared events join the scenario's
  /// value set (closer to flow-dependence slicing); if false, only the
  /// seed's own values define the scenario.
  bool TransitiveValues = false;

  /// Scenarios longer than this are truncated (defense against runs where
  /// slicing degenerates).
  size_t MaxScenarioLength = 64;
};

/// Extracts scenario traces from \p Runs. The result owns a copy of the
/// event table; scenario events are canonicalized (v0, v1, ... by first
/// occurrence).
TraceSet extractScenarios(const TraceSet &Runs,
                          const ExtractorOptions &Options);

} // namespace cable

#endif // CABLE_MINER_SCENARIOEXTRACTOR_H

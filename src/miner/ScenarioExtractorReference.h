//===- miner/ScenarioExtractorReference.h - Extractor oracle ----*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The rescanning scenario extractor, kept only as the differential oracle
/// of extractScenarios (tests and bench/trace_layers link it; no tool
/// does). Every seed rescans its whole run through hash-set probes (once
/// per round of the transitive fixpoint, once to slice), rescans the prefix
/// before it to reject duplicates, and the run table is copied twice.
/// extractScenarios must return the same traces, in order, over the same
/// event table.
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_MINER_SCENARIOEXTRACTORREFERENCE_H
#define CABLE_MINER_SCENARIOEXTRACTORREFERENCE_H

#include "miner/ScenarioExtractor.h"

namespace cable {

/// Extracts scenario traces from \p Runs the slow, obvious way.
TraceSet extractScenariosReference(const TraceSet &Runs,
                                   const ExtractorOptions &Options);

} // namespace cable

#endif // CABLE_MINER_SCENARIOEXTRACTORREFERENCE_H

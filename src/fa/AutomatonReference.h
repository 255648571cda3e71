//===- fa/AutomatonReference.h - The per-trace relation oracle --*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three-pass relation R, kept only as the differential oracle of
/// RelationScanner (tests and bench/trace_layers link it; no tool does).
/// Per trace it allocates a forward and a backward state set for every
/// position, tests every outgoing label of every forward state at every
/// position, and walks every state's outgoing list in the backward pass.
/// RelationScanner::executed must return the same set for every automaton
/// and trace.
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_FA_AUTOMATONREFERENCE_H
#define CABLE_FA_AUTOMATONREFERENCE_H

#include "fa/Automaton.h"

namespace cable {

/// The transitions of \p FA on at least one accepting run over \p T,
/// computed the slow, obvious way. Requires an epsilon-free automaton.
BitVector executedTransitionsReference(const Automaton &FA, const Trace &T,
                                       const EventTable &Table);

} // namespace cable

#endif // CABLE_FA_AUTOMATONREFERENCE_H

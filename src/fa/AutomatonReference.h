//===- fa/AutomatonReference.h - Per-trace simulation oracles ---*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three-pass relation R and the forward subset walk for acceptance,
/// kept only as the differential oracles of RelationScanner (tests and
/// bench/trace_layers link them; no tool does). Per trace they test every
/// outgoing label of every reached state at every position; the relation
/// also allocates a forward and a backward state set for every position
/// and walks every state's outgoing list in the backward pass.
/// RelationScanner::executed and RelationScanner::accepts must agree with
/// them for every automaton and trace.
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_FA_AUTOMATONREFERENCE_H
#define CABLE_FA_AUTOMATONREFERENCE_H

#include "fa/Automaton.h"

namespace cable {

/// The transitions of \p FA on at least one accepting run over \p T,
/// computed the slow, obvious way.
BitVector executedTransitionsReference(const Automaton &FA, const Trace &T,
                                       const EventTable &Table);

/// True iff \p FA accepts \p T, by a forward walk over the set of states
/// reached after each prefix.
bool acceptsReference(const Automaton &FA, const Trace &T,
                      const EventTable &Table);

} // namespace cable

#endif // CABLE_FA_AUTOMATONREFERENCE_H

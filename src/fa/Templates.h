//===- fa/Templates.h - Reference-FA templates ------------------*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builders for the reference-FA templates of §4.1, which the paper's users
/// select when starting a Focus sub-session:
///
///  - Unordered:       (event0 | event1 | ... | eventn)*
///  - Name projection: (event0(..X..) | ... | eventn(..X..) | wildcard)*
///  - Seed order:      (e0|...|en)* ; seed ; (e0|...|en)*
///
/// plus a prefix-tree acceptor (an FA recognizing exactly a trace set) and
/// the trivial all-traces FA. Their transitions serve directly as FCA
/// attributes.
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_FA_TEMPLATES_H
#define CABLE_FA_TEMPLATES_H

#include "fa/Automaton.h"
#include "trace/TraceSet.h"

#include <vector>

namespace cable {

/// Returns the distinct events of \p Traces in first-appearance order (the
/// `event0 ... eventn` of the templates).
std::vector<EventId> templateAlphabet(const std::vector<Trace> &Traces);

/// Unordered template: one state, start+accepting, one self-loop per event
/// in \p Alphabet. Distinguishes traces only by which events they contain
/// (§4.1: "work well when correct traces and erroneous traces often contain
/// different events").
Automaton makeUnorderedFA(const std::vector<EventId> &Alphabet,
                          const EventTable &Table);

/// Name-projection template for canonical value \p V: one state with a
/// self-loop for each alphabet event that mentions \p V, plus a wildcard
/// self-loop. Lets the user "check correctness with respect to one name at
/// a time".
Automaton makeNameProjectionFA(const std::vector<EventId> &Alphabet,
                               ValueId V, const EventTable &Table);

/// Seed-order template: distinguishes events occurring before the first
/// possible \p Seed occurrence from events after it. Accepts exactly the
/// traces containing at least one \p Seed event.
Automaton makeSeedOrderFA(const std::vector<EventId> &Alphabet, EventId Seed,
                          const EventTable &Table);

/// Prefix-tree acceptor recognizing exactly the traces of \p Traces.
Automaton makePrefixTreeFA(const std::vector<Trace> &Traces,
                           const EventTable &Table);

/// The "FA that recognizes all possible traces" (§2.1 Step 1a notes this
/// works too): alias of the unordered template over \p Alphabet.
Automaton makeAllTracesFA(const std::vector<EventId> &Alphabet,
                          const EventTable &Table);

} // namespace cable

#endif // CABLE_FA_TEMPLATES_H

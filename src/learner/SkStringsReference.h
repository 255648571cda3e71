//===- learner/SkStringsReference.h - The sk-strings oracle -----*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The plain sk-strings learner, kept only as the differential oracle of
/// learnSkStrings (tests and bench/skstrings_learner link it; no tool
/// does). Every red-blue iteration rebuilds the quotient automaton from the
/// PTA, and every equivalence test enumerates both states' k-strings into
/// maps of symbol vectors. learnSkStrings must return a byte-identical
/// CountedAutomaton for every input and option set.
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_LEARNER_SKSTRINGSREFERENCE_H
#define CABLE_LEARNER_SKSTRINGSREFERENCE_H

#include "learner/SkStrings.h"

namespace cable {

/// Runs sk-strings on \p Traces the slow, obvious way.
CountedAutomaton learnSkStringsReference(const std::vector<Trace> &Traces,
                                         const SkStringsOptions &Options = {});

} // namespace cable

#endif // CABLE_LEARNER_SKSTRINGSREFERENCE_H

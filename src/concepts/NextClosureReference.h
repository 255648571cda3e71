//===- concepts/NextClosureReference.h - The enumeration oracle -*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ganter's NextClosure, kept only as the differential oracle of the
/// shipped Close-by-One search (NextClosureBuilder) and as the baseline of
/// bench/scaling_lattice's enumerate_speedup_* counters. Tests and benches
/// link it through cable_concepts_oracle; no tool does.
///
/// The loop is the one every session ran before Close-by-One: to find the
/// lectic successor of a closed intent A it tries attributes i from the
/// last down, closes (A ∩ {0..i-1}) ∪ {i} in full, and accepts the first
/// closure that agrees with A below i. Extents are recovered afterwards
/// with one tau per intent. Its per-candidate closure, closeIntentInto,
/// keeps contexts with one-word intents and at most eight words of objects
/// in registers.
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_CONCEPTS_NEXTCLOSUREREFERENCE_H
#define CABLE_CONCEPTS_NEXTCLOSUREREFERENCE_H

#include "concepts/Lattice.h"

#include <vector>

namespace cable {

/// NextClosure's lectic enumeration and its per-candidate closure.
class NextClosureReference {
public:
  /// Every closed intent of \p Ctx, in lectic order.
  static std::vector<BitVector> closedIntents(const Context &Ctx);

  /// The concepts of \p Ctx in lectic order of their intents, each extent
  /// tau of its intent.
  static std::vector<Concept> concepts(const Context &Ctx);

  /// Allocation-free intent closure sigma(tau(\p Attrs)): \p ObjScratch
  /// must be sized numObjects() and receives tau(Attrs), \p Out
  /// numAttributes().
  static void closeIntentInto(const Context &Ctx, const BitVector &Attrs,
                              BitVector &ObjScratch, BitVector &Out);
};

} // namespace cable

#endif // CABLE_CONCEPTS_NEXTCLOSUREREFERENCE_H

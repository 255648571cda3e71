//===- concepts/NextClosureBuilder.h - Batch lattice construction * C++ *-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ganter's NextClosure algorithm: enumerates all closed intents of a
/// context in lectic order and assembles the concept lattice. It is the
/// batch builder every Session uses (node ids follow the lectic order),
/// and GodinBuilder is checked against it — the two must produce the same
/// concept set.
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_CONCEPTS_NEXTCLOSUREBUILDER_H
#define CABLE_CONCEPTS_NEXTCLOSUREBUILDER_H

#include "concepts/BuildResult.h"
#include "concepts/Lattice.h"

namespace cable {

/// Batch construction via NextClosure.
class NextClosureBuilder {
public:
  /// Enumerates every closed intent of \p Ctx, in lectic order.
  static std::vector<BitVector> allClosedIntents(const Context &Ctx);

  /// Builds the full concept lattice of \p Ctx.
  static ConceptLattice buildLattice(const Context &Ctx);

  /// As allClosedIntents, but checks \p Meter before every candidate
  /// closure and stops at Budget::MaxConcepts. The returned vector is
  /// always a (possibly complete) prefix of the lectic enumeration; \p
  /// Stop reports whether and why it is proper.
  static std::vector<BitVector>
  allClosedIntentsBudgeted(const Context &Ctx, const BudgetMeter &Meter,
                           BuildStop &Stop);

  /// Budgeted construction: the full lattice when the budget suffices,
  /// otherwise a partial lattice flagged Truncated (see BuildResult.h).
  static LatticeBuildResult buildLatticeBudgeted(const Context &Ctx,
                                                 const BudgetMeter &Meter);
};

} // namespace cable

#endif // CABLE_CONCEPTS_NEXTCLOSUREBUILDER_H

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
/// There is one enumeration loop, metered by a BudgetMeter. The unbudgeted
/// entry points run it under an unlimited meter.
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
  /// Enumerates every closed intent of \p Ctx, in lectic order. Never
  /// truncates: a contained allocation failure is rethrown as
  /// std::bad_alloc.
  static std::vector<BitVector> allClosedIntents(const Context &Ctx);

  /// Builds the full concept lattice of \p Ctx.
  static ConceptLattice buildLattice(const Context &Ctx);

  /// Budgeted construction: checks \p Meter before every candidate closure
  /// and stops at Budget::MaxConcepts. Returns the full lattice when the
  /// budget suffices, otherwise a partial lattice flagged Truncated (see
  /// BuildResult.h).
  static LatticeBuildResult buildLatticeBudgeted(const Context &Ctx,
                                                 const BudgetMeter &Meter);
};

} // namespace cable

#endif // CABLE_CONCEPTS_NEXTCLOSUREBUILDER_H

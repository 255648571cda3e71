//===- concepts/NextClosureBuilder.h - Batch lattice construction * C++ *-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Batch lattice construction by Close-by-One (Kuznetsov 1993) with
/// In-Close's canonicity test (Andrews 2009). The search walks the concepts
/// depth first from the top, each child's extent one AND of its parent's
/// extent with a column of the context, and emits them in Ganter's lectic
/// order of intents, the order NextClosure produces. It is the batch
/// builder every Session uses (node ids follow the lectic order), and
/// GodinBuilder is checked against it: the two must produce the same
/// concept set. NextClosure itself survives as the differential oracle in
/// concepts/NextClosureReference.h.
///
/// There is one search, metered by a BudgetMeter. The unbudgeted entry
/// points run it under an unlimited meter.
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_CONCEPTS_NEXTCLOSUREBUILDER_H
#define CABLE_CONCEPTS_NEXTCLOSUREBUILDER_H

#include "concepts/BuildResult.h"
#include "concepts/Lattice.h"

namespace cable {

/// Batch construction by Close-by-One in lectic order.
class NextClosureBuilder {
public:
  /// Enumerates every closed intent of \p Ctx, in lectic order. Never
  /// truncates: a contained allocation failure is rethrown as
  /// std::bad_alloc.
  static std::vector<BitVector> allClosedIntents(const Context &Ctx);

  /// Builds the full concept lattice of \p Ctx.
  static ConceptLattice buildLattice(const Context &Ctx);

  /// Budgeted construction: checks \p Meter before every candidate
  /// and stops at Budget::MaxConcepts. Returns the full lattice when the
  /// budget suffices, otherwise a partial lattice flagged Truncated (see
  /// BuildResult.h).
  static LatticeBuildResult buildLatticeBudgeted(const Context &Ctx,
                                                 const BudgetMeter &Meter);
};

} // namespace cable

#endif // CABLE_CONCEPTS_NEXTCLOSUREBUILDER_H

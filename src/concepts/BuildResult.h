//===- concepts/BuildResult.h - Budgeted construction results ---*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Result type and helpers for budgeted lattice construction. Concept
/// lattices are worst-case exponential in the context, so
/// NextClosureBuilder::buildLatticeBudgeted stops cooperatively at a
/// BudgetMeter checkpoint and returns a *partial* lattice flagged Truncated
/// instead of running unbounded.
///
/// A truncated result is always a well-formed ConceptLattice (the top and
/// bottom concepts of the full context are ensured), just not the complete
/// one; downstream consumers (Session, meet/join) degrade to best
/// approximations on it.
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_CONCEPTS_BUILDRESULT_H
#define CABLE_CONCEPTS_BUILDRESULT_H

#include "concepts/Lattice.h"
#include "support/Budget.h"
#include "support/Status.h"

namespace cable {

/// Why a budgeted enumeration stopped.
enum class BuildStop : uint8_t {
  Complete,   ///< Ran to the end; the lattice is the full one.
  ConceptCap, ///< Budget::MaxConcepts was hit with concepts remaining.
  Time,       ///< The deadline passed.
  Memory,     ///< std::bad_alloc was contained; the prefix survived.
};

/// What a budgeted build hands back: a lattice (complete, or a partial
/// one when Truncated) and the status explaining any truncation.
struct LatticeBuildResult {
  ConceptLattice Lattice;
  Status BuildStatus;
  bool Truncated = false;
};

/// How many concepts a deadline-truncated result retains. Enumeration can
/// race far past what the cover scan of a truncated subset (quadratic in
/// the concept count) can afford within the same deadline, so the kept
/// prefix is capped; this keeps "returns within a small factor of the
/// deadline" true regardless of how fast closures are.
/// Budget::MaxConcepts truncation is exact and is not capped.
inline constexpr size_t DeadlineKeepCap = 1024;

/// Assembles a well-formed lattice from an arbitrary subset of a context's
/// concepts: reduces to \p Cap (keeping the most general concepts,
/// deterministically), then ensures the context's true top and bottom are
/// present so ConceptLattice's structural invariants hold. Preserves the
/// input order of the kept concepts. Cover edges come from the pairwise
/// scan: a truncated subset is not closed under closure, so neighbour
/// counting does not apply, and it is small by construction.
ConceptLattice finalizeTruncatedConcepts(const Context &Ctx,
                                         std::vector<Concept> Concepts,
                                         size_t Cap);

/// The Status describing a truncated build: ResourceExhausted with a
/// message naming the exhausted limit. \p Stop must not be Complete.
Status truncationStatus(BuildStop Stop, const BudgetMeter &Meter,
                        const char *What);

} // namespace cable

#endif // CABLE_CONCEPTS_BUILDRESULT_H

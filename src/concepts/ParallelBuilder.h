//===- concepts/ParallelBuilder.h - Parallel batch construction -*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parallel batch lattice construction. NextClosure's lectic enumeration
/// space is partitioned by first-attribute prefix: the closed intents with
/// minimum attribute p form one contiguous lectic range ("block") per p,
/// each enumerable independently with a prefix-restricted NextClosure, so
/// workers never synchronize during enumeration. Extents and the cover
/// (Hasse) relation are then computed by splitting concepts across workers;
/// covers are counted per concept (computeCovers), not scanned pairwise.
///
/// The output is bit-for-bit identical to NextClosureBuilder::buildLattice
/// at every thread count: node ids are assigned in canonical lectic order
/// and every adjacency list is sorted into the canonical scan order
/// ConceptLattice::coverScanOrder (see docs/ALGORITHMS.md, "Parallel
/// construction").
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_CONCEPTS_PARALLELBUILDER_H
#define CABLE_CONCEPTS_PARALLELBUILDER_H

#include "concepts/BuildResult.h"
#include "concepts/Lattice.h"
#include "support/ThreadPool.h"

namespace cable {

/// Parallel batch construction by lectic-prefix partitioning.
class ParallelBuilder {
public:
  /// Builds the full concept lattice of \p Ctx with \p NumThreads workers
  /// (0 = hardware concurrency, 1 = the exact serial NextClosure path).
  static ConceptLattice buildLattice(const Context &Ctx,
                                     unsigned NumThreads = 0);

  /// As above, reusing an existing pool.
  static ConceptLattice buildLattice(const Context &Ctx, ThreadPool &Pool);

  /// Enumerates every closed intent of \p Ctx in lectic order, the blocks
  /// computed in parallel on \p Pool. Identical to
  /// NextClosureBuilder::allClosedIntents at any thread count.
  static std::vector<BitVector> allClosedIntents(const Context &Ctx,
                                                 ThreadPool &Pool);

  /// The closed intents whose minimum attribute is \p P, in ascending
  /// lectic order (exposed for the differential tests). \p TopIntent must
  /// be the closure of the empty attribute set, which is emitted by the
  /// caller, never by a block.
  static std::vector<BitVector> blockIntents(const Context &Ctx, size_t P,
                                             const BitVector &TopIntent);

  /// Budgeted construction. Truncation lands at a deterministic place:
  /// each worker caps its block at Budget::MaxConcepts intents (with the
  /// same exact has-a-successor test the serial enumerator uses), and the
  /// canonical merge truncates the concatenation to the cap — which is
  /// provably the first MaxConcepts intents of the full lectic order, so
  /// a ConceptCap result is bit-for-bit identical to the serial one at
  /// every thread count. A deadline stop keeps, per block, whatever was
  /// enumerated before expiry and merges up to the first interrupted
  /// block, which is again a clean lectic prefix. \p NumThreads as in
  /// buildLattice (1 = the exact serial NextClosure path).
  static LatticeBuildResult buildLatticeBudgeted(const Context &Ctx,
                                                 const BudgetMeter &Meter,
                                                 unsigned NumThreads = 0);

  /// As above, reusing an existing pool.
  static LatticeBuildResult buildLatticeBudgeted(const Context &Ctx,
                                                 const BudgetMeter &Meter,
                                                 ThreadPool &Pool);
};

} // namespace cable

#endif // CABLE_CONCEPTS_PARALLELBUILDER_H

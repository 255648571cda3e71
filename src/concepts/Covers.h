//===- concepts/Covers.h - Cover relation by neighbour counting -*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cover (Hasse) relation of a complete concept set, by upper-neighbour
/// counting on the intent side (Lindig, "Fast Concept Analysis", 2000).
///
/// For a concept (A, B) and each attribute m not in B, the closure
/// D = (B ∪ {m})'' is a concept below (A, B). D is a lower cover of (A, B)
/// exactly when |D \ B| distinct generators m close to it. If D covers B,
/// every m in D \ B closes to a closed set strictly above B and inside D,
/// hence to D itself. If some concept E lies strictly between, each m
/// in E \ B closes inside E, so D has fewer generators. Each concept
/// costs |M \ B| closures and one lookup apiece in a flat intent index —
/// no pairwise extent scan.
///
/// Attributes no object of A has close to the bottom intent M without a
/// closure: tau(B ∪ {m}) is empty, so they are credited to the bottom
/// concept in one step. When tau(M) is non-empty every object of A has
/// every attribute and nothing is pruned.
///
/// Adjacency lists come out in ConceptLattice::coverScanOrder rank
/// (ascending extent cardinality, then id), the order the pairwise scan
/// ConceptLattice::coversAt produces, so lattices, artifacts and DOT are
/// byte-identical to the scan's. The scan stays for concept subsets that
/// are not closed (truncated lattices), where counting does not apply.
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_CONCEPTS_COVERS_H
#define CABLE_CONCEPTS_COVERS_H

#include "concepts/Lattice.h"

#include <vector>

namespace cable {

/// Parent (upper cover) and child (lower cover) lists, indexed by concept.
struct CoverLists {
  std::vector<std::vector<ConceptLattice::NodeId>> Parents;
  std::vector<std::vector<ConceptLattice::NodeId>> Children;
};

/// The cover relation of \p Concepts, which must be exactly the concepts of
/// \p Ctx (any order, top and bottom included).
CoverLists computeCovers(const Context &Ctx,
                         const std::vector<Concept> &Concepts);

} // namespace cable

#endif // CABLE_CONCEPTS_COVERS_H

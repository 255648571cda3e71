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
/// in E \ B closes inside E, so D has fewer generators.
///
/// No closure is computed. The extent of D is tau(B ∪ {m}) = tau(B) ∩
/// tau({m}) = A ∩ col(m), and a concept is fixed by its extent, so D is the
/// concept whose extent is A ∩ col(m): one word-wise AND and one lookup in
/// an ExtentIndex per generator — no derivation operator, no pairwise
/// extent scan.
///
/// Attributes no object of A has meet A in the empty set: D is the bottom
/// concept (intent M), credited in one step without a lookup. When tau(M)
/// is non-empty every object of A has every attribute and nothing is
/// pruned.
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

#include <bit>
#include <cstdint>
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

/// A set of concepts by extent: an open-addressing table of (hash tag, id)
/// slots over the concepts' own extent words, which it does not copy.
///
/// A slot is marked when a later concept with the same tag probes past
/// it, and only marked slots are resolved by comparing extent words. That
/// makes the index exact for the keys it is built for — the extents of its
/// own concepts — and nothing else: a lookup of one passes exactly the
/// slots its insertion passed, so the first unmarked slot with its tag is
/// its own.
class ExtentIndex {
public:
  using NodeId = ConceptLattice::NodeId;
  static constexpr NodeId NoNode = static_cast<NodeId>(-1);

  /// Indexes \p Concepts, whose extents must be distinct. The concepts
  /// must outlive the index.
  explicit ExtentIndex(const std::vector<Concept> &Concepts);

  /// The concept whose extent is \p Extent. \p Extent must be the extent
  /// of one of the indexed concepts (asserted in debug builds); for any
  /// other set the result is NoNode or an arbitrary concept.
  NodeId find(const BitVector &Extent) const;

  /// find on \p NumWords raw extent words whose hash, folded with
  /// hashStep from HashSeed and finished by hashFinish, is \p Hash.
  NodeId find(const uint64_t *Words, size_t NumWords, uint64_t Hash) const;

  /// The extent hash, one word at a time, so that a caller can hash an
  /// extent while it computes it. Multiplication only carries bits
  /// upwards, so each step rotates the product: without it, the top bit of
  /// a word would reach only the top bit of the hash, and extents that
  /// differ in the top bits of two words would collide.
  static constexpr uint64_t HashSeed = 0xCBF29CE484222325ULL;
  static uint64_t hashStep(uint64_t H, uint64_t Word) {
    return std::rotl((H ^ Word) * 0x9E3779B97F4A7C15ULL, 29);
  }
  /// Folds the high half into the low half, which holds the tag.
  static uint64_t hashFinish(uint64_t H) {
    H ^= H >> 32;
    H *= 0xD6E8FEB86659FD93ULL;
    return H ^ (H >> 32);
  }

private:
  struct Slot {
    uint32_t Tag; ///< Low hash bits; bit 0 is the mark.
    NodeId Id;
  };
  static constexpr uint32_t Marked = 1;
  static uint32_t tagOf(uint64_t Hash) {
    return static_cast<uint32_t>(Hash) & ~Marked;
  }

  const std::vector<Concept> &Concepts;
  std::vector<Slot> Slots;
  /// A hash's home slot is its top bits: Hash >> Shift.
  unsigned Shift = 0;
};

} // namespace cable

#endif // CABLE_CONCEPTS_COVERS_H

//===- concepts/Lattice.h - Concept lattices --------------------*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The concept lattice (§3.1): all concepts of a context, ordered by extent
/// inclusion, with the cover (Hasse) relation materialized.
///
/// A concept pairs an extent X (objects) with an intent Y (attributes) such
/// that sigma(X) = Y and tau(Y) = X. The lattice is a subset lattice on
/// extents and simultaneously a superset lattice on intents; similarity
/// sim(X) = |Y| therefore increases moving down.
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_CONCEPTS_LATTICE_H
#define CABLE_CONCEPTS_LATTICE_H

#include "concepts/Context.h"
#include "support/BitVector.h"
#include "support/Status.h"

#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace cable {

/// Metadata stamped into (serialize) and verified against (deserialize) a
/// `cable-lattice/1` artifact. The (ContextHash, Builder, Budget) triple is
/// the artifact store's content-addressing key; object/attribute counts
/// pin the bit-vector geometry so a hash collision or a renamed file can
/// never be decoded against the wrong context shape.
struct LatticeArtifactMeta {
  /// Context::contentHash() of the source context (16 hex digits).
  std::string ContextHash;
  /// Builder family id, e.g. "nextclosure". Names the canonical concept
  /// order that fixes the node ids.
  std::string Builder;
  /// Budget fingerprint, e.g. "full" or "mc500" (see Session).
  std::string Budget;
  size_t NumObjects = 0;
  size_t NumAttributes = 0;
  /// True when the lattice is a budget-truncated prefix. The store only
  /// keeps complete lattices, but the format records it regardless.
  bool Truncated = false;
};

/// A formal concept: an extent/intent pair.
struct Concept {
  BitVector Extent;
  BitVector Intent;
};

/// The complete lattice of concepts of a context.
///
/// Node ids index an internal vector and are stable for the lifetime of the
/// lattice. Parents are *more general* (larger extent, smaller intent);
/// children are more specific. "Top" is the unique maximal concept (extent
/// = all objects) and "bottom" the unique minimal one.
class ConceptLattice {
public:
  using NodeId = uint32_t;

  /// Builds from exactly the concepts of \p Ctx, top and bottom included:
  /// the path every complete build takes. Covers come from
  /// computeCovers (concepts/Covers.h).
  static ConceptLattice fromConcepts(const Context &Ctx,
                                     std::vector<Concept> Concepts);

  /// Builds from concepts that need not be closed under closure (a
  /// truncated subset, or a concept set without its context), with covers
  /// from the pairwise coversAt scan. \p Concepts must contain a unique
  /// maximal and a unique minimal extent.
  static ConceptLattice fromConcepts(std::vector<Concept> Concepts);

  size_t size() const { return Concepts.size(); }
  const Concept &node(NodeId Id) const { return Concepts[Id]; }

  NodeId top() const { return Top; }
  NodeId bottom() const { return Bottom; }

  /// Upper covers (immediately more general concepts).
  const std::vector<NodeId> &parents(NodeId Id) const { return Parents[Id]; }

  /// Lower covers (immediately more specific concepts).
  const std::vector<NodeId> &children(NodeId Id) const { return Children[Id]; }

  /// Number of cover edges.
  size_t numEdges() const;

  /// Partial order: true if \p A <= \p B (extent(A) subset of extent(B)).
  bool lessEqual(NodeId A, NodeId B) const {
    return Concepts[A].Extent.isSubsetOf(Concepts[B].Extent);
  }

  /// Finds the concept with exactly this extent, if any.
  std::optional<NodeId> findByExtent(const BitVector &Extent) const;

  /// Finds the concept with exactly this intent, if any.
  std::optional<NodeId> findByIntent(const BitVector &Intent) const;

  /// Greatest lower bound (meet): extent intersection, closed. On a
  /// lattice truncated by a budget the exact meet may be absent; the
  /// largest present concept below both arguments is returned instead.
  NodeId meet(NodeId A, NodeId B) const;

  /// Least upper bound (join): intent intersection on the dual side, with
  /// the dual best-approximation fallback on truncated lattices.
  NodeId join(NodeId A, NodeId B) const;

  /// The longest chain length from top to bottom (lattice height).
  size_t height() const;

  /// Ids sorted topologically from top downwards (every parent precedes
  /// each of its children).
  std::vector<NodeId> topDownOrder() const;

  /// The canonical order of every adjacency list: ascending extent
  /// cardinality, ties broken by node id. \p Card[i] must be the extent
  /// cardinality of concept i. Both cover algorithms sort into it, so they
  /// give byte-identical lattices.
  static std::vector<NodeId> coverScanOrder(const std::vector<size_t> &Card);

  /// Upper covers of the concept at scan position \p AI: the minimal
  /// strict superset extents among later scan positions, in scan order.
  /// O(C) subset tests per concept: the cover algorithm of the
  /// context-free fromConcepts, and the oracle computeCovers is tested
  /// against.
  static std::vector<NodeId> coversAt(const std::vector<Concept> &Concepts,
                                      const std::vector<NodeId> &Order,
                                      const std::vector<size_t> &Card,
                                      size_t AI);

  /// Encodes the lattice as a `cable-lattice/1` artifact (docs/FORMATS.md):
  /// a fixed little-endian preamble (magic, format version, section
  /// lengths and CRCs), a hand-readable text header carrying \p Meta and
  /// the build stamp, and a packed body — extent and intent words, then
  /// both cover adjacency lists (parents and children, in stored order) as
  /// CSR offset/id arrays, so a round-trip restores the label-inheritance
  /// structure bit-for-bit, including iteration order.
  std::string serialize(const LatticeArtifactMeta &Meta) const;

  /// Decodes a serialize() artifact, verifying magic, format version,
  /// header CRC, that \p Expect's context hash / builder / budget /
  /// dimensions match the stamped header (empty Expect fields match
  /// anything), and the body CRC. Every structural invariant is validated
  /// before use: section bounds, node ids in range, clean bit-vector
  /// tails, parent/child symmetry, and top/bottom consistency. Failures
  /// produce a positioned Diagnostic naming \p File and the byte offset —
  /// corrupt artifacts are rejected, never half-loaded. \p Got, when
  /// non-null, receives the stamped metadata (even on some failures,
  /// best-effort).
  static StatusOr<ConceptLattice> deserialize(std::string_view Bytes,
                                              const LatticeArtifactMeta &Expect,
                                              const std::string &File,
                                              LatticeArtifactMeta *Got
                                              = nullptr);

  /// Verifies lattice integrity against \p Ctx: every node is a concept of
  /// \p Ctx, every concept of the order appears exactly once, cover edges
  /// are exactly the transitive reduction. Intended for tests; O(n^2).
  bool verify(const Context &Ctx, std::string *WhyNot = nullptr) const;

  /// Renders DOT. \p NodeLabel maps a node to its display label.
  std::string
  renderDot(std::string_view Name,
            const std::function<std::string(NodeId)> &NodeLabel) const;

private:
  std::vector<Concept> Concepts;
  std::vector<std::vector<NodeId>> Parents;
  std::vector<std::vector<NodeId>> Children;
  NodeId Top = 0;
  NodeId Bottom = 0;

  void locateTopAndBottom();
};

} // namespace cable

#endif // CABLE_CONCEPTS_LATTICE_H

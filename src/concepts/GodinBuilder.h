//===- concepts/GodinBuilder.h - Incremental lattice construction -* C++ *-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Incremental concept-set construction after Godin, Missaoui, and Alaoui
/// ("Incremental concept formation algorithms based on Galois (concept)
/// lattices", 1995) — the algorithm the paper uses (§3.1.1), with running
/// time O(2^2k · |O|) for k an upper bound on attributes per object.
///
/// Objects arrive one at a time with their attribute sets. For each new
/// object x with attributes f(x), existing concepts are visited in
/// ascending intent size:
///
///  - a concept (A, B) with B ⊆ f(x) is *modified*: x joins its extent;
///  - otherwise it proposes the intent B ∩ f(x); the first proposer (which
///    provably has the maximal extent) creates the *new* concept
///    (A ∪ {x}, B ∩ f(x)) unless that intent is already present.
///
/// The builder maintains only the concept set; cover edges are computed
/// when the ConceptLattice is assembled.
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_CONCEPTS_GODINBUILDER_H
#define CABLE_CONCEPTS_GODINBUILDER_H

#include "concepts/Lattice.h"

namespace cable {

/// Incrementally accumulates the concepts of a growing context.
class GodinBuilder {
public:
  /// \p NumAttributes fixes the attribute universe up front.
  explicit GodinBuilder(size_t NumAttributes);

  /// Adds the next object (object ids are assigned 0, 1, ... in call
  /// order). \p Attrs must be sized to the attribute universe.
  void addObject(const BitVector &Attrs);

  size_t numObjects() const { return NumObjects; }
  size_t numConcepts() const { return Concepts.size(); }

  /// Assembles the lattice (computes covers, top, bottom). Without the
  /// context the covers come from the pairwise scan; buildLattice counts
  /// them instead.
  ConceptLattice build() const;

  /// Convenience: runs the incremental algorithm over all objects of
  /// \p Ctx in index order.
  static ConceptLattice buildLattice(const Context &Ctx);

private:
  size_t NumAttributes;
  size_t NumObjects = 0;
  std::vector<Concept> Concepts;
};

} // namespace cable

#endif // CABLE_CONCEPTS_GODINBUILDER_H

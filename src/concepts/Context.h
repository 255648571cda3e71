//===- concepts/Context.h - Formal contexts ---------------------*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A formal context (O, A, R): objects, attributes, and a binary relation
/// between them (§3.1). Provides the derivation operators
///
///   sigma(X) = { a | forall x in X. (x,a) in R }
///   tau(Y)   = { o | forall y in Y. (o,y) in R }
///
/// with the standard conventions sigma(∅) = A and tau(∅) = O, and the
/// paper's similarity measure sim(X) = |sigma(X)|.
///
/// Layout: the relation is stored once per orientation, as packed
/// 64-bit-word arenas — object-major (row p at RowArena + p * RowStride)
/// and transposed attribute-major (column a at ColArena + a * ColStride) —
/// so sigma and tau each AND the selected rows or columns of one arena
/// into an all-ones accumulator. objectRowWords()/attributeColWords()
/// expose the arena words (GodinBuilder reads rows there; the Close-by-One
/// search and cover computation AND extents with columns there, and so
/// evaluate no derivation). Every derivation is one sigmaInto or tauInto.
///
/// The reference derivations (one BitVector per row and column, folded
/// with operator&=) and clarification live in concepts/ContextReference.h,
/// and NextClosure's register-resident closure in
/// concepts/NextClosureReference.h: the cable_concepts_oracle target that
/// only tests and benches link.
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_CONCEPTS_CONTEXT_H
#define CABLE_CONCEPTS_CONTEXT_H

#include "support/BitVector.h"

#include <string>
#include <vector>

namespace cable {

/// A formal context over fixed object and attribute universes.
class Context {
public:
  Context() = default;
  Context(size_t NumObjects, size_t NumAttributes);

  size_t numObjects() const { return NObj; }
  size_t numAttributes() const { return NAttr; }

  /// Records (Obj, Attr) in R.
  void relate(size_t Obj, size_t Attr);

  /// Returns true if (Obj, Attr) is in R.
  bool related(size_t Obj, size_t Attr) const;

  /// The attribute set of one object as its words in the row arena,
  /// ceil(numAttributes() / 64) of them.
  const uint64_t *objectRowWords(size_t Obj) const {
    return RowArena.data() + Obj * RowStride;
  }

  /// The object set of one attribute as its words in the column arena,
  /// ceil(numObjects() / 64) of them.
  const uint64_t *attributeColWords(size_t Attr) const {
    return ColArena.data() + Attr * ColStride;
  }

  /// sigma: attributes common to all objects in \p Objects.
  BitVector sigma(const BitVector &Objects) const;

  /// tau: objects possessing all attributes in \p Attrs.
  BitVector tau(const BitVector &Attrs) const;

  /// sigma into a caller-owned buffer sized numAttributes(): no
  /// allocation, one pass over the selected rows of the row arena.
  void sigmaInto(const BitVector &Objects, BitVector &Out) const;

  /// tau into a caller-owned buffer sized numObjects().
  void tauInto(const BitVector &Attrs, BitVector &Out) const;

  /// Extent closure: tau(sigma(Objects)).
  BitVector closeExtent(const BitVector &Objects) const {
    return tau(sigma(Objects));
  }

  /// Intent closure: sigma(tau(Attrs)).
  BitVector closeIntent(const BitVector &Attrs) const {
    return sigma(tau(Attrs));
  }

  /// The paper's similarity of a set of objects: |sigma(Objects)| (§3.1).
  size_t similarity(const BitVector &Objects) const {
    return sigma(Objects).count();
  }

  /// Canonical content hash of the context: a 16-hex-digit FNV-1a digest
  /// of (numObjects, numAttributes, object-major incidence words in
  /// little-endian byte order). This is the content-addressing key of the
  /// lattice artifact store, so it is computed byte by byte and is
  /// identical on every CPU.
  /// Arena tail bits past numAttributes() are always zero (only relate()
  /// writes them), so the digest is a pure function of the relation.
  std::string contentHash() const;

  /// Optional display names (used by renderers; may stay empty).
  std::vector<std::string> ObjectNames;
  std::vector<std::string> AttributeNames;

private:
  size_t NObj = 0;
  size_t NAttr = 0;
  /// Words per row in RowArena: ceil(NAttr / 64).
  size_t RowStride = 0;
  /// Words per column in ColArena: ceil(NObj / 64).
  size_t ColStride = 0;
  /// Object-major packed incidence matrix (row p at p * RowStride).
  std::vector<uint64_t> RowArena;
  /// Transposed attribute-major matrix (column a at a * ColStride).
  std::vector<uint64_t> ColArena;
};

} // namespace cable

#endif // CABLE_CONCEPTS_CONTEXT_H

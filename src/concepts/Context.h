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
/// Layout: the incidence matrix is stored twice as packed 64-bit-word
/// arenas — object-major (row p at RowArena + p * RowStride) and
/// transposed attribute-major (column a at ColArena + a * ColStride) — so
/// sigma and tau each reduce to one fused simd::andSelectInto walking
/// contiguous cache lines, instead of striding through per-BitVector heap
/// allocations. objectRowWords()/attributeColWords() expose the arena
/// words (cover computation ANDs extents with columns there). BitVector
/// object rows are additionally mirrored for the objectRow()/attributeCol()
/// API (GodinBuilder consumes rows directly).
///
/// The pre-arena derivation code is kept as sigmaReference/tauReference:
/// it is the bit-for-bit oracle for the layout differential tests (which
/// also check built lattices against the closure system it induces) and
/// the scalar baseline the closure-throughput benches compare against.
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

  /// The attribute set of one object.
  const BitVector &objectRow(size_t Obj) const { return ObjectRows[Obj]; }

  /// The object set of one attribute.
  const BitVector &attributeCol(size_t Attr) const {
    return AttributeColsRef[Attr];
  }

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

  /// sigma into a caller-owned buffer sized numAttributes(): the hot form
  /// — no allocation, one fused kernel pass over the row arena.
  void sigmaInto(const BitVector &Objects, BitVector &Out) const;

  /// tau into a caller-owned buffer sized numObjects().
  void tauInto(const BitVector &Attrs, BitVector &Out) const;

  /// Extent closure: tau(sigma(Objects)).
  BitVector closeExtent(const BitVector &Objects) const;

  /// Intent closure: sigma(tau(Attrs)).
  BitVector closeIntent(const BitVector &Attrs) const;

  /// Allocation-free intent closure: \p ObjScratch must be sized
  /// numObjects(), \p Out numAttributes(). The builders call this once
  /// per lectic candidate, so it must not touch the heap.
  void closeIntentInto(const BitVector &Attrs, BitVector &ObjScratch,
                       BitVector &Out) const;

  /// Allocation-free extent closure: \p AttrScratch sized numAttributes(),
  /// \p Out sized numObjects().
  void closeExtentInto(const BitVector &Objects, BitVector &AttrScratch,
                       BitVector &Out) const;

  /// The paper's similarity of a set of objects: |sigma(Objects)| (§3.1).
  size_t similarity(const BitVector &Objects) const {
    return sigma(Objects).count();
  }

  /// The pre-arena sigma: setAll then one operator&= per selected row
  /// BitVector. Kept verbatim as the differential oracle and the bench
  /// baseline for "pre-PR scalar" closure throughput.
  BitVector sigmaReference(const BitVector &Objects) const;

  /// The pre-arena tau (per-column BitVector intersections).
  BitVector tauReference(const BitVector &Attrs) const;

  /// tau(sigma(Objects)) on the reference path.
  BitVector closeExtentReference(const BitVector &Objects) const {
    return tauReference(sigmaReference(Objects));
  }

  /// sigma(tau(Attrs)) on the reference path.
  BitVector closeIntentReference(const BitVector &Attrs) const {
    return sigmaReference(tauReference(Attrs));
  }

  /// Canonical content hash of the context: a 16-hex-digit FNV-1a digest
  /// of (numObjects, numAttributes, object-major incidence words in
  /// little-endian byte order). This is the content-addressing key of the
  /// lattice artifact store, so it is computed with a plain scalar loop —
  /// never a SIMD kernel — and is byte-identical on every CPU.
  /// Arena tail bits past numAttributes() are always zero (only relate()
  /// writes them), so the digest is a pure function of the relation.
  std::string contentHash() const;

  /// Standard FCA clarification: merges objects with identical rows and
  /// attributes with identical columns. The clarified context has an
  /// isomorphic concept lattice but can be much smaller to build. The
  /// optional out-parameters receive, for each original object/attribute,
  /// its index in the clarified context.
  Context clarified(std::vector<size_t> *ObjectMap = nullptr,
                    std::vector<size_t> *AttributeMap = nullptr) const;

  /// Optional display names (used by renderers; may stay empty).
  std::vector<std::string> ObjectNames;
  std::vector<std::string> AttributeNames;

private:
  /// sigmaInto / tauInto without the call counters.
  void sigmaIntoUncounted(const BitVector &Objects, BitVector &Out) const;
  void tauIntoUncounted(const BitVector &Attrs, BitVector &Out) const;

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
  /// BitVector mirror of the rows for the objectRow() API; AttributeColsRef
  /// mirrors columns solely for the reference tau path.
  std::vector<BitVector> ObjectRows;
  std::vector<BitVector> AttributeColsRef;
};

} // namespace cable

#endif // CABLE_CONCEPTS_CONTEXT_H

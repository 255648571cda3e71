//===- support/BitVector.h - Dynamic bit set --------------------*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dynamic bit vector with the set-algebra operations concept analysis
/// needs: intersection, union, subset tests, popcount, and fast iteration
/// over set bits. Concept extents and intents are BitVectors, so these
/// operations dominate lattice construction time.
///
/// The word-level work runs in loops unrolled four words per iteration
/// (BitVector.cpp), each with a single-word fast path because most
/// intents in the paper's workloads fit one word. Two invariants the
/// loops rely on:
///
///  - Tail invariant: bits at positions >= size() in the last word are
///    always zero after every mutating operation (each one re-masks the
///    tail, and read paths additionally apply a tail mask so a dirty tail
///    could never leak into popcount or subset verdicts).
///  - Words.size() == ceil(size() / 64) at all times.
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_SUPPORT_BITVECTOR_H
#define CABLE_SUPPORT_BITVECTOR_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cable {

/// A fixed-universe dynamic bit set.
///
/// The universe size is set at construction (or by resize) and all binary
/// operations require both operands to have the same universe size.
class BitVector {
public:
  BitVector() = default;

  /// Creates a vector over a universe of \p NumBits bits, all clear.
  explicit BitVector(size_t NumBits)
      : NumBits(NumBits), Words((NumBits + 63) / 64, 0) {}

  /// Returns the universe size in bits.
  size_t size() const { return NumBits; }

  /// Grows or shrinks the universe to \p NewSize bits; new bits are clear.
  void resize(size_t NewSize);

  /// Sets bit \p I.
  void set(size_t I) {
    assert(I < NumBits && "bit index out of range");
    Words[I / 64] |= uint64_t(1) << (I % 64);
  }

  /// Clears bit \p I.
  void reset(size_t I) {
    assert(I < NumBits && "bit index out of range");
    Words[I / 64] &= ~(uint64_t(1) << (I % 64));
  }

  /// Sets all bits in the universe.
  void setAll();

  /// Clears all bits.
  void resetAll() {
    for (uint64_t &W : Words)
      W = 0;
  }

  /// Returns bit \p I.
  bool test(size_t I) const {
    assert(I < NumBits && "bit index out of range");
    return (Words[I / 64] >> (I % 64)) & 1;
  }

  /// Returns the number of set bits.
  size_t count() const;

  /// Returns true if no bit is set.
  bool none() const;

  /// Returns true if at least one bit is set.
  bool any() const { return !none(); }

  /// In-place intersection.
  BitVector &operator&=(const BitVector &RHS);
  /// In-place union.
  BitVector &operator|=(const BitVector &RHS);
  /// In-place symmetric difference.
  BitVector &operator^=(const BitVector &RHS);
  /// In-place set difference (this \ RHS).
  BitVector &andNot(const BitVector &RHS);
  /// Flips every bit in the universe.
  void flipAll();

  bool operator==(const BitVector &RHS) const {
    return NumBits == RHS.NumBits && Words == RHS.Words;
  }

  /// Returns true if every set bit of this is also set in \p RHS.
  bool isSubsetOf(const BitVector &RHS) const;

  /// Returns true if this and \p RHS share at least one set bit.
  bool intersects(const BitVector &RHS) const;

  /// Returns the index of the first set bit, or npos if none.
  size_t findFirst() const;

  /// Returns the index of the first set bit strictly after \p Prev, or npos.
  size_t findNext(size_t Prev) const;

  /// Sentinel returned by findFirst/findNext when no bit qualifies.
  static constexpr size_t npos = static_cast<size_t>(-1);

  /// Forward iterator over the indices of set bits.
  class SetBitIterator {
  public:
    SetBitIterator(const BitVector *Parent, size_t Pos)
        : Parent(Parent), Pos(Pos) {}
    size_t operator*() const { return Pos; }
    SetBitIterator &operator++() {
      Pos = Parent->findNext(Pos);
      return *this;
    }
    bool operator!=(const SetBitIterator &RHS) const { return Pos != RHS.Pos; }
    bool operator==(const SetBitIterator &RHS) const { return Pos == RHS.Pos; }

  private:
    const BitVector *Parent;
    size_t Pos;
  };

  SetBitIterator begin() const { return SetBitIterator(this, findFirst()); }
  SetBitIterator end() const { return SetBitIterator(this, npos); }

  /// Returns the set bits as a vector of indices (convenience for tests and
  /// printing; prefer iteration in hot paths).
  std::vector<size_t> toIndices() const;

  /// Hashes the bit pattern (for unordered containers keyed on extents):
  /// hashFinish of hashStep folded over the words from HashSeed.
  size_t hashValue() const;

  /// The hash, one word at a time, so that a caller can hash a set while
  /// it computes it (cover computation hashes each extent meet as it ANDs
  /// it). Each step is a folded multiply: the 128-bit product of the state
  /// and a constant, high half XOR low half. A plain 64-bit multiply only
  /// carries bits upwards, so the top bits of a word would reach few bits
  /// of the state, and a later word could cancel them: word-wise FNV-1a
  /// maps {63} and {127} to one hash, and a rotate after the multiply
  /// still maps {63} and {92} to one. The high half spreads every bit of
  /// the word over the whole state.
  static constexpr uint64_t HashSeed = 0xCBF29CE484222325ULL;
  static uint64_t hashStep(uint64_t H, uint64_t Word) {
    unsigned __int128 P =
        static_cast<unsigned __int128>(H ^ Word) * 0x9E3779B97F4A7C15ULL;
    return static_cast<uint64_t>(P) ^ static_cast<uint64_t>(P >> 64);
  }
  /// Folds the high half into the low half.
  static uint64_t hashFinish(uint64_t H) {
    H ^= H >> 32;
    H *= 0xD6E8FEB86659FD93ULL;
    return H ^ (H >> 32);
  }

  /// Raw word access for code that works on words itself: the
  /// Close-by-One search and cover computation AND extents with Context's
  /// columns, and the lattice codec copies them.
  const uint64_t *words() const { return Words.data(); }
  uint64_t *words() { return Words.data(); }

  /// Number of 64-bit words backing the universe: ceil(size() / 64).
  size_t numWords() const { return Words.size(); }

  /// Mask of the valid bits in the final word (all-ones when the universe
  /// is word-aligned; meaningless when numWords() == 0).
  uint64_t tailMask() const {
    size_t Tail = NumBits % 64;
    return Tail == 0 ? ~uint64_t(0) : (uint64_t(1) << Tail) - 1;
  }

  /// True when no bit past size() is set — the tail invariant every
  /// mutating operation re-establishes. Exposed for the audit tests.
  bool tailIsClean() const {
    return Words.empty() || (Words.back() & ~tailMask()) == 0;
  }

private:
  void clearUnusedBits();

  size_t NumBits = 0;
  std::vector<uint64_t> Words;

  /// Test-only backdoor (tests/support/BitVectorTest.cpp) used to plant
  /// dirty tail bits and prove they cannot leak through read operations
  /// or survive a mutating one.
  friend struct BitVectorTestPeer;
};

/// Returns the intersection of \p A and \p B.
BitVector operator&(const BitVector &A, const BitVector &B);
/// Returns the union of \p A and \p B.
BitVector operator|(const BitVector &A, const BitVector &B);

/// Hash functor so BitVector can key std::unordered_map/set.
struct BitVectorHash {
  size_t operator()(const BitVector &BV) const { return BV.hashValue(); }
};

} // namespace cable

#endif // CABLE_SUPPORT_BITVECTOR_H

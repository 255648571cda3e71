//===- tests/support/BitVectorTest.cpp -------------------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/BitVector.h"

#include "support/RNG.h"

#include <gtest/gtest.h>

#include <set>

using namespace cable;

TEST(BitVectorTest, StartsEmpty) {
  BitVector BV(100);
  EXPECT_EQ(BV.size(), 100u);
  EXPECT_EQ(BV.count(), 0u);
  EXPECT_TRUE(BV.none());
  EXPECT_FALSE(BV.any());
}

TEST(BitVectorTest, SetResetTest) {
  BitVector BV(70);
  BV.set(0);
  BV.set(63);
  BV.set(64);
  BV.set(69);
  EXPECT_TRUE(BV.test(0));
  EXPECT_TRUE(BV.test(63));
  EXPECT_TRUE(BV.test(64));
  EXPECT_TRUE(BV.test(69));
  EXPECT_FALSE(BV.test(1));
  EXPECT_EQ(BV.count(), 4u);
  BV.reset(63);
  EXPECT_FALSE(BV.test(63));
  EXPECT_EQ(BV.count(), 3u);
}

TEST(BitVectorTest, SetAllRespectsUniverse) {
  BitVector BV(67);
  BV.setAll();
  EXPECT_EQ(BV.count(), 67u);
  BV.flipAll();
  EXPECT_EQ(BV.count(), 0u);
}

TEST(BitVectorTest, FlipAllOnPartialWord) {
  BitVector BV(5);
  BV.set(1);
  BV.flipAll();
  EXPECT_EQ(BV.count(), 4u);
  EXPECT_FALSE(BV.test(1));
  EXPECT_TRUE(BV.test(0));
  EXPECT_TRUE(BV.test(4));
}

TEST(BitVectorTest, ResizeGrowClearsNewBits) {
  BitVector BV(3);
  BV.setAll();
  BV.resize(130);
  EXPECT_EQ(BV.count(), 3u);
  EXPECT_FALSE(BV.test(129));
}

TEST(BitVectorTest, ResizeShrinkDropsBits) {
  BitVector BV(130);
  BV.setAll();
  BV.resize(3);
  EXPECT_EQ(BV.count(), 3u);
  BV.resize(130);
  EXPECT_EQ(BV.count(), 3u) << "bits past the old end must not reappear";
}

TEST(BitVectorTest, AndOrXorAndNot) {
  BitVector A(10), B(10);
  A.set(1);
  A.set(2);
  B.set(2);
  B.set(3);
  BitVector And = A & B;
  EXPECT_EQ(And.toIndices(), (std::vector<size_t>{2}));
  BitVector Or = A | B;
  EXPECT_EQ(Or.toIndices(), (std::vector<size_t>{1, 2, 3}));
  BitVector Xor = A;
  Xor ^= B;
  EXPECT_EQ(Xor.toIndices(), (std::vector<size_t>{1, 3}));
  BitVector Diff = A;
  Diff.andNot(B);
  EXPECT_EQ(Diff.toIndices(), (std::vector<size_t>{1}));
}

TEST(BitVectorTest, SubsetAndIntersects) {
  BitVector A(200), B(200);
  A.set(5);
  A.set(150);
  B.set(5);
  B.set(150);
  B.set(199);
  EXPECT_TRUE(A.isSubsetOf(B));
  EXPECT_FALSE(B.isSubsetOf(A));
  EXPECT_TRUE(A.isSubsetOf(A));
  EXPECT_TRUE(A.intersects(B));
  BitVector C(200);
  C.set(7);
  EXPECT_FALSE(A.intersects(C));
  BitVector Empty(200);
  EXPECT_TRUE(Empty.isSubsetOf(A));
  EXPECT_FALSE(Empty.intersects(A));
}

TEST(BitVectorTest, FindFirstNext) {
  BitVector BV(200);
  EXPECT_EQ(BV.findFirst(), BitVector::npos);
  BV.set(3);
  BV.set(64);
  BV.set(199);
  EXPECT_EQ(BV.findFirst(), 3u);
  EXPECT_EQ(BV.findNext(3), 64u);
  EXPECT_EQ(BV.findNext(64), 199u);
  EXPECT_EQ(BV.findNext(199), BitVector::npos);
}

TEST(BitVectorTest, IterationMatchesToIndices) {
  BitVector BV(300);
  for (size_t I : {0u, 63u, 64u, 65u, 128u, 299u})
    BV.set(I);
  std::vector<size_t> Seen;
  for (size_t I : BV)
    Seen.push_back(I);
  EXPECT_EQ(Seen, BV.toIndices());
  EXPECT_EQ(Seen.size(), 6u);
}

TEST(BitVectorTest, EqualityIncludesUniverseSize) {
  BitVector A(10), B(11);
  EXPECT_FALSE(A == B);
  BitVector C(10);
  EXPECT_TRUE(A == C);
  C.set(0);
  EXPECT_FALSE(A == C);
}

TEST(BitVectorTest, HashEqualForEqualVectors) {
  BitVector A(100), B(100);
  A.set(42);
  B.set(42);
  EXPECT_EQ(A.hashValue(), B.hashValue());
}

TEST(BitVectorTest, SingleBitSetsHashApart) {
  // Word-wise FNV-1a maps {63} and {127} (the top bits of two words) to
  // one hash, and a rotate after each multiply {63} and {92}; every
  // single-bit set of a 256-bit universe must hash apart.
  std::set<size_t> Hashes;
  for (size_t I = 0; I < 256; ++I) {
    BitVector BV(256);
    BV.set(I);
    Hashes.insert(BV.hashValue());
  }
  EXPECT_EQ(Hashes.size(), 256u);
  BitVector A(128), B(128);
  A.set(63);
  B.set(127);
  EXPECT_NE(A.hashValue(), B.hashValue());
}

TEST(BitVectorTest, ZeroSizedVector) {
  BitVector BV(0);
  EXPECT_EQ(BV.count(), 0u);
  EXPECT_TRUE(BV.none());
  EXPECT_EQ(BV.findFirst(), BitVector::npos);
  BitVector Other(0);
  EXPECT_TRUE(BV == Other);
  EXPECT_TRUE(BV.isSubsetOf(Other));
}

/// Property sweep: random sets obey set-algebra laws.
class BitVectorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BitVectorPropertyTest, RandomSetAlgebraLaws) {
  RNG Rand(GetParam());
  size_t N = 1 + Rand.nextIndex(300);
  BitVector A(N), B(N);
  std::set<size_t> RefA, RefB;
  for (size_t I = 0; I < N; ++I) {
    if (Rand.nextBool(0.3)) {
      A.set(I);
      RefA.insert(I);
    }
    if (Rand.nextBool(0.3)) {
      B.set(I);
      RefB.insert(I);
    }
  }
  EXPECT_EQ(A.count(), RefA.size());

  // De Morgan: ~(A | B) == ~A & ~B.
  BitVector L = A | B;
  L.flipAll();
  BitVector NA = A, NB = B;
  NA.flipAll();
  NB.flipAll();
  EXPECT_TRUE(L == (NA & NB));

  // A \ B == A & ~B.
  BitVector D1 = A;
  D1.andNot(B);
  EXPECT_TRUE(D1 == (A & NB));

  // Subset coherence: (A & B) subset of both.
  BitVector M = A & B;
  EXPECT_TRUE(M.isSubsetOf(A));
  EXPECT_TRUE(M.isSubsetOf(B));
  EXPECT_EQ(M.any(), A.intersects(B));

  // Iteration agrees with the reference set.
  std::set<size_t> Iterated;
  for (size_t I : A)
    Iterated.insert(I);
  EXPECT_EQ(Iterated, RefA);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitVectorPropertyTest,
                         ::testing::Range<uint64_t>(0, 24));

//===----------------------------------------------------------------------===//
// Tail-bit invariant audit.
//===----------------------------------------------------------------------===//

namespace cable {

/// Friend backdoor that plants garbage past size() — a state no public
/// operation can produce — to prove dirty tails neither leak through the
/// kernel-backed reads nor survive any mutating operation.
struct BitVectorTestPeer {
  static void dirtyTail(BitVector &BV) {
    if (!BV.Words.empty())
      BV.Words.back() |= ~BV.tailMask();
  }
};

} // namespace cable

namespace {

BitVector patternedVector(size_t Bits, uint64_t Seed) {
  RNG Rand(Seed);
  BitVector BV(Bits);
  for (size_t I = 0; I < Bits; ++I)
    if (Rand.nextBool(0.4))
      BV.set(I);
  return BV;
}

} // namespace

TEST(BitVectorTailInvariantTest, PublicOperationsKeepTheTailClean) {
  for (size_t Bits : {size_t(1), size_t(63), size_t(65), size_t(100),
                      size_t(128), size_t(130)}) {
    BitVector A = patternedVector(Bits, Bits);
    BitVector B = patternedVector(Bits, Bits + 1);
    EXPECT_TRUE(A.tailIsClean());
    A.setAll();
    EXPECT_TRUE(A.tailIsClean());
    A.flipAll();
    EXPECT_TRUE(A.tailIsClean());
    A = patternedVector(Bits, Bits);
    A &= B;
    EXPECT_TRUE(A.tailIsClean());
    A |= B;
    EXPECT_TRUE(A.tailIsClean());
    A ^= B;
    EXPECT_TRUE(A.tailIsClean());
    A.andNot(B);
    EXPECT_TRUE(A.tailIsClean());
    A.resize(Bits + 7);
    EXPECT_TRUE(A.tailIsClean());
    A.resize(Bits > 3 ? Bits - 3 : 0);
    EXPECT_TRUE(A.tailIsClean());
  }
}

TEST(BitVectorTailInvariantTest, DirtyTailCannotLeakIntoKernelReads) {
  for (size_t Bits : {size_t(1), size_t(5), size_t(63), size_t(65),
                      size_t(127), size_t(130), size_t(257)}) {
    BitVector A = patternedVector(Bits, Bits * 31);
    BitVector B = patternedVector(Bits, Bits * 31 + 1);
    BitVector DirtyA = A, DirtyB = B;
    BitVectorTestPeer::dirtyTail(DirtyA);
    BitVectorTestPeer::dirtyTail(DirtyB);
    // The masked read paths must see the clean values through the dirt.
    EXPECT_EQ(DirtyA.count(), A.count()) << Bits;
    EXPECT_EQ(DirtyA.none(), A.none()) << Bits;
    EXPECT_EQ(DirtyA.any(), A.any()) << Bits;
    EXPECT_EQ(DirtyA.isSubsetOf(B), A.isSubsetOf(B)) << Bits;
    EXPECT_EQ(DirtyA.isSubsetOf(DirtyB), A.isSubsetOf(B)) << Bits;
    EXPECT_EQ(A.isSubsetOf(DirtyB), A.isSubsetOf(B)) << Bits;
    EXPECT_EQ(DirtyA.intersects(DirtyB), A.intersects(B)) << Bits;
    EXPECT_EQ(DirtyA.intersects(B), A.intersects(B)) << Bits;
  }
}

TEST(BitVectorTailInvariantTest, EveryMutatingOpScrubsAPlantedDirtyTail) {
  // A dirty tail must not survive the next mutation, even though no public
  // operation can create one: mutating ops re-mask defensively.
  for (size_t Bits : {size_t(5), size_t(65), size_t(130)}) {
    BitVector B = patternedVector(Bits, Bits);
    auto Dirty = [&] {
      BitVector V = patternedVector(Bits, Bits + 9);
      BitVectorTestPeer::dirtyTail(V);
      return V;
    };
    BitVector V = Dirty();
    V &= B;
    EXPECT_TRUE(V.tailIsClean()) << Bits;
    V = Dirty();
    V |= B;
    EXPECT_TRUE(V.tailIsClean()) << Bits;
    V = Dirty();
    V ^= B;
    EXPECT_TRUE(V.tailIsClean()) << Bits;
    V = Dirty();
    V.andNot(B);
    EXPECT_TRUE(V.tailIsClean()) << Bits;
    V = Dirty();
    V.flipAll();
    EXPECT_TRUE(V.tailIsClean()) << Bits;
    V = Dirty();
    V.setAll();
    EXPECT_TRUE(V.tailIsClean()) << Bits;
    V = Dirty();
    V.resize(Bits);
    EXPECT_TRUE(V.tailIsClean()) << Bits;
  }
}

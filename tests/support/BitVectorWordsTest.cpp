//===- tests/support/BitVectorWordsTest.cpp - BitVector word battery ------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// BitVector's word loops (four words per iteration, with a one-word fast
// path) are checked through its public operations against an independent
// bit-at-a-time model: exhaustively on all sizes 0..130 bits (covering
// every tail-word length and the 1-word/2-word/3-word boundaries) over a
// fixed pattern alphabet, then on 10k seeded-random pairs. Dirty tail
// words, planted through words(), prove that garbage past size() stays out
// of every verdict and does not survive a mutating operation.
//
// The suite keeps the name it had when these loops lived in a separate
// kernel layer, so its cases keep their ids.
//
//===----------------------------------------------------------------------===//

#include "support/BitVector.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

using namespace cable;

namespace {

size_t wordsFor(size_t NumBits) { return (NumBits + 63) / 64; }

uint64_t tailMaskFor(size_t NumBits) {
  size_t Tail = NumBits % 64;
  return Tail == 0 ? ~uint64_t(0) : (uint64_t(1) << Tail) - 1;
}

using Words = std::vector<uint64_t>;

bool bitOf(const Words &W, size_t I) { return (W[I / 64] >> (I % 64)) & 1; }

void setBit(Words &W, size_t I) { W[I / 64] |= uint64_t(1) << (I % 64); }

// The independent model: plain bit loops over the logical size, written
// without reference to BitVector's word loops.
bool refIsSubset(const Words &A, const Words &B, size_t NumBits) {
  for (size_t I = 0; I < NumBits; ++I)
    if (bitOf(A, I) && !bitOf(B, I))
      return false;
  return true;
}

bool refIntersects(const Words &A, const Words &B, size_t NumBits) {
  for (size_t I = 0; I < NumBits; ++I)
    if (bitOf(A, I) && bitOf(B, I))
      return true;
  return false;
}

size_t refPopcount(const Words &A, size_t NumBits) {
  size_t N = 0;
  for (size_t I = 0; I < NumBits; ++I)
    N += bitOf(A, I);
  return N;
}

enum class WordOp { And, Or, Xor, AndNot };

// The words a mutating operation must leave: each bit below NumBits
// combined, every bit past it clear (the tail invariant).
Words refWordOp(WordOp Op, const Words &A, const Words &B, size_t NumBits) {
  Words Out(A.size(), 0);
  for (size_t I = 0; I < NumBits; ++I) {
    bool X = bitOf(A, I), Y = bitOf(B, I);
    bool R = Op == WordOp::And   ? X && Y
             : Op == WordOp::Or  ? X || Y
             : Op == WordOp::Xor ? X != Y
                                 : X && !Y;
    if (R)
      setBit(Out, I);
  }
  return Out;
}

// A BitVector over NumBits holding exactly the words W, tail bits
// included: words() is how a dirty tail gets planted.
BitVector vectorOf(const Words &W, size_t NumBits) {
  BitVector BV(NumBits);
  std::copy(W.begin(), W.end(), BV.words());
  return BV;
}

Words wordsOf(const BitVector &BV) {
  return Words(BV.words(), BV.words() + BV.numWords());
}

Words runWordOp(WordOp Op, const Words &A, const Words &B, size_t NumBits) {
  BitVector Dst = vectorOf(A, NumBits);
  BitVector Src = vectorOf(B, NumBits);
  switch (Op) {
  case WordOp::And:
    Dst &= Src;
    break;
  case WordOp::Or:
    Dst |= Src;
    break;
  case WordOp::Xor:
    Dst ^= Src;
    break;
  case WordOp::AndNot:
    Dst.andNot(Src);
    break;
  }
  return wordsOf(Dst);
}

constexpr WordOp AllWordOps[] = {WordOp::And, WordOp::Or, WordOp::Xor,
                                 WordOp::AndNot};

// Every read operation of A and B against the model.
void expectReadsMatchModel(const Words &A, const Words &B, size_t NumBits,
                           const std::string &What) {
  BitVector VA = vectorOf(A, NumBits), VB = vectorOf(B, NumBits);
  EXPECT_EQ(VA.count(), refPopcount(A, NumBits)) << "count " << What;
  EXPECT_EQ(VA.none(), refPopcount(A, NumBits) == 0) << "none " << What;
  EXPECT_EQ(VA.isSubsetOf(VB), refIsSubset(A, B, NumBits))
      << "subset " << What;
  EXPECT_EQ(VA.intersects(VB), refIntersects(A, B, NumBits))
      << "intersects " << What;
}

// The fixed pattern alphabet used for the exhaustive sweep: the edge
// shapes most likely to expose tail or unroll-boundary bugs.
std::vector<Words> patternsFor(size_t NumBits) {
  size_t N = wordsFor(NumBits);
  std::vector<Words> Out;
  Out.push_back(Words(N, 0)); // empty
  Words Full(N, 0);
  for (size_t I = 0; I < NumBits; ++I)
    setBit(Full, I);
  Out.push_back(Full); // full
  if (NumBits > 0) {
    Words First(N, 0), Last(N, 0), Mid(N, 0);
    setBit(First, 0);
    setBit(Last, NumBits - 1);
    setBit(Mid, NumBits / 2);
    Out.push_back(First);
    Out.push_back(Last);
    Out.push_back(Mid);
  }
  Words Alt(N, 0);
  for (size_t I = 0; I < NumBits; I += 2)
    setBit(Alt, I);
  Out.push_back(Alt); // alternating
  return Out;
}

Words randomWords(std::mt19937_64 &Rng, size_t NumWords) {
  Words W(NumWords);
  for (uint64_t &X : W)
    X = Rng();
  return W;
}

// Clears bits past NumBits so the buffer honors the BitVector tail
// invariant.
void cleanTail(Words &W, size_t NumBits) {
  if (!W.empty())
    W.back() &= tailMaskFor(NumBits);
}

} // namespace

// Exhaustive sweep: every size 0..130 bits covers the empty vector, every
// tail length within a word, and the 1-, 2- and 3-word boundaries. The
// seeded pairs below reach the 4-way unrolled loops.
TEST(KernelsDifferentialTest, ExhaustiveSmallSizesAllPatternPairs) {
  for (size_t Bits = 0; Bits <= 130; ++Bits) {
    std::vector<Words> Pats = patternsFor(Bits);
    for (const Words &A : Pats) {
      for (const Words &B : Pats) {
        std::string What = "bits=" + std::to_string(Bits);
        expectReadsMatchModel(A, B, Bits, What);
        for (WordOp Op : AllWordOps)
          EXPECT_EQ(runWordOp(Op, A, B, Bits), refWordOp(Op, A, B, Bits))
              << "wordop=" << static_cast<int>(Op) << " " << What;
      }
    }
  }
}

// 10k seeded-random pairs, sizes spanning 0..~1100 bits so the unrolled
// main loops run many full blocks plus every remainder length.
TEST(KernelsDifferentialTest, SeededRandomPairs) {
  std::mt19937_64 Rng(0xC0FFEE);
  for (int Iter = 0; Iter < 10000; ++Iter) {
    size_t Bits = Rng() % 1100;
    size_t N = wordsFor(Bits);
    Words A = randomWords(Rng, N);
    Words B = randomWords(Rng, N);
    // A third of the pairs are made subsets (B |= A) and a third disjoint
    // (B &= ~A); half of those then get one bit, anywhere, that breaks the
    // relation, so the subset and intersects verdicts hinge on one word.
    size_t Shape = Rng() % 3;
    for (size_t I = 0; I < N; ++I)
      B[I] = Shape == 1 ? B[I] | A[I] : Shape == 2 ? B[I] & ~A[I] : B[I];
    if (Shape != 0 && Bits != 0 && (Rng() & 1)) {
      size_t P = Rng() % Bits;
      setBit(A, P);
      if (Shape == 1)
        B[P / 64] &= ~(uint64_t(1) << (P % 64)); // A escapes B at P.
      else
        setBit(B, P); // A and B meet at P.
    }
    // Half the pairs carry garbage past size(); reads must mask it out,
    // and mutating operations must clear it.
    bool Dirty = Rng() & 1;
    if (!Dirty) {
      cleanTail(A, Bits);
      cleanTail(B, Bits);
    }
    std::string What = "iter=" + std::to_string(Iter);
    expectReadsMatchModel(A, B, Bits, What);
    WordOp Op = AllWordOps[Rng() % 4];
    EXPECT_EQ(runWordOp(Op, A, B, Bits), refWordOp(Op, A, B, Bits)) << What;
  }
}

// A tail stuffed with all-ones garbage must be invisible to every read:
// identical verdicts and counts as the clean copy.
TEST(KernelsDifferentialTest, DirtyTailsCannotLeakIntoVerdicts) {
  for (size_t Bits : {size_t(1), size_t(63), size_t(65), size_t(127),
                      size_t(130), size_t(257), size_t(320)}) {
    size_t N = wordsFor(Bits);
    std::mt19937_64 Rng(Bits);
    Words A = randomWords(Rng, N);
    Words B = randomWords(Rng, N);
    cleanTail(A, Bits);
    cleanTail(B, Bits);
    if (Bits % 64 == 0) {
      // Whole-word sizes have no tail to dirty; the mask is all-ones.
      EXPECT_EQ(vectorOf(A, Bits).tailMask(), ~uint64_t(0));
      continue;
    }
    Words DirtyA = A, DirtyB = B;
    DirtyA.back() |= ~tailMaskFor(Bits);
    DirtyB.back() |= ~tailMaskFor(Bits);
    BitVector CA = vectorOf(A, Bits), CB = vectorOf(B, Bits);
    BitVector DA = vectorOf(DirtyA, Bits), DB = vectorOf(DirtyB, Bits);
    ASSERT_FALSE(DA.tailIsClean()) << "bits=" << Bits;
    EXPECT_EQ(DA.count(), CA.count()) << "bits=" << Bits;
    EXPECT_EQ(DA.none(), CA.none()) << "bits=" << Bits;
    EXPECT_EQ(DA.isSubsetOf(DB), CA.isSubsetOf(CB)) << "bits=" << Bits;
    // Subset must also hold across clean/dirty mixes: garbage in A's tail
    // must not make A appear to escape B.
    EXPECT_EQ(DA.isSubsetOf(CB), CA.isSubsetOf(CB)) << "bits=" << Bits;
    EXPECT_EQ(DA.intersects(DB), CA.intersects(CB)) << "bits=" << Bits;
    // A tail-only vector is empty.
    Words TailOnly(N, 0);
    TailOnly.back() = ~tailMaskFor(Bits);
    BitVector T = vectorOf(TailOnly, Bits);
    EXPECT_TRUE(T.none()) << "bits=" << Bits;
    EXPECT_EQ(T.count(), 0u) << "bits=" << Bits;
    EXPECT_FALSE(T.intersects(DA)) << "bits=" << Bits;
  }
}

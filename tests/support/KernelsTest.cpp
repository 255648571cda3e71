//===- tests/support/KernelsTest.cpp - Differential kernel battery --------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The portable kernels are checked against an independent bit-at-a-time
// model: exhaustively on all sizes 0..130 bits (covering every tail-word
// length and the 1-word/2-word/3-word boundaries) over a fixed pattern
// alphabet, then on 10k seeded-random pairs. Read kernels are additionally
// fed deliberately dirty tail words to prove TailMask keeps garbage past
// size() out of every verdict. The fused AND is checked in both forms: the
// portable one, and the AVX2 one when the CPU has AVX2.
//
//===----------------------------------------------------------------------===//

#include "support/simd/Kernels.h"

#include "gtest/gtest.h"

#include <cstdint>
#include <random>
#include <vector>

using namespace cable;
using namespace cable::simd;

namespace {

/// A fused-AND form under test.
struct AndManyForm {
  const char *Label;
  void (*Fn)(uint64_t *, const uint64_t *const *, size_t, size_t);
};

// Every fused-AND form this CPU can run.
std::vector<AndManyForm> andManyForms() {
  std::vector<AndManyForm> F = {{"portable", andManyInto}};
#ifdef CABLE_KERNELS_HAVE_AVX2
  if (__builtin_cpu_supports("avx2"))
    F.push_back({"avx2", detail::andManyIntoAVX2});
#endif
  return F;
}

size_t wordsFor(size_t NumBits) { return (NumBits + 63) / 64; }

uint64_t tailMaskFor(size_t NumBits) {
  size_t Tail = NumBits % 64;
  return Tail == 0 ? ~uint64_t(0) : (uint64_t(1) << Tail) - 1;
}

using Words = std::vector<uint64_t>;

bool bitOf(const Words &W, size_t I) { return (W[I / 64] >> (I % 64)) & 1; }

void setBit(Words &W, size_t I) { W[I / 64] |= uint64_t(1) << (I % 64); }

// The independent model: plain bit loops over the logical size, written
// without reference to any kernel code.
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

Words refWordOp(WordOp Op, Words Dst, const Words &Src) {
  for (size_t I = 0; I < Dst.size(); ++I) {
    switch (Op) {
    case WordOp::And:
      Dst[I] &= Src[I];
      break;
    case WordOp::Or:
      Dst[I] |= Src[I];
      break;
    case WordOp::Xor:
      Dst[I] ^= Src[I];
      break;
    case WordOp::AndNot:
      Dst[I] &= ~Src[I];
      break;
    }
  }
  return Dst;
}

void runWordOp(WordOp Op, Words &Dst, const Words &Src) {
  switch (Op) {
  case WordOp::And:
    andInto(Dst.data(), Src.data(), Dst.size());
    break;
  case WordOp::Or:
    orInto(Dst.data(), Src.data(), Dst.size());
    break;
  case WordOp::Xor:
    xorInto(Dst.data(), Src.data(), Dst.size());
    break;
  case WordOp::AndNot:
    andNotInto(Dst.data(), Src.data(), Dst.size());
    break;
  }
}

constexpr WordOp AllWordOps[] = {WordOp::And, WordOp::Or, WordOp::Xor,
                                 WordOp::AndNot};

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
// invariant (mutating-kernel inputs are always clean in production).
void cleanTail(Words &W, size_t NumBits) {
  if (!W.empty())
    W.back() &= tailMaskFor(NumBits);
}

} // namespace

// Exhaustive sweep: every size 0..130 bits covers the empty buffer, every
// tail length within a word, and the 1-, 2- and 3-word boundaries. The
// seeded pairs below reach the 4-way unrolled loops.
TEST(KernelsDifferentialTest, ExhaustiveSmallSizesAllPatternPairs) {
  for (size_t Bits = 0; Bits <= 130; ++Bits) {
    size_t N = wordsFor(Bits);
    uint64_t Mask = tailMaskFor(Bits);
    std::vector<Words> Pats = patternsFor(Bits);
    for (const Words &A : Pats) {
      EXPECT_EQ(popcount(A.data(), N, Mask), refPopcount(A, Bits))
          << "popcount bits=" << Bits;
      for (const Words &B : Pats) {
        EXPECT_EQ(isSubsetOf(A.data(), B.data(), N, Mask),
                  refIsSubset(A, B, Bits))
            << "subset bits=" << Bits;
        EXPECT_EQ(intersects(A.data(), B.data(), N, Mask),
                  refIntersects(A, B, Bits))
            << "intersects bits=" << Bits;
        for (WordOp Op : AllWordOps) {
          Words Dst = A;
          runWordOp(Op, Dst, B);
          EXPECT_EQ(Dst, refWordOp(Op, A, B))
              << "wordop=" << static_cast<int>(Op) << " bits=" << Bits;
        }
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
    uint64_t Mask = tailMaskFor(Bits);
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
    // Half the pairs carry garbage past size(); read kernels must mask it
    // out, so dirty tails cannot change any verdict.
    bool Dirty = Rng() & 1;
    if (!Dirty) {
      cleanTail(A, Bits);
      cleanTail(B, Bits);
    }
    EXPECT_EQ(popcount(A.data(), N, Mask), refPopcount(A, Bits))
        << "iter=" << Iter;
    EXPECT_EQ(isSubsetOf(A.data(), B.data(), N, Mask),
              refIsSubset(A, B, Bits))
        << "iter=" << Iter;
    EXPECT_EQ(intersects(A.data(), B.data(), N, Mask),
              refIntersects(A, B, Bits))
        << "iter=" << Iter;
    WordOp Op = AllWordOps[Rng() % 4];
    Words Dst = A;
    runWordOp(Op, Dst, B);
    EXPECT_EQ(Dst, refWordOp(Op, A, B)) << "iter=" << Iter;
  }
}

// The fused multi-operand AND, in every form the CPU can run: K = 0 must
// leave Dst untouched, and any K must equal folding the operands one at a
// time. The word counts straddle the 4-word and 16-word blocks.
TEST(KernelsDifferentialTest, AndManyIntoMatchesFold) {
  for (const AndManyForm &F : andManyForms()) {
    std::mt19937_64 Rng(0xAB5EED);
    for (size_t NumWords : {size_t(0), size_t(1), size_t(2), size_t(3),
                            size_t(4), size_t(5), size_t(15), size_t(16),
                            size_t(17), size_t(33)}) {
      for (size_t K = 0; K <= 9; ++K) {
        Words Dst = randomWords(Rng, NumWords);
        std::vector<Words> Rows;
        std::vector<const uint64_t *> Ptrs;
        for (size_t R = 0; R < K; ++R) {
          Rows.push_back(randomWords(Rng, NumWords));
          Ptrs.push_back(Rows.back().data());
        }
        Words Expect = Dst;
        for (const Words &Row : Rows)
          Expect = refWordOp(WordOp::And, Expect, Row);
        F.Fn(Dst.data(), Ptrs.data(), K, NumWords);
        EXPECT_EQ(Dst, Expect) << F.Label << " K=" << K
                               << " words=" << NumWords;
      }
    }
  }
}

// andSelectInto against a naive per-row fold over the same arena, on both
// of its paths: the in-register fold (≤ 4 words) and the batched fused AND
// (wider accumulators, which run whichever form this CPU selects).
TEST(KernelsDifferentialTest, AndSelectIntoMatchesNaiveAtEveryLevel) {
  std::mt19937_64 Rng(0x5E1EC7);
  for (int Iter = 0; Iter < 600; ++Iter) {
    size_t NumRows = Rng() % 70;
    size_t NumWords = Rng() % 21;
    size_t Stride = NumWords + Rng() % 3; // rows may be over-aligned
    Words Arena = randomWords(Rng, NumRows * Stride);
    size_t SelWords = wordsFor(NumRows);
    Words Sel = randomWords(Rng, SelWords);
    cleanTail(Sel, NumRows);
    Words Dst = randomWords(Rng, NumWords);

    Words Expect = Dst;
    for (size_t P = 0; P < NumRows; ++P)
      if (bitOf(Sel, P))
        for (size_t I = 0; I < NumWords; ++I)
          Expect[I] &= Arena[P * Stride + I];

    andSelectInto(Dst.data(), Arena.data(), Stride, Sel.data(), SelWords,
                  NumWords);
    EXPECT_EQ(Dst, Expect) << "iter=" << Iter << " rows=" << NumRows
                           << " words=" << NumWords;
  }
}

// A tail stuffed with all-ones garbage must be invisible to every read
// kernel: identical verdicts and counts as the clean copy.
TEST(KernelsDifferentialTest, DirtyTailsCannotLeakIntoVerdicts) {
  for (size_t Bits : {size_t(1), size_t(63), size_t(65), size_t(127),
                      size_t(130), size_t(257)}) {
    size_t N = wordsFor(Bits);
    uint64_t Mask = tailMaskFor(Bits);
    std::mt19937_64 Rng(Bits);
    Words A = randomWords(Rng, N);
    Words B = randomWords(Rng, N);
    cleanTail(A, Bits);
    cleanTail(B, Bits);
    Words DirtyA = A, DirtyB = B;
    DirtyA.back() |= ~tailMaskFor(Bits);
    DirtyB.back() |= ~tailMaskFor(Bits);
    if (Bits % 64 == 0) {
      // Whole-word sizes have no tail to dirty; the mask is all-ones.
      EXPECT_EQ(Mask, ~uint64_t(0));
      continue;
    }
    EXPECT_EQ(popcount(DirtyA.data(), N, Mask), popcount(A.data(), N, Mask))
        << "bits=" << Bits;
    EXPECT_EQ(isSubsetOf(DirtyA.data(), DirtyB.data(), N, Mask),
              isSubsetOf(A.data(), B.data(), N, Mask))
        << "bits=" << Bits;
    // Subset must also hold across clean/dirty mixes: garbage in A's tail
    // must not make A appear to escape B.
    EXPECT_EQ(isSubsetOf(DirtyA.data(), B.data(), N, Mask),
              isSubsetOf(A.data(), B.data(), N, Mask))
        << "bits=" << Bits;
    EXPECT_EQ(intersects(DirtyA.data(), DirtyB.data(), N, Mask),
              intersects(A.data(), B.data(), N, Mask))
        << "bits=" << Bits;
  }
}

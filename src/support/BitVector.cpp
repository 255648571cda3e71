//===- support/BitVector.cpp - Dynamic bit set ----------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/BitVector.h"

#include <bit>

using namespace cable;

//===----------------------------------------------------------------------===//
// Word loops — four words per iteration. Read loops apply a TailMask to
// the final word so a dirty tail can never leak into a verdict; mutating
// loops rely on the caller re-clearing the tail.
//===----------------------------------------------------------------------===//

namespace {

/// Dst[i] = Op(Dst[i], Src[i]) for all i.
template <typename WordOp>
void zipInto(uint64_t *Dst, const uint64_t *Src, size_t N, WordOp Op) {
  size_t I = 0;
  for (; I + 4 <= N; I += 4) {
    Dst[I + 0] = Op(Dst[I + 0], Src[I + 0]);
    Dst[I + 1] = Op(Dst[I + 1], Src[I + 1]);
    Dst[I + 2] = Op(Dst[I + 2], Src[I + 2]);
    Dst[I + 3] = Op(Dst[I + 3], Src[I + 3]);
  }
  for (; I < N; ++I)
    Dst[I] = Op(Dst[I], Src[I]);
}

/// True iff Op(A[i], B[i]) != 0 for some i, with TailMask applied to the
/// final word.
template <typename WordOp>
bool anyWord(const uint64_t *A, const uint64_t *B, size_t N,
             uint64_t TailMask, WordOp Op) {
  if (N == 0)
    return false;
  size_t Full = N - 1;
  size_t I = 0;
  for (; I + 4 <= Full; I += 4)
    if ((Op(A[I + 0], B[I + 0]) | Op(A[I + 1], B[I + 1]) |
         Op(A[I + 2], B[I + 2]) | Op(A[I + 3], B[I + 3])) != 0)
      return true;
  for (; I < Full; ++I)
    if (Op(A[I], B[I]) != 0)
      return true;
  return (Op(A[Full], B[Full]) & TailMask) != 0;
}

/// Total set bits, with TailMask applied to the final word.
size_t popcountWords(const uint64_t *A, size_t N, uint64_t TailMask) {
  if (N == 0)
    return 0;
  size_t Full = N - 1;
  size_t C0 = 0, C1 = 0, C2 = 0, C3 = 0;
  size_t I = 0;
  for (; I + 4 <= Full; I += 4) {
    C0 += static_cast<size_t>(std::popcount(A[I + 0]));
    C1 += static_cast<size_t>(std::popcount(A[I + 1]));
    C2 += static_cast<size_t>(std::popcount(A[I + 2]));
    C3 += static_cast<size_t>(std::popcount(A[I + 3]));
  }
  for (; I < Full; ++I)
    C0 += static_cast<size_t>(std::popcount(A[I]));
  return C0 + C1 + C2 + C3 +
         static_cast<size_t>(std::popcount(A[Full] & TailMask));
}

constexpr auto WordAnd = [](uint64_t X, uint64_t Y) { return X & Y; };
constexpr auto WordOr = [](uint64_t X, uint64_t Y) { return X | Y; };
constexpr auto WordXor = [](uint64_t X, uint64_t Y) { return X ^ Y; };
constexpr auto WordAndNot = [](uint64_t X, uint64_t Y) { return X & ~Y; };

} // namespace

void BitVector::clearUnusedBits() {
  size_t Tail = NumBits % 64;
  if (Tail != 0 && !Words.empty())
    Words.back() &= (uint64_t(1) << Tail) - 1;
}

void BitVector::resize(size_t NewSize) {
  NumBits = NewSize;
  Words.resize((NewSize + 63) / 64, 0);
  clearUnusedBits();
}

void BitVector::setAll() {
  for (uint64_t &W : Words)
    W = ~uint64_t(0);
  clearUnusedBits();
}

size_t BitVector::count() const {
  if (Words.size() == 1)
    return static_cast<size_t>(std::popcount(Words[0] & tailMask()));
  return popcountWords(Words.data(), Words.size(), tailMask());
}

bool BitVector::none() const {
  // A & A intersects iff any bit is set; anyWord masks the tail so a
  // dirty tail can never make an empty set look populated.
  if (Words.size() == 1)
    return (Words[0] & tailMask()) == 0;
  return !anyWord(Words.data(), Words.data(), Words.size(), tailMask(),
                  WordAnd);
}

BitVector &BitVector::operator&=(const BitVector &RHS) {
  assert(NumBits == RHS.NumBits && "universe size mismatch");
  if (Words.size() == 1)
    Words[0] &= RHS.Words[0];
  else
    zipInto(Words.data(), RHS.Words.data(), Words.size(), WordAnd);
  clearUnusedBits();
  assert(tailIsClean());
  return *this;
}

BitVector &BitVector::operator|=(const BitVector &RHS) {
  assert(NumBits == RHS.NumBits && "universe size mismatch");
  if (Words.size() == 1)
    Words[0] |= RHS.Words[0];
  else
    zipInto(Words.data(), RHS.Words.data(), Words.size(), WordOr);
  clearUnusedBits();
  assert(tailIsClean());
  return *this;
}

BitVector &BitVector::operator^=(const BitVector &RHS) {
  assert(NumBits == RHS.NumBits && "universe size mismatch");
  if (Words.size() == 1)
    Words[0] ^= RHS.Words[0];
  else
    zipInto(Words.data(), RHS.Words.data(), Words.size(), WordXor);
  clearUnusedBits();
  assert(tailIsClean());
  return *this;
}

BitVector &BitVector::andNot(const BitVector &RHS) {
  assert(NumBits == RHS.NumBits && "universe size mismatch");
  if (Words.size() == 1)
    Words[0] &= ~RHS.Words[0];
  else
    zipInto(Words.data(), RHS.Words.data(), Words.size(), WordAndNot);
  clearUnusedBits();
  assert(tailIsClean());
  return *this;
}

void BitVector::flipAll() {
  for (uint64_t &W : Words)
    W = ~W;
  clearUnusedBits();
}

bool BitVector::isSubsetOf(const BitVector &RHS) const {
  assert(NumBits == RHS.NumBits && "universe size mismatch");
  if (Words.size() == 1)
    return ((Words[0] & ~RHS.Words[0]) & tailMask()) == 0;
  return !anyWord(Words.data(), RHS.Words.data(), Words.size(), tailMask(),
                  WordAndNot);
}

bool BitVector::intersects(const BitVector &RHS) const {
  assert(NumBits == RHS.NumBits && "universe size mismatch");
  if (Words.size() == 1)
    return ((Words[0] & RHS.Words[0]) & tailMask()) != 0;
  return anyWord(Words.data(), RHS.Words.data(), Words.size(), tailMask(),
                 WordAnd);
}

size_t BitVector::findFirst() const {
  for (size_t I = 0; I < Words.size(); ++I)
    if (Words[I] != 0)
      return I * 64 + static_cast<size_t>(std::countr_zero(Words[I]));
  return npos;
}

size_t BitVector::findNext(size_t Prev) const {
  size_t Next = Prev + 1;
  if (Next >= NumBits)
    return npos;
  size_t WordIdx = Next / 64;
  uint64_t Masked = Words[WordIdx] & (~uint64_t(0) << (Next % 64));
  if (Masked != 0)
    return WordIdx * 64 + static_cast<size_t>(std::countr_zero(Masked));
  for (size_t I = WordIdx + 1; I < Words.size(); ++I)
    if (Words[I] != 0)
      return I * 64 + static_cast<size_t>(std::countr_zero(Words[I]));
  return npos;
}

std::vector<size_t> BitVector::toIndices() const {
  std::vector<size_t> Out;
  for (size_t I : *this)
    Out.push_back(I);
  return Out;
}

size_t BitVector::hashValue() const {
  uint64_t H = HashSeed;
  for (uint64_t W : Words)
    H = hashStep(H, W);
  return static_cast<size_t>(hashFinish(H));
}

namespace cable {

BitVector operator&(const BitVector &A, const BitVector &B) {
  BitVector R = A;
  R &= B;
  return R;
}

BitVector operator|(const BitVector &A, const BitVector &B) {
  BitVector R = A;
  R |= B;
  return R;
}

} // namespace cable

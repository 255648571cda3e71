//===- support/BitVector.cpp - Dynamic bit set ----------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/BitVector.h"

#include "support/simd/Kernels.h"

#include <bit>

using namespace cable;

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
  return simd::popcount(Words.data(), Words.size(), tailMask());
}

bool BitVector::none() const {
  // A & A intersects iff any bit is set; the kernel masks the tail so a
  // dirty tail can never make an empty set look populated.
  if (Words.size() == 1)
    return (Words[0] & tailMask()) == 0;
  return !simd::intersects(Words.data(), Words.data(), Words.size(),
                           tailMask());
}

BitVector &BitVector::operator&=(const BitVector &RHS) {
  assert(NumBits == RHS.NumBits && "universe size mismatch");
  if (Words.size() == 1)
    Words[0] &= RHS.Words[0];
  else
    simd::andInto(Words.data(), RHS.Words.data(), Words.size());
  clearUnusedBits();
  assert(tailIsClean());
  return *this;
}

BitVector &BitVector::operator|=(const BitVector &RHS) {
  assert(NumBits == RHS.NumBits && "universe size mismatch");
  if (Words.size() == 1)
    Words[0] |= RHS.Words[0];
  else
    simd::orInto(Words.data(), RHS.Words.data(), Words.size());
  clearUnusedBits();
  assert(tailIsClean());
  return *this;
}

BitVector &BitVector::operator^=(const BitVector &RHS) {
  assert(NumBits == RHS.NumBits && "universe size mismatch");
  if (Words.size() == 1)
    Words[0] ^= RHS.Words[0];
  else
    simd::xorInto(Words.data(), RHS.Words.data(), Words.size());
  clearUnusedBits();
  assert(tailIsClean());
  return *this;
}

BitVector &BitVector::andNot(const BitVector &RHS) {
  assert(NumBits == RHS.NumBits && "universe size mismatch");
  if (Words.size() == 1)
    Words[0] &= ~RHS.Words[0];
  else
    simd::andNotInto(Words.data(), RHS.Words.data(), Words.size());
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
  return simd::isSubsetOf(Words.data(), RHS.Words.data(), Words.size(),
                          tailMask());
}

bool BitVector::intersects(const BitVector &RHS) const {
  assert(NumBits == RHS.NumBits && "universe size mismatch");
  if (Words.size() == 1)
    return ((Words[0] & RHS.Words[0]) & tailMask()) != 0;
  return simd::intersects(Words.data(), RHS.Words.data(), Words.size(),
                          tailMask());
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

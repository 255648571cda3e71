//===- concepts/Context.cpp - Formal contexts ------------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "concepts/Context.h"

#include "support/Metrics.h"

#include <cassert>
#include <cstdio>

using namespace cable;

namespace {

// Fused-derivation call volume, split by operator. One flush per call;
// the disarmed cost is a single relaxed load (see support/Metrics.h).
Metrics::Counter &NumSigma = Metrics::counter("context.sigma-calls");
Metrics::Counter &NumTau = Metrics::counter("context.tau-calls");

/// Out &= every arena row whose index is set in \p Sel (row p at Arena +
/// p * Stride, Out.numWords() words of it).
void andSelectedRows(const uint64_t *Arena, size_t Stride,
                     const BitVector &Sel, BitVector &Out) {
  uint64_t *Dst = Out.words();
  const size_t NumWords = Out.numWords();
  for (size_t P : Sel) {
    const uint64_t *Row = Arena + P * Stride;
    for (size_t I = 0; I < NumWords; ++I)
      Dst[I] &= Row[I];
  }
}

} // namespace

Context::Context(size_t NumObjects, size_t NumAttributes)
    : NObj(NumObjects), NAttr(NumAttributes),
      RowStride((NumAttributes + 63) / 64), ColStride((NumObjects + 63) / 64),
      RowArena(NumObjects * RowStride, 0),
      ColArena(NumAttributes * ColStride, 0) {}

void Context::relate(size_t Obj, size_t Attr) {
  assert(Obj < numObjects() && Attr < numAttributes() && "index out of range");
  RowArena[Obj * RowStride + Attr / 64] |= uint64_t(1) << (Attr % 64);
  ColArena[Attr * ColStride + Obj / 64] |= uint64_t(1) << (Obj % 64);
}

bool Context::related(size_t Obj, size_t Attr) const {
  assert(Obj < numObjects() && Attr < numAttributes() && "index out of range");
  return (RowArena[Obj * RowStride + Attr / 64] >> (Attr % 64)) & 1;
}

void Context::sigmaInto(const BitVector &Objects, BitVector &Out) const {
  NumSigma.add();
  assert(Objects.size() == numObjects() && "object universe mismatch");
  assert(Out.size() == numAttributes() && "output universe mismatch");
  Out.setAll();
  andSelectedRows(RowArena.data(), RowStride, Objects, Out);
  assert(Out.tailIsClean());
}

void Context::tauInto(const BitVector &Attrs, BitVector &Out) const {
  NumTau.add();
  assert(Attrs.size() == numAttributes() && "attribute universe mismatch");
  assert(Out.size() == numObjects() && "output universe mismatch");
  Out.setAll();
  andSelectedRows(ColArena.data(), ColStride, Attrs, Out);
  assert(Out.tailIsClean());
}

BitVector Context::sigma(const BitVector &Objects) const {
  BitVector Out(numAttributes());
  sigmaInto(Objects, Out);
  return Out;
}

BitVector Context::tau(const BitVector &Attrs) const {
  BitVector Out(numObjects());
  tauInto(Attrs, Out);
  return Out;
}

std::string Context::contentHash() const {
  // FNV-1a 64 over a canonical little-endian byte stream: the digest keys
  // the artifact store, so it is a pure function of the relation.
  uint64_t H = 1469598103934665603ULL;
  auto Mix = [&H](uint64_t W) {
    for (int B = 0; B < 8; ++B) {
      H ^= (W >> (8 * B)) & 0xffu;
      H *= 1099511628211ULL;
    }
  };
  Mix(NObj);
  Mix(NAttr);
  for (size_t O = 0; O < NObj; ++O)
    for (size_t W = 0; W < RowStride; ++W)
      Mix(RowArena[O * RowStride + W]);
  char Hex[17];
  std::snprintf(Hex, sizeof(Hex), "%016llx",
                static_cast<unsigned long long>(H));
  return std::string(Hex, 16);
}

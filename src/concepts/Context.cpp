//===- concepts/Context.cpp - Formal contexts ------------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "concepts/Context.h"

#include "support/Metrics.h"
#include "support/simd/Kernels.h"

#include <bit>
#include <cassert>
#include <cstdio>

using namespace cable;

namespace {

// Fused-derivation call volume, split by operator. One flush per call;
// the disarmed cost is a single relaxed load (see support/Metrics.h).
Metrics::Counter &NumSigma = Metrics::counter("context.sigma-calls");
Metrics::Counter &NumTau = Metrics::counter("context.tau-calls");

/// Register-resident closure for one-word intents (RowStride == 1) and a
/// compile-time column stride CS: the whole extent lives in CS registers
/// and the intermediate never round-trips through memory. This is the
/// regime of every workload in the paper (attributes = FA transitions
/// fit one word; objects = traces fit CS*64), where the generic batched
/// path's gather/dispatch overhead would rival the ANDs themselves.
///
/// SelAttrs is the (one-word) attribute selector; ExtentOut and IntentOut
/// are CS and 1 words respectively.
template <size_t CS>
void closeIntent1xN(const uint64_t *RowArena, const uint64_t *ColArena,
                    uint64_t SelAttrs, uint64_t ObjTailMask,
                    uint64_t AttrTailMask, uint64_t *ExtentOut,
                    uint64_t *IntentOut) {
  uint64_t Ext[CS];
  for (size_t I = 0; I + 1 < CS; ++I)
    Ext[I] = ~uint64_t(0);
  Ext[CS - 1] = ObjTailMask; // tau(∅) = all objects
  while (SelAttrs != 0) {
    const uint64_t *Col =
        ColArena + static_cast<size_t>(std::countr_zero(SelAttrs)) * CS;
    SelAttrs &= SelAttrs - 1;
    for (size_t I = 0; I < CS; ++I)
      Ext[I] &= Col[I];
  }
  uint64_t Intent = AttrTailMask; // sigma(∅) = all attributes
  for (size_t W = 0; W < CS; ++W) {
    uint64_t Bits = Ext[W];
    const uint64_t *Base = RowArena + W * 64;
    while (Bits != 0) {
      Intent &= Base[static_cast<size_t>(std::countr_zero(Bits))];
      Bits &= Bits - 1;
    }
    ExtentOut[W] = Ext[W];
  }
  *IntentOut = Intent;
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
  simd::andSelectInto(Out.words(), RowArena.data(), RowStride,
                      Objects.words(), Objects.numWords(), Out.numWords());
  assert(Out.tailIsClean());
}

void Context::tauInto(const BitVector &Attrs, BitVector &Out) const {
  NumTau.add();
  assert(Attrs.size() == numAttributes() && "attribute universe mismatch");
  assert(Out.size() == numObjects() && "output universe mismatch");
  Out.setAll();
  simd::andSelectInto(Out.words(), ColArena.data(), ColStride, Attrs.words(),
                      Attrs.numWords(), Out.numWords());
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

BitVector Context::closeIntent(const BitVector &Attrs) const {
  BitVector ObjScratch(numObjects());
  BitVector Out(numAttributes());
  closeIntentInto(Attrs, ObjScratch, Out);
  return Out;
}

void Context::closeIntentInto(const BitVector &Attrs, BitVector &ObjScratch,
                              BitVector &Out) const {
  // Contexts whose attributes fit one word (the paper's regime: attributes
  // are FA transitions) and whose objects fit eight run the whole closure
  // in registers; the switch picks a fully unrolled column stride.
  if (RowStride == 1 && ColStride >= 1 && ColStride <= 8) {
    NumTau.add();
    NumSigma.add();
    assert(Attrs.size() == NAttr && Out.size() == NAttr &&
           ObjScratch.size() == NObj && "universe mismatch");
    uint64_t Sel = Attrs.words()[0];
    uint64_t ObjMask = ObjScratch.tailMask(), AttrMask = Out.tailMask();
    uint64_t *Ext = ObjScratch.words(), *Int = Out.words();
    switch (ColStride) {
    case 1:
      closeIntent1xN<1>(RowArena.data(), ColArena.data(), Sel, ObjMask,
                        AttrMask, Ext, Int);
      break;
    case 2:
      closeIntent1xN<2>(RowArena.data(), ColArena.data(), Sel, ObjMask,
                        AttrMask, Ext, Int);
      break;
    case 3:
      closeIntent1xN<3>(RowArena.data(), ColArena.data(), Sel, ObjMask,
                        AttrMask, Ext, Int);
      break;
    case 4:
      closeIntent1xN<4>(RowArena.data(), ColArena.data(), Sel, ObjMask,
                        AttrMask, Ext, Int);
      break;
    case 5:
      closeIntent1xN<5>(RowArena.data(), ColArena.data(), Sel, ObjMask,
                        AttrMask, Ext, Int);
      break;
    case 6:
      closeIntent1xN<6>(RowArena.data(), ColArena.data(), Sel, ObjMask,
                        AttrMask, Ext, Int);
      break;
    case 7:
      closeIntent1xN<7>(RowArena.data(), ColArena.data(), Sel, ObjMask,
                        AttrMask, Ext, Int);
      break;
    case 8:
      closeIntent1xN<8>(RowArena.data(), ColArena.data(), Sel, ObjMask,
                        AttrMask, Ext, Int);
      break;
    }
    assert(Out.tailIsClean() && ObjScratch.tailIsClean());
    return;
  }
  tauInto(Attrs, ObjScratch);
  sigmaInto(ObjScratch, Out);
}

std::string Context::contentHash() const {
  // FNV-1a 64 over a canonical little-endian byte stream. Deliberately a
  // plain scalar loop: the digest keys the artifact store, so it must not
  // depend on which kernels the CPU runs.
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

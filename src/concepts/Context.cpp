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
#include <unordered_map>

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
/// closeIntent: Sel is the (one-word) attribute selector; Extent/Out are
/// CS and 1 words respectively.
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

/// closeExtent counterpart: SelObjects spans CS words, the intermediate
/// intent is one register, and the closed extent is folded back into CS
/// registers.
template <size_t CS>
void closeExtent1xN(const uint64_t *RowArena, const uint64_t *ColArena,
                    const uint64_t *SelObjects, uint64_t ObjTailMask,
                    uint64_t AttrTailMask, uint64_t *IntentOut,
                    uint64_t *ExtentOut) {
  uint64_t Intent = AttrTailMask;
  for (size_t W = 0; W < CS; ++W) {
    uint64_t Bits = SelObjects[W];
    const uint64_t *Base = RowArena + W * 64;
    while (Bits != 0) {
      Intent &= Base[static_cast<size_t>(std::countr_zero(Bits))];
      Bits &= Bits - 1;
    }
  }
  *IntentOut = Intent;
  uint64_t Ext[CS];
  for (size_t I = 0; I + 1 < CS; ++I)
    Ext[I] = ~uint64_t(0);
  Ext[CS - 1] = ObjTailMask;
  while (Intent != 0) {
    const uint64_t *Col =
        ColArena + static_cast<size_t>(std::countr_zero(Intent)) * CS;
    Intent &= Intent - 1;
    for (size_t I = 0; I < CS; ++I)
      Ext[I] &= Col[I];
  }
  for (size_t I = 0; I < CS; ++I)
    ExtentOut[I] = Ext[I];
}

} // namespace

Context::Context(size_t NumObjects, size_t NumAttributes)
    : NObj(NumObjects), NAttr(NumAttributes),
      RowStride((NumAttributes + 63) / 64), ColStride((NumObjects + 63) / 64),
      RowArena(NumObjects * RowStride, 0), ColArena(NumAttributes * ColStride, 0),
      ObjectRows(NumObjects, BitVector(NumAttributes)),
      AttributeColsRef(NumAttributes, BitVector(NumObjects)) {}

void Context::relate(size_t Obj, size_t Attr) {
  assert(Obj < numObjects() && Attr < numAttributes() && "index out of range");
  RowArena[Obj * RowStride + Attr / 64] |= uint64_t(1) << (Attr % 64);
  ColArena[Attr * ColStride + Obj / 64] |= uint64_t(1) << (Obj % 64);
  ObjectRows[Obj].set(Attr);
  AttributeColsRef[Attr].set(Obj);
}

bool Context::related(size_t Obj, size_t Attr) const {
  assert(Obj < numObjects() && Attr < numAttributes() && "index out of range");
  return (RowArena[Obj * RowStride + Attr / 64] >> (Attr % 64)) & 1;
}

BitVector Context::sigmaReference(const BitVector &Objects) const {
  assert(Objects.size() == numObjects() && "object universe mismatch");
  BitVector Out(numAttributes());
  Out.setAll();
  for (size_t O : Objects)
    Out &= ObjectRows[O];
  return Out;
}

BitVector Context::tauReference(const BitVector &Attrs) const {
  assert(Attrs.size() == numAttributes() && "attribute universe mismatch");
  BitVector Out(numObjects());
  Out.setAll();
  for (size_t A : Attrs)
    Out &= AttributeColsRef[A];
  return Out;
}

void Context::sigmaInto(const BitVector &Objects, BitVector &Out) const {
  NumSigma.add();
  sigmaIntoUncounted(Objects, Out);
}

void Context::sigmaIntoUncounted(const BitVector &Objects,
                                 BitVector &Out) const {
  assert(Objects.size() == numObjects() && "object universe mismatch");
  assert(Out.size() == numAttributes() && "output universe mismatch");
  Out.setAll();
  if (UseReferencePaths) {
    for (size_t O : Objects)
      Out &= ObjectRows[O];
    return;
  }
  simd::andSelectInto(Out.words(), RowArena.data(), RowStride,
                      Objects.words(), Objects.numWords(), Out.numWords());
  assert(Out.tailIsClean());
}

void Context::tauInto(const BitVector &Attrs, BitVector &Out) const {
  NumTau.add();
  tauIntoUncounted(Attrs, Out);
}

void Context::tauIntoUncounted(const BitVector &Attrs, BitVector &Out) const {
  assert(Attrs.size() == numAttributes() && "attribute universe mismatch");
  assert(Out.size() == numObjects() && "output universe mismatch");
  Out.setAll();
  if (UseReferencePaths) {
    for (size_t A : Attrs)
      Out &= AttributeColsRef[A];
    return;
  }
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

BitVector Context::closeExtent(const BitVector &Objects) const {
  BitVector AttrScratch(numAttributes());
  BitVector Out(numObjects());
  closeExtentInto(Objects, AttrScratch, Out);
  return Out;
}

BitVector Context::closeIntent(const BitVector &Attrs) const {
  BitVector ObjScratch(numObjects());
  BitVector Out(numAttributes());
  closeIntentInto(Attrs, ObjScratch, Out);
  return Out;
}

void Context::countIntentClosures(uint64_t N) {
  NumTau.add(N);
  NumSigma.add(N);
}

void Context::closeIntentInto(const BitVector &Attrs, BitVector &ObjScratch,
                              BitVector &Out) const {
  countIntentClosures(1);
  closeIntentIntoUncounted(Attrs, ObjScratch, Out);
}

void Context::closeIntentIntoUncounted(const BitVector &Attrs,
                                       BitVector &ObjScratch,
                                       BitVector &Out) const {
  // Contexts whose attributes fit one word (the paper's regime: attributes
  // are FA transitions) and whose objects fit eight run the whole closure
  // in registers; the switch picks a fully unrolled column stride.
  if (!UseReferencePaths && RowStride == 1 && ColStride >= 1 &&
      ColStride <= 8) {
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
  tauIntoUncounted(Attrs, ObjScratch);
  sigmaIntoUncounted(ObjScratch, Out);
}

void Context::closeExtentInto(const BitVector &Objects, BitVector &AttrScratch,
                              BitVector &Out) const {
  if (!UseReferencePaths && RowStride == 1 && ColStride >= 1 &&
      ColStride <= 8) {
    assert(Objects.size() == NObj && Out.size() == NObj &&
           AttrScratch.size() == NAttr && "universe mismatch");
    NumSigma.add();
    NumTau.add();
    const uint64_t *Sel = Objects.words();
    uint64_t ObjMask = Out.tailMask(), AttrMask = AttrScratch.tailMask();
    uint64_t *Int = AttrScratch.words(), *Ext = Out.words();
    switch (ColStride) {
    case 1:
      closeExtent1xN<1>(RowArena.data(), ColArena.data(), Sel, ObjMask,
                        AttrMask, Int, Ext);
      break;
    case 2:
      closeExtent1xN<2>(RowArena.data(), ColArena.data(), Sel, ObjMask,
                        AttrMask, Int, Ext);
      break;
    case 3:
      closeExtent1xN<3>(RowArena.data(), ColArena.data(), Sel, ObjMask,
                        AttrMask, Int, Ext);
      break;
    case 4:
      closeExtent1xN<4>(RowArena.data(), ColArena.data(), Sel, ObjMask,
                        AttrMask, Int, Ext);
      break;
    case 5:
      closeExtent1xN<5>(RowArena.data(), ColArena.data(), Sel, ObjMask,
                        AttrMask, Int, Ext);
      break;
    case 6:
      closeExtent1xN<6>(RowArena.data(), ColArena.data(), Sel, ObjMask,
                        AttrMask, Int, Ext);
      break;
    case 7:
      closeExtent1xN<7>(RowArena.data(), ColArena.data(), Sel, ObjMask,
                        AttrMask, Int, Ext);
      break;
    case 8:
      closeExtent1xN<8>(RowArena.data(), ColArena.data(), Sel, ObjMask,
                        AttrMask, Int, Ext);
      break;
    }
    assert(Out.tailIsClean() && AttrScratch.tailIsClean());
    return;
  }
  sigmaInto(Objects, AttrScratch);
  tauInto(AttrScratch, Out);
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

Context Context::clarified(std::vector<size_t> *ObjectMap,
                           std::vector<size_t> *AttributeMap) const {
  // Dedup object rows.
  std::unordered_map<BitVector, size_t, BitVectorHash> RowIds;
  std::vector<size_t> ObjOf(numObjects());
  std::vector<const BitVector *> Rows;
  for (size_t O = 0; O < numObjects(); ++O) {
    auto [It, Inserted] = RowIds.emplace(ObjectRows[O], Rows.size());
    if (Inserted)
      Rows.push_back(&ObjectRows[O]);
    ObjOf[O] = It->second;
  }
  // Dedup attribute columns.
  std::unordered_map<BitVector, size_t, BitVectorHash> ColIds;
  std::vector<size_t> AttrOf(numAttributes());
  std::vector<size_t> ColRep;
  for (size_t A = 0; A < numAttributes(); ++A) {
    auto [It, Inserted] = ColIds.emplace(AttributeColsRef[A], ColRep.size());
    if (Inserted)
      ColRep.push_back(A);
    AttrOf[A] = It->second;
  }

  Context Out(Rows.size(), ColRep.size());
  for (size_t O = 0; O < numObjects(); ++O)
    for (size_t A : ObjectRows[O])
      if (!Out.related(ObjOf[O], AttrOf[A]))
        Out.relate(ObjOf[O], AttrOf[A]);
  if (ObjectMap)
    *ObjectMap = std::move(ObjOf);
  if (AttributeMap)
    *AttributeMap = std::move(AttrOf);
  return Out;
}

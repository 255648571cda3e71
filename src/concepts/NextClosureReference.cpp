//===- concepts/NextClosureReference.cpp - The enumeration oracle ---------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "concepts/NextClosureReference.h"

#include <bit>
#include <cassert>
#include <utility>

using namespace cable;

namespace {

/// Register-resident closure for one-word intents and a compile-time
/// column stride CS: the whole extent lives in CS registers and the
/// intermediate never round-trips through memory.
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

void NextClosureReference::closeIntentInto(const Context &Ctx,
                                           const BitVector &Attrs,
                                           BitVector &ObjScratch,
                                           BitVector &Out) {
  assert(Attrs.size() == Ctx.numAttributes() &&
         Out.size() == Ctx.numAttributes() &&
         ObjScratch.size() == Ctx.numObjects() && "universe mismatch");
  // Contexts whose attributes fit one word and whose objects fit eight
  // run the whole closure in registers; the switch picks a fully unrolled
  // column stride.
  size_t ColStride = ObjScratch.numWords();
  if (Out.numWords() == 1 && ColStride >= 1 && ColStride <= 8) {
    const uint64_t *Rows = Ctx.objectRowWords(0);
    const uint64_t *Cols = Ctx.attributeColWords(0);
    uint64_t Sel = Attrs.words()[0];
    uint64_t ObjMask = ObjScratch.tailMask(), AttrMask = Out.tailMask();
    uint64_t *Ext = ObjScratch.words(), *Int = Out.words();
    switch (ColStride) {
    case 1:
      closeIntent1xN<1>(Rows, Cols, Sel, ObjMask, AttrMask, Ext, Int);
      break;
    case 2:
      closeIntent1xN<2>(Rows, Cols, Sel, ObjMask, AttrMask, Ext, Int);
      break;
    case 3:
      closeIntent1xN<3>(Rows, Cols, Sel, ObjMask, AttrMask, Ext, Int);
      break;
    case 4:
      closeIntent1xN<4>(Rows, Cols, Sel, ObjMask, AttrMask, Ext, Int);
      break;
    case 5:
      closeIntent1xN<5>(Rows, Cols, Sel, ObjMask, AttrMask, Ext, Int);
      break;
    case 6:
      closeIntent1xN<6>(Rows, Cols, Sel, ObjMask, AttrMask, Ext, Int);
      break;
    case 7:
      closeIntent1xN<7>(Rows, Cols, Sel, ObjMask, AttrMask, Ext, Int);
      break;
    case 8:
      closeIntent1xN<8>(Rows, Cols, Sel, ObjMask, AttrMask, Ext, Int);
      break;
    }
    assert(Out.tailIsClean() && ObjScratch.tailIsClean());
    return;
  }
  Ctx.tauInto(Attrs, ObjScratch);
  Ctx.sigmaInto(ObjScratch, Out);
}

std::vector<BitVector> NextClosureReference::closedIntents(const Context &Ctx) {
  size_t M = Ctx.numAttributes();
  std::vector<BitVector> Out;
  // The lectic least closed intent is the closure of ∅.
  BitVector A(M), B(M), Closed(M), ObjScratch(Ctx.numObjects());
  closeIntentInto(Ctx, BitVector(M), ObjScratch, A);
  Out.push_back(A);
  // Each pass finds the lectic successor of A; the enumeration ends when
  // there is none.
  for (bool Advanced = true; Advanced;) {
    Advanced = false;
    for (size_t IPlus1 = M; IPlus1 > 0; --IPlus1) {
      size_t I = IPlus1 - 1;
      if (A.test(I))
        continue;
      // Candidate: closure((A ∩ {0..I-1}) ∪ {I}).
      B.resetAll();
      for (size_t J : A) {
        if (J >= I)
          break;
        B.set(J);
      }
      B.set(I);
      closeIntentInto(Ctx, B, ObjScratch, Closed);
      // Accept iff the closure agrees with A below I (B +_i A in Ganter's
      // notation).
      bool Agrees = true;
      for (size_t J : Closed) {
        if (J >= I)
          break;
        if (!A.test(J)) {
          Agrees = false;
          break;
        }
      }
      if (!Agrees)
        continue;
      Out.push_back(Closed);
      std::swap(A, Closed);
      Advanced = true;
      break;
    }
  }
  return Out;
}

std::vector<Concept> NextClosureReference::concepts(const Context &Ctx) {
  std::vector<Concept> Concepts;
  for (BitVector &Intent : closedIntents(Ctx)) {
    Concept C;
    C.Extent = Ctx.tau(Intent);
    C.Intent = std::move(Intent);
    Concepts.push_back(std::move(C));
  }
  return Concepts;
}

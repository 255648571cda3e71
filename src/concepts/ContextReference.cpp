//===- concepts/ContextReference.cpp - The Context oracle -----------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "concepts/ContextReference.h"

#include <cassert>
#include <unordered_map>

using namespace cable;

ContextReference::ContextReference(const Context &Ctx)
    : Rows(Ctx.numObjects(), BitVector(Ctx.numAttributes())),
      Cols(Ctx.numAttributes(), BitVector(Ctx.numObjects())) {
  for (size_t O = 0; O < Ctx.numObjects(); ++O)
    for (size_t A = 0; A < Ctx.numAttributes(); ++A)
      if (Ctx.related(O, A)) {
        Rows[O].set(A);
        Cols[A].set(O);
      }
}

BitVector ContextReference::sigma(const BitVector &Objects) const {
  assert(Objects.size() == Rows.size() && "object universe mismatch");
  BitVector Out(Cols.size());
  Out.setAll();
  for (size_t O : Objects)
    Out &= Rows[O];
  return Out;
}

BitVector ContextReference::tau(const BitVector &Attrs) const {
  assert(Attrs.size() == Cols.size() && "attribute universe mismatch");
  BitVector Out(Rows.size());
  Out.setAll();
  for (size_t A : Attrs)
    Out &= Cols[A];
  return Out;
}

Context cable::clarified(const Context &Ctx, std::vector<size_t> *ObjectMap,
                         std::vector<size_t> *AttributeMap) {
  ContextReference Ref(Ctx);
  // Number each distinct row and column in order of first occurrence.
  auto Dedup = [](size_t N, auto Line) {
    std::unordered_map<BitVector, size_t, BitVectorHash> Ids;
    std::vector<size_t> Of(N);
    for (size_t I = 0; I < N; ++I)
      Of[I] = Ids.emplace(Line(I), Ids.size()).first->second;
    return std::make_pair(std::move(Of), Ids.size());
  };
  auto [ObjOf, NumRows] = Dedup(Ctx.numObjects(),
                                [&](size_t O) { return Ref.row(O); });
  auto [AttrOf, NumCols] = Dedup(Ctx.numAttributes(),
                                 [&](size_t A) { return Ref.col(A); });

  Context Out(NumRows, NumCols);
  for (size_t O = 0; O < Ctx.numObjects(); ++O)
    for (size_t A : Ref.row(O))
      Out.relate(ObjOf[O], AttrOf[A]);
  if (ObjectMap)
    *ObjectMap = std::move(ObjOf);
  if (AttributeMap)
    *AttributeMap = std::move(AttrOf);
  return Out;
}

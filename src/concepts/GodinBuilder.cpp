//===- concepts/GodinBuilder.cpp - Incremental lattice construction -------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "concepts/GodinBuilder.h"

#include "support/Metrics.h"
#include "support/TraceEvent.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <unordered_map>

using namespace cable;

namespace {

Metrics::Counter &ObjectsAdded = Metrics::counter("godin.objects-added");
Metrics::Counter &ConceptsCreated = Metrics::counter("godin.concepts-created");

} // namespace

GodinBuilder::GodinBuilder(size_t NumAttributes)
    : NumAttributes(NumAttributes) {
  // Seed with the bottom concept (tau(A), A). With no objects yet,
  // tau(A) = ∅ over an empty object universe.
  Concept Bottom;
  Bottom.Extent = BitVector(0);
  Bottom.Intent = BitVector(NumAttributes);
  Bottom.Intent.setAll();
  Concepts.push_back(std::move(Bottom));
}

void GodinBuilder::addObject(const BitVector &Attrs) {
  assert(Attrs.size() == NumAttributes && "attribute universe mismatch");
  size_t X = NumObjects++;

  // Grow every extent to the new object universe.
  for (Concept &C : Concepts)
    C.Extent.resize(NumObjects);

  // Visit existing concepts in ascending intent size.
  std::vector<size_t> Order(Concepts.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::vector<size_t> IntentCard(Concepts.size());
  for (size_t I = 0; I < Concepts.size(); ++I)
    IntentCard[I] = Concepts[I].Intent.count();
  std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return IntentCard[A] < IntentCard[B];
  });

  // Intents already present in the updated lattice (modified concepts keep
  // theirs; created concepts add theirs). Blocks duplicate creation.
  std::unordered_map<BitVector, size_t, BitVectorHash> Present;

  size_t NumOld = Concepts.size();
  std::vector<Concept> Created;
  // Candidate-intent scratch reused across the visit: a duplicate intent
  // (the common case on dense lattices) costs no allocation.
  BitVector Int(NumAttributes);
  for (size_t I = 0; I < NumOld; ++I) {
    Concept &C = Concepts[Order[I]];
    if (C.Intent.isSubsetOf(Attrs)) {
      // Modified concept: x joins the extent.
      C.Extent.set(X);
      Present.emplace(C.Intent, Order[I]);
      continue;
    }
    Int = C.Intent;
    Int &= Attrs;
    if (Present.find(Int) != Present.end())
      continue;
    // C is the generator with maximal extent for this intent (it is visited
    // first because its intent is the smallest producing Int).
    Concept N;
    N.Extent = C.Extent;
    N.Extent.set(X);
    N.Intent = Int;
    Present.emplace(N.Intent, NumOld + Created.size());
    Created.push_back(std::move(N));
  }
  for (Concept &N : Created)
    Concepts.push_back(std::move(N));
  ObjectsAdded.add();
  ConceptsCreated.add(Created.size());
}

ConceptLattice GodinBuilder::build() const {
  std::vector<Concept> Copy = Concepts;
  // With zero objects the seed concept has a zero-sized extent universe;
  // normalize so downstream code can rely on extents sized to numObjects().
  for (Concept &C : Copy)
    C.Extent.resize(NumObjects);
  return ConceptLattice::fromConcepts(std::move(Copy));
}

ConceptLattice GodinBuilder::buildLattice(const Context &Ctx) {
  TraceSpan Span("godin-build", static_cast<int64_t>(Ctx.numObjects()));
  GodinBuilder B(Ctx.numAttributes());
  // One row buffer, refilled from the row arena per object (arena tail
  // bits are zero, as BitVector's are).
  BitVector Row(Ctx.numAttributes());
  for (size_t O = 0; O < Ctx.numObjects(); ++O) {
    std::copy_n(Ctx.objectRowWords(O), Row.numWords(), Row.words());
    B.addObject(Row);
  }
  // Every extent was grown to the full object universe by the last
  // insertion (with no objects, the seed's is already empty).
  return ConceptLattice::fromConcepts(Ctx, std::move(B.Concepts));
}

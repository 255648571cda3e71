//===- concepts/BuildResult.cpp - Budgeted construction results -----------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "concepts/BuildResult.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

using namespace cable;

ConceptLattice cable::finalizeTruncatedConcepts(const Context &Ctx,
                                                std::vector<Concept> Concepts,
                                                size_t Cap) {
  // Keep the Cap most general concepts (largest extents). Deterministic:
  // stable sort by descending extent cardinality, then restore the input's
  // relative order among the survivors.
  if (Concepts.size() > Cap) {
    std::vector<size_t> Idx(Concepts.size());
    std::iota(Idx.begin(), Idx.end(), 0);
    std::vector<size_t> Card(Concepts.size());
    for (size_t I = 0; I < Concepts.size(); ++I)
      Card[I] = Concepts[I].Extent.count();
    std::stable_sort(Idx.begin(), Idx.end(),
                     [&](size_t A, size_t B) { return Card[A] > Card[B]; });
    Idx.resize(Cap);
    std::sort(Idx.begin(), Idx.end());
    std::vector<Concept> Keep;
    Keep.reserve(Cap);
    for (size_t I : Idx)
      Keep.push_back(std::move(Concepts[I]));
    Concepts = std::move(Keep);
  }

  std::unordered_set<BitVector, BitVectorHash> Extents;
  for (const Concept &C : Concepts)
    Extents.insert(C.Extent);

  // The top concept: extent = all objects (tau(sigma(G)) ⊇ G).
  BitVector AllObjects(Ctx.numObjects());
  AllObjects.setAll();
  if (!Extents.count(AllObjects)) {
    Concept Top;
    Top.Extent = AllObjects;
    Top.Intent = Ctx.sigma(AllObjects);
    Extents.insert(Top.Extent);
    Concepts.insert(Concepts.begin(), std::move(Top));
  }

  // The bottom concept: extent = tau(M), a subset of every extent because
  // tau is antitone. Its presence gives the partial order a unique minimum.
  BitVector AllAttributes(Ctx.numAttributes());
  AllAttributes.setAll();
  BitVector BottomExtent = Ctx.tau(AllAttributes);
  if (!Extents.count(BottomExtent)) {
    Concept Bottom;
    Bottom.Intent = Ctx.sigma(BottomExtent);
    Bottom.Extent = std::move(BottomExtent);
    Concepts.push_back(std::move(Bottom));
  }

  return ConceptLattice::fromConcepts(std::move(Concepts));
}

Status cable::truncationStatus(BuildStop Stop, const BudgetMeter &Meter,
                               const char *What) {
  if (Stop == BuildStop::Time)
    return Meter.stopStatus(What);
  if (Stop == BuildStop::Memory)
    return Status::error(ErrorCode::ResourceExhausted,
                         std::string(What) +
                             " ran out of memory (allocation failure "
                             "contained; a partial prefix was kept)");
  size_t Max = Meter.budget().MaxConcepts.value_or(0);
  return Status::error(ErrorCode::ResourceExhausted,
                       std::string(What) + " exceeded the concept budget (" +
                           std::to_string(Max) + " concepts)");
}

//===- concepts/Covers.cpp - Cover relation by neighbour counting ----------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "concepts/Covers.h"

#include "support/Metrics.h"
#include "support/TraceEvent.h"

#include <algorithm>
#include <bit>
#include <cassert>

using namespace cable;

namespace {

using NodeId = ConceptLattice::NodeId;
constexpr NodeId NoNode = ExtentIndex::NoNode;

Metrics::Counter &CoverClosures = Metrics::counter("lattice.cover-closures");
Metrics::Counter &CoverPruned = Metrics::counter("lattice.cover-pruned");
Metrics::Counter &CoverEdges = Metrics::counter("lattice.cover-edges");

/// Everything reused across the concepts counted.
struct Scratch {
  std::vector<uint64_t> Missing, Meet;
  /// Generators that reached each concept, nonzero only for those in Hits.
  std::vector<uint32_t> Tally;
  std::vector<NodeId> Hits, Covers;
  uint64_t Lookups = 0;
  uint64_t Pruned = 0;

  Scratch(const Context &Ctx, size_t NumConcepts)
      : Missing(BitVector(Ctx.numAttributes()).numWords()),
        Meet(BitVector(Ctx.numObjects()).numWords()), Tally(NumConcepts) {}
};

/// Shared, read-only inputs of the per-concept count.
struct CoverInputs {
  const Context &Ctx;
  const std::vector<Concept> &Concepts;
  const ExtentIndex &Index;
  const std::vector<size_t> &IntentCard;
  const std::vector<NodeId> &Rank;
  NodeId Bottom;
};

/// The lower covers of concept \p X, in scan rank.
void lowerCovers(const CoverInputs &In, NodeId X, Scratch &S,
                 std::vector<NodeId> &Out) {
  const Concept &C = In.Concepts[X];
  const size_t M = In.Ctx.numAttributes();
  const size_t IntentCard = In.IntentCard[X];
  if (IntentCard == M)
    return; // The bottom concept (every concept when M is empty).

  // Generators worth a lookup: attributes outside the intent B that some
  // object of the extent A has. Missing starts as M \ B and loses each
  // object's row; the scan stops once it is empty. An attribute left in
  // it meets A in the empty set, the bottom concept's extent.
  const size_t AttrWords = S.Missing.size(), ObjWords = S.Meet.size();
  const uint64_t *Extent = C.Extent.words(), *Intent = C.Intent.words();
  uint64_t *Missing = S.Missing.data();
  for (size_t W = 0; W < AttrWords; ++W)
    Missing[W] = ~Intent[W];
  Missing[AttrWords - 1] &= C.Intent.tailMask();
  bool Open = true;
  for (size_t EW = 0; EW < ObjWords && Open; ++EW)
    for (uint64_t Bits = Extent[EW]; Bits != 0 && Open; Bits &= Bits - 1) {
      const uint64_t *Row = In.Ctx.objectRowWords(
          EW * 64 + static_cast<size_t>(std::countr_zero(Bits)));
      uint64_t Left = 0;
      for (size_t W = 0; W < AttrWords; ++W)
        Left |= Missing[W] &= ~Row[W];
      Open = Left != 0;
    }

  // Each generator m names the concept (B ∪ {m})'' by its extent A ∩ col(m).
  S.Hits.clear();
  size_t Lookups = 0;
  uint64_t *Meet = S.Meet.data();
  for (size_t AW = 0; AW < AttrWords; ++AW) {
    uint64_t Generators = ~(Missing[AW] | Intent[AW]);
    if (AW + 1 == AttrWords)
      Generators &= C.Intent.tailMask();
    for (; Generators != 0; Generators &= Generators - 1) {
      const uint64_t *Col = In.Ctx.attributeColWords(
          AW * 64 + static_cast<size_t>(std::countr_zero(Generators)));
      uint64_t H = BitVector::HashSeed;
      for (size_t W = 0; W < ObjWords; ++W) {
        Meet[W] = Extent[W] & Col[W];
        H = BitVector::hashStep(H, Meet[W]);
      }
      ++Lookups;
      NodeId D = In.Index.find(Meet, ObjWords, BitVector::hashFinish(H));
      assert(D != NoNode && "concept set is not closed under closure");
      if (D != NoNode && S.Tally[D]++ == 0)
        S.Hits.push_back(D);
    }
  }
  const size_t Pruned = M - IntentCard - Lookups;
  S.Lookups += Lookups;
  S.Pruned += Pruned;
  if (Pruned != 0) {
    if (S.Tally[In.Bottom] == 0)
      S.Hits.push_back(In.Bottom);
    S.Tally[In.Bottom] += static_cast<uint32_t>(Pruned);
  }

  // D is a lower cover iff |D \ B| generators reached it.
  S.Covers.clear();
  for (NodeId D : S.Hits) {
    if (S.Tally[D] == In.IntentCard[D] - IntentCard)
      S.Covers.push_back(D);
    S.Tally[D] = 0;
  }
  std::sort(S.Covers.begin(), S.Covers.end(),
            [&](NodeId A, NodeId B) { return In.Rank[A] < In.Rank[B]; });
  Out.assign(S.Covers.begin(), S.Covers.end());
}

} // namespace

ExtentIndex::ExtentIndex(const std::vector<Concept> &Concepts)
    : Concepts(Concepts) {
  size_t Capacity = 2;
  while (Capacity < 2 * Concepts.size())
    Capacity *= 2;
  Shift = 64 - static_cast<unsigned>(std::countr_zero(Capacity));
  Slots.assign(Capacity, Slot{0, NoNode});
  for (NodeId Id = 0; Id < Concepts.size(); ++Id) {
    const uint64_t H = Concepts[Id].Extent.hashValue();
    const uint32_t Tag = tagOf(H);
    size_t I = H >> Shift;
    for (; Slots[I].Id != NoNode; I = (I + 1) & (Capacity - 1))
      if ((Slots[I].Tag & ~Marked) == Tag)
        Slots[I].Tag |= Marked;
    Slots[I] = Slot{Tag, Id};
  }
}

ExtentIndex::NodeId ExtentIndex::find(const BitVector &Extent) const {
  return find(Extent.words(), Extent.numWords(), Extent.hashValue());
}

ExtentIndex::NodeId ExtentIndex::find(const uint64_t *Words, size_t NumWords,
                                      uint64_t Hash) const {
  const size_t Mask = Slots.size() - 1;
  const uint32_t Tag = tagOf(Hash);
  for (size_t I = Hash >> Shift;; I = (I + 1) & Mask) {
    const Slot &S = Slots[I];
    if (S.Id == NoNode)
      return NoNode;
    if ((S.Tag & ~Marked) != Tag)
      continue;
    const BitVector &Extent = Concepts[S.Id].Extent;
    if (!(S.Tag & Marked)) {
      assert(std::equal(Words, Words + NumWords, Extent.words()) &&
             "key is not the extent of an indexed concept");
      return S.Id;
    }
    if (std::equal(Words, Words + NumWords, Extent.words()))
      return S.Id;
  }
}

CoverLists cable::computeCovers(const Context &Ctx,
                                const std::vector<Concept> &Concepts) {
  const size_t N = Concepts.size();
  TraceSpan Span("lattice-covers", static_cast<int64_t>(N));
  CoverLists Out;
  Out.Parents.resize(N);
  Out.Children.resize(N);
  if (N == 0)
    return Out;

  std::vector<size_t> Card(N), IntentCard(N);
  for (size_t I = 0; I < N; ++I) {
    Card[I] = Concepts[I].Extent.count();
    IntentCard[I] = Concepts[I].Intent.count();
  }
  std::vector<NodeId> Order = ConceptLattice::coverScanOrder(Card);
  std::vector<NodeId> Rank(N);
  for (size_t I = 0; I < N; ++I)
    Rank[Order[I]] = static_cast<NodeId>(I);
  {
    // The index and scratch go before the parent lists are filled.
    ExtentIndex Index(Concepts);
    // Extents are distinct and the bottom extent is inside all of them, so
    // the bottom concept is the unique first one in scan order.
    CoverInputs In{Ctx, Concepts, Index, IntentCard, Rank, Order[0]};
    Scratch S(Ctx, N);
    for (NodeId X = 0; X < N; ++X)
      lowerCovers(In, X, S, Out.Children[X]);
    CoverClosures.add(S.Lookups);
    CoverPruned.add(S.Pruned);
  }

  // Visiting children in scan order leaves every parent list in scan order.
  std::vector<uint32_t> NumParents(N);
  for (const std::vector<NodeId> &Children : Out.Children)
    for (NodeId Child : Children)
      ++NumParents[Child];
  for (NodeId X = 0; X < N; ++X)
    Out.Parents[X].reserve(NumParents[X]);
  size_t Edges = 0;
  for (NodeId X : Order)
    for (NodeId Child : Out.Children[X]) {
      Out.Parents[Child].push_back(X);
      ++Edges;
    }
  CoverEdges.add(Edges);
  return Out;
}

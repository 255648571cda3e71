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
#include <cassert>
#include <utility>

using namespace cable;

namespace {

using NodeId = ConceptLattice::NodeId;

Metrics::Counter &CoverClosures = Metrics::counter("lattice.cover-closures");
Metrics::Counter &CoverPruned = Metrics::counter("lattice.cover-pruned");
Metrics::Counter &CoverEdges = Metrics::counter("lattice.cover-edges");

constexpr NodeId NoNode = static_cast<NodeId>(-1);

/// Intents by hash: one sorted (hash, id) pair per concept, resolved by
/// equality against the concept vector itself, so the index holds no copy
/// of any intent.
class IntentIndex {
public:
  explicit IntentIndex(const std::vector<Concept> &Concepts)
      : Concepts(Concepts) {
    Entries.reserve(Concepts.size());
    for (NodeId Id = 0; Id < Concepts.size(); ++Id)
      Entries.emplace_back(Concepts[Id].Intent.hashValue(), Id);
    std::sort(Entries.begin(), Entries.end());
  }

  /// The concept whose intent is \p Intent, or NoNode.
  NodeId find(const BitVector &Intent) const {
    size_t Hash = Intent.hashValue();
    auto It = std::lower_bound(Entries.begin(), Entries.end(),
                               std::make_pair(Hash, NodeId(0)));
    for (; It != Entries.end() && It->first == Hash; ++It)
      if (Concepts[It->second].Intent == Intent)
        return It->second;
    return NoNode;
  }

private:
  const std::vector<Concept> &Concepts;
  std::vector<std::pair<size_t, NodeId>> Entries;
};

/// Everything reused across the concepts counted.
struct Scratch {
  BitVector Candidate, Objects, Closed, Generators;
  std::vector<NodeId> Hits;
  uint64_t Closures = 0;
  uint64_t Pruned = 0;

  explicit Scratch(const Context &Ctx)
      : Candidate(Ctx.numAttributes()), Objects(Ctx.numObjects()),
        Closed(Ctx.numAttributes()), Generators(Ctx.numAttributes()) {}
};

/// Shared, read-only inputs of the per-concept count.
struct CoverInputs {
  const Context &Ctx;
  const std::vector<Concept> &Concepts;
  const IntentIndex &Index;
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
    return; // The bottom concept.

  // Generators worth closing: attributes some object of the extent has,
  // outside the intent. The rest close to the bottom intent.
  S.Generators.resetAll();
  for (size_t G : C.Extent)
    S.Generators |= In.Ctx.objectRow(G);
  S.Generators.andNot(C.Intent);
  const size_t Pruned = M - IntentCard - S.Generators.count();
  S.Pruned += Pruned;

  S.Hits.clear();
  S.Candidate = C.Intent;
  for (size_t Attr : S.Generators) {
    S.Candidate.set(Attr);
    In.Ctx.closeIntentIntoUncounted(S.Candidate, S.Objects, S.Closed);
    S.Candidate.reset(Attr);
    NodeId D = In.Index.find(S.Closed);
    assert(D != NoNode && "concept set is not closed under closure");
    if (D != NoNode)
      S.Hits.push_back(D);
  }
  S.Closures += S.Hits.size();

  // D is a lower cover iff |D \ B| generators reached it. The bottom
  // concept also owns the pruned ones, and when every generator was
  // pruned it is the only lower cover.
  if (Pruned == M - IntentCard)
    Out.push_back(In.Bottom);
  std::sort(S.Hits.begin(), S.Hits.end());
  for (size_t I = 0; I < S.Hits.size();) {
    NodeId D = S.Hits[I];
    size_t J = I;
    while (J < S.Hits.size() && S.Hits[J] == D)
      ++J;
    size_t Count = J - I + (D == In.Bottom ? Pruned : 0);
    if (Count == In.IntentCard[D] - IntentCard)
      Out.push_back(D);
    I = J;
  }

  std::sort(Out.begin(), Out.end(),
            [&](NodeId A, NodeId B) { return In.Rank[A] < In.Rank[B]; });
}

} // namespace

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
  IntentIndex Index(Concepts);
  // Extents are distinct and the bottom extent is inside all of them, so
  // the bottom concept is the unique first one in scan order.
  CoverInputs In{Ctx, Concepts, Index, IntentCard, Rank, Order[0]};

  Scratch S(Ctx);
  for (NodeId X = 0; X < N; ++X)
    lowerCovers(In, X, S, Out.Children[X]);
  Context::countIntentClosures(S.Closures);
  CoverClosures.add(S.Closures);
  CoverPruned.add(S.Pruned);

  // Visiting children in scan order leaves every parent list in scan order.
  size_t Edges = 0;
  for (NodeId X : Order)
    for (NodeId Child : Out.Children[X]) {
      Out.Parents[Child].push_back(X);
      ++Edges;
    }
  CoverEdges.add(Edges);
  return Out;
}

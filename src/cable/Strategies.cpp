//===- cable/Strategies.cpp - Labeling strategies (§4.2) -------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "cable/Strategies.h"

#include "support/Metrics.h"
#include "support/TraceEvent.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <memory>

using namespace cable;

namespace {

using NodeId = ConceptLattice::NodeId;

Metrics::Counter &RunCalls = Metrics::counter("strategy.calls");
Metrics::Counter &RunInspections = Metrics::counter("strategy.inspections");
Metrics::Counter &RunLabelOps = Metrics::counter("strategy.label-ops");
Metrics::Counter &OptimalStates =
    Metrics::counter("strategy.optimal-states-inserted");

/// The strategy ledger: one tick per run, never per step.
StrategyCost ledger(const StrategyCost &Cost) {
  RunCalls.add();
  RunInspections.add(Cost.Inspections);
  RunLabelOps.add(Cost.LabelOps);
  return Cost;
}

/// Index of the \p K-th set bit of \p B (0-based, in index order);
/// requires K < B.count().
size_t nthSetBit(const BitVector &B, size_t K) {
  const uint64_t *Words = B.words();
  for (size_t W = 0;; ++W) {
    auto InWord = static_cast<size_t>(std::popcount(Words[W]));
    if (K < InWord) {
      uint64_t Bits = Words[W];
      for (; K > 0; --K)
        Bits &= Bits - 1;
      return W * 64 + static_cast<size_t>(std::countr_zero(Bits));
    }
    K -= InWord;
  }
}

/// The lattice's extents and the target labeling as flat rows of W words:
/// extent(Id) for every concept in node-id order, and per object the row
/// of objects that share its target label. Uniformity is then a subset
/// test against the row of the set's first object.
class FlatRows {
public:
  FlatRows(const ConceptLattice &L, const ReferenceLabeling &Target, size_t N)
      : W((N + 63) / 64) {
    Extents.reserve(L.size() * W);
    for (NodeId Id = 0; Id < L.size(); ++Id) {
      const BitVector &Extent = L.node(Id).Extent;
      Extents.insert(Extents.end(), Extent.words(), Extent.words() + W);
    }
    std::vector<BitVector> Sets;
    for (size_t Obj = 0; Obj < N; ++Obj) {
      LabelId T = Target.Target[Obj];
      if (T >= Sets.size())
        Sets.resize(T + 1, BitVector(N));
      Sets[T].set(Obj);
    }
    Agree.reserve(N * W);
    for (size_t Obj = 0; Obj < N; ++Obj) {
      const BitVector &Same = Sets[Target.Target[Obj]];
      Agree.insert(Agree.end(), Same.words(), Same.words() + W);
    }
  }

  size_t words() const { return W; }
  const uint64_t *extent(NodeId Id) const { return Extents.data() + Id * W; }

  /// The first object of the W-word set \p U when U is nonempty and all
  /// its objects share a target label; npos otherwise.
  size_t uniformFirst(const uint64_t *U) const {
    size_t I = 0;
    while (I < W && U[I] == 0)
      ++I;
    if (I == W)
      return BitVector::npos;
    size_t First = I * 64 + static_cast<size_t>(std::countr_zero(U[I]));
    const uint64_t *Same = Agree.data() + First * W;
    for (; I < W; ++I)
      if (U[I] & ~Same[I])
        return BitVector::npos;
    return First;
  }

private:
  size_t W;
  std::vector<uint64_t> Extents;
  std::vector<uint64_t> Agree;
};

/// One strategy run's view of the label state. Strategies only ever label
/// unlabeled traces, so within a run labels grow: a concept, once fully
/// labeled, stays so. The not-fully-labeled concepts (Open) are therefore
/// kept incrementally: after a label command only open concepts are
/// revisited, and an open one completes exactly when its extent is now
/// covered, that is, when the command labeled all it had left.
class RunState {
public:
  RunState(Session &S, const ReferenceLabeling &Target)
      : S(S), L(S.lattice()), Target(Target),
        Rows(L, Target, S.numObjects()), Open(L.size()),
        Unlabeled(Rows.words()) {
    S.clearLabels();
    for (NodeId Id = 0; Id < L.size(); ++Id)
      if (L.node(Id).Extent.any()) {
        Open.set(Id);
        ++NumOpen;
      }
  }

  /// The concepts with unlabeled traces, and how many there are.
  const BitVector &open() const { return Open; }
  bool isOpen(NodeId Id) const { return Open.test(Id); }
  size_t numOpen() const { return NumOpen; }

  /// True if \p Objects is nonempty and its objects share a target label.
  bool uniform(const BitVector &Objects) const {
    return Rows.uniformFirst(Objects.words()) != BitVector::npos;
  }

  /// Inspects \p Id (one operation) under the canonical strategy rule: if
  /// its unlabeled traces all share a target label, one label command
  /// applies it. Returns true if a label command was issued; completed()
  /// then lists the concepts it fully labeled.
  bool inspect(NodeId Id) {
    ++Cost.Inspections;
    size_t W = Rows.words();
    const uint64_t *Extent = Rows.extent(Id);
    const uint64_t *Labeled = S.labeledObjects().words();
    for (size_t I = 0; I < W; ++I)
      Unlabeled[I] = Extent[I] & ~Labeled[I];
    size_t First = Rows.uniformFirst(Unlabeled.data());
    if (First == BitVector::npos)
      return false;
    S.labelTraces(Id, TraceSelect::Unlabeled, Target.Target[First]);
    ++Cost.LabelOps;

    Completed.clear();
    uint64_t *OpenWords = Open.words();
    for (size_t OW = 0; OW < Open.numWords(); ++OW)
      for (uint64_t Bits = OpenWords[OW]; Bits; Bits &= Bits - 1) {
        auto C = static_cast<NodeId>(OW * 64 + std::countr_zero(Bits));
        if (covered(Rows.extent(C), Labeled)) {
          OpenWords[OW] &= ~(uint64_t(1) << C % 64);
          --NumOpen;
          Completed.push_back(C);
        }
      }
    return true;
  }

  /// The concepts the last successful inspect() fully labeled.
  const std::vector<NodeId> &completed() const { return Completed; }

  Session &S;
  const ConceptLattice &L;
  StrategyCost Cost;

private:
  bool covered(const uint64_t *Extent, const uint64_t *Labeled) const {
    uint64_t Left = 0;
    for (size_t I = 0; I < Rows.words(); ++I)
      Left |= Extent[I] & ~Labeled[I];
    return Left == 0;
  }

  const ReferenceLabeling &Target;
  FlatRows Rows;
  BitVector Open;
  size_t NumOpen = 0;
  /// Scratch: the unlabeled traces of the concept being inspected.
  std::vector<uint64_t> Unlabeled;
  std::vector<NodeId> Completed;
};

StrategyCost runTopDown(Session &S, const ReferenceLabeling &Target,
                        std::optional<RNG> &Rand) {
  RunState RS(S, Target);
  const ConceptLattice &L = S.lattice();
  std::vector<char> Enqueued(L.size());
  std::vector<NodeId> Queue, Shuffled;

  for (;;) {
    if (S.allLabeled()) {
      RS.Cost.Finished = true;
      return RS.Cost;
    }
    // One breadth-first traversal from the top over concepts that still
    // have unlabeled traces. Sibling order is the strategy's
    // nondeterministic choice; shuffle it when randomized.
    bool Progress = false;
    std::fill(Enqueued.begin(), Enqueued.end(), 0);
    Queue.assign(1, L.top());
    Enqueued[L.top()] = 1;
    for (size_t Head = 0; Head < Queue.size(); ++Head) {
      NodeId Id = Queue[Head];
      if (RS.isOpen(Id) && RS.inspect(Id))
        Progress = true;
      const std::vector<NodeId> *Children = &L.children(Id);
      if (Rand) {
        Shuffled = *Children;
        Rand->shuffle(Shuffled);
        Children = &Shuffled;
      }
      for (NodeId C : *Children)
        if (!Enqueued[C] && RS.isOpen(C)) {
          Enqueued[C] = 1;
          Queue.push_back(C);
        }
    }
    if (!Progress)
      return RS.Cost; // Ill-formed for this labeling; unfinished.
  }
}

} // namespace

StrategyCost TopDownStrategy::run(Session &S,
                                  const ReferenceLabeling &Target) {
  TraceSpan Span("strategy-top-down");
  return ledger(runTopDown(S, Target, Rand));
}

StrategyCost BottomUpStrategy::run(Session &S,
                                   const ReferenceLabeling &Target) {
  TraceSpan Span("strategy-bottom-up");
  RunState RS(S, Target);
  const ConceptLattice &L = S.lattice();

  // Ready concepts: open, with every child fully labeled. Pending counts
  // each concept's open children; a completion can only make parents
  // ready.
  std::vector<uint32_t> Pending(L.size());
  BitVector Ready(L.size());
  size_t NumReady = 0;
  for (NodeId Id = 0; Id < L.size(); ++Id) {
    for (NodeId C : L.children(Id))
      Pending[Id] += RS.isOpen(C);
    if (RS.isOpen(Id) && Pending[Id] == 0) {
      Ready.set(Id);
      ++NumReady;
    }
  }

  while (!S.allLabeled()) {
    if (NumReady == 0)
      return ledger(RS.Cost); // Unreachable in a finite lattice.
    // The pick among ready concepts, in node-id order, is the strategy's
    // nondeterministic choice.
    auto Next = static_cast<NodeId>(
        Rand ? nthSetBit(Ready, Rand->nextIndex(NumReady)) : Ready.findFirst());
    if (!RS.inspect(Next))
      return ledger(RS.Cost); // Mixed leaves: ill-formed for this labeling.
    for (NodeId C : RS.completed())
      if (Ready.test(C)) {
        Ready.reset(C);
        --NumReady;
      }
    for (NodeId C : RS.completed())
      for (NodeId P : L.parents(C))
        if (--Pending[P] == 0 && RS.isOpen(P)) {
          Ready.set(P);
          ++NumReady;
        }
  }
  RS.Cost.Finished = true;
  return ledger(RS.Cost);
}

StrategyCost RandomStrategy::run(Session &S, const ReferenceLabeling &Target) {
  TraceSpan Span("strategy-random");
  RunState RS(S, Target);
  const ConceptLattice &L = S.lattice();

  // The pick is the k-th open concept in node-id order, so the RNG is
  // drawn exactly as by a rescan of the whole lattice.
  size_t SinceLastLabel = 0;
  while (!S.allLabeled()) {
    auto Pick = static_cast<NodeId>(
        nthSetBit(RS.open(), Rand.nextIndex(RS.numOpen())));
    if (RS.inspect(Pick)) {
      SinceLastLabel = 0;
    } else if (++SinceLastLabel > 4 * L.size() + 64) {
      return ledger(RS.Cost); // No labelable concept seems to exist.
    }
  }
  RS.Cost.Finished = true;
  return ledger(RS.Cost);
}

namespace {

/// The Optimal search's state store: fixed-width rows of W words (one
/// labeled-object bitset each), appended in insertion order, so the rows
/// are also the breadth-first queue. Rows live in fixed-size blocks: the
/// store grows without copying, and a large search leaves no large freed
/// buffers behind. An open-addressing table indexes the rows; a slot holds
/// a row number and the high half of the row's hash, so a probe reads a
/// row only when the halves match.
class StateArena {
public:
  explicit StateArena(size_t W) : W(W), Slots(1024, Empty) {}

  size_t size() const { return NumRows; }
  const uint64_t *row(size_t R) const {
    return Blocks[R / BlockRows].get() + R % BlockRows * W;
  }

  uint64_t hash(const uint64_t *Row) const {
    uint64_t H = 0x9E3779B97F4A7C15ULL;
    for (size_t I = 0; I < W; ++I) {
      H ^= Row[I];
      H *= 0xFF51AFD7ED558CCDULL;
      H ^= H >> 32;
    }
    return H;
  }

  /// Starts loading the first slot a row with hash \p H probes.
  void prefetch(uint64_t H) const {
    __builtin_prefetch(&Slots[H & (Slots.size() - 1)]);
  }

  /// Appends \p Row (hash \p H) unless an equal row exists; returns true
  /// when it was new.
  bool insert(const uint64_t *Row, uint64_t H) {
    assert(NumRows < RowMask && "row numbers must fit a slot's low half");
    if (2 * (NumRows + 1) > Slots.size())
      grow();
    uint64_t Tag = H & ~RowMask;
    for (size_t Mask = Slots.size() - 1, I = H & Mask;; I = (I + 1) & Mask) {
      uint64_t Slot = Slots[I];
      if (Slot == Empty) {
        if (NumRows % BlockRows == 0)
          Blocks.push_back(std::make_unique<uint64_t[]>(BlockRows * W));
        std::copy_n(Row, W, Blocks.back().get() + NumRows % BlockRows * W);
        Slots[I] = Tag | NumRows++;
        return true;
      }
      if ((Slot & ~RowMask) == Tag &&
          std::equal(Row, Row + W, row(Slot & RowMask)))
        return false;
    }
  }

private:
  static constexpr size_t BlockRows = 4096;
  static constexpr uint64_t RowMask = 0xFFFFFFFF;
  static constexpr uint64_t Empty = ~uint64_t(0);

  void grow() {
    Slots.assign(Slots.size() * 2, Empty);
    size_t Mask = Slots.size() - 1;
    for (size_t R = 0; R < NumRows; ++R) {
      uint64_t H = hash(row(R));
      size_t I = H & Mask;
      while (Slots[I] != Empty)
        I = (I + 1) & Mask;
      Slots[I] = (H & ~RowMask) | R;
    }
  }

  size_t W;
  size_t NumRows = 0;
  std::vector<std::unique_ptr<uint64_t[]>> Blocks;
  std::vector<uint64_t> Slots;
};

} // namespace

StrategyCost OptimalStrategy::run(Session &S,
                                  const ReferenceLabeling &Target) {
  TraceSpan Span("strategy-optimal");
  S.clearLabels();
  StrategyCost Cost;
  const ConceptLattice &L = S.lattice();
  size_t N = S.numObjects();

  // Breadth-first search over labeled-object sets. Every useful move
  // (inspect a concept whose unlabeled traces agree, then label) costs 2;
  // inspecting without labeling can never help a perfectly informed
  // strategy, so moves are exactly the labelable concepts.
  if (N == 0) {
    Cost.Finished = true;
    return ledger(Cost);
  }
  FlatRows Rows(L, Target, N);
  size_t W = Rows.words();
  uint64_t TailMask = N % 64 == 0 ? ~uint64_t(0) : (uint64_t(1) << N % 64) - 1;

  StateArena States(W);
  std::vector<uint64_t> Cur(W, 0), U(W);
  States.insert(Cur.data(), States.hash(Cur.data()));
  auto Finish = [&](StrategyCost Out) {
    OptimalStates.add(States.size());
    return ledger(Out);
  };

  // One state's successors, in node-id order of their moves. Rows are
  // inserted level by level, so a state's move count is the number of
  // level ends the queue has passed.
  std::vector<uint64_t> Succ(L.size() * W), Hashes(L.size());
  size_t Depth = 0, LevelEnd = 1;
  for (size_t Head = 0; Head < States.size(); ++Head) {
    if (Head == LevelEnd) {
      ++Depth;
      LevelEnd = States.size();
    }
    std::copy_n(States.row(Head), W, Cur.data());
    bool Goal = Cur[W - 1] == TailMask;
    for (size_t I = 0; Goal && I + 1 < W; ++I)
      Goal = Cur[I] == ~uint64_t(0);
    if (Goal) {
      Cost.Inspections = Depth;
      Cost.LabelOps = Depth;
      Cost.Finished = true;
      // Leave the session labeled per the target.
      for (size_t Obj = 0; Obj < N; ++Obj)
        S.setLabel(Obj, Target.Target[Obj]);
      return Finish(Cost);
    }
    // A move labels a concept's unlabeled objects when there are some and
    // they share a target label. All successors are generated first, so
    // their index slots load together, then inserted in move order.
    size_t K = 0;
    for (NodeId Id = 0; Id < L.size(); ++Id) {
      const uint64_t *Extent = Rows.extent(Id);
      for (size_t I = 0; I < W; ++I)
        U[I] = Extent[I] & ~Cur[I];
      if (Rows.uniformFirst(U.data()) == BitVector::npos)
        continue;
      uint64_t *Next = Succ.data() + K * W;
      for (size_t I = 0; I < W; ++I)
        Next[I] = Cur[I] | Extent[I];
      Hashes[K] = States.hash(Next);
      States.prefetch(Hashes[K++]);
    }
    // The cap counts inserted states, so a capped search stops at the
    // same state however the store is laid out.
    for (size_t J = 0; J < K; ++J)
      if (States.insert(Succ.data() + J * W, Hashes[J]) &&
          States.size() > StateCap)
        return Finish(Cost); // Cap hit: unfinished, like the paper's tool.
  }
  return Finish(Cost); // No sequence reaches the goal: ill-formed lattice.
}

StrategyCost ExpertSimStrategy::run(Session &S,
                                    const ReferenceLabeling &Target) {
  TraceSpan Span("strategy-expert");
  RunState RS(S, Target);
  const ConceptLattice &L = S.lattice();
  std::vector<bool> Visited(L.size(), false);

  // Depth-first descent from a concept: label it if its unlabeled traces
  // agree; otherwise recurse into its most promising children and sweep up
  // the remainder (the §2.1 workflow: label `popen && pclose` below, then
  // revisit the `popen` concept for the leftovers).
  auto Visit = [&](auto &&Self, NodeId Id) -> void {
    if (Visited[Id] || !RS.isOpen(Id))
      return;
    Visited[Id] = true;
    bool BigDecision =
        S.selectObjects(Id, TraceSelect::Unlabeled).count() > 4;
    if (RS.inspect(Id)) {
      // §4.2: "even when all of a concept's traces should receive the
      // same label, the user might need to inspect the concept's
      // subconcepts to convince himself of that fact." Charge those
      // confidence inspections when the en-masse decision is large.
      if (BigDecision) {
        size_t Checked = 0;
        for (NodeId C : L.children(Id)) {
          if (Checked == 2)
            break;
          if (L.node(C).Extent.any()) {
            ++RS.Cost.Inspections;
            ++Checked;
          }
        }
      }
      return;
    }

    // Mixed concept: order children by the expert's interest — label-pure
    // children first (their intents carry the discriminating transitions),
    // bigger unlabeled sets first within a purity class.
    std::vector<std::pair<NodeId, std::pair<int, size_t>>> Ranked;
    for (NodeId C : L.children(Id)) {
      BitVector U = S.selectObjects(C, TraceSelect::Unlabeled);
      if (U.none())
        continue;
      int Pure = RS.uniform(U) ? 0 : 1;
      Ranked.push_back({C, {Pure, U.count()}});
    }
    std::sort(Ranked.begin(), Ranked.end(), [](const auto &A, const auto &B) {
      if (A.second.first != B.second.first)
        return A.second.first < B.second.first;
      if (A.second.second != B.second.second)
        return A.second.second > B.second.second;
      return A.first < B.first;
    });
    for (const auto &[C, Rank] : Ranked) {
      // Stop descending once the remainder up here is already decidable.
      BitVector U = S.selectObjects(Id, TraceSelect::Unlabeled);
      if (U.none() || RS.uniform(U))
        break;
      Self(Self, C);
    }

    // Revisit and sweep the remainder.
    if (RS.isOpen(Id))
      RS.inspect(Id);
  };

  Visit(Visit, L.top());
  RS.Cost.Finished = S.allLabeled();
  return ledger(RS.Cost);
}

StrategyCost BaselineMethod::run(Session &S, const ReferenceLabeling &Target) {
  TraceSpan Span("strategy-baseline");
  S.clearLabels();
  StrategyCost Cost;
  // Two operations per class of identical traces: look at it, label it.
  Cost.Inspections = S.numObjects();
  Cost.LabelOps = S.numObjects();
  for (size_t Obj = 0; Obj < S.numObjects(); ++Obj)
    S.setLabel(Obj, Target.Target[Obj]);
  Cost.Finished = true;
  return ledger(Cost);
}

StrategyCost HandLabelFallbackStrategy::run(Session &S,
                                            const ReferenceLabeling &Target) {
  TraceSpan Span("strategy-hand-fallback");
  std::optional<RNG> NoRand;
  StrategyCost Cost = runTopDown(S, Target, NoRand);
  if (Cost.Finished)
    return ledger(Cost);
  // Hand-label what the lattice could not separate.
  for (size_t Obj : S.unlabeledObjects()) {
    ++Cost.Inspections;
    ++Cost.LabelOps;
    S.setLabel(Obj, Target.Target[Obj]);
  }
  Cost.Finished = true;
  return ledger(Cost);
}

RandomSummary cable::measureRandomMean(Session &S,
                                       const ReferenceLabeling &Target,
                                       size_t NumTrials, uint64_t Seed) {
  RandomSummary Out;
  RNG Root(Seed);
  double Total = 0;
  for (size_t Trial = 0; Trial < NumTrials; ++Trial) {
    RandomStrategy R(Root.fork());
    StrategyCost Cost = R.run(S, Target);
    if (!Cost.Finished)
      return RandomSummary{0, false};
    Total += static_cast<double>(Cost.total());
  }
  Out.MeanTotal = NumTrials == 0 ? 0 : Total / static_cast<double>(NumTrials);
  Out.Finished = true;
  return Out;
}

LowestSummary cable::measureLowestCost(
    Session &S, const ReferenceLabeling &Target, size_t NumTrials,
    uint64_t Seed,
    const std::function<std::unique_ptr<Strategy>(RNG)> &Make) {
  LowestSummary Out;
  RNG Root(Seed);
  for (size_t Trial = 0; Trial < NumTrials; ++Trial) {
    std::unique_ptr<Strategy> Strat = Make(Root.fork());
    StrategyCost Cost = Strat->run(S, Target);
    if (!Cost.Finished)
      continue;
    if (!Out.Finished || Cost.total() < Out.LowestTotal)
      Out.LowestTotal = Cost.total();
    Out.Finished = true;
  }
  return Out;
}

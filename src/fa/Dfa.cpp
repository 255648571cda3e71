//===- fa/Dfa.cpp - Deterministic automata over a finite alphabet ---------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "fa/Dfa.h"

#include "support/Metrics.h"
#include "support/TraceEvent.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <map>
#include <unordered_map>
#include <unordered_set>

using namespace cable;

namespace {

/// The minimization ledger: one tick per minimized() call.
Metrics::Counter &MinimizeCalls = Metrics::counter("fa.minimize-calls");
Metrics::Counter &MinimizeStatesIn = Metrics::counter("fa.minimize-states-in");
Metrics::Counter &MinimizeStatesOut =
    Metrics::counter("fa.minimize-states-out");

} // namespace

std::vector<EventId> cable::collectAlphabet(const std::vector<Trace> &Traces) {
  std::vector<EventId> Alphabet;
  std::unordered_set<EventId> Seen;
  for (const Trace &T : Traces)
    for (EventId E : T.events())
      if (Seen.insert(E).second)
        Alphabet.push_back(E);
  return Alphabet;
}

size_t Dfa::symbolIndex(EventId E) const {
  for (size_t I = 0; I < Alphabet.size(); ++I)
    if (Alphabet[I] == E)
      return I;
  return static_cast<size_t>(-1);
}

Dfa Dfa::determinize(const Automaton &NFA, const std::vector<EventId> &Alphabet,
                     const EventTable &Table) {
  Dfa Out;
  Out.Alphabet = Alphabet;

  // Map from NFA state set to DFA state id.
  std::unordered_map<BitVector, StateId, BitVectorHash> StateIds;
  std::vector<BitVector> Sets;

  auto GetState = [&](const BitVector &Set) -> StateId {
    auto It = StateIds.find(Set);
    if (It != StateIds.end())
      return It->second;
    StateId Id = static_cast<StateId>(Sets.size());
    StateIds.emplace(Set, Id);
    Sets.push_back(Set);
    bool Accept = false;
    for (size_t S : Set)
      if (NFA.isAccepting(static_cast<StateId>(S)))
        Accept = true;
    Out.Accepting.push_back(Accept);
    Out.Delta.emplace_back(Alphabet.size(), 0);
    return Id;
  };

  Out.Start = GetState(NFA.startSet());
  for (StateId D = 0; D < Sets.size(); ++D) {
    // Sets may grow while we iterate; index, don't hold references.
    for (size_t A = 0; A < Alphabet.size(); ++A) {
      const Event &E = Table.event(Alphabet[A]);
      BitVector Next(NFA.numStates());
      BitVector Cur = Sets[D];
      for (size_t S : Cur)
        for (TransitionId TI : NFA.outgoing(static_cast<StateId>(S))) {
          const Transition &Tr = NFA.transition(TI);
          if (Tr.Label.matches(E))
            Next.set(Tr.To);
        }
      Out.Delta[D][A] = GetState(Next);
    }
  }
  return Out;
}

bool Dfa::accepts(const Trace &T) const {
  StateId S = Start;
  for (EventId E : T.events()) {
    size_t A = symbolIndex(E);
    if (A == static_cast<size_t>(-1))
      return false;
    S = Delta[S][A];
  }
  return Accepting[S];
}

Dfa Dfa::trimUnreachable() const {
  size_t M = Alphabet.size();
  std::vector<bool> Seen(numStates(), false);
  std::vector<StateId> Stack{Start};
  Seen[Start] = true;
  while (!Stack.empty()) {
    StateId S = Stack.back();
    Stack.pop_back();
    for (size_t A = 0; A < M; ++A)
      if (!Seen[Delta[S][A]]) {
        Seen[Delta[S][A]] = true;
        Stack.push_back(Delta[S][A]);
      }
  }
  std::vector<StateId> Remap(numStates(), 0);
  Dfa Out;
  Out.Alphabet = Alphabet;
  for (size_t S = 0; S < numStates(); ++S)
    if (Seen[S]) {
      Remap[S] = static_cast<StateId>(Out.Accepting.size());
      Out.Accepting.push_back(Accepting[S]);
    }
  Out.Delta.assign(Out.Accepting.size(), std::vector<StateId>(M, 0));
  for (size_t S = 0; S < numStates(); ++S) {
    if (!Seen[S])
      continue;
    for (size_t A = 0; A < M; ++A)
      Out.Delta[Remap[S]][A] = Remap[Delta[S][A]];
  }
  Out.Start = Remap[Start];
  return Out;
}

Dfa Dfa::minimized() const {
  TraceSpan Span("fa-minimize", static_cast<int64_t>(numStates()));
  MinimizeCalls.add();
  MinimizeStatesIn.add(numStates());
  // Refine only the reachable part; unreachable states (from product
  // constructions) must not survive into the "minimal" DFA. Trimming keeps
  // the order of the states it keeps.
  const Dfa R = trimUnreachable();
  size_t N = R.numStates();
  // Moore refinement: start from the accepting/rejecting split and refine
  // by successor blocks until stable.
  std::vector<uint32_t> Block(N);
  for (size_t S = 0; S < N; ++S)
    Block[S] = R.Accepting[S] ? 1 : 0;
  size_t NumBlocks = 2;

  for (;;) {
    // Signature of a state: its block plus the blocks of its successors.
    std::map<std::vector<uint32_t>, uint32_t> SigIds;
    std::vector<uint32_t> NewBlock(N);
    for (size_t S = 0; S < N; ++S) {
      std::vector<uint32_t> Sig;
      Sig.reserve(Alphabet.size() + 1);
      Sig.push_back(Block[S]);
      for (size_t A = 0; A < Alphabet.size(); ++A)
        Sig.push_back(Block[R.Delta[S][A]]);
      auto [It, Inserted] =
          SigIds.emplace(std::move(Sig), static_cast<uint32_t>(SigIds.size()));
      (void)Inserted;
      NewBlock[S] = It->second;
    }
    if (SigIds.size() == NumBlocks) {
      Block = std::move(NewBlock);
      break;
    }
    NumBlocks = SigIds.size();
    Block = std::move(NewBlock);
  }

  Dfa Out;
  Out.Alphabet = Alphabet;
  Out.Accepting.assign(NumBlocks, false);
  Out.Delta.assign(NumBlocks, std::vector<StateId>(Alphabet.size(), 0));
  for (size_t S = 0; S < N; ++S) {
    Out.Accepting[Block[S]] = R.Accepting[S];
    for (size_t A = 0; A < Alphabet.size(); ++A)
      Out.Delta[Block[S]][A] = Block[R.Delta[S][A]];
  }
  Out.Start = Block[R.Start];
  MinimizeStatesOut.add(Out.numStates());
  return Out;
}

Dfa Dfa::minimizedHopcroft() const {
  TraceSpan Span("fa-minimize", static_cast<int64_t>(numStates()));
  MinimizeCalls.add();
  MinimizeStatesIn.add(numStates());
  size_t N = numStates();
  size_t M = Alphabet.size();

  // Inverse transition lists per symbol.
  std::vector<std::vector<std::vector<StateId>>> Preds(
      M, std::vector<std::vector<StateId>>(N));
  for (StateId S = 0; S < N; ++S)
    for (size_t A = 0; A < M; ++A)
      Preds[A][Delta[S][A]].push_back(S);

  // Partition: block id per state, member lists per block.
  std::vector<uint32_t> BlockOf(N);
  std::vector<std::vector<StateId>> Members;
  {
    std::vector<StateId> Acc, Rej;
    for (StateId S = 0; S < N; ++S)
      (Accepting[S] ? Acc : Rej).push_back(S);
    if (!Rej.empty()) {
      for (StateId S : Rej)
        BlockOf[S] = static_cast<uint32_t>(Members.size());
      Members.push_back(std::move(Rej));
    }
    if (!Acc.empty()) {
      for (StateId S : Acc)
        BlockOf[S] = static_cast<uint32_t>(Members.size());
      Members.push_back(std::move(Acc));
    }
  }

  // Worklist of splitter blocks (by id). Seeding with every initial block
  // is correct (the "smaller half" rule is only an optimization).
  std::vector<uint32_t> Worklist;
  for (uint32_t B = 0; B < Members.size(); ++B)
    Worklist.push_back(B);

  std::vector<size_t> TouchCount(Members.size(), 0);
  while (!Worklist.empty()) {
    uint32_t Splitter = Worklist.back();
    Worklist.pop_back();
    // Copy: Members may be reallocated during splitting.
    std::vector<StateId> SplitterStates = Members[Splitter];
    for (size_t A = 0; A < M; ++A) {
      // X = states leading into the splitter on symbol A.
      std::vector<StateId> X;
      for (StateId T : SplitterStates)
        for (StateId P : Preds[A][T])
          X.push_back(P);
      if (X.empty())
        continue;
      // Count touched states per block.
      TouchCount.assign(Members.size(), 0);
      for (StateId P : X)
        ++TouchCount[BlockOf[P]];
      // Deduplicate X per block is unnecessary: Preds lists are disjoint
      // over T for a fixed A since Delta is a function.
      std::vector<uint32_t> ToSplit;
      for (StateId P : X) {
        uint32_t B = BlockOf[P];
        if (TouchCount[B] != 0 && TouchCount[B] < Members[B].size())
          ToSplit.push_back(B);
      }
      std::sort(ToSplit.begin(), ToSplit.end());
      ToSplit.erase(std::unique(ToSplit.begin(), ToSplit.end()),
                    ToSplit.end());
      if (ToSplit.empty())
        continue;
      std::vector<bool> InX(N, false);
      for (StateId P : X)
        InX[P] = true;
      for (uint32_t B : ToSplit) {
        std::vector<StateId> Inside, Outside;
        for (StateId S : Members[B])
          (InX[S] ? Inside : Outside).push_back(S);
        uint32_t NewId = static_cast<uint32_t>(Members.size());
        // Keep the larger part in B, move the smaller to a new block,
        // and enqueue the smaller one (classic Hopcroft rule; enqueueing
        // B as well when it was pending keeps correctness trivial).
        std::vector<StateId> &Smaller =
            Inside.size() <= Outside.size() ? Inside : Outside;
        std::vector<StateId> &Larger =
            Inside.size() <= Outside.size() ? Outside : Inside;
        for (StateId S : Smaller)
          BlockOf[S] = NewId;
        Members[B] = std::move(Larger);
        Members.push_back(std::move(Smaller));
        TouchCount.push_back(0);
        Worklist.push_back(NewId);
        Worklist.push_back(B);
      }
    }
  }

  Dfa Out;
  Out.Alphabet = Alphabet;
  Out.Accepting.assign(Members.size(), false);
  Out.Delta.assign(Members.size(), std::vector<StateId>(M, 0));
  for (StateId S = 0; S < N; ++S) {
    Out.Accepting[BlockOf[S]] = Accepting[S];
    for (size_t A = 0; A < M; ++A)
      Out.Delta[BlockOf[S]][A] = BlockOf[Delta[S][A]];
  }
  Out.Start = BlockOf[Start];

  // Drop blocks unreachable from the start (Hopcroft refines the whole
  // state set, including states nothing can reach).
  Dfa Min = Out.trimUnreachable();
  MinimizeStatesOut.add(Min.numStates());
  return Min;
}

Dfa Dfa::minimizeBrzozowski(const Automaton &NFA,
                            const std::vector<EventId> &Alphabet,
                            const EventTable &Table) {
  // det(rev(det(rev(A)))) yields the minimal accessible DFA.
  Automaton R1 = NFA.reversed();
  Dfa D1 = determinize(R1, Alphabet, Table);
  Automaton A1 = D1.toAutomaton(Table);
  Automaton R2 = A1.reversed();
  return determinize(R2, Alphabet, Table);
}

Dfa Dfa::complemented() const {
  Dfa Out = *this;
  for (size_t S = 0; S < Out.Accepting.size(); ++S)
    Out.Accepting[S] = !Out.Accepting[S];
  return Out;
}

Dfa Dfa::product(const Dfa &A, const Dfa &B, bool WantUnion) {
  assert(A.Alphabet == B.Alphabet && "product requires matching alphabets");
  Dfa Out;
  Out.Alphabet = A.Alphabet;
  size_t NB = B.numStates();
  auto Pair = [NB](StateId X, StateId Y) {
    return static_cast<StateId>(X * NB + Y);
  };
  size_t N = A.numStates() * NB;
  Out.Accepting.assign(N, false);
  Out.Delta.assign(N, std::vector<StateId>(Out.Alphabet.size(), 0));
  for (StateId X = 0; X < A.numStates(); ++X)
    for (StateId Y = 0; Y < NB; ++Y) {
      StateId P = Pair(X, Y);
      Out.Accepting[P] = WantUnion
                             ? (A.Accepting[X] || B.Accepting[Y])
                             : (A.Accepting[X] && B.Accepting[Y]);
      for (size_t S = 0; S < Out.Alphabet.size(); ++S)
        Out.Delta[P][S] = Pair(A.Delta[X][S], B.Delta[Y][S]);
    }
  Out.Start = Pair(A.Start, B.Start);
  return Out;
}

bool Dfa::equivalent(const Dfa &A, const Dfa &B) {
  assert(A.Alphabet == B.Alphabet &&
         "equivalence requires matching alphabets");
  // BFS over the pair graph looking for an acceptance mismatch.
  std::unordered_set<uint64_t> Seen;
  std::vector<std::pair<StateId, StateId>> Worklist;
  auto Push = [&](StateId X, StateId Y) {
    uint64_t Key = (static_cast<uint64_t>(X) << 32) | Y;
    if (Seen.insert(Key).second)
      Worklist.emplace_back(X, Y);
  };
  Push(A.Start, B.Start);
  while (!Worklist.empty()) {
    auto [X, Y] = Worklist.back();
    Worklist.pop_back();
    if (A.Accepting[X] != B.Accepting[Y])
      return false;
    for (size_t S = 0; S < A.Alphabet.size(); ++S)
      Push(A.Delta[X][S], B.Delta[Y][S]);
  }
  return true;
}

std::optional<Trace> Dfa::shortestDifference(const Dfa &A, const Dfa &B) {
  assert(A.Alphabet == B.Alphabet &&
         "difference witness requires matching alphabets");
  // BFS over pair states, remembering how each pair was reached.
  struct Step {
    uint64_t FromKey = 0;
    size_t Symbol = 0;
  };
  auto Key = [](StateId X, StateId Y) {
    return (static_cast<uint64_t>(X) << 32) | Y;
  };
  std::unordered_map<uint64_t, Step> Parent;
  std::deque<std::pair<StateId, StateId>> Queue;
  uint64_t StartKey = Key(A.Start, B.Start);
  Parent.emplace(StartKey, Step{StartKey, 0});
  Queue.emplace_back(A.Start, B.Start);

  while (!Queue.empty()) {
    auto [X, Y] = Queue.front();
    Queue.pop_front();
    if (A.Accepting[X] != B.Accepting[Y]) {
      // Reconstruct the symbol path back to the start.
      std::vector<EventId> Events;
      uint64_t Cur = Key(X, Y);
      while (Cur != StartKey) {
        const Step &S = Parent.at(Cur);
        Events.push_back(A.Alphabet[S.Symbol]);
        Cur = S.FromKey;
      }
      std::reverse(Events.begin(), Events.end());
      return Trace(std::move(Events));
    }
    for (size_t Sym = 0; Sym < A.Alphabet.size(); ++Sym) {
      StateId NX = A.Delta[X][Sym];
      StateId NY = B.Delta[Y][Sym];
      uint64_t K = Key(NX, NY);
      if (Parent.emplace(K, Step{Key(X, Y), Sym}).second)
        Queue.emplace_back(NX, NY);
    }
  }
  return std::nullopt;
}

bool Dfa::subsetOf(const Dfa &A, const Dfa &B) {
  // A ⊆ B iff A ∩ ¬B is empty.
  return product(A, B.complemented(), /*WantUnion=*/false).isEmpty();
}

bool Dfa::isEmpty() const {
  // BFS from the start; accepting state reachable => nonempty.
  std::vector<bool> Seen(numStates(), false);
  std::vector<StateId> Worklist{Start};
  Seen[Start] = true;
  while (!Worklist.empty()) {
    StateId S = Worklist.back();
    Worklist.pop_back();
    if (Accepting[S])
      return false;
    for (size_t A = 0; A < Alphabet.size(); ++A) {
      StateId To = Delta[S][A];
      if (!Seen[To]) {
        Seen[To] = true;
        Worklist.push_back(To);
      }
    }
  }
  return true;
}

BitVector Dfa::liveStates() const {
  // Live = reachable from start AND co-reachable to an accepting state.
  size_t N = numStates();
  BitVector Reach(N);
  {
    std::vector<StateId> Worklist{Start};
    Reach.set(Start);
    while (!Worklist.empty()) {
      StateId S = Worklist.back();
      Worklist.pop_back();
      for (size_t A = 0; A < Alphabet.size(); ++A) {
        StateId To = Delta[S][A];
        if (!Reach.test(To)) {
          Reach.set(To);
          Worklist.push_back(To);
        }
      }
    }
  }
  BitVector CoReach(N);
  {
    // Reverse edges once.
    std::vector<std::vector<StateId>> Rev(N);
    for (StateId S = 0; S < N; ++S)
      for (size_t A = 0; A < Alphabet.size(); ++A)
        Rev[Delta[S][A]].push_back(S);
    std::vector<StateId> Worklist;
    for (StateId S = 0; S < N; ++S)
      if (Accepting[S]) {
        CoReach.set(S);
        Worklist.push_back(S);
      }
    while (!Worklist.empty()) {
      StateId S = Worklist.back();
      Worklist.pop_back();
      for (StateId From : Rev[S])
        if (!CoReach.test(From)) {
          CoReach.set(From);
          Worklist.push_back(From);
        }
    }
  }
  Reach &= CoReach;
  return Reach;
}

size_t Dfa::numLiveStates() const { return liveStates().count(); }

Automaton Dfa::toAutomaton(const EventTable &Table) const {
  BitVector Live = liveStates();
  Automaton Out;
  std::vector<StateId> Remap(numStates(), 0);
  for (size_t S = 0; S < numStates(); ++S)
    if (Live.test(S)) {
      Remap[S] = Out.addState();
      if (Accepting[S])
        Out.setAccepting(Remap[S]);
    }
  if (Live.test(Start))
    Out.setStart(Remap[Start]);
  else if (Out.numStates() == 0) {
    // Empty language: a single non-accepting start state.
    StateId S = Out.addState();
    Out.setStart(S);
    return Out;
  }
  for (size_t S = 0; S < numStates(); ++S) {
    if (!Live.test(S))
      continue;
    for (size_t A = 0; A < Alphabet.size(); ++A) {
      StateId To = Delta[S][A];
      if (Live.test(To))
        Out.addTransition(
            Remap[S], Remap[To],
            TransitionLabel::exactEvent(Table.event(Alphabet[A])));
    }
  }
  return Out;
}

//===- fa/Automaton.cpp - Finite automata over events ---------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "fa/Automaton.h"

#include "support/Dot.h"
#include "support/Error.h"

#include <algorithm>
#include <cassert>

using namespace cable;

StateId Automaton::addState() {
  StateId Id = static_cast<StateId>(StartFlags.size());
  StartFlags.push_back(false);
  AcceptFlags.push_back(false);
  Outgoing.emplace_back();
  Incoming.emplace_back();
  return Id;
}

void Automaton::setStart(StateId S) {
  assert(S < numStates() && "bad state");
  StartFlags[S] = true;
}

void Automaton::setAccepting(StateId S, bool IsAccepting) {
  assert(S < numStates() && "bad state");
  AcceptFlags[S] = IsAccepting;
}

TransitionId Automaton::addTransition(StateId From, StateId To,
                                      TransitionLabel Label) {
  assert(From < numStates() && To < numStates() && "bad state");
  TransitionId Id = static_cast<TransitionId>(Transitions.size());
  Transitions.push_back(Transition{From, To, std::move(Label)});
  Outgoing[From].push_back(Id);
  Incoming[To].push_back(Id);
  return Id;
}

bool Automaton::hasEpsilons() const {
  for (const Transition &T : Transitions)
    if (T.Label.isEpsilon())
      return true;
  return false;
}

void Automaton::epsilonClose(BitVector &States) const {
  std::vector<StateId> Worklist;
  for (size_t S : States)
    Worklist.push_back(static_cast<StateId>(S));
  while (!Worklist.empty()) {
    StateId S = Worklist.back();
    Worklist.pop_back();
    for (TransitionId TI : Outgoing[S]) {
      const Transition &T = Transitions[TI];
      if (T.Label.isEpsilon() && !States.test(T.To)) {
        States.set(T.To);
        Worklist.push_back(T.To);
      }
    }
  }
}

BitVector Automaton::startSet() const {
  BitVector S(numStates());
  for (size_t I = 0; I < numStates(); ++I)
    if (StartFlags[I])
      S.set(I);
  epsilonClose(S);
  return S;
}

bool Automaton::accepts(const Trace &T, const EventTable &Table) const {
  BitVector Current = startSet();
  for (EventId EI : T.events()) {
    if (Current.none())
      return false;
    const Event &E = Table.event(EI);
    BitVector Next(numStates());
    for (size_t S : Current) {
      for (TransitionId TI : Outgoing[S]) {
        const Transition &Tr = Transitions[TI];
        if (Tr.Label.matches(E))
          Next.set(Tr.To);
      }
    }
    epsilonClose(Next);
    Current = std::move(Next);
  }
  for (size_t S : Current)
    if (AcceptFlags[S])
      return true;
  return false;
}

BitVector Automaton::executedTransitions(const Trace &T,
                                         const EventTable &Table) const {
  return RelationScanner(*this, Table).executed(T);
}

namespace {

bool testBit(const uint64_t *Set, StateId S) {
  return (Set[S / 64] >> (S % 64)) & 1;
}

void setBit(uint64_t *Set, StateId S) {
  Set[S / 64] |= uint64_t(1) << (S % 64);
}

} // namespace

RelationScanner::RelationScanner(const Automaton &FA, const EventTable &Table)
    : FA(FA), Table(Table), Words((FA.numStates() + 63) / 64),
      Start(Words, 0), Accept(Words, 0), Live(Words, 0), Next(Words, 0),
      Row(FA.numTransitions()) {
  assert(!FA.hasEpsilons() &&
         "executedTransitions requires an epsilon-free automaton");
  for (StateId S = 0; S < FA.numStates(); ++S) {
    if (FA.isStart(S))
      setBit(Start.data(), S);
    if (FA.isAccepting(S))
      setBit(Accept.data(), S);
  }
}

std::pair<uint32_t, uint32_t> RelationScanner::matchesOf(EventId E) {
  if (E >= Lists.size())
    Lists.resize(std::max<size_t>(E + 1, Table.numEvents()),
                 {Unbuilt, Unbuilt});
  if (Lists[E].first == Unbuilt) {
    const Event &Ev = Table.event(E);
    uint32_t Begin = static_cast<uint32_t>(Matches.size());
    for (TransitionId TI = 0; TI < FA.numTransitions(); ++TI) {
      const Transition &Tr = FA.transition(TI);
      if (Tr.Label.matches(Ev))
        Matches.push_back({TI, Tr.From, Tr.To});
    }
    Lists[E] = {Begin, static_cast<uint32_t>(Matches.size())};
  }
  return Lists[E];
}

const BitVector &RelationScanner::executed(const Trace &T) {
  Row.resetAll();
  size_t N = T.size();
  Positions.resize(N);
  for (size_t I = 0; I < N; ++I)
    Positions[I] = matchesOf(T[I]);

  // Bwd[I] = states from which consuming T[I..N) can reach acceptance. A
  // position where no state completes rejects the trace.
  Bwd.assign((N + 1) * Words, 0);
  std::copy(Accept.begin(), Accept.end(), Bwd.begin() + N * Words);
  for (size_t I = N; I > 0; --I) {
    const uint64_t *After = Bwd.data() + I * Words;
    uint64_t *Before = Bwd.data() + (I - 1) * Words;
    bool Any = false;
    auto [Begin, End] = Positions[I - 1];
    for (uint32_t K = Begin; K < End; ++K)
      if (testBit(After, Matches[K].To)) {
        setBit(Before, Matches[K].From);
        Any = true;
      }
    if (!Any)
      return Row;
  }

  // Forward over the live states, Fwd[I] ∩ Bwd[I]: a matching transition
  // from a live state into Bwd[I + 1] lies on an accepting run, and its
  // targets are the next live states. A trace is accepted iff a start state
  // is live at 0; the empty trace executes nothing either way.
  bool Accepted = false;
  for (size_t W = 0; W < Words; ++W) {
    Live[W] = Start[W] & Bwd[W];
    Accepted |= Live[W] != 0;
  }
  if (!Accepted)
    return Row;
  for (size_t I = 0; I < N; ++I) {
    const uint64_t *After = Bwd.data() + (I + 1) * Words;
    std::fill(Next.begin(), Next.end(), 0);
    auto [Begin, End] = Positions[I];
    for (uint32_t K = Begin; K < End; ++K) {
      const Edge &E = Matches[K];
      if (testBit(Live.data(), E.From) && testBit(After, E.To)) {
        Row.set(E.Id);
        setBit(Next.data(), E.To);
      }
    }
    Live.swap(Next);
  }
  return Row;
}

Automaton Automaton::withoutEpsilons() const {
  Automaton Out;
  for (size_t S = 0; S < numStates(); ++S)
    Out.addState();

  // A state is accepting if its epsilon closure contains an accepting
  // state.
  for (size_t S = 0; S < numStates(); ++S) {
    BitVector Closure(numStates());
    Closure.set(S);
    epsilonClose(Closure);
    bool Accept = false;
    for (size_t C : Closure) {
      if (AcceptFlags[C])
        Accept = true;
      // Copy each non-epsilon transition leaving the closure back to S.
      for (TransitionId TI : Outgoing[C]) {
        const Transition &Tr = Transitions[TI];
        if (!Tr.Label.isEpsilon())
          Out.addTransition(static_cast<StateId>(S), Tr.To, Tr.Label);
      }
    }
    Out.setAccepting(static_cast<StateId>(S), Accept);
    if (StartFlags[S])
      Out.setStart(static_cast<StateId>(S));
  }
  return Out.trimmed();
}

BitVector Automaton::reachableStates() const {
  BitVector Seen(numStates());
  std::vector<StateId> Worklist;
  for (size_t S = 0; S < numStates(); ++S)
    if (StartFlags[S]) {
      Seen.set(S);
      Worklist.push_back(static_cast<StateId>(S));
    }
  while (!Worklist.empty()) {
    StateId S = Worklist.back();
    Worklist.pop_back();
    for (TransitionId TI : Outgoing[S]) {
      StateId To = Transitions[TI].To;
      if (!Seen.test(To)) {
        Seen.set(To);
        Worklist.push_back(To);
      }
    }
  }
  return Seen;
}

BitVector Automaton::coreachableStates() const {
  BitVector Seen(numStates());
  std::vector<StateId> Worklist;
  for (size_t S = 0; S < numStates(); ++S)
    if (AcceptFlags[S]) {
      Seen.set(S);
      Worklist.push_back(static_cast<StateId>(S));
    }
  while (!Worklist.empty()) {
    StateId S = Worklist.back();
    Worklist.pop_back();
    for (TransitionId TI : Incoming[S]) {
      StateId From = Transitions[TI].From;
      if (!Seen.test(From)) {
        Seen.set(From);
        Worklist.push_back(From);
      }
    }
  }
  return Seen;
}

Automaton Automaton::trimmed() const {
  BitVector Live = reachableStates();
  Live &= coreachableStates();

  Automaton Out;
  std::vector<StateId> Remap(numStates(), 0);
  for (size_t S = 0; S < numStates(); ++S)
    if (Live.test(S)) {
      Remap[S] = Out.addState();
      if (StartFlags[S])
        Out.setStart(Remap[S]);
      if (AcceptFlags[S])
        Out.setAccepting(Remap[S]);
    }
  for (const Transition &Tr : Transitions)
    if (Live.test(Tr.From) && Live.test(Tr.To))
      Out.addTransition(Remap[Tr.From], Remap[Tr.To], Tr.Label);
  return Out;
}

Automaton Automaton::disjointUnion(const Automaton &A, const Automaton &B) {
  Automaton Out;
  for (size_t S = 0; S < A.numStates(); ++S) {
    StateId Id = Out.addState();
    if (A.isStart(static_cast<StateId>(S)))
      Out.setStart(Id);
    Out.setAccepting(Id, A.isAccepting(static_cast<StateId>(S)));
  }
  StateId Offset = static_cast<StateId>(A.numStates());
  for (size_t S = 0; S < B.numStates(); ++S) {
    StateId Id = Out.addState();
    if (B.isStart(static_cast<StateId>(S)))
      Out.setStart(Id);
    Out.setAccepting(Id, B.isAccepting(static_cast<StateId>(S)));
  }
  for (const Transition &T : A.transitions())
    Out.addTransition(T.From, T.To, T.Label);
  for (const Transition &T : B.transitions())
    Out.addTransition(T.From + Offset, T.To + Offset, T.Label);
  return Out;
}

std::optional<size_t> Automaton::longestAcceptedLength() const {
  // Work on the trimmed automaton so only transitions on accepting paths
  // count; a cycle there means unbounded scenarios.
  Automaton Trim = trimmed();
  size_t N = Trim.numStates();
  if (N == 0)
    return 0;

  // Longest-path DP over a DAG, with DFS cycle detection.
  enum class Mark { White, Grey, Black };
  std::vector<Mark> Marks(N, Mark::White);
  std::vector<size_t> Longest(N, 0); // Longest path starting at the state.
  bool Cyclic = false;
  auto DFS = [&](auto &&Self, StateId S) -> void {
    Marks[S] = Mark::Grey;
    for (TransitionId TI : Trim.outgoing(S)) {
      StateId To = Trim.transition(TI).To;
      if (Marks[To] == Mark::Grey) {
        Cyclic = true;
        return;
      }
      if (Marks[To] == Mark::White)
        Self(Self, To);
      if (Cyclic)
        return;
      Longest[S] = std::max(Longest[S], Longest[To] + 1);
    }
    Marks[S] = Mark::Black;
  };

  size_t Best = 0;
  for (size_t S = 0; S < N; ++S) {
    if (!Trim.isStart(static_cast<StateId>(S)))
      continue;
    if (Marks[S] == Mark::White)
      DFS(DFS, static_cast<StateId>(S));
    if (Cyclic)
      return std::nullopt;
    Best = std::max(Best, Longest[S]);
  }
  return Best;
}

Automaton Automaton::reversed() const {
  Automaton Out;
  for (size_t S = 0; S < numStates(); ++S) {
    StateId Id = Out.addState();
    if (AcceptFlags[S])
      Out.setStart(Id);
    Out.setAccepting(Id, StartFlags[S]);
  }
  for (const Transition &T : Transitions)
    Out.addTransition(T.To, T.From, T.Label);
  return Out;
}

std::string Automaton::renderText(const EventTable &Table) const {
  std::string Out;
  Out += "states: " + std::to_string(numStates()) + "  transitions: " +
         std::to_string(numTransitions()) + "\n";
  for (size_t S = 0; S < numStates(); ++S) {
    Out += "  q" + std::to_string(S);
    if (StartFlags[S])
      Out += " [start]";
    if (AcceptFlags[S])
      Out += " [accept]";
    Out += "\n";
    for (TransitionId TI : Outgoing[S]) {
      const Transition &Tr = Transitions[TI];
      Out += "    --" + Tr.Label.render(Table) + "--> q" +
             std::to_string(Tr.To) + "  (t" + std::to_string(TI) + ")\n";
    }
  }
  return Out;
}

std::string Automaton::renderDot(const EventTable &Table,
                                 std::string_view Name) const {
  DotWriter W{std::string(Name)};
  W.addRaw("rankdir=LR;");
  for (size_t S = 0; S < numStates(); ++S) {
    std::string Id = "q" + std::to_string(S);
    W.addNode(Id, Id,
              AcceptFlags[S] ? "shape=doublecircle" : "shape=circle");
    if (StartFlags[S]) {
      std::string Entry = "entry" + std::to_string(S);
      W.addNode(Entry, "", "shape=point");
      W.addEdge(Entry, Id);
    }
  }
  for (TransitionId TI = 0; TI < Transitions.size(); ++TI) {
    const Transition &Tr = Transitions[TI];
    W.addEdge("q" + std::to_string(Tr.From), "q" + std::to_string(Tr.To),
              Tr.Label.render(Table));
  }
  return W.str();
}

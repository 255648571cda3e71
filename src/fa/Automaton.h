//===- fa/Automaton.h - Finite automata over events -------------*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The finite-automaton representation for temporal specifications and
/// reference FAs.
///
/// An Automaton is a nondeterministic FA whose transitions carry
/// TransitionLabels (event patterns). It may have several start states and
/// several accepting states. Besides acceptance, it computes the paper's
/// central relation R (§3.2): `executedTransitions(o)` returns the set of
/// transitions that lie on *some* accepting sequence of transitions for the
/// trace o — exactly the attribute set concept analysis clusters on.
///
/// R is computed by a RelationScanner, which lists once per event the
/// transitions whose label matches it and then scans a trace over those
/// match lists only: a backward pass marks the states that complete to
/// acceptance, and a forward pass follows the live states and collects the
/// transitions that fire. A session computes every row of its context with
/// one scanner; executedTransitions is a one-trace call into the same code.
/// The per-trace three-pass computation it replaced is the test oracle
/// executedTransitionsReference (fa/AutomatonReference.h).
///
/// Transitions are identified by their insertion index; that index is the
/// FCA attribute id throughout the system, so transitions are never removed
/// once added (build a fresh automaton instead — see trimmed()).
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_FA_AUTOMATON_H
#define CABLE_FA_AUTOMATON_H

#include "fa/Label.h"
#include "support/BitVector.h"
#include "trace/Trace.h"

#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace cable {

/// Automaton state index.
using StateId = uint32_t;

/// Automaton transition index; doubles as the FCA attribute id.
using TransitionId = uint32_t;

/// One transition of an Automaton.
struct Transition {
  StateId From = 0;
  StateId To = 0;
  TransitionLabel Label;
};

/// A nondeterministic finite automaton over trace events.
class Automaton {
public:
  /// Adds a state; returns its id. States start neither initial nor
  /// accepting.
  StateId addState();

  /// Marks \p S as a start state.
  void setStart(StateId S);

  /// Marks \p S as accepting (or not).
  void setAccepting(StateId S, bool IsAccepting = true);

  /// Adds a transition; returns its id (= FCA attribute id).
  TransitionId addTransition(StateId From, StateId To, TransitionLabel Label);

  size_t numStates() const { return StartFlags.size(); }
  size_t numTransitions() const { return Transitions.size(); }

  bool isStart(StateId S) const { return StartFlags[S]; }
  bool isAccepting(StateId S) const { return AcceptFlags[S]; }
  const Transition &transition(TransitionId T) const { return Transitions[T]; }
  const std::vector<Transition> &transitions() const { return Transitions; }

  /// Transition ids leaving \p S.
  const std::vector<TransitionId> &outgoing(StateId S) const {
    return Outgoing[S];
  }

  /// Transition ids entering \p S.
  const std::vector<TransitionId> &incoming(StateId S) const {
    return Incoming[S];
  }

  /// Returns true if any transition is an epsilon transition.
  bool hasEpsilons() const;

  /// Returns the set of start states, epsilon-closed.
  BitVector startSet() const;

  /// Epsilon-closes \p States in place.
  void epsilonClose(BitVector &States) const;

  /// Returns true if the automaton accepts \p T.
  bool accepts(const Trace &T, const EventTable &Table) const;

  /// Computes the paper's relation R for trace \p T: the set of transitions
  /// that appear on at least one accepting run over \p T. Empty if the
  /// trace is not accepted. Requires an epsilon-free automaton. For many
  /// traces of one table, use a RelationScanner.
  BitVector executedTransitions(const Trace &T, const EventTable &Table) const;

  /// Returns an equivalent epsilon-free automaton. Transition ids are NOT
  /// preserved.
  Automaton withoutEpsilons() const;

  /// Returns an equivalent automaton keeping only states both reachable
  /// from a start state and co-reachable to an accepting state. Transition
  /// ids are NOT preserved.
  Automaton trimmed() const;

  /// States reachable from the start set (following all transitions,
  /// ignoring labels).
  BitVector reachableStates() const;

  /// States from which some accepting state is reachable.
  BitVector coreachableStates() const;

  /// Disjoint union: both automata side by side, all start and accepting
  /// states kept. Accepts the union of the two languages; the executed-
  /// transition relation R becomes the union of both relations, which is
  /// how two similarity views are combined into one reference FA.
  static Automaton disjointUnion(const Automaton &A, const Automaton &B);

  /// Returns the reversal: every transition flipped, start and accepting
  /// states exchanged. Accepts exactly the reversed strings.
  Automaton reversed() const;

  /// The length of the longest accepted string, or std::nullopt when the
  /// automaton has a productive cycle (unbounded scenarios). §5.1 reports
  /// this per specification: "the longest scenario through each FA is very
  /// short, usually less than ten events long". Returns 0 for automata
  /// accepting at most the empty trace.
  std::optional<size_t> longestAcceptedLength() const;

  /// Renders a readable text listing (one transition per line).
  std::string renderText(const EventTable &Table) const;

  /// Renders Graphviz DOT (accepting states as double circles; start states
  /// get an arrow from a point node).
  std::string renderDot(const EventTable &Table, std::string_view Name) const;

private:
  std::vector<bool> StartFlags;
  std::vector<bool> AcceptFlags;
  std::vector<Transition> Transitions;
  std::vector<std::vector<TransitionId>> Outgoing;
  std::vector<std::vector<TransitionId>> Incoming;
};

/// The relation R of one epsilon-free automaton over the traces of one
/// event table. The match list of an event (the transitions whose label
/// matches it) is built the first time the event appears; the pass buffers
/// are reused from trace to trace. \p FA and \p Table must outlive the
/// scanner; events interned after its construction are matched when met.
class RelationScanner {
public:
  RelationScanner(const Automaton &FA, const EventTable &Table);

  /// R for \p T: the transitions on at least one accepting run over \p T,
  /// empty if \p T is rejected. Valid until the next call.
  const BitVector &executed(const Trace &T);

private:
  /// A transition as the passes read it.
  struct Edge {
    TransitionId Id;
    StateId From, To;
  };

  /// The [begin, end) range of \p E's match list in Matches.
  std::pair<uint32_t, uint32_t> matchesOf(EventId E);

  const Automaton &FA;
  const EventTable &Table;
  /// Words per state set.
  size_t Words;
  std::vector<uint64_t> Start, Accept;
  /// Per EventId, its match list's range in Matches; Begin is Unbuilt
  /// until the event is first met.
  static constexpr uint32_t Unbuilt = UINT32_MAX;
  std::vector<std::pair<uint32_t, uint32_t>> Lists;
  std::vector<Edge> Matches;
  /// Per position of the trace being scanned: its event's match list.
  std::vector<std::pair<uint32_t, uint32_t>> Positions;
  /// Bwd[I]: the states from which the suffix at I reaches acceptance,
  /// Words words per position.
  std::vector<uint64_t> Bwd;
  std::vector<uint64_t> Live, Next;
  BitVector Row;
};

} // namespace cable

#endif // CABLE_FA_AUTOMATON_H

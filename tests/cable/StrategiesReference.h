//===- tests/cable/StrategiesReference.h - Strategy oracle ------*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The straightforward forms of the §4.2 strategies, kept as the
// differential oracle for the ones in cable/Strategies.cpp: every step
// rescans the whole lattice through Session::stateOf, uniformity walks the
// objects one by one (ReferenceLabeling::uniform), and Optimal keeps one
// heap BitVector per state in an unordered_set. The fast strategies must
// report the same cost and the same Finished flag for every session,
// labeling and seed, and Optimal must insert exactly as many states.
//
//===----------------------------------------------------------------------===//

#ifndef CABLE_TESTS_CABLE_STRATEGIESREFERENCE_H
#define CABLE_TESTS_CABLE_STRATEGIESREFERENCE_H

#include "cable/Strategies.h"
#include "fa/Templates.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace cable::test {

/// Top-down: repeated breadth-first sweeps, siblings shuffled by \p Rand.
StrategyCost referenceTopDown(Session &S, const ReferenceLabeling &Target,
                              std::optional<RNG> Rand = std::nullopt);

/// Bottom-up: the first ready concept, or a random one with \p Rand.
StrategyCost referenceBottomUp(Session &S, const ReferenceLabeling &Target,
                               std::optional<RNG> Rand = std::nullopt);

/// Random: uniformly random not-fully-labeled concepts.
StrategyCost referenceRandom(Session &S, const ReferenceLabeling &Target,
                             RNG Rand);

/// Optimal: breadth-first search under \p StateCap. \p StatesInserted (may
/// be null) receives the number of states the search inserted.
StrategyCost referenceOptimal(Session &S, const ReferenceLabeling &Target,
                              size_t StateCap,
                              size_t *StatesInserted = nullptr);

/// A session and the labeling a strategy must reach on it.
struct LabeledSession {
  std::unique_ptr<Session> S;
  ReferenceLabeling Target;
};

/// 2-8 random traces over a, b, c, each also ending in `err` with
/// probability 0.4, clustered with the unordered template and labeled
/// `bad` exactly when they contain `err`: separable by construction.
inline LabeledSession makeSeparableSession(RNG &Rand) {
  TraceSet Traces;
  std::vector<std::string> Pool{"a", "b", "c"};
  size_t N = 2 + Rand.nextIndex(7);
  for (size_t I = 0; I < N; ++I) {
    Trace T;
    size_t Len = 1 + Rand.nextIndex(3);
    for (size_t J = 0; J < Len; ++J)
      T.append(Traces.table().internEvent(Pool[Rand.nextIndex(Pool.size())]));
    if (Rand.nextBool(0.4))
      T.append(Traces.table().internEvent("err"));
    Traces.add(std::move(T));
  }
  Automaton Ref =
      makeUnorderedFA(templateAlphabet(Traces.traces()), Traces.table());
  LabeledSession Out;
  Out.S = std::make_unique<Session>(std::move(Traces), std::move(Ref));
  std::vector<std::string> Names;
  for (size_t Obj = 0; Obj < Out.S->numObjects(); ++Obj) {
    bool Bad = false;
    for (EventId E : Out.S->object(Obj).events())
      if (Out.S->table().nameText(Out.S->table().event(E).Name) == "err")
        Bad = true;
    Names.push_back(Bad ? "bad" : "good");
  }
  Out.Target = makeReferenceLabeling(*Out.S, Names);
  return Out;
}

} // namespace cable::test

#endif // CABLE_TESTS_CABLE_STRATEGIESREFERENCE_H

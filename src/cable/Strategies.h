//===- cable/Strategies.h - Labeling strategies (§4.2) ----------*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The automatic labeling strategies of §4.2 and the Baseline method of
/// §5.3, with the paper's cost model: every concept *inspection* costs one
/// operation and every *label* command costs one operation; a strategy may
/// not label a concept it has not inspected. Each strategy receives the
/// reference labeling (the "answer key") and replays the cheapest behavior
/// consistent with its policy:
///
///  - Top-down:  repeated breadth-first sweeps from the top concept,
///               labeling whenever a concept's unlabeled traces agree;
///  - Bottom-up: always process a concept whose children are fully
///               labeled (never inspects an unlabelable concept);
///  - Random:    uniformly random not-fully-labeled concepts;
///  - Optimal:   exhaustive uniform-cost search for a shortest operation
///               sequence (may hit its state cap, like the paper's
///               evaluation program on the four largest specifications);
///  - ExpertSim: the described expert behavior — mostly top-down, steering
///               toward children whose transitions discriminate the
///               labels, and sweeping remainders after children settle;
///  - Baseline:  no lattice; two operations per class of identical traces.
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_CABLE_STRATEGIES_H
#define CABLE_CABLE_STRATEGIES_H

#include "cable/Session.h"
#include "cable/WellFormed.h"
#include "support/RNG.h"

#include <functional>
#include <memory>
#include <optional>
#include <string>

namespace cable {

/// Operation counts for one strategy run.
struct StrategyCost {
  size_t Inspections = 0;
  size_t LabelOps = 0;
  /// False if the strategy could not finish (ill-formed lattice, or the
  /// Optimal search hit its cap).
  bool Finished = false;

  size_t total() const { return Inspections + LabelOps; }
};

/// Common interface. run() must leave the session fully labeled per
/// \p Target when it reports Finished (labels are cleared on entry).
class Strategy {
public:
  virtual ~Strategy() = default;
  virtual std::string name() const = 0;
  virtual StrategyCost run(Session &S, const ReferenceLabeling &Target) = 0;
};

/// Repeated breadth-first traversals from the top (§4.2). The traversal
/// order among siblings is left open by the paper (its Table 3 reports the
/// *lowest* cost over the strategy's nondeterministic choices); pass an
/// RNG to randomize sibling order, or none for the deterministic order.
class TopDownStrategy : public Strategy {
public:
  TopDownStrategy() = default;
  explicit TopDownStrategy(RNG Rand) : Rand(Rand) {}
  std::string name() const override { return "Top-down"; }
  StrategyCost run(Session &S, const ReferenceLabeling &Target) override;

private:
  std::optional<RNG> Rand;
};

/// Processes concepts whose children are all fully labeled (§4.2). The
/// choice among ready concepts is the strategy's nondeterminism; pass an
/// RNG to randomize it.
class BottomUpStrategy : public Strategy {
public:
  BottomUpStrategy() = default;
  explicit BottomUpStrategy(RNG Rand) : Rand(Rand) {}
  std::string name() const override { return "Bottom-up"; }
  StrategyCost run(Session &S, const ReferenceLabeling &Target) override;

private:
  std::optional<RNG> Rand;
};

/// Visits not-fully-labeled concepts in uniformly random order (§4.2).
class RandomStrategy : public Strategy {
public:
  explicit RandomStrategy(RNG Rand) : Rand(Rand) {}
  std::string name() const override { return "Random"; }
  StrategyCost run(Session &S, const ReferenceLabeling &Target) override;

private:
  RNG Rand;
};

/// Uniform-cost search for a minimal operation sequence (§4.2). The search
/// space is the set of labeled-object bitsets; StateCap bounds the states
/// it inserts (the start state included), and a search that would insert
/// one more reports unfinished.
class OptimalStrategy : public Strategy {
public:
  explicit OptimalStrategy(size_t StateCap = 2'000'000)
      : StateCap(StateCap) {}
  std::string name() const override { return "Optimal"; }
  StrategyCost run(Session &S, const ReferenceLabeling &Target) override;

private:
  size_t StateCap;
};

/// Simulates the paper's expert (§5.3): "a mostly top-down approach, but
/// sometimes directed his search based on transitions he found
/// interesting". Children with label-pure extents are visited first (the
/// expert recognizes their discriminating transitions), and after a
/// concept's informative children settle, its remainder is labeled in one
/// sweep — the §2.1 workflow.
class ExpertSimStrategy : public Strategy {
public:
  std::string name() const override { return "Expert"; }
  StrategyCost run(Session &S, const ReferenceLabeling &Target) override;
};

/// The §5.3 Baseline: inspect + label each class of identical traces;
/// exactly 2 * numObjects() operations, no lattice involved.
class BaselineMethod : public Strategy {
public:
  std::string name() const override { return "Baseline"; }
  StrategyCost run(Session &S, const ReferenceLabeling &Target) override;
};

/// §4.3's manual fallback: run Top-down, and when the lattice's
/// ill-formedness stalls it, label every remaining trace by hand ("the
/// user can label the traces in those concepts by hand") at the Baseline
/// rate of two operations per trace. Always finishes; the cost shows how
/// much lattice leverage survives a bad reference FA.
class HandLabelFallbackStrategy : public Strategy {
public:
  std::string name() const override { return "Top-down+hand"; }
  StrategyCost run(Session &S, const ReferenceLabeling &Target) override;
};

/// Runs \p NumTrials Random trials and returns the mean total cost (the
/// paper reports the arithmetic mean of 1024 trials). Returns unfinished
/// if any trial fails to finish.
struct RandomSummary {
  double MeanTotal = 0;
  bool Finished = false;
};
RandomSummary measureRandomMean(Session &S, const ReferenceLabeling &Target,
                                size_t NumTrials, uint64_t Seed);

/// Reruns a randomized strategy \p NumTrials times and returns the lowest
/// finished total (the paper's Table 3 reports "the lowest cost for
/// Top-down and Bottom-up"). \p Make builds a fresh strategy per trial
/// from the trial's RNG. Unfinished if no trial finishes.
struct LowestSummary {
  size_t LowestTotal = 0;
  bool Finished = false;
};
LowestSummary
measureLowestCost(Session &S, const ReferenceLabeling &Target,
                  size_t NumTrials, uint64_t Seed,
                  const std::function<std::unique_ptr<Strategy>(RNG)> &Make);

} // namespace cable

#endif // CABLE_CABLE_STRATEGIES_H

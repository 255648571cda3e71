//===- cablebench/Workload.h - The benchmark's workloads --------*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A workload turns a seed into inputs (set-up) and then runs a fixed
/// amount of work over them, a pass, as often as the run's time allows.
/// Passes are closed-loop: each call into the library starts only after
/// the previous one returned. Every pass does the same work on the same
/// inputs, so its outputs are checked for equality across passes as well
/// as against the oracle.
///
//===----------------------------------------------------------------------===//

#ifndef CABLEBENCH_WORKLOAD_H
#define CABLEBENCH_WORKLOAD_H

#include "Probe.h"

#include "cable/Session.h"
#include "cable/Strategies.h"

#include <memory>
#include <string>

namespace cablebench {

class Workload {
public:
  virtual ~Workload() = default;

  /// Generates every input from \p Seed: traces, reference FAs, oracles.
  virtual void setup(uint64_t Seed) = 0;

  /// Runs the workload's fixed work once, timing it into \p Log and
  /// recording spans into \p T when it is armed.
  virtual void pass(PassLog &Log, Tracer &T) = 0;
};

/// The workload called \p Name, or null if there is none.
std::unique_ptr<Workload> makeWorkload(const std::string &Name);

std::unique_ptr<Workload> makeTable3();
std::unique_ptr<Workload> makeWideSession();
std::unique_ptr<Workload> makeRemine();

/// The formal context Session::build derives: one object per trace class
/// of \p Traces, one attribute per transition of \p ReferenceFA, related
/// when the transition is executed on an accepting run of the class.
cable::Context relationOf(const cable::TraceSet &Traces,
                          const cable::TraceClasses &Classes,
                          const cable::Automaton &ReferenceFA);

/// Session::build with default options; \p Ms receives its latency.
/// Returns null (and fails the check) if the build returns an error. When
/// \p T is armed, also re-runs the build's serial stages (dedup, relation)
/// through their public functions on copies of the same inputs, and books
/// the rest of the build, its lattice stage, as
/// cable.session.unattributed_ms, split between concepts.enumerate and
/// concepts.covers in the proportion a serial re-run of the two takes.
std::unique_ptr<cable::Session> openSession(cable::TraceSet Traces,
                                            cable::Automaton ReferenceFA,
                                            PassLog &Log, Tracer &T,
                                            double &Ms);

/// True when every object of \p S carries exactly its \p Target label.
bool labelsMatch(const cable::Session &S,
                 const std::vector<cable::LabelId> &Target);

/// One Strategy::run under span `cable.strategy.<Layer>`; \p Ms receives
/// its latency. Afterwards, untimed, checks that a finished run left
/// exactly the target labeling and an unfinished one did not label
/// everything.
cable::StrategyCost runStrategy(cable::Strategy &Strat, const char *Layer,
                                cable::Session &S,
                                const cable::ReferenceLabeling &Target,
                                PassLog &Log, Tracer &T, double &Ms);

} // namespace cablebench

#endif // CABLEBENCH_WORKLOAD_H

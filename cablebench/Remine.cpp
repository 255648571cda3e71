//===- cablebench/Remine.cpp - Workload `remine` --------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The §2.2 loop, as examples/debug_mined_spec.cpp walks it, for each of
// the 17 protocols at Table 1 scale: extract scenarios from the generated
// runs, mine an FA with sk-strings, open a session with the mined FA as
// the reference FA, check well-formedness for the variant labels
// (good_<first event>, bad), label (Expert when well-formed, otherwise a
// §4.3 focus with the unordered template, Top-down inside and mergeBack,
// then hand-labeling whatever is left), re-mine one specification per good
// label, and determinize and minimize each. A pass covers sixteen
// independently generated instances of every protocol; one instance's
// iteration is one operation. sk-strings dominates; the lattices stay
// small, and the reference FA is a mined NFA rather than a template DFA.
//
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include "fa/Dfa.h"
#include "fa/Templates.h"
#include "miner/Miner.h"
#include "support/RNG.h"
#include "workload/Generator.h"
#include "workload/Oracle.h"

using namespace cable;
using namespace cablebench;

namespace {

/// What one protocol's iteration produced; must repeat exactly every pass.
struct Outcome {
  size_t Scenarios = 0, MinedStates = 0, Concepts = 0;
  bool WellFormed = false;
  size_t HandLabeled = 0;
  /// Per re-mined specification: minimal DFA states and bad classes it
  /// rejects.
  std::vector<std::pair<size_t, size_t>> Specs;
  bool operator==(const Outcome &) const = default;
};

class Remine : public Workload {
public:
  void setup(uint64_t Seed) override;
  void pass(PassLog &Log, Tracer &T) override;

private:
  Outcome iterate(const ProtocolModel &Model, const TraceSet &Runs,
                  PassLog &Log, Tracer &T);

  uint64_t Seed = 0;
  /// One entry per protocol instance: its model and generated runs.
  std::vector<const ProtocolModel *> Models;
  std::vector<TraceSet> Runs;
  std::vector<Outcome> Pinned;
};

/// Instances of each protocol per pass, each generated from its own seed.
/// At Table 1 scale one instance's cost moves a lot with the seed; the
/// slowest iterations of a pass (op_ms_p90) are then spread over several
/// instances of the largest protocols instead of one.
constexpr size_t InstancesPerProtocol = 16;

MinerOptions minerOptions(const ProtocolModel &Model) {
  MinerOptions Options;
  Options.Extract.SeedNames = Model.Seeds;
  Options.Learn.S = 1.0;
  return Options;
}

void Remine::setup(uint64_t WorkloadSeed) {
  Seed = WorkloadSeed;
  Models.clear();
  Runs.clear();
  // The instances are the same at every workload seed; the seed orders
  // them (seed 0 keeps protocol order). Generated per seed, one instance
  // of XtFree could cost as much as a dozen others, and the pass time
  // moved by up to 50% from seed to seed, more than any bound.
  std::vector<std::pair<const ProtocolModel *, std::string>> Instances;
  for (size_t K = 0; K < InstancesPerProtocol; ++K)
    for (const ProtocolModel &Model : allProtocols())
      // Instance 0 has the protocol's own seed, so it sees the runs the
      // table binaries generate.
      Instances.emplace_back(&Model, K ? Model.Name + "#" + std::to_string(K)
                                       : Model.Name);
  if (Seed != 0) {
    RNG Order(protocolSeed("order", Seed));
    Order.shuffle(Instances);
  }
  for (const auto &[Model, Name] : Instances) {
    RNG Rand(protocolSeed(Name, 0));
    EventTable Table;
    WorkloadGenerator Gen(*Model, Table);
    Models.push_back(Model);
    Runs.push_back(Gen.generateRuns(Rand));
  }
}

void Remine::pass(PassLog &Log, Tracer &T) {
  std::vector<Outcome> Outcomes;
  for (size_t I = 0; I < Runs.size(); ++I)
    Outcomes.push_back(iterate(*Models[I], Runs[I], Log, T));
  if (Pinned.empty())
    Pinned = Outcomes;
  Log.check(Outcomes == Pinned, "remine: outcomes differ from the first pass");
  // Bad scenario classes the re-mined specifications reject, summed over
  // all instances and good labels; the instances are the same at every
  // seed.
  size_t Rejected = 0;
  for (const Outcome &O : Outcomes)
    for (const auto &[States, BadRejected] : O.Specs)
      Rejected += BadRejected;
  Log.check(Rejected == 4109, "remine: re-mined specifications reject " +
                                  std::to_string(Rejected) +
                                  " bad classes, pinned 4109");
}

Outcome Remine::iterate(const ProtocolModel &Model, const TraceSet &Runs,
                        PassLog &Log, Tracer &T) {
  Outcome Out;
  const std::string &Name = Model.Name;
  Miner M(minerOptions(Model));
  T.beginOp();
  Span Iteration(T, "bench.remine");
  double OpMs = 0;

  // 1-2. Mine.
  TraceSet Scenarios;
  {
    Span Sp(T, "miner.extract");
    OpMs += timeMs([&] { Scenarios = M.extract(Runs); });
  }
  Out.Scenarios = Scenarios.size();
  T.count("miner.extract.scenarios", static_cast<double>(Scenarios.size()));
  Specification Mined;
  {
    Span Sp(T, "learner.skstrings");
    OpMs += timeMs(
        [&] { Mined = M.learn(Scenarios.traces(), Scenarios.table(), Name); });
  }
  Out.MinedStates = Mined.numStates();
  T.count("learner.skstrings.traces", static_cast<double>(Scenarios.size()));
  T.count("learner.skstrings.states", static_cast<double>(Mined.numStates()));

  // 3. Open a session on the scenarios with the mined FA as reference FA.
  // The oracle stands in for the user's knowledge; it is not timed.
  Oracle Truth(Model, Scenarios.table());
  double OpenMs = 0;
  std::unique_ptr<Session> S =
      openSession(std::move(Scenarios), Mined.FA, Log, T, OpenMs);
  Log.open(OpenMs, /*Timed=*/false);
  OpMs += OpenMs;
  if (!S) {
    Log.op(OpMs);
    return Out;
  }
  Out.Concepts = S->lattice().size();

  // 4. Well-formedness for the variant labels.
  ReferenceLabeling Target =
      makeReferenceLabeling(*S, Truth.variantLabelNames(*S));
  WellFormedness WF;
  {
    Span Sp(T, "cable.wellformed");
    OpMs += timeMs([&] { WF = checkWellFormed(*S, Target); });
  }
  Out.WellFormed = WF.LatticeWellFormed;

  // 5. Label.
  double Ms = 0;
  if (WF.LatticeWellFormed) {
    ExpertSimStrategy Expert;
    runStrategy(Expert, "expert", *S, Target, Log, T, Ms);
    OpMs += Ms;
  } else {
    std::vector<Trace> Reps;
    for (size_t Obj = 0; Obj < S->numObjects(); ++Obj)
      Reps.push_back(S->object(Obj));
    Automaton FocusFA = makeUnorderedFA(templateAlphabet(Reps), S->table());
    std::optional<FocusSession> F;
    {
      Span Sp(T, "cable.focus");
      OpMs += timeMs(
          [&] { F.emplace(S->focus(S->lattice().top(), FocusFA)); });
    }
    T.count("cable.focus.sub_concepts",
            static_cast<double>(F->Sub.lattice().size()));
    ReferenceLabeling SubTarget =
        makeReferenceLabeling(F->Sub, Truth.variantLabelNames(F->Sub));
    TopDownStrategy TopDown;
    runStrategy(TopDown, "topdown", F->Sub, SubTarget, Log, T, Ms);
    OpMs += Ms;
    {
      Span Sp(T, "cable.label");
      OpMs += timeMs([&] { S->mergeBack(*F); });
    }
    T.count("cable.label.objects_changed",
            static_cast<double>(F->ParentObjects.size()));
  }
  if (!S->allLabeled()) {
    // §4.3: label by hand what the lattice could not separate.
    BitVector Left = S->unlabeledObjects();
    Out.HandLabeled = Left.count();
    Span Sp(T, "cable.label", static_cast<double>(Out.HandLabeled));
    OpMs += timeMs([&] {
      for (size_t Obj : Left)
        S->setLabel(Obj, Target.Target[Obj]);
    });
    T.count("cable.label.objects_changed",
            static_cast<double>(Out.HandLabeled));
  }
  Log.check(labelsMatch(*S, Target.Target),
            Name + ": labels differ from the oracle's");

  // 6-7. Re-mine one specification per good label; canonicalize each.
  for (LabelId Label = 0; Label < S->numLabels(); ++Label) {
    const std::string &LabelName = S->labelName(Label);
    if (LabelName.rfind("good", 0) != 0)
      continue;
    std::vector<Trace> Family;
    for (size_t Obj : S->objectsWithLabel(Label))
      Family.push_back(S->object(Obj));
    if (Family.empty())
      continue;
    Specification Spec;
    {
      Span Sp(T, "learner.skstrings");
      OpMs += timeMs([&] { Spec = M.learn(Family, S->table(), LabelName); });
    }
    T.count("learner.skstrings.traces", static_cast<double>(Family.size()));
    T.count("learner.skstrings.states", static_cast<double>(Spec.numStates()));
    std::vector<EventId> Alphabet = templateAlphabet(Family);
    Dfa Det, Min;
    {
      Span Sp(T, "fa.minimize");
      OpMs += timeMs([&] {
        Det = Dfa::determinize(Spec.FA, Alphabet, S->table());
        Min = Det.minimizedHopcroft();
      });
    }
    T.count("fa.minimize.states_in", static_cast<double>(Det.numStates()));
    T.count("fa.minimize.states_out", static_cast<double>(Min.numStates()));

    size_t Accepted = 0, MinAccepted = 0;
    for (const Trace &Tr : Family) {
      Accepted += Spec.FA.accepts(Tr, S->table());
      MinAccepted += Min.accepts(Tr);
    }
    Log.check(Accepted == Family.size() && MinAccepted == Family.size(),
              Name + ": re-mined '" + LabelName +
                  "' does not accept its whole family");
    // The minimal DFA must reject exactly the bad classes the re-mined FA
    // rejects, which checks the rejected count at seeds where none is
    // pinned.
    size_t BadRejected = 0;
    bool SameVerdicts = true;
    for (size_t Obj = 0; Obj < S->numObjects(); ++Obj) {
      if (S->labelName(*S->labelOf(Obj)) != "bad")
        continue;
      bool Rejected = !Spec.FA.accepts(S->object(Obj), S->table());
      BadRejected += Rejected;
      SameVerdicts &= Rejected == !Min.accepts(S->object(Obj));
    }
    Log.check(SameVerdicts, Name + ": minimal DFA of '" + LabelName +
                                "' disagrees with the re-mined FA on a bad "
                                "class");
    Out.Specs.emplace_back(Min.numStates(), BadRejected);
  }
  Log.op(OpMs);
  return Out;
}

} // namespace

std::unique_ptr<Workload> cablebench::makeRemine() {
  return std::make_unique<Remine>();
}

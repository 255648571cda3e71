//===- cablebench/WideSession.cpp - Workload `wide_session` ---------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// A specification debugger opening large sessions and issuing commands:
// the §5.2 x-axis pushed up. Each session holds XtFree-style scenarios
// (allocate, any subset of a wide pool of uses in any order, free; with
// leaks, double frees and use-after-free mixed in) clustered against the
// unordered template FA. Opening is almost all cover computation. The
// command script then exercises label-state writes, the state reads of a
// coloured render, a small focus build, the learner behind Show FA, and
// the snapshot codec. No Table 3 strategy sweep runs here.
//
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include "concepts/NextClosureBuilder.h"
#include "fa/Templates.h"
#include "support/RNG.h"
#include "workload/Generator.h"
#include "workload/Oracle.h"

#include <algorithm>
#include <array>
#include <numeric>

using namespace cable;
using namespace cablebench;

namespace {

/// Optional-event pool width of each session in a pass. Most sessions share
/// one width so that open_ms_p50 falls inside one homogeneous group and
/// open_ms_p90 inside the widest.
constexpr std::array<unsigned, 5> PoolWidths = {9, 10, 10, 10, 11};
constexpr size_t ScenariosPerSession = 1000;
/// The focus command picks the largest concept with at most this many
/// traces (a small build, as when the user zooms in on one concept).
constexpr size_t FocusMaxExtent = 64;
/// Show FA is issued on this many concepts per session...
constexpr size_t ShowFAConcepts = 8;
/// ...each with an extent of this many traces.
constexpr size_t ShowFAMinExtent = 16, ShowFAMaxExtent = 32;

ProtocolModel wideModel(unsigned Width) {
  ProtocolModel M;
  M.Name = "Wide" + std::to_string(Width);
  M.Seeds = {"XtMalloc", "XtNew", "XtNewString"};
  std::vector<ProtoEvent> Pool;
  std::string Alt;
  for (unsigned I = 0; I < Width; ++I) {
    std::string Use = "Use" + std::to_string(I);
    Pool.push_back({Use, {0}});
    Alt += (I ? " | " : "") + Use + "(v0)";
  }
  ScenarioShape S;
  S.Steps.push_back(ShapeStep::oneOf(
      {{"XtMalloc", {0}}, {"XtNew", {0}}, {"XtNewString", {0}}},
      {0.5, 0.25, 0.25}));
  S.Steps.push_back(ShapeStep::optional(Pool, 0.5));
  S.Steps.push_back(ShapeStep::required({"XtFree", {0}}));
  M.Shapes.emplace_back(1.0, std::move(S));
  M.Errors.emplace_back(0.4, ErrorMode::dropNamed("XtFree"));
  M.Errors.emplace_back(0.35, ErrorMode::duplicateNamed("XtFree"));
  M.Errors.emplace_back(0.25, ErrorMode::appendNamed("Use0"));
  M.CorrectRegex = "[XtMalloc(v0) | XtNew(v0) | XtNewString(v0)] [" + Alt +
                   "]* XtFree(v0)";
  M.ErrorRate = 0.25;
  return M;
}

struct Input {
  ProtocolModel Model;
  TraceSet Scenarios;
  Automaton ReferenceFA;
  std::unique_ptr<Oracle> Truth;
};

/// What a session's commands produced; must repeat exactly every pass.
struct Outcome {
  size_t Concepts = 0, Edges = 0, Labeled = 0;
  std::array<size_t, 3> States = {0, 0, 0};
  size_t SnapshotBytes = 0, FocusConcepts = 0, FocusOps = 0;
  std::vector<size_t> ShowFAStates;
  bool operator==(const Outcome &) const = default;
};

class WideSession : public Workload {
public:
  void setup(uint64_t Seed) override;
  void pass(PassLog &Log, Tracer &T) override;

private:
  Outcome session(Input &In, bool Verify, PassLog &Log, Tracer &T);

  /// Concepts and cover edges of a lattice.
  using LatticeSize = std::pair<size_t, size_t>;

  uint64_t Seed = 0;
  std::vector<Input> Inputs;
  /// The order a pass opens the sessions in.
  std::vector<size_t> Order;
  std::vector<LatticeSize> Reference;
  std::vector<Outcome> Pinned;
  size_t Passes = 0;
};

void WideSession::setup(uint64_t WorkloadSeed) {
  Seed = WorkloadSeed;
  Inputs.clear();
  // The scenarios are the same at every workload seed; the seed orders the
  // sessions in a pass and which label the script gives first. Generated
  // per seed, the lattices and the concepts Show FA lands on moved the
  // pass time by 20% (quartile spread) from seed to seed.
  Order.resize(PoolWidths.size());
  std::iota(Order.begin(), Order.end(), size_t(0));
  if (Seed != 0) {
    RNG Shuffle(protocolSeed("order", Seed));
    Shuffle.shuffle(Order);
  }
  for (unsigned Width : PoolWidths) {
    Input In;
    In.Model = wideModel(Width);
    RNG Rand(protocolSeed(In.Model.Name + "." + std::to_string(Inputs.size()),
                          0));
    EventTable Table;
    WorkloadGenerator Gen(In.Model, Table);
    In.Scenarios = Gen.generateScenarios(Rand, ScenariosPerSession);
    In.ReferenceFA =
        makeUnorderedFA(templateAlphabet(In.Scenarios.traces()),
                        In.Scenarios.table());
    In.Truth = std::make_unique<Oracle>(In.Model, In.Scenarios.table());
    Inputs.push_back(std::move(In));
  }
}

void WideSession::pass(PassLog &Log, Tracer &T) {
  if (Reference.empty()) {
    // Once per run, in the warm-up pass and outside every timed call: the
    // size of each main lattice as the serial NextClosure builder gives
    // it. Every measured Session::build is checked against these.
    for (const Input &In : Inputs) {
      ConceptLattice L = NextClosureBuilder::buildLattice(relationOf(
          In.Scenarios, In.Scenarios.computeClasses(), In.ReferenceFA));
      Reference.emplace_back(L.size(), L.numEdges());
    }
    Log.check(Reference == std::vector<LatticeSize>{{3553, 19290},
                                                    {6361, 36194},
                                                    {6272, 35677},
                                                    {6059, 33947},
                                                    {11042, 65656}},
              "wide_session: lattice sizes differ from the pinned ones");
  }
  std::vector<Outcome> Outcomes;
  for (size_t I : Order)
    Outcomes.push_back(
        session(Inputs[I], I == Passes % Inputs.size(), Log, T));
  ++Passes;
  if (Pinned.empty())
    Pinned = Outcomes;
  Log.check(Outcomes == Pinned, "wide_session: outcomes differ from the "
                                "first pass");
}

Outcome WideSession::session(Input &In, bool Verify, PassLog &Log,
                             Tracer &T) {
  using NodeId = Session::NodeId;
  Outcome Out;
  const std::string Name =
      In.Model.Name + "#" + std::to_string(&In - Inputs.data());
  double OpenMs = 0;
  std::unique_ptr<Session> S =
      openSession(In.Scenarios, In.ReferenceFA, Log, T, OpenMs);
  Log.open(OpenMs);
  if (!S)
    return Out;
  const ConceptLattice &L = S->lattice();
  Out.Concepts = L.size();
  Out.Edges = L.numEdges();
  ReferenceLabeling Target =
      makeReferenceLabeling(*S, In.Truth->labelNames(*S));
  LabelId Good = S->internLabel("good"), Bad = S->internLabel("bad");

  // One interactive command: timed, counted as an operation.
  auto Command = [&](auto &&Fn) {
    T.beginOp();
    Log.op(timeMs(Fn));
  };

  // Label the children of top, alternating labels, then render.
  std::vector<NodeId> Children = L.children(L.top());
  for (size_t I = 0; I < Children.size(); ++I)
    Command([&] {
      Span Sp(T, "cable.label");
      size_t Changed = S->labelTraces(Children[I], TraceSelect::Unlabeled,
                                      (I + Seed) % 2 ? Bad : Good);
      T.count("cable.label.objects_changed", static_cast<double>(Changed));
    });
  Out.Labeled = S->numObjects() - S->unlabeledObjects().count();
  Command([&] {
    Span Sp(T, "cable.state", static_cast<double>(L.size()));
    for (NodeId Id = 0; Id < L.size(); ++Id)
      ++Out.States[static_cast<size_t>(S->stateOf(Id))];
  });

  // Save and restore the session; the restored state must re-serialize
  // byte for byte.
  std::string Snapshot;
  Status Loaded = Status::ok();
  Command([&] {
    Span Sp(T, "cable.snapshot");
    Snapshot = S->serializeSnapshot();
  });
  Command([&] {
    Span Sp(T, "cable.snapshot");
    Loaded = S->loadSnapshot(Snapshot);
  });
  T.count("cable.snapshot.bytes", 2 * static_cast<double>(Snapshot.size()));
  Out.SnapshotBytes = Snapshot.size();
  Log.check(Loaded.isOk() && S->serializeSnapshot() == Snapshot,
            Name + ": snapshot does not round-trip");

  // Undo everything.
  while (S->undoDepth() > 0)
    Command([&] {
      Span Sp(T, "cable.label");
      S->undo();
    });
  Log.check(S->unlabeledObjects().count() == S->numObjects(),
            Name + ": undo did not return to all-unlabeled");

  // Focus on the largest concept of at most FocusMaxExtent traces with
  // the seed-order template on XtFree, label inside with Top-down, merge
  // back, undo the merge.
  NodeId Focused = L.top();
  size_t FocusedSize = 0;
  for (NodeId Id = 0; Id < L.size(); ++Id) {
    size_t N = L.node(Id).Extent.count();
    if (N <= FocusMaxExtent && N > FocusedSize) {
      Focused = Id;
      FocusedSize = N;
    }
  }
  std::vector<Trace> Members;
  for (size_t Obj : L.node(Focused).Extent)
    Members.push_back(S->object(Obj));
  std::vector<EventId> Alphabet = templateAlphabet(Members);
  std::optional<EventId> Free;
  for (EventId E : Alphabet)
    if (S->table().nameText(S->table().event(E).Name) == "XtFree")
      Free = E;
  if (!Free) {
    Log.fail(Name + ": focused concept has no XtFree event");
    return Out;
  }
  Automaton FocusFA = makeSeedOrderFA(Alphabet, *Free, S->table());
  std::optional<FocusSession> F;
  Command([&] {
    Span Sp(T, "cable.focus");
    F.emplace(S->focus(Focused, FocusFA));
  });
  Out.FocusConcepts = F->Sub.lattice().size();
  if (Verify) {
    // ConceptLattice::verify is cubic (tens of seconds on the main
    // lattices), so it checks the focus lattice; the main lattices are
    // checked by their concept and edge counts against the serial builder.
    std::string WhyNot;
    Log.check(F->Sub.lattice().verify(F->Sub.context(), &WhyNot),
              Name + ": focus lattice fails verify: " + WhyNot);
  }
  T.count("cable.focus.sub_concepts", static_cast<double>(Out.FocusConcepts));
  ReferenceLabeling SubTarget =
      makeReferenceLabeling(F->Sub, In.Truth->labelNames(F->Sub));
  TopDownStrategy TopDown;
  double Ms = 0;
  StrategyCost Cost =
      runStrategy(TopDown, "topdown", F->Sub, SubTarget, Log, T, Ms);
  Log.op(Ms);
  Out.FocusOps = Cost.Finished ? Cost.total() : SIZE_MAX;
  Command([&] {
    Span Sp(T, "cable.label");
    S->mergeBack(*F);
  });
  T.count("cable.label.objects_changed",
          static_cast<double>(F->ParentObjects.size()));
  bool Merged = true;
  for (size_t SubObj = 0; SubObj < F->Sub.numObjects(); ++SubObj) {
    std::optional<LabelId> Here = S->labelOf(F->ParentObjects[SubObj]);
    if (Cost.Finished &&
        (!Here || *Here != Target.Target[F->ParentObjects[SubObj]]))
      Merged = false;
  }
  Log.check(Merged, Name + ": merged focus labels differ from the oracle");
  Command([&] {
    Span Sp(T, "cable.label");
    S->undo();
  });

  // Show FA on small concepts spread over the lattice.
  std::vector<NodeId> Small;
  for (NodeId Id = 0; Id < L.size(); ++Id) {
    size_t N = L.node(Id).Extent.count();
    if (N >= ShowFAMinExtent && N <= ShowFAMaxExtent)
      Small.push_back(Id);
  }
  for (size_t K = 0; K < ShowFAConcepts && !Small.empty(); ++K) {
    NodeId Id = Small[K * Small.size() / ShowFAConcepts];
    Automaton FA;
    Command([&] {
      Span Sp(T, "learner.skstrings");
      FA = S->showFA(Id, TraceSelect::All);
    });
    size_t Accepted = 0, Size = 0;
    for (size_t Obj : L.node(Id).Extent) {
      ++Size;
      Accepted += FA.accepts(S->object(Obj), S->table());
    }
    T.count("learner.skstrings.traces", static_cast<double>(Size));
    T.count("learner.skstrings.states", static_cast<double>(FA.numStates()));
    Log.check(Accepted == Size,
              Name + ": Show FA rejects a trace it summarizes");
    Out.ShowFAStates.push_back(FA.numStates());
  }

  const LatticeSize &Want = Reference[&In - Inputs.data()];
  Log.check(Out.Concepts == Want.first && Out.Edges == Want.second,
            Name + ": " + std::to_string(Out.Concepts) + " concepts, " +
                std::to_string(Out.Edges) + " edges; the serial builder " +
                "gives " + std::to_string(Want.first) + ", " +
                std::to_string(Want.second));
  return Out;
}

} // namespace

std::unique_ptr<Workload> cablebench::makeWideSession() {
  return std::make_unique<WideSession>();
}

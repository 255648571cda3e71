//===- cablebench/Workload.cpp - Shared workload plumbing -----------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include "concepts/NextClosureBuilder.h"

#include <algorithm>

using namespace cable;
using namespace cablebench;

std::unique_ptr<Workload> cablebench::makeWorkload(const std::string &Name) {
  if (Name == "table3")
    return makeTable3();
  if (Name == "wide_session")
    return makeWideSession();
  if (Name == "remine")
    return makeRemine();
  return nullptr;
}

Context cablebench::relationOf(const TraceSet &Traces,
                                const TraceClasses &Classes,
                                const Automaton &ReferenceFA) {
  Context Ctx(Classes.numClasses(), ReferenceFA.numTransitions());
  for (size_t Obj = 0; Obj < Classes.numClasses(); ++Obj)
    for (size_t A : ReferenceFA.executedTransitions(
             Classes.Representatives[Obj], Traces.table()))
      Ctx.relate(Obj, A);
  return Ctx;
}

namespace {

/// Books the stages of the Session::build that took \p BuildMs and produced
/// \p Built. Session::build runs dedup and the relation serially, so they
/// are re-run here under their own spans. What the build spent beyond them
/// is its lattice stage, which the default builder runs in parallel and
/// the benchmark cannot time from outside: it is booked whole as
/// cable.session.unattributed_ms, and split between concepts.enumerate and
/// concepts.covers in the proportion that a serial re-run of the two takes.
void decomposeBuild(const TraceSet &Traces, const Automaton &ReferenceFA,
                    const ConceptLattice &Built, double BuildMs, Tracer &T) {
  double SerialMs = 0;
  TraceClasses Classes;
  {
    Span S(T, "trace.dedup");
    Classes = Traces.computeClasses();
    SerialMs += S.close();
  }
  T.count("trace.dedup.traces", static_cast<double>(Traces.size()));
  T.count("trace.dedup.classes", static_cast<double>(Classes.numClasses()));

  Context Ctx;
  {
    Span S(T, "fa.relation");
    Ctx = relationOf(Traces, Classes, ReferenceFA);
    SerialMs += S.close();
  }
  T.count("fa.relation.objects", static_cast<double>(Classes.numClasses()));

  std::vector<Concept> Concepts;
  double EnumerateMs = timeMs([&] {
    for (BitVector &Intent : NextClosureBuilder::allClosedIntents(Ctx)) {
      BitVector Extent = Ctx.tau(Intent);
      Concepts.push_back({std::move(Extent), std::move(Intent)});
    }
  });
  double CoversMs = timeMs(
      [&] { (void)ConceptLattice::fromConcepts(std::move(Concepts)); });

  double LatticeMs = std::max(0.0, BuildMs - SerialMs);
  double EnumerateShare = EnumerateMs / (EnumerateMs + CoversMs);
  T.count("cable.session.unattributed_ms", LatticeMs);
  T.count("concepts.enumerate.calls", 1);
  T.count("concepts.enumerate.concepts", static_cast<double>(Built.size()));
  T.count("concepts.enumerate.busy_ms", LatticeMs * EnumerateShare);
  T.count("concepts.covers.calls", 1);
  T.count("concepts.covers.edges", static_cast<double>(Built.numEdges()));
  T.count("concepts.covers.busy_ms", LatticeMs * (1 - EnumerateShare));
}

} // namespace

std::unique_ptr<Session> cablebench::openSession(TraceSet Traces,
                                                 Automaton ReferenceFA,
                                                 PassLog &Log, Tracer &T,
                                                 double &Ms) {
  std::optional<TraceSet> TracesCopy;
  std::optional<Automaton> FACopy;
  if (T.armed()) {
    TracesCopy = Traces;
    FACopy = ReferenceFA;
  }
  std::optional<StatusOr<Session>> Built;
  {
    Span S(T, "cable.session");
    Ms = timeMs([&] {
      Built.emplace(Session::build(std::move(Traces), std::move(ReferenceFA)));
    });
  }
  if (!Built->isOk()) {
    Log.fail("Session::build: " + Built->status().message());
    return nullptr;
  }
  if (T.armed())
    decomposeBuild(*TracesCopy, *FACopy, (*Built)->lattice(), Ms, T);
  return std::make_unique<Session>(std::move(**Built));
}

StrategyCost cablebench::runStrategy(Strategy &Strat, const char *Layer,
                                     Session &S,
                                     const ReferenceLabeling &Target,
                                     PassLog &Log, Tracer &T, double &Ms) {
  std::string Name = std::string("cable.strategy.") + Layer;
  T.beginOp();
  StrategyCost Cost;
  {
    Span Sp(T, Name.c_str());
    Ms = timeMs([&] { Cost = Strat.run(S, Target); });
  }
  T.count(Name + ".ops", static_cast<double>(Cost.total()));
  T.count(Name + ".finished", Cost.Finished ? 1 : 0);
  T.count("cable.strategy.label_ops", static_cast<double>(Cost.LabelOps));
  T.count("cable.strategy.all_ops", static_cast<double>(Cost.total()));

  bool AllLabeled = false;
  {
    Span Sp(T, "cable.state");
    AllLabeled = S.allLabeled();
  }
  Log.check(AllLabeled == Cost.Finished,
            Strat.name() + ": finished flag disagrees with allLabeled()");
  if (Cost.Finished)
    Log.check(labelsMatch(S, Target.Target),
              Strat.name() + ": finished with labels other than the oracle's");
  return Cost;
}

bool cablebench::labelsMatch(const Session &S,
                             const std::vector<LabelId> &Target) {
  if (Target.size() != S.numObjects())
    return false;
  for (size_t Obj = 0; Obj < S.numObjects(); ++Obj) {
    std::optional<LabelId> L = S.labelOf(Obj);
    if (!L || *L != Target[Obj])
      return false;
  }
  return true;
}

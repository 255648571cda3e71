//===- bench/cache_startup.cpp - Artifact-cache warm-start speedup ---------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The point of the lattice artifact store is startup latency: a debugging
// session over an unchanged specification should pay a verified load, not
// a NextClosure rebuild. This bench measures that on the XtFree workload
// (the largest Table 1 protocol, on the order of a hundred concepts).
//
// The headline pair times exactly the work the cache replaces:
//
//   rebuild      NextClosureBuilder::buildLattice over the XtFree context
//                — what every uncached startup pays.
//   warm-load    ArtifactStore::load + full deserialize (mmap, header and
//                body CRC, every structural check) — what a warm startup
//                pays instead.
//
// `warm_speedup` (median rebuild / median warm-load) backs the "warm
// start is >= 10x cheaper than a rebuild" claim in docs/README.md.
//
// Two end-to-end sections put the same swap in session context — whole
// Session::build cold vs against a warm store — where scenario extraction
// and FA compilation dilute the ratio (`session_speedup`); both numbers
// are reported so neither can be mistaken for the other.
//
//===----------------------------------------------------------------------===//

#include "cable/Session.h"
#include "concepts/NextClosureBuilder.h"
#include "support/ArtifactStore.h"
#include "workload/Protocols.h"

#include "BenchCommon.h"

#include <algorithm>
#include <optional>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace cable;

namespace {

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return V[V.size() / 2];
}

double msSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

} // namespace

int main() {
  bench::BenchReport Report("cache_startup");

  // The front half of the pipeline, once: deterministic XtFree workload,
  // scenarios, reference FA, and the session whose context we cache.
  // XtFree at session scale: the Table 1 sizing knobs multiplied so the
  // lattice is big enough that construction cost (the thing the cache
  // removes) dominates the syscall floor of a load. The workload stays
  // deterministic — the seed derives from the unchanged protocol name.
  ProtocolModel Model = protocolByName("XtFree");
  Model.NumRuns *= 10;
  Model.ScenariosPerRun *= 2;
  bench::SpecEvaluation Eval = bench::evaluateProtocol(Model);
  Session &S = *Eval.S;
  const Context &Ctx = S.context();
  size_t Concepts = S.lattice().size();

  LatticeArtifactMeta Meta;
  Meta.ContextHash = Ctx.contentHash();
  Meta.Builder = "nextclosure";
  Meta.Budget = "full";
  Meta.NumObjects = Ctx.numObjects();
  Meta.NumAttributes = Ctx.numAttributes();

  std::string CacheDir = "/tmp/cable_bench_cache";
  std::string Purge = "rm -rf " + CacheDir;
  std::system(Purge.c_str());
  ArtifactStore Store(CacheDir);
  if (!Store.prepare().isOk()) {
    std::fprintf(stderr, "FATAL: cannot create %s\n", CacheDir.c_str());
    return 1;
  }
  std::string Key = Meta.ContextHash + ".nextclosure.full";

  const int Reps = bench::BenchReport::quick() ? 5 : 25;
  std::vector<double> Rebuild, WarmLoad;

  // One-time warm-up price: serialize + atomic publish.
  {
    bench::BenchTimer Timer(Report, "store-publish");
    Status St = Store.store(Key, S.lattice().serialize(Meta));
    if (!St.isOk()) {
      std::fprintf(stderr, "FATAL: store failed: %s\n", St.message().c_str());
      return 1;
    }
  }

  for (int R = 0; R < Reps; ++R) {
    {
      std::optional<ConceptLattice> L;
      auto T0 = std::chrono::steady_clock::now();
      L.emplace(NextClosureBuilder::buildLattice(Ctx));
      double Ms = msSince(T0);
      if (L->size() != Concepts)
        return 1;
      Report.sample("rebuild", Ms);
      Rebuild.push_back(Ms);
    }
    // The loaded lattice is kept alive past the timer: a real warm start
    // moves it into the session, so its eventual destruction is not a
    // startup cost (the rebuild above gets the same treatment).
    std::optional<ConceptLattice> Keep;
    auto T0 = std::chrono::steady_clock::now();
    Status St = Store.load(Key, [&](std::string_view Bytes) {
      StatusOr<ConceptLattice> L = ConceptLattice::deserialize(
          Bytes, Meta, Store.artifactPath(Key));
      if (!L.isOk())
        return L.status();
      Keep.emplace(std::move(L.value()));
      return Status::ok();
    });
    double Ms = msSince(T0);
    if (!St.isOk() || !Keep || Keep->size() != Concepts) {
      std::fprintf(stderr, "FATAL: warm load failed: %s\n",
                   St.message().c_str());
      return 1;
    }
    Report.sample("warm-load", Ms);
    WarmLoad.push_back(Ms);
  }

  // End-to-end context: the same swap inside Session::build, where the
  // non-lattice startup work (scenario copies, FA compilation) dilutes
  // the ratio.
  std::vector<double> SessionCold, SessionWarm;
  const int SessionReps = bench::BenchReport::quick() ? 3 : 7;
  for (int R = 0; R < SessionReps; ++R) {
    SessionOptions Opts;
    for (bool Warm : {false, true}) {
      Opts.CacheDir = Warm ? CacheDir : "";
      auto T0 = std::chrono::steady_clock::now();
      StatusOr<Session> Built =
          Session::build(Eval.S->allTraces(), Eval.S->referenceFA(), Opts);
      double Ms = msSince(T0);
      if (!Built.isOk()) {
        std::fprintf(stderr, "FATAL: session build failed: %s\n",
                     Built.status().message().c_str());
        return 1;
      }
      Report.sample(Warm ? "session-warm" : "session-cold", Ms);
      (Warm ? SessionWarm : SessionCold).push_back(Ms);
    }
  }
  std::system(Purge.c_str());

  double Speedup = median(Rebuild) / median(WarmLoad);
  double SessionSpeedup = median(SessionCold) / median(SessionWarm);
  Report.counter("concepts", static_cast<double>(Concepts));
  Report.counter("warm_speedup", Speedup);
  Report.counter("session_speedup", SessionSpeedup);

  std::printf("cache startup (XtFree, %zu concepts, %d reps)\n", Concepts,
              Reps);
  std::printf("  rebuild            %8.3f ms (median)\n", median(Rebuild));
  std::printf("  warm-load          %8.3f ms (median)\n", median(WarmLoad));
  std::printf("  warm_speedup       %8.1fx\n", Speedup);
  std::printf("  session cold/warm  %8.3f / %.3f ms -> %.1fx\n",
              median(SessionCold), median(SessionWarm), SessionSpeedup);
  Report.write();
  return 0;
}

//===- bench/scaling_lattice.cpp - §5.2 / §3.1.1 scaling claims ------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The paper's efficiency claims:
//   §3.1.1 — Godin's algorithm runs in O(2^2k * |O|) for k an upper bound
//            on attributes per object (k < 10, |O| up to hundreds there);
//   §5.2   — lattice sizes grew roughly linearly with the number of FA
//            transitions, and times slightly worse than linearly.
//
// Benchmarks sweep |O| at fixed k (expect ~linear time) and k at fixed
// |O| (expect steep growth), and a trace-workload sweep over the number
// of reference-FA transitions. Concept counts are reported as counters.
//
//===----------------------------------------------------------------------===//

#include "concepts/Covers.h"
#include "concepts/GodinBuilder.h"
#include "concepts/NextClosureBuilder.h"
#include "fa/Templates.h"
#include "support/RNG.h"
#include "cable/Session.h"
#include "workload/Generator.h"
#include "workload/ReferenceFA.h"

#include "support/simd/Kernels.h"

#include "BenchCommon.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

using namespace cable;

namespace {

/// Random context with exactly K attributes per object, drawn from a pool
/// whose size scales with K (mirrors FA transitions per trace).
Context randomContext(size_t NumObjects, size_t K, size_t PoolSize,
                      uint64_t Seed) {
  RNG Rand(Seed);
  Context Ctx(NumObjects, PoolSize);
  for (size_t O = 0; O < NumObjects; ++O) {
    for (size_t J = 0; J < K; ++J)
      Ctx.relate(O, Rand.nextIndex(PoolSize));
  }
  return Ctx;
}

void BM_GodinVsObjects(benchmark::State &State) {
  size_t NumObjects = static_cast<size_t>(State.range(0));
  Context Ctx = randomContext(NumObjects, /*K=*/6, /*PoolSize=*/24, 42);
  size_t Concepts = 0;
  for (auto _ : State) {
    ConceptLattice L = GodinBuilder::buildLattice(Ctx);
    Concepts = L.size();
    benchmark::DoNotOptimize(L);
  }
  State.counters["concepts"] = static_cast<double>(Concepts);
  State.counters["objects"] = static_cast<double>(NumObjects);
}

void BM_GodinVsK(benchmark::State &State) {
  size_t K = static_cast<size_t>(State.range(0));
  Context Ctx = randomContext(/*NumObjects=*/128, K, /*PoolSize=*/4 * K, 43);
  size_t Concepts = 0;
  for (auto _ : State) {
    ConceptLattice L = GodinBuilder::buildLattice(Ctx);
    Concepts = L.size();
    benchmark::DoNotOptimize(L);
  }
  State.counters["concepts"] = static_cast<double>(Concepts);
  State.counters["k"] = static_cast<double>(K);
}

/// §5.2's x-axis: the number of reference-FA transitions, varied by
/// growing the XtFree-style alphabet; lattice size should track it
/// roughly linearly.
void BM_LatticeVsTransitions(benchmark::State &State) {
  size_t NumUses = static_cast<size_t>(State.range(0));
  ProtocolModel M = protocolByName("XtFree");
  // Regenerate the optional-use pool at the requested width.
  std::vector<ProtoEvent> Uses;
  for (size_t I = 0; I < NumUses; ++I)
    Uses.push_back(ProtoEvent{"Use" + std::to_string(I), {0}});
  M.Shapes[0].second.Steps[1] = ShapeStep::optional(Uses, 0.5);

  EventTable Table;
  WorkloadGenerator Gen(M, Table);
  RNG Rand(44);
  TraceSet Scenarios = Gen.generateScenarios(Rand, 200);
  TraceSet Unique = Scenarios.dedup();
  Automaton Ref =
      makeUnorderedFA(templateAlphabet(Unique.traces()), Unique.table());

  Context Ctx(Unique.size(), Ref.numTransitions());
  for (size_t Obj = 0; Obj < Unique.size(); ++Obj)
    for (size_t A : Ref.executedTransitions(Unique[Obj], Unique.table()))
      Ctx.relate(Obj, A);

  size_t Concepts = 0;
  for (auto _ : State) {
    ConceptLattice L = GodinBuilder::buildLattice(Ctx);
    Concepts = L.size();
    benchmark::DoNotOptimize(L);
  }
  State.counters["fa_transitions"] = static_cast<double>(Ref.numTransitions());
  State.counters["concepts"] = static_cast<double>(Concepts);
  State.counters["unique_traces"] = static_cast<double>(Unique.size());
}

/// End-to-end session construction (R computation + Godin + covers) on
/// the largest evaluation workload.
void BM_SessionBuild(benchmark::State &State) {
  ProtocolModel M = protocolByName("XtFree");
  EventTable Table;
  WorkloadGenerator Gen(M, Table);
  RNG Rand(46);
  TraceSet Scenarios =
      Gen.generateScenarios(Rand, static_cast<size_t>(State.range(0)));
  Automaton Ref =
      makeProtocolReferenceFA(Scenarios.traces(), Scenarios.table(), M);
  size_t Concepts = 0;
  for (auto _ : State) {
    Session S(Scenarios, Ref);
    Concepts = S.lattice().size();
    benchmark::DoNotOptimize(S);
  }
  State.counters["concepts"] = static_cast<double>(Concepts);
  State.counters["scenarios"] =
      static_cast<double>(State.range(0));
}

/// NextClosure on the largest context of the sweep.
void BM_NextClosureSerial(benchmark::State &State) {
  Context Ctx = randomContext(/*NumObjects=*/512, /*K=*/6, /*PoolSize=*/24, 42);
  size_t Concepts = 0;
  for (auto _ : State) {
    ConceptLattice L = NextClosureBuilder::buildLattice(Ctx);
    Concepts = L.size();
    benchmark::DoNotOptimize(L);
  }
  State.counters["concepts"] = static_cast<double>(Concepts);
  State.counters["lattices_per_s"] =
      benchmark::Counter(static_cast<double>(State.iterations()),
                         benchmark::Counter::kIsRate);
}

void BM_ExecutedTransitions(benchmark::State &State) {
  ProtocolModel M = protocolByName("XtFree");
  EventTable Table;
  WorkloadGenerator Gen(M, Table);
  RNG Rand(45);
  TraceSet Scenarios = Gen.generateScenarios(Rand, 64);
  Automaton Ref =
      makeUnorderedFA(templateAlphabet(Scenarios.traces()), Scenarios.table());
  size_t I = 0;
  for (auto _ : State) {
    BitVector Row = Ref.executedTransitions(
        Scenarios[I++ % Scenarios.size()], Scenarios.table());
    benchmark::DoNotOptimize(Row);
  }
}

//===----------------------------------------------------------------------===//
// Kernel & closure throughput probes (always emitted into the BENCH JSON;
// tests/bench/kernel_guard.sh gates on these sections and counters).
//===----------------------------------------------------------------------===//

double median(std::vector<double> Xs) {
  if (Xs.empty())
    return 0;
  std::sort(Xs.begin(), Xs.end());
  return Xs[Xs.size() / 2];
}

/// Contranominal scale N: the 2^N worst case; N=24 is the issue's closure
/// throughput workload (closures over random subsets, never a full
/// enumeration).
Context contranominal(size_t N) {
  Context Ctx(N, N);
  for (size_t O = 0; O < N; ++O)
    for (size_t A = 0; A < N; ++A)
      if (O != A)
        Ctx.relate(O, A);
  return Ctx;
}

/// The §5.2 trace-workload context: \p Scenarios XtFree-style scenarios
/// with a \p PoolWidth-event optional pool, deduplicated and related to
/// the unordered reference FA (FA-transition attributes) — the realistic
/// shape behind the paper's figures. At (10, 200) it is the evaluation
/// scale (~200 objects); at (9, 1000) the wide_session shape (982
/// objects, 16-word extents, thousands of concepts).
Context xtFreeContext(size_t PoolWidth, size_t Scenarios) {
  ProtocolModel M = protocolByName("XtFree");
  std::vector<ProtoEvent> Uses;
  for (size_t I = 0; I < PoolWidth; ++I)
    Uses.push_back(ProtoEvent{"Use" + std::to_string(I), {0}});
  M.Shapes[0].second.Steps[1] = ShapeStep::optional(Uses, 0.5);
  EventTable Table;
  WorkloadGenerator Gen(M, Table);
  RNG Rand(44);
  TraceSet Unique = Gen.generateScenarios(Rand, Scenarios).dedup();
  Automaton Ref =
      makeUnorderedFA(templateAlphabet(Unique.traces()), Unique.table());
  Context Ctx(Unique.size(), Ref.numTransitions());
  for (size_t Obj = 0; Obj < Unique.size(); ++Obj)
    for (size_t A : Ref.executedTransitions(Unique[Obj], Unique.table()))
      Ctx.relate(Obj, A);
  return Ctx;
}

/// Times closeIntent over a fixed battery of random attribute subsets on
/// the fused path and the legacy reference path, records both sections,
/// and returns median(reference) / median(fused) — the speedup the guard
/// and the acceptance criterion key on.
double closureThroughputProbe(cable::bench::BenchReport &Report,
                              const std::string &Tag, const Context &Ctx,
                              int Samples, int Closures) {
  RNG Rand(0x5EED + Ctx.numAttributes());
  std::vector<BitVector> Subsets;
  for (int I = 0; I < 64; ++I) {
    BitVector S(Ctx.numAttributes());
    for (size_t A = 0; A < Ctx.numAttributes(); ++A)
      if (Rand.nextBool(0.35))
        S.set(A);
    Subsets.push_back(std::move(S));
  }
  BitVector ObjScratch(Ctx.numObjects()), Out(Ctx.numAttributes());
  std::vector<double> FusedMs, RefMs;
  for (int S = 0; S < Samples; ++S) {
    FusedMs.push_back(Report.timeSample("closure-" + Tag, [&] {
      for (int I = 0; I < Closures; ++I) {
        Ctx.closeIntentInto(Subsets[I % Subsets.size()], ObjScratch, Out);
        benchmark::DoNotOptimize(Out);
      }
    }));
    RefMs.push_back(Report.timeSample("closure-" + Tag + "-ref", [&] {
      for (int I = 0; I < Closures; ++I) {
        BitVector C =
            Ctx.closeIntentReference(Subsets[I % Subsets.size()]);
        benchmark::DoNotOptimize(C);
      }
    }));
  }
  double FusedMed = median(FusedMs), RefMed = median(RefMs);
  Report.counter("closures_per_s_" + Tag,
                 FusedMed > 0 ? 1e3 * Closures / FusedMed : 0);
  double Speedup = FusedMed > 0 ? RefMed / FusedMed : 0;
  Report.counter("closure_speedup_" + Tag, Speedup);
  return Speedup;
}

/// Times cover computation over the concepts of \p Ctx, both serial: the
/// pairwise coversAt scan (the oracle, and the cover algorithm of every
/// complete build before neighbour counting) against computeCovers.
/// Records sections covers-scan-<tag> / covers-count-<tag> and the counter
/// cover_speedup_<tag> = median(scan) / median(count) that
/// tests/bench/cover_guard.sh gates on.
void coverSpeedupProbe(cable::bench::BenchReport &Report,
                       const std::string &Tag, const Context &Ctx,
                       int Samples) {
  std::vector<Concept> Concepts;
  for (BitVector &Intent : NextClosureBuilder::allClosedIntents(Ctx)) {
    Concept C;
    C.Extent = Ctx.tau(Intent);
    C.Intent = std::move(Intent);
    Concepts.push_back(std::move(C));
  }
  size_t ScanEdges = 0, CountEdges = 0;
  std::vector<double> ScanMs, CountMs;
  for (int S = 0; S < Samples; ++S) {
    ScanMs.push_back(Report.timeSample("covers-scan-" + Tag, [&] {
      std::vector<size_t> Card(Concepts.size());
      for (size_t I = 0; I < Concepts.size(); ++I)
        Card[I] = Concepts[I].Extent.count();
      std::vector<ConceptLattice::NodeId> Order =
          ConceptLattice::coverScanOrder(Card);
      ScanEdges = 0;
      for (size_t AI = 0; AI < Order.size(); ++AI)
        ScanEdges += ConceptLattice::coversAt(Concepts, Order, Card, AI).size();
    }));
    CountMs.push_back(Report.timeSample("covers-count-" + Tag, [&] {
      CoverLists Covers = computeCovers(Ctx, Concepts);
      CountEdges = 0;
      for (const std::vector<ConceptLattice::NodeId> &P : Covers.Parents)
        CountEdges += P.size();
    }));
  }
  double ScanMed = median(ScanMs), CountMed = median(CountMs);
  Report.counter("cover_speedup_" + Tag,
                 CountMed > 0 ? ScanMed / CountMed : 0);
  Report.counter("cover_objects_" + Tag,
                 static_cast<double>(Ctx.numObjects()));
  Report.counter("cover_concepts_" + Tag,
                 static_cast<double>(Concepts.size()));
  Report.counter("cover_edges_agree_" + Tag, ScanEdges == CountEdges ? 1 : 0);
}

/// Fused-AND throughput sections for each form this CPU can run:
/// kernel-andmany-portable, and kernel-andmany-avx2 when the CPU has AVX2.
/// kernel_guard.sh gates on the AVX2 form not being slower.
void andManyThroughputProbe(cable::bench::BenchReport &Report, int Samples,
                            int Reps) {
  using AndManyFn = decltype(&simd::andManyInto);
  std::vector<std::pair<std::string, AndManyFn>> Forms = {
      {"portable", simd::andManyInto}};
#ifdef CABLE_KERNELS_HAVE_AVX2
  if (__builtin_cpu_supports("avx2"))
    Forms.push_back({"avx2", simd::detail::andManyIntoAVX2});
#endif
  constexpr size_t W = 64; // 4096-bit operands: the XtFree row scale.
  std::vector<uint64_t> A(W), B(W), Dst(W);
  RNG Rand(7);
  for (size_t I = 0; I < W; ++I) {
    A[I] = Rand.next();
    B[I] = Rand.next();
  }
  const uint64_t *Rows[8] = {A.data(), B.data(), A.data(), B.data(),
                             A.data(), B.data(), A.data(), B.data()};
  for (int S = 0; S < Samples; ++S)
    for (const auto &[Name, AndMany] : Forms)
      Report.timeSample("kernel-andmany-" + Name, [&] {
        Dst = A;
        for (int I = 0; I < Reps; ++I) {
          AndMany(Dst.data(), Rows, 8, W);
          benchmark::DoNotOptimize(Dst.data());
        }
      });
}

} // namespace

BENCHMARK(BM_GodinVsObjects)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.05);
BENCHMARK(BM_GodinVsK)
    ->DenseRange(2, 9, 1)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.05);
BENCHMARK(BM_LatticeVsTransitions)
    ->Arg(2)
    ->Arg(4)
    ->Arg(6)
    ->Arg(8)
    ->Arg(10)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.05);
BENCHMARK(BM_SessionBuild)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.05);
BENCHMARK(BM_NextClosureSerial)->Unit(benchmark::kMillisecond)->MinTime(0.05);
BENCHMARK(BM_ExecutedTransitions)->MinTime(0.05);

// Custom main instead of BENCHMARK_MAIN(): always emit the BENCH JSON
// (fixed Godin / NextClosure probes on the 512-object sweep
// context), and run the full google-benchmark sweeps only outside quick
// mode. This binary is also the subject of the disarmed-instrumentation
// overhead guard (tests/bench/overhead_guard.sh), which compares its
// probe medians across a CABLE_NO_INSTRUMENT build.
int main(int Argc, char **Argv) {
  cable::bench::BenchReport Report("scaling_lattice");
  {
    Context Ctx = randomContext(/*NumObjects=*/512, /*K=*/6, /*PoolSize=*/24,
                                42);
    int Samples = cable::bench::BenchReport::quick() ? 3 : 11;
    size_t Concepts = 0;
    for (int I = 0; I < Samples; ++I) {
      Report.timeSample("godin-512", [&] {
        ConceptLattice L = GodinBuilder::buildLattice(Ctx);
        Concepts = L.size();
        benchmark::DoNotOptimize(L);
      });
      Report.timeSample("next-closure-512", [&] {
        ConceptLattice L = NextClosureBuilder::buildLattice(Ctx);
        benchmark::DoNotOptimize(L);
      });
    }
    Report.counter("concepts", static_cast<double>(Concepts));
  }

  // Cover computation: neighbour counting against the pairwise scan, on
  // the random k=6 contexts (the cover guard's) and the wide_session
  // shape. Emitted in quick mode too.
  {
    int Samples = cable::bench::BenchReport::quick() ? 3 : 7;
    for (size_t NumObjects : {512, 2048})
      coverSpeedupProbe(Report, std::to_string(NumObjects),
                        randomContext(NumObjects, /*K=*/6, /*PoolSize=*/24,
                                      42),
                        Samples);
    coverSpeedupProbe(Report, "wide", xtFreeContext(9, 1000), Samples);
  }

  // Fused-AND and closure throughput probes for the kernel regression
  // guard. Sections exist in quick mode too — smaller, but the guard's
  // one-sided comparisons still hold.
  {
    bool Quick = cable::bench::BenchReport::quick();
    int Samples = Quick ? 5 : 11;
    int Reps = Quick ? 2000 : 20000;
    andManyThroughputProbe(Report, Samples, Reps);

    int Closures = Quick ? 4000 : 40000;
    closureThroughputProbe(Report, "contranominal24", contranominal(24),
                           Samples, Closures);
    closureThroughputProbe(Report, "xtfree", xtFreeContext(10, 200), Samples,
                           Quick ? 400 : 4000);
  }

  if (!cable::bench::BenchReport::quick()) {
    benchmark::Initialize(&Argc, Argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  Report.write();
  return 0;
}

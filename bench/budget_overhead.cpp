//===- bench/budget_overhead.cpp - Budget checkpoint cost ------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The budgeted entry points poll a BudgetMeter once per candidate closure
// (docs/ALGORITHMS.md, "Budgets, cancellation, and truncation"). These
// sweeps measure that overhead: each builder runs the same context through
// its unbudgeted path and through buildLatticeBudgeted with an unlimited
// meter — the pair should be within noise of each other. A third sweep
// measures how quickly a 10 ms deadline actually stops a contranominal
// build (the worst-case exponential input), reporting the enumerated
// prefix size as a counter.
//
//===----------------------------------------------------------------------===//

#include "concepts/GodinBuilder.h"
#include "concepts/NextClosureBuilder.h"
#include "support/Budget.h"
#include "support/RNG.h"

#include "BenchCommon.h"

#include <benchmark/benchmark.h>

using namespace cable;

namespace {

Context randomContext(size_t NumObjects, size_t K, size_t PoolSize,
                      uint64_t Seed) {
  RNG Rand(Seed);
  Context Ctx(NumObjects, PoolSize);
  for (size_t O = 0; O < NumObjects; ++O)
    for (size_t J = 0; J < K; ++J)
      Ctx.relate(O, Rand.nextIndex(PoolSize));
  return Ctx;
}

/// Object i related to every attribute except i: the lattice is the full
/// powerset, 2^N concepts — the adversarial budget-test input.
Context contranominal(size_t N) {
  Context Ctx(N, N);
  for (size_t O = 0; O < N; ++O)
    for (size_t A = 0; A < N; ++A)
      if (O != A)
        Ctx.relate(O, A);
  return Ctx;
}

void BM_NextClosureUnbudgeted(benchmark::State &State) {
  Context Ctx = randomContext(64, 6, 24, 42);
  for (auto _ : State) {
    ConceptLattice L = NextClosureBuilder::buildLattice(Ctx);
    benchmark::DoNotOptimize(L);
  }
}
BENCHMARK(BM_NextClosureUnbudgeted);

void BM_NextClosureUnlimitedMeter(benchmark::State &State) {
  Context Ctx = randomContext(64, 6, 24, 42);
  for (auto _ : State) {
    BudgetMeter Meter{Budget{}};
    LatticeBuildResult R = NextClosureBuilder::buildLatticeBudgeted(Ctx, Meter);
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_NextClosureUnlimitedMeter);

void BM_GodinUnbudgeted(benchmark::State &State) {
  Context Ctx = randomContext(64, 6, 24, 42);
  for (auto _ : State) {
    ConceptLattice L = GodinBuilder::buildLattice(Ctx);
    benchmark::DoNotOptimize(L);
  }
}
BENCHMARK(BM_GodinUnbudgeted);

void BM_GodinUnlimitedMeter(benchmark::State &State) {
  Context Ctx = randomContext(64, 6, 24, 42);
  for (auto _ : State) {
    BudgetMeter Meter{Budget{}};
    LatticeBuildResult R = GodinBuilder::buildLatticeBudgeted(Ctx, Meter);
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_GodinUnlimitedMeter);

/// How fast a 10 ms deadline stops the exponential worst case, and how
/// large a prefix survives. Not a throughput number — the interesting
/// output is wall time staying near the deadline instead of 2^22.
void BM_DeadlineStopsContranominal(benchmark::State &State) {
  Context Ctx = contranominal(22);
  size_t Kept = 0;
  for (auto _ : State) {
    Budget B;
    B.TimeLimit = std::chrono::milliseconds(10);
    BudgetMeter Meter(B);
    LatticeBuildResult R = NextClosureBuilder::buildLatticeBudgeted(Ctx, Meter);
    Kept = R.Lattice.size();
    benchmark::DoNotOptimize(R);
  }
  State.counters["kept_concepts"] = static_cast<double>(Kept);
}
BENCHMARK(BM_DeadlineStopsContranominal)->Unit(benchmark::kMillisecond);

} // namespace

// Custom main instead of BENCHMARK_MAIN(): always emit the BENCH JSON
// (a fixed paired probe of the unbudgeted vs. unlimited-meter paths),
// and run the full google-benchmark sweeps only outside quick mode.
int main(int Argc, char **Argv) {
  cable::bench::BenchReport Report("budget_overhead");
  {
    Context Ctx = randomContext(64, 6, 24, 42);
    int Samples = cable::bench::BenchReport::quick() ? 3 : 11;
    for (int I = 0; I < Samples; ++I) {
      Report.timeSample("next-closure-unbudgeted", [&] {
        ConceptLattice L = NextClosureBuilder::buildLattice(Ctx);
        benchmark::DoNotOptimize(L);
      });
      Report.timeSample("next-closure-unlimited-meter", [&] {
        BudgetMeter Meter{Budget{}};
        LatticeBuildResult R =
            NextClosureBuilder::buildLatticeBudgeted(Ctx, Meter);
        benchmark::DoNotOptimize(R);
      });
    }
    Budget B;
    B.TimeLimit = std::chrono::milliseconds(10);
    BudgetMeter Meter(B);
    LatticeBuildResult R =
        NextClosureBuilder::buildLatticeBudgeted(contranominal(22), Meter);
    Report.counter("deadline_kept_concepts",
                   static_cast<double>(R.Lattice.size()));
  }
  if (!cable::bench::BenchReport::quick()) {
    benchmark::Initialize(&Argc, Argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  Report.write();
  return 0;
}

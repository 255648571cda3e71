//===- bench/budget_overhead.cpp - Budget deadline response ----------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The NextClosure build polls a BudgetMeter once per candidate closure
// (docs/ALGORITHMS.md, "Budgets and truncation"). This sweep measures how
// quickly a 10 ms deadline actually stops a contranominal build (the
// worst-case exponential input), reporting the kept prefix size as a
// counter.
//
//===----------------------------------------------------------------------===//

#include "concepts/NextClosureBuilder.h"
#include "support/Budget.h"

#include "BenchCommon.h"

#include <benchmark/benchmark.h>

using namespace cable;

namespace {

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

/// One build of \p Ctx under a 10 ms deadline.
LatticeBuildResult buildUnderDeadline(const Context &Ctx) {
  Budget B;
  B.TimeLimit = std::chrono::milliseconds(10);
  BudgetMeter Meter(B);
  return NextClosureBuilder::buildLatticeBudgeted(Ctx, Meter);
}

/// How fast a 10 ms deadline stops the exponential worst case, and how
/// large a prefix survives. Not a throughput number — the interesting
/// output is wall time staying near the deadline instead of 2^22.
void BM_DeadlineStopsContranominal(benchmark::State &State) {
  Context Ctx = contranominal(22);
  size_t Kept = 0;
  for (auto _ : State) {
    LatticeBuildResult R = buildUnderDeadline(Ctx);
    Kept = R.Lattice.size();
    benchmark::DoNotOptimize(R);
  }
  State.counters["kept_concepts"] = static_cast<double>(Kept);
}
BENCHMARK(BM_DeadlineStopsContranominal)->Unit(benchmark::kMillisecond);

} // namespace

// Custom main instead of BENCHMARK_MAIN(): always emit the BENCH JSON
// (the kept prefix of one deadline-stopped build), and run the full
// google-benchmark sweep only outside quick mode.
int main(int Argc, char **Argv) {
  cable::bench::BenchReport Report("budget_overhead");
  LatticeBuildResult R = buildUnderDeadline(contranominal(22));
  Report.counter("deadline_kept_concepts",
                 static_cast<double>(R.Lattice.size()));
  if (!cable::bench::BenchReport::quick()) {
    benchmark::Initialize(&Argc, Argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  Report.write();
  return 0;
}

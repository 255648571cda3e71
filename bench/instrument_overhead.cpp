//===- bench/instrument_overhead.cpp - Disarmed-instrumentation cost -------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The observability layer's contract is that *disarmed* instrumentation
// (no --metrics-out / --trace-out) costs one relaxed atomic load per
// site, so it can stay compiled into every hot loop. This binary puts a
// number on that: it times the NextClosure enumeration — the densest
// instrumentation site, one closure counter bump per candidate — with
// metrics disarmed and then armed, and prints greppable min-of-N lines.
//
// tests/bench/overhead_guard.sh runs the same binary from a nested
// -DCABLE_NO_INSTRUMENT=ON build and asserts the disarmed medians agree
// within 2%, turning "the disarmed path is free" from a comment into a
// regression test.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "concepts/NextClosureBuilder.h"
#include "support/Log.h"
#include "support/Metrics.h"
#include "support/RNG.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

using namespace cable;
using namespace cable::bench;

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

double buildOnceMs(const Context &Ctx) {
  auto Start = std::chrono::steady_clock::now();
  ConceptLattice L = NextClosureBuilder::buildLattice(Ctx);
  double Ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - Start)
                  .count();
  // Keep the build observable so the whole loop cannot be elided.
  return L.size() > 0 ? Ms : -1;
}

double minOf(const std::vector<double> &Samples) {
  return *std::min_element(Samples.begin(), Samples.end());
}

double medianOf(std::vector<double> Samples) {
  std::sort(Samples.begin(), Samples.end());
  return Samples[Samples.size() / 2];
}

} // namespace

int main() {
  Context Ctx = randomContext(/*NumObjects=*/512, /*K=*/6, /*PoolSize=*/24,
                              42);
  int Samples = BenchReport::quick() ? 7 : 21;

  // Measure the disarmed path FIRST, before BenchReport arms the
  // registry; this is the state every un-flagged production run is in
  // (and the only state a CABLE_NO_INSTRUMENT build has).
  Metrics::setEnabled(false);
  buildOnceMs(Ctx); // warm-up: fault in code and the context's pages
  std::vector<double> Disarmed;
  for (int I = 0; I < Samples; ++I)
    Disarmed.push_back(buildOnceMs(Ctx));

  Metrics::setEnabled(true);
  std::vector<double> Armed;
  for (int I = 0; I < Samples; ++I)
    Armed.push_back(buildOnceMs(Ctx));

  // Armed-but-quiet logging: --log-out arms the Log gate for the whole
  // process, but log events mark rare conditions (cache faults, torn
  // journals) — the closure hot loop emits nothing. The
  // only admissible cost is the relaxed load at whatever CABLE_LOG sites
  // the build passes, so this phase must clock in at disarmed speed.
  Metrics::setEnabled(false);
  Log::setEnabled(true);
  std::vector<double> LogArmed;
  for (int I = 0; I < Samples; ++I)
    LogArmed.push_back(buildOnceMs(Ctx));
  Log::setEnabled(false);
  Log::drainRecords(); // drop anything a cold path emitted

  double DisarmedMedian = medianOf(Disarmed);
  double ArmedMedian = medianOf(Armed);
  double OverheadPct =
      DisarmedMedian > 0
          ? (ArmedMedian - DisarmedMedian) / DisarmedMedian * 100.0
          : 0;
  double LogArmedMedian = medianOf(LogArmed);
  double LogOverheadPct =
      DisarmedMedian > 0
          ? (LogArmedMedian - DisarmedMedian) / DisarmedMedian * 100.0
          : 0;

  // Greppable lines for the overhead-guard script; min-of-N is the
  // noise-robust statistic for same-machine comparisons.
  std::printf("instrument_overhead: next-closure 512 objects, %d samples\n",
              Samples);
  std::printf("disarmed_min_ms %.4f\n", minOf(Disarmed));
  std::printf("disarmed_median_ms %.4f\n", DisarmedMedian);
  std::printf("armed_min_ms %.4f\n", minOf(Armed));
  std::printf("armed_median_ms %.4f\n", ArmedMedian);
  std::printf("armed_overhead_pct %.2f\n", OverheadPct);
  std::printf("log_armed_min_ms %.4f\n", minOf(LogArmed));
  std::printf("log_armed_median_ms %.4f\n", LogArmedMedian);
  std::printf("log_armed_overhead_pct %.2f\n", LogOverheadPct);

  BenchReport Report("instrument_overhead");
  for (double Ms : Disarmed)
    Report.sample("next-closure-disarmed", Ms);
  for (double Ms : Armed)
    Report.sample("next-closure-armed", Ms);
  for (double Ms : LogArmed)
    Report.sample("next-closure-log-armed", Ms);
  Report.counter("armed_overhead_pct", OverheadPct);
  Report.counter("log_armed_overhead_pct", LogOverheadPct);
  Report.write();
  return 0;
}

//===- cablebench/main.cpp - End-to-end benchmark entry point -------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// cablebench --workload <table3|wide_session|remine> --seed <n>
//            --seconds <s> --trace <0|1> [--spans <file>]
//
// Sets the workload up, runs one warm-up pass, then runs passes until
// --seconds have elapsed, setting the workload up again (on fresh copies)
// before each; setup_s is the median set-up time. With
// --trace 0 nothing but the clock reads around calls is active and the
// end-to-end metrics are reported: wall_s sums each timed item at its
// fastest over the measured passes. With --trace 1, untraced and traced
// passes alternate; the per-layer metrics are per traced pass, and the
// spans are written to --spans at exit. The last line of stdout is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Exits 1 when
// any output check failed, 2 on bad arguments.
//
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

using namespace cablebench;

namespace {

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

constexpr int SetupsPerPass = 3;
constexpr int MinPasses = 3;

const char *const Strategies[] = {"baseline", "expert",  "topdown",
                                  "bottomup", "random", "optimal"};

/// Per-layer metric names (per traced pass) and their units, in output
/// order. Derived fractions and the bench.* rows are filled in by
/// perLayerMetrics; everything else is a Tracer counter.
std::vector<std::pair<std::string, const char *>> perLayerNames() {
  std::vector<std::pair<std::string, const char *>> Out;
  auto Add = [&](const std::string &Layer,
                 std::initializer_list<const char *> Counts, bool Busy) {
    for (const char *C : Counts)
      Out.emplace_back(Layer + "." + C, "count");
    if (Busy)
      Out.emplace_back(Layer + ".busy_ms", "ms");
  };
  Add("trace.dedup", {"calls", "traces", "classes"}, true);
  Add("fa.relation", {"calls", "objects"}, true);
  Add("concepts.enumerate", {"calls", "concepts"}, true);
  Add("concepts.covers", {"calls", "edges"}, true);
  Out.emplace_back("cable.session.unattributed_ms", "ms");
  Out.emplace_back("cable.session.open_ms_p50", "ms");
  Out.emplace_back("cable.session.open_ms_p90", "ms");
  for (const char *S : Strategies) {
    std::string Layer = std::string("cable.strategy.") + S;
    Add(Layer, {"calls", "ops"}, true);
    Out.emplace_back(Layer + ".finished_frac", "ratio");
  }
  Out.emplace_back("cable.strategy.productive_frac", "ratio");
  Add("cable.state", {"calls"}, true);
  Add("cable.label", {"calls", "objects_changed"}, true);
  Add("cable.focus", {"calls", "sub_concepts"}, true);
  Add("cable.snapshot", {"calls", "bytes"}, true);
  Add("cable.wellformed", {"calls"}, true);
  Add("miner.extract", {"calls", "scenarios"}, true);
  Add("learner.skstrings", {"calls", "traces", "states"}, true);
  Add("fa.minimize", {"calls", "states_in", "states_out"}, true);
  Out.emplace_back("bench.pass.timed_ms", "ms");
  Out.emplace_back("bench.op_ms_p50", "ms");
  Out.emplace_back("bench.op_ms_p90", "ms");
  Out.emplace_back("bench.tracing.overhead_ms", "ms");
  return Out;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

double sum(const std::vector<double> &Samples) {
  return std::accumulate(Samples.begin(), Samples.end(), 0.0);
}

/// Each item's latency at its fastest over \p Passes. Every pass runs the
/// same items in the same order, so an item's fastest run is the time its
/// work needs while the rest of the host leaves it alone. Whole passes
/// took longer or shorter with the load of the shared host, and so did
/// their median.
std::vector<double>
fastestItems(const std::vector<std::vector<double>> &Passes) {
  std::vector<double> Out = Passes.front();
  for (const std::vector<double> &P : Passes) {
    Out.resize(std::min(Out.size(), P.size()));
    for (size_t I = 0; I < Out.size(); ++I)
      Out[I] = std::min(Out[I], P[I]);
  }
  return Out;
}

/// Latencies and wall times measured in the untraced passes of a traced
/// run.
struct Untraced {
  double TimedMs;   ///< Median timed work of a pass (the base of shares).
  double OpenMsP50; ///< Median Session::build latency.
  double OpenMsP90;
  double OpMsP50;   ///< Median unit-operation latency, each at its fastest.
  double OpMsP90;
  double PassMs;    ///< Median wall time of a whole pass.
};

/// The overhead is the traced minus the untraced wall time of a whole
/// pass, including the re-run build stages.
std::vector<Metric> perLayerMetrics(const Tracer &T, int TracedPasses,
                                    const Untraced &U, double TracedPassMs) {
  const std::map<std::string, double> &C = T.counters();
  auto Get = [&](const std::string &Name) {
    auto It = C.find(Name);
    return It == C.end() ? 0.0 : It->second;
  };
  std::vector<Metric> Out;
  for (const auto &[Name, Unit] : perLayerNames()) {
    double V;
    if (Name == "cable.strategy.productive_frac") {
      V = ratio(Get("cable.strategy.label_ops"),
                Get("cable.strategy.all_ops"));
    } else if (Name.size() > 14 &&
               Name.compare(Name.size() - 14, 14, ".finished_frac") == 0) {
      std::string Layer = Name.substr(0, Name.size() - 14);
      V = ratio(Get(Layer + ".finished"), Get(Layer + ".calls"));
    } else if (Name == "bench.pass.timed_ms") {
      V = U.TimedMs;
    } else if (Name == "cable.session.open_ms_p50") {
      V = U.OpenMsP50;
    } else if (Name == "cable.session.open_ms_p90") {
      V = U.OpenMsP90;
    } else if (Name == "bench.op_ms_p50") {
      V = U.OpMsP50;
    } else if (Name == "bench.op_ms_p90") {
      V = U.OpMsP90;
    } else if (Name == "bench.tracing.overhead_ms") {
      V = TracedPassMs - U.PassMs;
    } else {
      V = Get(Name) / TracedPasses;
    }
    Out.push_back({Name, V, Unit});
  }
  return Out;
}

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Metrics) {
  for (const Metric &M : Metrics)
    std::printf("%-40s %14.6f %s\n", M.Name.c_str(), M.Value, M.Unit);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed));
  for (size_t I = 0; I < Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                I ? ", " : "", Metrics[I].Name.c_str(), Metrics[I].Value,
                Metrics[I].Unit);
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: cablebench --workload <table3|wide_session|remine> "
               "--seed <n> --seconds <s> --trace <0|1> [--spans <file>]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string WorkloadName, SpansPath;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I];
    const char *Value = Argv[I + 1];
    if (Flag == "--workload")
      WorkloadName = Value;
    else if (Flag == "--seed")
      Seed = std::strtoull(Value, nullptr, 10);
    else if (Flag == "--seconds")
      Seconds = std::strtod(Value, nullptr);
    else if (Flag == "--trace")
      Trace = std::strcmp(Value, "0") != 0;
    else if (Flag == "--spans")
      SpansPath = Value;
    else
      return usage();
  }
  if (Argc % 2 == 0 || !makeWorkload(WorkloadName) || Seconds <= 0)
    return usage();

  // Set-up: input generation from the seed. The passes run on the first
  // copy; further set-ups on fresh copies are interleaved with the passes
  // so that setup_s, their median, samples the same stretch of machine
  // time as the passes do.
  std::vector<double> SetupMs;
  std::unique_ptr<Workload> W = makeWorkload(WorkloadName);
  SetupMs.push_back(timeMs([&] { W->setup(Seed); }));
  auto SetUpAgain = [&] {
    for (int I = 0; I < SetupsPerPass; ++I) {
      std::unique_ptr<Workload> Fresh = makeWorkload(WorkloadName);
      SetupMs.push_back(timeMs([&] { Fresh->setup(Seed); }));
    }
  };

  Tracer T;
  uint64_t Attempted = 0, Failed = 0;
  auto RunPass = [&](bool Traced, PassLog &Log) {
    T.arm(Traced);
    double WallMs = timeMs([&] { W->pass(Log, T); });
    T.arm(false);
    Attempted += Log.Attempted;
    Failed += Log.Failed;
    return WallMs;
  };

  {
    PassLog WarmUp;
    RunPass(false, WarmUp);
  }

  std::vector<double> PassMs, OpenMs, OpMs, UntracedWallMs, TracedWallMs;
  std::vector<std::vector<double>> PassItems, PassOps;
  Clock::time_point Deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(Seconds));
  for (int Pass = 0; Clock::now() < Deadline || Pass < MinPasses ||
                     (Trace && TracedWallMs.empty());
       ++Pass) {
    bool Traced = Trace && Pass % 2 == 1;
    SetUpAgain();
    PassLog Log;
    double WallMs = RunPass(Traced, Log);
    if (Traced) {
      TracedWallMs.push_back(WallMs);
      continue;
    }
    UntracedWallMs.push_back(WallMs);
    PassMs.push_back(sum(Log.TimedMs));
    OpenMs.insert(OpenMs.end(), Log.OpenMs.begin(), Log.OpenMs.end());
    OpMs.insert(OpMs.end(), Log.OpMs.begin(), Log.OpMs.end());
    PassItems.push_back(std::move(Log.TimedMs));
    PassOps.push_back(std::move(Log.OpMs));
  }

  std::vector<Metric> Metrics;
  if (Trace) {
    std::vector<double> FastOps = fastestItems(PassOps);
    Untraced U{quantile(PassMs, 0.5),        quantile(OpenMs, 0.5),
               quantile(OpenMs, 0.9),        quantile(FastOps, 0.5),
               quantile(FastOps, 0.9),       quantile(UntracedWallMs, 0.5)};
    Metrics = perLayerMetrics(T, static_cast<int>(TracedWallMs.size()), U,
                              quantile(TracedWallMs, 0.5));
    if (!SpansPath.empty() && !T.writeSpans(SpansPath))
      std::fprintf(stderr, "cablebench: cannot write %s\n", SpansPath.c_str());
  } else {
    Metrics = {
        {"setup_s", quantile(SetupMs, 0.5) / 1000, "s"},
        {"wall_s", sum(fastestItems(PassItems)) / 1000, "s"},
        {"peak_rss_mb", peakRssMb(), "MiB"},
    };
  }
  std::fprintf(stderr,
               "cablebench: %s seed %llu: %zu measured passes, %zu opens, "
               "%zu operations\n",
               WorkloadName.c_str(), static_cast<unsigned long long>(Seed),
               PassMs.size(), OpenMs.size(), OpMs.size());
  printResult(Failed == 0, Attempted, Failed, Metrics);
  return Failed == 0 ? 0 : 1;
}

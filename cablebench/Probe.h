//===- cablebench/Probe.h - Timing, tracing and checks ---------*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measuring side of the end-to-end benchmark. Every number comes from
/// the benchmark's own files: latencies from clock reads around calls into
/// the library, per-layer figures from spans opened around the same calls.
/// Nothing here touches the library's own instrumentation (Metrics,
/// TraceLog, Log), which stays disarmed in every run.
///
//===----------------------------------------------------------------------===//

#ifndef CABLEBENCH_PROBE_H
#define CABLEBENCH_PROBE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cablebench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

/// The \p Q quantile (0..1) of \p Samples by linear interpolation; 0 for
/// an empty set.
double quantile(std::vector<double> Samples, double Q);

/// Seed for protocol \p Name under workload seed \p Seed. Seed 0 is the
/// FNV-1a hash of the name, which is what bench/table3_labeling_cost and
/// the other table binaries use, so the paper-facing rows apply to it.
uint64_t protocolSeed(const std::string &Name, uint64_t Seed);

/// One recorded span: a call into one layer, timed from outside.
struct SpanRecord {
  uint32_t Layer = 0;
  /// Index of the enclosing span in the span list, or UINT32_MAX.
  uint32_t Parent = UINT32_MAX;
  /// Operation the span belongs to (all spans of one operation share it).
  uint32_t Op = 0;
  int64_t StartUs = 0;
  int64_t EndUs = 0;
};

/// Spans and per-layer counters of a traced run. Disarmed (the default),
/// every call is a branch on one bool; armed, spans are kept in memory and
/// written out once, at exit.
class Tracer {
public:
  bool armed() const { return Armed; }
  void arm(bool On) { Armed = On; }

  /// Adds \p N to counter \p Name (a full per-layer metric name).
  void count(const std::string &Name, double N) {
    if (Armed)
      Counters[Name] += N;
  }

  /// Starts an operation id; spans opened until the next call share it.
  void beginOp() { ++CurrentOp; }

  /// Writes every span as one JSON document.
  bool writeSpans(const std::string &Path) const;

  /// Every counter, by full metric name (`<layer>.calls`,
  /// `<layer>.busy_ms`, item counts).
  const std::map<std::string, double> &counters() const { return Counters; }

private:
  friend class Span;
  uint32_t layerIndex(const char *Name);

  bool Armed = false;
  uint32_t CurrentOp = 0;
  std::vector<std::string> LayerNames;
  std::vector<SpanRecord> Spans;
  /// Open spans: index into Spans plus child time accumulated so far.
  std::vector<std::pair<uint32_t, double>> Open;
  std::map<std::string, double> Counters;
  Clock::time_point Epoch = Clock::now();
};

/// RAII span around one call into layer \p Layer. On close it adds one
/// call and its self time (duration minus enclosed spans) to
/// `<Layer>.calls` and `<Layer>.busy_ms`.
class Span {
public:
  /// \p Calls is how many calls the span stands for (a sweep of many
  /// small reads is one span).
  Span(Tracer &T, const char *Layer, double Calls = 1);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// Closes the span early; returns its duration in milliseconds.
  double close();

private:
  Tracer *T;
  const char *Layer;
  double Calls;
  Clock::time_point Start;
  bool Closed = false;
};

/// Runs \p Fn and returns its wall time in milliseconds.
template <typename Fn> double timeMs(Fn &&F) {
  Clock::time_point Start = Clock::now();
  F();
  return msSince(Start);
}

/// What one pass of a workload reports back.
struct PassLog {
  /// Latency of every Session::build, in ms.
  std::vector<double> OpenMs;
  /// Latency of every unit operation (a strategy run, a command, or one
  /// protocol's re-mining iteration), in ms.
  std::vector<double> OpMs;
  /// Latency of every item of timed work (timed opens and unit
  /// operations), in ms, in the order the pass ran them; set-up and output
  /// checks are not timed. Every pass runs the same items in the same
  /// order, so item I is the same work in every pass.
  std::vector<double> TimedMs;
  /// Operations attempted (opens plus unit operations) and failed checks.
  uint64_t Attempted = 0;
  uint64_t Failed = 0;

  /// Records one Session::build. \p Timed is false when the open is part
  /// of a larger operation that is timed as a whole.
  void open(double Ms, bool Timed = true) {
    OpenMs.push_back(Ms);
    if (Timed)
      TimedMs.push_back(Ms);
    ++Attempted;
  }
  void op(double Ms) {
    OpMs.push_back(Ms);
    TimedMs.push_back(Ms);
    ++Attempted;
  }
  /// Records a failed output check and explains it on stderr.
  void fail(const std::string &What);
  void check(bool Ok, const std::string &What) {
    if (!Ok)
      fail(What);
  }
};

/// Peak resident set size of this process, in MiB (0 if unknown).
double peakRssMb();

} // namespace cablebench

#endif // CABLEBENCH_PROBE_H

//===- support/Metrics.h - Process-wide metrics registry --------*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide registry of named counters, gauges, and fixed-bucket
/// latency histograms — the instrumentation substrate for the whole
/// pipeline (builders, journal, budgets, sessions, tools).
///
/// Cost model, mirroring support/Failpoint.h:
///
///  - Disarmed (the default), every hot-path call is a single relaxed
///    atomic load and a predicted branch. Nothing else is touched; timers
///    do not even sample the clock.
///  - Armed (Metrics::setEnabled(true), done by `--stats`,
///    `--metrics-out`, `--run-report`, and the bench harness), the hot
///    path is lock-free: counters and gauges are one relaxed fetch_add,
///    histograms one fetch_add into a bucket plus two for sum/count.
///  - Compiled out entirely with -DCABLE_NO_INSTRUMENT=ON: the mutating
///    calls become empty inline functions the optimizer deletes, which is
///    what the overhead-guard bench compares against.
///
/// Handles are registered once (mutex-protected) and cached in static
/// references at the instrumentation site, so name lookup never happens
/// on a hot path:
///
///   namespace { Metrics::Counter &NumClosures =
///       Metrics::counter("lattice.closures"); }
///   ...
///   NumClosures.add(LocalCount);   // once per build, not per closure
///
/// Metric names are kebab-case segments joined by dots, subsystem first:
/// `journal.fsync-us`, `budget.headroom-ms` (docs/OBSERVABILITY.md
/// has the full catalog).
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_SUPPORT_METRICS_H
#define CABLE_SUPPORT_METRICS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cable {

class Metrics {
public:
  /// True when collection is armed (one relaxed load; the hot-path gate).
  static bool enabled() {
#ifdef CABLE_NO_INSTRUMENT
    return false;
#else
    return Armed.load(std::memory_order_relaxed);
#endif
  }

  static void setEnabled(bool On);

  /// A monotonically increasing count.
  class Counter {
  public:
    void add(uint64_t N = 1) {
#ifndef CABLE_NO_INSTRUMENT
      if (enabled())
        V.fetch_add(N, std::memory_order_relaxed);
#else
      (void)N;
#endif
    }
    uint64_t value() const { return V.load(std::memory_order_relaxed); }

  private:
    friend class Metrics;
    std::atomic<uint64_t> V{0};
  };

  /// A signed instantaneous value (queue depths, headroom).
  class Gauge {
  public:
    void set(int64_t N) {
#ifndef CABLE_NO_INSTRUMENT
      if (enabled())
        V.store(N, std::memory_order_relaxed);
#else
      (void)N;
#endif
    }
    void add(int64_t N) {
#ifndef CABLE_NO_INSTRUMENT
      if (enabled())
        V.fetch_add(N, std::memory_order_relaxed);
#else
      (void)N;
#endif
    }
    int64_t value() const { return V.load(std::memory_order_relaxed); }
    /// Highest value ever set/added to (updated on the armed path only).
    int64_t high() const { return Hi.load(std::memory_order_relaxed); }

    /// add() that also maintains the high-water mark.
    void addHighWater(int64_t N) {
#ifndef CABLE_NO_INSTRUMENT
      if (!enabled())
        return;
      int64_t Now = V.fetch_add(N, std::memory_order_relaxed) + N;
      int64_t Seen = Hi.load(std::memory_order_relaxed);
      while (Now > Seen &&
             !Hi.compare_exchange_weak(Seen, Now, std::memory_order_relaxed))
        ;
#else
      (void)N;
#endif
    }

  private:
    friend class Metrics;
    std::atomic<int64_t> V{0};
    std::atomic<int64_t> Hi{0};
  };

  /// Fixed-bucket histogram for latencies and sizes. Bucket \c i holds
  /// values v with bucketIndex(v) == i: bucket 0 holds v == 0, bucket
  /// i >= 1 holds 2^(i-1) <= v < 2^i, and the last bucket absorbs
  /// everything larger (the overflow bucket). Recording is three relaxed
  /// fetch_adds plus a CAS loop for the max.
  class Histogram {
  public:
    static constexpr size_t kNumBuckets = 30;

    static size_t bucketIndex(uint64_t V) {
      if (V == 0)
        return 0;
      size_t I = 1;
      while (V > 1 && I < kNumBuckets - 1) {
        V >>= 1;
        ++I;
      }
      return I;
    }

    /// Inclusive upper edge of bucket \p I (2^I - 1; UINT64_MAX for the
    /// overflow bucket).
    static uint64_t bucketUpperEdge(size_t I);

    void record(uint64_t V) {
#ifndef CABLE_NO_INSTRUMENT
      if (!enabled())
        return;
      Buckets[bucketIndex(V)].fetch_add(1, std::memory_order_relaxed);
      Sum.fetch_add(V, std::memory_order_relaxed);
      N.fetch_add(1, std::memory_order_relaxed);
      uint64_t Seen = Max.load(std::memory_order_relaxed);
      while (V > Seen &&
             !Max.compare_exchange_weak(Seen, V, std::memory_order_relaxed))
        ;
#else
      (void)V;
#endif
    }

    uint64_t count() const { return N.load(std::memory_order_relaxed); }
    uint64_t sum() const { return Sum.load(std::memory_order_relaxed); }
    uint64_t max() const { return Max.load(std::memory_order_relaxed); }
    uint64_t bucketCount(size_t I) const {
      return Buckets[I].load(std::memory_order_relaxed);
    }

    /// Bucket-resolution quantile estimate: the upper edge of the first
    /// bucket at which the cumulative count reaches \p Q (0 < Q <= 1).
    uint64_t quantile(double Q) const;

  private:
    friend class Metrics;
    std::atomic<uint64_t> Buckets[kNumBuckets] = {};
    std::atomic<uint64_t> Sum{0};
    std::atomic<uint64_t> N{0};
    std::atomic<uint64_t> Max{0};
  };

  /// Registry lookups: find-or-create by name. Safe from static
  /// initializers (Meyers-style, intentionally leaked registry) and from
  /// any thread; returned references stay valid for the process lifetime.
  /// A name registers as exactly one kind; reusing it as another aborts.
  static Counter &counter(std::string_view Name);
  static Gauge &gauge(std::string_view Name);
  static Histogram &histogram(std::string_view Name);

  /// Current value of a named counter (0 when never registered) — for
  /// tests and the kill-matrix harness.
  static uint64_t counterValue(std::string_view Name);

  /// Zeroes every registered metric (test/bench isolation). Registration
  /// survives; handles stay valid.
  static void reset();

  /// One registered metric, flattened for rendering.
  struct Sample {
    enum Kind { KindCounter, KindGauge, KindHistogram };
    std::string Name;
    Kind K = KindCounter;
    uint64_t Count = 0;   ///< counter value / histogram count
    int64_t Value = 0;    ///< gauge value
    int64_t High = 0;     ///< gauge high-water mark
    uint64_t Sum = 0;     ///< histogram sum
    uint64_t Max = 0;     ///< histogram max
    uint64_t P50 = 0;     ///< histogram quantile estimates
    uint64_t P90 = 0;
    std::vector<uint64_t> Buckets; ///< histogram raw buckets (kNumBuckets)
  };

  /// Every registered metric, sorted by name.
  static std::vector<Sample> snapshot();

  /// The snapshot as one JSON object:
  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  /// Keys are sorted; histograms carry count/sum/max/p50/p90 plus the raw
  /// bucket array (docs/OBSERVABILITY.md documents the shape).
  static std::string snapshotJson();

  /// The snapshot as a fixed-width human table (the `stats` command and
  /// `--stats` flag); empty metrics are omitted.
  static std::string renderTable();

  /// One metric as read by the async-signal-safe crash index: the name
  /// pointer is the registry's own (stable — the registry is leaked and
  /// map nodes never move), values are plain relaxed atomic loads.
  /// Histograms carry count/sum/max only; bucket arrays are a normal
  /// snapshot's job.
  struct CrashEntry {
    const char *Name = nullptr;
    Sample::Kind K = Sample::KindCounter;
    uint64_t Count = 0; ///< counter value / histogram count
    int64_t Value = 0;  ///< gauge value
    int64_t High = 0;   ///< gauge high-water mark
    uint64_t Sum = 0;   ///< histogram sum
    uint64_t Max = 0;   ///< histogram max
  };

  /// Async-signal-safe registry walk for the flight recorder: fills up to
  /// \p Cap entries from the fixed crash index (no locks, no allocation)
  /// and returns how many were written. Entries appear in registration
  /// order.
  static size_t crashIndexRead(CrashEntry *Out, size_t Cap);

private:
  static std::atomic<bool> Armed;
};

/// RAII latency timer: samples the steady clock only when metrics are
/// armed, and records elapsed microseconds into \p H on destruction.
class MetricTimer {
public:
  explicit MetricTimer(Metrics::Histogram &H)
      : H(&H), Armed(Metrics::enabled()) {
    if (Armed)
      Start = std::chrono::steady_clock::now();
  }
  MetricTimer(const MetricTimer &) = delete;
  MetricTimer &operator=(const MetricTimer &) = delete;
  ~MetricTimer() {
    if (Armed)
      H->record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - Start)
              .count()));
  }

private:
  Metrics::Histogram *H;
  bool Armed;
  std::chrono::steady_clock::time_point Start;
};

} // namespace cable

#endif // CABLE_SUPPORT_METRICS_H

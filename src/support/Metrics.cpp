//===- support/Metrics.cpp - Process-wide metrics registry -----------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"

#include "support/Json.h"
#include "support/StringUtil.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>

using namespace cable;

std::atomic<bool> Metrics::Armed{false};

namespace {

struct Entry {
  Metrics::Sample::Kind Kind;
  std::unique_ptr<Metrics::Counter> C;
  std::unique_ptr<Metrics::Gauge> G;
  std::unique_ptr<Metrics::Histogram> H;
};

using Registry = std::map<std::string, Entry, std::less<>>;

/// Intentionally leaked: instrumentation sites hold references obtained
/// during static init, and counters may still tick during static
/// destruction (atexit I/O).
Registry &registry() {
  static Registry *R = new Registry;
  return *R;
}

/// Fixed-size crash index over the registry, readable from a signal
/// handler: name pointers into the leaked map's keys (stable), value
/// pointers at the never-freed metric objects. Appends publish the new
/// count with a release store, so a signal that interrupts an append sees
/// only whole slots; crashIndexRead walks it acquire-side. 4096 slots is
/// an order of magnitude beyond the catalog.
constexpr size_t kMaxCrashIndex = 4096;

struct CrashIndexSlot {
  const char *Name = nullptr;
  Metrics::Sample::Kind Kind = Metrics::Sample::KindCounter;
  const Metrics::Counter *C = nullptr;
  const Metrics::Gauge *G = nullptr;
  const Metrics::Histogram *H = nullptr;
};

CrashIndexSlot GCrashIndex[kMaxCrashIndex];
std::atomic<size_t> GCrashIndexCount{0};

/// Called once per newly registered metric.
void crashIndexAppend(const std::string &Name, const Entry &E) {
  size_t N = GCrashIndexCount.load(std::memory_order_relaxed);
  if (N >= kMaxCrashIndex)
    return; // overflow: the tail of the catalog is absent from dumps
  CrashIndexSlot &S = GCrashIndex[N];
  S.Name = Name.c_str();
  S.Kind = E.Kind;
  S.C = E.C.get();
  S.G = E.G.get();
  S.H = E.H.get();
  GCrashIndexCount.store(N + 1, std::memory_order_release);
}

Entry &findOrCreate(std::string_view Name, Metrics::Sample::Kind Kind) {
  Registry &R = registry();
  auto It = R.find(Name);
  if (It == R.end()) {
    Entry E;
    E.Kind = Kind;
    switch (Kind) {
    case Metrics::Sample::KindCounter:
      E.C = std::make_unique<Metrics::Counter>();
      break;
    case Metrics::Sample::KindGauge:
      E.G = std::make_unique<Metrics::Gauge>();
      break;
    case Metrics::Sample::KindHistogram:
      E.H = std::make_unique<Metrics::Histogram>();
      break;
    }
    It = R.emplace(std::string(Name), std::move(E)).first;
    crashIndexAppend(It->first, It->second);
  }
  if (It->second.Kind != Kind) {
    std::fprintf(stderr,
                 "fatal: metric '%s' registered as two different kinds\n",
                 std::string(Name).c_str());
    std::abort();
  }
  return It->second;
}

} // namespace

void Metrics::setEnabled(bool On) {
  Armed.store(On, std::memory_order_relaxed);
}

size_t Metrics::crashIndexRead(CrashEntry *Out, size_t Cap) {
  size_t N = GCrashIndexCount.load(std::memory_order_acquire);
  size_t Written = 0;
  for (size_t I = 0; I < N && Written < Cap; ++I) {
    const CrashIndexSlot &S = GCrashIndex[I];
    CrashEntry &E = Out[Written];
    E.Name = S.Name;
    E.K = S.Kind;
    switch (S.Kind) {
    case Sample::KindCounter:
      E.Count = S.C->value();
      break;
    case Sample::KindGauge:
      E.Value = S.G->value();
      E.High = S.G->high();
      break;
    case Sample::KindHistogram:
      E.Count = S.H->count();
      E.Sum = S.H->sum();
      E.Max = S.H->max();
      break;
    }
    ++Written;
  }
  return Written;
}

Metrics::Counter &Metrics::counter(std::string_view Name) {
  return *findOrCreate(Name, Sample::KindCounter).C;
}

Metrics::Gauge &Metrics::gauge(std::string_view Name) {
  return *findOrCreate(Name, Sample::KindGauge).G;
}

Metrics::Histogram &Metrics::histogram(std::string_view Name) {
  return *findOrCreate(Name, Sample::KindHistogram).H;
}

uint64_t Metrics::counterValue(std::string_view Name) {
  Registry &R = registry();
  auto It = R.find(Name);
  if (It == R.end() || It->second.Kind != Sample::KindCounter)
    return 0;
  return It->second.C->value();
}

void Metrics::reset() {
  for (auto &[Name, E] : registry()) {
    switch (E.Kind) {
    case Sample::KindCounter:
      E.C->V.store(0, std::memory_order_relaxed);
      break;
    case Sample::KindGauge:
      E.G->V.store(0, std::memory_order_relaxed);
      E.G->Hi.store(0, std::memory_order_relaxed);
      break;
    case Sample::KindHistogram:
      for (auto &B : E.H->Buckets)
        B.store(0, std::memory_order_relaxed);
      E.H->Sum.store(0, std::memory_order_relaxed);
      E.H->N.store(0, std::memory_order_relaxed);
      E.H->Max.store(0, std::memory_order_relaxed);
      break;
    }
  }
}

uint64_t Metrics::Histogram::bucketUpperEdge(size_t I) {
  if (I == 0)
    return 0;
  if (I >= kNumBuckets - 1)
    return UINT64_MAX;
  return (uint64_t(1) << I) - 1;
}

uint64_t Metrics::Histogram::quantile(double Q) const {
  uint64_t Total = count();
  if (Total == 0)
    return 0;
  uint64_t Need = static_cast<uint64_t>(Q * static_cast<double>(Total));
  if (Need == 0)
    Need = 1;
  uint64_t Seen = 0;
  for (size_t I = 0; I < kNumBuckets; ++I) {
    Seen += bucketCount(I);
    if (Seen >= Need) {
      // Cap the estimate at the recorded max (tighter than the edge of
      // the overflow bucket, and exact for single-bucket distributions).
      uint64_t Edge = bucketUpperEdge(I);
      uint64_t M = max();
      return Edge < M ? Edge : M;
    }
  }
  return max();
}

std::vector<Metrics::Sample> Metrics::snapshot() {
  Registry &R = registry();
  std::vector<Sample> Out;
  Out.reserve(R.size());
  for (const auto &[Name, E] : R) {
    Sample S;
    S.Name = Name;
    S.K = E.Kind;
    switch (E.Kind) {
    case Sample::KindCounter:
      S.Count = E.C->value();
      break;
    case Sample::KindGauge:
      S.Value = E.G->value();
      S.High = E.G->high();
      break;
    case Sample::KindHistogram:
      S.Count = E.H->count();
      S.Sum = E.H->sum();
      S.Max = E.H->max();
      S.P50 = E.H->quantile(0.50);
      S.P90 = E.H->quantile(0.90);
      S.Buckets.resize(Histogram::kNumBuckets);
      for (size_t I = 0; I < Histogram::kNumBuckets; ++I)
        S.Buckets[I] = E.H->bucketCount(I);
      break;
    }
    Out.push_back(std::move(S));
  }
  return Out;
}

std::string Metrics::snapshotJson() {
  std::vector<Sample> Samples = snapshot();
  JsonWriter W;
  W.beginObject();
  W.key("counters");
  W.beginObject();
  for (const Sample &S : Samples)
    if (S.K == Sample::KindCounter)
      W.member(S.Name, S.Count);
  W.endObject();
  W.key("gauges");
  W.beginObject();
  for (const Sample &S : Samples)
    if (S.K == Sample::KindGauge) {
      W.key(S.Name);
      W.beginObject();
      W.member("value", S.Value);
      W.member("high", S.High);
      W.endObject();
    }
  W.endObject();
  W.key("histograms");
  W.beginObject();
  for (const Sample &S : Samples) {
    if (S.K != Sample::KindHistogram)
      continue;
    W.key(S.Name);
    W.beginObject();
    W.member("count", S.Count);
    W.member("sum", S.Sum);
    W.member("max", S.Max);
    W.member("p50", S.P50);
    W.member("p90", S.P90);
    W.key("buckets");
    W.beginArray();
    for (uint64_t B : S.Buckets)
      W.value(B);
    W.endArray();
    W.endObject();
  }
  W.endObject();
  W.endObject();
  return W.take();
}

std::string Metrics::renderTable() {
  std::vector<Sample> Samples = snapshot();
  std::string Out;
  char Line[256];
  std::snprintf(Line, sizeof(Line), "%-36s %12s %12s %10s %10s\n", "metric",
                "count/value", "sum", "p50", "p90");
  Out += Line;
  Out += std::string(84, '-') + "\n";
  size_t Shown = 0;
  for (const Sample &S : Samples) {
    switch (S.K) {
    case Sample::KindCounter:
      if (S.Count == 0)
        continue;
      std::snprintf(Line, sizeof(Line), "%-36s %12llu\n", S.Name.c_str(),
                    static_cast<unsigned long long>(S.Count));
      break;
    case Sample::KindGauge:
      if (S.Value == 0 && S.High == 0)
        continue;
      std::snprintf(Line, sizeof(Line), "%-36s %12lld   (high %lld)\n",
                    S.Name.c_str(), static_cast<long long>(S.Value),
                    static_cast<long long>(S.High));
      break;
    case Sample::KindHistogram:
      if (S.Count == 0)
        continue;
      std::snprintf(Line, sizeof(Line),
                    "%-36s %12llu %12llu %10llu %10llu\n", S.Name.c_str(),
                    static_cast<unsigned long long>(S.Count),
                    static_cast<unsigned long long>(S.Sum),
                    static_cast<unsigned long long>(S.P50),
                    static_cast<unsigned long long>(S.P90));
      break;
    }
    Out += Line;
    ++Shown;
  }
  if (Shown == 0)
    Out += "(no metrics recorded; was collection armed?)\n";
  return Out;
}

//===- cablebench/Probe.cpp - Timing, tracing and checks for the bench ----===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "Probe.h"

#include <algorithm>
#include <cstdio>

using namespace cablebench;

double cablebench::quantile(std::vector<double> Samples, double Q) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  double Pos = Q * static_cast<double>(Samples.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, Samples.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Samples[Lo] + (Samples[Hi] - Samples[Lo]) * Frac;
}

uint64_t cablebench::protocolSeed(const std::string &Name, uint64_t Seed) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (char C : Name) {
    H ^= static_cast<unsigned char>(C);
    H *= 0x100000001b3ULL;
  }
  if (Seed == 0)
    return H;
  // splitmix64 of the workload seed, so nearby seeds give unrelated inputs.
  uint64_t Z = Seed + 0x9e3779b97f4a7c15ULL;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return H ^ Z ^ (Z >> 31);
}

uint32_t Tracer::layerIndex(const char *Name) {
  for (uint32_t I = 0; I < LayerNames.size(); ++I)
    if (LayerNames[I] == Name)
      return I;
  LayerNames.emplace_back(Name);
  return static_cast<uint32_t>(LayerNames.size() - 1);
}

bool Tracer::writeSpans(const std::string &Path) const {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"schema\": \"cablebench-spans/1\", \"layers\": [");
  for (size_t I = 0; I < LayerNames.size(); ++I)
    std::fprintf(F, "%s\"%s\"", I ? ", " : "", LayerNames[I].c_str());
  std::fprintf(F, "],\n\"spans\": [\n");
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    std::fprintf(F, "%s[%u, %d, %u, %lld, %lld]", I ? ",\n" : "", S.Layer,
                 S.Parent == UINT32_MAX ? -1 : static_cast<int>(S.Parent),
                 S.Op, static_cast<long long>(S.StartUs),
                 static_cast<long long>(S.EndUs));
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

Span::Span(Tracer &Tr, const char *LayerName, double NumCalls)
    : T(&Tr), Layer(LayerName), Calls(NumCalls) {
  if (!T->Armed) {
    Closed = true;
    return;
  }
  Start = Clock::now();
  SpanRecord R;
  R.Layer = T->layerIndex(Layer);
  R.Parent = T->Open.empty() ? UINT32_MAX : T->Open.back().first;
  R.Op = T->CurrentOp;
  R.StartUs = std::chrono::duration_cast<std::chrono::microseconds>(
                  Start - T->Epoch)
                  .count();
  T->Spans.push_back(R);
  T->Open.emplace_back(static_cast<uint32_t>(T->Spans.size() - 1), 0.0);
}

Span::~Span() { close(); }

double Span::close() {
  if (Closed)
    return 0;
  Closed = true;
  Clock::time_point End = Clock::now();
  double Ms = std::chrono::duration<double, std::milli>(End - Start).count();
  auto [Index, ChildMs] = T->Open.back();
  T->Open.pop_back();
  T->Spans[Index].EndUs =
      std::chrono::duration_cast<std::chrono::microseconds>(End - T->Epoch)
          .count();
  if (!T->Open.empty())
    T->Open.back().second += Ms;
  std::string Name = Layer;
  T->Counters[Name + ".calls"] += Calls;
  T->Counters[Name + ".busy_ms"] += Ms - ChildMs;
  return Ms;
}

void PassLog::fail(const std::string &What) {
  ++Failed;
  std::fprintf(stderr, "cablebench: check failed: %s\n", What.c_str());
}

double cablebench::peakRssMb() {
  // VmHWM, not getrusage: Linux carries ru_maxrss across execve, so a
  // process started by a large parent would report the parent's peak.
  FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0;
  char Line[256];
  long Kib = 0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::sscanf(Line, "VmHWM: %ld kB", &Kib) == 1)
      break;
  std::fclose(F);
  return static_cast<double>(Kib) / 1024.0;
}

//===- support/TraceEvent.cpp - Scoped tracing spans -----------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/TraceEvent.h"

#include "support/AtomicFile.h"
#include "support/BuildInfo.h"
#include "support/Json.h"
#include "support/Metrics.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include <unistd.h>

using namespace cable;

std::atomic<bool> TraceLog::Armed{false};
std::atomic<bool> TraceLog::StacksArmed{false};

namespace {

/// Satellite of the overwrite-oldest ring policy: truncation is visible
/// in --stats and run reports, never silent.
Metrics::Counter &SpansDropped = Metrics::counter("trace.spans-dropped");

struct Event {
  std::string Name;
  uint64_t StartUs = 0;
  uint64_t DurUs = 0;
  int64_t Arg = 0;
  bool HasArg = false;
};

/// One thread's span ring. Appends come only from the owning thread; the
/// mutex exists to serialize appends against the exporter (spans are
/// coarse — per command, per partition, per fsync — so the uncontended
/// lock is noise).
struct ThreadRing {
  std::mutex Mutex;
  int Tid = 0;
  std::string Name;
  std::vector<Event> Ring;
  size_t Capacity = 0;
  size_t Next = 0;     ///< Ring insertion cursor.
  uint64_t Total = 0;  ///< Spans ever recorded here.
  uint64_t Dropped = 0;
};

struct Global {
  std::mutex Mutex;
  std::vector<std::shared_ptr<ThreadRing>> Rings;
  int NextTid = 1;
  size_t RingCapacity = 65536;
  std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();
};

/// Intentionally leaked (spans can be recorded during static teardown).
Global &global() {
  static Global *G = new Global;
  return *G;
}

ThreadRing &myRing() {
  thread_local std::shared_ptr<ThreadRing> Mine = [] {
    Global &G = global();
    auto R = std::make_shared<ThreadRing>();
    std::lock_guard<std::mutex> Lock(G.Mutex);
    R->Tid = G.NextTid++;
    R->Capacity = std::max<size_t>(G.RingCapacity, 4);
    G.Rings.push_back(R);
    return R;
  }();
  return *Mine;
}

} // namespace

void TraceLog::setEnabled(bool On) {
  global(); // Pin the epoch before the first span.
  Armed.store(On, std::memory_order_relaxed);
}

uint64_t TraceLog::nowUs() {
  Global &G = global();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - G.Epoch)
          .count());
}

void TraceLog::setThreadName(std::string Name) {
  ThreadRing &R = myRing();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  R.Name = std::move(Name);
}

void TraceLog::record(std::string Name, uint64_t StartUs, uint64_t DurUs,
                      int64_t Arg, bool HasArg) {
  Event E;
  E.Name = std::move(Name);
  E.StartUs = StartUs;
  E.DurUs = DurUs;
  E.Arg = Arg;
  E.HasArg = HasArg;
  ThreadRing &R = myRing();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  if (R.Ring.size() < R.Capacity) {
    R.Ring.push_back(std::move(E));
  } else {
    // Wraparound: overwrite the oldest slot.
    R.Ring[R.Next] = std::move(E);
    ++R.Dropped;
    SpansDropped.add();
  }
  R.Next = (R.Next + 1) % R.Capacity;
  ++R.Total;
}

uint64_t TraceLog::spanCount() {
  Global &G = global();
  std::lock_guard<std::mutex> Lock(G.Mutex);
  uint64_t N = 0;
  for (const auto &R : G.Rings) {
    std::lock_guard<std::mutex> RLock(R->Mutex);
    N += R->Total;
  }
  return N;
}

uint64_t TraceLog::droppedCount() {
  Global &G = global();
  std::lock_guard<std::mutex> Lock(G.Mutex);
  uint64_t N = 0;
  for (const auto &R : G.Rings) {
    std::lock_guard<std::mutex> RLock(R->Mutex);
    N += R->Dropped;
  }
  return N;
}

void TraceLog::reset() {
  Global &G = global();
  std::lock_guard<std::mutex> Lock(G.Mutex);
  for (const auto &R : G.Rings) {
    std::lock_guard<std::mutex> RLock(R->Mutex);
    R->Ring.clear();
    R->Next = 0;
    R->Total = 0;
    R->Dropped = 0;
    R->Capacity = std::max<size_t>(G.RingCapacity, 4);
  }
}

void TraceLog::setRingCapacity(size_t Events) {
  Global &G = global();
  std::lock_guard<std::mutex> Lock(G.Mutex);
  G.RingCapacity = std::max<size_t>(Events, 4);
}

//===----------------------------------------------------------------------===//
// Active-span stacks. All storage is fixed and pre-allocated (the global
// slot array is static, the per-thread stacks are leaked heap blocks
// registered with a release-stored count), so a signal handler can walk
// every thread's stack with plain loads. Depth is published with release
// stores after the name bytes land; a racing reader sees at worst a stale
// frame, never a torn one.
//===----------------------------------------------------------------------===//

namespace {

struct SpanStack {
  uint32_t Tid = 0;
  char ThreadName[TraceLog::kCrashStackNameBytes] = {0};
  std::atomic<uint32_t> Depth{0};
  char Frames[TraceLog::kCrashStackMaxDepth]
             [TraceLog::kCrashStackNameBytes] = {{0}};
};

constexpr size_t kMaxSpanStacks = 256;
SpanStack *GSpanStacks[kMaxSpanStacks];
std::atomic<size_t> GNumSpanStacks{0};

thread_local SpanStack *MySpanStack = nullptr;

void copyFrameName(char *Dst, std::string_view Name) {
  size_t N = std::min(Name.size(), TraceLog::kCrashStackNameBytes - 1);
  std::memcpy(Dst, Name.data(), N);
  Dst[N] = '\0';
}

SpanStack *mySpanStack() {
  if (MySpanStack)
    return MySpanStack;
  // Resolve the ring first (it takes the global lock itself): the stack
  // shares the ring's tid and thread name so dumps and traces correlate.
  ThreadRing &Ring = myRing();
  auto *S = new SpanStack; // leaked: dumps may outlive the thread
  S->Tid = static_cast<uint32_t>(Ring.Tid);
  {
    std::lock_guard<std::mutex> Lock(Ring.Mutex);
    copyFrameName(S->ThreadName, Ring.Name);
  }
  Global &G = global();
  std::lock_guard<std::mutex> Lock(G.Mutex);
  size_t N = GNumSpanStacks.load(std::memory_order_relaxed);
  if (N >= kMaxSpanStacks) {
    delete S;
    return nullptr; // beyond any plausible thread count; frames just absent
  }
  GSpanStacks[N] = S;
  GNumSpanStacks.store(N + 1, std::memory_order_release);
  MySpanStack = S;
  return S;
}

} // namespace

void TraceLog::setStackCapture(bool On) {
  global(); // pin the epoch/registry like setEnabled does
  StacksArmed.store(On, std::memory_order_relaxed);
}

bool TraceLog::pushCrashStack(std::string_view Name) {
  SpanStack *S = mySpanStack();
  if (!S)
    return false;
  uint32_t D = S->Depth.load(std::memory_order_relaxed);
  if (D >= kCrashStackMaxDepth)
    return false; // deeper frames silently absent from dumps
  copyFrameName(S->Frames[D], Name);
  S->Depth.store(D + 1, std::memory_order_release);
  return true;
}

void TraceLog::popCrashStack() {
  SpanStack *S = MySpanStack;
  if (!S)
    return;
  uint32_t D = S->Depth.load(std::memory_order_relaxed);
  if (D > 0)
    S->Depth.store(D - 1, std::memory_order_release);
}

size_t TraceLog::crashStackCount() {
  return GNumSpanStacks.load(std::memory_order_acquire);
}

bool TraceLog::crashStackRead(size_t I, CrashStackView &Out) {
  if (I >= GNumSpanStacks.load(std::memory_order_acquire))
    return false;
  const SpanStack *S = GSpanStacks[I];
  Out.Tid = S->Tid;
  Out.ThreadName = S->ThreadName;
  uint32_t D = S->Depth.load(std::memory_order_acquire);
  Out.Depth = D < kCrashStackMaxDepth ? D : kCrashStackMaxDepth;
  Out.Frames = &S->Frames[0][0];
  return true;
}

namespace {

/// One complete ("X") duration event.
void writeEventJson(JsonWriter &W, const Event &E, int64_t Pid, int Tid) {
  W.beginObject();
  W.member("name", std::string_view(E.Name));
  W.member("cat", std::string_view("cable"));
  W.member("ph", std::string_view("X"));
  W.member("ts", E.StartUs);
  W.member("dur", E.DurUs);
  W.member("pid", Pid);
  W.member("tid", static_cast<int64_t>(Tid));
  if (E.HasArg) {
    W.key("args");
    W.beginObject();
    W.member("n", E.Arg);
    W.endObject();
  }
  W.endObject();
}

void writeMetadataJson(JsonWriter &W, std::string_view MetaName, int64_t Pid,
                       int64_t Tid, bool HasTid, std::string_view Name) {
  W.beginObject();
  W.member("name", MetaName);
  W.member("ph", std::string_view("M"));
  W.member("pid", Pid);
  if (HasTid)
    W.member("tid", Tid);
  W.key("args");
  W.beginObject();
  W.member("name", Name);
  W.endObject();
  W.endObject();
}

} // namespace

std::string TraceLog::exportJson(std::string_view ToolName) {
  Global &G = global();
  int64_t Pid = static_cast<int64_t>(::getpid());

  // Snapshot the ring list, then drain each ring under its own lock.
  std::vector<std::shared_ptr<ThreadRing>> Rings;
  {
    std::lock_guard<std::mutex> Lock(G.Mutex);
    Rings = G.Rings;
  }

  JsonWriter W;
  W.beginObject();
  W.key("traceEvents");
  W.beginArray();
  writeMetadataJson(W, "process_name", Pid, 0, false, ToolName);
  uint64_t TotalDropped = 0;
  for (const auto &RP : Rings) {
    std::lock_guard<std::mutex> Lock(RP->Mutex);
    ThreadRing &R = *RP;
    TotalDropped += R.Dropped;
    if (!R.Name.empty())
      writeMetadataJson(W, "thread_name", Pid, R.Tid, true, R.Name);
    // Oldest-first: after wraparound the oldest surviving event sits at
    // the insertion cursor.
    size_t N = R.Ring.size();
    size_t First = N < R.Capacity ? 0 : R.Next;
    for (size_t I = 0; I < N; ++I)
      writeEventJson(W, R.Ring[(First + I) % N], Pid, R.Tid);
  }
  W.endArray();
  W.key("otherData");
  W.beginObject();
  W.member("tool", ToolName);
  W.member("version", std::string_view(buildinfo::kVersion));
  W.member("git_sha", std::string_view(buildinfo::kGitSha));
  W.member("build_type", std::string_view(buildinfo::kBuildType));
  W.member("sanitize", std::string_view(buildinfo::kSanitize));
  W.member("dropped_events", TotalDropped);
  W.endObject();
  W.member("displayTimeUnit", std::string_view("ms"));
  W.endObject();
  return W.take();
}

Status TraceLog::writeJson(const std::string &Path,
                           std::string_view ToolName) {
  return AtomicFile::write(Path, exportJson(ToolName));
}

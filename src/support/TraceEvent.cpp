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
#include <cassert>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace cable;

std::atomic<bool> TraceLog::Armed{false};
std::atomic<bool> TraceLog::StacksArmed{false};

namespace {

/// Satellite of the overwrite-oldest ring policy: truncation is visible
/// in --stats and run reports, never silent.
Metrics::Counter &SpansDropped = Metrics::counter("trace.spans-dropped");

/// Every event is exported on this one thread id, named "main".
constexpr int64_t kTid = 1;

struct Event {
  std::string Name;
  uint64_t StartUs = 0;
  uint64_t DurUs = 0;
  int64_t Arg = 0;
  bool HasArg = false;
};

/// The span ring. Only the recording thread touches it.
struct SpanRing {
  std::vector<Event> Ring;
  size_t Capacity = 65536;
  size_t Next = 0;     ///< Ring insertion cursor.
  uint64_t Total = 0;  ///< Spans ever recorded.
  uint64_t Dropped = 0;
  std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();
};

/// Intentionally leaked (spans can be recorded during static teardown).
SpanRing &ring() {
  static SpanRing *R = new SpanRing;
  return *R;
}

/// The one-thread contract: the first thread to record owns the ring.
[[maybe_unused]] bool onRecordingThread() {
  static const std::thread::id Owner = std::this_thread::get_id();
  return std::this_thread::get_id() == Owner;
}

} // namespace

void TraceLog::setEnabled(bool On) {
  ring(); // Pin the epoch before the first span.
  Armed.store(On, std::memory_order_relaxed);
}

uint64_t TraceLog::nowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - ring().Epoch)
          .count());
}

void TraceLog::record(std::string Name, uint64_t StartUs, uint64_t DurUs,
                      int64_t Arg, bool HasArg) {
  assert(onRecordingThread() && "TraceLog records on one thread only");
  SpanRing &R = ring();
  Event E{std::move(Name), StartUs, DurUs, Arg, HasArg};
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

uint64_t TraceLog::spanCount() { return ring().Total; }

uint64_t TraceLog::droppedCount() { return ring().Dropped; }

void TraceLog::reset() {
  SpanRing &R = ring();
  R.Ring.clear();
  R.Next = 0;
  R.Total = 0;
  R.Dropped = 0;
}

void TraceLog::setRingCapacity(size_t Events) {
  ring().Capacity = std::max<size_t>(Events, 4);
  reset();
}

//===----------------------------------------------------------------------===//
// The active-span stack: static storage, so a signal handler reads it with
// plain loads. A push copies the name before the release store publishes
// the new depth, so the handler never counts a frame whose bytes have not
// landed.
//===----------------------------------------------------------------------===//

namespace {

std::atomic<uint32_t> GStackDepth{0};
char GStackFrames[TraceLog::kCrashStackMaxDepth]
                 [TraceLog::kCrashStackNameBytes];

} // namespace

void TraceLog::setStackCapture(bool On) {
  StacksArmed.store(On, std::memory_order_relaxed);
}

bool TraceLog::pushCrashStack(std::string_view Name) {
  uint32_t D = GStackDepth.load(std::memory_order_relaxed);
  if (D >= kCrashStackMaxDepth)
    return false; // deeper frames silently absent from dumps
  size_t N = std::min(Name.size(), kCrashStackNameBytes - 1);
  std::memcpy(GStackFrames[D], Name.data(), N);
  GStackFrames[D][N] = '\0';
  GStackDepth.store(D + 1, std::memory_order_release);
  return true;
}

void TraceLog::popCrashStack() {
  uint32_t D = GStackDepth.load(std::memory_order_relaxed);
  if (D > 0)
    GStackDepth.store(D - 1, std::memory_order_release);
}

TraceLog::CrashStackView TraceLog::crashStack() {
  return {GStackDepth.load(std::memory_order_acquire),
          &GStackFrames[0][0]};
}

namespace {

/// One complete ("X") duration event.
void writeEventJson(JsonWriter &W, const Event &E, int64_t Pid) {
  W.beginObject();
  W.member("name", std::string_view(E.Name));
  W.member("cat", std::string_view("cable"));
  W.member("ph", std::string_view("X"));
  W.member("ts", E.StartUs);
  W.member("dur", E.DurUs);
  W.member("pid", Pid);
  W.member("tid", kTid);
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
  SpanRing &R = ring();
  int64_t Pid = static_cast<int64_t>(::getpid());

  JsonWriter W;
  W.beginObject();
  W.key("traceEvents");
  W.beginArray();
  writeMetadataJson(W, "process_name", Pid, 0, false, ToolName);
  writeMetadataJson(W, "thread_name", Pid, kTid, true, "main");
  // Oldest-first: after wraparound the oldest surviving event sits at the
  // insertion cursor.
  size_t N = R.Ring.size();
  size_t First = N < R.Capacity ? 0 : R.Next;
  for (size_t I = 0; I < N; ++I)
    writeEventJson(W, R.Ring[(First + I) % N], Pid);
  W.endArray();
  W.key("otherData");
  W.beginObject();
  W.member("tool", ToolName);
  W.member("version", std::string_view(buildinfo::kVersion));
  W.member("git_sha", std::string_view(buildinfo::kGitSha));
  W.member("build_type", std::string_view(buildinfo::kBuildType));
  W.member("sanitize", std::string_view(buildinfo::kSanitize));
  W.member("dropped_events", R.Dropped);
  W.endObject();
  W.member("displayTimeUnit", std::string_view("ms"));
  W.endObject();
  return W.take();
}

Status TraceLog::writeJson(const std::string &Path,
                           std::string_view ToolName) {
  return AtomicFile::write(Path, exportJson(ToolName));
}

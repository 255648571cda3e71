//===- support/Log.cpp - Structured event logging --------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Log.h"

#include "support/AtomicFile.h"
#include "support/BuildInfo.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>

#include <unistd.h>

using namespace cable;

std::atomic<unsigned> Log::Armed{0};

namespace {

std::atomic<uint8_t> MinLevel{static_cast<uint8_t>(Log::Level::Info)};
std::atomic<uint64_t> NextSeq{0};

/// One thread's bounded record ring. Appends are lock-free against every
/// other thread's appends; the mutex only serializes this thread's
/// appender against the exporter, exactly like TraceLog's span rings.
struct ThreadRing {
  std::mutex Mutex;
  uint32_t Tid = 0;
  std::vector<Log::Record> Ring;
  size_t Capacity = 0;
  size_t Next = 0;
  uint64_t Total = 0;
  uint64_t Dropped = 0;
};

struct Global {
  std::mutex Mutex;
  std::vector<ThreadRing *> Rings; ///< leaked; a ring outlives its thread
  uint32_t NextTid = 1;
  size_t RingCapacity = 4096;
  std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();
};

/// Intentionally leaked: records may be appended from static destructors.
Global &global() {
  static Global *G = new Global;
  return *G;
}

thread_local ThreadRing *MyRing = nullptr;

ThreadRing *myRing() {
  if (MyRing)
    return MyRing;
  Global &G = global();
  std::lock_guard<std::mutex> Lock(G.Mutex);
  auto *R = new ThreadRing; // leaked with the registry
  R->Tid = G.NextTid++;
  R->Capacity = G.RingCapacity;
  G.Rings.push_back(R);
  MyRing = R;
  return R;
}

uint64_t nowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - global().Epoch)
          .count());
}

//===----------------------------------------------------------------------===//
// Crash ring: fully rendered JSON object lines in fixed storage, readable
// from a signal handler while other threads keep writing. Each slot is a
// seqlock: the writer claims it by swapping an older even stamp for
// 2*idx+1 (odd: mid-copy), fills the text, then stamps 2*idx+2; the
// reader accepts a slot only when it reads the even stamp before *and*
// after the copy. Writers whose indices differ by kCrashSlots share a
// slot, so a writer that finds it held (odd) or already newer drops its
// line rather than copy over another writer's text.
//===----------------------------------------------------------------------===//

constexpr size_t kCrashSlots = 64;
constexpr size_t kCrashSlotBytes = 1024;

struct CrashSlot {
  std::atomic<uint64_t> State{0};
  uint32_t Len = 0;
  char Text[kCrashSlotBytes];
};

CrashSlot GCrashRing[kCrashSlots];
std::atomic<uint64_t> GCrashNext{0};

void crashRingAppend(const char *Line, size_t Len) {
  if (Len == 0 || Len > kCrashSlotBytes)
    return; // an over-long line is dropped, never truncated mid-JSON
  uint64_t Idx = GCrashNext.fetch_add(1, std::memory_order_relaxed);
  CrashSlot &S = GCrashRing[Idx % kCrashSlots];
  uint64_t Prev = S.State.load(std::memory_order_relaxed);
  if ((Prev & 1) || Prev > 2 * Idx ||
      !S.State.compare_exchange_strong(Prev, 2 * Idx + 1,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed))
    return; // the ring is best-effort: drop rather than tear
  std::atomic_thread_fence(std::memory_order_release);
  std::memcpy(S.Text, Line, Len);
  S.Len = static_cast<uint32_t>(Len);
  S.State.store(2 * Idx + 2, std::memory_order_release);
}

//===----------------------------------------------------------------------===//
// JSON line rendering. Log output must stay parseable by strict JSON
// readers even when a message carries arbitrary path bytes, so unlike the
// general JsonWriter this escaper also hex-escapes every byte >= 0x7F:
// the rendered line is pure ASCII and valid UTF-8 by construction.
//===----------------------------------------------------------------------===//

void appendEscaped(std::string &Out, std::string_view S) {
  for (unsigned char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (C < 0x20 || C >= 0x7F) {
        char Hex[8];
        std::snprintf(Hex, sizeof(Hex), "\\u%04x", C);
        Out += Hex;
      } else {
        Out += static_cast<char>(C);
      }
    }
  }
}

void renderRecordJson(std::string &Out, const Log::Record &R, int Pid) {
  Out += "{\"seq\":";
  Out += std::to_string(R.Seq);
  Out += ",\"pid\":";
  Out += std::to_string(Pid);
  Out += ",\"tid\":";
  Out += std::to_string(R.Tid);
  Out += ",\"t_us\":";
  Out += std::to_string(R.TimeUs);
  Out += ",\"level\":\"";
  Out += Log::levelName(R.Lvl);
  Out += "\",\"event\":\"";
  appendEscaped(Out, R.Event);
  Out += "\",\"subsystem\":\"";
  appendEscaped(Out, R.Subsystem);
  Out += "\",\"msg\":\"";
  appendEscaped(Out, R.Msg);
  Out += "\"";
  if (!R.Fields.empty()) {
    Out += ",\"fields\":{";
    bool First = true;
    for (const Log::Field &F : R.Fields) {
      if (!First)
        Out += ",";
      First = false;
      Out += "\"";
      appendEscaped(Out, F.Key);
      Out += "\":";
      if (F.Numeric) {
        Out += F.Value;
      } else {
        Out += "\"";
        appendEscaped(Out, F.Value);
        Out += "\"";
      }
    }
    Out += "}";
  }
  Out += "}";
}

} // namespace

void Log::setEnabled(bool On) {
  if (On) {
    (void)global(); // pin the registry before any emit
    Armed.fetch_or(kStructuredBit, std::memory_order_relaxed);
  } else {
    Armed.fetch_and(~kStructuredBit, std::memory_order_relaxed);
  }
}

void Log::setCrashCapture(bool On) {
  if (On) {
    (void)global();
    Armed.fetch_or(kCrashBit, std::memory_order_relaxed);
  } else {
    Armed.fetch_and(~kCrashBit, std::memory_order_relaxed);
  }
}

void Log::setLevel(Level L) {
  MinLevel.store(static_cast<uint8_t>(L), std::memory_order_relaxed);
}

Log::Level Log::level() {
  return static_cast<Level>(MinLevel.load(std::memory_order_relaxed));
}

bool Log::parseLevel(std::string_view Text, Level &Out) {
  if (Text == "debug")
    Out = Level::Debug;
  else if (Text == "info")
    Out = Level::Info;
  else if (Text == "warn" || Text == "warning")
    Out = Level::Warn;
  else if (Text == "error")
    Out = Level::Error;
  else
    return false;
  return true;
}

const char *Log::levelName(Level L) {
  switch (L) {
  case Level::Debug:
    return "debug";
  case Level::Info:
    return "info";
  case Level::Warn:
    return "warn";
  case Level::Error:
    return "error";
  }
  return "info";
}

void Log::emit(Level L, std::string_view Subsystem, std::string_view Event,
               std::string_view Msg, std::initializer_list<Field> Fields) {
  if (!enabled())
    return;
  if (static_cast<uint8_t>(L) < MinLevel.load(std::memory_order_relaxed))
    return;

  ThreadRing *R = myRing();
  Record Rec;
  Rec.Seq = NextSeq.fetch_add(1, std::memory_order_relaxed) + 1;
  Rec.TimeUs = nowUs();
  Rec.Lvl = L;
  Rec.Event = std::string(Event);
  Rec.Subsystem = std::string(Subsystem);
  Rec.Msg = std::string(Msg);
  Rec.Fields.assign(Fields.begin(), Fields.end());
  Rec.Tid = R->Tid;

  // Crash ring first: even if the structured store below is never
  // drained, a dying process keeps its last events.
  std::string Line;
  renderRecordJson(Line, Rec, ::getpid());
  crashRingAppend(Line.data(), Line.size());

  std::lock_guard<std::mutex> Lock(R->Mutex);
  if (R->Ring.size() < R->Capacity) {
    R->Ring.push_back(std::move(Rec));
  } else {
    if (R->Capacity == 0)
      return;
    R->Ring[R->Next % R->Capacity] = std::move(Rec);
    ++R->Dropped;
  }
  ++R->Next;
  ++R->Total;
}

std::vector<Log::Record> Log::drainRecords() {
  Global &G = global();
  std::vector<ThreadRing *> Rings;
  {
    std::lock_guard<std::mutex> Lock(G.Mutex);
    Rings = G.Rings;
  }
  std::vector<Record> Out;
  for (ThreadRing *R : Rings) {
    std::lock_guard<std::mutex> Lock(R->Mutex);
    size_t N = R->Ring.size();
    if (N == 0)
      continue;
    // Oldest-first within the ring: entries [Next % Cap, ...) wrapped.
    size_t Start = R->Ring.size() < R->Capacity ? 0 : R->Next % R->Capacity;
    for (size_t I = 0; I < N; ++I)
      Out.push_back(std::move(R->Ring[(Start + I) % N]));
    R->Ring.clear();
    R->Next = 0;
  }
  std::sort(Out.begin(), Out.end(),
            [](const Record &A, const Record &B) { return A.Seq < B.Seq; });
  return Out;
}

uint64_t Log::droppedCount() {
  Global &G = global();
  std::vector<ThreadRing *> Rings;
  uint64_t Total = 0;
  {
    std::lock_guard<std::mutex> Lock(G.Mutex);
    Rings = G.Rings;
  }
  for (ThreadRing *R : Rings) {
    std::lock_guard<std::mutex> Lock(R->Mutex);
    Total += R->Dropped;
  }
  return Total;
}

void Log::reset() {
  Global &G = global();
  std::vector<ThreadRing *> Rings;
  {
    std::lock_guard<std::mutex> Lock(G.Mutex);
    Rings = G.Rings;
  }
  for (ThreadRing *R : Rings) {
    std::lock_guard<std::mutex> Lock(R->Mutex);
    R->Ring.clear();
    R->Next = 0;
    R->Dropped = 0;
    R->Total = 0;
  }
  for (CrashSlot &S : GCrashRing) {
    S.State.store(0, std::memory_order_relaxed);
    S.Len = 0;
  }
  GCrashNext.store(0, std::memory_order_relaxed);
}

std::string Log::exportJsonl(std::string_view Tool) {
  int Pid = ::getpid();
  std::string Out = "{\"schema\":\"cable-log/1\",\"tool\":\"";
  appendEscaped(Out, Tool);
  Out += "\",\"version\":\"";
  appendEscaped(Out, buildinfo::kVersion);
  Out += "\",\"git_sha\":\"";
  appendEscaped(Out, buildinfo::kGitSha);
  Out += "\",\"build_type\":\"";
  appendEscaped(Out, buildinfo::kBuildType);
  Out += "\",\"pid\":";
  Out += std::to_string(Pid);
  Out += ",\"dropped\":";
  Out += std::to_string(droppedCount());
  Out += "}\n";

  for (const Record &R : drainRecords()) {
    renderRecordJson(Out, R, Pid);
    Out += "\n";
  }
  return Out;
}

Status Log::writeJsonl(const std::string &Path, std::string_view Tool) {
  return AtomicFile::write(Path, exportJsonl(Tool));
}

size_t Log::copyCrashRecords(char *Buf, size_t Cap) {
  uint64_t End = GCrashNext.load(std::memory_order_acquire);
  uint64_t Start = End > kCrashSlots ? End - kCrashSlots : 0;
  size_t Written = 0;
  for (uint64_t Idx = Start; Idx < End; ++Idx) {
    CrashSlot &S = GCrashRing[Idx % kCrashSlots];
    uint64_t St = S.State.load(std::memory_order_acquire);
    if (St != 2 * Idx + 2)
      continue; // torn or already overwritten by a newer writer
    uint32_t Len = S.Len;
    if (Len == 0 || Len > kCrashSlotBytes)
      continue;
    if (Written + Len + 1 > Cap)
      break;
    std::memcpy(Buf + Written, S.Text, Len);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (S.State.load(std::memory_order_relaxed) != 2 * Idx + 2)
      continue; // a writer raced in mid-copy; drop the torn bytes
    Written += Len;
    Buf[Written++] = '\n';
  }
  return Written;
}

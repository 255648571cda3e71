//===- support/Log.cpp - Structured event logging --------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Log.h"

#include "support/AtomicFile.h"
#include "support/BuildInfo.h"

#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include <unistd.h>

using namespace cable;

std::atomic<unsigned> Log::Armed{0};

namespace {

/// The structured record ring. Only the emitting thread touches it, and it
/// takes records in seq order, so the oldest survivor sits at the cursor.
struct RecordRing {
  Log::Level MinLevel = Log::Level::Info;
  uint64_t LastSeq = 0;
  std::vector<Log::Record> Ring;
  size_t Next = 0; ///< Ring insertion cursor.
  uint64_t Dropped = 0;
  std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();
};

/// Intentionally leaked: records may be appended from static destructors.
RecordRing &ring() {
  static RecordRing *R = new RecordRing;
  return *R;
}

/// The one-thread contract: the first thread to emit owns the log.
[[maybe_unused]] bool onRecordingThread() {
  static const std::thread::id Owner = std::this_thread::get_id();
  return std::this_thread::get_id() == Owner;
}

uint64_t nowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - ring().Epoch)
          .count());
}

//===----------------------------------------------------------------------===//
// Crash ring: fully rendered JSON object lines in fixed storage, readable
// from a signal handler that interrupts the emitting thread. Each slot is
// stamped with its line index: odd (2*idx+1) while emit copies into it,
// even (2*idx+2) once the line is whole. The signal fences keep the
// compiler from moving the copy across either stamp, so a handler that
// lands mid-copy sees an odd stamp and skips the slot.
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
  uint64_t Idx = GCrashNext.load(std::memory_order_relaxed);
  CrashSlot &S = GCrashRing[Idx % kCrashSlots];
  S.State.store(2 * Idx + 1, std::memory_order_relaxed);
  std::atomic_signal_fence(std::memory_order_seq_cst);
  std::memcpy(S.Text, Line, Len);
  S.Len = static_cast<uint32_t>(Len);
  std::atomic_signal_fence(std::memory_order_seq_cst);
  S.State.store(2 * Idx + 2, std::memory_order_relaxed);
  GCrashNext.store(Idx + 1, std::memory_order_relaxed);
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
  Out += ",\"tid\":1";
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
    (void)ring(); // pin the epoch before any emit
    Armed.fetch_or(kStructuredBit, std::memory_order_relaxed);
  } else {
    Armed.fetch_and(~kStructuredBit, std::memory_order_relaxed);
  }
}

void Log::setCrashCapture(bool On) {
  if (On) {
    (void)ring();
    Armed.fetch_or(kCrashBit, std::memory_order_relaxed);
  } else {
    Armed.fetch_and(~kCrashBit, std::memory_order_relaxed);
  }
}

void Log::setLevel(Level L) { ring().MinLevel = L; }

Log::Level Log::level() { return ring().MinLevel; }

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
  assert(onRecordingThread() && "Log emits on one thread only");
  RecordRing &R = ring();
  if (L < R.MinLevel)
    return;

  Record Rec;
  Rec.Seq = ++R.LastSeq;
  Rec.TimeUs = nowUs();
  Rec.Lvl = L;
  Rec.Event = std::string(Event);
  Rec.Subsystem = std::string(Subsystem);
  Rec.Msg = std::string(Msg);
  Rec.Fields.assign(Fields.begin(), Fields.end());

  // Crash ring first: even if the structured ring below is never drained,
  // a dying process keeps its last events.
  std::string Line;
  renderRecordJson(Line, Rec, ::getpid());
  crashRingAppend(Line.data(), Line.size());

  if (!(Armed.load(std::memory_order_relaxed) & kStructuredBit))
    return;
  if (R.Ring.size() < kRingCapacity) {
    R.Ring.push_back(std::move(Rec));
  } else {
    R.Ring[R.Next] = std::move(Rec);
    ++R.Dropped;
  }
  R.Next = (R.Next + 1) % kRingCapacity;
}

std::vector<Log::Record> Log::drainRecords() {
  RecordRing &R = ring();
  size_t N = R.Ring.size();
  std::vector<Record> Out;
  Out.reserve(N);
  size_t First = N < kRingCapacity ? 0 : R.Next;
  for (size_t I = 0; I < N; ++I)
    Out.push_back(std::move(R.Ring[(First + I) % N]));
  R.Ring.clear();
  R.Next = 0;
  return Out;
}

uint64_t Log::droppedCount() { return ring().Dropped; }

void Log::reset() {
  RecordRing &R = ring();
  R.Ring.clear();
  R.Next = 0;
  R.Dropped = 0;
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
  uint64_t End = GCrashNext.load(std::memory_order_relaxed);
  uint64_t Start = End > kCrashSlots ? End - kCrashSlots : 0;
  size_t Written = 0;
  for (uint64_t Idx = Start; Idx < End; ++Idx) {
    const CrashSlot &S = GCrashRing[Idx % kCrashSlots];
    if (S.State.load(std::memory_order_relaxed) != 2 * Idx + 2)
      continue; // torn: the signal landed while emit was copying
    std::atomic_signal_fence(std::memory_order_seq_cst);
    uint32_t Len = S.Len;
    if (Written + Len + 1 > Cap)
      break;
    std::memcpy(Buf + Written, S.Text, Len);
    Written += Len;
    Buf[Written++] = '\n';
  }
  return Written;
}

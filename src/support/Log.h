//===- support/Log.h - Structured event logging -----------------*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Process-wide structured logging: the machine-readable counterpart of
/// the ad-hoc stderr warnings, in the same cost model as Metrics and
/// Failpoint (docs/OBSERVABILITY.md):
///
///  - Disarmed (the default), every site is one relaxed atomic load and a
///    predicted branch; the CABLE_LOG_* macros skip even the field
///    construction. -DCABLE_NO_INSTRUMENT=ON compiles the sites out.
///  - Armed, records land in one overwrite-oldest ring, plus a fixed
///    crash ring of pre-rendered JSON lines the flight recorder
///    (support/CrashDump.h) can read from a signal handler.
///  - One thread, like TraceLog: Cable answers one user's commands on one
///    thread, so the rings take no locks and every record carries tid 1.
///    The first thread that emits owns the log; debug builds assert that
///    every later emit comes from it.
///
/// Two arming bits, one combined gate:
///
///  - setEnabled(true) (the `--log-out` / CABLE_LOG path) arms structured
///    collection: records are kept for exportJsonl, the newest
///    kRingCapacity of them.
///  - setCrashCapture(true) (done by CrashDump::install) arms only the
///    crash ring, so a process with a flight recorder but no --log-out
///    still dies with its last events on record.
///
/// A record is a monotonic per-process sequence number, a microsecond
/// timestamp, a level, a stable kebab-case event code, a subsystem, a
/// short message, and up to a handful of key/value fields. Event codes
/// are API: the catalog lives in docs/OBSERVABILITY.md and harnesses
/// assert on them; messages are prose and carry no contract.
///
/// Exported form is `cable-log/1` JSONL: one header object (schema, tool,
/// build stamp, pid), then one object per record ordered by seq.
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_SUPPORT_LOG_H
#define CABLE_SUPPORT_LOG_H

#include "support/Status.h"

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace cable {

class Log {
public:
  enum class Level : uint8_t { Debug = 0, Info = 1, Warn = 2, Error = 3 };

  /// True when any collection (structured or crash ring) is armed — the
  /// one-relaxed-load hot-path gate.
  static bool enabled() {
#ifdef CABLE_NO_INSTRUMENT
    return false;
#else
    return Armed.load(std::memory_order_relaxed) != 0;
#endif
  }

  static void setEnabled(bool On);      ///< Structured ring (`--log-out`).
  static void setCrashCapture(bool On); ///< Crash ring only (flight recorder).

  /// Records below the threshold are dropped at the emit site. Default
  /// Info.
  static void setLevel(Level L);
  static Level level();
  /// Parses "debug" / "info" / "warn" / "error" (the `--log-level` values).
  static bool parseLevel(std::string_view Text, Level &Out);
  static const char *levelName(Level L);

  /// One key/value field. Numeric fields render unquoted in JSON.
  struct Field {
    std::string Key;
    std::string Value;
    bool Numeric = false;
  };
  static Field str(std::string_view Key, std::string_view Value) {
    return Field{std::string(Key), std::string(Value), false};
  }
  static Field num(std::string_view Key, int64_t Value) {
    return Field{std::string(Key), std::to_string(Value), true};
  }

  /// One structured record. TimeUs is microseconds since the process
  /// epoch.
  struct Record {
    uint64_t Seq = 0;
    uint64_t TimeUs = 0;
    Level Lvl = Level::Info;
    std::string Event;     ///< stable kebab-case code (the contract)
    std::string Subsystem; ///< kebab-case subsystem (cache, journal, ...)
    std::string Msg;       ///< human prose, no contract
    std::vector<Field> Fields;
  };

  /// Records the structured ring keeps; older ones are overwritten and
  /// counted by droppedCount().
  static constexpr size_t kRingCapacity = 4096;

  /// Appends a record (when armed and at/above the level threshold).
  /// Prefer the CABLE_LOG_* macros, which skip argument construction when
  /// disarmed.
  static void emit(Level L, std::string_view Subsystem,
                   std::string_view Event, std::string_view Msg,
                   std::initializer_list<Field> Fields = {});

  /// Removes and returns every buffered record, ordered by seq.
  static std::vector<Record> drainRecords();

  /// Records overwritten in the ring since process start (or reset()).
  static uint64_t droppedCount();

  /// Drops every buffered record, in the ring and the crash ring, and
  /// zeroes the drop count; the sequence counter persists (test
  /// isolation).
  static void reset();

  /// The `cable-log/1` JSONL document: header line then records ordered
  /// by seq. Drains the ring.
  static std::string exportJsonl(std::string_view Tool);
  static Status writeJsonl(const std::string &Path, std::string_view Tool);

  /// Async-signal-safe: copies the crash ring's pre-rendered JSON object
  /// lines, oldest first, newline-separated, into \p Buf. Returns bytes
  /// written. A torn slot (the signal landed while emit was copying into
  /// it) is skipped, never emitted half-written.
  static size_t copyCrashRecords(char *Buf, size_t Cap);

private:
  static constexpr unsigned kStructuredBit = 1;
  static constexpr unsigned kCrashBit = 2;
  static std::atomic<unsigned> Armed;
};

} // namespace cable

/// Emission macros: field/message construction is skipped entirely when
/// disarmed, and the whole site compiles out under CABLE_NO_INSTRUMENT.
#ifdef CABLE_NO_INSTRUMENT
#define CABLE_LOG_EVENT(Lvl, Subsys, Event, Msg, ...)                          \
  do {                                                                         \
  } while (0)
#else
#define CABLE_LOG_EVENT(Lvl, Subsys, Event, Msg, ...)                          \
  do {                                                                         \
    if (::cable::Log::enabled())                                               \
      ::cable::Log::emit(Lvl, Subsys, Event, Msg, ##__VA_ARGS__);              \
  } while (0)
#endif

#define CABLE_LOG_INFO(Subsys, Event, Msg, ...)                                \
  CABLE_LOG_EVENT(::cable::Log::Level::Info, Subsys, Event, Msg,               \
                  ##__VA_ARGS__)
#define CABLE_LOG_WARN(Subsys, Event, Msg, ...)                                \
  CABLE_LOG_EVENT(::cable::Log::Level::Warn, Subsys, Event, Msg,               \
                  ##__VA_ARGS__)
#define CABLE_LOG_ERROR(Subsys, Event, Msg, ...)                               \
  CABLE_LOG_EVENT(::cable::Log::Level::Error, Subsys, Event, Msg,              \
                  ##__VA_ARGS__)

#endif // CABLE_SUPPORT_LOG_H

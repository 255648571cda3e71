//===- cable/Journal.h - Write-ahead session journal ------------*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Durable labeling sessions (the paper's Step 2 is a long human session;
/// losing it to a crash is the worst failure mode this tool has). The
/// journal is a classic write-ahead log over *commands*: every mutating
/// REPL command is appended — CRC-framed, fsynced — *before* it is applied
/// to the Session, and a compacted snapshot of the full session state
/// (labels + undo history, Session::serializeSnapshot) is written
/// atomically every few commands. Recovery is deterministic replay:
/// restore the snapshot, then re-execute the journal tail through the
/// very same command dispatcher that produced it (tool/Commands.h; a
/// `load` record carries the bytes it read). Because every command
/// handler is deterministic (lattice construction is a pure function of
/// the context, the oracle strategy carries no RNG), the recovered
/// session is bit-identical to the lost one up to the last durable record;
/// at most the single in-flight command is lost, and a torn final record
/// is skipped with a positioned warning, never an abort.
///
/// A journal directory holds:
///
///   journal.log    8-byte header (`CBLJ` + u32 version LE), then framed
///                  records: payload = u64 sequence number LE + the
///                  command text (support/AtomicFile.h framing).
///   snapshot.cable checksum-headered (`#%cable-snapshot v1 crc=...`)
///                  text: a `seq <S>` line, then the session snapshot.
///                  Replaced atomically; records with sequence <= S are
///                  dead and the log is truncated after a snapshot lands.
///   ACTIVE         marker created on open, removed on clean close; its
///                  presence on open means the previous process died.
///
/// Failpoints: `journal-append`, `journal-fsync`, `journal-snapshot`,
/// plus the `atomicfile-*` points under the snapshot write.
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_CABLE_JOURNAL_H
#define CABLE_CABLE_JOURNAL_H

#include "support/Status.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cable {

class Journal {
public:
  static constexpr uint32_t kFormatVersion = 1;

  /// What open() found on disk — everything recovery needs.
  struct Recovery {
    /// Session snapshot body (Session::loadSnapshot input); empty and
    /// HasSnapshot=false on a fresh directory.
    bool HasSnapshot = false;
    std::string SnapshotBody;
    uint64_t SnapshotSeq = 0;
    /// Journal-tail commands with sequence > SnapshotSeq, oldest first.
    std::vector<std::string> Commands;
    /// True when the previous session did not close cleanly (ACTIVE
    /// marker present) — recovery is resuming a crashed session rather
    /// than a quit one.
    bool UncleanShutdown = false;
    /// Ok, or a Warning diagnostic describing a torn final record that
    /// was skipped (positioned by record number, file = journal.log).
    Status TornTail;
  };

  Journal() = default;
  ~Journal();
  Journal(Journal &&Other) noexcept;
  Journal &operator=(Journal &&Other) noexcept;
  Journal(const Journal &) = delete;
  Journal &operator=(const Journal &) = delete;

  /// Opens (creating if needed) the journal in \p Dir, fills \p Out with
  /// the recovered state, truncates any torn tail so future appends stay
  /// scannable, positions the sequence counter after the last durable
  /// record, and drops the ACTIVE marker. Fails with io-error on an
  /// unwritable directory and parse-error on a foreign/corrupt journal
  /// or snapshot file (a corrupt *tail* is recovered from; a corrupt
  /// snapshot is not silently ignored — the user is told).
  static StatusOr<Journal> open(const std::string &Dir, Recovery &Out);

  /// When to fsync appended records. EveryRecord (the interactive
  /// default) makes each command durable against power loss before it is
  /// applied: at most the in-flight command can be lost. Batched defers
  /// the fsync to flush()/snapshot()/closeClean(): a *process* crash
  /// still loses nothing (the kernel already has every write), only an
  /// OS crash or power cut can drop the un-flushed tail — the right
  /// trade for scripted sessions, where the script file itself re-seeds
  /// any lost tail deterministically on the next run.
  enum class SyncPolicy { EveryRecord, Batched };

  void setSyncPolicy(SyncPolicy P) { Policy = P; }
  SyncPolicy syncPolicy() const { return Policy; }

  /// WAL append: frames \p Command with the next sequence number and
  /// writes it, fsyncing under SyncPolicy::EveryRecord. Call before
  /// applying the command; on failure the caller must not apply
  /// (durability can no longer be promised).
  Status append(std::string_view Command);

  /// Fsyncs any appends Batched mode has buffered; a no-op when nothing
  /// is pending.
  Status flush();

  /// Writes \p SessionBody as the new snapshot (atomic replace), then
  /// truncates the log — the compaction step. On failure the old
  /// snapshot and the full log remain valid; skipping a snapshot only
  /// costs replay time.
  Status snapshot(std::string_view SessionBody);

  /// Removes the ACTIVE marker and closes the log. The caller should
  /// snapshot() first so the next open replays nothing.
  Status closeClean();

  /// Sequence number of the last appended record (0 = none yet).
  uint64_t lastSeq() const { return Seq; }

  /// The log's file descriptor, for async-signal-safe fsync in a signal
  /// handler; -1 when closed.
  int fd() const { return Fd; }

  bool isOpen() const { return Fd >= 0; }

  static std::string logPath(const std::string &Dir);
  static std::string snapshotPath(const std::string &Dir);
  static std::string markerPath(const std::string &Dir);

private:
  std::string Dir;
  int Fd = -1;
  uint64_t Seq = 0;     ///< Last appended (or recovered) sequence number.
  uint64_t SnapSeq = 0; ///< Sequence the on-disk snapshot covers.
  SyncPolicy Policy = SyncPolicy::EveryRecord;
  bool Dirty = false;   ///< Batched appends not yet fsynced.
};

} // namespace cable

#endif // CABLE_CABLE_JOURNAL_H

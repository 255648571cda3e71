//===- cable/Journal.cpp - Write-ahead session journal ---------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "cable/Journal.h"

#include "support/AtomicFile.h"
#include "support/Failpoint.h"
#include "support/Log.h"
#include "support/Metrics.h"
#include "support/StringUtil.h"
#include "support/TraceEvent.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace cable;

namespace {

Failpoint::Registrar RegAppend("journal-append");
Failpoint::Registrar RegFsync("journal-fsync");
Failpoint::Registrar RegSnapshot("journal-snapshot");

Metrics::Counter &NumAppends = Metrics::counter("journal.appends");
Metrics::Counter &BytesWritten = Metrics::counter("journal.bytes-written");
Metrics::Counter &NumRecoveries = Metrics::counter("journal.recoveries");
Metrics::Counter &NumUncleanRecoveries =
    Metrics::counter("journal.unclean-recoveries");
Metrics::Counter &NumTornTails = Metrics::counter("journal.torn-tails");
Metrics::Counter &NumReplayed = Metrics::counter("journal.replayed-commands");
Metrics::Histogram &AppendUs = Metrics::histogram("journal.append-us");
Metrics::Histogram &FsyncUs = Metrics::histogram("journal.fsync-us");
Metrics::Histogram &SnapshotUs = Metrics::histogram("journal.snapshot-us");

constexpr char kMagic[4] = {'C', 'B', 'L', 'J'};
constexpr size_t kHeaderSize = 8;

Status ioError(const std::string &Path, const std::string &What) {
  Diagnostic D;
  D.Level = Severity::Error;
  D.Code = ErrorCode::IoError;
  D.File = Path;
  D.Message = What + ": " + std::strerror(errno);
  return Status::error(std::move(D));
}

std::string encodeHeader() {
  std::string H(kMagic, sizeof(kMagic));
  for (int I = 0; I < 4; ++I)
    H.push_back(static_cast<char>((Journal::kFormatVersion >> (8 * I)) &
                                  0xFF));
  return H;
}

uint64_t decodeSeq(std::string_view Payload) {
  uint64_t V = 0;
  for (int I = 7; I >= 0; --I)
    V = (V << 8) | static_cast<uint8_t>(Payload[static_cast<size_t>(I)]);
  return V;
}

void encodeSeq(std::string &Out, uint64_t Seq) {
  for (int I = 0; I < 8; ++I)
    Out.push_back(static_cast<char>((Seq >> (8 * I)) & 0xFF));
}

Status writeAll(int Fd, const std::string &Path, std::string_view Data) {
  size_t Written = 0;
  while (Written < Data.size()) {
    ssize_t N = ::write(Fd, Data.data() + Written, Data.size() - Written);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return ioError(Path, "write failed");
    }
    Written += static_cast<size_t>(N);
  }
  return Status::ok();
}

bool fileExists(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0;
}

} // namespace

std::string Journal::logPath(const std::string &Dir) {
  return Dir + "/journal.log";
}
std::string Journal::snapshotPath(const std::string &Dir) {
  return Dir + "/snapshot.cable";
}
std::string Journal::markerPath(const std::string &Dir) {
  return Dir + "/ACTIVE";
}

Journal::~Journal() {
  if (Fd >= 0)
    ::close(Fd);
}

Journal::Journal(Journal &&Other) noexcept
    : Dir(std::move(Other.Dir)), Fd(Other.Fd), Seq(Other.Seq),
      SnapSeq(Other.SnapSeq), Policy(Other.Policy), Dirty(Other.Dirty) {
  Other.Fd = -1;
}

Journal &Journal::operator=(Journal &&Other) noexcept {
  if (this != &Other) {
    if (Fd >= 0)
      ::close(Fd);
    Dir = std::move(Other.Dir);
    Fd = Other.Fd;
    Seq = Other.Seq;
    SnapSeq = Other.SnapSeq;
    Policy = Other.Policy;
    Dirty = Other.Dirty;
    Other.Fd = -1;
  }
  return *this;
}

StatusOr<Journal> Journal::open(const std::string &DirPath, Recovery &Out) {
  Out = Recovery();
  if (::mkdir(DirPath.c_str(), 0755) != 0 && errno != EEXIST)
    return ioError(DirPath, "cannot create journal directory");

  Out.UncleanShutdown = fileExists(markerPath(DirPath));

  // Snapshot first: it defines which log records are live.
  if (fileExists(snapshotPath(DirPath))) {
    StatusOr<std::string> Text = readFileToString(snapshotPath(DirPath));
    if (!Text)
      return Text.status();
    StatusOr<CheckedText> Checked = readChecksumHeader(
        "cable-snapshot", *Text, snapshotPath(DirPath), /*AllowLegacy=*/false);
    if (!Checked)
      return Checked.status();
    std::string_view Body = Checked->Body;
    size_t Eol = Body.find('\n');
    std::string_view SeqLine =
        Eol == std::string_view::npos ? Body : Body.substr(0, Eol);
    std::vector<std::string> Fields = splitWhitespace(SeqLine);
    std::optional<unsigned long> S;
    if (Fields.size() == 2 && Fields[0] == "seq")
      S = parseUnsignedLong(Fields[1]);
    if (!S) {
      Diagnostic D;
      D.Level = Severity::Error;
      D.Code = ErrorCode::ParseError;
      D.File = snapshotPath(DirPath);
      D.Pos.Line = 2;
      D.Message = "snapshot body must start with 'seq <N>'";
      return Status::error(std::move(D));
    }
    Out.HasSnapshot = true;
    Out.SnapshotSeq = *S;
    Out.SnapshotBody = Eol == std::string_view::npos
                           ? std::string()
                           : std::string(Body.substr(Eol + 1));
  }

  // Scan the log. A partial header (a crash during creation) counts as an
  // empty log; a wrong magic means the directory is not ours — refuse.
  uint64_t LastSeq = Out.SnapshotSeq;
  size_t ValidLen = 0; // Bytes of journal.log that survive (0 = rewrite).
  if (fileExists(logPath(DirPath))) {
    StatusOr<std::string> Text = readFileToString(logPath(DirPath));
    if (!Text)
      return Text.status();
    const std::string &Data = *Text;
    if (Data.size() >= sizeof(kMagic) &&
        std::memcmp(Data.data(), kMagic, sizeof(kMagic)) != 0) {
      Diagnostic D;
      D.Level = Severity::Error;
      D.Code = ErrorCode::ParseError;
      D.File = logPath(DirPath);
      D.Message = "not a cable journal (bad magic)";
      return Status::error(std::move(D));
    }
    if (Data.size() >= kHeaderSize) {
      FramedScan Scan = scanFramedRecords(
          std::string_view(Data).substr(kHeaderSize));
      ValidLen = kHeaderSize;
      for (const FramedRecord &R : Scan.Records) {
        if (R.Payload.size() < 8) {
          // A record too short to carry a sequence number is corruption;
          // treat everything from here on as torn.
          Diagnostic D;
          D.Level = Severity::Warning;
          D.Code = ErrorCode::ParseError;
          D.File = logPath(DirPath);
          D.Message = "record without a sequence number; discarding it "
                      "and the rest of the log tail";
          Out.TornTail = Status::error(std::move(D));
          break;
        }
        uint64_t Seq = decodeSeq(R.Payload);
        ValidLen = kHeaderSize + R.Offset + 8 + R.Payload.size();
        if (Seq > Out.SnapshotSeq)
          Out.Commands.emplace_back(R.Payload.substr(8));
        if (Seq > LastSeq)
          LastSeq = Seq;
      }
      if (Scan.Torn && Out.TornTail.isOk()) {
        Status S = Scan.TornStatus;
        Diagnostic D = S.diagnostic();
        D.File = logPath(DirPath);
        Out.TornTail = Status::error(std::move(D));
      }
    }
  }

  Journal J;
  J.Dir = DirPath;
  J.Seq = LastSeq;
  J.SnapSeq = Out.SnapshotSeq;

  // (Re)open for append, truncating away any torn tail so the next scan
  // never stops early at stale garbage.
  int Fd = ::open(logPath(DirPath).c_str(), O_WRONLY | O_CREAT, 0644);
  if (Fd < 0)
    return ioError(logPath(DirPath), "cannot open journal log");
  J.Fd = Fd;
  if (ValidLen == 0) {
    if (::ftruncate(Fd, 0) != 0)
      return ioError(logPath(DirPath), "cannot truncate journal log");
    if (Status S = writeAll(Fd, logPath(DirPath), encodeHeader()); !S.isOk())
      return S;
  } else if (::ftruncate(Fd, static_cast<off_t>(ValidLen)) != 0) {
    return ioError(logPath(DirPath), "cannot truncate torn journal tail");
  }
  if (::lseek(Fd, 0, SEEK_END) < 0)
    return ioError(logPath(DirPath), "cannot seek journal log");
  if (::fsync(Fd) != 0)
    return ioError(logPath(DirPath), "fsync failed");

  // Drop the ACTIVE marker: from here on, an open journal means a live
  // session; only closeClean removes it.
  int MarkerFd =
      ::open(markerPath(DirPath).c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (MarkerFd < 0)
    return ioError(markerPath(DirPath), "cannot create ACTIVE marker");
  std::string Pid = std::to_string(::getpid()) + "\n";
  if (Status S = writeAll(MarkerFd, markerPath(DirPath), Pid); !S.isOk()) {
    ::close(MarkerFd);
    return S;
  }
  ::fsync(MarkerFd);
  ::close(MarkerFd);

  NumRecoveries.add();
  if (Out.UncleanShutdown) {
    NumUncleanRecoveries.add();
    CABLE_LOG_WARN("journal", "journal-unclean-recovery",
                   "previous session died with the journal open",
                   {Log::str("dir", DirPath)});
  }
  if (!Out.TornTail.isOk()) {
    NumTornTails.add();
    CABLE_LOG_WARN("journal", "journal-torn-tail",
                   "torn tail truncated during recovery",
                   {Log::str("dir", DirPath),
                    Log::str("error", Out.TornTail.message())});
  }
  NumReplayed.add(Out.Commands.size());
  if (!Out.Commands.empty())
    CABLE_LOG_INFO("journal", "journal-replayed",
                   "recovered commands will be replayed",
                   {Log::num("commands",
                             static_cast<int64_t>(Out.Commands.size()))});

  return J;
}

Status Journal::append(std::string_view Command) {
  // The write-ahead append runs before the command's own span opens, so
  // this span is what a crash dump shows while a command is made durable.
  TraceSpan Span("journal-append");
  MetricTimer Timer(AppendUs);
  if (Status S = Failpoint::hit("journal-append"); !S.isOk())
    return S;
  std::string Payload;
  Payload.reserve(Command.size() + 8);
  encodeSeq(Payload, Seq + 1);
  Payload.append(Command);
  std::string Framed = encodeFramedRecord(Payload);
  if (Status S = writeAll(Fd, logPath(Dir), Framed); !S.isOk())
    return S;
  NumAppends.add();
  BytesWritten.add(Framed.size());
  if (Policy == SyncPolicy::EveryRecord) {
    TraceSpan FsyncSpan("journal-fsync");
    if (Status S = Failpoint::hit("journal-fsync"); !S.isOk())
      return S;
    MetricTimer FsyncTimer(FsyncUs);
    if (::fsync(Fd) != 0)
      return ioError(logPath(Dir), "fsync failed");
  } else {
    Dirty = true;
  }
  ++Seq;
  return Status::ok();
}

Status Journal::flush() {
  if (Fd < 0 || !Dirty)
    return Status::ok();
  TraceSpan Span("journal-fsync");
  if (Status S = Failpoint::hit("journal-fsync"); !S.isOk())
    return S;
  MetricTimer FsyncTimer(FsyncUs);
  if (::fsync(Fd) != 0)
    return ioError(logPath(Dir), "fsync failed");
  Dirty = false;
  return Status::ok();
}

Status Journal::snapshot(std::string_view SessionBody) {
  TraceSpan Span("journal-snapshot");
  MetricTimer Timer(SnapshotUs);
  if (Status S = Failpoint::hit("journal-snapshot"); !S.isOk())
    return S;
  std::string Body = "seq " + std::to_string(Seq) + "\n";
  Body.append(SessionBody);
  if (Status S = AtomicFile::write(snapshotPath(Dir),
                                   withChecksumHeader("cable-snapshot", 1,
                                                      Body));
      !S.isOk())
    return S;
  // The snapshot is durable; every logged record is now dead. Compact.
  // A crash between the rename above and the truncate below only leaves
  // records with seq <= snapshot seq, which recovery skips.
  if (::ftruncate(Fd, static_cast<off_t>(kHeaderSize)) != 0)
    return ioError(logPath(Dir), "cannot compact journal log");
  if (::lseek(Fd, 0, SEEK_END) < 0)
    return ioError(logPath(Dir), "cannot seek journal log");
  if (::fsync(Fd) != 0)
    return ioError(logPath(Dir), "fsync failed");
  SnapSeq = Seq;
  Dirty = false;
  return Status::ok();
}

Status Journal::closeClean() {
  if (Fd < 0)
    return Status::ok();
  if (::fsync(Fd) != 0)
    return ioError(logPath(Dir), "fsync failed");
  Dirty = false;
  ::close(Fd);
  Fd = -1;
  if (::unlink(markerPath(Dir).c_str()) != 0 && errno != ENOENT)
    return ioError(markerPath(Dir), "cannot remove ACTIVE marker");
  return Status::ok();
}

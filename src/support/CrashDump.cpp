//===- support/CrashDump.cpp - Fatal-path flight recorder ------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Everything here splits into two worlds:
//
//  - Normal-context setup (install, registerSignalArtifacts): may allocate,
//    format, open files, take locks. All strings the fatal path will need
//    are copied into fixed static buffers here.
//  - The fatal path (dumpNow, writeArtifactsFromSignal, the handlers): only
//    async-signal-safe operations — open/write/fsync/close/unlink on
//    pre-arranged paths, memcpy into static buffers, and the three
//    substrates' signal-safe readers (Log::copyCrashRecords,
//    Metrics::crashIndexRead, TraceLog::crashStack).
//
// First dump wins: GDumped is an atomic exchange, so the SIGABRT raised by
// the terminate handler's abort() cannot write a second document over the
// first.
//
//===----------------------------------------------------------------------===//

#include "support/CrashDump.h"

#include "support/BuildInfo.h"
#include "support/Log.h"
#include "support/Metrics.h"
#include "support/TraceEvent.h"

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>

#include <fcntl.h>
#include <unistd.h>

using namespace cable;

namespace {

//===----------------------------------------------------------------------===//
// Fixed state, filled in normal context, read on the fatal path.
//===----------------------------------------------------------------------===//

constexpr size_t kMaxPath = 1024;
constexpr size_t kMaxMetrics = 4096;

char GDumpPath[kMaxPath + 64];
char GStamp[512]; ///< `"tool":...,"version":...,"instrumented":...` fragment
int GFd = -1;
std::atomic<bool> GInstalled{false};
std::atomic<int> GDumped{0};
std::terminate_handler GPrevTerminate = nullptr;

// Signal-exit artifact registration (independent of the crash dir).
char GLogOut[kMaxPath];
char GMetricsOut[kMaxPath];
char GReportOut[kMaxPath];
char GArgsJson[4096]; ///< pre-rendered `["argv1","argv2",...]`
std::atomic<bool> GArtifactsRegistered{false};
std::atomic<int> GArtifactsWritten{0};

/// The journal fd the SIGINT/SIGTERM handler fsyncs; -1 when none is open.
volatile sig_atomic_t GJournalFd = -1;

// Scratch for the fatal path only. Static so a signal handler never touches
// the stack guard or the heap; GDumped/GArtifactsWritten serialize use.
char GCrashLogBuf[64 * 1024];
Metrics::CrashEntry GMetricsBuf[kMaxMetrics];

//===----------------------------------------------------------------------===//
// SigWriter: buffered write(2), nothing else.
//===----------------------------------------------------------------------===//

class SigWriter {
public:
  explicit SigWriter(int Fd) : Fd(Fd) {}

  void flush() {
    const char *P = Buf;
    size_t Left = Len;
    while (Left > 0) {
      ssize_t N = ::write(Fd, P, Left);
      if (N < 0) {
        if (errno == EINTR)
          continue;
        break; // nowhere to report a failed crash write
      }
      P += N;
      Left -= static_cast<size_t>(N);
    }
    Len = 0;
  }

  void put(char C) {
    if (Len == sizeof(Buf))
      flush();
    Buf[Len++] = C;
  }

  void putBytes(const char *P, size_t N) {
    for (size_t I = 0; I < N; ++I)
      put(P[I]);
  }

  void puts(const char *S) {
    while (*S)
      put(*S++);
  }

  void putU64(uint64_t V) {
    char Tmp[24];
    size_t I = 0;
    do {
      Tmp[I++] = static_cast<char>('0' + V % 10);
      V /= 10;
    } while (V != 0);
    while (I > 0)
      put(Tmp[--I]);
  }

  void putI64(int64_t V) {
    if (V < 0) {
      put('-');
      putU64(static_cast<uint64_t>(-(V + 1)) + 1);
    } else {
      putU64(static_cast<uint64_t>(V));
    }
  }

  /// Quoted JSON string; same pure-ASCII policy as Log's renderer.
  void putQuoted(const char *S) {
    static const char Hex[] = "0123456789abcdef";
    put('"');
    for (const unsigned char *P = reinterpret_cast<const unsigned char *>(S);
         *P != 0; ++P) {
      unsigned char C = *P;
      if (C == '"' || C == '\\') {
        put('\\');
        put(static_cast<char>(C));
      } else if (C < 0x20 || C >= 0x7F) {
        put('\\');
        put('u');
        put('0');
        put('0');
        put(Hex[C >> 4]);
        put(Hex[C & 15]);
      } else {
        put(static_cast<char>(C));
      }
    }
    put('"');
  }

private:
  int Fd;
  size_t Len = 0;
  char Buf[4096];
};

//===----------------------------------------------------------------------===//
// Shared fatal-path pieces.
//===----------------------------------------------------------------------===//

void formatStamp(const char *Tool) {
  if (GStamp[0] != '\0')
    return;
  std::snprintf(GStamp, sizeof(GStamp),
                "\"tool\":\"%s\",\"version\":\"%s\",\"git_sha\":\"%s\","
                "\"build_type\":\"%s\",\"sanitize\":\"%s\","
                "\"instrumented\":%s",
                Tool, buildinfo::kVersion, buildinfo::kGitSha,
                buildinfo::kBuildType, buildinfo::kSanitize,
                buildinfo::kInstrumented ? "true" : "false");
}

/// `"metrics":{"counters":{...},"gauges":{...},"histograms":{...}}` value
/// from the crash index. Gauges carry value/high, histograms count/sum/max
/// (bucket arrays are a normal snapshot's job).
void writeCrashMetricsObject(SigWriter &W) {
  size_t N = Metrics::crashIndexRead(GMetricsBuf, kMaxMetrics);
  W.puts("{\"counters\":{");
  bool First = true;
  for (size_t I = 0; I < N; ++I) {
    if (GMetricsBuf[I].K != Metrics::Sample::KindCounter)
      continue;
    if (!First)
      W.put(',');
    First = false;
    W.putQuoted(GMetricsBuf[I].Name);
    W.put(':');
    W.putU64(GMetricsBuf[I].Count);
  }
  W.puts("},\"gauges\":{");
  First = true;
  for (size_t I = 0; I < N; ++I) {
    if (GMetricsBuf[I].K != Metrics::Sample::KindGauge)
      continue;
    if (!First)
      W.put(',');
    First = false;
    W.putQuoted(GMetricsBuf[I].Name);
    W.puts(":{\"value\":");
    W.putI64(GMetricsBuf[I].Value);
    W.puts(",\"high\":");
    W.putI64(GMetricsBuf[I].High);
    W.put('}');
  }
  W.puts("},\"histograms\":{");
  First = true;
  for (size_t I = 0; I < N; ++I) {
    if (GMetricsBuf[I].K != Metrics::Sample::KindHistogram)
      continue;
    if (!First)
      W.put(',');
    First = false;
    W.putQuoted(GMetricsBuf[I].Name);
    W.puts(":{\"count\":");
    W.putU64(GMetricsBuf[I].Count);
    W.puts(",\"sum\":");
    W.putU64(GMetricsBuf[I].Sum);
    W.puts(",\"max\":");
    W.putU64(GMetricsBuf[I].Max);
    W.put('}');
  }
  W.puts("}}");
}

/// Comma-separated crash-ring records (pre-rendered JSON objects), written
/// as array elements. Returns how many were emitted.
size_t writeCrashRecordsArray(SigWriter &W) {
  size_t Bytes = Log::copyCrashRecords(GCrashLogBuf, sizeof(GCrashLogBuf));
  size_t Count = 0;
  size_t LineStart = 0;
  for (size_t I = 0; I <= Bytes; ++I) {
    if (I < Bytes && GCrashLogBuf[I] != '\n')
      continue;
    if (I > LineStart) {
      if (Count > 0)
        W.put(',');
      W.putBytes(GCrashLogBuf + LineStart, I - LineStart);
      ++Count;
    }
    LineStart = I + 1;
  }
  return Count;
}

//===----------------------------------------------------------------------===//
// Handlers.
//===----------------------------------------------------------------------===//

void fatalSignalHandler(int Sig) {
  CrashDump::dumpNow("signal", Sig);
  // Restore the default disposition and re-raise so the wait status still
  // says "killed by Sig" — the kill matrix keys off it.
  ::signal(Sig, SIG_DFL);
  ::raise(Sig);
}

void terminateSignalHandler(int Sig) {
  int Fd = GJournalFd;
  if (Fd >= 0)
    ::fsync(Fd);
  CrashDump::writeArtifactsFromSignal(128 + Sig);
  ::_exit(128 + Sig);
}

[[noreturn]] void terminateHandler() {
  CrashDump::dumpNow("terminate");
  if (GPrevTerminate != nullptr && GPrevTerminate != terminateHandler) {
    GPrevTerminate();
  }
  std::abort(); // reaches the SIGABRT handler; GDumped makes it a no-op
}

} // namespace

//===----------------------------------------------------------------------===//
// Public surface.
//===----------------------------------------------------------------------===//

void CrashDump::install(const char *Tool) {
  const char *Dir = std::getenv("CABLE_CRASH_DIR");
  if (Dir == nullptr || *Dir == '\0')
    return;
  installAt(Tool, Dir);
}

void CrashDump::installAt(const char *Tool, const char *Dir) {
  if (GInstalled.load(std::memory_order_relaxed))
    return;
  formatStamp(Tool);
  std::snprintf(GDumpPath, sizeof(GDumpPath), "%s/crash.%d.json", Dir,
                static_cast<int>(::getpid()));
  GFd = ::open(GDumpPath, O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
  if (GFd < 0)
    return; // unwritable directory: stay disarmed rather than half-armed

  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = fatalSignalHandler;
  sigemptyset(&SA.sa_mask);
  for (int Sig : {SIGSEGV, SIGBUS, SIGABRT})
    ::sigaction(Sig, &SA, nullptr);
  GPrevTerminate = std::set_terminate(terminateHandler);

  Log::setCrashCapture(true);
  TraceLog::setStackCapture(true);
  GInstalled.store(true, std::memory_order_release);
}

void CrashDump::disarm() {
  if (!GInstalled.load(std::memory_order_relaxed))
    return;
  GInstalled.store(false, std::memory_order_relaxed);
  if (GFd >= 0)
    ::close(GFd);
  GFd = -1;
  if (GDumped.load(std::memory_order_relaxed) == 0)
    ::unlink(GDumpPath); // clean exits leave no empty litter
}

bool CrashDump::dumpNow(const char *Reason, int Sig) {
  if (!GInstalled.load(std::memory_order_acquire) || GFd < 0)
    return false;
  if (GDumped.exchange(1, std::memory_order_acq_rel) != 0)
    return false;

  SigWriter W(GFd);
  W.puts("{\"schema\":\"cable-crashdump/1\",");
  W.puts(GStamp);
  W.puts(",\"pid\":");
  W.putU64(static_cast<uint64_t>(::getpid()));
  W.puts(",\"reason\":");
  W.putQuoted(Reason);
  if (Sig != 0) {
    W.puts(",\"signal\":");
    W.putI64(Sig);
  }

  W.puts(",\"log_records\":[");
  writeCrashRecordsArray(W);
  W.put(']');

  // One element: Cable records on one thread, exported as tid 1, "main".
  W.puts(",\"span_stacks\":[{\"tid\":1,\"thread\":\"main\",\"stack\":[");
  TraceLog::CrashStackView V = TraceLog::crashStack();
  for (uint32_t F = 0; F < V.Depth; ++F) {
    if (F > 0)
      W.put(',');
    W.putQuoted(V.Frames + F * TraceLog::kCrashStackNameBytes);
  }
  W.puts("]}]");

  W.puts(",\"metrics\":");
  writeCrashMetricsObject(W);
  W.puts("}\n");
  W.flush();
  ::fsync(GFd);
  return true;
}

void CrashDump::registerSignalArtifacts(const char *Tool,
                                        const std::string &LogOut,
                                        const std::string &MetricsOut,
                                        const std::string &ReportOut,
                                        const std::vector<std::string> &Args) {
  formatStamp(Tool);
  std::snprintf(GLogOut, sizeof(GLogOut), "%s", LogOut.c_str());
  std::snprintf(GMetricsOut, sizeof(GMetricsOut), "%s", MetricsOut.c_str());
  std::snprintf(GReportOut, sizeof(GReportOut), "%s", ReportOut.c_str());

  // Pre-escape argv here, in normal context, into a fixed buffer the
  // handler can emit verbatim.
  std::string Rendered = "[";
  for (size_t I = 0; I < Args.size(); ++I) {
    if (I > 0)
      Rendered += ',';
    Rendered += '"';
    for (unsigned char C : Args[I]) {
      if (C == '"' || C == '\\') {
        Rendered += '\\';
        Rendered += static_cast<char>(C);
      } else if (C < 0x20 || C >= 0x7F) {
        static const char Hex[] = "0123456789abcdef";
        Rendered += "\\u00";
        Rendered += Hex[C >> 4];
        Rendered += Hex[C & 15];
      } else {
        Rendered += static_cast<char>(C);
      }
    }
    Rendered += '"';
    if (Rendered.size() >= sizeof(GArgsJson) - 8) {
      Rendered += '"'; // keep the document valid if argv is absurd
      break;
    }
  }
  Rendered += ']';
  std::snprintf(GArgsJson, sizeof(GArgsJson), "%s", Rendered.c_str());
  GArtifactsWritten.store(0, std::memory_order_relaxed);
  GArtifactsRegistered.store(true, std::memory_order_release);
}

void CrashDump::writeArtifactsFromSignal(int ExitCode) {
  if (!GArtifactsRegistered.load(std::memory_order_acquire))
    return;
  if (GArtifactsWritten.exchange(1, std::memory_order_acq_rel) != 0)
    return;

  if (GMetricsOut[0] != '\0') {
    int Fd = ::open(GMetricsOut, O_CREAT | O_WRONLY | O_TRUNC, 0644);
    if (Fd >= 0) {
      SigWriter W(Fd);
      W.puts("{\"schema\":\"cable-metrics/1\",");
      W.puts(GStamp);
      W.puts(",\"interrupted\":true,\"metrics\":");
      writeCrashMetricsObject(W);
      W.puts("}\n");
      W.flush();
      ::fsync(Fd);
      ::close(Fd);
    }
  }

  if (GReportOut[0] != '\0') {
    int Fd = ::open(GReportOut, O_CREAT | O_WRONLY | O_TRUNC, 0644);
    if (Fd >= 0) {
      SigWriter W(Fd);
      W.puts("{\"schema\":\"cable-run-report/1\",");
      W.puts(GStamp);
      W.puts(",\"args\":");
      W.puts(GArgsJson);
      W.puts(",\"truncated\":false,\"clean_exit\":false,\"exit_code\":");
      W.putI64(ExitCode);
      W.puts(",\"interrupted\":true,\"metrics\":");
      writeCrashMetricsObject(W);
      W.puts("}\n");
      W.flush();
      ::fsync(Fd);
      ::close(Fd);
    }
  }

  if (GLogOut[0] != '\0') {
    int Fd = ::open(GLogOut, O_CREAT | O_WRONLY | O_TRUNC, 0644);
    if (Fd >= 0) {
      SigWriter W(Fd);
      // Reduced header: the structured ring is not signal-safe to drain,
      // so records come from the crash ring — the last events, which is
      // what an interrupted run can give.
      W.puts("{\"schema\":\"cable-log/1\",");
      W.puts(GStamp);
      W.puts(",\"pid\":");
      W.putU64(static_cast<uint64_t>(::getpid()));
      W.puts(",\"interrupted\":true}\n");
      size_t Bytes =
          Log::copyCrashRecords(GCrashLogBuf, sizeof(GCrashLogBuf));
      W.putBytes(GCrashLogBuf, Bytes);
      W.flush();
      ::fsync(Fd);
      ::close(Fd);
    }
  }
}

void CrashDump::installTerminateHandlers(int JournalFd) {
  GJournalFd = JournalFd;
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = terminateSignalHandler;
  ::sigaction(SIGINT, &SA, nullptr);
  ::sigaction(SIGTERM, &SA, nullptr);
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = SIG_IGN;
  ::sigaction(SIGPIPE, &SA, nullptr);
}

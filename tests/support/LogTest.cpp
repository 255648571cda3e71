//===- tests/support/LogTest.cpp - Structured logging tests ----------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The log is single-threaded (support/Log.h), so every test here emits on
// the test's own thread.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"
#include "support/Log.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

using namespace cable;

namespace {

/// Arms structured logging for one test and restores the disarmed default
/// (other tests in this binary assume instrumentation is off); reset()
/// scrubs the rings and the crash ring a test leaves behind.
class LogTest : public ::testing::Test {
protected:
  void SetUp() override {
    Log::reset();
    Log::setLevel(Log::Level::Info);
    Log::setEnabled(true);
  }
  void TearDown() override {
    Log::setEnabled(false);
    Log::setCrashCapture(false);
    Log::reset();
    Log::setLevel(Log::Level::Info);
  }
};

/// Splits JSONL into its non-empty lines.
std::vector<std::string> lines(const std::string &Doc) {
  std::vector<std::string> Out;
  size_t At = 0;
  while (At < Doc.size()) {
    size_t Nl = Doc.find('\n', At);
    if (Nl == std::string::npos)
      Nl = Doc.size();
    if (Nl > At)
      Out.push_back(Doc.substr(At, Nl - At));
    At = Nl + 1;
  }
  return Out;
}

TEST_F(LogTest, DisarmedEmitIsDropped) {
  Log::setEnabled(false);
  CABLE_LOG_WARN("test", "test-disarmed", "must not be recorded");
  Log::emit(Log::Level::Error, "test", "test-disarmed-direct", "nor this");
  EXPECT_TRUE(Log::drainRecords().empty());
}

TEST_F(LogTest, ArmedRecordsCarryMonotonicSeqAndFields) {
  CABLE_LOG_INFO("cache", "cache-miss", "first",
                 {Log::str("key", "k1"), Log::num("bytes", 42)});
  CABLE_LOG_WARN("cache", "cache-quarantined", "second");
  CABLE_LOG_ERROR("journal", "journal-torn-tail", "third");

  std::vector<Log::Record> Recs = Log::drainRecords();
  ASSERT_EQ(Recs.size(), 3u);
  EXPECT_LT(Recs[0].Seq, Recs[1].Seq);
  EXPECT_LT(Recs[1].Seq, Recs[2].Seq);
  EXPECT_EQ(Recs[0].Event, "cache-miss");
  EXPECT_EQ(Recs[0].Subsystem, "cache");
  ASSERT_EQ(Recs[0].Fields.size(), 2u);
  EXPECT_EQ(Recs[0].Fields[0].Key, "key");
  EXPECT_EQ(Recs[0].Fields[0].Value, "k1");
  EXPECT_FALSE(Recs[0].Fields[0].Numeric);
  EXPECT_EQ(Recs[0].Fields[1].Value, "42");
  EXPECT_TRUE(Recs[0].Fields[1].Numeric);
  EXPECT_EQ(Recs[1].Lvl, Log::Level::Warn);
  EXPECT_EQ(Recs[2].Lvl, Log::Level::Error);

  // Drained means drained: a second drain is empty.
  EXPECT_TRUE(Log::drainRecords().empty());
}

TEST_F(LogTest, LevelThresholdFiltersAtEmit) {
  Log::setLevel(Log::Level::Warn);
  CABLE_LOG_INFO("test", "test-below", "dropped at the emit site");
  CABLE_LOG_WARN("test", "test-at", "kept");
  CABLE_LOG_ERROR("test", "test-above", "kept");

  std::vector<Log::Record> Recs = Log::drainRecords();
  ASSERT_EQ(Recs.size(), 2u);
  EXPECT_EQ(Recs[0].Event, "test-at");
  EXPECT_EQ(Recs[1].Event, "test-above");
}

TEST_F(LogTest, ParseLevelAcceptsCanonicalNamesOnly) {
  Log::Level L;
  ASSERT_TRUE(Log::parseLevel("debug", L));
  EXPECT_EQ(L, Log::Level::Debug);
  ASSERT_TRUE(Log::parseLevel("warn", L));
  EXPECT_EQ(L, Log::Level::Warn);
  ASSERT_TRUE(Log::parseLevel("warning", L));
  EXPECT_EQ(L, Log::Level::Warn);
  ASSERT_TRUE(Log::parseLevel("error", L));
  EXPECT_EQ(L, Log::Level::Error);
  EXPECT_FALSE(Log::parseLevel("", L));
  EXPECT_FALSE(Log::parseLevel("WARN", L));
  EXPECT_FALSE(Log::parseLevel("verbose", L));
}

TEST_F(LogTest, ExportedLinesAreAsciiJsonEvenWithHostileBytes) {
  std::string Hostile = "quote\" slash\\ ctl\x01 nl\n high\xff\xc3\xa9";
  CABLE_LOG_WARN("test", "test-hostile", Hostile,
                 {Log::str("path", Hostile)});

  std::string Doc = Log::exportJsonl("cable-cli");
  std::string Err;
  for (const std::string &L : lines(Doc))
    ASSERT_TRUE(validateJson(L, Err)) << Err << "\n" << L;
  // Stricter than JsonWriter: every byte >= 0x7F is hex-escaped so the
  // log is pure ASCII no matter what the message carried.
  for (unsigned char C : Doc)
    EXPECT_LT(C, 0x7Fu);
  EXPECT_NE(Doc.find("\\u00ff"), std::string::npos);
}

TEST_F(LogTest, CrashRingCapturesParseableLinesWithoutStructuredArming) {
  Log::setEnabled(false);
  Log::setCrashCapture(true);
  CABLE_LOG_ERROR("failpoint", "failpoint-crash", "injected crash",
                  {Log::str("name", "cache-publish")});

  char Buf[8192];
  size_t N = Log::copyCrashRecords(Buf, sizeof(Buf));
  ASSERT_GT(N, 0u);
  std::string Captured(Buf, N);
  EXPECT_NE(Captured.find("failpoint-crash"), std::string::npos);
  EXPECT_NE(Captured.find("cache-publish"), std::string::npos);
  std::string Err;
  for (const std::string &L : lines(Captured))
    EXPECT_TRUE(validateJson(L, Err)) << Err << "\n" << L;

  // A buffer too small for one whole line gets nothing, never a torn
  // prefix — the dump must stay parseable.
  EXPECT_EQ(Log::copyCrashRecords(Buf, 8), 0u);
}

TEST_F(LogTest, EmittersKeepDistinctOrderedSeqs) {
  for (int I = 0; I < 256; ++I)
    CABLE_LOG_INFO("test", "test-seq", "record " + std::to_string(I));
  std::string Doc = Log::exportJsonl("cable-cli");
  std::vector<std::string> Lines = lines(Doc);
  ASSERT_EQ(Lines.size(), 257u); // header + records
  uint64_t Last = 0;
  for (size_t I = 1; I < Lines.size(); ++I) {
    const std::string &L = Lines[I];
    ASSERT_EQ(L.rfind("{\"seq\":", 0), 0u) << L;
    uint64_t Seq = std::stoull(L.substr(7));
    EXPECT_LT(Last, Seq) << L; // distinct, in emit order
    Last = Seq;
    // The one recording thread is tid 1.
    EXPECT_NE(L.find(",\"tid\":1,"), std::string::npos) << L;
  }
}

/// A full ring overwrites its oldest records: the drain returns the newest
/// kRingCapacity in increasing seq order, and the overwritten ones are
/// counted, in droppedCount() and the cable-log/1 header.
TEST_F(LogTest, RingWraparoundKeepsNewestInSeqOrder) {
  constexpr size_t K = 5;
  for (size_t I = 0; I < Log::kRingCapacity + K; ++I)
    CABLE_LOG_INFO("test", "test-wrap", std::to_string(I));
  EXPECT_EQ(Log::droppedCount(), K);

  std::vector<Log::Record> Recs = Log::drainRecords();
  ASSERT_EQ(Recs.size(), Log::kRingCapacity);
  for (size_t I = 0; I < Recs.size(); ++I) {
    EXPECT_EQ(Recs[I].Msg, std::to_string(K + I));
    if (I > 0) {
      EXPECT_LT(Recs[I - 1].Seq, Recs[I].Seq);
    }
  }

  // Draining keeps the drop count for the export header.
  std::vector<std::string> Lines = lines(Log::exportJsonl("cable-cli"));
  ASSERT_EQ(Lines.size(), 1u);
  EXPECT_NE(Lines[0].find("\"dropped\":" + std::to_string(K) + "}"),
            std::string::npos)
      << Lines[0];
}

} // namespace

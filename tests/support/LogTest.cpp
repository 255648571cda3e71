//===- tests/support/LogTest.cpp - Structured logging tests ----------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// This file lives in cable_concurrency_tests so the concurrent-emit test runs
// under -DCABLE_SANITIZE=thread: the armed path's contract is per-thread
// rings that are lock-free against each other, which TSan verifies has no
// data race rather than a benign one.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"
#include "support/Log.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
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
  EXPECT_GT(Recs[0].Tid, 0u);
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

TEST_F(LogTest, ConcurrentEmittersKeepDistinctSeqs) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 64;
  std::vector<std::thread> Workers;
  for (int T = 0; T < kThreads; ++T)
    Workers.emplace_back([T] {
      for (int I = 0; I < kPerThread; ++I)
        CABLE_LOG_INFO("test", "test-concurrent", "t" + std::to_string(T));
    });
  for (std::thread &W : Workers)
    W.join();

  std::vector<Log::Record> Recs = Log::drainRecords();
  ASSERT_EQ(Recs.size(), static_cast<size_t>(kThreads * kPerThread));
  for (size_t I = 1; I < Recs.size(); ++I)
    EXPECT_LT(Recs[I - 1].Seq, Recs[I].Seq); // drained sorted, all unique
}

} // namespace

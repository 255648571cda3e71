//===- tests/support/FailpointTest.cpp -------------------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Failpoint.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace cable;

namespace {

// A test-local hit site, registered like the production ones.
Failpoint::Registrar RegTestPoint("test-point");
Failpoint::Registrar RegOtherPoint("test-other");

class FailpointTest : public ::testing::Test {
protected:
  void TearDown() override { Failpoint::reset(); }
};

TEST_F(FailpointTest, DisabledHitIsOk) {
  ASSERT_FALSE(Failpoint::anyArmed());
  EXPECT_TRUE(Failpoint::hit("test-point").isOk());
  // Unregistered names are fine on the fast path too.
  EXPECT_TRUE(Failpoint::hit("no-such-point").isOk());
}

TEST_F(FailpointTest, ErrorModeFiresOnceAtFirstHit) {
  ASSERT_TRUE(Failpoint::configure("test-point=error").isOk());
  ASSERT_TRUE(Failpoint::anyArmed());
  Status S = Failpoint::hit("test-point");
  ASSERT_FALSE(S.isOk());
  EXPECT_EQ(S.diagnostic().Code, ErrorCode::IoError);
  EXPECT_NE(S.message().find("test-point"), std::string::npos);
  // One-shot: the next hit succeeds, like a transient I/O failure.
  EXPECT_TRUE(Failpoint::hit("test-point").isOk());
}

TEST_F(FailpointTest, TriggerCountDelaysTheFault) {
  ASSERT_TRUE(Failpoint::configure("test-point=error@3").isOk());
  EXPECT_TRUE(Failpoint::hit("test-point").isOk());
  EXPECT_TRUE(Failpoint::hit("test-point").isOk());
  EXPECT_FALSE(Failpoint::hit("test-point").isOk());
  EXPECT_TRUE(Failpoint::hit("test-point").isOk());
  EXPECT_EQ(Failpoint::hitCount("test-point"), 4u);
}

TEST_F(FailpointTest, ArmedPointsAreIndependent) {
  ASSERT_TRUE(
      Failpoint::configure("test-point=error, test-other=error@2").isOk());
  EXPECT_TRUE(Failpoint::hit("test-other").isOk());
  EXPECT_FALSE(Failpoint::hit("test-point").isOk());
  EXPECT_FALSE(Failpoint::hit("test-other").isOk());
}

TEST_F(FailpointTest, ResetDisarms) {
  ASSERT_TRUE(Failpoint::configure("test-point=error").isOk());
  Failpoint::reset();
  EXPECT_FALSE(Failpoint::anyArmed());
  EXPECT_TRUE(Failpoint::hit("test-point").isOk());
  EXPECT_EQ(Failpoint::hitCount("test-point"), 0u);
}

TEST_F(FailpointTest, ReconfigureReplaces) {
  ASSERT_TRUE(Failpoint::configure("test-point=error").isOk());
  ASSERT_TRUE(Failpoint::configure("test-other=error").isOk());
  EXPECT_TRUE(Failpoint::hit("test-point").isOk());
  EXPECT_FALSE(Failpoint::hit("test-other").isOk());
}

TEST_F(FailpointTest, MalformedSpecsRejected) {
  EXPECT_FALSE(Failpoint::configure("test-point").isOk());
  EXPECT_FALSE(Failpoint::configure("test-point=explode").isOk());
  EXPECT_FALSE(Failpoint::configure("test-point=hang").isOk());
  EXPECT_FALSE(Failpoint::configure("test-point=crash@").isOk());
  EXPECT_FALSE(Failpoint::configure("test-point=crash@0").isOk());
  EXPECT_FALSE(Failpoint::configure("=error").isOk());
  // A failed configure leaves nothing armed.
  EXPECT_FALSE(Failpoint::anyArmed());
}

TEST_F(FailpointTest, RegisteredNamesIncludeHitSites) {
  std::vector<std::string> Names = Failpoint::registeredNames();
  EXPECT_TRUE(std::is_sorted(Names.begin(), Names.end()));
  auto Has = [&](const char *N) {
    return std::find(Names.begin(), Names.end(), N) != Names.end();
  };
  EXPECT_TRUE(Has("test-point"));
  // Production sites linked into this binary self-register too.
  EXPECT_TRUE(Has("atomicfile-rename"));
  EXPECT_TRUE(Has("file-read"));
  EXPECT_TRUE(Has("journal-append"));
}

TEST_F(FailpointTest, CrashModeTerminatesWithTheCrashExitCode) {
  EXPECT_EXIT(
      {
        (void)Failpoint::configure("test-point=crash@2");
        (void)Failpoint::hit("test-point"); // hit 1: survives
        (void)Failpoint::hit("test-point"); // hit 2: _Exit(86)
        exit(0);                            // not reached
      },
      ::testing::ExitedWithCode(Failpoint::kCrashExitCode), "");
}

} // namespace

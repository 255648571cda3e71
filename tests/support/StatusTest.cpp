//===- tests/support/StatusTest.cpp ----------------------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Budget.h"
#include "support/Status.h"

#include <gtest/gtest.h>

#include <thread>

using namespace cable;

TEST(DiagnosticTest, RenderFullPosition) {
  Diagnostic D;
  D.Level = Severity::Error;
  D.Code = ErrorCode::ParseError;
  D.File = "traces.txt";
  D.Pos.Line = 3;
  D.Pos.Col = 7;
  D.Message = "bad value token 'zz'";
  EXPECT_EQ(D.render(),
            "traces.txt:3:7: error: bad value token 'zz' [parse-error]");
}

TEST(DiagnosticTest, RenderOmitsAbsentParts) {
  Diagnostic D;
  D.Level = Severity::Warning;
  D.Code = ErrorCode::ResourceExhausted;
  D.Message = "budget exceeded";
  // No file, no position: just severity + message + code.
  EXPECT_EQ(D.render(), "warning: budget exceeded [resource-exhausted]");

  D.Pos.Line = 2; // Line without column.
  D.File = "f";
  EXPECT_EQ(D.render(), "f:2: warning: budget exceeded [resource-exhausted]");
}

TEST(DiagnosticTest, PositionValidity) {
  SourcePos P;
  EXPECT_FALSE(P.valid());
  P.Line = 1;
  EXPECT_TRUE(P.valid());
  EXPECT_FALSE(P.hasCol());
  P.Col = 1;
  EXPECT_TRUE(P.hasCol());
}

TEST(StatusTest, OkByDefault) {
  Status S;
  EXPECT_TRUE(S.isOk());
  EXPECT_TRUE(static_cast<bool>(S));
  EXPECT_EQ(S.code(), ErrorCode::Ok);
  EXPECT_EQ(S.message(), "");
  EXPECT_EQ(S.render(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status S = Status::error(ErrorCode::InvalidArgument, "no such thing");
  EXPECT_FALSE(S.isOk());
  EXPECT_EQ(S.code(), ErrorCode::InvalidArgument);
  EXPECT_EQ(S.message(), "no such thing");
  EXPECT_EQ(S.render(), "error: no such thing [invalid-argument]");
}

TEST(StatusTest, StatusOrValueAndError) {
  StatusOr<int> Good = 42;
  ASSERT_TRUE(Good.isOk());
  EXPECT_EQ(*Good, 42);

  StatusOr<int> Bad = Status::error(ErrorCode::NotFound, "missing");
  EXPECT_FALSE(Bad.isOk());
  EXPECT_EQ(Bad.status().code(), ErrorCode::NotFound);
}

TEST(BudgetTest, DefaultIsUnlimited) {
  Budget B;
  EXPECT_TRUE(B.unlimited());
  BudgetMeter M(B);
  EXPECT_FALSE(M.expired());
}

TEST(BudgetTest, ZeroDeadlineExpiresImmediately) {
  Budget B;
  B.TimeLimit = std::chrono::milliseconds(0);
  BudgetMeter M(B);
  EXPECT_TRUE(M.expired());
  // Sticky: stays expired.
  EXPECT_TRUE(M.expired());
  Status S = M.stopStatus("op");
  EXPECT_EQ(S.code(), ErrorCode::ResourceExhausted);
  EXPECT_NE(S.message().find("op exceeded the time budget"),
            std::string::npos);
}

TEST(BudgetTest, LimitPastTheClockRangeNeverExpires) {
  // Stamping now + max() would overflow the clock into the past.
  Budget B;
  B.TimeLimit = std::chrono::milliseconds::max();
  BudgetMeter M(B);
  EXPECT_FALSE(M.expired());
  B.TimeLimit = std::chrono::milliseconds(10000000000000); // ~317 years.
  BudgetMeter Centuries(B);
  EXPECT_FALSE(Centuries.expired());
}

TEST(BudgetTest, DeadlineExpiresAfterSleep) {
  Budget B;
  B.TimeLimit = std::chrono::milliseconds(5);
  BudgetMeter M(B);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(M.expired());
  EXPECT_GE(M.elapsed().count(), 5);
}

TEST(ErrorCodeTest, NamesAreKebabCase) {
  EXPECT_STREQ(errorCodeName(ErrorCode::Ok), "ok");
  EXPECT_STREQ(errorCodeName(ErrorCode::InvalidArgument), "invalid-argument");
  EXPECT_STREQ(errorCodeName(ErrorCode::ParseError), "parse-error");
  EXPECT_STREQ(errorCodeName(ErrorCode::NotFound), "not-found");
  EXPECT_STREQ(errorCodeName(ErrorCode::ResourceExhausted),
               "resource-exhausted");
  EXPECT_STREQ(errorCodeName(ErrorCode::IoError), "io-error");
  EXPECT_STREQ(errorCodeName(ErrorCode::Internal), "internal");
}

//===- tests/support/CrashDumpTest.cpp - Flight recorder tests -------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The recorder arms process-wide state (signal handlers, the crash ring, the
// span stack) and writes at most one dump per process, so each dump is taken
// in a death-test child and read back here.
//
//===----------------------------------------------------------------------===//

#include "support/CrashDump.h"
#include "support/Json.h"
#include "support/TraceEvent.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

using namespace cable;

namespace {

namespace fs = std::filesystem;

/// Reads the one crash.<pid>.json a child left in \p Dir.
std::string readOnlyDump(const fs::path &Dir) {
  std::string Found;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir)) {
    EXPECT_TRUE(Found.empty()) << "more than one dump in " << Dir;
    std::ifstream In(E.path());
    std::stringstream Buf;
    Buf << In.rdbuf();
    Found = Buf.str();
  }
  return Found;
}

TEST(CrashDumpTest, SpanStackListsOpenSpansOutermostFirst) {
  fs::path Dir = fs::path(::testing::TempDir()) /
                 ("cable_crashdump_" + std::to_string(::getpid()));
  fs::remove_all(Dir);
  fs::create_directories(Dir);

  EXPECT_EXIT(
      {
        CrashDump::installAt("crashdump-test", Dir.c_str());
        { TraceSpan Closed("dump-closed"); }
        TraceSpan Outer("dump-outer");
        TraceSpan Middle("dump-middle", 7);
        TraceSpan Inner("dump-inner");
        std::_Exit(CrashDump::dumpNow("failpoint-crash") ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");

  std::string Dump = readOnlyDump(Dir);
  std::string Error;
  EXPECT_TRUE(validateJson(Dump, Error)) << Error << "\n" << Dump;
  EXPECT_NE(Dump.find("\"span_stacks\":[{\"tid\":1,\"thread\":\"main\","
                      "\"stack\":[\"dump-outer\",\"dump-middle\","
                      "\"dump-inner\"]}]"),
            std::string::npos)
      << Dump;
  EXPECT_EQ(Dump.find("dump-closed"), std::string::npos) << Dump;
  fs::remove_all(Dir);
}

} // namespace

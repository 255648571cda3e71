//===- tests/support/StringUtilTest.cpp ------------------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/StringUtil.h"

#include "support/Dot.h"

#include <gtest/gtest.h>

using namespace cable;

TEST(StringUtilTest, SplitBasic) {
  EXPECT_EQ(splitString("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(splitString("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(splitString("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(splitString(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringUtilTest, SplitWhitespaceDropsEmpty) {
  EXPECT_EQ(splitWhitespace("  a\t b\n  c  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(splitWhitespace("   ").empty());
  EXPECT_TRUE(splitWhitespace("").empty());
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(trimString("  hi  "), "hi");
  EXPECT_EQ(trimString("hi"), "hi");
  EXPECT_EQ(trimString("   "), "");
  EXPECT_EQ(trimString(""), "");
  EXPECT_EQ(trimString("\t\na b\t\n"), "a b");
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(joinStrings({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(joinStrings({"a"}, ", "), "a");
  EXPECT_EQ(joinStrings({}, ", "), "");
}

TEST(StringUtilTest, IsAllDigits) {
  EXPECT_TRUE(isAllDigits("0123"));
  EXPECT_FALSE(isAllDigits(""));
  EXPECT_FALSE(isAllDigits("12a"));
  EXPECT_FALSE(isAllDigits("-1"));
}

TEST(StringUtilTest, PadString) {
  EXPECT_EQ(padString("ab", 4), "ab  ");
  EXPECT_EQ(padString("abcdef", 4), "abcd");
  EXPECT_EQ(padString("", 2), "  ");
}

TEST(DotTest, EscapesQuotesAndNewlines) {
  EXPECT_EQ(DotWriter::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(DotTest, RendersDigraph) {
  DotWriter W("g");
  W.addRaw("rankdir=LR;");
  W.addNode("n1", "label one", "shape=box");
  W.addNode("n2", "two");
  W.addEdge("n1", "n2", "edge");
  W.addEdge("n2", "n1");
  std::string Out = W.str();
  EXPECT_NE(Out.find("digraph \"g\" {"), std::string::npos);
  EXPECT_NE(Out.find("\"n1\" [label=\"label one\", shape=box];"),
            std::string::npos);
  EXPECT_NE(Out.find("\"n1\" -> \"n2\" [label=\"edge\"];"), std::string::npos);
  EXPECT_NE(Out.find("\"n2\" -> \"n1\";"), std::string::npos);
  EXPECT_EQ(Out.back(), '\n');
}

TEST(StringUtilTest, AppendfShortAndLong) {
  std::string Out = "x=";
  appendf(Out, "%d %s", 42, "ok");
  EXPECT_EQ(Out, "x=42 ok");
  // Longer than the on-stack buffer: still exact.
  std::string Long(2000, 'a');
  appendf(Out, "[%s]", Long.c_str());
  EXPECT_EQ(Out, "x=42 ok[" + Long + "]");
}

//===- support/StringUtil.cpp - String helpers ----------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/StringUtil.h"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>

using namespace cable;

std::vector<std::string> cable::splitString(std::string_view Text, char Sep) {
  std::vector<std::string> Out;
  size_t Start = 0;
  for (;;) {
    size_t Pos = Text.find(Sep, Start);
    if (Pos == std::string_view::npos) {
      Out.emplace_back(Text.substr(Start));
      return Out;
    }
    Out.emplace_back(Text.substr(Start, Pos - Start));
    Start = Pos + 1;
  }
}

std::vector<std::string> cable::splitWhitespace(std::string_view Text) {
  std::vector<std::string> Out;
  size_t I = 0;
  while (I < Text.size()) {
    while (I < Text.size() && std::isspace(static_cast<unsigned char>(Text[I])))
      ++I;
    size_t Start = I;
    while (I < Text.size() &&
           !std::isspace(static_cast<unsigned char>(Text[I])))
      ++I;
    if (I > Start)
      Out.emplace_back(Text.substr(Start, I - Start));
  }
  return Out;
}

std::vector<TokenSpan> cable::splitWhitespaceSpans(std::string_view Text) {
  std::vector<TokenSpan> Out;
  size_t I = 0;
  while (I < Text.size()) {
    while (I < Text.size() && std::isspace(static_cast<unsigned char>(Text[I])))
      ++I;
    size_t Start = I;
    while (I < Text.size() &&
           !std::isspace(static_cast<unsigned char>(Text[I])))
      ++I;
    if (I > Start)
      Out.push_back({std::string(Text.substr(Start, I - Start)), Start});
  }
  return Out;
}

std::string_view cable::trimString(std::string_view Text) {
  size_t B = 0, E = Text.size();
  while (B < E && std::isspace(static_cast<unsigned char>(Text[B])))
    ++B;
  while (E > B && std::isspace(static_cast<unsigned char>(Text[E - 1])))
    --E;
  return Text.substr(B, E - B);
}

std::string cable::joinStrings(const std::vector<std::string> &Parts,
                               std::string_view Sep) {
  std::string Out;
  for (size_t I = 0; I < Parts.size(); ++I) {
    if (I != 0)
      Out += Sep;
    Out += Parts[I];
  }
  return Out;
}

bool cable::isAllDigits(std::string_view Text) {
  if (Text.empty())
    return false;
  for (char C : Text)
    if (!std::isdigit(static_cast<unsigned char>(C)))
      return false;
  return true;
}

std::optional<unsigned long>
cable::parseUnsignedLong(std::string_view Text) {
  if (!isAllDigits(Text))
    return std::nullopt;
  unsigned long Out = 0;
  const char *First = Text.data();
  const char *Last = First + Text.size();
  std::from_chars_result R = std::from_chars(First, Last, Out);
  if (R.ec != std::errc() || R.ptr != Last)
    return std::nullopt;
  return Out;
}

std::string cable::padString(std::string_view Text, size_t Width) {
  std::string Out(Text.substr(0, Width));
  while (Out.size() < Width)
    Out += ' ';
  return Out;
}

void cable::appendf(std::string &Out, const char *Fmt, ...) {
  va_list Ap, Copy;
  va_start(Ap, Fmt);
  va_copy(Copy, Ap);
  int N = std::vsnprintf(nullptr, 0, Fmt, Ap);
  va_end(Ap);
  if (N > 0) {
    size_t At = Out.size();
    Out.resize(At + static_cast<size_t>(N) + 1);
    std::vsnprintf(Out.data() + At, static_cast<size_t>(N) + 1, Fmt, Copy);
    Out.resize(At + static_cast<size_t>(N));
  }
  va_end(Copy);
}

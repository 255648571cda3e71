//===- fa/Parse.cpp - Automaton text format ---------------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "fa/Parse.h"

#include "support/Error.h"
#include "support/StringUtil.h"

#include <cassert>
#include <unordered_map>

using namespace cable;

namespace {

/// Parses a label token: `<any>`, `~name`, `name`, or `name(p,...)` with
/// patterns `*` / `v<digits>`.
std::optional<TransitionLabel> parseLabel(std::string_view Text,
                                          EventTable &Table,
                                          std::string &ErrorMsg) {
  if (Text == "<any>" || Text == ".")
    return TransitionLabel::wildcard();
  if (!Text.empty() && Text[0] == '~') {
    std::string_view Name = Text.substr(1);
    if (Name.empty()) {
      ErrorMsg = "expected a name after '~'";
      return std::nullopt;
    }
    return TransitionLabel::nameAny(Table.internName(Name));
  }
  size_t Paren = Text.find('(');
  if (Paren == std::string_view::npos) {
    if (Text.empty() || Text.find(')') != std::string_view::npos) {
      ErrorMsg = "bad label '" + std::string(Text) + "'";
      return std::nullopt;
    }
    return TransitionLabel::exact(Table.internName(Text), {});
  }
  if (Text.back() != ')') {
    ErrorMsg = "missing ')' in label '" + std::string(Text) + "'";
    return std::nullopt;
  }
  std::string_view Name = Text.substr(0, Paren);
  if (Name.empty()) {
    ErrorMsg = "missing name in label '" + std::string(Text) + "'";
    return std::nullopt;
  }
  std::string_view ArgText = Text.substr(Paren + 1, Text.size() - Paren - 2);
  std::vector<ArgPattern> Args;
  if (!trimString(ArgText).empty()) {
    for (const std::string &Tok : splitString(std::string(ArgText), ',')) {
      std::string_view Arg = trimString(Tok);
      std::optional<unsigned long> Val;
      if (Arg.size() >= 2 && Arg[0] == 'v')
        Val = parseUnsignedLong(Arg.substr(1));
      if (Arg == "*") {
        Args.push_back(ArgPattern::any());
      } else if (Val) {
        Args.push_back(ArgPattern::value(static_cast<ValueId>(*Val)));
      } else {
        ErrorMsg = "bad argument pattern '" + std::string(Arg) + "'";
        return std::nullopt;
      }
    }
  }
  return TransitionLabel::exact(Table.internName(Name), std::move(Args));
}

/// Parses `q<digits>`; returns npos on failure (including overflow).
size_t parseStateName(std::string_view Text) {
  if (Text.size() < 2 || Text[0] != 'q')
    return static_cast<size_t>(-1);
  std::optional<unsigned long> N = parseUnsignedLong(Text.substr(1));
  if (!N)
    return static_cast<size_t>(-1);
  return *N;
}

} // namespace

std::optional<Automaton> cable::parseAutomaton(std::string_view Text,
                                               EventTable &Table,
                                               std::string &ErrorMsg) {
  Diagnostic Diag;
  std::optional<Automaton> FA = parseAutomaton(Text, Table, Diag);
  if (!FA)
    ErrorMsg = "line " + std::to_string(Diag.Pos.Line) + ", col " +
               std::to_string(Diag.Pos.Col) + ": " + Diag.Message;
  return FA;
}

std::optional<Automaton> cable::parseAutomaton(std::string_view Text,
                                               EventTable &Table,
                                               Diagnostic &Diag) {
  Automaton FA;
  std::unordered_map<size_t, StateId> StateOf;
  auto GetState = [&](size_t Name) {
    auto It = StateOf.find(Name);
    if (It != StateOf.end())
      return It->second;
    StateId Id = FA.addState();
    StateOf.emplace(Name, Id);
    return Id;
  };

  size_t LineNo = 0;
  for (const std::string &Line : splitString(Text, '\n')) {
    ++LineNo;
    // Strip trailing comments.
    std::string Body = Line;
    if (size_t Hash = Body.find('#'); Hash != std::string::npos)
      Body.resize(Hash);
    std::vector<TokenSpan> Tok = splitWhitespaceSpans(Body);
    if (Tok.empty())
      continue;
    // Columns are 1-based and point at the start of the offending token.
    auto Fail = [&](size_t TokIdx, const std::string &Msg) {
      Diag.Level = Severity::Error;
      Diag.Code = ErrorCode::ParseError;
      Diag.Pos.Line = static_cast<uint32_t>(LineNo);
      Diag.Pos.Col = static_cast<uint32_t>(Tok[TokIdx].Offset + 1);
      Diag.Message = Msg;
      return std::nullopt;
    };

    if (Tok[0].Text == "start" || Tok[0].Text == "accept") {
      if (Tok.size() < 2)
        return Fail(0, "expected state names after '" + Tok[0].Text + "'");
      for (size_t I = 1; I < Tok.size(); ++I) {
        size_t Name = parseStateName(Tok[I].Text);
        if (Name == static_cast<size_t>(-1))
          return Fail(I, "bad state name '" + Tok[I].Text + "'");
        StateId S = GetState(Name);
        if (Tok[0].Text == "start")
          FA.setStart(S);
        else
          FA.setAccepting(S);
      }
      continue;
    }

    // Transition: `qFrom label qTo`.
    if (Tok.size() != 3)
      return Fail(0, "expected 'qFrom label qTo'");
    size_t From = parseStateName(Tok[0].Text);
    if (From == static_cast<size_t>(-1))
      return Fail(0, "bad state name '" + Tok[0].Text + "' in transition");
    size_t To = parseStateName(Tok[2].Text);
    if (To == static_cast<size_t>(-1))
      return Fail(2, "bad state name '" + Tok[2].Text + "' in transition");
    std::string LabelError;
    std::optional<TransitionLabel> Label =
        parseLabel(Tok[1].Text, Table, LabelError);
    if (!Label)
      return Fail(1, LabelError);
    FA.addTransition(GetState(From), GetState(To), std::move(*Label));
  }
  return FA;
}

std::string cable::renderAutomatonText(const Automaton &FA,
                                       const EventTable &Table) {
  std::string Out;
  std::string Starts, Accepts;
  for (size_t S = 0; S < FA.numStates(); ++S) {
    if (FA.isStart(static_cast<StateId>(S)))
      Starts += " q" + std::to_string(S);
    if (FA.isAccepting(static_cast<StateId>(S)))
      Accepts += " q" + std::to_string(S);
  }
  if (!Starts.empty())
    Out += "start" + Starts + "\n";
  if (!Accepts.empty())
    Out += "accept" + Accepts + "\n";
  for (const Transition &T : FA.transitions()) {
    std::string Label;
    switch (T.Label.kind()) {
    case TransitionLabel::Kind::Wildcard:
      Label = "<any>";
      break;
    case TransitionLabel::Kind::NameAny:
      Label = "~" + Table.nameText(T.Label.name());
      break;
    case TransitionLabel::Kind::Exact:
      Label = T.Label.render(Table);
      break;
    }
    Out += "q" + std::to_string(T.From) + " " + Label + " q" +
           std::to_string(T.To) + "\n";
  }
  return Out;
}

//===- fa/Regex.cpp - Event regular expressions ----------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "fa/Regex.h"

#include "support/Error.h"
#include "support/StringUtil.h"

#include <cassert>
#include <cctype>
#include <vector>

using namespace cable;

namespace {

/// \p FA plus the ε-moves \p Eps (Eps[S]: their targets from S), without
/// ε: each state keeps its id, takes the labelled out-edges of its
/// ε-closure (in state order, then insertion order) and accepts if the
/// closure does. Then trimmed.
Automaton removeEpsilons(const Automaton &FA,
                         const std::vector<std::vector<StateId>> &Eps) {
  size_t N = FA.numStates();
  Automaton Out;
  for (size_t S = 0; S < N; ++S)
    Out.addState();
  std::vector<StateId> Worklist;
  for (StateId S = 0; S < N; ++S) {
    BitVector Closure(N);
    Closure.set(S);
    Worklist.assign(1, S);
    while (!Worklist.empty()) {
      StateId C = Worklist.back();
      Worklist.pop_back();
      for (StateId To : Eps[C])
        if (!Closure.test(To)) {
          Closure.set(To);
          Worklist.push_back(To);
        }
    }
    bool Accept = false;
    for (size_t C : Closure) {
      Accept |= FA.isAccepting(static_cast<StateId>(C));
      for (TransitionId TI : FA.outgoing(static_cast<StateId>(C))) {
        const Transition &Tr = FA.transition(TI);
        Out.addTransition(S, Tr.To, Tr.Label);
      }
    }
    Out.setAccepting(S, Accept);
    if (FA.isStart(S))
      Out.setStart(S);
  }
  return Out.trimmed();
}

/// Token kinds produced by the lexer.
enum class TokKind { Event, NameAny, Dot, Bar, Star, Plus, Question,
                     LBracket, RBracket, End };

struct Token {
  TokKind Kind;
  std::string Text;  // Event text or NameAny name.
  size_t Offset = 0; // 0-based start of the token within the pattern.
};

/// Lexer + recursive-descent parser + Thompson construction.
class RegexParser {
public:
  RegexParser(std::string_view Pattern, EventTable &Table)
      : Pattern(Pattern), Table(Table) {}

  std::optional<Automaton> parse(std::string &ErrorMsg) {
    if (!tokenize(ErrorMsg))
      return std::nullopt;
    Frag F = parseAlt(ErrorMsg);
    if (!Ok)
      return std::nullopt;
    if (Tokens[Pos].Kind != TokKind::End) {
      ErrorMsg = "unexpected token after end of pattern";
      ErrOffset = Tokens[Pos].Offset;
      return std::nullopt;
    }
    FA.setStart(F.Start);
    FA.setAccepting(F.Accept);
    return removeEpsilons(FA, Eps);
  }

  /// 0-based offset of the error within the pattern; valid after parse()
  /// returned std::nullopt.
  size_t errorOffset() const { return ErrOffset; }

private:
  /// A Thompson fragment: single entry, single exit.
  struct Frag {
    StateId Start = 0;
    StateId Accept = 0;
  };

  bool tokenize(std::string &ErrorMsg) {
    size_t I = 0;
    auto IsNameChar = [](char C) {
      return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
    };
    while (I < Pattern.size()) {
      char C = Pattern[I];
      if (std::isspace(static_cast<unsigned char>(C))) {
        ++I;
        continue;
      }
      switch (C) {
      case '|':
        Tokens.push_back({TokKind::Bar, "", I});
        ++I;
        continue;
      case '*':
        Tokens.push_back({TokKind::Star, "", I});
        ++I;
        continue;
      case '+':
        Tokens.push_back({TokKind::Plus, "", I});
        ++I;
        continue;
      case '?':
        Tokens.push_back({TokKind::Question, "", I});
        ++I;
        continue;
      case '[':
        Tokens.push_back({TokKind::LBracket, "", I});
        ++I;
        continue;
      case ']':
        Tokens.push_back({TokKind::RBracket, "", I});
        ++I;
        continue;
      case '.':
        Tokens.push_back({TokKind::Dot, "", I});
        ++I;
        continue;
      case '~': {
        size_t TildeAt = I;
        size_t Start = ++I;
        while (I < Pattern.size() && IsNameChar(Pattern[I]))
          ++I;
        if (I == Start) {
          ErrorMsg = "expected a name after '~'";
          ErrOffset = TildeAt;
          return false;
        }
        Tokens.push_back({TokKind::NameAny,
                          std::string(Pattern.substr(Start, I - Start)),
                          TildeAt});
        continue;
      }
      default:
        break;
      }
      if (!IsNameChar(C)) {
        ErrorMsg = std::string("unexpected character '") + C + "'";
        ErrOffset = I;
        return false;
      }
      size_t Start = I;
      while (I < Pattern.size() && IsNameChar(Pattern[I]))
        ++I;
      // Optional argument list.
      if (I < Pattern.size() && Pattern[I] == '(') {
        size_t Close = Pattern.find(')', I);
        if (Close == std::string_view::npos) {
          ErrorMsg = "missing ')' in event";
          ErrOffset = I;
          return false;
        }
        I = Close + 1;
      }
      Tokens.push_back(
          {TokKind::Event, std::string(Pattern.substr(Start, I - Start)),
           Start});
    }
    Tokens.push_back({TokKind::End, "", Pattern.size()});
    return true;
  }

  const Token &peek() const { return Tokens[Pos]; }
  void advance() { ++Pos; }

  StateId addState() {
    Eps.emplace_back();
    return FA.addState();
  }

  Frag makeEpsilon() {
    Frag F{addState(), addState()};
    Eps[F.Start].push_back(F.Accept);
    return F;
  }

  Frag makeLabel(TransitionLabel L) {
    Frag F{addState(), addState()};
    FA.addTransition(F.Start, F.Accept, std::move(L));
    return F;
  }

  Frag fail(std::string &ErrorMsg, const std::string &Msg) {
    if (Ok) {
      Ok = false;
      ErrorMsg = Msg;
      ErrOffset = Tokens[Pos].Offset;
    }
    return Frag{0, 0};
  }

  /// Parses an Exact label from event text `name` or `name(p,...)` with
  /// argument patterns `*` or `v<digits>`.
  std::optional<TransitionLabel> parseEventLabel(const std::string &Text,
                                                 std::string &ErrorMsg) {
    size_t Paren = Text.find('(');
    if (Paren == std::string::npos)
      return TransitionLabel::exact(Table.internName(Text), {});
    std::string Name = Text.substr(0, Paren);
    assert(Text.back() == ')' && "lexer guarantees a closing paren");
    std::string ArgText = Text.substr(Paren + 1, Text.size() - Paren - 2);
    std::vector<ArgPattern> Args;
    if (!trimString(ArgText).empty()) {
      for (const std::string &Tok : splitString(ArgText, ',')) {
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

  Frag parseAtom(std::string &ErrorMsg) {
    const Token &T = peek();
    switch (T.Kind) {
    case TokKind::Event: {
      std::optional<TransitionLabel> L = parseEventLabel(T.Text, ErrorMsg);
      if (!L)
        return fail(ErrorMsg, ErrorMsg);
      advance();
      return makeLabel(std::move(*L));
    }
    case TokKind::NameAny: {
      TransitionLabel L = TransitionLabel::nameAny(Table.internName(T.Text));
      advance();
      return makeLabel(std::move(L));
    }
    case TokKind::Dot:
      advance();
      return makeLabel(TransitionLabel::wildcard());
    case TokKind::LBracket: {
      advance();
      Frag Inner = parseAlt(ErrorMsg);
      if (!Ok)
        return Inner;
      if (peek().Kind != TokKind::RBracket)
        return fail(ErrorMsg, "missing ']'");
      advance();
      return Inner;
    }
    default:
      return fail(ErrorMsg, "expected an event, '.', '~name', or '['");
    }
  }

  Frag parsePostfix(std::string &ErrorMsg) {
    Frag F = parseAtom(ErrorMsg);
    while (Ok) {
      TokKind K = peek().Kind;
      if (K != TokKind::Star && K != TokKind::Plus && K != TokKind::Question)
        break;
      advance();
      StateId S = addState();
      StateId A = addState();
      Eps[S].push_back(F.Start);
      Eps[F.Accept].push_back(A);
      if (K == TokKind::Star || K == TokKind::Plus)
        Eps[F.Accept].push_back(F.Start);
      if (K == TokKind::Star || K == TokKind::Question)
        Eps[S].push_back(A);
      F = Frag{S, A};
    }
    return F;
  }

  static bool startsAtom(TokKind K) {
    return K == TokKind::Event || K == TokKind::NameAny || K == TokKind::Dot ||
           K == TokKind::LBracket;
  }

  Frag parseConcat(std::string &ErrorMsg) {
    if (!startsAtom(peek().Kind))
      return makeEpsilon(); // Empty concatenation = epsilon.
    Frag F = parsePostfix(ErrorMsg);
    while (Ok && startsAtom(peek().Kind)) {
      Frag G = parsePostfix(ErrorMsg);
      if (!Ok)
        break;
      Eps[F.Accept].push_back(G.Start);
      F = Frag{F.Start, G.Accept};
    }
    return F;
  }

  Frag parseAlt(std::string &ErrorMsg) {
    Frag F = parseConcat(ErrorMsg);
    while (Ok && peek().Kind == TokKind::Bar) {
      advance();
      Frag G = parseConcat(ErrorMsg);
      if (!Ok)
        break;
      StateId S = addState();
      StateId A = addState();
      Eps[S].push_back(F.Start);
      Eps[S].push_back(G.Start);
      Eps[F.Accept].push_back(A);
      Eps[G.Accept].push_back(A);
      F = Frag{S, A};
    }
    return F;
  }

  std::string_view Pattern;
  EventTable &Table;
  std::vector<Token> Tokens;
  size_t Pos = 0;
  size_t ErrOffset = 0;
  Automaton FA;
  /// Per state of FA, the targets of its ε-moves; FA holds only the
  /// labelled transitions.
  std::vector<std::vector<StateId>> Eps;
  bool Ok = true;
};

} // namespace

std::optional<Automaton> cable::compileRegex(std::string_view Pattern,
                                             EventTable &Table,
                                             std::string &ErrorMsg) {
  RegexParser P(Pattern, Table);
  return P.parse(ErrorMsg);
}

std::optional<Automaton> cable::compileRegex(std::string_view Pattern,
                                             EventTable &Table,
                                             Diagnostic &Diag) {
  RegexParser P(Pattern, Table);
  std::string ErrorMsg;
  std::optional<Automaton> FA = P.parse(ErrorMsg);
  if (!FA) {
    Diag.Level = Severity::Error;
    Diag.Code = ErrorCode::ParseError;
    Diag.Pos.Line = 1; // Patterns are single-line.
    Diag.Pos.Col = static_cast<uint32_t>(P.errorOffset() + 1);
    Diag.Message = std::move(ErrorMsg);
  }
  return FA;
}

Automaton cable::compileRegexOrDie(std::string_view Pattern,
                                   EventTable &Table) {
  std::string ErrorMsg;
  std::optional<Automaton> FA = compileRegex(Pattern, Table, ErrorMsg);
  if (!FA) {
    std::string Msg = "bad regex '" + std::string(Pattern) + "': " + ErrorMsg;
    reportFatalError(Msg.c_str());
  }
  return std::move(*FA);
}

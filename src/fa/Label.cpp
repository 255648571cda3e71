//===- fa/Label.cpp - Transition labels -----------------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "fa/Label.h"

#include "support/Error.h"

using namespace cable;

TransitionLabel TransitionLabel::exact(NameId Name,
                                       std::vector<ArgPattern> Args) {
  TransitionLabel L;
  L.K = Kind::Exact;
  L.Name = Name;
  L.Args = std::move(Args);
  return L;
}

TransitionLabel TransitionLabel::exactEvent(const Event &E) {
  std::vector<ArgPattern> Args;
  Args.reserve(E.Args.size());
  for (ValueId V : E.Args)
    Args.push_back(ArgPattern::value(V));
  return exact(E.Name, std::move(Args));
}

TransitionLabel TransitionLabel::nameAny(NameId Name) {
  TransitionLabel L;
  L.K = Kind::NameAny;
  L.Name = Name;
  return L;
}

TransitionLabel TransitionLabel::wildcard() {
  TransitionLabel L;
  L.K = Kind::Wildcard;
  return L;
}

bool TransitionLabel::matches(const Event &E) const {
  switch (K) {
  case Kind::Wildcard:
    return true;
  case Kind::NameAny:
    return E.Name == Name;
  case Kind::Exact:
    if (E.Name != Name || E.Args.size() != Args.size())
      return false;
    for (size_t I = 0; I < Args.size(); ++I)
      if (!Args[I].matches(E.Args[I]))
        return false;
    return true;
  }
  CABLE_UNREACHABLE("bad label kind");
}

bool TransitionLabel::mentionsValue(ValueId V) const {
  if (K != Kind::Exact)
    return false;
  for (const ArgPattern &A : Args)
    if (!A.IsAny && A.Value == V)
      return true;
  return false;
}

std::string TransitionLabel::render(const EventTable &Table) const {
  switch (K) {
  case Kind::Wildcard:
    return "<any>";
  case Kind::NameAny:
    return Table.nameText(Name) + "(..)";
  case Kind::Exact: {
    std::string Out = Table.nameText(Name);
    if (Args.empty())
      return Out;
    Out += '(';
    for (size_t I = 0; I < Args.size(); ++I) {
      if (I != 0)
        Out += ',';
      if (Args[I].IsAny)
        Out += '*';
      else
        Out += 'v' + std::to_string(Args[I].Value);
    }
    Out += ')';
    return Out;
  }
  }
  CABLE_UNREACHABLE("bad label kind");
}

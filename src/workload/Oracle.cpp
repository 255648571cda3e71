//===- workload/Oracle.cpp - Ground-truth labeling --------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "workload/Oracle.h"

#include "fa/Regex.h"

using namespace cable;

Oracle::Oracle(const ProtocolModel &Model, EventTable &Table)
    : CorrectFA(compileRegexOrDie(Model.CorrectRegex, Table)) {}

bool Oracle::isCorrect(const Trace &T, const EventTable &Table) const {
  return CorrectFA.accepts(T, Table);
}

std::vector<std::string> Oracle::labelNames(const Session &S) const {
  RelationScanner Scanner(CorrectFA, S.table());
  std::vector<std::string> Out;
  Out.reserve(S.numObjects());
  for (size_t Obj = 0; Obj < S.numObjects(); ++Obj)
    Out.push_back(Scanner.accepts(S.object(Obj)) ? "good" : "bad");
  return Out;
}

std::vector<std::string> Oracle::variantLabelNames(const Session &S) const {
  RelationScanner Scanner(CorrectFA, S.table());
  std::vector<std::string> Out;
  Out.reserve(S.numObjects());
  for (size_t Obj = 0; Obj < S.numObjects(); ++Obj) {
    const Trace &T = S.object(Obj);
    if (!Scanner.accepts(T)) {
      Out.push_back("bad");
      continue;
    }
    std::string Variant =
        T.empty() ? "empty" : S.table().nameText(S.table().event(T[0]).Name);
    Out.push_back("good_" + Variant);
  }
  return Out;
}

ReferenceLabeling Oracle::referenceLabeling(Session &S, bool Variants) const {
  return makeReferenceLabeling(S, Variants ? variantLabelNames(S)
                                           : labelNames(S));
}

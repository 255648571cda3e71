//===- Cable.h - Umbrella header ---------------------------------*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Convenience umbrella: pulls in the whole public API. Applications that
/// care about compile time should include the specific headers instead;
/// this exists for quick experiments and example code.
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_CABLE_H
#define CABLE_CABLE_H

#include "cable/Advisor.h"
#include "cable/Session.h"
#include "cable/Strategies.h"
#include "cable/WellFormed.h"
#include "concepts/Context.h"
#include "concepts/GodinBuilder.h"
#include "concepts/Lattice.h"
#include "concepts/Covers.h"
#include "concepts/NextClosureBuilder.h"
#include "fa/Automaton.h"
#include "fa/Dfa.h"
#include "fa/Parse.h"
#include "fa/Regex.h"
#include "fa/Templates.h"
#include "learner/Coring.h"
#include "learner/KTails.h"
#include "learner/SkStrings.h"
#include "miner/Miner.h"
#include "trace/TraceSet.h"
#include "verifier/Verifier.h"

#endif // CABLE_CABLE_H

//===- concepts/ContextReference.h - The Context oracle ---------*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The derivation operators the slow, obvious way, kept only as the
/// differential oracle of Context (tests and bench/scaling_lattice link
/// cable_concepts_oracle; no tool does). The relation is read once through
/// Context::related into one BitVector per object row and one per
/// attribute column; sigma and tau then start from the full universe and
/// apply operator&= once per selected row or column. Context's fused
/// derivations and closures must agree with these bit for bit.
///
/// Clarification, which only tests use, lives here too.
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_CONCEPTS_CONTEXTREFERENCE_H
#define CABLE_CONCEPTS_CONTEXTREFERENCE_H

#include "concepts/Context.h"

#include <vector>

namespace cable {

/// A Context's relation as BitVector rows and columns, with the reference
/// derivation operators over them.
class ContextReference {
public:
  explicit ContextReference(const Context &Ctx);

  /// The attribute set of one object.
  const BitVector &row(size_t Obj) const { return Rows[Obj]; }
  /// The object set of one attribute.
  const BitVector &col(size_t Attr) const { return Cols[Attr]; }

  /// Attributes common to all objects in \p Objects.
  BitVector sigma(const BitVector &Objects) const;
  /// Objects possessing all attributes in \p Attrs.
  BitVector tau(const BitVector &Attrs) const;

  BitVector closeExtent(const BitVector &Objects) const {
    return tau(sigma(Objects));
  }
  BitVector closeIntent(const BitVector &Attrs) const {
    return sigma(tau(Attrs));
  }

private:
  std::vector<BitVector> Rows;
  std::vector<BitVector> Cols;
};

/// Standard FCA clarification: merges objects with identical rows and
/// attributes with identical columns. The clarified context has an
/// isomorphic concept lattice. The optional out-parameters receive, for
/// each original object/attribute, its index in the clarified context.
Context clarified(const Context &Ctx, std::vector<size_t> *ObjectMap = nullptr,
                  std::vector<size_t> *AttributeMap = nullptr);

} // namespace cable

#endif // CABLE_CONCEPTS_CONTEXTREFERENCE_H

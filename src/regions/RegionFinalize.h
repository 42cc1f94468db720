//===----------------------------------------------------------------------===//
///
/// \file
/// Finalization of a freshly inferred region program, one placement
/// domain (program top level, lambda body, letrec fnBody) at a time. Each
/// domain is one iterative preorder walk plus passes over the arrays it
/// builds; nothing recurses over the tree:
///   * canonicalizes every node's region annotations (writes, reads,
///     letrec formals, region-application actuals) and computes the
///     free-region sets used to restrict abstract region environments in
///     the closure analysis;
///   * places `letregion` bindings: a region not yet in scope is bound at
///     the lowest common ancestor of the nodes that mention it, or at its
///     parent when the region is in that node's value type;
///   * gives each node its overall effect (§4.2), shared with its parent
///     unless the node binds regions itself;
///   * computes each node's letregion-masked effect bottom-up.
///
//===----------------------------------------------------------------------===//

#ifndef AFL_REGIONS_REGIONFINALIZE_H
#define AFL_REGIONS_REGIONFINALIZE_H

#include "regions/RegionProgram.h"

#include <unordered_map>

namespace afl {
namespace regions {

/// Runs finalization. \p RegAppSubst maps each region-application node to
/// the instantiation substitution it used.
void finalizeRegionProgram(
    RegionProgram &Prog,
    const std::unordered_map<RNodeId, RSubst> &RegAppSubst);

} // namespace regions
} // namespace afl

#endif // AFL_REGIONS_REGIONFINALIZE_H

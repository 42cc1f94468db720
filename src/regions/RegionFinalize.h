//===----------------------------------------------------------------------===//
///
/// \file
/// Finalization of a freshly inferred region program:
///   * resolves every region annotation (writes, reads, formals, actuals,
///     effects, globals) to canonical region-variable ids;
///   * places `letregion` bindings per placement domain (program top
///     level, lambda body, letrec fnBody): a region not yet in scope is
///     bound at the lowest common ancestor of the nodes that mention it,
///     or at its parent when the region is in that node's value type;
///     the walk is iterative;
///   * computes per-node overall effects (§4.2);
///   * computes the free-region sets used to restrict abstract region
///     environments in the closure analysis.
///
//===----------------------------------------------------------------------===//

#ifndef AFL_REGIONS_REGIONFINALIZE_H
#define AFL_REGIONS_REGIONFINALIZE_H

#include "regions/RegionProgram.h"

#include <unordered_map>
#include <vector>

namespace afl {
namespace regions {

/// Runs finalization. \p RawEff holds the unresolved per-node effect sets
/// produced by inference (indexed by node id); \p RegAppSubst maps each
/// region-application node to the instantiation substitution it used.
void finalizeRegionProgram(
    RegionProgram &Prog, std::vector<EffectSet> &RawEff,
    const std::unordered_map<RNodeId, RSubst> &RegAppSubst);

} // namespace regions
} // namespace afl

#endif // AFL_REGIONS_REGIONFINALIZE_H

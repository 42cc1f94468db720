//===----------------------------------------------------------------------===//
///
/// \file
/// Connected-component decomposition of a constraint system. Two
/// variables are connected when some constraint mentions both; a triple
/// additionally connects its boolean to both states, so booleans shared
/// across contexts merge the contexts' chains into one component.
/// Components share no variables, so each can be solved independently —
/// the per-procedure decomposition insight of the Mercury region system
/// (PAPERS.md) applied to the §4.3 solve.
///
/// The production solver never discovers components itself: it consumes
/// the shards ConstraintSystem finalizes from its emission-time
/// union-find, through buildShardLocalIds. splitComponents (discovery
/// from scratch) and materializeShard (one shard as a standalone system)
/// are the references tests/SimplifyTest.cpp checks the shard index and
/// simplifyShard against.
///
/// Determinism: components are ordered by their smallest state
/// variable, and local ids ascend in global-id order (docs/SOLVER.md).
///
//===----------------------------------------------------------------------===//

#ifndef AFL_SOLVER_COMPONENTS_H
#define AFL_SOLVER_COMPONENTS_H

#include "constraints/ConstraintSystem.h"

namespace afl {
namespace solver {

/// One connected component, as a self-contained system over local ids.
struct Component {
  constraints::ConstraintSystem Sys;
  /// Local state/bool variable id -> id in the source system.
  std::vector<constraints::StateVarId> StateGlobal;
  std::vector<constraints::BoolVarId> BoolGlobal;
};

struct ComponentSplit {
  std::vector<Component> Comps;
  /// Constraint count of the largest component.
  size_t LargestConstraints = 0;
};

/// Splits \p Sys into connected components. Variables that occur in no
/// constraint belong to no component (the caller keeps their initial
/// domains; unforced booleans default to false downstream).
ComponentSplit splitComponents(const constraints::ConstraintSystem &Sys);

/// Local-id tables for every shard of a pre-sharded system (the CSR
/// component index ConstraintSystem finalizes from its emission-time
/// union-find): a variable's local id is its rank within its shard, so
/// local ids ascend in global-id order — the numbering splitComponents
/// assigns.
struct ShardLocalIds {
  std::vector<uint32_t> State, Bool;
  size_t NumShardedStates = 0;
};
ShardLocalIds buildShardLocalIds(const constraints::ConstraintSystem &Sys);

/// Materializes shard \p K of a pre-sharded system as a self-contained
/// component, equivalent to the corresponding splitComponents entry but
/// a pure gather over the CSR shard index — no union-find, no edge scan.
Component materializeShard(const constraints::ConstraintSystem &Sys,
                           uint32_t K, const ShardLocalIds &Ids);

} // namespace solver
} // namespace afl

#endif // AFL_SOLVER_COMPONENTS_H

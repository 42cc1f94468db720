//===----------------------------------------------------------------------===//
///
/// \file
/// Solver preprocessing (constraint-graph simplification). The §4.3
/// solver treats every `Eq` constraint as a live arc that must be
/// re-propagated whenever either endpoint changes. Following the
/// inclusion-constraint simplification line of work (see PAPERS.md),
/// this pass shrinks the system *before* solving:
///
///   1. **Equality collapse** — union-find over the state variables
///      merges every `Eq`-connected class into one representative whose
///      initial domain is the intersection of the members' domains.
///      `Eq` constraints disappear from the solve entirely; an empty
///      intersection is an early conflict (unsatisfiable).
///   2. **Forced-boolean elimination** — a triple whose boolean value is
///      already determined by the initial representative domains is
///      applied and dropped: `b = false` turns the triple into an
///      equality (fed back into the union-find, so collapses cascade);
///      `b = true` restricts the endpoint domains to the transition
///      states. A triple whose endpoints share a representative forces
///      `b = false` (the U→A / A→D transition cannot happen on one
///      variable).
///   3. **Deduplication** — identical residual triples (same kind,
///      representatives and boolean) are kept once.
///
/// The **representative-mapping invariant**: at any propagation fixpoint
/// of the raw solver, all `Eq`-connected variables hold identical
/// domains, so mapping the representative's solved domain back over the
/// class reproduces the raw solver's answer (docs/SOLVER.md).
///
/// The solver runs the pass per group of emission shards
/// (simplifyGroup). Shards are connected components — two variables are
/// connected when some constraint mentions both, and a triple also
/// connects its boolean to both states — so they share no variables and
/// each can be simplified and solved on its own: the per-procedure
/// decomposition of the Mercury region system (PAPERS.md) applied to the
/// §4.3 solve. Local ids ascend in global-id order (docs/SOLVER.md).
///
//===----------------------------------------------------------------------===//

#ifndef AFL_SOLVER_SIMPLIFY_H
#define AFL_SOLVER_SIMPLIFY_H

#include "constraints/ConstraintSystem.h"

#include <span>

namespace afl {
namespace solver {

/// Preprocessing statistics; flows into SolveResult / AflStats /
/// PipelineStats and the `--metrics` JSON (docs/OBSERVABILITY.md).
struct SimplifyStats {
  size_t StateVarsBefore = 0;
  size_t StateVarsAfter = 0;
  size_t ConstraintsBefore = 0;
  size_t ConstraintsAfter = 0;
  /// `Eq` constraints removed by the union-find collapse (all of them).
  size_t EqRemoved = 0;
  /// Identical residual triples dropped.
  size_t DupTriplesRemoved = 0;
  /// Triples dropped because their boolean was forced.
  size_t ForcedTriplesRemoved = 0;
  /// Boolean variables fixed during preprocessing.
  size_t BoolsForced = 0;
  /// Connected components solved: the system's emission shards.
  size_t Components = 0;
  /// Constraint count of the largest component.
  size_t LargestComponent = 0;
  /// Worker threads used for the per-shard solve.
  size_t ThreadsUsed = 1;
  /// Per-phase wall-clock seconds.
  double SimplifySeconds = 0;
  double ComponentSeconds = 0;
  double ReconstructSeconds = 0;

  /// Pointwise sum (batch aggregation); LargestComponent takes the max.
  void accumulate(const SimplifyStats &Other);
};

/// The simplified system plus the mapping back to the original variable
/// space.
struct SimplifiedSystem {
  /// Residual system over representative state variables: no `Eq`
  /// constraints, no duplicates, no forced-boolean triples. Boolean
  /// variable ids are preserved (forced booleans appear with singleton
  /// domains and no occurrences).
  constraints::ConstraintSystem Residual;
  /// Original state variable -> representative id in `Residual`.
  std::vector<constraints::StateVarId> StateRep;
  /// True if preprocessing proved the system unsatisfiable (an empty
  /// domain intersection). `Residual` is left partially built.
  bool Conflict = false;
  SimplifyStats Stats;
};

/// Runs the preprocessing pass over a system of \p Dom.size() state
/// variables (initial domains \p Dom) and \p NumBools booleans whose
/// constraints, over those ids and in emission order, are \p Cons.
SimplifiedSystem simplifyConstraints(size_t NumBools,
                                     support::StateDomains Dom,
                                     std::vector<constraints::Constraint> Cons);

/// Local-id tables for every shard of a pre-sharded system (the CSR
/// component index ConstraintSystem finalizes from its emission-time
/// union-find): a variable's local id is its rank within its shard, so
/// local ids ascend in global-id order.
struct ShardLocalIds {
  std::vector<uint32_t> State, Bool;
  size_t NumShardedStates = 0;
};
ShardLocalIds buildShardLocalIds(const constraints::ConstraintSystem &Sys);

/// Runs the pass over the group of shards \p Shards of a pre-sharded
/// system, treated as one disjoint union: group-local ids concatenate the
/// member shards' local id spaces (\p Ids) in the order given (member
/// M's states start at the sum of the preceding members' state counts),
/// so StateRep indexes group-local state ids and residual boolean ids
/// are the group-local ones. Because shards share no variables, the
/// result is the exact concatenation of the members' individual
/// simplifications — grouping exists purely to amortize per-call fixed
/// costs over small shards. Only the members' initial domains are
/// checked for emptiness; a caller that wants the whole-system conflict
/// check (a zeroed domain outside any shard) performs it separately, as
/// solver::solve does.
SimplifiedSystem simplifyGroup(const constraints::ConstraintSystem &Sys,
                               std::span<const uint32_t> Shards,
                               const ShardLocalIds &Ids);

} // namespace solver
} // namespace afl

#endif // AFL_SOLVER_SIMPLIFY_H

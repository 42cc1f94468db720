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
//===----------------------------------------------------------------------===//

#ifndef AFL_SOLVER_SIMPLIFY_H
#define AFL_SOLVER_SIMPLIFY_H

#include "constraints/ConstraintSystem.h"

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

/// Runs the preprocessing pass over \p Sys (which is not modified).
SimplifiedSystem simplify(const constraints::ConstraintSystem &Sys);

struct ShardLocalIds;

/// Runs the identical pass over shard \p K of a pre-sharded system,
/// consuming the CSR shard index directly — no materialized
/// per-component copy. Variables are shard-local (\p Ids, from
/// buildShardLocalIds): StateRep indexes shard-local state ids, and
/// residual boolean ids are the shard-local ones. Produces the residual
/// that simplify() over materializeShard(Sys, K, Ids).Sys would,
/// bit-identically. Only shard-local initial domains are checked for
/// emptiness; a caller that wants the whole-system conflict check (a
/// zeroed domain outside any shard) performs it separately, as
/// solver::solve does.
SimplifiedSystem simplifyShard(const constraints::ConstraintSystem &Sys,
                               uint32_t K, const ShardLocalIds &Ids);

/// simplifyShard generalized to the contiguous shard range
/// [\p KBegin, \p KEnd), treated as one disjoint union: group-local ids
/// concatenate the member shards' local id spaces in shard order (member
/// M's states start at the sum of the preceding members' state counts).
/// Because shards share no variables, the result is the exact
/// concatenation of the members' individual simplifications — grouping
/// exists purely to amortize per-call fixed costs over small shards.
SimplifiedSystem simplifyShardRange(const constraints::ConstraintSystem &Sys,
                                    uint32_t KBegin, uint32_t KEnd,
                                    const ShardLocalIds &Ids);

} // namespace solver
} // namespace afl

#endif // AFL_SOLVER_SIMPLIFY_H

//===----------------------------------------------------------------------===//
///
/// \file
/// Constraint resolution (paper §4.3). The solver alternates between
/// proving facts (arc-consistency propagation over the {U,A,D} and
/// boolean domains) and making choices at *border* points:
///
///   * an allocation triple whose post-state is forced A while its
///     pre-state is still free → choose to allocate here (this is the
///     latest possible allocation point; U then propagates backwards);
///   * a deallocation triple whose pre-state is forced A while its
///     post-state is still free → choose to free here (earliest possible
///     free; D propagates forwards).
///
/// Choices are tentative: each is trailed, and a choice whose propagation
/// conflicts is reverted and pinned to false (chronological backtracking).
/// Remaining undetermined booleans default to false (no operation). The
/// conservative completion is a witness that the system is satisfiable.
///
/// solve() has exactly two paths. Production (SolveOptions::Simplify,
/// the default) consumes the input's emission-time shards — the
/// connected components ConstraintSystem finalizes from its union-find —
/// and simplifies (src/solver/Simplify.h: equalities collapsed by
/// union-find, forced triples eliminated, duplicates dropped) and solves
/// each shard group on its own over bit-packed domains — fanned out over
/// the shared thread pool when the system is large — then maps the
/// solution back to the original variable space. The oracle
/// (Simplify = false) runs the paper-literal §4.3 engine over the raw
/// system with byte-per-variable domains on the calling thread. Both
/// produce bit-identical domains (docs/SOLVER.md,
/// tests/SolverDifferentialTest.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef AFL_SOLVER_SOLVER_H
#define AFL_SOLVER_SOLVER_H

#include "constraints/ConstraintSystem.h"
#include "solver/Simplify.h"

#include <string>
#include <unordered_map>

namespace afl {
namespace solver {

/// Solver configuration; the defaults are what production callers want.
struct SolveOptions {
  /// Run the per-shard simplification and the packed-domain solve
  /// (production). When false, the raw byte-domain §4.3 engine runs on
  /// the unmodified system — the differential oracle (`aflc
  /// --no-simplify`).
  bool Simplify = true;
  /// Worker threads for the production shard solve: 0 = every hardware
  /// thread, used only on systems of at least 2048 constraints (smaller
  /// ones solve on the calling thread). A constant, not a setting.
  static constexpr unsigned Jobs = 0;
};

struct SolveResult {
  bool Sat = false;
  /// Final domains (singletons for booleans when Sat), indexed by the
  /// *original* variable ids regardless of preprocessing. Bit-packed
  /// like the input system's domains (read with get()/operator[]); the
  /// byte-domain oracle packs its result on the way out, so the
  /// representation here is path-independent.
  support::StateDomains StateDom;
  support::BoolDomains BoolDom;
  /// Statistics.
  uint64_t Propagations = 0;
  uint64_t Choices = 0;
  uint64_t Backtracks = 0;
  /// Preprocessing statistics (zeros when simplification is off).
  SimplifyStats Simplify;
  /// Wall-clock time spent inside solve(), in seconds.
  double Seconds = 0;

  bool boolValue(constraints::BoolVarId B) const {
    return BoolDom.get(B) == constraints::BTrue;
  }
};

/// Solves \p Sys. The input system is not modified.
SolveResult solve(const constraints::ConstraintSystem &Sys,
                  const SolveOptions &Options = SolveOptions());

/// Content-keyed cache of per-shard solutions, owned by long-lived
/// callers (one per open document in the analysis server). A shard's key
/// is the byte string of its shard-local constraint encoding plus the
/// initial domains of its member variables, so any shard whose emitted
/// content is unchanged across a re-analysis — regardless of how global
/// variable ids shifted — replays its solved domains without touching
/// the simplifier or the solver. Entries record unsatisfiable shards
/// too. The cache only grows; documents are the intended owner and a
/// document's shard population is bounded by its program size.
struct ShardSolutionCache {
  struct Entry {
    bool Sat = false;
    /// Solved domains in shard-local order (the order of
    /// ConstraintSystem::shardStates / shardBools).
    std::vector<uint8_t> StateDom;
    std::vector<uint8_t> BoolDom;
  };
  std::unordered_map<std::string, Entry> Entries;
  /// Cumulative counters (the server reports per-request deltas).
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

/// Like solve(), but each shard is first looked up in \p Cache and only
/// cache misses are simplified and solved (new solutions are inserted).
/// Produces bit-identical domains to solve(): shards share no
/// variables, so per-shard resolution is the exact concatenation of the
/// grouped path (docs/SOLVER.md). Work counters (propagations, simplify
/// stats) cover only the shards actually solved. Falls back to plain
/// solve() when Options disable Simplify (the cache is keyed on shard
/// content, which only the production path consumes).
SolveResult solveCached(const constraints::ConstraintSystem &Sys,
                        const SolveOptions &Options,
                        ShardSolutionCache &Cache);

} // namespace solver
} // namespace afl

#endif // AFL_SOLVER_SOLVER_H

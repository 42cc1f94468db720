//===----------------------------------------------------------------------===//
///
/// \file
/// The constraint language of paper §4.1. Each *state variable* ranges
/// over the region states {U, A, D} (unallocated / allocated /
/// deallocated); each *boolean variable* encodes whether a potential
/// allocation or deallocation point is realized. Constraints:
///
///   * equality          s1 = s2
///   * allocation        s = A                  (region accessed here)
///   * allocation triple (s1, b, s2)_a :  b → (s1 = U ∧ s2 = A),
///                                       ¬b → s1 = s2
///   * deallocation triple (s1, b, s2)_d: b → (s1 = A ∧ s2 = D),
///                                       ¬b → s1 = s2
///
/// Domains are bitmasks; the solver performs arc-consistency style
/// propagation over them.
///
/// The system also tracks connectivity *as constraints are emitted*: a
/// union-find over the state and boolean variables is updated inside
/// `addConstraint`, so by the time generation finishes the connected
/// components of the constraint graph are already known. `numShards()` /
/// `shardConstraints()` / `shardStates()` / `shardBools()` expose them as
/// CSR-backed shards with deterministic numbering (ascending smallest
/// member state variable — the same order `solver::splitComponents`
/// assigns). The production solver simplifies and solves shard by shard
/// and never runs a component-discovery pass of its own.
///
//===----------------------------------------------------------------------===//

#ifndef AFL_CONSTRAINTS_CONSTRAINTSYSTEM_H
#define AFL_CONSTRAINTS_CONSTRAINTSYSTEM_H

#include "support/PackedDomains.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace afl {
namespace constraints {

using StateVarId = uint32_t;
using BoolVarId = uint32_t;

/// State domain bits.
enum : uint8_t {
  StU = 1,
  StA = 2,
  StD = 4,
  StAny = StU | StA | StD,
};

/// Boolean domain bits.
enum : uint8_t {
  BFalse = 1,
  BTrue = 2,
  BAny = BFalse | BTrue,
};

/// A constraint over state/boolean variables.
struct Constraint {
  enum class Kind : uint8_t { Eq, AllocTriple, DeallocTriple };
  Kind K;
  StateVarId S1 = 0;
  StateVarId S2 = 0;
  BoolVarId B = 0; // triples only
};

/// Variable store + constraint list + occurrence index.
class ConstraintSystem {
public:
  StateVarId newState(uint8_t Domain = StAny) {
    StateDom.push_back(Domain);
    if (Tracking)
      Uf.push_back(-1);
    return static_cast<StateVarId>(StateDom.size() - 1);
  }

  BoolVarId newBool(uint8_t Domain = BAny) {
    BoolDom.push_back(Domain);
    if (Tracking)
      BFirst.push_back(NoVar);
    return static_cast<BoolVarId>(BoolDom.size() - 1);
  }

  /// Turns off the emission-time union-find. For solver-internal systems
  /// (simplification residuals, materialized components) that are solved
  /// directly and never asked for shards, maintaining connectivity is
  /// pure overhead on every addConstraint. The shard API still works on
  /// such a system: ensureShards rebuilds the union-find from the
  /// constraint list in one batch pass. Call before populating.
  void disableConnectivityTracking() {
    Tracking = false;
    BFirst.clear();
    Uf.clear();
  }

  void addEq(StateVarId S1, StateVarId S2) {
    if (S1 == S2)
      return;
    addConstraint({Constraint::Kind::Eq, S1, S2, 0});
  }
  void addAllocTriple(StateVarId S1, BoolVarId B, StateVarId S2) {
    addConstraint({Constraint::Kind::AllocTriple, S1, S2, B});
  }
  void addDeallocTriple(StateVarId S1, BoolVarId B, StateVarId S2) {
    addConstraint({Constraint::Kind::DeallocTriple, S1, S2, B});
  }

  /// Initial domain restriction (e.g. "this state is A": mask StA).
  void restrictState(StateVarId S, uint8_t Mask) {
    StateDom.set(S, StateDom.get(S) & Mask);
  }

  size_t numStateVars() const { return StateDom.size(); }
  size_t numBoolVars() const { return BoolDom.size(); }
  size_t numConstraints() const { return Cons.size(); }

  /// Number of constraints of one kind (e.g. the solver preprocessing
  /// proof obligation: zero `Eq` constraints post-simplification).
  size_t numConstraintsOfKind(Constraint::Kind K) const {
    size_t N = 0;
    for (const Constraint &C : Cons)
      N += C.K == K;
    return N;
  }

  /// Contiguous view of one variable's occurrence list (ascending
  /// constraint indices).
  struct OccRange {
    const uint32_t *B = nullptr, *E = nullptr;
    const uint32_t *begin() const { return B; }
    const uint32_t *end() const { return E; }
    size_t size() const { return static_cast<size_t>(E - B); }
  };

  /// Constraints mentioning state variable \p S. The index is CSR-shaped
  /// (one flat offset array + one flat data array) and built lazily on
  /// first access: generation only appends constraints and never pays for
  /// it, and building it once afterwards is two linear passes — the
  /// per-variable vector-of-vectors it replaces made `addConstraint` the
  /// generation hot spot via hundreds of thousands of small allocations.
  OccRange stateOcc(StateVarId S) const {
    ensureOcc();
    return {SOccData.data() + SOccStart[S], SOccData.data() + SOccStart[S + 1]};
  }

  /// Constraints mentioning boolean variable \p B (triples only).
  OccRange boolOcc(BoolVarId V) const {
    ensureOcc();
    return {BOccData.data() + BOccStart[V], BOccData.data() + BOccStart[V + 1]};
  }

  /// Number of connected components ("shards") of the constraint graph.
  /// Shards are numbered by their smallest state variable, ascending —
  /// the numbering `solver::splitComponents` would assign. Variables that
  /// occur in no constraint belong to no shard.
  size_t numShards() const {
    ensureShards();
    return NumShards;
  }

  /// Indices into `Cons` of shard \p K's constraints, in ascending
  /// (emission) order.
  OccRange shardConstraints(uint32_t K) const {
    ensureShards();
    return {ShardConsData.data() + ShardConsStart[K],
            ShardConsData.data() + ShardConsStart[K + 1]};
  }

  /// State variables of shard \p K, ascending.
  OccRange shardStates(uint32_t K) const {
    ensureShards();
    return {ShardStateData.data() + ShardStateStart[K],
            ShardStateData.data() + ShardStateStart[K + 1]};
  }

  /// Boolean variables of shard \p K, ascending.
  OccRange shardBools(uint32_t K) const {
    ensureShards();
    return {ShardBoolData.data() + ShardBoolStart[K],
            ShardBoolData.data() + ShardBoolStart[K + 1]};
  }

  /// Constraint count of the largest shard (0 if no constraints).
  size_t largestShardConstraints() const {
    ensureShards();
    size_t Largest = 0;
    for (size_t K = 0; K != NumShards; ++K)
      Largest = std::max<size_t>(Largest,
                                 ShardConsStart[K + 1] - ShardConsStart[K]);
    return Largest;
  }

  // Solver access. Domains are bit-packed (support/PackedDomains.h):
  // 3 bits per state variable, 2 per boolean — read with get()/[],
  // write with set().
  support::StateDomains StateDom;
  support::BoolDomains BoolDom;
  std::vector<Constraint> Cons;

private:
  static constexpr uint32_t NoShard = static_cast<uint32_t>(-1);
  static constexpr uint32_t NoVar = static_cast<uint32_t>(-1);

  void addConstraint(Constraint C) {
    Cons.push_back(C);
    if (Tracking)
      trackConstraint(C);
  }

  /// Incremental connectivity: merge the constraint's endpoints now, so
  /// finalizing shards later is a pure renumbering pass with no edge
  /// scan. State variable ids ARE the union-find slots (newState pushes
  /// one). Booleans have no slots: a boolean connects all triples
  /// mentioning it, which is equivalent to merging each later endpoint
  /// into the endpoint of its first occurrence (BFirst) — the same
  /// components over the state variables, with a third fewer slots and
  /// merges. The boolean's own shard falls out during finalization (its
  /// first triple's endpoint shard).
  void trackConstraint(const Constraint &C) const {
    merge(C.S1, C.S2);
    if (C.K != Constraint::Kind::Eq) {
      uint32_t &F = BFirst[C.B];
      if (F == NoVar)
        F = C.S1;
      else
        merge(C.S1, F);
      if (C.S1 == C.S2) {
        // Degenerate self-triple: the state merge above was a no-op, so
        // force the class non-singleton — ensureShards reads a singleton
        // class as "occurs in no constraint".
        uint32_t R = find(C.S1);
        if (Uf[R] == -1)
          Uf[R] = -2;
      }
    }
  }

  /// Single-array union-find: a root slot holds the negated class size,
  /// a non-root slot holds its parent index. find() path-halves.
  uint32_t find(uint32_t N) const {
    int32_t P;
    while ((P = Uf[N]) >= 0) {
      int32_t G = Uf[static_cast<uint32_t>(P)];
      if (G < 0)
        return static_cast<uint32_t>(P);
      Uf[N] = G; // path halving
      N = static_cast<uint32_t>(G);
    }
    return N;
  }

  void merge(uint32_t A, uint32_t B) const {
    A = find(A);
    B = find(B);
    if (A == B)
      return;
    if (Uf[A] > Uf[B]) // union by size (sizes are stored negated)
      std::swap(A, B);
    Uf[A] += Uf[B];
    Uf[B] = static_cast<int32_t>(A);
  }

  void ensureOcc() const {
    if (OccConsBuilt == Cons.size() &&
        SOccStart.size() == StateDom.size() + 1 &&
        BOccStart.size() == BoolDom.size() + 1)
      return;
    SOccStart.assign(StateDom.size() + 1, 0);
    BOccStart.assign(BoolDom.size() + 1, 0);
    for (const Constraint &C : Cons) {
      ++SOccStart[C.S1 + 1];
      ++SOccStart[C.S2 + 1];
      if (C.K != Constraint::Kind::Eq)
        ++BOccStart[C.B + 1];
    }
    for (size_t I = 1; I < SOccStart.size(); ++I)
      SOccStart[I] += SOccStart[I - 1];
    for (size_t I = 1; I < BOccStart.size(); ++I)
      BOccStart[I] += BOccStart[I - 1];
    SOccData.resize(SOccStart.back());
    BOccData.resize(BOccStart.back());
    // Fill with a moving cursor per variable; iterating constraints in
    // index order keeps each list ascending — the same order the old
    // per-variable push_back produced.
    std::vector<uint32_t> SCur(SOccStart.begin(), SOccStart.end() - 1);
    std::vector<uint32_t> BCur(BOccStart.begin(), BOccStart.end() - 1);
    for (uint32_t Idx = 0; Idx != Cons.size(); ++Idx) {
      const Constraint &C = Cons[Idx];
      SOccData[SCur[C.S1]++] = Idx;
      SOccData[SCur[C.S2]++] = Idx;
      if (C.K != Constraint::Kind::Eq)
        BOccData[BCur[C.B]++] = Idx;
    }
    OccConsBuilt = Cons.size();
  }

  /// Finalizes the union-find into CSR shard tables. Pure renumbering:
  /// scan state variables ascending and number each root at its first
  /// occurrence (= numbering by smallest member state variable; every
  /// constraint mentions a state variable, so every shard has one), then
  /// bucket variables and constraints by shard. For untracked systems the
  /// union-find is first rebuilt in one batch pass over the constraint
  /// list. Lazy and cached like the occurrence index.
  void ensureShards() const {
    if (ShardsConsBuilt == Cons.size() && ShardSCount == StateDom.size() &&
        ShardBCount == BoolDom.size())
      return;
    const size_t NS = StateDom.size(), NB = BoolDom.size();
    if (!Tracking) {
      BFirst.assign(NB, NoVar);
      Uf.assign(NS, -1);
      for (const Constraint &C : Cons)
        trackConstraint(C);
    }

    // Memoize each variable's shard so the counting and filling passes
    // below are straight array reads. A state variable whose union-find
    // class is still a singleton (root slot -1) occurs in no constraint
    // — addConstraint leaves no constrained class at size one — and
    // belongs to no shard; a boolean's shard is its first triple's
    // endpoint shard, picked up in the constraint sweep. NumShards is
    // also the shard-numbering pass: ascending smallest member state
    // variable.
    std::vector<uint32_t> ShardOfRoot(Uf.size(), NoShard);
    std::vector<uint32_t> SShard(NS, NoShard), BShard(NB, NoShard);
    NumShards = 0;
    ShardStateStart.assign(1, 0);
    for (StateVarId S = 0; S != NS; ++S) {
      if (Uf[S] == -1)
        continue;
      uint32_t R = find(S);
      if (ShardOfRoot[R] == NoShard) {
        ShardOfRoot[R] = static_cast<uint32_t>(NumShards++);
        ShardStateStart.push_back(0);
      }
      SShard[S] = ShardOfRoot[R];
      ++ShardStateStart[ShardOfRoot[R] + 1];
    }

    ShardConsStart.assign(NumShards + 1, 0);
    ShardBoolStart.assign(NumShards + 1, 0);
    for (const Constraint &C : Cons) {
      uint32_t K = SShard[C.S1];
      ++ShardConsStart[K + 1];
      if (C.K != Constraint::Kind::Eq)
        BShard[C.B] = K;
    }
    for (BoolVarId B = 0; B != NB; ++B)
      if (BShard[B] != NoShard)
        ++ShardBoolStart[BShard[B] + 1];
    for (size_t K = 1; K <= NumShards; ++K) {
      ShardConsStart[K] += ShardConsStart[K - 1];
      ShardStateStart[K] += ShardStateStart[K - 1];
      ShardBoolStart[K] += ShardBoolStart[K - 1];
    }
    ShardConsData.resize(ShardConsStart.back());
    ShardStateData.resize(ShardStateStart.back());
    ShardBoolData.resize(ShardBoolStart.back());
    std::vector<uint32_t> ConsCur(ShardConsStart.begin(),
                                  ShardConsStart.end() - 1);
    std::vector<uint32_t> StateCur(ShardStateStart.begin(),
                                   ShardStateStart.end() - 1);
    std::vector<uint32_t> BoolCur(ShardBoolStart.begin(),
                                  ShardBoolStart.end() - 1);
    for (uint32_t Idx = 0; Idx != Cons.size(); ++Idx)
      ShardConsData[ConsCur[SShard[Cons[Idx].S1]]++] = Idx;
    for (StateVarId S = 0; S != NS; ++S)
      if (SShard[S] != NoShard)
        ShardStateData[StateCur[SShard[S]]++] = S;
    for (BoolVarId B = 0; B != NB; ++B)
      if (BShard[B] != NoShard)
        ShardBoolData[BoolCur[BShard[B]]++] = B;

    ShardsConsBuilt = Cons.size();
    ShardSCount = StateDom.size();
    ShardBCount = BoolDom.size();
  }

  mutable std::vector<uint32_t> SOccStart, SOccData;
  mutable std::vector<uint32_t> BOccStart, BOccData;
  mutable size_t OccConsBuilt = static_cast<size_t>(-1);

  /// Emission-time union-find over the state variable ids, maintained in
  /// addConstraint while Tracking (rebuilt inside ensureShards
  /// otherwise). BFirst maps each boolean to the endpoint of its first
  /// triple (NoVar until seen). find() path-halves, so everything is
  /// mutable.
  bool Tracking = true;
  mutable std::vector<uint32_t> BFirst;
  mutable std::vector<int32_t> Uf;

  mutable std::vector<uint32_t> ShardConsStart, ShardConsData;
  mutable std::vector<uint32_t> ShardStateStart, ShardStateData;
  mutable std::vector<uint32_t> ShardBoolStart, ShardBoolData;
  mutable size_t NumShards = 0;
  mutable size_t ShardsConsBuilt = static_cast<size_t>(-1);
  mutable size_t ShardSCount = 0, ShardBCount = 0;
};

} // namespace constraints
} // namespace afl

#endif // AFL_CONSTRAINTS_CONSTRAINTSYSTEM_H

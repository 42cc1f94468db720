// Unit tests for the solver preprocessing layer: union-find collapse of
// Eq constraints, forced-boolean elimination, triple deduplication,
// early conflict detection, and the connected-component decomposition.
//
// The production solver only ever simplifies groups of emission shards
// (solver::simplifyGroup). The references it is checked against live
// here: a whole-system simplify(), splitComponents (component discovery
// from scratch) and materializeShard (one shard as a standalone system).

#include "constraints/ConstraintSystem.h"
#include "solver/Simplify.h"
#include "solver/Solver.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace afl;
using namespace afl::constraints;
using namespace afl::solver;

namespace {

/// The preprocessing pass over a whole system (which is not modified).
SimplifiedSystem simplify(const ConstraintSystem &Sys) {
  return simplifyConstraints(Sys.numBoolVars(), Sys.StateDom, Sys.Cons);
}

/// One connected component, as a self-contained system over local ids.
struct Component {
  ConstraintSystem Sys;
  /// Local state/bool variable id -> id in the source system.
  std::vector<StateVarId> StateGlobal;
  std::vector<BoolVarId> BoolGlobal;
};

struct ComponentSplit {
  std::vector<Component> Comps;
  /// Constraint count of the largest component.
  size_t LargestConstraints = 0;
};

/// Plain union-find (no domain bookkeeping).
class UnionFind {
public:
  explicit UnionFind(size_t N) : Parent(N), Rank(N, 0) {
    for (uint32_t I = 0; I != N; ++I)
      Parent[I] = I;
  }
  uint32_t find(uint32_t V) {
    while (Parent[V] != V) {
      Parent[V] = Parent[Parent[V]];
      V = Parent[V];
    }
    return V;
  }
  void merge(uint32_t A, uint32_t B) {
    A = find(A);
    B = find(B);
    if (A == B)
      return;
    if (Rank[A] < Rank[B])
      std::swap(A, B);
    if (Rank[A] == Rank[B])
      ++Rank[A];
    Parent[B] = A;
  }

private:
  std::vector<uint32_t> Parent;
  std::vector<uint8_t> Rank;
};

/// Splits \p Sys into connected components from scratch. Two variables
/// are connected when some constraint mentions both; a triple also
/// connects its boolean to both states. Variables that occur in no
/// constraint belong to no component. Components are numbered in
/// ascending order of their smallest member and local ids ascend in
/// global-id order — the order the emission-time shard index promises.
ComponentSplit splitComponents(const ConstraintSystem &Sys) {
  ComponentSplit Out;
  const size_t NS = Sys.numStateVars();
  const size_t NB = Sys.numBoolVars();

  // States are [0, NS); booleans live at NS + b.
  UnionFind UF(NS + NB);
  for (const Constraint &C : Sys.Cons) {
    UF.merge(C.S1, C.S2);
    if (C.K != Constraint::Kind::Eq)
      UF.merge(C.S1, static_cast<uint32_t>(NS) + C.B);
  }

  constexpr uint32_t None = ~0u;
  std::vector<uint32_t> CompOf(NS + NB, None);
  auto CompFor = [&](uint32_t V) -> uint32_t {
    uint32_t Root = UF.find(V);
    if (CompOf[Root] == None) {
      CompOf[Root] = static_cast<uint32_t>(Out.Comps.size());
      Out.Comps.emplace_back();
      Out.Comps.back().Sys.disableConnectivityTracking();
    }
    return CompOf[Root];
  };
  std::vector<bool> Occurs(NS + NB, false);
  for (const Constraint &C : Sys.Cons) {
    Occurs[C.S1] = Occurs[C.S2] = true;
    if (C.K != Constraint::Kind::Eq)
      Occurs[NS + C.B] = true;
  }

  std::vector<uint32_t> LocalId(NS + NB, None);
  for (uint32_t V = 0; V != NS; ++V) {
    if (!Occurs[V])
      continue;
    Component &Comp = Out.Comps[CompFor(V)];
    LocalId[V] = Comp.Sys.newState(Sys.StateDom[V]);
    Comp.StateGlobal.push_back(V);
  }
  for (uint32_t B = 0; B != NB; ++B) {
    if (!Occurs[NS + B])
      continue;
    Component &Comp = Out.Comps[CompFor(static_cast<uint32_t>(NS) + B)];
    LocalId[NS + B] = Comp.Sys.newBool(Sys.BoolDom.get(B));
    Comp.BoolGlobal.push_back(B);
  }

  // Constraints keep their relative order within each component.
  for (const Constraint &C : Sys.Cons) {
    Component &Comp = Out.Comps[CompOf[UF.find(C.S1)]];
    uint32_t L1 = LocalId[C.S1], L2 = LocalId[C.S2];
    switch (C.K) {
    case Constraint::Kind::Eq:
      Comp.Sys.addEq(L1, L2);
      break;
    case Constraint::Kind::AllocTriple:
      Comp.Sys.addAllocTriple(L1, LocalId[NS + C.B], L2);
      break;
    case Constraint::Kind::DeallocTriple:
      Comp.Sys.addDeallocTriple(L1, LocalId[NS + C.B], L2);
      break;
    }
  }

  for (const Component &Comp : Out.Comps)
    Out.LargestConstraints =
        std::max(Out.LargestConstraints, Comp.Sys.numConstraints());
  return Out;
}

/// Shard \p K of a pre-sharded system as a self-contained component: a
/// pure gather over the CSR shard index, equivalent to the corresponding
/// splitComponents entry.
Component materializeShard(const ConstraintSystem &Sys, uint32_t K,
                           const ShardLocalIds &Ids) {
  Component Comp;
  Comp.Sys.disableConnectivityTracking();
  for (uint32_t S : Sys.shardStates(K)) {
    Comp.Sys.newState(Sys.StateDom[S]);
    Comp.StateGlobal.push_back(S);
  }
  for (uint32_t B : Sys.shardBools(K)) {
    Comp.Sys.newBool(Sys.BoolDom.get(B));
    Comp.BoolGlobal.push_back(B);
  }
  for (uint32_t CI : Sys.shardConstraints(K)) {
    const Constraint &C = Sys.Cons[CI];
    uint32_t L1 = Ids.State[C.S1], L2 = Ids.State[C.S2];
    switch (C.K) {
    case Constraint::Kind::Eq:
      Comp.Sys.addEq(L1, L2);
      break;
    case Constraint::Kind::AllocTriple:
      Comp.Sys.addAllocTriple(L1, Ids.Bool[C.B], L2);
      break;
    case Constraint::Kind::DeallocTriple:
      Comp.Sys.addDeallocTriple(L1, Ids.Bool[C.B], L2);
      break;
    }
  }
  return Comp;
}

TEST(Simplify, UnionFindCollapsesEqChains) {
  ConstraintSystem Sys;
  StateVarId S1 = Sys.newState(StA);
  StateVarId S2 = Sys.newState();
  StateVarId S3 = Sys.newState();
  Sys.addEq(S1, S2);
  Sys.addEq(S2, S3);
  SimplifiedSystem Simp = simplify(Sys);
  ASSERT_FALSE(Simp.Conflict);
  EXPECT_EQ(Simp.Stats.EqRemoved, 2u);
  EXPECT_EQ(Simp.Stats.StateVarsBefore, 3u);
  EXPECT_EQ(Simp.Stats.StateVarsAfter, 1u);
  EXPECT_EQ(Simp.Residual.numConstraints(), 0u);
  // All three map to the same representative, whose domain is the
  // intersection of the member domains.
  EXPECT_EQ(Simp.StateRep[S1], Simp.StateRep[S2]);
  EXPECT_EQ(Simp.StateRep[S2], Simp.StateRep[S3]);
  EXPECT_EQ(Simp.Residual.StateDom[Simp.StateRep[S1]], StA);
}

TEST(Simplify, EqRemovedToZeroAlways) {
  // The headline invariant: no Eq constraint survives simplification.
  ConstraintSystem Sys;
  StateVarId Prev = Sys.newState(StU);
  for (int I = 0; I != 50; ++I) {
    StateVarId Next = Sys.newState();
    if (I % 2) {
      Sys.addEq(Prev, Next);
    } else {
      BoolVarId B = Sys.newBool();
      Sys.addAllocTriple(Prev, B, Next);
    }
    Prev = Next;
  }
  SimplifiedSystem Simp = simplify(Sys);
  ASSERT_FALSE(Simp.Conflict);
  EXPECT_EQ(Simp.Residual.numConstraintsOfKind(Constraint::Kind::Eq), 0u);
  EXPECT_EQ(Simp.Stats.EqRemoved, 25u);
}

TEST(Simplify, EqConflictDetectedEarly) {
  ConstraintSystem Sys;
  StateVarId S1 = Sys.newState(StA);
  StateVarId S2 = Sys.newState(StD);
  Sys.addEq(S1, S2);
  SimplifiedSystem Simp = simplify(Sys);
  EXPECT_TRUE(Simp.Conflict);
  SolveResult R = solve(Sys);
  EXPECT_FALSE(R.Sat);
}

TEST(Simplify, EmptyInitialDomainIsConflict) {
  // Regression: restrictState can zero a domain on a variable that
  // occurs in no constraint; the solver must notice.
  ConstraintSystem Sys;
  StateVarId S = Sys.newState();
  Sys.restrictState(S, StA);
  Sys.restrictState(S, StD); // A & D = empty
  SimplifiedSystem Simp = simplify(Sys);
  EXPECT_TRUE(Simp.Conflict);
}

TEST(Simplify, DedupIdenticalTriples) {
  // Two contexts generating the same triple over Eq-linked states
  // collapse to one residual triple.
  ConstraintSystem Sys;
  StateVarId A1 = Sys.newState();
  StateVarId A2 = Sys.newState();
  StateVarId B1 = Sys.newState();
  StateVarId B2 = Sys.newState();
  BoolVarId B = Sys.newBool();
  Sys.addEq(A1, A2);
  Sys.addEq(B1, B2);
  Sys.addAllocTriple(A1, B, B1);
  Sys.addAllocTriple(A2, B, B2);
  SimplifiedSystem Simp = simplify(Sys);
  ASSERT_FALSE(Simp.Conflict);
  EXPECT_EQ(Simp.Stats.DupTriplesRemoved, 1u);
  EXPECT_EQ(Simp.Residual.numConstraints(), 1u);
}

TEST(Simplify, ForcedTrueTripleEliminated) {
  // Disjoint endpoint domains force the boolean true; the triple is
  // applied (domains restricted to the transition states) and dropped.
  ConstraintSystem Sys;
  StateVarId S1 = Sys.newState(StU);
  StateVarId S2 = Sys.newState(StA);
  BoolVarId B = Sys.newBool();
  Sys.addAllocTriple(S1, B, S2);
  SimplifiedSystem Simp = simplify(Sys);
  ASSERT_FALSE(Simp.Conflict);
  EXPECT_EQ(Simp.Stats.BoolsForced, 1u);
  EXPECT_EQ(Simp.Stats.ForcedTriplesRemoved, 1u);
  EXPECT_EQ(Simp.Residual.numConstraints(), 0u);
  EXPECT_EQ(Simp.Residual.BoolDom[B], BTrue);
  SolveResult R = solve(Sys);
  ASSERT_TRUE(R.Sat);
  EXPECT_TRUE(R.boolValue(B));
}

TEST(Simplify, SameRepresentativeTripleForcesFalse) {
  // An allocation triple whose endpoints are Eq-linked cannot fire (the
  // U->A transition cannot happen on one variable).
  ConstraintSystem Sys;
  StateVarId S1 = Sys.newState();
  StateVarId S2 = Sys.newState();
  BoolVarId B = Sys.newBool();
  Sys.addEq(S1, S2);
  Sys.addAllocTriple(S1, B, S2);
  SimplifiedSystem Simp = simplify(Sys);
  ASSERT_FALSE(Simp.Conflict);
  EXPECT_EQ(Simp.Residual.BoolDom[B], BFalse);
  EXPECT_EQ(Simp.Residual.numConstraints(), 0u);
  SolveResult R = solve(Sys);
  ASSERT_TRUE(R.Sat);
  EXPECT_FALSE(R.boolValue(B));
}

TEST(Simplify, ForcedFalseCascadesIntoUnion) {
  // A pre-state that can never be U forces the alloc boolean false,
  // which turns the triple into an equality — merging the endpoints and
  // intersecting their domains.
  ConstraintSystem Sys;
  StateVarId S1 = Sys.newState(StA);
  StateVarId S2 = Sys.newState(static_cast<uint8_t>(StA | StD));
  BoolVarId B = Sys.newBool();
  Sys.addAllocTriple(S1, B, S2);
  SimplifiedSystem Simp = simplify(Sys);
  ASSERT_FALSE(Simp.Conflict);
  EXPECT_EQ(Simp.StateRep[S1], Simp.StateRep[S2]);
  EXPECT_EQ(Simp.Residual.StateDom[Simp.StateRep[S1]], StA);
  EXPECT_EQ(Simp.Residual.BoolDom[B], BFalse);
}

TEST(Components, IndependentChainsSplit) {
  // Two disjoint alloc chains land in two components; a shared boolean
  // would merge them.
  ConstraintSystem Sys;
  StateVarId A1 = Sys.newState(StU);
  StateVarId A2 = Sys.newState(StAny);
  BoolVarId BA = Sys.newBool();
  Sys.addAllocTriple(A1, BA, A2);
  StateVarId B1 = Sys.newState(StA);
  StateVarId B2 = Sys.newState(StAny);
  BoolVarId BB = Sys.newBool();
  Sys.addDeallocTriple(B1, BB, B2);
  ComponentSplit Split = splitComponents(Sys);
  ASSERT_EQ(Split.Comps.size(), 2u);
  EXPECT_EQ(Split.Comps[0].Sys.numConstraints(), 1u);
  EXPECT_EQ(Split.Comps[1].Sys.numConstraints(), 1u);
  EXPECT_EQ(Split.LargestConstraints, 1u);
}

TEST(Components, SharedBooleanMergesComponents) {
  ConstraintSystem Sys;
  StateVarId A1 = Sys.newState();
  StateVarId A2 = Sys.newState();
  StateVarId B1 = Sys.newState();
  StateVarId B2 = Sys.newState();
  BoolVarId B = Sys.newBool();
  Sys.addAllocTriple(A1, B, A2);
  Sys.addAllocTriple(B1, B, B2);
  ComponentSplit Split = splitComponents(Sys);
  EXPECT_EQ(Split.Comps.size(), 1u);
}

TEST(Components, UnconstrainedVariablesBelongToNoComponent) {
  ConstraintSystem Sys;
  Sys.newState(StA); // never mentioned by a constraint
  StateVarId S1 = Sys.newState();
  StateVarId S2 = Sys.newState();
  BoolVarId B = Sys.newBool();
  Sys.newBool(); // unconstrained boolean
  Sys.addAllocTriple(S1, B, S2);
  ComponentSplit Split = splitComponents(Sys);
  ASSERT_EQ(Split.Comps.size(), 1u);
  EXPECT_EQ(Split.Comps[0].StateGlobal.size(), 2u);
  EXPECT_EQ(Split.Comps[0].BoolGlobal.size(), 1u);
}

TEST(Components, SingleComponentFallback) {
  // A single-component system: the sharded path solves it as one shard
  // and produces the same answer as the raw oracle.
  ConstraintSystem Sys;
  StateVarId Prev = Sys.newState(StU);
  std::vector<BoolVarId> Bs;
  for (int I = 0; I != 20; ++I) {
    StateVarId Next = Sys.newState();
    BoolVarId B = Sys.newBool();
    Sys.addAllocTriple(Prev, B, Next);
    Bs.push_back(B);
    Prev = Next;
  }
  Sys.restrictState(Prev, StA);
  SolveOptions Raw;
  Raw.Simplify = false;
  SolveResult RRaw = solve(Sys, Raw);
  SolveResult RDef = solve(Sys);
  ASSERT_TRUE(RDef.Sat);
  EXPECT_EQ(RDef.Simplify.Components, 1u);
  EXPECT_EQ(RDef.StateDom, RRaw.StateDom);
  EXPECT_EQ(RDef.BoolDom, RRaw.BoolDom);
  // Exactly one (late) allocation either way.
  EXPECT_TRUE(RDef.BoolDom[Bs.back()] == BTrue);
}

/// A small multi-shard fixture: N disjoint alloc chains, each pinned to
/// end in A so the solve is forced to pick the late allocation.
ConstraintSystem chainsSystem(int Chains, int Len) {
  ConstraintSystem Sys;
  for (int Chain = 0; Chain != Chains; ++Chain) {
    StateVarId Prev = Sys.newState(StU);
    for (int I = 0; I != Len; ++I) {
      StateVarId Next = Sys.newState();
      BoolVarId B = Sys.newBool();
      if (I % 3 == 2)
        Sys.addEq(Prev, Next);
      else
        Sys.addAllocTriple(Prev, B, Next);
      Prev = Next;
    }
    Sys.restrictState(Prev, StA);
  }
  return Sys;
}

void expectSameConstraint(const Constraint &A, const Constraint &B) {
  EXPECT_EQ(A.K, B.K);
  EXPECT_EQ(A.S1, B.S1);
  EXPECT_EQ(A.S2, B.S2);
  EXPECT_EQ(A.B, B.B);
}

TEST(Shards, EmissionShardsMatchSplitComponents) {
  // The emission-time union-find must finalize into exactly the
  // components splitComponents discovers, in the same deterministic
  // order (ascending smallest state variable) with the same ascending
  // member lists.
  ConstraintSystem Sys = chainsSystem(7, 9);
  ComponentSplit Split = splitComponents(Sys);
  ASSERT_EQ(Sys.numShards(), Split.Comps.size());
  for (uint32_t K = 0; K != Sys.numShards(); ++K) {
    const Component &C = Split.Comps[K];
    ConstraintSystem::OccRange States = Sys.shardStates(K);
    ConstraintSystem::OccRange Bools = Sys.shardBools(K);
    ASSERT_EQ(States.size(), C.StateGlobal.size());
    ASSERT_EQ(Bools.size(), C.BoolGlobal.size());
    EXPECT_TRUE(std::equal(States.begin(), States.end(),
                           C.StateGlobal.begin()));
    EXPECT_TRUE(std::equal(Bools.begin(), Bools.end(),
                           C.BoolGlobal.begin()));
    EXPECT_EQ(Sys.shardConstraints(K).size(), C.Sys.numConstraints());
  }
  EXPECT_EQ(Sys.largestShardConstraints(), Split.LargestConstraints);
}

TEST(Shards, UntrackedRebuildMatchesIncremental) {
  // disableConnectivityTracking() skips the per-constraint union-find;
  // ensureShards then rebuilds it in one batch pass. Both routes must
  // produce identical CSR tables.
  ConstraintSystem Tracked = chainsSystem(5, 8);
  ConstraintSystem Scratch = chainsSystem(5, 8);
  Scratch.disableConnectivityTracking();
  ASSERT_EQ(Tracked.numShards(), Scratch.numShards());
  for (uint32_t K = 0; K != Tracked.numShards(); ++K) {
    ConstraintSystem::OccRange A = Tracked.shardStates(K);
    ConstraintSystem::OccRange B = Scratch.shardStates(K);
    ASSERT_EQ(A.size(), B.size());
    EXPECT_TRUE(std::equal(A.begin(), A.end(), B.begin()));
    ConstraintSystem::OccRange CA = Tracked.shardConstraints(K);
    ConstraintSystem::OccRange CB = Scratch.shardConstraints(K);
    ASSERT_EQ(CA.size(), CB.size());
    EXPECT_TRUE(std::equal(CA.begin(), CA.end(), CB.begin()));
  }
}

TEST(Shards, SharedBooleanMergesShards) {
  // Same topology as Components.SharedBooleanMergesComponents, observed
  // through the emission-time index.
  ConstraintSystem Sys;
  StateVarId A1 = Sys.newState();
  StateVarId A2 = Sys.newState();
  StateVarId B1 = Sys.newState();
  StateVarId B2 = Sys.newState();
  BoolVarId B = Sys.newBool();
  Sys.addAllocTriple(A1, B, A2);
  Sys.addAllocTriple(B1, B, B2);
  EXPECT_EQ(Sys.numShards(), 1u);
  EXPECT_EQ(Sys.shardStates(0).size(), 4u);
  EXPECT_EQ(Sys.shardBools(0).size(), 1u);
}

TEST(Shards, SelfTripleFormsSingletonShard) {
  // Degenerate triple S -B-> S: only one state variable is involved, so
  // no merge happens, but S is constrained and must still surface as a
  // (singleton) shard holding the boolean.
  ConstraintSystem Sys;
  Sys.newState(); // unconstrained; belongs to no shard
  StateVarId S = Sys.newState();
  BoolVarId B = Sys.newBool();
  Sys.addAllocTriple(S, B, S);
  ASSERT_EQ(Sys.numShards(), 1u);
  ASSERT_EQ(Sys.shardStates(0).size(), 1u);
  EXPECT_EQ(*Sys.shardStates(0).begin(), S);
  ASSERT_EQ(Sys.shardBools(0).size(), 1u);
  EXPECT_EQ(*Sys.shardBools(0).begin(), B);
  EXPECT_EQ(Sys.shardConstraints(0).size(), 1u);
}

TEST(Shards, SimplifyShardMatchesMaterializedSimplify) {
  // simplifyGroup consumes the CSR index in place; on a one-shard group
  // its contract is bit-identical output to simplify() over the
  // materialized component.
  ConstraintSystem Sys = chainsSystem(6, 7);
  ShardLocalIds Ids = buildShardLocalIds(Sys);
  for (uint32_t K = 0; K != Sys.numShards(); ++K) {
    SimplifiedSystem Direct = simplifyGroup(Sys, {&K, 1}, Ids);
    SimplifiedSystem Mat = simplify(materializeShard(Sys, K, Ids).Sys);
    ASSERT_EQ(Direct.Conflict, Mat.Conflict);
    ASSERT_EQ(Direct.Residual.numConstraints(), Mat.Residual.numConstraints());
    for (size_t I = 0; I != Direct.Residual.Cons.size(); ++I)
      expectSameConstraint(Direct.Residual.Cons[I], Mat.Residual.Cons[I]);
    EXPECT_EQ(Direct.Residual.StateDom, Mat.Residual.StateDom);
    EXPECT_EQ(Direct.Residual.BoolDom, Mat.Residual.BoolDom);
    EXPECT_EQ(Direct.StateRep, Mat.StateRep);
  }
}

TEST(Shards, SimplifyShardRangeIsConcatenation) {
  // A group of shards — every shard, or any ascending subset, which is
  // what the solver groups when a cache answers the shards in between —
  // simplifies to the exact concatenation of the members' individual
  // simplifications: residual constraints in member order with
  // representative ids offset by the preceding members' representative
  // counts, and boolean ids offset by the preceding members'
  // shard-local boolean counts.
  ConstraintSystem Sys = chainsSystem(6, 7);
  ShardLocalIds Ids = buildShardLocalIds(Sys);
  const uint32_t N = static_cast<uint32_t>(Sys.numShards());
  ASSERT_GT(N, 5u);
  const std::vector<uint32_t> All{0, 1, 2, 3, 4, 5};
  const std::vector<uint32_t> Gappy{0, 2, 3, 5};
  for (const std::vector<uint32_t> &Group : {All, Gappy}) {
    SimplifiedSystem Whole = simplifyGroup(Sys, Group, Ids);
    ASSERT_FALSE(Whole.Conflict);
    size_t ConsAt = 0, RepOff = 0, BoolOff = 0;
    for (uint32_t K : Group) {
      SimplifiedSystem Part = simplifyGroup(Sys, {&K, 1}, Ids);
      ASSERT_FALSE(Part.Conflict);
      ASSERT_LE(ConsAt + Part.Residual.Cons.size(),
                Whole.Residual.Cons.size());
      for (const Constraint &C : Part.Residual.Cons) {
        Constraint Shifted = C;
        Shifted.S1 += static_cast<StateVarId>(RepOff);
        Shifted.S2 += static_cast<StateVarId>(RepOff);
        Shifted.B += static_cast<BoolVarId>(BoolOff);
        expectSameConstraint(Whole.Residual.Cons[ConsAt++], Shifted);
      }
      RepOff += Part.Residual.numStateVars();
      BoolOff += Sys.shardBools(K).size();
    }
    EXPECT_EQ(ConsAt, Whole.Residual.Cons.size());
    EXPECT_EQ(RepOff, Whole.Residual.numStateVars());
  }
}

TEST(Components, ParallelMultiComponentMatchesSequential) {
  // Many independent chains, 2080 constraints in all: above the fan-out
  // threshold, so on a multi-core host the shard groups are solved in
  // parallel. Compare against the sequential raw solve.
  ConstraintSystem Sys;
  for (int Chain = 0; Chain != 16; ++Chain) {
    StateVarId Prev = Sys.newState(StU);
    for (int I = 0; I != 130; ++I) {
      StateVarId Next = Sys.newState();
      BoolVarId B = Sys.newBool();
      Sys.addAllocTriple(Prev, B, Next);
      Prev = Next;
    }
    Sys.restrictState(Prev, StA);
  }
  SolveOptions Raw;
  Raw.Simplify = false;
  SolveResult RPar = solve(Sys);
  SolveResult RRaw = solve(Sys, Raw);
  ASSERT_TRUE(RPar.Sat);
  ASSERT_TRUE(RRaw.Sat);
  EXPECT_EQ(RPar.Simplify.Components, 16u);
  if (ThreadPool::hardwareThreads() > 1) {
    EXPECT_GT(RPar.Simplify.ThreadsUsed, 1u);
  }
  EXPECT_EQ(RPar.StateDom, RRaw.StateDom);
  EXPECT_EQ(RPar.BoolDom, RRaw.BoolDom);
}

} // namespace

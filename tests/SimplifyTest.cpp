// Unit tests for the solver preprocessing layer: union-find collapse of
// Eq constraints, forced-boolean elimination, triple deduplication,
// early conflict detection, and the connected-component decomposition.

#include "constraints/ConstraintSystem.h"
#include "solver/Components.h"
#include "solver/Simplify.h"
#include "solver/Solver.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

using namespace afl;
using namespace afl::constraints;
using namespace afl::solver;

namespace {

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
  // simplifyShard consumes the CSR index in place; its contract is
  // bit-identical output to simplify() over the materialized component.
  ConstraintSystem Sys = chainsSystem(6, 7);
  ShardLocalIds Ids = buildShardLocalIds(Sys);
  for (uint32_t K = 0; K != Sys.numShards(); ++K) {
    SimplifiedSystem Direct = simplifyShard(Sys, K, Ids);
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
  // A contiguous range of shards simplifies to the exact concatenation
  // of the members' individual simplifications: residual constraints in
  // member order with representative ids offset by the preceding
  // members' representative counts, and boolean ids offset by the
  // preceding members' shard-local boolean counts.
  ConstraintSystem Sys = chainsSystem(6, 7);
  ShardLocalIds Ids = buildShardLocalIds(Sys);
  const uint32_t N = static_cast<uint32_t>(Sys.numShards());
  ASSERT_GT(N, 2u);
  SimplifiedSystem Whole = simplifyShardRange(Sys, 0, N, Ids);
  ASSERT_FALSE(Whole.Conflict);
  size_t ConsAt = 0, RepOff = 0, BoolOff = 0;
  for (uint32_t K = 0; K != N; ++K) {
    SimplifiedSystem Part = simplifyShard(Sys, K, Ids);
    ASSERT_FALSE(Part.Conflict);
    ASSERT_LE(ConsAt + Part.Residual.Cons.size(), Whole.Residual.Cons.size());
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

#include "solver/Components.h"

#include <algorithm>

using namespace afl;
using namespace afl::solver;
using namespace afl::constraints;

namespace {

/// Plain union-find (no domain bookkeeping — the simplifier already did
/// that part).
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

} // namespace

ComponentSplit solver::splitComponents(const ConstraintSystem &Sys) {
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

  // Only variables that occur in constraints form components; number the
  // components in ascending order of their smallest member so the split
  // is deterministic.
  constexpr uint32_t None = ~0u;
  std::vector<uint32_t> CompOf(NS + NB, None);
  auto CompFor = [&](uint32_t V) -> uint32_t {
    uint32_t Root = UF.find(V);
    if (CompOf[Root] == None) {
      CompOf[Root] = static_cast<uint32_t>(Out.Comps.size());
      Out.Comps.emplace_back();
      // Components are standalone systems, never re-sharded.
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

  // Local ids ascend in global-id order: the per-component solver's
  // default-false boolean sweep then visits booleans in the same
  // relative order as the whole-system solver's.
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

ShardLocalIds solver::buildShardLocalIds(const ConstraintSystem &Sys) {
  ShardLocalIds Ids;
  Ids.State.assign(Sys.numStateVars(), ~0u);
  Ids.Bool.assign(Sys.numBoolVars(), ~0u);
  const size_t NumShards = Sys.numShards();
  for (uint32_t K = 0; K != NumShards; ++K) {
    const auto States = Sys.shardStates(K);
    uint32_t L = 0;
    for (uint32_t S : States)
      Ids.State[S] = L++;
    Ids.NumShardedStates += States.size();
    const auto Bools = Sys.shardBools(K);
    L = 0;
    for (uint32_t B : Bools)
      Ids.Bool[B] = L++;
  }
  return Ids;
}

Component solver::materializeShard(const ConstraintSystem &Sys, uint32_t K,
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
  // Shard constraint lists keep emission order, so the materialized
  // component's constraint order matches splitComponents' output.
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

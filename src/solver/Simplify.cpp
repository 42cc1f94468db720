#include "solver/Simplify.h"

#include <algorithm>
#include <cassert>

using namespace afl;
using namespace afl::solver;
using namespace afl::constraints;

void SimplifyStats::accumulate(const SimplifyStats &Other) {
  StateVarsBefore += Other.StateVarsBefore;
  StateVarsAfter += Other.StateVarsAfter;
  ConstraintsBefore += Other.ConstraintsBefore;
  ConstraintsAfter += Other.ConstraintsAfter;
  EqRemoved += Other.EqRemoved;
  DupTriplesRemoved += Other.DupTriplesRemoved;
  ForcedTriplesRemoved += Other.ForcedTriplesRemoved;
  BoolsForced += Other.BoolsForced;
  Components += Other.Components;
  LargestComponent = std::max(LargestComponent, Other.LargestComponent);
  ThreadsUsed = std::max(ThreadsUsed, Other.ThreadsUsed);
  SimplifySeconds += Other.SimplifySeconds;
  ComponentSeconds += Other.ComponentSeconds;
  ReconstructSeconds += Other.ReconstructSeconds;
}

SimplifiedSystem solver::simplifyConstraints(size_t NB,
                                             support::StateDomains Dom,
                                             std::vector<Constraint> T) {
  const size_t NS = Dom.size();
  SimplifiedSystem Out;
  Out.Stats.StateVarsBefore = NS;
  Out.Stats.ConstraintsBefore = T.size();
  // The residual is solver-internal: solved directly, never sharded, so
  // emission-time connectivity tracking would be pure overhead.
  Out.Residual.disableConnectivityTracking();

  // An empty *initial* domain is a conflict even if the variable occurs
  // in no constraint (restrictState can zero a domain the propagator
  // never visits). Word-at-a-time over the packed lanes.
  if (Dom.hasZeroEntry()) {
    Out.Conflict = true;
    return Out;
  }

  // Union-find over the state variables. Each root carries the class
  // domain (the intersection of the members' initial domains) and, in
  // phase 2, the list of triples touching the class.
  std::vector<uint32_t> Parent(NS);
  for (uint32_t I = 0; I != Parent.size(); ++I)
    Parent[I] = I;
  auto Find = [&Parent](uint32_t V) {
    while (Parent[V] != V) {
      Parent[V] = Parent[Parent[V]];
      V = Parent[V];
    }
    return V;
  };

  // Phase 1: collapse every Eq constraint; compact the triples, in
  // order, to the front of T.
  size_t NumTriples = 0;
  for (const Constraint &C : T) {
    if (C.K != Constraint::Kind::Eq) {
      T[NumTriples++] = C;
      continue;
    }
    ++Out.Stats.EqRemoved;
    uint32_t A = Find(C.S1), B = Find(C.S2);
    if (A == B)
      continue;
    Parent[B] = A;
    uint8_t Merged = Dom.get(A) & Dom.get(B);
    Dom.set(A, Merged);
    if (Merged == 0) {
      Out.Conflict = true;
      return Out;
    }
  }
  T.resize(NumTriples);

  // Phase 2: apply forced booleans to a fixpoint, worklist-driven. A
  // triple is (re)examined when one of its endpoint classes merges or
  // shrinks, or its boolean is forced. Classes keep their incident
  // triple lists — array-backed linked lists over a fixed node pool, so
  // a class merge concatenates in O(1) with no allocation — merged
  // small-into-large, making the whole phase near-linear. A
  // forced-false triple is an equality (fed back into the union-find,
  // so collapses cascade).
  const size_t NT = T.size();
  // Byte flags, not vector<bool>: both are touched per worklist pop.
  std::vector<uint8_t> Alive(NT, 1), InQ(NT, 0);
  std::vector<uint32_t> Queue;
  Queue.reserve(NT);
  size_t QHead = 0;
  auto Enqueue = [&](uint32_t TI) {
    if (Alive[TI] && !InQ[TI]) {
      InQ[TI] = 1;
      Queue.push_back(TI);
    }
  };

  constexpr uint32_t None = ~0u;

  // Boolean -> incident triples, CSR-shaped in ascending triple order
  // (the order the occurrence index would report).
  std::vector<uint32_t> BoolStart(NB + 1, 0);
  for (const Constraint &C : T)
    ++BoolStart[C.B + 1];
  for (size_t I = 1; I < BoolStart.size(); ++I)
    BoolStart[I] += BoolStart[I - 1];
  std::vector<uint32_t> BoolTriples(NT);
  {
    std::vector<uint32_t> Cur(BoolStart.begin(), BoolStart.end() - 1);
    for (uint32_t TI = 0; TI != NT; ++TI)
      BoolTriples[Cur[T[TI].B]++] = TI;
  }

  // Per-root incident triple lists (post-Eq roots): Head/Tail/Count per
  // root, nodes preallocated (at most two incidences per triple).
  std::vector<uint32_t> Head(NS, None);
  std::vector<uint32_t> Tail(NS, None);
  std::vector<uint32_t> Count(NS, 0);
  std::vector<uint32_t> NodeTriple, NodeNext;
  NodeTriple.reserve(2 * NT);
  NodeNext.reserve(2 * NT);
  auto AddIncidence = [&](uint32_t R, uint32_t TI) {
    uint32_t N = static_cast<uint32_t>(NodeTriple.size());
    NodeTriple.push_back(TI);
    NodeNext.push_back(Head[R]);
    Head[R] = N;
    if (Tail[R] == None)
      Tail[R] = N;
    ++Count[R];
  };
  for (uint32_t TI = 0; TI != NT; ++TI) {
    const Constraint &C = T[TI];
    uint32_t R1 = Find(C.S1), R2 = Find(C.S2);
    AddIncidence(R1, TI);
    if (R2 != R1)
      AddIncidence(R2, TI);
  }
  auto EnqueueClass = [&](uint32_t R) {
    for (uint32_t N = Head[R]; N != None; N = NodeNext[N])
      Enqueue(NodeTriple[N]);
  };

  bool Conflict = false;
  // Merges B's class into A's (or vice versa — the larger incident list
  // wins). Enqueues the absorbed side's triples (their root identity
  // changed) and, when the surviving domain shrank, the surviving
  // side's too.
  auto Merge = [&](uint32_t A, uint32_t B) {
    A = Find(A);
    B = Find(B);
    if (A == B)
      return;
    if (Count[A] < Count[B])
      std::swap(A, B);
    Parent[B] = A;
    uint8_t NewDom = Dom.get(A) & Dom.get(B);
    if (NewDom != Dom.get(A))
      EnqueueClass(A);
    EnqueueClass(B);
    Dom.set(A, NewDom);
    if (NewDom == 0) {
      Conflict = true;
      return;
    }
    if (Head[B] != None) {
      if (Head[A] == None) {
        Head[A] = Head[B];
      } else {
        NodeNext[Tail[A]] = Head[B];
      }
      Tail[A] = Tail[B];
      Count[A] += Count[B];
      Head[B] = Tail[B] = None;
      Count[B] = 0;
    }
  };
  auto Restrict = [&](uint32_t R, uint8_t Mask) {
    R = Find(R);
    uint8_t NewDom = Dom.get(R) & Mask;
    if (NewDom == Dom.get(R))
      return;
    Dom.set(R, NewDom);
    if (NewDom == 0) {
      Conflict = true;
      return;
    }
    EnqueueClass(R);
  };

  support::BoolDomains BD(NB, BAny);
  auto ForceBool = [&](BoolVarId B, uint8_t Value) {
    assert(BD.get(B) == BAny);
    BD.set(B, Value);
    ++Out.Stats.BoolsForced;
    for (uint32_t I = BoolStart[B]; I != BoolStart[B + 1]; ++I)
      Enqueue(BoolTriples[I]);
  };

  for (uint32_t TI = 0; TI != NT; ++TI)
    Enqueue(TI);
  while (QHead != Queue.size() && !Conflict) {
    uint32_t TI = Queue[QHead++];
    InQ[TI] = false;
    if (!Alive[TI])
      continue;
    const Constraint &C = T[TI];
    const bool IsAlloc = C.K == Constraint::Kind::AllocTriple;
    const uint8_t From = IsAlloc ? StU : StA;
    const uint8_t To = IsAlloc ? StA : StD;
    uint32_t R1 = Find(C.S1), R2 = Find(C.S2);
    if (BD.get(C.B) == BTrue) {
      // Checked before the R1 == R2 case: a true boolean on a
      // same-representative triple empties the domain below (From and
      // To are disjoint), which is the correct conflict.
      Alive[TI] = false;
      ++Out.Stats.ForcedTriplesRemoved;
      Restrict(R1, From);
      if (!Conflict)
        Restrict(R2, To);
      continue;
    }
    if (BD.get(C.B) == BFalse || R1 == R2) {
      // ¬b → s1 = s2. With s1 and s2 already one variable the
      // transition is impossible, so b is false either way.
      Alive[TI] = false;
      ++Out.Stats.ForcedTriplesRemoved;
      if (BD.get(C.B) == BAny)
        ForceBool(C.B, BFalse);
      Merge(R1, R2);
      continue;
    }
    uint8_t D1 = Dom.get(R1), D2 = Dom.get(R2);
    if (!(D1 & From) || !(D2 & To)) {
      // The transition states are unreachable: b must be false.
      Alive[TI] = false;
      ++Out.Stats.ForcedTriplesRemoved;
      ForceBool(C.B, BFalse);
      Merge(R1, R2);
      continue;
    }
    if ((D1 & D2) == 0) {
      // s1 = s2 is impossible: b must be true.
      Alive[TI] = false;
      ++Out.Stats.ForcedTriplesRemoved;
      ForceBool(C.B, BTrue);
      Restrict(R1, From);
      if (!Conflict)
        Restrict(R2, To);
      continue;
    }
  }
  if (Conflict) {
    Out.Conflict = true;
    return Out;
  }

  // Phase 3: number the representatives (ascending order of the
  // smallest class member, so relative variable order is preserved) and
  // record the original -> representative mapping.
  std::vector<uint32_t> RepId(NS, None);
  Out.StateRep.resize(NS);
  ConstraintSystem &Res = Out.Residual;
  for (uint32_t V = 0; V != NS; ++V) {
    uint32_t Root = Find(V);
    if (RepId[Root] == None)
      RepId[Root] = Res.newState(Dom.get(Root));
    Out.StateRep[V] = RepId[Root];
  }

  // Boolean ids survive unchanged; forced values become singleton
  // initial domains.
  Res.BoolDom = std::move(BD);

  // Phase 4: emit the surviving triples, deduplicating identical ones
  // with a flat open-addressing table (keys are nonzero: at fixpoint no
  // live triple has equal representatives, so the zero key — equal
  // representatives 0, boolean 0, dealloc kind — cannot arise and
  // serves as the empty marker). The kept copy takes the *last*
  // occurrence's position: the solver's candidate stacks pop from the
  // back, so of two identical triples the later one is considered first
  // — preserving that position keeps the choice order (and therefore
  // the solution) bit-identical to the raw solver's.
  size_t TableCap = 16;
  while (TableCap < 2 * NT)
    TableCap <<= 1;
  std::vector<uint64_t> Table(TableCap, 0);
  auto InsertKey = [&](uint64_t Key) {
    const size_t Mask = TableCap - 1;
    size_t H = (Key * 0x9E3779B97F4A7C15ull >> 32) & Mask;
    for (;;) {
      uint64_t E = Table[H];
      if (E == 0) {
        Table[H] = Key;
        return true;
      }
      if (E == Key)
        return false;
      H = (H + 1) & Mask;
    }
  };
  std::vector<uint32_t> Kept;
  Kept.reserve(NT);
  for (size_t TI = NT; TI-- > 0;) {
    if (!Alive[TI])
      continue;
    const Constraint &C = T[TI];
    uint32_t R1 = Out.StateRep[C.S1];
    uint32_t R2 = Out.StateRep[C.S2];
    assert(R1 != R2 && "live triple with equal representatives");
    // Pack (kind, s1, s2, b): ids are dense and < 2^21 in any system
    // this repo generates.
    uint64_t Key = (static_cast<uint64_t>(C.K == Constraint::Kind::AllocTriple)
                    << 63) |
                   (static_cast<uint64_t>(R1) << 42) |
                   (static_cast<uint64_t>(R2) << 21) |
                   static_cast<uint64_t>(C.B);
    if (InsertKey(Key))
      Kept.push_back(static_cast<uint32_t>(TI));
    else
      ++Out.Stats.DupTriplesRemoved;
  }
  std::reverse(Kept.begin(), Kept.end());

  Res.Cons.reserve(Kept.size());
  for (uint32_t TI : Kept) {
    const Constraint &C = T[TI];
    if (C.K == Constraint::Kind::AllocTriple)
      Res.addAllocTriple(Out.StateRep[C.S1], C.B, Out.StateRep[C.S2]);
    else
      Res.addDeallocTriple(Out.StateRep[C.S1], C.B, Out.StateRep[C.S2]);
  }

  Out.Stats.StateVarsAfter = Res.numStateVars();
  Out.Stats.ConstraintsAfter = Res.numConstraints();
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

SimplifiedSystem solver::simplifyGroup(const ConstraintSystem &Sys,
                                       std::span<const uint32_t> Shards,
                                       const ShardLocalIds &Ids) {
  size_t NS = 0, NB = 0, NC = 0;
  for (uint32_t K : Shards) {
    NS += Sys.shardStates(K).size();
    NB += Sys.shardBools(K).size();
    NC += Sys.shardConstraints(K).size();
  }
  support::StateDomains Dom;
  Dom.reserve(NS);
  std::vector<Constraint> Cons;
  Cons.reserve(NC);
  uint32_t SOff = 0, BOff = 0;
  for (uint32_t K : Shards) {
    for (uint32_t S : Sys.shardStates(K))
      Dom.push_back(Sys.StateDom.get(S));
    for (uint32_t CI : Sys.shardConstraints(K)) {
      Constraint C = Sys.Cons[CI];
      C.S1 = SOff + Ids.State[C.S1];
      C.S2 = SOff + Ids.State[C.S2];
      if (C.K != Constraint::Kind::Eq)
        C.B = BOff + Ids.Bool[C.B];
      Cons.push_back(C);
    }
    SOff += static_cast<uint32_t>(Sys.shardStates(K).size());
    BOff += static_cast<uint32_t>(Sys.shardBools(K).size());
  }
  return simplifyConstraints(NB, std::move(Dom), std::move(Cons));
}

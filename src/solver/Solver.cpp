#include "solver/Solver.h"

#include "support/Metrics.h"
#include "support/PackedDomains.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <numeric>

using namespace afl;
using namespace afl::solver;
using namespace afl::constraints;

namespace {

/// Byte-per-lane stand-in for support::PackedArray with the same lane
/// API: the historical domain representation, kept for the raw §4.3
/// oracle (SolveOptions::Simplify = false, `aflc --no-simplify`).
struct ByteLanes {
  uint8_t get(size_t I) const { return V[I]; }
  void set(size_t I, uint8_t Val) { V[I] = Val; }
  size_t size() const { return V.size(); }
  void assign(size_t N, uint8_t Val) { V.assign(N, Val); }
  bool hasZeroEntry() const {
    for (uint8_t D : V)
      if (D == 0)
        return true;
    return false;
  }
  std::vector<uint8_t> V;
};

template <unsigned Bits>
void initLanes(const support::PackedArray<Bits> &Src,
               support::PackedArray<Bits> &Dst) {
  Dst = Src;
}
template <unsigned Bits>
void initLanes(const support::PackedArray<Bits> &Src, ByteLanes &Dst) {
  Dst.V = Src.unpack();
}
template <unsigned Bits>
void exportLanes(support::PackedArray<Bits> &&Src,
                 support::PackedArray<Bits> &Dst) {
  Dst = std::move(Src);
}
template <unsigned Bits>
void exportLanes(ByteLanes &&Src, support::PackedArray<Bits> &Dst) {
  Dst = support::PackedArray<Bits>::pack(Src.V);
}

/// The propagation/choice/backtrack core, parameterized over the domain
/// and flag array representations: bit-packed (production, run on
/// simplified shard residuals — 3-bit state / 2-bit boolean / 1-bit flag
/// lanes, word-at-a-time construction and copies) or byte lanes (the raw
/// oracle). The algorithm is representation-blind: both instantiations
/// execute the identical sequence of domain reads and writes for the
/// same input (tests/SolverDifferentialTest.cpp).
template <typename SDomT, typename BDomT, typename FlagT> class SolverImpl {
public:
  explicit SolverImpl(const ConstraintSystem &Sys) : Sys(Sys) {
    initLanes(Sys.StateDom, SD);
    initLanes(Sys.BoolDom, BD);
    InQueue.assign(Sys.Cons.size(), 0);
    InAllocCand.assign(Sys.Cons.size(), 0);
    InDeallocCand.assign(Sys.Cons.size(), 0);
  }

  SolveResult run();

private:
  struct TrailEntry {
    bool IsBool;
    uint32_t Id;
    uint8_t Old;
  };
  struct Decision {
    BoolVarId B;
    size_t TrailSize;
    uint8_t FirstTry; // BTrue or BFalse
    bool Flipped;
  };

  /// One scan of the variable's occurrence list handles everything a
  /// domain change requires: re-queue the constraints for propagation
  /// (skipped on rollback, which restores domains without needing to
  /// re-propagate) and refresh the border-candidate stacks — any domain
  /// change can create new candidates among the constraints mentioning
  /// the variable. The in-stack flags keep each constraint queued at
  /// most once per structure — without them, propagation-heavy programs
  /// push the same index on every domain change (quadratic growth).
  void onChange(bool IsBool, uint32_t Id, bool Enqueue) {
    const auto Occ = IsBool ? Sys.boolOcc(Id) : Sys.stateOcc(Id);
    for (uint32_t CI : Occ) {
      if (Enqueue && !InQueue.get(CI)) {
        InQueue.set(CI, 1);
        Queue.push_back(CI);
      }
      const Constraint &C = Sys.Cons[CI];
      if (C.K == Constraint::Kind::AllocTriple) {
        if (!InAllocCand.get(CI)) {
          InAllocCand.set(CI, 1);
          AllocCand.push_back(CI);
        }
      } else if (C.K == Constraint::Kind::DeallocTriple) {
        if (!InDeallocCand.get(CI)) {
          InDeallocCand.set(CI, 1);
          DeallocCand.push_back(CI);
        }
      }
    }
    if (IsBool && Id < BoolPointer)
      BoolPointer = Id;
  }

  bool setState(StateVarId S, uint8_t Mask) {
    uint8_t Old = SD.get(S);
    uint8_t New = Old & Mask;
    if (New == Old)
      return true;
    if (New == 0) {
      Conflict = true;
      return false;
    }
    Trail.push_back({false, S, Old});
    SD.set(S, New);
    onChange(false, S, true);
    return true;
  }

  bool setBool(BoolVarId B, uint8_t Mask) {
    uint8_t Old = BD.get(B);
    uint8_t New = Old & Mask;
    if (New == Old)
      return true;
    if (New == 0) {
      Conflict = true;
      return false;
    }
    Trail.push_back({true, B, Old});
    BD.set(B, New);
    onChange(true, B, true);
    return true;
  }

  /// Propagates one triple with pre-state \p S1, post-state \p S2, boolean
  /// \p B; \p From/\p To are the transition states (U→A for allocation,
  /// A→D for deallocation). Note the sequencing in the ¬b arm: the
  /// second setState reads the domain the first one just narrowed.
  bool propagateTriple(StateVarId S1, BoolVarId B, StateVarId S2,
                       uint8_t From, uint8_t To) {
    uint8_t BV = BD.get(B);
    if (BV == BTrue)
      return setState(S1, From) && setState(S2, To);
    if (BV == BFalse)
      return setState(S1, SD.get(S2)) && setState(S2, SD.get(S1));
    // Boolean undetermined.
    uint8_t D1 = SD.get(S1), D2 = SD.get(S2);
    if (!(D1 & From) || !(D2 & To)) {
      if (!setBool(B, BFalse))
        return false;
      return setState(S1, SD.get(S2)) && setState(S2, SD.get(S1));
    }
    if ((D1 & D2) == 0) {
      if (!setBool(B, BTrue))
        return false;
      return setState(S1, From) && setState(S2, To);
    }
    // Both options open: prune to the union of the two scenarios.
    return setState(S1, static_cast<uint8_t>(D2 | From)) &&
           setState(S2, static_cast<uint8_t>(SD.get(S1) | To));
  }

  bool propagateOne(const Constraint &C) {
    switch (C.K) {
    case Constraint::Kind::Eq:
      return setState(C.S1, SD.get(C.S2)) && setState(C.S2, SD.get(C.S1));
    case Constraint::Kind::AllocTriple:
      return propagateTriple(C.S1, C.B, C.S2, StU, StA);
    case Constraint::Kind::DeallocTriple:
      return propagateTriple(C.S1, C.B, C.S2, StA, StD);
    }
    return true;
  }

  bool propagate() {
    while (QueueHead != Queue.size()) {
      uint32_t CI = Queue[QueueHead++];
      InQueue.set(CI, 0);
      ++Stats.Propagations;
      if (!propagateOne(Sys.Cons[CI])) {
        // Drain the queue; state is rolled back by the caller.
        for (size_t I = QueueHead; I != Queue.size(); ++I)
          InQueue.set(Queue[I], 0);
        Queue.clear();
        QueueHead = 0;
        return false;
      }
    }
    Queue.clear();
    QueueHead = 0;
    return true;
  }

  void rollbackTo(size_t TrailSize) {
    while (Trail.size() > TrailSize) {
      const TrailEntry &E = Trail.back();
      if (E.IsBool)
        BD.set(E.Id, E.Old);
      else
        SD.set(E.Id, E.Old);
      // Reverting re-creates whatever candidacy existed before.
      onChange(E.IsBool, E.Id, false);
      Trail.pop_back();
    }
    Conflict = false;
  }

  bool isAllocCandidate(const Constraint &C) const {
    return C.K == Constraint::Kind::AllocTriple && BD.get(C.B) == BAny &&
           SD.get(C.S2) == StA && (SD.get(C.S1) & StU) && SD.get(C.S1) != StU;
  }
  bool isDeallocCandidate(const Constraint &C) const {
    return C.K == Constraint::Kind::DeallocTriple && BD.get(C.B) == BAny &&
           SD.get(C.S1) == StA && (SD.get(C.S2) & StD) && SD.get(C.S2) != StD;
  }

  /// Finds the next choice per the paper's preference: a border allocation
  /// triple, else a border deallocation triple (both tracked
  /// incrementally), else any open boolean (defaulted to false = no
  /// operation).
  bool findChoice(BoolVarId &B, uint8_t &Value) {
    // Seed the candidate stacks once with a full scan.
    if (!Seeded) {
      Seeded = true;
      for (uint32_t CI = 0; CI != Sys.Cons.size(); ++CI) {
        const Constraint &C = Sys.Cons[CI];
        if (C.K == Constraint::Kind::AllocTriple) {
          InAllocCand.set(CI, 1);
          AllocCand.push_back(CI);
        } else if (C.K == Constraint::Kind::DeallocTriple) {
          InDeallocCand.set(CI, 1);
          DeallocCand.push_back(CI);
        }
      }
    }
    while (!AllocCand.empty()) {
      uint32_t CI = AllocCand.back();
      AllocCand.pop_back();
      InAllocCand.set(CI, 0);
      if (isAllocCandidate(Sys.Cons[CI])) {
        // The candidate is popped, not peeked: if the decision is later
        // rolled back, noteChange re-adds it for the variables on the
        // trail.
        B = Sys.Cons[CI].B;
        Value = BTrue;
        return true;
      }
    }
    while (!DeallocCand.empty()) {
      uint32_t CI = DeallocCand.back();
      DeallocCand.pop_back();
      InDeallocCand.set(CI, 0);
      if (isDeallocCandidate(Sys.Cons[CI])) {
        B = Sys.Cons[CI].B;
        Value = BTrue;
        return true;
      }
    }
    while (BoolPointer < BD.size() && BD.get(BoolPointer) != BAny)
      ++BoolPointer;
    if (BoolPointer < BD.size()) {
      B = static_cast<BoolVarId>(BoolPointer);
      Value = BFalse;
      return true;
    }
    return false;
  }

  const ConstraintSystem &Sys;
  SDomT SD;
  BDomT BD;
  // In-structure membership flags. The packed instantiation keeps these
  // at one bit per constraint (the memsets in the constructor are the
  // point: they run once per solved residual, and shard grouping
  // constructs thousands of solvers per batch); the byte instantiation
  // keeps the historical byte flags.
  FlagT InQueue;
  FlagT InAllocCand, InDeallocCand;
  /// Index-cursor worklist: pushes append, pops advance QueueHead; the
  /// storage is reclaimed whenever the queue drains.
  std::vector<uint32_t> Queue;
  size_t QueueHead = 0;
  std::vector<TrailEntry> Trail;
  std::vector<Decision> Decisions;
  std::vector<uint32_t> AllocCand, DeallocCand;
  size_t BoolPointer = 0;
  bool Seeded = false;
  bool Conflict = false;
  SolveResult Stats;
};

template <typename SDomT, typename BDomT, typename FlagT>
SolveResult SolverImpl<SDomT, BDomT, FlagT>::run() {
  // An empty initial domain is a conflict even when the variable occurs
  // in no constraint — propagation would never visit it, and a
  // completion extracted from such a "solution" would be unsound.
  if (SD.hasZeroEntry() || BD.hasZeroEntry()) {
    Stats.Sat = false;
    return Stats;
  }

  // Initial propagation: seed with every constraint.
  for (uint32_t CI = 0; CI != Sys.Cons.size(); ++CI) {
    InQueue.set(CI, 1);
    Queue.push_back(CI);
  }
  if (!propagate()) {
    Stats.Sat = false;
    return Stats;
  }

  for (;;) {
    BoolVarId B = 0;
    uint8_t Value = 0;
    if (!findChoice(B, Value)) {
      Stats.Sat = true;
      exportLanes(std::move(SD), Stats.StateDom);
      exportLanes(std::move(BD), Stats.BoolDom);
      return Stats;
    }
    ++Stats.Choices;
    Decisions.push_back({B, Trail.size(), Value, false});
    setBool(B, Value);
    while (!propagate()) {
      // Conflict: flip the most recent unflipped decision.
      for (;;) {
        if (Decisions.empty()) {
          Stats.Sat = false;
          return Stats;
        }
        Decision &D = Decisions.back();
        rollbackTo(D.TrailSize);
        if (!D.Flipped) {
          ++Stats.Backtracks;
          D.Flipped = true;
          uint8_t Other = D.FirstTry == BTrue ? BFalse : BTrue;
          setBool(D.B, Other);
          break;
        }
        Decisions.pop_back();
      }
    }
  }
}

/// The production core: bit-packed lanes over a simplified residual.
SolveResult solveResidual(const ConstraintSystem &Residual) {
  return SolverImpl<support::StateDomains, support::BoolDomains,
                    support::PackedBits>(Residual)
      .run();
}

/// The oracle: the paper-literal §4.3 engine over the raw system, on
/// byte lanes.
SolveResult solveRaw(const ConstraintSystem &Sys) {
  return SolverImpl<ByteLanes, ByteLanes, ByteLanes>(Sys).run();
}

/// Opens a shard-consuming solve. An empty *initial* domain is a
/// conflict even for a variable in no constraint — it never reaches a
/// shard, so it is checked globally up front and returns false (\p R
/// stays Unsat). Otherwise builds the shard-local ids and seeds \p R
/// with the initial domains: unsharded variables keep them (they are
/// their own representatives), every sharded slot is overwritten by the
/// caller. Word copies: both sides are packed.
bool beginSharded(const ConstraintSystem &Sys, SolveResult &R,
                  ShardLocalIds &Ids) {
  if (Sys.StateDom.hasZeroEntry())
    return false;
  Stopwatch Phase;
  Ids = buildShardLocalIds(Sys);
  R.Simplify.ComponentSeconds = Phase.seconds();
  R.StateDom = Sys.StateDom;
  R.BoolDom = Sys.BoolDom;
  return true;
}

/// Closes a shard-consuming solve: completes the statistics and either
/// drops the partial domains (\p Failed) or defaults the booleans in no
/// shard (never in a triple) to false — no operation — exactly as the
/// raw solver's final sweep leaves them.
SolveResult finishSharded(const ConstraintSystem &Sys,
                          const ShardLocalIds &Ids, bool Failed,
                          SolveResult R, const Stopwatch &Watch) {
  // The per-shard sums cover only sharded variables; unconstrained ones
  // are one singleton class each.
  size_t Unsharded = Sys.numStateVars() - Ids.NumShardedStates;
  R.Simplify.StateVarsBefore += Unsharded;
  R.Simplify.StateVarsAfter += Unsharded;
  R.Simplify.Components = Sys.numShards();
  if (Failed) {
    R.Sat = false;
    R.StateDom.clear();
    R.BoolDom.clear();
  } else {
    R.BoolDom.defaultAnyToFalse();
    R.Sat = true;
  }
  R.Seconds = Watch.seconds();
  return R;
}

/// Systems with fewer constraints solve their shard groups on the
/// calling thread, where handing them to the pool would cost more than
/// the solve; larger ones fan the groups out over every CPU the calling
/// thread may run on (on a 4-core host the ~160k-constraint
/// straight-line programs solve about 2.5x faster that way). The count
/// is of generated constraints, which thread state without `Eq` links
/// wherever they can; 1024 of them is about the work 2048 was when every
/// context emitted its own.
constexpr size_t FanOutMinConstraints = 1024;

/// Writes shard \p K's memo key into \p Key: its content in shard-local
/// coordinates — every constraint's kind and local variable ids (in CSR
/// order) plus the initial domains of the member variables. Identical
/// keys mean identical subsystems up to the local->global renaming, and
/// the solved local domains depend on nothing else.
void shardKey(const ConstraintSystem &Sys, uint32_t K,
              const ShardLocalIds &Ids, std::string &Key) {
  const auto Cons = Sys.shardConstraints(K);
  const auto States = Sys.shardStates(K);
  const auto Bools = Sys.shardBools(K);
  // Sized for the longest encoding up front and trimmed after: the
  // buffer is reused across shards, so it is written, not grown.
  Key.resize((1 + 3 * 4) * Cons.size() + States.size() + Bools.size());
  char *Out = Key.data();
  auto Put32 = [&Out](uint32_t V) {
    Out[0] = static_cast<char>(V);
    Out[1] = static_cast<char>(V >> 8);
    Out[2] = static_cast<char>(V >> 16);
    Out[3] = static_cast<char>(V >> 24);
    Out += 4;
  };
  for (uint32_t CI : Cons) {
    const Constraint &C = Sys.Cons[CI];
    *Out++ = static_cast<char>(C.K);
    Put32(Ids.State[C.S1]);
    Put32(Ids.State[C.S2]);
    if (C.K != Constraint::Kind::Eq)
      Put32(Ids.Bool[C.B]);
  }
  for (uint32_t V : States)
    *Out++ = static_cast<char>(Sys.StateDom.get(V));
  for (uint32_t V : Bools)
    *Out++ = static_cast<char>(Sys.BoolDom.get(V));
  Key.resize(static_cast<size_t>(Out - Key.data()));
}

/// Writes a memoized shard solution into \p R's global domains.
void replayShard(const ConstraintSystem &Sys, uint32_t K,
                 const ShardSolutionCache::Entry &E, SolveResult &R) {
  const auto States = Sys.shardStates(K);
  for (size_t L = 0; L != States.size(); ++L)
    R.StateDom.set(States.begin()[L], E.StateDom[L]);
  const auto Bools = Sys.shardBools(K);
  for (size_t L = 0; L != Bools.size(); ++L)
    R.BoolDom.set(Bools.begin()[L], E.BoolDom[L]);
}

/// The production path. The input's emission-time union-find already
/// partitioned variables and constraints into connected components, so
/// groups of shards are simplified and solved on their own, with no
/// global simplify, no component-discovery pass and no materialized
/// per-shard system (simplifyGroup consumes the CSR shard index
/// directly). With a \p Cache, shards whose key it holds — or whose key
/// an earlier shard of this call carries — are replayed; only the rest
/// are grouped and solved, and their solutions are inserted on the
/// calling thread after the join.
SolveResult solveSharded(const ConstraintSystem &Sys,
                         ShardSolutionCache *Cache, const Stopwatch &Watch) {
  SolveResult R;
  ShardLocalIds Ids;
  if (!beginSharded(Sys, R, Ids)) {
    R.Seconds = Watch.seconds();
    return R;
  }

  // The shards to solve, in shard order. With a cache: their memo keys
  // (MissKeys, parallel to ToSolve), and the shards whose key an earlier
  // shard of this call carries, paired with that shard's index in
  // ToSolve — they replay its solution after the join.
  const uint32_t NumShards = static_cast<uint32_t>(Sys.numShards());
  std::vector<uint32_t> ToSolve;
  std::vector<std::string> MissKeys;
  std::vector<std::pair<uint32_t, uint32_t>> Replays;
  if (!Cache) {
    ToSolve.resize(NumShards);
    std::iota(ToSolve.begin(), ToSolve.end(), 0u);
  } else {
    std::unordered_map<std::string, uint32_t> Pending;
    std::string Key;
    for (uint32_t K = 0; K != NumShards; ++K) {
      shardKey(Sys, K, Ids, Key);
      auto It = Cache->Entries.find(Key);
      if (It != Cache->Entries.end()) {
        ++Cache->Hits;
        replayShard(Sys, K, It->second, R);
        continue;
      }
      auto [P, New] =
          Pending.try_emplace(Key, static_cast<uint32_t>(ToSolve.size()));
      if (New) {
        ++Cache->Misses;
        ToSolve.push_back(K);
      } else {
        ++Cache->Hits;
        Replays.push_back({K, P->second});
      }
    }
    MissKeys.resize(ToSolve.size());
    while (!Pending.empty()) {
      auto Node = Pending.extract(Pending.begin());
      MissKeys[Node.mapped()] = std::move(Node.key());
    }
  }
  size_t NumConstraints = 0;
  for (uint32_t K : ToSolve)
    NumConstraints += Sys.shardConstraints(K).size();

  const unsigned Jobs = NumConstraints < FanOutMinConstraints
                            ? 1
                            : ThreadPool::hardwareThreads();

  // Group consecutive shards into work units of roughly GroupTarget
  // constraints: the per-unit fixed costs (simplification scratch,
  // solver construction, propagation seeding) dwarf the work of a
  // ten-constraint shard, and typical programs produce hundreds of tiny
  // shards. Because shards share no variables, simplifying and solving a
  // group is exactly the concatenation of its members' individual runs —
  // grouping changes nothing observable but the amortization. When
  // fanned out, the target shrinks so every worker gets several units
  // to balance. GroupStart indexes ToSolve.
  size_t GroupTarget = 8192;
  if (Jobs > 1)
    GroupTarget = std::min(
        GroupTarget, std::max<size_t>(1, NumConstraints / (size_t(Jobs) * 4)));
  std::vector<uint32_t> GroupStart{0};
  {
    size_t Acc = 0;
    for (uint32_t I = 0; I != ToSolve.size(); ++I) {
      size_t N = Sys.shardConstraints(ToSolve[I]).size();
      if (Acc != 0 && Acc + N > GroupTarget) {
        GroupStart.push_back(I);
        Acc = 0;
      }
      Acc += N;
    }
  }
  if (!ToSolve.empty())
    GroupStart.push_back(static_cast<uint32_t>(ToSolve.size()));
  const size_t NumGroups = GroupStart.size() - 1;

  struct GroupWork {
    SimplifyStats Stats;
    uint64_t Propagations = 0, Choices = 0, Backtracks = 0;
    /// The group's solved residual domains and its local->rep mapping,
    /// kept for the post-join scatter: packed lanes from different
    /// shards share words, so the scatter must not run concurrently.
    SolveResult Solved;
    std::vector<StateVarId> StateRep;
  };
  std::vector<GroupWork> Work(NumGroups);
  std::atomic<bool> Failed{false};

  // Each item writes only its own Work slot. Once any group is
  // unsatisfiable the remaining items early-out.
  auto SolveOne = [&](size_t G) {
    if (Failed.load(std::memory_order_relaxed))
      return;
    const std::span<const uint32_t> Members(
        ToSolve.data() + GroupStart[G], GroupStart[G + 1] - GroupStart[G]);
    Stopwatch SW;
    SimplifiedSystem Simp = simplifyGroup(Sys, Members, Ids);
    Work[G].Stats = Simp.Stats;
    Work[G].Stats.SimplifySeconds = SW.seconds();
    if (Simp.Conflict) {
      Failed.store(true, std::memory_order_relaxed);
      return;
    }
    // LargestComponent carries the largest member shard's residual size
    // (accumulate() takes the maximum). Member reps occupy contiguous
    // ascending ranges bounded by the rep of each member's first state
    // variable, so a rep -> member table buckets the residual
    // constraints in one linear pass.
    {
      std::vector<uint32_t> MemberOf(Simp.Residual.numStateVars());
      uint32_t Off = 0;
      for (uint32_t M = 0; M != Members.size(); ++M) {
        uint32_t RepBegin = Simp.StateRep[Off];
        Off += static_cast<uint32_t>(Sys.shardStates(Members[M]).size());
        uint32_t RepEnd = Off < Simp.StateRep.size()
                              ? Simp.StateRep[Off]
                              : static_cast<uint32_t>(MemberOf.size());
        for (uint32_t Rep = RepBegin; Rep != RepEnd; ++Rep)
          MemberOf[Rep] = M;
      }
      std::vector<uint32_t> PerMember(Members.size(), 0);
      for (const Constraint &C : Simp.Residual.Cons)
        ++PerMember[MemberOf[C.S1]];
      for (uint32_t N : PerMember)
        Work[G].Stats.LargestComponent =
            std::max<size_t>(Work[G].Stats.LargestComponent, N);
    }
    SolveResult CR = solveResidual(Simp.Residual);
    Work[G].Propagations = CR.Propagations;
    Work[G].Choices = CR.Choices;
    Work[G].Backtracks = CR.Backtracks;
    if (!CR.Sat) {
      Failed.store(true, std::memory_order_relaxed);
      return;
    }
    Work[G].Solved = std::move(CR);
    Work[G].StateRep = std::move(Simp.StateRep);
  };

  if (Jobs <= 1) {
    for (size_t G = 0; G != NumGroups && !Failed.load(); ++G)
      SolveOne(G);
  } else {
    ThreadPool::global().parallelFor(NumGroups, Jobs, SolveOne);
  }

  for (const GroupWork &W : Work) {
    R.Simplify.accumulate(W.Stats);
    R.Propagations += W.Propagations;
    R.Choices += W.Choices;
    R.Backtracks += W.Backtracks;
  }
  R.Simplify.ThreadsUsed =
      Jobs <= 1 ? 1
                : std::min<size_t>(Jobs, std::max<size_t>(NumGroups, 1));
  if (Failed.load())
    return finishSharded(Sys, Ids, true, std::move(R), Watch);

  // Reconstruction: StateRep and the solved arrays index group-local
  // variables; the shard tables give the local -> global mapping,
  // member by member. With a cache, each solved shard's local domains
  // become its entry, which the shards replaying its key then read.
  Stopwatch Phase;
  std::vector<const ShardSolutionCache::Entry *> Solved(Cache ? ToSolve.size()
                                                              : 0);
  for (size_t G = 0; G != NumGroups; ++G) {
    const GroupWork &W = Work[G];
    uint32_t SOff = 0, BOff = 0;
    for (uint32_t I = GroupStart[G]; I != GroupStart[G + 1]; ++I) {
      const auto States = Sys.shardStates(ToSolve[I]);
      const auto Bools = Sys.shardBools(ToSolve[I]);
      ShardSolutionCache::Entry E;
      if (Cache) {
        E.StateDom.reserve(States.size());
        E.BoolDom.reserve(Bools.size());
      }
      for (size_t L = 0; L != States.size(); ++L) {
        uint8_t D = W.Solved.StateDom.get(W.StateRep[SOff + L]);
        R.StateDom.set(States.begin()[L], D);
        if (Cache)
          E.StateDom.push_back(D);
      }
      SOff += static_cast<uint32_t>(States.size());
      for (size_t L = 0; L != Bools.size(); ++L) {
        uint8_t D = W.Solved.BoolDom.get(BOff + L);
        R.BoolDom.set(Bools.begin()[L], D);
        if (Cache)
          E.BoolDom.push_back(D);
      }
      BOff += static_cast<uint32_t>(Bools.size());
      if (Cache)
        Solved[I] = &Cache->Entries.emplace(std::move(MissKeys[I]), std::move(E))
                         .first->second;
    }
  }
  for (auto [K, I] : Replays)
    replayShard(Sys, K, *Solved[I], R);
  R.Simplify.ReconstructSeconds = Phase.seconds();
  return finishSharded(Sys, Ids, false, std::move(R), Watch);
}

} // namespace

SolveResult solver::solve(const ConstraintSystem &Sys,
                          const SolveOptions &Options,
                          ShardSolutionCache *Cache) {
  Stopwatch Watch;
  if (Options.Simplify)
    return solveSharded(Sys, Cache, Watch);
  SolveResult R = solveRaw(Sys);
  R.Seconds = Watch.seconds();
  return R;
}

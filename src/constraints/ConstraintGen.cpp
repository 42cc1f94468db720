#include "constraints/ConstraintGen.h"

#include "constraints/StateVecInterner.h"

#include <algorithm>
#include <chrono>
#include <functional>

using namespace afl;
using namespace afl::constraints;
using namespace afl::regions;
using closure::AbsClosure;
using closure::AbsClosureId;
using closure::Color;
using closure::RegEnvId;

namespace {

using ShapeId = StateVecInterner::ShapeId;

/// A state vector: region color → state variable. The color half (the
/// *shape*) is interned — identical ascending color sets across contexts
/// share one ShapeId — so only the variable half is stored per vector,
/// and entry i holds the variable of the shape's i-th color. Iteration
/// is in ascending color order, the order the previous flat-pair
/// representation produced, so the emitted constraint system is
/// unchanged.
struct StateVec {
  ShapeId Shape = StateVecInterner::Empty;
  std::vector<StateVarId> Vars;
};

class Generator {
public:
  Generator(const RegionProgram &Prog, closure::ClosureAnalysis &CA,
            const GenOptions &Options, GenResult &Out)
      : Prog(Prog), CA(CA), Options(Options), Out(Out) {
    CtxCache.resize(CA.numCtxIds());
    // Pre-size: genApp holds references into this across recursion, so
    // the vector must never reallocate.
    CalleeCache.resize(CA.numClosures());
    ChainBools.resize(Prog.numNodes());
    FreeAppBools.assign(Prog.numNodes(), NoBool);
  }

  void run() {
    const CtxEntry &Root = genCtx(Prog.Root, CA.rootEnv(), nullptr);
    // Program start: all global regions unallocated.
    // Program end: the result is observed, so every global (result) region
    // must be allocated. (They are reclaimed by program exit.)
    for (RegionVarId R : Prog.GlobalRegions) {
      Color C = CA.envs().colorOf(CA.rootEnv(), R);
      if (const StateVarId *S = svFind(Root.In, C))
        Out.Sys.restrictState(*S, StU);
      if (const StateVarId *S = svFind(Root.Out, C))
        Out.Sys.restrictState(*S, StA);
    }
  }

  size_t numShapes() const { return IV.numShapes(); }

private:
  static constexpr BoolVarId NoBool = static_cast<BoolVarId>(-1);
  static constexpr StateVarId NoState = static_cast<StateVarId>(-1);

  /// Cached in/out vectors of a generated context, indexed by the closure
  /// analysis' dense context id.
  struct CtxEntry {
    StateVec In, Out;
    bool Done = false;
  };

  ConstraintSystem &sys() { return Out.Sys; }

  /// Shared boolean for a syntactic choice point, kept in \p Slot: the
  /// node's entry in FreeAppBools, or one of its ChainBools (indexed by
  /// the region's position in the node's overall effect, which every
  /// context of the node shares). Created on first use, so booleans and
  /// Choices entries are numbered in first-use order.
  BoolVarId choiceBool(BoolVarId &Slot, RNodeId Node, COpKind Kind,
                       RegionVarId Region) {
    if (Slot == NoBool) {
      Slot = sys().newBool();
      Out.Choices.push_back({Node, Kind, Region, Slot});
    }
    return Slot;
  }

  StateVec freshVec(ShapeId Shape) {
    StateVec V;
    V.Shape = Shape;
    size_t N = IV.size(Shape);
    V.Vars.reserve(N);
    for (size_t I = 0; I != N; ++I)
      V.Vars.push_back(sys().newState());
    return V;
  }

  /// The in vector of a context first reached from a caller's chain: the
  /// caller's own variable for every color the two shapes share, a fresh
  /// variable (ascending color order) for each color the context adds —
  /// its letregion-bound regions. Sharing the variable states what an
  /// `Eq` link to a fresh one would, with no link to emit and collapse.
  StateVec inherit(const StateVec &From, ShapeId Sh) {
    if (From.Shape == Sh)
      return From;
    StateVec V;
    V.Shape = Sh;
    V.Vars.assign(IV.size(Sh), NoState);
    for (const auto &[IF, IS] : IV.common(From.Shape, Sh))
      V.Vars[IS] = From.Vars[IF];
    for (StateVarId &S : V.Vars)
      if (S == NoState)
        S = sys().newState();
    return V;
  }

  const StateVarId *svFind(const StateVec &V, Color C) const {
    size_t Idx = IV.indexOf(V.Shape, C);
    if (Idx == FlatSet<Color>::npos)
      return nullptr;
    return &V.Vars[Idx];
  }

  StateVarId svAt(const StateVec &V, Color C) const {
    size_t Idx = IV.indexOf(V.Shape, C);
    assert(Idx != FlatSet<Color>::npos && "color missing from state vector");
    return V.Vars[Idx];
  }

  /// Equates \p A and \p B on their common colors (addEq calls in
  /// ascending color order, as before). Same shape — the dominant case —
  /// is a direct pairwise loop; otherwise the memoized common-index map
  /// replaces the linear merge.
  void linkEq(const StateVec &A, const StateVec &B) {
    if (A.Shape == B.Shape) {
      for (size_t I = 0; I != A.Vars.size(); ++I)
        sys().addEq(A.Vars[I], B.Vars[I]);
      return;
    }
    for (const auto &[IA, IB] : IV.common(A.Shape, B.Shape))
      sys().addEq(A.Vars[IA], B.Vars[IB]);
  }

  /// Projection of \p V onto shape \p To (all of \p To's colors must be
  /// present in \p V's shape).
  StateVec project(const StateVec &V, ShapeId To) {
    if (V.Shape == To)
      return V;
    StateVec P;
    P.Shape = To;
    const std::vector<uint32_t> &Map = IV.projection(V.Shape, To);
    P.Vars.reserve(Map.size());
    for (uint32_t Idx : Map)
      P.Vars.push_back(V.Vars[Idx]);
    return P;
  }

  void requireA(const StateVec &V, Color C) {
    sys().restrictState(svAt(V, C), StA);
  }

  /// The context's plan: for the I-th region of \p N's overall effect,
  /// PlanStack[Base + I] receives its position in the returned shape (the
  /// ascending set of the regions' colors in \p Env). Both chains read
  /// the plan instead of searching the environment and the shape again.
  ShapeId planContext(const RExpr *N, RegEnvId Env, size_t Base) {
    const RegionSet &Eff = N->overallEffect();
    const closure::RegEnvMap &Map = CA.envs().get(Env);
    std::vector<Color> Colors;
    Colors.reserve(Eff.size());
    // Both the environment and the effect ascend by region, so each
    // search starts where the previous one ended.
    auto It = Map.begin();
    for (RegionVarId R : Eff) {
      It = std::lower_bound(
          It, Map.end(), R,
          [](const auto &Entry, RegionVarId V) { return Entry.first < V; });
      assert(It != Map.end() && It->first == R &&
             "region variable not in abstract environment");
      Colors.push_back(It->second);
    }
    if (std::adjacent_find(Colors.begin(), Colors.end(),
                           std::greater_equal<Color>()) == Colors.end()) {
      // Strictly ascending (the common case): the colors are the shape
      // and region I sits at position I.
      for (uint32_t I = 0; I != Colors.size(); ++I)
        PlanStack[Base + I] = I;
      return IV.intern(FlatSet<Color>::fromSorted(std::move(Colors)));
    }
    std::vector<Color> Sorted = Colors;
    std::sort(Sorted.begin(), Sorted.end());
    Sorted.erase(std::unique(Sorted.begin(), Sorted.end()), Sorted.end());
    ShapeId Sh = IV.intern(FlatSet<Color>::fromSorted(std::move(Sorted)));
    for (size_t I = 0; I != Colors.size(); ++I)
      PlanStack[Base + I] = static_cast<uint32_t>(IV.indexOf(Sh, Colors[I]));
    return Sh;
  }

  /// Generates the in/out vectors for context (N, contextEnv(N, Incoming)).
  /// Cached so all call sites of a shared function body link to the same
  /// vectors; recursion terminates because the entry is marked done before
  /// the body is processed. The returned reference is stable: the cache is
  /// pre-sized to the analysis' context count and never reallocates.
  ///
  /// \p Caller is the state vector of the caller's chain at the point the
  /// context starts (null for function bodies, which keep their own
  /// vectors and are linked by the Fig. 4 B-equalities). The first visit
  /// threads it into the context's in vector; a later visit to the shared
  /// context links it with `Eq` constraints.
  const CtxEntry &genCtx(const RExpr *N, RegEnvId Incoming,
                         const StateVec *Caller) {
    RegEnvId Env = CA.contextEnv(N, Incoming);
    uint32_t Ctx = CA.ctxIndex(N->id(), Env);
    assert(Ctx != closure::ClosureAnalysis::NoCtx &&
           "constraint generation reached a context the closure analysis "
           "did not register");
    CtxEntry &E = CtxCache[Ctx];
    if (E.Done) {
      if (Caller)
        linkEq(*Caller, E.In);
      return E;
    }
    E.Done = true;

    const RegionSet &Eff = N->overallEffect();
    const size_t NumEff = Eff.size();
    const size_t Base = PlanStack.size();
    PlanStack.resize(Base + NumEff);
    ShapeId Sh = planContext(N, Env, Base);
    E.In = Caller ? inherit(*Caller, Sh) : freshVec(Sh);
    E.Out = freshVec(Sh);
    ++Out.NumContexts;
    if (ChainBools[N->id()].empty())
      ChainBools[N->id()].assign(2 * NumEff, NoBool);

    // letregion entry: freshly introduced regions start unallocated.
    for (RegionVarId R : N->boundRegions())
      sys().restrictState(svAt(E.In, CA.envs().colorOf(Env, R)), StU);

    // Pre-chain: potential alloc_before for every overall-effect region,
    // sequentialized in ascending region order (§4.2: aliased variables
    // must not both fire, which sequential triples guarantee). Under the
    // lexical-allocation ablation, only the introducing node gets a
    // choice point. The chain rewrites positions of the shared shape in
    // place — every touched color is in the overall effect, hence in Sh.
    StateVec Cur = E.In;
    size_t I = 0;
    for (auto It = Eff.begin(); It != Eff.end(); ++It, ++I) {
      if (!Options.LateAlloc && !introduces(N, *It))
        continue;
      uint32_t Pos = PlanStack[Base + I];
      BoolVarId B = choiceBool(ChainBools[N->id()][I], N->id(),
                               COpKind::AllocBefore, *It);
      StateVarId Next = sys().newState();
      sys().addAllocTriple(Cur.Vars[Pos], B, Next);
      Cur.Vars[Pos] = Next;
    }

    StateVec CoreOut = genCore(N, Env, std::move(Cur));
    assert(CoreOut.Shape == Sh && "core must preserve the context shape");

    // Post-chain: potential free_after for every overall-effect region.
    // The last triple at each position targets the out vector's variable
    // directly; a position with no triple (lexical-free ablation) is
    // linked to it by the Eq below. Positions are distinct unless two
    // regions share a color (fewer positions than regions); then only the
    // last triple at a shared position targets the out vector.
    auto HasFree = [&](RegionVarId R) {
      return Options.EarlyFree || introduces(N, R);
    };
    std::vector<uint8_t> LastAtPos;
    if (IV.size(Sh) != NumEff) {
      LastAtPos.assign(NumEff, 0);
      std::vector<uint8_t> Seen(IV.size(Sh), 0);
      for (size_t J = NumEff; J-- != 0;) {
        uint32_t Pos = PlanStack[Base + J];
        if (HasFree(Eff[J]) && !Seen[Pos])
          Seen[Pos] = LastAtPos[J] = 1;
      }
    }
    I = 0;
    for (auto It = Eff.begin(); It != Eff.end(); ++It, ++I) {
      if (!HasFree(*It))
        continue;
      uint32_t Pos = PlanStack[Base + I];
      BoolVarId B = choiceBool(ChainBools[N->id()][NumEff + I], N->id(),
                               COpKind::FreeAfter, *It);
      StateVarId Next = LastAtPos.empty() || LastAtPos[I] ? E.Out.Vars[Pos]
                                                          : sys().newState();
      sys().addDeallocTriple(CoreOut.Vars[Pos], B, Next);
      CoreOut.Vars[Pos] = Next;
    }
    PlanStack.resize(Base);

    linkEq(CoreOut, E.Out);

    // letregion exit: introduced regions must not be left allocated.
    for (RegionVarId R : N->boundRegions())
      sys().restrictState(svAt(E.Out, CA.envs().colorOf(Env, R)), StU | StD);

    return E;
  }

  /// True if \p N is the point where \p R enters scope (its letregion
  /// node, or the program root for a global region).
  bool introduces(const RExpr *N, RegionVarId R) const {
    for (RegionVarId B : N->boundRegions())
      if (B == R)
        return true;
    if (N == Prog.Root)
      for (RegionVarId G : Prog.GlobalRegions)
        if (G == R)
          return true;
    return false;
  }

  /// Links child (in its own context) into the current chain: threads
  /// \p Cur into the child's in vector and returns the child's out vector
  /// projected onto shape \p My.
  StateVec genChild(const RExpr *Child, RegEnvId Env, const StateVec &Cur,
                    ShapeId My) {
    return project(genCtx(Child, Env, &Cur).Out, My);
  }

  StateVec genCore(const RExpr *N, RegEnvId Env, StateVec Cur) {
    ShapeId My = Cur.Shape;

    auto requireReadsWrites = [&](const StateVec &V) {
      if (N->hasWriteRegion())
        requireA(V, CA.envs().colorOf(Env, N->writeRegion()));
      for (RegionVarId R : N->readRegions())
        requireA(V, CA.envs().colorOf(Env, R));
    };

    switch (N->kind()) {
    case RExpr::Kind::Int:
    case RExpr::Kind::Bool:
    case RExpr::Kind::Unit:
    case RExpr::Kind::Nil:
    case RExpr::Kind::Lambda:
    case RExpr::Kind::RegApp:
      requireReadsWrites(Cur);
      return Cur;
    case RExpr::Kind::Var:
      return Cur;
    case RExpr::Kind::Let: {
      const auto *L = cast<RLetExpr>(N);
      StateVec AfterInit = genChild(L->init(), Env, Cur, My);
      return genChild(L->body(), Env, AfterInit, My);
    }
    case RExpr::Kind::Letrec: {
      const auto *L = cast<RLetrecExpr>(N);
      // Storing the region-polymorphic closure writes ρf.
      requireReadsWrites(Cur);
      return genChild(L->body(), Env, Cur, My);
    }
    case RExpr::Kind::If: {
      const auto *I = cast<RIfExpr>(N);
      StateVec AfterCond = genChild(I->cond(), Env, Cur, My);
      // The condition's region is read after it is evaluated.
      requireA(AfterCond, CA.envs().colorOf(Env, N->readRegions()[0]));
      const CtxEntry &T = genCtx(I->thenExpr(), Env, &AfterCond);
      const CtxEntry &E = genCtx(I->elseExpr(), Env, &AfterCond);
      StateVec Joined = freshVec(My);
      linkEq(project(T.Out, My), Joined);
      linkEq(project(E.Out, My), Joined);
      return Joined;
    }
    case RExpr::Kind::Pair: {
      const auto *P = cast<RPairExpr>(N);
      StateVec AfterFirst = genChild(P->first(), Env, Cur, My);
      StateVec AfterSecond = genChild(P->second(), Env, AfterFirst, My);
      requireReadsWrites(AfterSecond);
      return AfterSecond;
    }
    case RExpr::Kind::Cons: {
      const auto *Cn = cast<RConsExpr>(N);
      StateVec AfterHead = genChild(Cn->head(), Env, Cur, My);
      StateVec AfterTail = genChild(Cn->tail(), Env, AfterHead, My);
      requireReadsWrites(AfterTail);
      return AfterTail;
    }
    case RExpr::Kind::UnOp: {
      const auto *U = cast<RUnOpExpr>(N);
      StateVec AfterOp = genChild(U->operand(), Env, Cur, My);
      requireReadsWrites(AfterOp);
      return AfterOp;
    }
    case RExpr::Kind::BinOp: {
      const auto *B = cast<RBinOpExpr>(N);
      StateVec AfterLhs = genChild(B->lhs(), Env, Cur, My);
      StateVec AfterRhs = genChild(B->rhs(), Env, AfterLhs, My);
      requireReadsWrites(AfterRhs);
      return AfterRhs;
    }
    case RExpr::Kind::App:
      return genApp(cast<RAppExpr>(N), Env, std::move(Cur));
    }
    assert(false && "unknown node kind");
    return Cur;
  }

  StateVec genApp(const RAppExpr *N, RegEnvId Env, StateVec Cur) {
    ShapeId My = Cur.Shape;
    StateVec AfterFn = genChild(N->fn(), Env, Cur, My);
    StateVec AfterArg = genChild(N->arg(), Env, AfterFn, My);

    // Fetching the closure reads its region.
    RegionVarId ClosRegion = N->readRegions()[0];
    Color ClosColor = CA.envs().colorOf(Env, ClosRegion);
    requireA(AfterArg, ClosColor);

    // free_app choice point on the closure's region (§1): after the fetch,
    // before the body.
    StateVec FA = AfterArg;
    if (Options.FreeApp) {
      size_t ClosIdx = IV.indexOf(My, ClosColor);
      assert(ClosIdx != FlatSet<Color>::npos);
      BoolVarId B = choiceBool(FreeAppBools[N->id()], N->id(),
                               COpKind::FreeApp, ClosRegion);
      StateVarId Next = sys().newState();
      sys().addDeallocTriple(FA.Vars[ClosIdx], B, Next);
      FA.Vars[ClosIdx] = Next;
    }

    // Caller-side effect colors of the call (set B in Fig. 4). The latent
    // region set depends only on the fn node's arrow type — cache per node.
    const std::set<RegionVarId> &CallerLatent = callerLatentOf(N->fn());
    FlatSet<Color> CallerB;
    for (RegionVarId R : CallerLatent)
      if (CA.envs().maps(Env, R))
        CallerB.insert(CA.envs().colorOf(Env, R));

    StateVec Result = freshVec(My);

    RegEnvId FnCtxEnv = CA.contextEnv(N->fn(), Env);
    const FlatSet<AbsClosureId> &Closures =
        CA.valuesOf(N->fn()->id(), FnCtxEnv);

    FlatSet<Color> BAll; // union of linked callee effect colors
    for (AbsClosureId Id : Closures) {
      const AbsClosure &Cl = CA.closure(Id);
      const CalleeInfo &Callee = calleeInfoOf(Id);
      const std::set<regions::RegionVarId> &CalleeLatent = Callee.Latent;
      const FlatSet<Color> &CalleeB = Callee.B;
      const CtxEntry &Body = genCtx(CA.bodyOf(Cl), Cl.Env, nullptr);

      // The B-equalities of Fig. 4 are justified only when the closure's
      // environment is color-consistent with the caller's: every *free*
      // region name mapped by both must have the same color. The callee's
      // region formals are excluded — rebinding them per call is exactly
      // what region polymorphism does, and their colors are caller colors
      // of the actuals by construction. Closures created in this caller's
      // lineage satisfy the check; closures that arrived through merged
      // flows (the escape pool, merged variable sets) may not. A shared
      // region in the closure's *widened* classes is never consistent:
      // its color is a canonical merge representative, so equality with
      // the caller's color does not certify agreement in every merged
      // pre-image environment.
      bool Aligned = true;
      bool WidenedMisalign = false;
      for (const auto &[Var, C] : CA.envs().get(Cl.Env)) {
        if (Callee.Formals.contains(Var))
          continue;
        if (!CA.envs().maps(Env, Var))
          continue;
        if (!Callee.Widened.empty() &&
            std::binary_search(Callee.Widened.begin(), Callee.Widened.end(),
                               Var)) {
          Aligned = false;
          WidenedMisalign = true;
          break;
        }
        if (CA.envs().colorOf(Env, Var) != C) {
          Aligned = false;
          break;
        }
      }

      if (Aligned) {
        // Equate caller and callee states over B on entry and exit.
        for (Color C : CalleeB) {
          const StateVarId *FAS = svFind(FA, C);
          const StateVarId *BInS = svFind(Body.In, C);
          if (FAS && BInS)
            sys().addEq(*FAS, *BInS);
          const StateVarId *RS = svFind(Result, C);
          const StateVarId *BOutS = svFind(Body.Out, C);
          if (RS && BOutS)
            sys().addEq(*RS, *BOutS);
        }
        BAll.unionWith(CalleeB);
      } else {
        // Conservative fallback: pin every region the call touches
        // allocated across the call, on both sides — by *name* on the
        // caller side, so the obligation reaches the caller's own
        // allocation chain regardless of color numbering.
        ++Out.NumPinnedCalls;
        if (WidenedMisalign)
          ++Out.NumWidenedPinned;
        for (regions::RegionVarId V : CalleeLatent) {
          if (CA.envs().maps(Env, V)) {
            Color C = CA.envs().colorOf(Env, V);
            if (const StateVarId *S = svFind(FA, C))
              sys().restrictState(*S, StA);
            if (const StateVarId *S = svFind(Result, C))
              sys().restrictState(*S, StA);
            // The caller may not change this region's state across the
            // call (the callee assumes it allocated throughout).
            BAll.insert(C);
          }
        }
        for (Color C : CallerB) {
          if (const StateVarId *S = svFind(FA, C))
            sys().restrictState(*S, StA);
          if (const StateVarId *S = svFind(Result, C))
            sys().restrictState(*S, StA);
          BAll.insert(C);
        }
        for (Color C : CalleeB) {
          if (const StateVarId *S = svFind(Body.In, C))
            sys().restrictState(*S, StA);
          if (const StateVarId *S = svFind(Body.Out, C))
            sys().restrictState(*S, StA);
        }
      }
    }

    // Set C: caller regions untouched by the call pass through
    // state-polymorphically. (With no known closures — dead code — all
    // colors pass through.) FA and Result share the caller shape, so the
    // pass-through is a direct pairwise loop.
    const FlatSet<Color> &MyColors = IV.colors(My);
    for (size_t I = 0; I != MyColors.size(); ++I) {
      Color C = MyColors[I];
      if (BAll.contains(C) && CallerB.contains(C))
        continue;
      sys().addEq(FA.Vars[I], Result.Vars[I]);
    }
    return Result;
  }

  /// Per-closure call-edge facts: the latent region variables of the
  /// closure's arrow type and their colors in the closure's environment
  /// (set B on the callee side). Both are functions of the closure id
  /// alone; applications with many call edges reuse them.
  struct CalleeInfo {
    std::set<regions::RegionVarId> Latent;
    FlatSet<Color> B;
    /// Region formals of a letrec closure (excluded from the alignment
    /// check); empty for lambdas.
    FlatSet<regions::RegionVarId> Formals;
    /// Recolored environment variables under context-set widening
    /// (sorted; empty when widening is off or did not fire for this
    /// closure) — sharing one with the caller forces the pinned path.
    std::vector<regions::RegionVarId> Widened;
    bool Cached = false;
  };

  const CalleeInfo &calleeInfoOf(AbsClosureId Id) {
    assert(Id < CalleeCache.size() && "closure id out of range");
    CalleeInfo &Info = CalleeCache[Id];
    if (!Info.Cached) {
      const AbsClosure &Cl = CA.closure(Id);
      Info.Latent = CA.latentOf(Cl);
      Info.B = CA.envs().colorsOf(Cl.Env, Info.Latent);
      if (const auto *Callee = dyn_cast<RLetrecExpr>(Cl.Fun))
        for (regions::RegionVarId F : Callee->formals())
          Info.Formals.insert(F);
      Info.Widened = CA.widenedVars(Cl);
      Info.Cached = true;
    }
    return Info;
  }

  /// Caller-side latent region variables, keyed by the fn node.
  const std::set<RegionVarId> &callerLatentOf(const RExpr *Fn) {
    auto [It, Inserted] = CallerLatentCache.try_emplace(Fn->id());
    if (Inserted) {
      EffectSet Probe;
      Probe.EffectVars.insert(Prog.Types.arrowEffect(Fn->type()));
      It->second = Prog.Types.regionsOf(Probe);
    }
    return It->second;
  }

  const RegionProgram &Prog;
  closure::ClosureAnalysis &CA;
  const GenOptions &Options;
  GenResult &Out;
  StateVecInterner IV;
  std::vector<CtxEntry> CtxCache;
  std::vector<CalleeInfo> CalleeCache;
  std::unordered_map<RNodeId, std::set<RegionVarId>> CallerLatentCache;
  /// Per node: the alloc_before booleans by overall-effect index, then
  /// the free_after ones (NoBool until first used).
  std::vector<std::vector<BoolVarId>> ChainBools;
  /// Per application node: its free_app boolean (NoBool until first used).
  std::vector<BoolVarId> FreeAppBools;
  /// The plans of the contexts being generated, innermost last (see
  /// planContext).
  std::vector<uint32_t> PlanStack;
};

} // namespace

GenResult constraints::generateConstraints(const RegionProgram &Prog,
                                           closure::ClosureAnalysis &CA,
                                           const GenOptions &Options) {
  GenResult Out;
  Generator G(Prog, CA, Options, Out);
  G.run();
  // Finalize the emission-time union-find into CSR shard tables now, so
  // the cost lands in the generation stage (where it is measured) and the
  // solver finds the shards ready.
  auto T0 = std::chrono::steady_clock::now();
  Out.Sharding.Shards = Out.Sys.numShards();
  Out.Sharding.LargestShardConstraints = Out.Sys.largestShardConstraints();
  Out.Sharding.InternedShapes = G.numShapes();
  Out.Sharding.FinalizeSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();
  return Out;
}

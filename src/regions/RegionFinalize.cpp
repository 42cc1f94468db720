#include "regions/RegionFinalize.h"

#include <algorithm>
#include <set>

using namespace afl;
using namespace afl::regions;

namespace {

class Finalizer {
public:
  Finalizer(RegionProgram &Prog,
            const std::unordered_map<RNodeId, RSubst> &RegAppSubst)
      : Prog(Prog), RegAppSubst(RegAppSubst) {}

  /// Finalizes one placement domain at a time: the program top level, then
  /// each lambda body and letrec fnBody inside it. One preorder walk per
  /// domain canonicalizes the nodes' annotations and records each node's
  /// in-domain parent; placement, overall effects and masked effects then
  /// read those arrays. Regions bound in a domain, and a letrec's formals
  /// around its fnBody, are in scope for the domains nested inside. Every
  /// walk uses an explicit stack.
  void run() {
    canonicalizeGlobals();
    InScope.assign(Prog.Types.numRegionVars(), 0);
    for (RegionVarId G : Prog.GlobalRegions)
      InScope[G] = 1;
    First.assign(InScope.size(), NoNode);
    Last.assign(InScope.size(), NoNode);

    Work.push_back({Prog.Root, nullptr, {}});
    while (!Work.empty()) {
      Task T = std::move(Work.back());
      Work.pop_back();
      if (!T.Body) {
        for (auto [R, Old] : T.Restore)
          InScope[R] = Old;
        continue;
      }
      std::vector<std::pair<RegionVarId, char>> Restore;
      if (const auto *Rec = T.Binder ? dyn_cast<RLetrecExpr>(T.Binder)
                                     : nullptr)
        for (RegionVarId F : Rec->formals()) {
          Restore.push_back({F, InScope[F]});
          InScope[F] = 1;
        }
      collectDomain(T.Body);
      placeRegions(Restore);
      fillOverallEffects(T.Binder);
      fillEffects();

      Work.push_back({nullptr, nullptr, std::move(Restore)});
      for (auto It = Inner.rbegin(); It != Inner.rend(); ++It)
        Work.push_back(std::move(*It));
    }
  }

private:
  static constexpr uint32_t NoNode = ~0u;

  /// A task enters a domain (Body set; Binder is the lambda or letrec whose
  /// body it is, null at top level) or leaves one (Body null; Restore
  /// undoes what entering put in scope).
  struct Task {
    const RExpr *Body;
    const RExpr *Binder;
    std::vector<std::pair<RegionVarId, char>> Restore;
  };

  RegionVarId canon(RegionVarId R) const { return Prog.Types.findRegion(R); }

  void canonicalizeGlobals() {
    std::set<RegionVarId> G;
    for (RegionVarId R : Prog.GlobalRegions)
      G.insert(canon(R));
    Prog.GlobalRegions.assign(G.begin(), G.end());
  }

  /// The (canonical) regions the latent effect of arrow type \p Arrow may
  /// touch.
  std::set<RegionVarId> latentRegions(RTypeId Arrow) const {
    EffectSet Probe;
    Probe.EffectVars.insert(Prog.Types.arrowEffect(Arrow));
    return Prog.Types.regionsOf(Probe);
  }

  static RegionSet toRegionSet(const std::set<RegionVarId> &S) {
    return RegionSet::fromSorted(std::vector<RegionVarId>(S.begin(), S.end()));
  }

  //===------------------------------------------------------------------===//
  // The domain walk: canonical annotations, preorder and parents.
  //===------------------------------------------------------------------===//

  /// Rewrites \p N's region annotations to canonical ids: write and read
  /// regions, letrec formals, region-application actuals, and the free
  /// regions of lambdas and letrecs. The callee of a region application is
  /// an earlier preorder ancestor, so its formals are already canonical.
  void canonicalize(RExpr *N) {
    if (N->hasWriteRegion())
      N->setWriteRegion(canon(N->writeRegion()));
    for (RegionVarId &R : N->readRegionsMut())
      R = canon(R);

    switch (N->kind()) {
    case RExpr::Kind::Letrec: {
      auto *L = static_cast<RLetrecExpr *>(N);
      std::set<RegionVarId> Seen;
      std::vector<RegionVarId> Formals;
      for (RegionVarId R : L->formals()) {
        RegionVarId C = canon(R);
        // Unification may have merged two formals (the function is then
        // used with aliased actuals everywhere); keep one copy.
        if (Seen.insert(C).second)
          Formals.push_back(C);
      }
      L->formalsMut() = Formals;

      // Free regions of the recursive function's body, excluding formals
      // and the scheme arrow's own box region (a per-use placeholder that
      // is substituted fresh at every region application and never
      // mentioned by any environment).
      std::set<RegionVarId> Free;
      Prog.Types.freeRegionVars(Prog.varInfo(L->fn()).Type, Free);
      Free.insert(N->writeRegion());
      for (RegionVarId F : Formals)
        Free.erase(F);
      Free.erase(Prog.Types.regionOf(Prog.varInfo(L->fn()).Type));
      L->freeRegionsMut() = toRegionSet(Free);
      return;
    }
    case RExpr::Kind::RegApp: {
      auto *RA = static_cast<RRegAppExpr *>(N);
      auto It = RegAppSubst.find(N->id());
      assert(It != RegAppSubst.end() && "region application without subst");
      const RSubst &Subst = It->second;
      const RLetrecExpr *Callee = Prog.varInfo(RA->fn()).Letrec;
      assert(Callee && "region application of a non-letrec variable");
      std::vector<RegionVarId> Actuals;
      for (RegionVarId Formal : Callee->formals()) {
        RegionVarId Image = Formal;
        for (const auto &[From, To] : Subst.Regions) {
          if (canon(From) == Formal) {
            Image = To;
            break;
          }
        }
        Actuals.push_back(canon(Image));
      }
      RA->actualsMut() = Actuals;
      return;
    }
    case RExpr::Kind::Lambda: {
      std::set<RegionVarId> Free;
      Prog.Types.freeRegionVars(N->type(), Free);
      static_cast<RLambdaExpr *>(N)->freeRegionsMut() = toRegionSet(Free);
      return;
    }
    default:
      return;
    }
  }

  /// Regions this node itself mentions (its own memory operations, its
  /// value's type, region-application actuals; for letrec nodes also the
  /// scheme minus formals).
  std::set<RegionVarId> ownMentions(const RExpr *N) const {
    std::set<RegionVarId> Out;
    if (N->hasWriteRegion())
      Out.insert(N->writeRegion());
    for (RegionVarId R : N->readRegions())
      Out.insert(R);
    Prog.Types.freeRegionVars(N->type(), Out);
    if (const auto *RA = dyn_cast<RRegAppExpr>(N))
      for (RegionVarId R : RA->actuals())
        Out.insert(R);
    if (const auto *L = dyn_cast<RLetrecExpr>(N)) {
      std::set<RegionVarId> Scheme;
      Prog.Types.freeRegionVars(Prog.varInfo(L->fn()).Type, Scheme);
      for (RegionVarId F : L->formals())
        Scheme.erase(F);
      // The scheme arrow's box region is a per-use placeholder; it is
      // not a mention (nothing binds or accesses it).
      Scheme.erase(Prog.Types.regionOf(Prog.varInfo(L->fn()).Type));
      Out.insert(Scheme.begin(), Scheme.end());
    }
    // Lambda free regions already flow in through the type (the latent
    // effect is part of frv of the arrow). The node's annotations are
    // canonical by now, and frv yields canonical ids.
    return Out;
  }

  /// Numbers the domain rooted at \p Body in preorder (Nodes, Parent),
  /// canonicalizing each node as it is reached, records the first and last
  /// own-mention site of each region not yet in scope, and queues the
  /// domains nested inside (Inner).
  void collectDomain(const RExpr *Body) {
    Nodes.clear();
    Parent.clear();
    Locals.clear();
    Inner.clear();
    Stack.push_back({Body, NoNode});
    while (!Stack.empty()) {
      auto [N, P] = Stack.back();
      Stack.pop_back();
      uint32_t I = Nodes.size();
      RExpr *M = Prog.nodeMut(N->id());
      Nodes.push_back(M);
      Parent.push_back(P);
      canonicalize(M);
      for (RegionVarId R : ownMentions(N)) {
        if (InScope[R])
          continue;
        if (First[R] == NoNode) {
          First[R] = I;
          Locals.push_back(R);
        }
        Last[R] = I;
      }
      // A lambda body or letrec fnBody starts a domain of its own.
      const RExpr *Nested = nullptr;
      if (const auto *Lam = dyn_cast<RLambdaExpr>(N))
        Nested = Lam->body();
      else if (const auto *Rec = dyn_cast<RLetrecExpr>(N))
        Nested = Rec->fnBody();
      if (Nested)
        Inner.push_back({Nested, N, {}});
      for (const RExpr *C : childrenOf(N))
        if (C && C != Nested)
          Stack.push_back({C, I});
    }
  }

  //===------------------------------------------------------------------===//
  // Letregion placement.
  //===------------------------------------------------------------------===//

  bool inValueType(const RExpr *N, RegionVarId R) const {
    std::set<RegionVarId> Type;
    Prog.Types.freeRegionVars(N->type(), Type);
    return Type.count(R);
  }

  /// Binds each region the domain mentions that is not yet in scope at the
  /// lowest common ancestor (LCA) of the in-domain nodes that own-mention
  /// it. A letregion may not bind a region of its own value's type, so when
  /// the region is in the LCA's value type it is bound at the LCA's parent
  /// instead; the domain root, which has no parent, binds it itself. Nodes
  /// are numbered in preorder, so a parent's number is below its
  /// children's and a subtree's numbers are one interval: the LCA of a
  /// region's sites is the first ancestor of its last site numbered at
  /// most its first site. Each bound region is put in scope and recorded
  /// in \p Restore.
  void placeRegions(std::vector<std::pair<RegionVarId, char>> &Restore) {
    // Binding in ascending region order keeps each binder list sorted.
    std::sort(Locals.begin(), Locals.end());
    for (RegionVarId R : Locals) {
      uint32_t A = Last[R];
      while (A > First[R])
        A = Parent[A];
      First[R] = Last[R] = NoNode;
      if (A != 0 && inValueType(Nodes[A], R))
        A = Parent[A];
      Nodes[A]->boundRegionsMut().push_back(R);
      InScope[R] = 1;
      Restore.push_back({R, 0});
    }
  }

  //===------------------------------------------------------------------===//
  // Overall effects (§4.2) and letregion-masked effects.
  //===------------------------------------------------------------------===//

  /// Gives each node of the domain its overall effect: the domain root gets
  /// the ambient set (the globals at top level, the latent regions of the
  /// lambda's or letrec's arrow for a body) plus its own binders; a node
  /// that binds nothing shares its parent's set; a binder gets a new set,
  /// its parent's merged with its own binders.
  void fillOverallEffects(const RExpr *Binder) {
    RegionSet Ambient;
    if (!Binder)
      Ambient = RegionSet::fromSorted(Prog.GlobalRegions);
    else if (const auto *Rec = dyn_cast<RLetrecExpr>(Binder))
      Ambient = toRegionSet(latentRegions(Prog.varInfo(Rec->fn()).Type));
    else
      Ambient = toRegionSet(latentRegions(Binder->type()));
    for (uint32_t I = 0; I != Nodes.size(); ++I) {
      RExpr *N = Nodes[I];
      const std::vector<RegionVarId> &Bound = N->boundRegions();
      if (I != 0 && Bound.empty()) {
        N->setOverallEffect(&Nodes[Parent[I]]->overallEffect());
        continue;
      }
      RegionSet S = I == 0 ? std::move(Ambient)
                           : Nodes[Parent[I]]->overallEffect();
      S.unionWith(RegionSet::fromSorted(Bound));
      N->setOverallEffect(&Prog.OverallEffects.emplace_back(std::move(S)));
    }
  }

  /// Fills every node's masked effect in reverse preorder, children before
  /// parents: effect(N) = self(N) ∪ ⋃ (effect(c) \ bound(c)) over N's
  /// in-domain children c, where self(N) is N's write and read regions
  /// and, at an application, the latent regions of the function's arrow.
  void fillEffects() {
    Pending.resize(Nodes.size());
    for (uint32_t I = Nodes.size(); I-- != 0;) {
      RExpr *N = Nodes[I];
      std::vector<RegionVarId> &E = Pending[I];
      if (N->hasWriteRegion())
        E.push_back(N->writeRegion());
      E.insert(E.end(), N->readRegions().begin(), N->readRegions().end());
      if (const auto *A = dyn_cast<RAppExpr>(N))
        for (RegionVarId R : latentRegions(A->fn()->type()))
          E.push_back(R);
      std::sort(E.begin(), E.end());
      E.erase(std::unique(E.begin(), E.end()), E.end());
      if (I != 0) {
        const std::vector<RegionVarId> &Bound = N->boundRegions();
        std::vector<RegionVarId> &Up = Pending[Parent[I]];
        std::set_difference(E.begin(), E.end(), Bound.begin(), Bound.end(),
                            std::back_inserter(Up));
      }
      N->effectMut() = RegionSet::fromSorted(std::move(E));
      E = {};
    }
  }

  RegionProgram &Prog;
  const std::unordered_map<RNodeId, RSubst> &RegAppSubst;

  std::vector<char> InScope;
  std::vector<Task> Work;

  // Per-domain scratch, indexed by preorder number (Nodes, Parent, Pending)
  // or by region (First, Last: the first and last own-mention site of a
  // region not yet in scope).
  std::vector<RExpr *> Nodes;
  std::vector<uint32_t> Parent;
  std::vector<std::vector<RegionVarId>> Pending;
  std::vector<RegionVarId> Locals;
  std::vector<uint32_t> First, Last;
  std::vector<std::pair<const RExpr *, uint32_t>> Stack;
  std::vector<Task> Inner;
};

} // namespace

void regions::finalizeRegionProgram(
    RegionProgram &Prog,
    const std::unordered_map<RNodeId, RSubst> &RegAppSubst) {
  Finalizer(Prog, RegAppSubst).run();
}

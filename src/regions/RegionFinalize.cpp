#include "regions/RegionFinalize.h"

#include <algorithm>
#include <map>
#include <optional>

using namespace afl;
using namespace afl::regions;

namespace {

/// Appends the children of \p N that belong to the *same placement domain*
/// (i.e., everything except lambda bodies and letrec function bodies,
/// which start their own domains).
void inDomainChildren(const RExpr *N, std::vector<const RExpr *> &Out) {
  switch (N->kind()) {
  case RExpr::Kind::Int:
  case RExpr::Kind::Bool:
  case RExpr::Kind::Unit:
  case RExpr::Kind::Var:
  case RExpr::Kind::Nil:
  case RExpr::Kind::RegApp:
  case RExpr::Kind::Lambda: // body is a separate domain
    return;
  case RExpr::Kind::App: {
    const auto *A = cast<RAppExpr>(N);
    Out.push_back(A->fn());
    Out.push_back(A->arg());
    return;
  }
  case RExpr::Kind::Let: {
    const auto *L = cast<RLetExpr>(N);
    Out.push_back(L->init());
    Out.push_back(L->body());
    return;
  }
  case RExpr::Kind::Letrec: {
    // fnBody is a separate domain; the in-scope continuation is same-domain.
    Out.push_back(cast<RLetrecExpr>(N)->body());
    return;
  }
  case RExpr::Kind::If: {
    const auto *I = cast<RIfExpr>(N);
    Out.push_back(I->cond());
    Out.push_back(I->thenExpr());
    Out.push_back(I->elseExpr());
    return;
  }
  case RExpr::Kind::Pair: {
    const auto *P = cast<RPairExpr>(N);
    Out.push_back(P->first());
    Out.push_back(P->second());
    return;
  }
  case RExpr::Kind::Cons: {
    const auto *C = cast<RConsExpr>(N);
    Out.push_back(C->head());
    Out.push_back(C->tail());
    return;
  }
  case RExpr::Kind::UnOp:
    Out.push_back(cast<RUnOpExpr>(N)->operand());
    return;
  case RExpr::Kind::BinOp: {
    const auto *B = cast<RBinOpExpr>(N);
    Out.push_back(B->lhs());
    Out.push_back(B->rhs());
    return;
  }
  }
}

class Finalizer {
public:
  Finalizer(RegionProgram &Prog, std::vector<EffectSet> &RawEff,
            const std::unordered_map<RNodeId, RSubst> &RegAppSubst)
      : Prog(Prog), RawEff(RawEff), RegAppSubst(RegAppSubst) {}

  void run() {
    canonicalizeGlobals();
    resolveNode(Prog.nodeMut(Prog.Root->id()));
    std::set<RegionVarId> OuterBound(Prog.GlobalRegions.begin(),
                                     Prog.GlobalRegions.end());
    placeDomain(Prog.Root, OuterBound);
    std::set<RegionVarId> RootAmbient(Prog.GlobalRegions.begin(),
                                      Prog.GlobalRegions.end());
    walkOverall(Prog.nodeMut(Prog.Root->id()), RootAmbient);
  }

private:
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

  //===------------------------------------------------------------------===//
  // Pass 1: canonicalize node annotations, resolve effects and actuals.
  //===------------------------------------------------------------------===//

  void resolveNode(RExpr *N) {
    // Write/read regions.
    if (N->hasWriteRegion())
      N->setWriteRegion(canon(N->writeRegion()));
    for (RegionVarId &R : N->readRegionsMut())
      R = canon(R);

    // Resolved cumulative effect.
    if (N->id() < RawEff.size())
      N->effectMut() = Prog.Types.regionsOf(RawEff[N->id()]);

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
      resolveNode(Prog.nodeMut(L->fnBody()->id()));
      resolveNode(Prog.nodeMut(L->body()->id()));

      // Free regions of the recursive function's body, excluding formals
      // and the scheme arrow's own box region (a per-use placeholder that
      // is substituted fresh at every region application and never
      // mentioned by any environment).
      std::set<RegionVarId> Free;
      Prog.Types.freeRegionVars(Prog.varInfo(L->fn()).Type, Free);
      Free.insert(canon(N->writeRegion()));
      for (RegionVarId F : Formals)
        Free.erase(F);
      Free.erase(Prog.Types.regionOf(Prog.varInfo(L->fn()).Type));
      L->freeRegionsMut() = Free;
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
      auto *L = static_cast<RLambdaExpr *>(N);
      resolveNode(Prog.nodeMut(L->body()->id()));
      std::set<RegionVarId> Free;
      Prog.Types.freeRegionVars(N->type(), Free);
      L->freeRegionsMut() = Free;
      return;
    }
    default:
      break;
    }

    std::vector<const RExpr *> Children;
    inDomainChildren(N, Children);
    for (const RExpr *C : Children)
      resolveNode(Prog.nodeMut(C->id()));
  }

  //===------------------------------------------------------------------===//
  // Pass 2: letregion placement.
  //===------------------------------------------------------------------===//

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
    // effect is part of frv of the arrow).
    std::set<RegionVarId> Canon;
    for (RegionVarId R : Out)
      Canon.insert(canon(R));
    return Canon;
  }

  /// All regions mentioned within \p N's subtree, staying inside the
  /// placement domain (memoized).
  const std::set<RegionVarId> &mentioned(const RExpr *N) {
    auto It = MentionedMemo.find(N->id());
    if (It != MentionedMemo.end())
      return It->second;
    std::set<RegionVarId> M = ownMentions(N);
    std::vector<const RExpr *> Children;
    inDomainChildren(N, Children);
    for (const RExpr *C : Children) {
      const std::set<RegionVarId> &MC = mentioned(C);
      M.insert(MC.begin(), MC.end());
    }
    return MentionedMemo.emplace(N->id(), std::move(M)).first->second;
  }

  /// LCA placement of \p ToPlace within the subtree rooted at \p N.
  /// Invariant: every region in \p ToPlace is mentioned only inside \p N's
  /// subtree and does not occur in \p N's value type.
  void place(const RExpr *N, const std::set<RegionVarId> &ToPlace) {
    if (ToPlace.empty())
      return;
    std::vector<const RExpr *> Children;
    inDomainChildren(N, Children);
    std::set<RegionVarId> Own = ownMentions(N);
    // Per node, not per region: the children's mention sets, and each
    // child's canonical type regions, computed the first time a region
    // could be pushed into that child.
    std::vector<const std::set<RegionVarId> *> ChildMentions;
    for (const RExpr *C : Children)
      ChildMentions.push_back(&mentioned(C));
    std::vector<std::optional<std::set<RegionVarId>>> ChildTypeRegions(
        Children.size());
    auto TypeRegions = [&](size_t I) -> const std::set<RegionVarId> & {
      if (!ChildTypeRegions[I]) {
        std::set<RegionVarId> Raw, Canon;
        Prog.Types.freeRegionVars(Children[I]->type(), Raw);
        for (RegionVarId T : Raw)
          Canon.insert(canon(T));
        ChildTypeRegions[I] = std::move(Canon);
      }
      return *ChildTypeRegions[I];
    };
    std::map<const RExpr *, std::set<RegionVarId>> Pushed;
    std::vector<RegionVarId> BindHere;
    constexpr size_t NoChild = static_cast<size_t>(-1);
    for (RegionVarId R : ToPlace) {
      size_t Target = NoChild;
      bool Multi = false;
      for (size_t I = 0; I != Children.size(); ++I) {
        if (ChildMentions[I]->count(R)) {
          if (Target != NoChild)
            Multi = true;
          Target = I;
        }
      }
      bool CanPush = Target != NoChild && !Multi && !Own.count(R) &&
                     !TypeRegions(Target).count(R);
      if (CanPush)
        Pushed[Children[Target]].insert(R);
      else
        BindHere.push_back(R);
    }
    if (!BindHere.empty()) {
      std::sort(BindHere.begin(), BindHere.end());
      RExpr *Mut = Prog.nodeMut(N->id());
      for (RegionVarId R : BindHere)
        Mut->boundRegionsMut().push_back(R);
    }
    for (const auto &[Child, S] : Pushed)
      place(Child, S);
  }

  void placeDomain(const RExpr *Body, const std::set<RegionVarId> &OuterBound) {
    MentionedMemo.clear();
    std::set<RegionVarId> Locals;
    for (RegionVarId R : mentioned(Body))
      if (!OuterBound.count(R))
        Locals.insert(R);
    place(Body, Locals);

    std::set<RegionVarId> NewBound = OuterBound;
    Locals.insert(NewBound.begin(), NewBound.end());
    std::swap(Locals, NewBound);

    // Recurse into inner domains. Collect them first: MentionedMemo is
    // cleared per domain, so finish this domain's work before recursing.
    std::vector<const RExpr *> InnerBodies;
    std::vector<std::set<RegionVarId>> InnerBounds;
    collectInnerDomains(Body, NewBound, InnerBodies, InnerBounds);
    for (size_t I = 0; I != InnerBodies.size(); ++I)
      placeDomain(InnerBodies[I], InnerBounds[I]);
  }

  void collectInnerDomains(const RExpr *N, const std::set<RegionVarId> &Bound,
                           std::vector<const RExpr *> &Bodies,
                           std::vector<std::set<RegionVarId>> &Bounds) {
    if (const auto *L = dyn_cast<RLambdaExpr>(N)) {
      Bodies.push_back(L->body());
      Bounds.push_back(Bound);
      return;
    }
    if (const auto *L = dyn_cast<RLetrecExpr>(N)) {
      std::set<RegionVarId> B = Bound;
      for (RegionVarId F : L->formals())
        B.insert(F);
      Bodies.push_back(L->fnBody());
      Bounds.push_back(std::move(B));
      collectInnerDomains(L->body(), Bound, Bodies, Bounds);
      return;
    }
    std::vector<const RExpr *> Children;
    inDomainChildren(N, Children);
    for (const RExpr *C : Children)
      collectInnerDomains(C, Bound, Bodies, Bounds);
  }

  //===------------------------------------------------------------------===//
  // Pass 3: overall effects.
  //===------------------------------------------------------------------===//

  void walkOverall(RExpr *N, const std::set<RegionVarId> &Ambient) {
    std::set<RegionVarId> Amb = Ambient;
    for (RegionVarId R : N->boundRegions())
      Amb.insert(R);
    N->overallEffectMut() = Amb;

    if (auto *L = dyn_cast<RLambdaExpr>(N)) {
      walkOverall(Prog.nodeMut(L->body()->id()), latentRegions(N->type()));
      return;
    }
    if (auto *L = dyn_cast<RLetrecExpr>(N)) {
      walkOverall(Prog.nodeMut(L->fnBody()->id()),
                  latentRegions(Prog.varInfo(L->fn()).Type));
      walkOverall(Prog.nodeMut(L->body()->id()), Amb);
      return;
    }
    std::vector<const RExpr *> Children;
    inDomainChildren(N, Children);
    for (const RExpr *C : Children)
      walkOverall(Prog.nodeMut(C->id()), Amb);
  }

  RegionProgram &Prog;
  std::vector<EffectSet> &RawEff;
  const std::unordered_map<RNodeId, RSubst> &RegAppSubst;
  std::unordered_map<RNodeId, std::set<RegionVarId>> MentionedMemo;
};

} // namespace

void regions::finalizeRegionProgram(
    RegionProgram &Prog, std::vector<EffectSet> &RawEff,
    const std::unordered_map<RNodeId, RSubst> &RegAppSubst) {
  Finalizer F(Prog, RawEff, RegAppSubst);
  F.run();
}

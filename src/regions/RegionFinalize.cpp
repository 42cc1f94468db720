#include "regions/RegionFinalize.h"

#include <algorithm>

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
    placeRegions();
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
    // effect is part of frv of the arrow). Pass 1 left every annotation
    // canonical, and frv yields canonical ids.
    return Out;
  }

  bool inValueType(const RExpr *N, RegionVarId R) const {
    std::set<RegionVarId> Type;
    Prog.Types.freeRegionVars(N->type(), Type);
    return Type.count(R);
  }

  /// Places every letregion, one placement domain at a time: the program
  /// top level, then each lambda body and letrec fnBody inside it. A region
  /// a domain mentions that is not yet in scope is bound at the lowest
  /// common ancestor (LCA) of the in-domain nodes that own-mention it. A
  /// letregion may not bind a region of its own value's type, so when the
  /// region is in the LCA's value type it is bound at the LCA's parent
  /// instead; the domain root, which has no parent, binds it itself. Regions
  /// bound in a domain, and a letrec's formals around its fnBody, are in
  /// scope for the domains nested inside. Both walks use explicit stacks.
  void placeRegions() {
    constexpr uint32_t NoNode = ~0u;
    const uint32_t NumRegions = Prog.Types.numRegionVars();
    std::vector<char> InScope(NumRegions, 0);
    for (RegionVarId G : Prog.GlobalRegions)
      InScope[G] = 1;

    // A task enters a domain (Body set; Formals put in scope around it) or
    // leaves one (Body null; Restore undoes what entering put in scope).
    struct Task {
      const RExpr *Body;
      const std::vector<RegionVarId> *Formals;
      std::vector<std::pair<RegionVarId, char>> Restore;
    };
    std::vector<Task> Work;
    Work.push_back({Prog.Root, nullptr, {}});

    // Per-domain scratch. Nodes are numbered in preorder, so a parent's
    // number is below its children's and a subtree's numbers are one
    // interval. The LCA of a region's sites is then the first ancestor of
    // its last site numbered at most its first site: each region keeps
    // only those two sites.
    std::vector<const RExpr *> Nodes;
    std::vector<uint32_t> Parent;
    std::vector<RegionVarId> Locals;
    std::vector<uint32_t> First(NumRegions, NoNode), Last(NumRegions, NoNode);
    std::vector<std::pair<const RExpr *, uint32_t>> Stack;
    std::vector<const RExpr *> Children;
    std::vector<Task> Inner;

    while (!Work.empty()) {
      Task T = std::move(Work.back());
      Work.pop_back();
      if (!T.Body) {
        for (auto [R, Old] : T.Restore)
          InScope[R] = Old;
        continue;
      }
      std::vector<std::pair<RegionVarId, char>> Restore;
      if (T.Formals)
        for (RegionVarId F : *T.Formals) {
          Restore.push_back({F, InScope[F]});
          InScope[F] = 1;
        }

      Nodes.clear();
      Parent.clear();
      Locals.clear();
      Inner.clear();
      Stack.push_back({T.Body, NoNode});
      while (!Stack.empty()) {
        auto [N, P] = Stack.back();
        Stack.pop_back();
        uint32_t I = Nodes.size();
        Nodes.push_back(N);
        Parent.push_back(P);
        for (RegionVarId R : ownMentions(N)) {
          if (InScope[R])
            continue;
          if (First[R] == NoNode) {
            First[R] = I;
            Locals.push_back(R);
          }
          Last[R] = I;
        }
        if (const auto *Lam = dyn_cast<RLambdaExpr>(N))
          Inner.push_back({Lam->body(), nullptr, {}});
        else if (const auto *Rec = dyn_cast<RLetrecExpr>(N))
          Inner.push_back({Rec->fnBody(), &Rec->formals(), {}});
        Children.clear();
        inDomainChildren(N, Children);
        for (const RExpr *C : Children)
          Stack.push_back({C, I});
      }

      // Binding in ascending region order keeps each binder list sorted.
      std::sort(Locals.begin(), Locals.end());
      for (RegionVarId R : Locals) {
        uint32_t A = Last[R];
        while (A > First[R])
          A = Parent[A];
        First[R] = Last[R] = NoNode;
        if (A != 0 && inValueType(Nodes[A], R))
          A = Parent[A];
        Prog.nodeMut(Nodes[A]->id())->boundRegionsMut().push_back(R);
        InScope[R] = 1;
        Restore.push_back({R, 0});
      }

      Work.push_back({nullptr, nullptr, std::move(Restore)});
      for (auto It = Inner.rbegin(); It != Inner.rend(); ++It)
        Work.push_back(std::move(*It));
    }
  }

  //===------------------------------------------------------------------===//
  // Pass 3: overall effects.
  //===------------------------------------------------------------------===//

  void walkOverall(RExpr *N, const std::set<RegionVarId> &Ambient) {
    std::set<RegionVarId> &Amb = N->overallEffectMut();
    Amb = Ambient;
    Amb.insert(N->boundRegions().begin(), N->boundRegions().end());

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
};

} // namespace

void regions::finalizeRegionProgram(
    RegionProgram &Prog, std::vector<EffectSet> &RawEff,
    const std::unordered_map<RNodeId, RSubst> &RegAppSubst) {
  Finalizer F(Prog, RawEff, RegAppSubst);
  F.run();
}

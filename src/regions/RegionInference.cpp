#include "regions/RegionInference.h"

#include "regions/RegionFinalize.h"

#include "ast/ASTContext.h"
#include "ast/Expr.h"

#include <algorithm>
#include <map>
#include <unordered_map>

using namespace afl;
using namespace afl::regions;

namespace {

/// Region-polymorphic type scheme of a letrec-bound function.
struct FunDecl {
  VarId Var = 0;
  /// The arrow μ of the scheme. Its box region plays the role of the
  /// per-use "@ρ" of a region application and is always instantiated
  /// fresh.
  RTypeId SchemeArrow = 0;
  /// ρf: the region holding the region-polymorphic closure itself.
  RegionVarId ClosRegion = 0;
  /// Environment prefix length at the letrec (bindings visible *outside*
  /// f), used to compute the quantifiable variables.
  size_t EnvDepth = 0;
  /// Final ordered formal region parameters (canonical ids), fixed after
  /// the fixpoint completes.
  std::vector<RegionVarId> Formals;
  bool FormalsFixed = false;
};

/// One environment binding.
struct Binding {
  Symbol Name;
  VarId Var = 0;
  RTypeId Type = 0;
  FunDecl *Fun = nullptr; // non-null iff letrec-bound function
};

/// Result of inferring one expression.
struct Res {
  RExpr *Node = nullptr;
  RTypeId Type = 0;
  EffectSet Eff;
};

class RegionInferencer {
public:
  RegionInferencer(RegionProgram &Prog, const ast::ASTContext &Ctx,
                   const types::TypedProgram &Typed, DiagnosticEngine &Diags)
      : Prog(Prog), Ctx(Ctx), Typed(Typed), Diags(Diags) {}

  bool run(const ast::Expr *Root);

  /// Instantiation substitution per region-application node.
  std::unordered_map<RNodeId, RSubst> RegAppSubst;

private:
  RTypeTable &types() { return Prog.Types; }

  Res infer(const ast::Expr *E);
  Res inferVar(const ast::VarExpr *E);
  Res inferLetrec(const ast::LetrecExpr *E);

  /// Sets \p N's type and returns the Res.
  Res finish(RExpr *N, RTypeId Type, EffectSet Eff) {
    N->setType(Type);
    return {N, Type, std::move(Eff)};
  }

  /// Unions \p From into \p Into by splicing the smaller set's nodes into
  /// the larger one: each region moves O(log n) times up a long chain.
  static void absorb(EffectSet &Into, EffectSet &&From) {
    if (Into.Regions.size() < From.Regions.size())
      Into.Regions.swap(From.Regions);
    Into.Regions.merge(From.Regions);
    if (Into.EffectVars.size() < From.EffectVars.size())
      Into.EffectVars.swap(From.EffectVars);
    Into.EffectVars.merge(From.EffectVars);
  }

  /// Free region variables of the first \p Depth environment bindings
  /// (entire environment if SIZE_MAX).
  std::set<RegionVarId> frvTE(size_t Depth) const;
  std::set<EffectVarId> fevTE(size_t Depth) const;

  /// Computes the observable part of a function body's effect and merges
  /// it into the arrow effect \p Eps. Regions of \p BodyEff outside
  /// \p Observable stay latent-local (letregion placement binds them
  /// inside the body later).
  bool pruneIntoArrowEffect(EffectVarId Eps, const EffectSet &BodyEff,
                            const std::set<RegionVarId> &Observable,
                            const std::set<EffectVarId> &ObservableEffects);

  /// Deterministic fingerprint of a scheme's region/effect structure, used
  /// to detect the polymorphic-recursion fixpoint.
  std::string fingerprint(RTypeId T) const;
  void fingerprintAppend(RTypeId T, std::string &Out) const;

  RegionProgram &Prog;
  const ast::ASTContext &Ctx;
  const types::TypedProgram &Typed;
  DiagnosticEngine &Diags;
  std::vector<Binding> Env;
  /// Keeps FunDecls alive for the whole run (Env holds raw pointers).
  std::vector<std::unique_ptr<FunDecl>> FunDecls;
  static constexpr unsigned MaxFixpointIters = 64;
};

} // namespace

std::set<RegionVarId> RegionInferencer::frvTE(size_t Depth) const {
  std::set<RegionVarId> Out;
  size_t N = std::min(Depth, Env.size());
  for (size_t I = 0; I != N; ++I) {
    Prog.Types.freeRegionVars(Env[I].Type, Out);
    if (Env[I].Fun)
      Out.insert(Prog.Types.findRegion(Env[I].Fun->ClosRegion));
  }
  return Out;
}

std::set<EffectVarId> RegionInferencer::fevTE(size_t Depth) const {
  std::set<EffectVarId> Out;
  size_t N = std::min(Depth, Env.size());
  for (size_t I = 0; I != N; ++I)
    Prog.Types.freeEffectVars(Env[I].Type, Out);
  return Out;
}

bool RegionInferencer::pruneIntoArrowEffect(
    EffectVarId Eps, const EffectSet &BodyEff,
    const std::set<RegionVarId> &Observable,
    const std::set<EffectVarId> &ObservableEffects) {
  EffectSet Phi;
  for (RegionVarId R : types().regionsOf(BodyEff))
    if (Observable.count(R))
      Phi.Regions.insert(R);
  for (EffectVarId E : BodyEff.EffectVars)
    if (ObservableEffects.count(types().findEffectVar(E)))
      Phi.EffectVars.insert(types().findEffectVar(E));
  return types().addToEffectVar(Eps, Phi);
}

void RegionInferencer::fingerprintAppend(RTypeId T, std::string &Out) const {
  const RTypeTable &TT = Prog.Types;
  Out += static_cast<char>('A' + static_cast<int>(TT.kind(T)));
  Out += std::to_string(TT.regionOf(T));
  Out += ';';
  switch (TT.kind(T)) {
  case RTypeKind::Int:
  case RTypeKind::Bool:
  case RTypeKind::Unit:
    return;
  case RTypeKind::Pair:
    fingerprintAppend(TT.child0(T), Out);
    fingerprintAppend(TT.child1(T), Out);
    return;
  case RTypeKind::List:
    fingerprintAppend(TT.child0(T), Out);
    return;
  case RTypeKind::Arrow: {
    EffectSet Probe;
    Probe.EffectVars.insert(TT.arrowEffect(T));
    Out += '{';
    for (RegionVarId R : TT.regionsOf(Probe)) {
      Out += std::to_string(R);
      Out += ',';
    }
    Out += '}';
    fingerprintAppend(TT.child0(T), Out);
    fingerprintAppend(TT.child1(T), Out);
    return;
  }
  }
}

std::string RegionInferencer::fingerprint(RTypeId T) const {
  std::string Out;
  fingerprintAppend(T, Out);
  return Out;
}

Res RegionInferencer::inferVar(const ast::VarExpr *E) {
  for (auto It = Env.rbegin(), End = Env.rend(); It != End; ++It) {
    if (It->Name != E->name())
      continue;
    if (!It->Fun) {
      RVarExpr *N = Prog.create<RVarExpr>(It->Var);
      return finish(N, It->Type, EffectSet());
    }
    // Use of a region-polymorphic function: region application f[ρ⃗]@ρ.
    FunDecl &F = *It->Fun;
    std::set<RegionVarId> OuterR = frvTE(F.EnvDepth);
    // The region holding f's own region-polymorphic closure is bound at
    // the letrec, never quantified (the body reads it at recursive calls,
    // so it appears in the latent effect).
    OuterR.insert(types().findRegion(F.ClosRegion));
    std::set<EffectVarId> OuterE = fevTE(F.EnvDepth);
    std::set<RegionVarId> SchemeR;
    types().freeRegionVars(F.SchemeArrow, SchemeR);
    SchemeR.insert(types().regionOf(F.SchemeArrow));
    std::set<EffectVarId> SchemeE;
    types().freeEffectVars(F.SchemeArrow, SchemeE);

    RSubst Subst;
    for (RegionVarId R : SchemeR)
      if (!OuterR.count(R))
        Subst.Regions.push_back({R, types().freshRegion()});
    for (EffectVarId EV : SchemeE)
      if (!OuterE.count(EV))
        Subst.Effects.push_back({EV, types().freshEffectVar()});

    RTypeId Inst = types().instantiate(F.SchemeArrow, Subst);
    RRegAppExpr *N =
        Prog.create<RRegAppExpr>(F.Var, std::vector<RegionVarId>());
    RegAppSubst[N->id()] = Subst;
    N->setWriteRegion(types().regionOf(Inst));
    N->addReadRegion(F.ClosRegion);
    EffectSet Eff;
    Eff.Regions.insert(F.ClosRegion);
    Eff.Regions.insert(types().regionOf(Inst));
    return finish(N, Inst, std::move(Eff));
  }
  assert(false && "unbound variable survived type checking");
  return {};
}

Res RegionInferencer::inferLetrec(const ast::LetrecExpr *E) {
  // Build the initial scheme from the ML type of f.
  types::TypeId ParamMLTy = Typed.paramTypeOf(E);
  types::TypeId ResultMLTy = Typed.typeOf(E->fnBody());
  RTypeId ParamTy = types().freshFromType(Typed.Table, ParamMLTy);
  RTypeId ResultTy = types().freshFromType(Typed.Table, ResultMLTy);
  EffectVarId Eps = types().freshEffectVar();
  RTypeId SchemeArrow =
      types().mkArrow(ParamTy, Eps, ResultTy, types().freshRegion());

  auto Fun = std::make_unique<FunDecl>();
  Fun->Var = Prog.addVar(std::string(Ctx.text(E->fnName())), SchemeArrow);
  Fun->SchemeArrow = SchemeArrow;
  Fun->ClosRegion = types().freshRegion();
  Fun->EnvDepth = Env.size();
  Prog.varInfo(Fun->Var).Type = SchemeArrow;
  Env.push_back({E->fnName(), Fun->Var, SchemeArrow, Fun.get()});

  // Polymorphic-recursion fixpoint: re-infer the body (recursive uses
  // instantiate the current scheme) until the scheme stops changing.
  std::string PrevFp = fingerprint(SchemeArrow);
  Res BodyRes;
  VarId ParamVar = 0;
  bool Stable = false;
  for (unsigned Iter = 0; Iter != MaxFixpointIters; ++Iter) {
    ParamVar = Prog.addVar(std::string(Ctx.text(E->param())), ParamTy);
    Env.push_back({E->param(), ParamVar, ParamTy, nullptr});
    BodyRes = infer(E->fnBody());
    Env.pop_back();
    types().unify(BodyRes.Type, ResultTy);

    std::set<RegionVarId> Observable = frvTE(Env.size());
    types().freeRegionVars(ParamTy, Observable);
    types().freeRegionVars(ResultTy, Observable);
    std::set<EffectVarId> ObservableEffects = fevTE(Env.size());
    types().freeEffectVars(ParamTy, ObservableEffects);
    types().freeEffectVars(ResultTy, ObservableEffects);
    pruneIntoArrowEffect(Eps, BodyRes.Eff, Observable, ObservableEffects);

    std::string Fp = fingerprint(SchemeArrow);
    if (Fp == PrevFp) {
      Stable = true;
      break;
    }
    PrevFp = std::move(Fp);
  }
  if (!Stable) {
    Diags.error(E->loc(), "region inference did not reach a fixpoint for '" +
                              std::string(Ctx.text(E->fnName())) + "'");
    Env.pop_back();
    return {};
  }

  // Freeze the formal region parameters: quantified = frv(scheme) minus
  // the outer environment, minus the per-use box region of the arrow.
  std::set<RegionVarId> OuterR = frvTE(Fun->EnvDepth);
  OuterR.insert(types().findRegion(Fun->ClosRegion));
  std::set<RegionVarId> SchemeR;
  types().freeRegionVars(Fun->SchemeArrow, SchemeR);
  RegionVarId BoxRegion = types().regionOf(Fun->SchemeArrow);
  for (RegionVarId R : SchemeR)
    if (!OuterR.count(R) && R != BoxRegion)
      Fun->Formals.push_back(R);
  Fun->FormalsFixed = true;

  Res InRes = infer(E->body());
  Env.pop_back();
  if (!InRes.Node || !BodyRes.Node)
    return {};

  RLetrecExpr *N =
      Prog.create<RLetrecExpr>(Fun->Var, Fun->Formals, ParamVar, BodyRes.Node,
                               InRes.Node);
  N->setWriteRegion(Fun->ClosRegion);
  Prog.varInfo(Fun->Var).Letrec = N;
  FunDecls.push_back(std::move(Fun));

  EffectSet Eff = std::move(InRes.Eff);
  Eff.Regions.insert(FunDecls.back()->ClosRegion);
  return finish(N, InRes.Type, std::move(Eff));
}

Res RegionInferencer::infer(const ast::Expr *E) {
  using ast::Expr;
  switch (E->kind()) {
  case Expr::Kind::IntLit: {
    RegionVarId R = types().freshRegion();
    RIntExpr *N = Prog.create<RIntExpr>(ast::cast<ast::IntLitExpr>(E)->value());
    N->setWriteRegion(R);
    EffectSet Eff;
    Eff.Regions.insert(R);
    return finish(N, types().mkInt(R), std::move(Eff));
  }
  case Expr::Kind::BoolLit: {
    RegionVarId R = types().freshRegion();
    RBoolExpr *N =
        Prog.create<RBoolExpr>(ast::cast<ast::BoolLitExpr>(E)->value());
    N->setWriteRegion(R);
    EffectSet Eff;
    Eff.Regions.insert(R);
    return finish(N, types().mkBool(R), std::move(Eff));
  }
  case Expr::Kind::UnitLit: {
    RegionVarId R = types().freshRegion();
    RUnitExpr *N = Prog.create<RUnitExpr>();
    N->setWriteRegion(R);
    EffectSet Eff;
    Eff.Regions.insert(R);
    return finish(N, types().mkUnit(R), std::move(Eff));
  }
  case Expr::Kind::Var:
    return inferVar(ast::cast<ast::VarExpr>(E));
  case Expr::Kind::Lambda: {
    const auto *L = ast::cast<ast::LambdaExpr>(E);
    RTypeId ParamTy =
        types().freshFromType(Typed.Table, Typed.paramTypeOf(E));
    VarId ParamVar = Prog.addVar(std::string(Ctx.text(L->param())), ParamTy);
    Env.push_back({L->param(), ParamVar, ParamTy, nullptr});
    Res Body = infer(L->body());
    Env.pop_back();
    if (!Body.Node)
      return {};

    EffectVarId Eps = types().freshEffectVar();
    std::set<RegionVarId> Observable = frvTE(Env.size());
    types().freeRegionVars(ParamTy, Observable);
    types().freeRegionVars(Body.Type, Observable);
    std::set<EffectVarId> ObservableEffects = fevTE(Env.size());
    types().freeEffectVars(ParamTy, ObservableEffects);
    types().freeEffectVars(Body.Type, ObservableEffects);
    pruneIntoArrowEffect(Eps, Body.Eff, Observable, ObservableEffects);

    RegionVarId R = types().freshRegion();
    RTypeId Ty = types().mkArrow(ParamTy, Eps, Body.Type, R);
    RLambdaExpr *N = Prog.create<RLambdaExpr>(ParamVar, Body.Node);
    N->setWriteRegion(R);
    EffectSet Eff;
    Eff.Regions.insert(R);
    return finish(N, Ty, std::move(Eff));
  }
  case Expr::Kind::App: {
    const auto *A = ast::cast<ast::AppExpr>(E);
    Res Fn = infer(A->fn());
    if (!Fn.Node)
      return {};
    Res Arg = infer(A->arg());
    if (!Arg.Node)
      return {};
    assert(types().kind(Fn.Type) == RTypeKind::Arrow &&
           "application of non-arrow survived type checking");
    types().unify(types().child0(Fn.Type), Arg.Type);
    RTypeId ResultTy = types().child1(Fn.Type);
    RAppExpr *N = Prog.create<RAppExpr>(Fn.Node, Arg.Node);
    RegionVarId ClosR = types().regionOf(Fn.Type);
    N->addReadRegion(ClosR);
    EffectSet Eff = std::move(Fn.Eff);
    absorb(Eff, std::move(Arg.Eff));
    Eff.Regions.insert(ClosR);
    Eff.EffectVars.insert(types().arrowEffect(Fn.Type));
    return finish(N, ResultTy, std::move(Eff));
  }
  case Expr::Kind::Let: {
    const auto *L = ast::cast<ast::LetExpr>(E);
    Res Init = infer(L->init());
    if (!Init.Node)
      return {};
    VarId V = Prog.addVar(std::string(Ctx.text(L->name())), Init.Type);
    Env.push_back({L->name(), V, Init.Type, nullptr});
    Res Body = infer(L->body());
    Env.pop_back();
    if (!Body.Node)
      return {};
    RLetExpr *N = Prog.create<RLetExpr>(V, Init.Node, Body.Node);
    EffectSet Eff = std::move(Init.Eff);
    absorb(Eff, std::move(Body.Eff));
    return finish(N, Body.Type, std::move(Eff));
  }
  case Expr::Kind::Letrec:
    return inferLetrec(ast::cast<ast::LetrecExpr>(E));
  case Expr::Kind::If: {
    const auto *I = ast::cast<ast::IfExpr>(E);
    Res Cond = infer(I->cond());
    if (!Cond.Node)
      return {};
    Res Then = infer(I->thenExpr());
    if (!Then.Node)
      return {};
    Res Else = infer(I->elseExpr());
    if (!Else.Node)
      return {};
    types().unify(Then.Type, Else.Type);
    RIfExpr *N = Prog.create<RIfExpr>(Cond.Node, Then.Node, Else.Node);
    RegionVarId CondR = types().regionOf(Cond.Type);
    N->addReadRegion(CondR);
    EffectSet Eff = std::move(Cond.Eff);
    absorb(Eff, std::move(Then.Eff));
    absorb(Eff, std::move(Else.Eff));
    Eff.Regions.insert(CondR);
    return finish(N, Then.Type, std::move(Eff));
  }
  case Expr::Kind::Pair: {
    const auto *P = ast::cast<ast::PairExpr>(E);
    Res First = infer(P->first());
    if (!First.Node)
      return {};
    Res Second = infer(P->second());
    if (!Second.Node)
      return {};
    RegionVarId R = types().freshRegion();
    RTypeId Ty = types().mkPair(First.Type, Second.Type, R);
    RPairExpr *N = Prog.create<RPairExpr>(First.Node, Second.Node);
    N->setWriteRegion(R);
    EffectSet Eff = std::move(First.Eff);
    absorb(Eff, std::move(Second.Eff));
    Eff.Regions.insert(R);
    return finish(N, Ty, std::move(Eff));
  }
  case Expr::Kind::Nil: {
    RTypeId Ty = types().freshFromType(Typed.Table, Typed.typeOf(E));
    assert(types().kind(Ty) == RTypeKind::List && "nil must have list type");
    RNilExpr *N = Prog.create<RNilExpr>();
    RegionVarId R = types().regionOf(Ty);
    N->setWriteRegion(R);
    EffectSet Eff;
    Eff.Regions.insert(R);
    return finish(N, Ty, std::move(Eff));
  }
  case Expr::Kind::Cons: {
    const auto *C = ast::cast<ast::ConsExpr>(E);
    Res Head = infer(C->head());
    if (!Head.Node)
      return {};
    Res Tail = infer(C->tail());
    if (!Tail.Node)
      return {};
    assert(types().kind(Tail.Type) == RTypeKind::List && "cons of non-list");
    types().unify(types().child0(Tail.Type), Head.Type);
    RConsExpr *N = Prog.create<RConsExpr>(Head.Node, Tail.Node);
    RegionVarId SpineR = types().regionOf(Tail.Type);
    N->setWriteRegion(SpineR);
    EffectSet Eff = std::move(Head.Eff);
    absorb(Eff, std::move(Tail.Eff));
    Eff.Regions.insert(SpineR);
    return finish(N, Tail.Type, std::move(Eff));
  }
  case Expr::Kind::UnOp: {
    const auto *U = ast::cast<ast::UnOpExpr>(E);
    Res Operand = infer(U->operand());
    if (!Operand.Node)
      return {};
    RUnOpExpr *N = Prog.create<RUnOpExpr>(U->op(), Operand.Node);
    RegionVarId OpR = types().regionOf(Operand.Type);
    N->addReadRegion(OpR);
    EffectSet Eff = std::move(Operand.Eff);
    Eff.Regions.insert(OpR);
    switch (U->op()) {
    case ast::UnOpKind::Fst:
      return finish(N, types().child0(Operand.Type), std::move(Eff));
    case ast::UnOpKind::Snd:
      return finish(N, types().child1(Operand.Type), std::move(Eff));
    case ast::UnOpKind::Null: {
      RegionVarId R = types().freshRegion();
      N->setWriteRegion(R);
      Eff.Regions.insert(R);
      return finish(N, types().mkBool(R), std::move(Eff));
    }
    case ast::UnOpKind::Hd:
      return finish(N, types().child0(Operand.Type), std::move(Eff));
    case ast::UnOpKind::Tl:
      return finish(N, Operand.Type, std::move(Eff));
    }
    return {};
  }
  case Expr::Kind::BinOp: {
    const auto *B = ast::cast<ast::BinOpExpr>(E);
    Res Lhs = infer(B->lhs());
    if (!Lhs.Node)
      return {};
    Res Rhs = infer(B->rhs());
    if (!Rhs.Node)
      return {};
    RBinOpExpr *N = Prog.create<RBinOpExpr>(B->op(), Lhs.Node, Rhs.Node);
    RegionVarId LR = types().regionOf(Lhs.Type);
    RegionVarId RR = types().regionOf(Rhs.Type);
    N->addReadRegion(LR);
    N->addReadRegion(RR);
    RegionVarId ResR = types().freshRegion();
    N->setWriteRegion(ResR);
    EffectSet Eff = std::move(Lhs.Eff);
    absorb(Eff, std::move(Rhs.Eff));
    Eff.Regions.insert(LR);
    Eff.Regions.insert(RR);
    Eff.Regions.insert(ResR);
    bool IsCompare = B->op() == ast::BinOpKind::Lt ||
                     B->op() == ast::BinOpKind::Le ||
                     B->op() == ast::BinOpKind::Eq;
    RTypeId Ty =
        IsCompare ? types().mkBool(ResR) : types().mkInt(ResR);
    return finish(N, Ty, std::move(Eff));
  }
  }
  return {};
}

bool RegionInferencer::run(const ast::Expr *Root) {
  Res R = infer(Root);
  if (!R.Node)
    return false;
  Prog.Root = R.Node;
  // Globals: the regions of the program result, observed at program end.
  std::set<RegionVarId> ResultRegions;
  types().freeRegionVars(R.Type, ResultRegions);
  Prog.GlobalRegions.assign(ResultRegions.begin(), ResultRegions.end());
  return true;
}

std::unique_ptr<RegionProgram>
regions::inferRegions(const ast::Expr *Root, const ast::ASTContext &Ctx,
                      const types::TypedProgram &Typed,
                      DiagnosticEngine &Diags) {
  assert(Typed.Success && "region inference requires a typed program");
  auto Prog = std::make_unique<RegionProgram>();
  RegionInferencer Inf(*Prog, Ctx, Typed, Diags);
  if (!Inf.run(Root))
    return nullptr;
  finalizeRegionProgram(*Prog, Inf.RegAppSubst);
  return Prog;
}

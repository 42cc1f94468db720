//===----------------------------------------------------------------------===//
///
/// \file
/// The region-explicit intermediate language (paper §2, Fig. 2 syntax):
/// every value-producing expression is annotated with the region it writes
/// (@ρ), `letregion` introduces region variables, `letrec` functions are
/// region-polymorphic and used through region application `f[ρ⃗]@ρ`.
///
/// Completion operations (`alloc_before`, `alloc_after`, `free_before`,
/// `free_after`, `free_app`) are *annotations attached to nodes*, kept in a
/// separate \c Completion map so that the same IR is shared by the
/// T-T-equivalent conservative completion and the A-F-L completion.
///
/// Nodes carry the analysis results needed downstream: the region type μ,
/// the letregion-masked effect, the regions read/written by the node's own
/// evaluation step, and the "overall effect" (§4.2) that bounds where
/// choice points may change region states.
///
//===----------------------------------------------------------------------===//

#ifndef AFL_REGIONS_REGIONEXPR_H
#define AFL_REGIONS_REGIONEXPR_H

#include "ast/Expr.h"
#include "regions/RegionTypes.h"
#include "support/FlatSet.h"
#include "support/StringInterner.h"

#include <array>
#include <cstdint>
#include <vector>

namespace afl {
namespace regions {

/// Unique id of a value variable binding (alpha-renamed: one id per
/// binder). Ids index RegionProgram::Vars.
using VarId = uint32_t;

/// Dense id of an IR node within its RegionProgram.
using RNodeId = uint32_t;

/// An ascending set of canonical region variables.
using RegionSet = FlatSet<RegionVarId>;

/// Base class of region-explicit IR nodes.
class RExpr {
public:
  enum class Kind {
    Int,
    Bool,
    Unit,
    Var,
    Lambda,
    App,
    Let,
    Letrec,
    RegApp,
    If,
    Pair,
    Nil,
    Cons,
    UnOp,
    BinOp,
  };

  Kind kind() const { return K; }
  RNodeId id() const { return Id; }

  /// The region type μ of this expression (canonical lookups go through
  /// the program's RTypeTable).
  RTypeId type() const { return Type; }

  /// Region written by this node's own evaluation step (the @ρ
  /// annotation), or ~0u when the node writes nothing (Var/App/Let/...).
  static constexpr RegionVarId NoRegion = ~0u;
  RegionVarId writeRegion() const { return WriteRegion; }
  bool hasWriteRegion() const { return WriteRegion != NoRegion; }

  /// Regions read by this node's own evaluation step (e.g. the closure
  /// region at an application; the pair region at fst/snd).
  const std::vector<RegionVarId> &readRegions() const { return ReadRegions; }

  /// The node's letregion-masked effect (paper §2, Tofte/Talpin's
  /// `letregion ρ in e` has effect φ \ {ρ}): the regions its own step
  /// accesses (its write and read regions and, at an application, the
  /// latent regions of the function's arrow) plus, for each child in the
  /// same placement domain, the child's effect minus the regions the child
  /// binds. It holds the node's own binders but no region bound strictly
  /// below it.
  const RegionSet &effect() const { return Effect; }

  /// The overall effect at this node (§4.2): the arrow effect of the
  /// enclosing abstraction (the global regions at top level) plus the
  /// letregion-bound variables on the path to this node inside that
  /// abstraction. Only these regions may change state on entry/exit of
  /// this node. The set is shared: a node that binds nothing has the same
  /// set, at the same address, as its parent in the placement domain.
  const RegionSet &overallEffect() const { return *OverallEffect; }

  /// Region variables letregion-bound *around* this node ("letregion ρ⃗ in
  /// e end" is represented as an annotation so node identity is stable
  /// across analysis phases). The letregion scope encloses any completion
  /// operations attached to the node.
  const std::vector<RegionVarId> &boundRegions() const { return BoundRegions; }

  // Mutators used by inference/finalization passes only.
  void setType(RTypeId T) { Type = T; }
  void setWriteRegion(RegionVarId R) { WriteRegion = R; }
  void addReadRegion(RegionVarId R) { ReadRegions.push_back(R); }
  RegionSet &effectMut() { return Effect; }
  void setOverallEffect(const RegionSet *S) { OverallEffect = S; }
  std::vector<RegionVarId> &boundRegionsMut() { return BoundRegions; }
  std::vector<RegionVarId> &readRegionsMut() { return ReadRegions; }

protected:
  RExpr(Kind K, RNodeId Id) : K(K), Id(Id) {}

private:
  Kind K;
  RNodeId Id;
  RTypeId Type = 0;
  RegionVarId WriteRegion = NoRegion;
  std::vector<RegionVarId> ReadRegions;
  std::vector<RegionVarId> BoundRegions;
  RegionSet Effect;
  /// Owned by the RegionProgram; nodes outside the final tree (left over
  /// from the polymorphic-recursion fixpoint) keep the empty set.
  inline static const RegionSet NoRegions;
  const RegionSet *OverallEffect = &NoRegions;
};

/// Integer constant "n @ ρ".
class RIntExpr : public RExpr {
public:
  RIntExpr(RNodeId Id, int64_t Value) : RExpr(Kind::Int, Id), Value(Value) {}
  int64_t value() const { return Value; }
  static bool classof(const RExpr *E) { return E->kind() == Kind::Int; }

private:
  int64_t Value;
};

/// Boolean constant "b @ ρ".
class RBoolExpr : public RExpr {
public:
  RBoolExpr(RNodeId Id, bool Value) : RExpr(Kind::Bool, Id), Value(Value) {}
  bool value() const { return Value; }
  static bool classof(const RExpr *E) { return E->kind() == Kind::Bool; }

private:
  bool Value;
};

/// Unit constant "() @ ρ".
class RUnitExpr : public RExpr {
public:
  explicit RUnitExpr(RNodeId Id) : RExpr(Kind::Unit, Id) {}
  static bool classof(const RExpr *E) { return E->kind() == Kind::Unit; }
};

/// Variable reference (no memory operation).
class RVarExpr : public RExpr {
public:
  RVarExpr(RNodeId Id, VarId Var) : RExpr(Kind::Var, Id), Var(Var) {}
  VarId var() const { return Var; }
  static bool classof(const RExpr *E) { return E->kind() == Kind::Var; }

private:
  VarId Var;
};

/// "λx.e @ ρ" — writes an ordinary closure into ρ.
class RLambdaExpr : public RExpr {
public:
  RLambdaExpr(RNodeId Id, VarId Param, const RExpr *Body)
      : RExpr(Kind::Lambda, Id), Param(Param), Body(Body) {}
  VarId param() const { return Param; }
  const RExpr *body() const { return Body; }

  /// Region variables in scope that the closure (body + type) actually
  /// mentions; abstract region environments are restricted to this set.
  const RegionSet &freeRegions() const { return FreeRegions; }
  RegionSet &freeRegionsMut() { return FreeRegions; }

  static bool classof(const RExpr *E) { return E->kind() == Kind::Lambda; }

private:
  VarId Param;
  const RExpr *Body;
  RegionSet FreeRegions;
};

/// Application "e1 e2" — reads the closure region of e1.
class RAppExpr : public RExpr {
public:
  RAppExpr(RNodeId Id, const RExpr *Fn, const RExpr *Arg)
      : RExpr(Kind::App, Id), Fn(Fn), Arg(Arg) {}
  const RExpr *fn() const { return Fn; }
  const RExpr *arg() const { return Arg; }
  static bool classof(const RExpr *E) { return E->kind() == Kind::App; }

private:
  const RExpr *Fn;
  const RExpr *Arg;
};

/// "let x = e1 in e2 end".
class RLetExpr : public RExpr {
public:
  RLetExpr(RNodeId Id, VarId Var, const RExpr *Init, const RExpr *Body)
      : RExpr(Kind::Let, Id), Var(Var), Init(Init), Body(Body) {}
  VarId var() const { return Var; }
  const RExpr *init() const { return Init; }
  const RExpr *body() const { return Body; }
  static bool classof(const RExpr *E) { return E->kind() == Kind::Let; }

private:
  VarId Var;
  const RExpr *Init;
  const RExpr *Body;
};

/// "letrec f[ρ̂](x) @ ρf = e1 in e2 end" — stores a region-polymorphic
/// closure for f into ρf; each use of f is an RRegAppExpr.
class RLetrecExpr : public RExpr {
public:
  RLetrecExpr(RNodeId Id, VarId Fn, std::vector<RegionVarId> Formals,
              VarId Param, const RExpr *FnBody, const RExpr *Body)
      : RExpr(Kind::Letrec, Id), Fn(Fn), Formals(std::move(Formals)),
        Param(Param), FnBody(FnBody), Body(Body) {}
  VarId fn() const { return Fn; }
  const std::vector<RegionVarId> &formals() const { return Formals; }
  std::vector<RegionVarId> &formalsMut() { return Formals; }
  VarId param() const { return Param; }
  const RExpr *fnBody() const { return FnBody; }
  const RExpr *body() const { return Body; }

  /// Like RLambdaExpr::freeRegions, for the recursive function's body:
  /// region variables from *enclosing* scopes (formals excluded) that the
  /// body mentions.
  const RegionSet &freeRegions() const { return FreeRegions; }
  RegionSet &freeRegionsMut() { return FreeRegions; }

  static bool classof(const RExpr *E) { return E->kind() == Kind::Letrec; }

private:
  VarId Fn;
  std::vector<RegionVarId> Formals;
  VarId Param;
  const RExpr *FnBody;
  const RExpr *Body;
  RegionSet FreeRegions;
};

/// Region application "f[ρ1,...,ρn] @ ρ" — reads f's region-polymorphic
/// closure and writes an ordinary closure into ρ.
class RRegAppExpr : public RExpr {
public:
  RRegAppExpr(RNodeId Id, VarId Fn, std::vector<RegionVarId> Actuals)
      : RExpr(Kind::RegApp, Id), Fn(Fn), Actuals(std::move(Actuals)) {}
  VarId fn() const { return Fn; }
  const std::vector<RegionVarId> &actuals() const { return Actuals; }
  std::vector<RegionVarId> &actualsMut() { return Actuals; }
  static bool classof(const RExpr *E) { return E->kind() == Kind::RegApp; }

private:
  VarId Fn;
  std::vector<RegionVarId> Actuals;
};

/// "if e1 then e2 else e3" — reads e1's boolean region.
class RIfExpr : public RExpr {
public:
  RIfExpr(RNodeId Id, const RExpr *Cond, const RExpr *Then, const RExpr *Else)
      : RExpr(Kind::If, Id), Cond(Cond), Then(Then), Else(Else) {}
  const RExpr *cond() const { return Cond; }
  const RExpr *thenExpr() const { return Then; }
  const RExpr *elseExpr() const { return Else; }
  static bool classof(const RExpr *E) { return E->kind() == Kind::If; }

private:
  const RExpr *Cond;
  const RExpr *Then;
  const RExpr *Else;
};

/// "(e1, e2) @ ρ".
class RPairExpr : public RExpr {
public:
  RPairExpr(RNodeId Id, const RExpr *First, const RExpr *Second)
      : RExpr(Kind::Pair, Id), First(First), Second(Second) {}
  const RExpr *first() const { return First; }
  const RExpr *second() const { return Second; }
  static bool classof(const RExpr *E) { return E->kind() == Kind::Pair; }

private:
  const RExpr *First;
  const RExpr *Second;
};

/// "nil @ ρ" — writes the empty-list witness into the spine region.
class RNilExpr : public RExpr {
public:
  explicit RNilExpr(RNodeId Id) : RExpr(Kind::Nil, Id) {}
  static bool classof(const RExpr *E) { return E->kind() == Kind::Nil; }
};

/// "e1 :: e2 @ ρ" — writes a cons cell into the spine region.
class RConsExpr : public RExpr {
public:
  RConsExpr(RNodeId Id, const RExpr *Head, const RExpr *Tail)
      : RExpr(Kind::Cons, Id), Head(Head), Tail(Tail) {}
  const RExpr *head() const { return Head; }
  const RExpr *tail() const { return Tail; }
  static bool classof(const RExpr *E) { return E->kind() == Kind::Cons; }

private:
  const RExpr *Head;
  const RExpr *Tail;
};

/// "fst e / snd e / null e / hd e / tl e" — reads the operand's region;
/// null writes its boolean result into a fresh region.
class RUnOpExpr : public RExpr {
public:
  RUnOpExpr(RNodeId Id, ast::UnOpKind Op, const RExpr *Operand)
      : RExpr(Kind::UnOp, Id), Op(Op), Operand(Operand) {}
  ast::UnOpKind op() const { return Op; }
  const RExpr *operand() const { return Operand; }
  static bool classof(const RExpr *E) { return E->kind() == Kind::UnOp; }

private:
  ast::UnOpKind Op;
  const RExpr *Operand;
};

/// "e1 op e2 @ ρ" — reads both operands' regions, writes the boxed result.
class RBinOpExpr : public RExpr {
public:
  RBinOpExpr(RNodeId Id, ast::BinOpKind Op, const RExpr *Lhs,
             const RExpr *Rhs)
      : RExpr(Kind::BinOp, Id), Op(Op), Lhs(Lhs), Rhs(Rhs) {}
  ast::BinOpKind op() const { return Op; }
  const RExpr *lhs() const { return Lhs; }
  const RExpr *rhs() const { return Rhs; }
  static bool classof(const RExpr *E) { return E->kind() == Kind::BinOp; }

private:
  ast::BinOpKind Op;
  const RExpr *Lhs;
  const RExpr *Rhs;
};

/// LLVM-style checked casts over the RExpr hierarchy.
template <typename T> bool isa(const RExpr *E) { return T::classof(E); }

template <typename T> const T *cast(const RExpr *E) {
  assert(isa<T>(E) && "cast to wrong RExpr kind");
  return static_cast<const T *>(E);
}

template <typename T> const T *dyn_cast(const RExpr *E) {
  return isa<T>(E) ? static_cast<const T *>(E) : nullptr;
}

/// The direct subexpressions of \p N in evaluation order, null-padded: a
/// lambda's body; a letrec's fnBody, then its body; none for a leaf.
std::array<const RExpr *, 3> childrenOf(const RExpr *N);

} // namespace regions
} // namespace afl

#endif // AFL_REGIONS_REGIONEXPR_H

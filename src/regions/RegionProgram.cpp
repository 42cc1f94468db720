#include "regions/RegionProgram.h"

using namespace afl;
using namespace afl::regions;

namespace {

/// Arena memory is released wholesale, but node members (sets, vectors)
/// own heap allocations that need their destructors.
void destroyNode(RExpr *N) {
  switch (N->kind()) {
  case RExpr::Kind::Int:
    static_cast<RIntExpr *>(N)->~RIntExpr();
    return;
  case RExpr::Kind::Bool:
    static_cast<RBoolExpr *>(N)->~RBoolExpr();
    return;
  case RExpr::Kind::Unit:
    static_cast<RUnitExpr *>(N)->~RUnitExpr();
    return;
  case RExpr::Kind::Var:
    static_cast<RVarExpr *>(N)->~RVarExpr();
    return;
  case RExpr::Kind::Lambda:
    static_cast<RLambdaExpr *>(N)->~RLambdaExpr();
    return;
  case RExpr::Kind::App:
    static_cast<RAppExpr *>(N)->~RAppExpr();
    return;
  case RExpr::Kind::Let:
    static_cast<RLetExpr *>(N)->~RLetExpr();
    return;
  case RExpr::Kind::Letrec:
    static_cast<RLetrecExpr *>(N)->~RLetrecExpr();
    return;
  case RExpr::Kind::RegApp:
    static_cast<RRegAppExpr *>(N)->~RRegAppExpr();
    return;
  case RExpr::Kind::If:
    static_cast<RIfExpr *>(N)->~RIfExpr();
    return;
  case RExpr::Kind::Pair:
    static_cast<RPairExpr *>(N)->~RPairExpr();
    return;
  case RExpr::Kind::Nil:
    static_cast<RNilExpr *>(N)->~RNilExpr();
    return;
  case RExpr::Kind::Cons:
    static_cast<RConsExpr *>(N)->~RConsExpr();
    return;
  case RExpr::Kind::UnOp:
    static_cast<RUnOpExpr *>(N)->~RUnOpExpr();
    return;
  case RExpr::Kind::BinOp:
    static_cast<RBinOpExpr *>(N)->~RBinOpExpr();
    return;
  }
}

} // namespace

std::array<const RExpr *, 3> regions::childrenOf(const RExpr *N) {
  switch (N->kind()) {
  case RExpr::Kind::Lambda:
    return {cast<RLambdaExpr>(N)->body()};
  case RExpr::Kind::App: {
    const auto *A = cast<RAppExpr>(N);
    return {A->fn(), A->arg()};
  }
  case RExpr::Kind::Let: {
    const auto *L = cast<RLetExpr>(N);
    return {L->init(), L->body()};
  }
  case RExpr::Kind::Letrec: {
    const auto *L = cast<RLetrecExpr>(N);
    return {L->fnBody(), L->body()};
  }
  case RExpr::Kind::If: {
    const auto *I = cast<RIfExpr>(N);
    return {I->cond(), I->thenExpr(), I->elseExpr()};
  }
  case RExpr::Kind::Pair: {
    const auto *P = cast<RPairExpr>(N);
    return {P->first(), P->second()};
  }
  case RExpr::Kind::Cons: {
    const auto *C = cast<RConsExpr>(N);
    return {C->head(), C->tail()};
  }
  case RExpr::Kind::UnOp:
    return {cast<RUnOpExpr>(N)->operand()};
  case RExpr::Kind::BinOp: {
    const auto *B = cast<RBinOpExpr>(N);
    return {B->lhs(), B->rhs()};
  }
  default: // Int, Bool, Unit, Var, RegApp, Nil: leaves.
    return {};
  }
}

RegionProgram::~RegionProgram() {
  for (RExpr *N : nodes())
    destroyNode(N);
}

// Unit tests for Tofte/Talpin region inference: letregion placement,
// region polymorphism, polymorphic recursion, and structural validity.

#include "ast/ASTContext.h"
#include "parser/Parser.h"
#include "programs/Corpus.h"
#include "programs/RandomProgram.h"
#include "regions/RegionInference.h"
#include "regions/RegionPrinter.h"
#include "regions/Validator.h"
#include "types/TypeInference.h"

#include <algorithm>
#include <gtest/gtest.h>
#include <iterator>
#include <set>

using namespace afl;
using namespace afl::regions;

namespace {

std::unique_ptr<RegionProgram> infer(const std::string &Source) {
  ast::ASTContext Ctx;
  DiagnosticEngine Diags;
  const ast::Expr *E = parseExpr(Source, Ctx, Diags);
  EXPECT_NE(E, nullptr) << Diags.str();
  if (!E)
    return nullptr;
  types::TypedProgram T = types::inferTypes(E, Ctx, Diags);
  EXPECT_TRUE(T.Success) << Diags.str();
  if (!T.Success)
    return nullptr;
  std::unique_ptr<RegionProgram> P = inferRegions(E, Ctx, T, Diags);
  EXPECT_NE(P, nullptr) << Diags.str();
  return P;
}

/// Counts nodes of kind \p K reachable from the root.
unsigned countKind(const RegionProgram &P, RExpr::Kind K) {
  unsigned N = 0;
  std::vector<const RExpr *> Work{P.Root};
  while (!Work.empty()) {
    const RExpr *E = Work.back();
    Work.pop_back();
    if (E->kind() == K)
      ++N;
    switch (E->kind()) {
    case RExpr::Kind::Lambda:
      Work.push_back(cast<RLambdaExpr>(E)->body());
      break;
    case RExpr::Kind::App:
      Work.push_back(cast<RAppExpr>(E)->fn());
      Work.push_back(cast<RAppExpr>(E)->arg());
      break;
    case RExpr::Kind::Let:
      Work.push_back(cast<RLetExpr>(E)->init());
      Work.push_back(cast<RLetExpr>(E)->body());
      break;
    case RExpr::Kind::Letrec:
      Work.push_back(cast<RLetrecExpr>(E)->fnBody());
      Work.push_back(cast<RLetrecExpr>(E)->body());
      break;
    case RExpr::Kind::If:
      Work.push_back(cast<RIfExpr>(E)->cond());
      Work.push_back(cast<RIfExpr>(E)->thenExpr());
      Work.push_back(cast<RIfExpr>(E)->elseExpr());
      break;
    case RExpr::Kind::Pair:
      Work.push_back(cast<RPairExpr>(E)->first());
      Work.push_back(cast<RPairExpr>(E)->second());
      break;
    case RExpr::Kind::Cons:
      Work.push_back(cast<RConsExpr>(E)->head());
      Work.push_back(cast<RConsExpr>(E)->tail());
      break;
    case RExpr::Kind::UnOp:
      Work.push_back(cast<RUnOpExpr>(E)->operand());
      break;
    case RExpr::Kind::BinOp:
      Work.push_back(cast<RBinOpExpr>(E)->lhs());
      Work.push_back(cast<RBinOpExpr>(E)->rhs());
      break;
    default:
      break;
    }
  }
  return N;
}

TEST(RegionInference, IntIsGlobalResult) {
  auto P = infer("42");
  ASSERT_NE(P, nullptr);
  ASSERT_EQ(P->GlobalRegions.size(), 1u);
  EXPECT_EQ(P->Root->writeRegion(), P->GlobalRegions[0]);
}

TEST(RegionInference, DeadValueGetsLocalRegion) {
  // The pair is dead; its region must be letregion-bound, not global.
  auto P = infer("let x = (1, 2) in 5 end");
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(P->GlobalRegions.size(), 1u); // only the 5
  // Some node binds the pair's regions locally.
  unsigned Bound = 0;
  for (const RExpr *N : P->nodes())
    Bound += static_cast<unsigned>(N->boundRegions().size());
  EXPECT_GE(Bound, 3u); // pair box + two components
}

TEST(RegionInference, ResultRegionsEscape) {
  auto P = infer("(1, 2)");
  ASSERT_NE(P, nullptr);
  // Pair box + both component regions are part of the observable result.
  EXPECT_EQ(P->GlobalRegions.size(), 3u);
}

TEST(RegionInference, Example11Structure) {
  auto P = infer(programs::example11Source());
  ASSERT_NE(P, nullptr);
  // Paper Fig. 1: three result regions (result pair, the 2, the 5); the
  // z-pair region, the closure region, and the dead 3's region are local.
  EXPECT_EQ(P->GlobalRegions.size(), 3u);
  std::string Printed = printRegionProgram(*P);
  EXPECT_NE(Printed.find("letregion"), std::string::npos);
  EXPECT_TRUE(validateRegionProgram(*P).empty());
}

TEST(RegionInference, LetrecGetsRegionFormals) {
  auto P = infer("letrec f n = n + 1 in f 3 end");
  ASSERT_NE(P, nullptr);
  ASSERT_EQ(countKind(*P, RExpr::Kind::Letrec), 1u);
  // Find the letrec node.
  const RLetrecExpr *L = nullptr;
  for (const RExpr *N : P->nodes()) {
    if (const auto *LR = dyn_cast<RLetrecExpr>(N))
      L = LR;
  }
  ASSERT_NE(L, nullptr);
  // param region and result region are quantifiable.
  EXPECT_GE(L->formals().size(), 2u);
  // Each use of f is a region application with matching arity.
  for (const RExpr *N : P->nodes()) {
    if (const auto *RA = dyn_cast<RRegAppExpr>(N)) {
      EXPECT_EQ(RA->actuals().size(), L->formals().size());
    }
  }
}

TEST(RegionInference, PolymorphicRecursionSeparatesRegions) {
  // The recursive call must be able to use a *different* region for its
  // argument than the incoming parameter region — the key enabler of the
  // Appel result. Check that the recursive region application's actual
  // for the parameter region differs from the formal itself... i.e. the
  // recursive instantiation is not forced to be the identity.
  auto P = infer(programs::appelSource(4));
  ASSERT_NE(P, nullptr);
  EXPECT_TRUE(validateRegionProgram(*P).empty());

  // Find letrec g (the second letrec) and a regapp of g inside g's body.
  const RLetrecExpr *G = nullptr;
  for (const RExpr *N : P->nodes()) {
    if (const auto *LR = dyn_cast<RLetrecExpr>(N))
      if (P->varInfo(LR->fn()).Name == "g")
        G = LR;
  }
  ASSERT_NE(G, nullptr);
  bool FoundNonIdentity = false;
  std::vector<const RExpr *> Work{G->fnBody()};
  while (!Work.empty()) {
    const RExpr *N = Work.back();
    Work.pop_back();
    if (const auto *RA = dyn_cast<RRegAppExpr>(N)) {
      if (RA->fn() == G->fn() && RA->actuals() != G->formals())
        FoundNonIdentity = true;
    }
    if (const auto *L = dyn_cast<RLetExpr>(N)) {
      Work.push_back(L->init());
      Work.push_back(L->body());
    } else if (const auto *A = dyn_cast<RAppExpr>(N)) {
      Work.push_back(A->fn());
      Work.push_back(A->arg());
    } else if (const auto *I = dyn_cast<RIfExpr>(N)) {
      Work.push_back(I->cond());
      Work.push_back(I->thenExpr());
      Work.push_back(I->elseExpr());
    } else if (const auto *PR = dyn_cast<RPairExpr>(N)) {
      Work.push_back(PR->first());
      Work.push_back(PR->second());
    } else if (const auto *U = dyn_cast<RUnOpExpr>(N)) {
      Work.push_back(U->operand());
    } else if (const auto *B = dyn_cast<RBinOpExpr>(N)) {
      Work.push_back(B->lhs());
      Work.push_back(B->rhs());
    }
  }
  EXPECT_TRUE(FoundNonIdentity)
      << "recursive call should instantiate fresh regions";
}

TEST(RegionInference, EffectsContainReadsAndWrites) {
  auto P = infer("1 + 2");
  ASSERT_NE(P, nullptr);
  const RExpr *Root = P->Root;
  EXPECT_TRUE(Root->hasWriteRegion());
  EXPECT_TRUE(Root->effect().count(Root->writeRegion()));
  EXPECT_EQ(Root->readRegions().size(), 2u);
  for (RegionVarId R : Root->readRegions())
    EXPECT_TRUE(Root->effect().count(R));
}

TEST(RegionInference, OverallEffectCoversAccesses) {
  for (const char *Src :
       {"let x = (1, 2) in fst x end",
        "letrec f n = if n = 0 then 0 else f (n - 1) in f 3 end",
        "(fn x => x + 1) 2"}) {
    auto P = infer(Src);
    ASSERT_NE(P, nullptr);
    for (const RExpr *N : P->nodes()) {
      // Only consider reachable nodes: validator covers reachability; an
      // easy proxy is nodes with a non-empty overall effect or accesses.
      if (N->overallEffect().empty())
        continue;
      if (N->hasWriteRegion()) {
        EXPECT_TRUE(N->overallEffect().count(N->writeRegion()))
            << printRegionProgram(*P);
      }
      for (RegionVarId R : N->readRegions())
        EXPECT_TRUE(N->overallEffect().count(R));
    }
  }
}

/// The children of \p N in its placement domain: everything except lambda
/// bodies and letrec fnBodies, which start domains of their own.
std::vector<const RExpr *> domainChildren(const RExpr *N) {
  switch (N->kind()) {
  case RExpr::Kind::App:
    return {cast<RAppExpr>(N)->fn(), cast<RAppExpr>(N)->arg()};
  case RExpr::Kind::Let:
    return {cast<RLetExpr>(N)->init(), cast<RLetExpr>(N)->body()};
  case RExpr::Kind::Letrec:
    return {cast<RLetrecExpr>(N)->body()};
  case RExpr::Kind::If:
    return {cast<RIfExpr>(N)->cond(), cast<RIfExpr>(N)->thenExpr(),
            cast<RIfExpr>(N)->elseExpr()};
  case RExpr::Kind::Pair:
    return {cast<RPairExpr>(N)->first(), cast<RPairExpr>(N)->second()};
  case RExpr::Kind::Cons:
    return {cast<RConsExpr>(N)->head(), cast<RConsExpr>(N)->tail()};
  case RExpr::Kind::UnOp:
    return {cast<RUnOpExpr>(N)->operand()};
  case RExpr::Kind::BinOp:
    return {cast<RBinOpExpr>(N)->lhs(), cast<RBinOpExpr>(N)->rhs()};
  default:
    return {};
  }
}

std::set<RegionVarId> latentRegions(const RegionProgram &P, RTypeId Arrow) {
  EffectSet Probe;
  Probe.EffectVars.insert(P.Types.arrowEffect(Arrow));
  return P.Types.regionsOf(Probe);
}

/// The regions \p N's own step accesses: its write and read regions and,
/// at an application, the latent regions of the function's arrow.
std::set<RegionVarId> selfRegions(const RegionProgram &P, const RExpr *N) {
  std::set<RegionVarId> Out(N->readRegions().begin(), N->readRegions().end());
  if (N->hasWriteRegion())
    Out.insert(N->writeRegion());
  if (const auto *A = dyn_cast<RAppExpr>(N)) {
    std::set<RegionVarId> Latent = latentRegions(P, A->fn()->type());
    Out.insert(Latent.begin(), Latent.end());
  }
  return Out;
}

/// Checks every node's effect() and overallEffect() against their
/// definitions, computed by brute force per node:
///   effect(N): the union of self(M) over N's in-domain subtree, minus the
///     regions bound strictly below N;
///   overallEffect(N): the domain's ambient set (the globals at top level,
///     the latent regions of the lambda's or letrec's arrow in a body)
///     plus the binders on the in-domain path to N, N included.
void expectEffectsMatchReference(const RegionProgram &P) {
  std::vector<std::pair<const RExpr *, std::set<RegionVarId>>> Work{
      {P.Root, {P.GlobalRegions.begin(), P.GlobalRegions.end()}}};
  while (!Work.empty()) {
    auto [N, Above] = std::move(Work.back());
    Work.pop_back();
    std::set<RegionVarId> Overall = Above;
    Overall.insert(N->boundRegions().begin(), N->boundRegions().end());
    EXPECT_EQ(std::vector<RegionVarId>(Overall.begin(), Overall.end()),
              N->overallEffect().raw())
        << "overall effect of node " << N->id();

    std::set<RegionVarId> Accessed, BoundBelow;
    std::vector<const RExpr *> Subtree{N};
    while (!Subtree.empty()) {
      const RExpr *M = Subtree.back();
      Subtree.pop_back();
      std::set<RegionVarId> Self = selfRegions(P, M);
      Accessed.insert(Self.begin(), Self.end());
      if (M != N)
        BoundBelow.insert(M->boundRegions().begin(), M->boundRegions().end());
      for (const RExpr *C : domainChildren(M))
        Subtree.push_back(C);
    }
    std::vector<RegionVarId> Effect;
    std::set_difference(Accessed.begin(), Accessed.end(), BoundBelow.begin(),
                        BoundBelow.end(), std::back_inserter(Effect));
    EXPECT_EQ(Effect, N->effect().raw()) << "effect of node " << N->id();

    for (const RExpr *C : domainChildren(N))
      Work.push_back({C, Overall});
    if (const auto *L = dyn_cast<RLambdaExpr>(N))
      Work.push_back({L->body(), latentRegions(P, N->type())});
    if (const auto *L = dyn_cast<RLetrecExpr>(N))
      Work.push_back(
          {L->fnBody(), latentRegions(P, P.varInfo(L->fn()).Type)});
  }
}

TEST(RegionInference, EffectsMatchReference) {
  std::vector<std::pair<std::string, std::string>> Programs;
  for (const programs::BenchProgram &BP : programs::smallCorpus())
    Programs.push_back({BP.Name, BP.Source});
  Programs.push_back({"example11", programs::example11Source()});
  Programs.push_back({"example21", programs::example21Source()});
  Programs.push_back({"perm(4,3)", programs::permSource(4, 3)});
  programs::RandomProgramOptions Default, Escape, Hof;
  Escape.ClosureEscape = true;
  Hof.NestedHof = true;
  for (const auto &[Name, Options] :
       {std::pair("default", Default), std::pair("escape", Escape),
        std::pair("nested-hof", Hof)})
    for (unsigned Seed = 0; Seed != 300; ++Seed)
      Programs.push_back({std::string(Name) + " seed " + std::to_string(Seed),
                          programs::generateRandomProgram(Seed, Options)});
  for (const auto &[Name, Source] : Programs) {
    SCOPED_TRACE(Name);
    auto P = infer(Source);
    ASSERT_NE(P, nullptr);
    expectEffectsMatchReference(*P);
    if (::testing::Test::HasFailure())
      return;
  }
}

/// The nodes whose letregion binds \p R.
std::vector<const RExpr *> bindersOf(const RegionProgram &P, RegionVarId R) {
  std::vector<const RExpr *> Out;
  for (const RExpr *N : P.nodes())
    for (RegionVarId B : N->boundRegions())
      if (B == R)
        Out.push_back(N);
  return Out;
}

/// The first node of kind \p K in node-id order.
const RExpr *firstOfKind(const RegionProgram &P, RExpr::Kind K) {
  for (const RExpr *N : P.nodes())
    if (N->kind() == K)
      return N;
  return nullptr;
}

TEST(RegionPlacement, ValueTypeRegionBindsAtLcaParent) {
  // The pair node is the LCA of its box region and of both component
  // regions, but they are in its value type, so the enclosing let binds
  // them.
  auto P = infer("let x = (1, 2) in 5 end");
  ASSERT_NE(P, nullptr);
  const auto *Pair = cast<RPairExpr>(firstOfKind(*P, RExpr::Kind::Pair));
  ASSERT_EQ(P->Root->kind(), RExpr::Kind::Let);
  EXPECT_TRUE(Pair->boundRegions().empty()) << printRegionProgram(*P);
  for (RegionVarId R : {Pair->writeRegion(), Pair->first()->writeRegion(),
                        Pair->second()->writeRegion()})
    EXPECT_EQ(bindersOf(*P, R), std::vector<const RExpr *>{P->Root})
        << "r" << R << "\n"
        << printRegionProgram(*P);
}

TEST(RegionPlacement, IfBindsItsConditionAndNoSharedBranchRegion) {
  // Both branches write their first component into one region (their
  // types unify with the if's), so neither branch binds it: the if is its
  // LCA and has it in its value type, so the let binds it. The
  // condition's region is read by the if itself, which binds it.
  auto P = infer("let y = if true then fst (1, 2) else fst (3, 4) in 5 end");
  ASSERT_NE(P, nullptr);
  const auto *If = cast<RIfExpr>(firstOfKind(*P, RExpr::Kind::If));
  const auto *Then =
      cast<RPairExpr>(cast<RUnOpExpr>(If->thenExpr())->operand());
  const auto *Else =
      cast<RPairExpr>(cast<RUnOpExpr>(If->elseExpr())->operand());
  RegionVarId Shared = Then->first()->writeRegion();
  ASSERT_EQ(Shared, Else->first()->writeRegion());
  EXPECT_EQ(bindersOf(*P, Shared), std::vector<const RExpr *>{P->Root})
      << printRegionProgram(*P);
  EXPECT_EQ(bindersOf(*P, If->cond()->writeRegion()),
            std::vector<const RExpr *>{If})
      << printRegionProgram(*P);
  // A region only one branch mentions stays in that branch.
  EXPECT_EQ(bindersOf(*P, Then->writeRegion()),
            std::vector<const RExpr *>{If->thenExpr()})
      << printRegionProgram(*P);
}

TEST(RegionPlacement, LambdaBodyRegionBindsInsideTheBody) {
  // The pair is built and consumed inside the body and is not in the
  // arrow type, so the body's own domain binds its regions.
  auto P = infer("let f = fn x => fst (x, 1) in f 2 end");
  ASSERT_NE(P, nullptr);
  const auto *Lam = cast<RLambdaExpr>(firstOfKind(*P, RExpr::Kind::Lambda));
  const auto *Pair = cast<RPairExpr>(firstOfKind(*P, RExpr::Kind::Pair));
  EXPECT_EQ(bindersOf(*P, Pair->writeRegion()),
            std::vector<const RExpr *>{Lam->body()})
      << printRegionProgram(*P);
  EXPECT_EQ(bindersOf(*P, Pair->second()->writeRegion()),
            std::vector<const RExpr *>{Lam->body()})
      << printRegionProgram(*P);
}

TEST(RegionPlacement, LetrecFormalsAreNotReboundInFnBody) {
  // The body reads the parameter region and writes the result region, both
  // formals; they are in scope for the whole fnBody.
  auto P = infer("letrec f n = if n = 0 then 0 else f (n - 1) in f 3 end");
  ASSERT_NE(P, nullptr);
  const auto *L = cast<RLetrecExpr>(firstOfKind(*P, RExpr::Kind::Letrec));
  ASSERT_GE(L->formals().size(), 2u);
  for (RegionVarId F : L->formals())
    EXPECT_TRUE(bindersOf(*P, F).empty()) << "r" << F << "\n"
                                          << printRegionProgram(*P);
}

class ValidatorProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(ValidatorProperty, RandomProgramsValidate) {
  std::string Source = programs::generateRandomProgram(GetParam());
  SCOPED_TRACE(Source);
  auto P = infer(Source);
  ASSERT_NE(P, nullptr);
  std::vector<std::string> Errors = validateRegionProgram(*P);
  EXPECT_TRUE(Errors.empty()) << Errors.front();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValidatorProperty,
                         ::testing::Range(2000u, 2080u));

TEST(RegionInference, CorpusValidates) {
  for (const programs::BenchProgram &BP : programs::smallCorpus()) {
    auto P = infer(BP.Source);
    ASSERT_NE(P, nullptr) << BP.Name;
    std::vector<std::string> Errors = validateRegionProgram(*P);
    EXPECT_TRUE(Errors.empty()) << BP.Name << ": " << Errors.front();
  }
}

} // namespace

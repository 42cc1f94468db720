// Unit tests for the extended closure analysis (Fig. 3): abstract region
// environments, colors, region aliasing, and closure propagation.

#include "ast/ASTContext.h"
#include "closure/ClosureAnalysis.h"
#include "parser/Parser.h"
#include "programs/Corpus.h"
#include "regions/RegionInference.h"
#include "types/TypeInference.h"

#include <gtest/gtest.h>

using namespace afl;
using namespace afl::closure;
using namespace afl::regions;

namespace {

struct Analyzed {
  std::unique_ptr<RegionProgram> Prog;
  std::unique_ptr<ClosureAnalysis> CA;
};

Analyzed analyze(const std::string &Source) {
  ast::ASTContext Ctx;
  DiagnosticEngine Diags;
  const ast::Expr *E = parseExpr(Source, Ctx, Diags);
  EXPECT_NE(E, nullptr) << Diags.str();
  types::TypedProgram T = types::inferTypes(E, Ctx, Diags);
  EXPECT_TRUE(T.Success) << Diags.str();
  Analyzed A;
  A.Prog = inferRegions(E, Ctx, T, Diags);
  EXPECT_NE(A.Prog, nullptr) << Diags.str();
  A.CA = std::make_unique<ClosureAnalysis>(*A.Prog);
  A.CA->run();
  return A;
}

TEST(RegEnvTable, InternDeduplicates) {
  RegEnvTable T;
  RegEnvId E1 = T.intern({{1, 0}, {2, 1}});
  RegEnvId E2 = T.intern({{1, 0}, {2, 1}});
  RegEnvId E3 = T.intern({{1, 0}, {2, 0}}); // aliased
  EXPECT_EQ(E1, E2);
  EXPECT_NE(E1, E3);
  EXPECT_EQ(T.colorOf(E1, 2), 1u);
  EXPECT_EQ(T.colorOf(E3, 2), 0u);
}

TEST(RegEnvTable, ExtendFreshPicksMinimalColor) {
  RegEnvTable T;
  RegEnvId E = T.intern({{1, 0}, {2, 2}});
  RegEnvId E2 = T.extendFresh(E, 5);
  EXPECT_EQ(T.colorOf(E2, 5), 1u); // 0 and 2 used; minimal free is 1
  RegEnvId E3 = T.extendFresh(E2, 6);
  EXPECT_EQ(T.colorOf(E3, 6), 3u);
}

TEST(RegEnvTable, RestrictKeepsSubset) {
  RegEnvTable T;
  RegEnvId E = T.intern({{1, 0}, {2, 1}, {3, 2}});
  RegEnvId R = T.restrict(E, FlatSet<RegionVarId>::fromSorted({1, 3}));
  EXPECT_EQ(T.get(R).size(), 2u);
  EXPECT_TRUE(T.maps(R, 1));
  EXPECT_FALSE(T.maps(R, 2));
}

TEST(ClosureAnalysis, DirectLambdaApplication) {
  Analyzed A = analyze("(fn x => x + 1) 2");
  // The application's function position must see exactly one closure.
  const RAppExpr *App = nullptr;
  for (const RExpr *N : A.Prog->nodes()) {
    if (const auto *AE = dyn_cast<RAppExpr>(N))
      App = AE;
  }
  ASSERT_NE(App, nullptr);
  const FlatSet<RegEnvId> &Ctxs = A.CA->contextsOf(App->fn()->id());
  ASSERT_EQ(Ctxs.size(), 1u);
  EXPECT_EQ(A.CA->valuesOf(App->fn()->id(), *Ctxs.begin()).size(), 1u);
}

TEST(ClosureAnalysis, FlowThroughLetAndIf) {
  Analyzed A = analyze("let f = if true then fn x => x + 1 else fn y => y "
                       "in f 3 end");
  const RAppExpr *App = nullptr;
  for (const RExpr *N : A.Prog->nodes()) {
    if (const auto *AE = dyn_cast<RAppExpr>(N))
      App = AE;
  }
  ASSERT_NE(App, nullptr);
  const FlatSet<RegEnvId> &Ctxs = A.CA->contextsOf(App->fn()->id());
  ASSERT_EQ(Ctxs.size(), 1u);
  // Both lambdas reach the call.
  EXPECT_EQ(A.CA->valuesOf(App->fn()->id(), *Ctxs.begin()).size(), 2u);
}

TEST(ClosureAnalysis, LetrecClosureCarriesFormalBindings) {
  Analyzed A = analyze("letrec f n = n + 1 in f 2 end");
  const RRegAppExpr *RA = nullptr;
  const RLetrecExpr *L = nullptr;
  for (const RExpr *N : A.Prog->nodes()) {
    if (const auto *R = dyn_cast<RRegAppExpr>(N))
      RA = R;
    if (const auto *LR = dyn_cast<RLetrecExpr>(N))
      L = LR;
  }
  ASSERT_NE(RA, nullptr);
  ASSERT_NE(L, nullptr);
  const FlatSet<RegEnvId> &Ctxs = A.CA->contextsOf(RA->id());
  ASSERT_FALSE(Ctxs.empty());
  const FlatSet<AbsClosureId> &Vals =
      A.CA->valuesOf(RA->id(), *Ctxs.begin());
  ASSERT_EQ(Vals.size(), 1u);
  const AbsClosure &Cl = A.CA->closure(*Vals.begin());
  EXPECT_EQ(Cl.Fun, L);
  // Every formal is mapped in the closure's environment.
  for (RegionVarId F : L->formals())
    EXPECT_TRUE(A.CA->envs().maps(Cl.Env, F));
}

TEST(ClosureAnalysis, AliasedActualsShareColor) {
  // Both components of the pair end up in the same region family when f
  // is called with its two region arguments aliased. Build a program
  // where one value is used for both "slots": f k = (k, k).
  Analyzed A = analyze("letrec f k = (k + 0, k + 0) in f 7 end");
  // Find a regapp and check: if two actuals are the same region variable,
  // their colors agree in the closure env (exact aliasing, §3).
  bool CheckedOne = false;
  for (const RExpr *N : A.Prog->nodes()) {
    const auto *RA = dyn_cast<RRegAppExpr>(N);
    if (!RA)
      continue;
    const FlatSet<RegEnvId> &Ctxs = A.CA->contextsOf(RA->id());
    if (Ctxs.empty())
      continue;
    const FlatSet<AbsClosureId> &Vals =
        A.CA->valuesOf(RA->id(), *Ctxs.begin());
    if (Vals.empty())
      continue;
    const AbsClosure &Cl = A.CA->closure(*Vals.begin());
    const auto *L = cast<RLetrecExpr>(Cl.Fun);
    for (size_t I = 0; I != RA->actuals().size(); ++I) {
      for (size_t J = I + 1; J != RA->actuals().size(); ++J) {
        if (RA->actuals()[I] == RA->actuals()[J]) {
          EXPECT_EQ(A.CA->envs().colorOf(Cl.Env, L->formals()[I]),
                    A.CA->envs().colorOf(Cl.Env, L->formals()[J]));
          CheckedOne = true;
        }
      }
    }
  }
  (void)CheckedOne; // aliasing may or may not arise; structure checked.
}

TEST(ClosureAnalysis, RecursiveFunctionTerminates) {
  Analyzed A = analyze(programs::fibSource(5));
  EXPECT_GE(A.CA->numContexts(), 10u);
  EXPECT_GE(A.CA->numClosures(), 1u);
}

TEST(ClosureAnalysis, PolymorphicRecursionBoundedContexts) {
  // Appel's g re-instantiates regions at every recursive call; contexts
  // must still be finite (colors are bounded by scope size).
  Analyzed A = analyze(programs::appelSource(6));
  EXPECT_LT(A.CA->numContexts(), 10000u);
}

TEST(ClosureAnalysis, ReportsConvergence) {
  Analyzed A = analyze(programs::fibSource(5));
  EXPECT_TRUE(A.CA->converged());
  EXPECT_TRUE(A.CA->error().empty());
  EXPECT_TRUE(A.CA->stats().Converged);
  EXPECT_GE(A.CA->stats().Passes, 1u);
  EXPECT_GT(A.CA->stats().ProcessedContexts, 0u);
}

// Satellite (ISSUE): the stabilization cap is a reported failure, not an
// assert. A tiny step budget must make run() return false with a
// diagnostic, in both fixpoint modes.
TEST(ClosureAnalysis, WorklistCapReportsFailure) {
  ast::ASTContext Ctx;
  DiagnosticEngine Diags;
  const ast::Expr *E = parseExpr(programs::fibSource(5), Ctx, Diags);
  ASSERT_NE(E, nullptr) << Diags.str();
  types::TypedProgram T = types::inferTypes(E, Ctx, Diags);
  ASSERT_TRUE(T.Success) << Diags.str();
  auto Prog = inferRegions(E, Ctx, T, Diags);
  ASSERT_NE(Prog, nullptr) << Diags.str();

  ClosureOptions Opts;
  Opts.UseWorklist = true;
  Opts.MaxSteps = 2; // far too few for any real program
  ClosureAnalysis CA(*Prog, Opts);
  EXPECT_FALSE(CA.run());
  EXPECT_FALSE(CA.converged());
  EXPECT_FALSE(CA.stats().Converged);
  EXPECT_NE(CA.error().find("failed to stabilize"), std::string::npos)
      << CA.error();
}

TEST(ClosureAnalysis, RestartCapReportsFailure) {
  ast::ASTContext Ctx;
  DiagnosticEngine Diags;
  const ast::Expr *E = parseExpr(programs::fibSource(5), Ctx, Diags);
  ASSERT_NE(E, nullptr) << Diags.str();
  types::TypedProgram T = types::inferTypes(E, Ctx, Diags);
  ASSERT_TRUE(T.Success) << Diags.str();
  auto Prog = inferRegions(E, Ctx, T, Diags);
  ASSERT_NE(Prog, nullptr) << Diags.str();

  ClosureOptions Opts;
  Opts.UseWorklist = false;
  Opts.MaxPasses = 1; // a recursive program needs more than one pass
  ClosureAnalysis CA(*Prog, Opts);
  EXPECT_FALSE(CA.run());
  EXPECT_FALSE(CA.converged());
  EXPECT_NE(CA.error().find("failed to stabilize"), std::string::npos)
      << CA.error();
}

TEST(ClosureAnalysis, UnknownContextIsEmptySet) {
  // Satellite (ISSUE): valuesOf on an unregistered (node, env) pair
  // returns a genuinely interned empty set, not a function-local static.
  Analyzed A = analyze("(fn x => x + 1) 2");
  RegEnvId Bogus = A.CA->envs().intern({{12345, 0}});
  const FlatSet<AbsClosureId> &V = A.CA->valuesOf(A.Prog->Root->id(), Bogus);
  EXPECT_TRUE(V.empty());
  EXPECT_EQ(A.CA->ctxIndex(A.Prog->Root->id(), Bogus),
            ClosureAnalysis::NoCtx);
}

TEST(ClosureAnalysis, ColorsBoundedByScopeSize) {
  Analyzed A = analyze(programs::quicksortSource(8));
  size_t MaxColors = 0;
  for (const RExpr *N : A.Prog->nodes()) {
    for (RegEnvId Env : A.CA->contextsOf(N->id()))
      MaxColors = std::max(MaxColors, A.CA->envs().get(Env).size());
  }
  // No abstract environment should explode beyond the number of region
  // variables in scope at any point (a small constant for this program).
  EXPECT_LT(MaxColors, 64u);
}

} // namespace

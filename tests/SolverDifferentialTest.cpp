// Differential property test for the solver: on the builtin corpus and a
// large random-program sweep, the production path — per-shard simplify
// and solve over packed domains, through solve() and through
// solveCached() on a cold and then a warm cache — must produce
// bit-identical output (Sat, state domains and boolean domains) to the
// oracle: the raw §4.3 engine over byte-per-variable domains
// (`aflc --no-simplify`).

#include "ast/ASTContext.h"
#include "closure/ClosureAnalysis.h"
#include "constraints/ConstraintGen.h"
#include "parser/Parser.h"
#include "programs/Corpus.h"
#include "programs/RandomProgram.h"
#include "regions/RegionInference.h"
#include "solver/Solver.h"
#include "types/TypeInference.h"

#include <gtest/gtest.h>

using namespace afl;
using namespace afl::constraints;
using namespace afl::solver;

namespace {

/// Runs frontend + closure analysis + constraint generation and checks
/// that the production solve agrees exactly with the oracle.
void expectSolveModesAgree(const std::string &Source, const char *Label) {
  ast::ASTContext Ctx;
  DiagnosticEngine Diags;
  const ast::Expr *E = parseExpr(Source, Ctx, Diags);
  ASSERT_NE(E, nullptr) << Label;
  types::TypedProgram Typed = types::inferTypes(E, Ctx, Diags);
  ASSERT_TRUE(Typed.Success) << Label;
  auto Prog = regions::inferRegions(E, Ctx, Typed, Diags);
  ASSERT_NE(Prog, nullptr) << Label;
  closure::ClosureAnalysis CA(*Prog);
  CA.run();
  GenResult Gen = generateConstraints(*Prog, CA);

  // Oracle: the raw byte-domain engine, no preprocessing.
  SolveOptions RawOpts;
  RawOpts.Simplify = false;
  SolveResult Raw = solve(Gen.Sys, RawOpts);

  // Production: per-shard simplify + packed solve over the shards
  // recorded by the emission-time union-find.
  SolveResult Simplified = solve(Gen.Sys);

  // The same path behind the per-document shard cache: a cold call
  // solves every distinct shard, a second call replays every shard.
  ShardSolutionCache Cache;
  SolveResult Cold = solveCached(Gen.Sys, SolveOptions(), Cache);
  const uint64_t ColdHits = Cache.Hits, ColdMisses = Cache.Misses;
  SolveResult Warm = solveCached(Gen.Sys, SolveOptions(), Cache);
  EXPECT_EQ(Cache.Hits, ColdHits + Gen.Sys.numShards()) << Label;
  EXPECT_EQ(Cache.Misses, ColdMisses) << Label;

  ASSERT_EQ(Raw.Sat, Simplified.Sat) << Label;
  ASSERT_TRUE(Raw.Sat) << Label
                       << ": the conservative completion witnesses "
                          "satisfiability, so every generated system "
                          "must be Sat";
  EXPECT_EQ(Raw.StateDom, Simplified.StateDom) << Label;
  EXPECT_EQ(Raw.BoolDom, Simplified.BoolDom) << Label;

  for (const auto &[Name, Cached] :
       {std::pair<const char *, const SolveResult &>{"cold", Cold},
        {"warm", Warm}}) {
    SCOPED_TRACE(std::string(Label) + ", " + Name + " cache");
    ASSERT_EQ(Cached.Sat, Raw.Sat);
    EXPECT_EQ(Cached.StateDom, Simplified.StateDom);
    EXPECT_EQ(Cached.BoolDom, Simplified.BoolDom);
    EXPECT_EQ(Cached.StateDom, Raw.StateDom);
    EXPECT_EQ(Cached.BoolDom, Raw.BoolDom);
  }

  // The preprocessing proof obligations: every Eq constraint collapsed,
  // never more residual than original constraints.
  EXPECT_EQ(Simplified.Simplify.EqRemoved,
            Gen.Sys.numConstraintsOfKind(Constraint::Kind::Eq))
      << Label;
  EXPECT_LE(Simplified.Simplify.ConstraintsAfter,
            Simplified.Simplify.ConstraintsBefore)
      << Label;
}

TEST(SolverDifferential, Table2Corpus) {
  for (const programs::BenchProgram &P : programs::table2Corpus())
    expectSolveModesAgree(P.Source, P.Name.c_str());
}

TEST(SolverDifferential, SmallCorpus) {
  for (const programs::BenchProgram &P : programs::smallCorpus())
    expectSolveModesAgree(P.Source, P.Name.c_str());
}

TEST(SolverDifferential, BuiltinScaledPrograms) {
  expectSolveModesAgree(programs::appelSource(20), "@appel 20");
  expectSolveModesAgree(programs::quicksortSource(12), "@quicksort 12");
  expectSolveModesAgree(programs::fibSource(10), "@fib 10");
  expectSolveModesAgree(programs::randlistSource(12), "@randlist 12");
  expectSolveModesAgree(programs::facSource(8), "@fac 8");
}

TEST(SolverDifferential, RandomPrograms500) {
  // 500 random programs across the generator's feature space, including
  // the closure-escape shapes that exercise conservative pinning.
  for (unsigned Seed = 0; Seed != 500; ++Seed) {
    programs::RandomProgramOptions Options;
    Options.HigherOrder = Seed % 3 != 0;
    Options.Recursion = Seed % 4 != 0;
    Options.ClosureEscape = Seed % 5 == 0;
    std::string Source = programs::generateRandomProgram(Seed, Options);
    std::string Label = "seed " + std::to_string(Seed);
    expectSolveModesAgree(Source, Label.c_str());
    if (::testing::Test::HasFatalFailure())
      return;
  }
}

} // namespace

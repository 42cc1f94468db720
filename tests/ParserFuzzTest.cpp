// Robustness fuzzing: the lexer/parser must reject arbitrary byte soup
// with diagnostics, never crash, and the full pipeline must survive
// mutated corpus programs (either failing cleanly or running soundly).

#include "ast/ASTContext.h"
#include "driver/Pipeline.h"
#include "interp/RefInterp.h"
#include "parser/Parser.h"
#include "programs/Corpus.h"

#include <gtest/gtest.h>

#include <random>

using namespace afl;

namespace {

class GarbageFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(GarbageFuzz, NeverCrashes) {
  std::mt19937 Rng(GetParam());
  std::string Source;
  unsigned Len = 1 + Rng() % 120;
  const char Alphabet[] =
      "abcxyz0123456789 ()+-*<=:,%$#@!\n\tfnletrecinendifthenelse";
  for (unsigned I = 0; I != Len; ++I)
    Source += Alphabet[Rng() % (sizeof(Alphabet) - 1)];
  ast::ASTContext Ctx;
  DiagnosticEngine Diags;
  const ast::Expr *E = parseExpr(Source, Ctx, Diags);
  // Either it parsed, or a diagnostic explains why.
  if (!E) {
    EXPECT_TRUE(Diags.hasErrors());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GarbageFuzz, ::testing::Range(0u, 200u));

class MutationFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(MutationFuzz, MutatedCorpusFailsCleanlyOrRunsSoundly) {
  std::mt19937 Rng(GetParam());
  auto Corpus = programs::smallCorpus();
  std::string Source = Corpus[Rng() % Corpus.size()].Source;
  // Apply a few random character mutations.
  for (int I = 0; I != 3; ++I) {
    size_t Pos = Rng() % Source.size();
    switch (Rng() % 3) {
    case 0:
      Source.erase(Pos, 1);
      break;
    case 1:
      Source.insert(Pos, 1, "()+-x10"[Rng() % 7]);
      break;
    default:
      Source[Pos] = "()+-x10"[Rng() % 7];
      break;
    }
  }
  driver::PipelineOptions Options;
  Options.MaxSteps = 2'000'000; // mutations may create long loops
  driver::PipelineResult R = driver::runPipeline(Source, Options);
  if (!R.ok()) {
    EXPECT_TRUE(R.Diags.hasErrors()) << Source;
    return;
  }
  // Still a valid program: full soundness properties must hold.
  EXPECT_EQ(R.Afl.ResultText, interp::runRef(R.Ast, *R.Ctx).ResultText)
      << Source;
  EXPECT_LE(R.Afl.S.MaxValues, R.Conservative.S.MaxValues) << Source;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationFuzz, ::testing::Range(0u, 150u));

/// `if c then t else` nested \p Levels deep in the else branch, closed
/// with a literal. Each level costs about one unit of parser depth.
std::string nestedIfs(int Levels) {
  std::string Src;
  for (int I = 0; I != Levels; ++I)
    Src += "if 1 <= 0 then 0 else ";
  Src += "1";
  return Src;
}

TEST(DeepNesting, WellBelowLimitParses) {
  // Deep but legal nesting must still parse: the guard exists to stop
  // runaway recursion, not to reject real programs.
  ast::ASTContext Ctx;
  DiagnosticEngine Diags;
  const ast::Expr *E = parseExpr(nestedIfs(1500), Ctx, Diags);
  EXPECT_NE(E, nullptr);
  EXPECT_FALSE(Diags.hasErrors());
}

TEST(DeepNesting, AboveLimitFailsWithDiagnostic) {
  ast::ASTContext Ctx;
  DiagnosticEngine Diags;
  const ast::Expr *E = parseExpr(nestedIfs(2500), Ctx, Diags);
  EXPECT_EQ(E, nullptr);
  ASSERT_TRUE(Diags.hasErrors());
  EXPECT_NE(Diags.str().find("expression nesting too deep"),
            std::string::npos);
}

TEST(DeepNesting, HundredThousandParensNoStackOverflow) {
  // The acceptance scenario: a 100k-deep expression must be rejected
  // through the diagnostics engine, not by exhausting the stack. Each
  // parenthesis level costs several recursive frames, so without the
  // depth guard this input crashes long before the lexer runs out of
  // tokens.
  const int Depth = 100000;
  std::string Src(static_cast<size_t>(Depth), '(');
  Src += "1";
  Src.append(static_cast<size_t>(Depth), ')');
  ast::ASTContext Ctx;
  DiagnosticEngine Diags;
  const ast::Expr *E = parseExpr(Src, Ctx, Diags);
  EXPECT_EQ(E, nullptr);
  ASSERT_TRUE(Diags.hasErrors());
  EXPECT_NE(Diags.str().find("expression nesting too deep"),
            std::string::npos);
}

TEST(DeepNesting, DeepConsChainRejectedCleanly) {
  // The right-recursive `::` production is its own recursion path
  // through parseCons; it must hit the same guard.
  std::string Src;
  for (int I = 0; I != 100000; ++I)
    Src += "1 :: ";
  Src += "nil";
  ast::ASTContext Ctx;
  DiagnosticEngine Diags;
  const ast::Expr *E = parseExpr(Src, Ctx, Diags);
  EXPECT_EQ(E, nullptr);
  ASSERT_TRUE(Diags.hasErrors());
  EXPECT_NE(Diags.str().find("expression nesting too deep"),
            std::string::npos);
}

} // namespace

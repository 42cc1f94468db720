// Scaling guards: the full analysis must stay fast on programs an order
// of magnitude larger than the corpus (§7: constraint generation and
// solving run in low-order polynomial time; the solver's border-choice
// search is incremental, not a per-choice rescan).

#include "driver/Pipeline.h"
#include "interp/RefInterp.h"

#include <chrono>
#include <cmath>
#include <gtest/gtest.h>

using namespace afl;

namespace {

std::string chainProgram(int K) {
  std::string Src;
  for (int I = 0; I != K; ++I) {
    std::string F = "f", N = "n";
    F += std::to_string(I);
    N += std::to_string(I);
    Src += "letrec " + F + " " + N + " = if " + N + " <= 0 then 0 else " +
           N + " + " + F + " (" + N + " - 1) in ";
  }
  Src += "let acc = 0 in ";
  for (int I = 0; I != K; ++I)
    Src += "let acc = acc + f" + std::to_string(I) + " 3 in ";
  Src += "acc";
  for (int I = 0; I != 2 * K + 1; ++I)
    Src += " end";
  return Src;
}

/// perfbench's `straight-line` family (perfbench/WORKLOADS.md) with fixed
/// literals; the analysis counts do not depend on the literal values.
/// `let x1 = (1, 1) in ... fst x1 + snd xn end...`
std::string letChainProgram(int N) {
  std::string Src;
  for (int I = 1; I <= N; ++I)
    Src += "let x" + std::to_string(I) + " = (1, 1) in ";
  Src += "fst x1 + snd x" + std::to_string(N);
  for (int I = 0; I != N; ++I)
    Src += " end";
  return Src;
}

/// `1 + 1 + ... + 1` with \p N terms.
std::string sumProgram(int N) {
  std::string Src = "1";
  for (int I = 1; I < N; ++I)
    Src += " + 1";
  return Src;
}

TEST(Scaling, StraightLineCountExponentsWithinBound) {
  // The n -> 2n growth exponent, log2(count(2n) / count(n)), of the state
  // variables and constraints on each straight-line family. Deterministic
  // counts only; no wall time is gated. Every region in scope is in every
  // node's state vector, so both counts grow quadratically today (about
  // 1.99); effect-sparse state vectors should lower this bound.
  constexpr double Bound = 2.0;
  struct Family {
    const char *Name;
    std::string (*Source)(int);
    int N;
  };
  for (const Family &F : {Family{"let-chain", letChainProgram, 60},
                          Family{"sum", sumProgram, 100}}) {
    driver::PipelineOptions Options;
    Options.SkipRuns = true;
    driver::PipelineResult Small = driver::runPipeline(F.Source(F.N), Options);
    driver::PipelineResult Big =
        driver::runPipeline(F.Source(2 * F.N), Options);
    ASSERT_TRUE(Small.ok()) << F.Name << ": " << Small.Diags.str();
    ASSERT_TRUE(Big.ok()) << F.Name << ": " << Big.Diags.str();
    auto Exponent = [](size_t A, size_t B) {
      return std::log2(static_cast<double>(B) / static_cast<double>(A));
    };
    ASSERT_GT(Small.Analysis.NumStateVars, 0u) << F.Name;
    ASSERT_GT(Small.Analysis.NumConstraints, 0u) << F.Name;
    EXPECT_LE(Exponent(Small.Analysis.NumStateVars, Big.Analysis.NumStateVars),
              Bound)
        << F.Name << ": " << Small.Analysis.NumStateVars << " -> "
        << Big.Analysis.NumStateVars << " state variables";
    EXPECT_LE(
        Exponent(Small.Analysis.NumConstraints, Big.Analysis.NumConstraints),
        Bound)
        << F.Name << ": " << Small.Analysis.NumConstraints << " -> "
        << Big.Analysis.NumConstraints << " constraints";
  }
}

TEST(Scaling, StraightLineMaskedEffectExponentWithinBound) {
  // The n -> 2n growth exponent of the summed letregion-masked effect
  // sizes, sum over nodes of |effect()|. A region sits only in the effects
  // on the path from its uses up to its binder, so the sum grows linearly
  // (about 1.0); an effect that kept the regions bound below a node would
  // grow quadratically (about 1.95).
  constexpr double Bound = 1.2;
  struct Family {
    const char *Name;
    std::string (*Source)(int);
    int N;
  };
  auto EffectEntries = [](const std::string &Source) {
    DiagnosticEngine Diags;
    driver::FrontEnd FE = driver::runFrontEnd(Source, Diags);
    EXPECT_NE(FE.Prog, nullptr) << Diags.str();
    size_t Sum = 0;
    if (FE.Prog)
      for (const regions::RExpr *N : FE.Prog->nodes())
        Sum += N->effect().size();
    return Sum;
  };
  for (const Family &F : {Family{"let-chain", letChainProgram, 60},
                          Family{"sum", sumProgram, 100}}) {
    size_t Small = EffectEntries(F.Source(F.N));
    size_t Big = EffectEntries(F.Source(2 * F.N));
    ASSERT_GT(Small, 0u) << F.Name;
    EXPECT_LE(std::log2(static_cast<double>(Big) / static_cast<double>(Small)),
              Bound)
        << F.Name << ": " << Small << " -> " << Big << " effect entries";
  }
}

TEST(Scaling, SixtyFourFunctionsAnalyzeQuickly) {
  auto Start = std::chrono::steady_clock::now();
  driver::PipelineOptions Options;
  Options.SkipRuns = true;
  driver::PipelineResult R = driver::runPipeline(chainProgram(64), Options);
  auto Elapsed = std::chrono::duration_cast<std::chrono::seconds>(
      std::chrono::steady_clock::now() - Start);
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  EXPECT_TRUE(R.Analysis.Solved);
  // Generous bound (was ~0.5s after the incremental-candidate fix; the
  // pre-fix full-rescan solver took ~26s).
  EXPECT_LT(Elapsed.count(), 15);
}

TEST(Scaling, LargeChainRunsCorrectly) {
  driver::PipelineResult R = driver::runPipeline(chainProgram(24));
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  const std::string Reference = interp::runRef(R.Ast, *R.Ctx).ResultText;
  // Each f_i(3) = 3+2+1 = 6; 24 of them.
  EXPECT_EQ(R.Afl.ResultText, std::to_string(24 * 6));
  EXPECT_EQ(R.Afl.ResultText, Reference);
  EXPECT_LE(R.Afl.S.MaxValues, R.Conservative.S.MaxValues);
}

TEST(Scaling, DeepListProgram) {
  // A 400-element list built and consumed: deep recursion within the
  // depth guard, thousands of memory operations.
  driver::PipelineResult R = driver::runPipeline(
      "letrec fromto n = if n = 0 then nil else n :: fromto (n - 1) in "
      "letrec sum l = if null l then 0 else hd l + sum (tl l) in "
      "sum (fromto 400) end end");
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  EXPECT_EQ(R.Afl.ResultText, "80200");
}

} // namespace

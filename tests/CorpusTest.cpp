// Benchmark-corpus tests: every §6 program runs correctly under both
// completions, and the qualitative Table 2 relationships hold.

#include "driver/Pipeline.h"
#include "interp/RefInterp.h"
#include "programs/Corpus.h"

#include <gtest/gtest.h>

using namespace afl;

namespace {

driver::PipelineResult runOk(const std::string &Source) {
  driver::PipelineResult R = driver::runPipeline(Source);
  EXPECT_TRUE(R.ok()) << R.Diags.str();
  return R;
}

class CorpusProgram
    : public ::testing::TestWithParam<programs::BenchProgram> {};

TEST_P(CorpusProgram, CorrectAndNeverWorse) {
  driver::PipelineResult R = runOk(GetParam().Source);
  if (!R.ok())
    return;
  const std::string Reference = interp::runRef(R.Ast, *R.Ctx).ResultText;
  EXPECT_EQ(R.Afl.ResultText, Reference);
  EXPECT_EQ(R.Conservative.ResultText, Reference);
  EXPECT_LE(R.Afl.S.MaxValues, R.Conservative.S.MaxValues);
  EXPECT_LE(R.Afl.S.MaxRegions, R.Conservative.S.MaxRegions);
  EXPECT_EQ(R.Afl.S.TotalValueAllocs, R.Conservative.S.TotalValueAllocs);
  EXPECT_TRUE(R.Analysis.Solved);
}

INSTANTIATE_TEST_SUITE_P(
    Small, CorpusProgram, ::testing::ValuesIn(programs::smallCorpus()),
    [](const ::testing::TestParamInfo<programs::BenchProgram> &Info) {
      std::string Name = Info.param.Name;
      for (char &C : Name)
        if (!isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

TEST(Corpus, AppelAsymptotics) {
  // The headline result (§6, Figure 5): T-T residency grows
  // quadratically, A-F-L linearly. Compare growth factors when doubling n.
  auto MaxVals = [](int N) {
    driver::PipelineResult R = runOk(programs::appelSource(N));
    return std::make_pair(R.Conservative.S.MaxValues, R.Afl.S.MaxValues);
  };
  auto [TT25, AFL25] = MaxVals(25);
  auto [TT50, AFL50] = MaxVals(50);

  double TTGrowth = double(TT50) / double(TT25);
  double AFLGrowth = double(AFL50) / double(AFL25);
  EXPECT_GT(TTGrowth, 3.0) << "T-T should grow ~quadratically";
  EXPECT_LT(AFLGrowth, 2.5) << "A-F-L should grow ~linearly";

  // A-F-L keeps O(1) regions live on this program.
  driver::PipelineResult R = runOk(programs::appelSource(50));
  EXPECT_LE(R.Afl.S.MaxRegions, 16u);
  EXPECT_GE(R.Conservative.S.MaxRegions, 100u);
}

TEST(Corpus, QuicksortConstantFactor) {
  // §6: constant-factor improvement class. A-F-L should save at least
  // ~25% residency on quicksort.
  driver::PipelineResult R = runOk(programs::quicksortSource(40));
  EXPECT_LT(R.Afl.S.MaxValues * 4, R.Conservative.S.MaxValues * 3);
}

TEST(Corpus, FacNearlyIdentical) {
  // §6: the "nearly the same memory behavior" class — the improvement on
  // factorial is modest (same asymptotics; small constant).
  driver::PipelineResult R = runOk(programs::facSource(10));
  EXPECT_LE(R.Afl.S.MaxValues, R.Conservative.S.MaxValues);
  // Both are O(n): within a small constant factor of each other.
  EXPECT_LE(R.Conservative.S.MaxValues, 4 * R.Afl.S.MaxValues);
}

TEST(Corpus, QuicksortSortsCorrectly) {
  driver::PipelineResult R = runOk(programs::quicksortSource(30));
  // The rendered result must be sorted.
  std::string S = R.Afl.ResultText;
  ASSERT_FALSE(S.empty());
  long Prev = -1;
  size_t I = 1; // skip '['
  while (I < S.size() && S[I] != ']') {
    long V = 0;
    bool Any = false;
    while (I < S.size() && isdigit(static_cast<unsigned char>(S[I]))) {
      V = V * 10 + (S[I] - '0');
      ++I;
      Any = true;
    }
    if (Any) {
      EXPECT_LE(Prev, V);
      Prev = V;
    } else {
      ++I;
    }
  }
}

TEST(Corpus, Table2CorpusParses) {
  for (const programs::BenchProgram &P : programs::table2Corpus()) {
    driver::PipelineOptions Options;
    Options.SkipRuns = true; // analysis only; full runs live in bench/
    driver::PipelineResult R = driver::runPipeline(P.Source, Options);
    EXPECT_TRUE(R.ok()) << P.Name << ": " << R.Diags.str();
  }
}

} // namespace

// Property-based tests over randomly generated well-typed programs
// (paper Theorem 5.1 and the §6 "never worse" claim, checked dynamically):
//
//   P1  the A-F-L-completed program runs without any region fault
//       (soundness: no read/write to an unallocated or deallocated
//        region; every region allocated at most once and freed at most
//        once; no region left allocated at letregion exit);
//   P2  its result equals both the reference interpreter's and the
//       conservative (T-T) completion's result;
//   P3  its memory behavior is never worse than T-T: max resident values,
//       max live regions, and final resident values are all <=;
//   P4  the total number of value allocations is identical (completions
//       only move region operations, never value writes).

#include "driver/Pipeline.h"
#include "interp/RefInterp.h"
#include "programs/RandomProgram.h"

#include <gtest/gtest.h>

using namespace afl;

namespace {

class RandomProgramProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomProgramProperty, AflSoundAndNeverWorse) {
  unsigned Seed = GetParam();
  std::string Source = programs::generateRandomProgram(Seed);
  SCOPED_TRACE("seed " + std::to_string(Seed) + ": " + Source);

  driver::PipelineResult R = driver::runPipeline(Source);
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  const std::string Reference = interp::runRef(R.Ast, *R.Ctx).ResultText;

  // P1/P2: both runs succeeded (runPipeline fails otherwise); values agree.
  EXPECT_EQ(R.Afl.ResultText, Reference);
  EXPECT_EQ(R.Conservative.ResultText, Reference);

  // P3: never worse than Tofte/Talpin.
  EXPECT_LE(R.Afl.S.MaxValues, R.Conservative.S.MaxValues);
  EXPECT_LE(R.Afl.S.MaxRegions, R.Conservative.S.MaxRegions);
  EXPECT_LE(R.Afl.S.FinalValues, R.Conservative.S.FinalValues);
  EXPECT_LE(R.Afl.S.TotalRegionAllocs, R.Conservative.S.TotalRegionAllocs);

  // P4: value allocations are untouched by completion placement.
  EXPECT_EQ(R.Afl.S.TotalValueAllocs, R.Conservative.S.TotalValueAllocs);

  // The solver must never have to fall back.
  EXPECT_TRUE(R.Analysis.Solved);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramProperty,
                         ::testing::Range(0u, 400u));

class FirstOrderProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(FirstOrderProperty, DeeperFirstOrderPrograms) {
  programs::RandomProgramOptions Options;
  Options.MaxDepth = 7;
  Options.HigherOrder = false;
  unsigned Seed = GetParam();
  std::string Source = programs::generateRandomProgram(Seed, Options);
  SCOPED_TRACE("seed " + std::to_string(Seed) + ": " + Source);

  driver::PipelineResult R = driver::runPipeline(Source);
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  const std::string Reference = interp::runRef(R.Ast, *R.Ctx).ResultText;
  EXPECT_EQ(R.Afl.ResultText, Reference);
  EXPECT_LE(R.Afl.S.MaxValues, R.Conservative.S.MaxValues);
  EXPECT_EQ(R.Afl.S.TotalValueAllocs, R.Conservative.S.TotalValueAllocs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FirstOrderProperty,
                         ::testing::Range(1000u, 1100u));

class ClosureEscapeProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(ClosureEscapeProperty, PoolPathSoundAndNeverWorse) {
  // Programs that store closures in pairs exercise the escape pool and
  // the conservative pinning fallback: soundness (P1) and correctness
  // (P2) must hold unconditionally; the never-worse bound (P3) holds for
  // peak residency even when pinning disables some frees.
  programs::RandomProgramOptions Options;
  Options.ClosureEscape = true;
  unsigned Seed = GetParam();
  std::string Source = programs::generateRandomProgram(Seed, Options);
  SCOPED_TRACE("seed " + std::to_string(Seed) + ": " + Source);

  driver::PipelineResult R = driver::runPipeline(Source);
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  const std::string Reference = interp::runRef(R.Ast, *R.Ctx).ResultText;
  EXPECT_EQ(R.Afl.ResultText, Reference);
  EXPECT_LE(R.Afl.S.MaxValues, R.Conservative.S.MaxValues);
  EXPECT_EQ(R.Afl.S.TotalValueAllocs, R.Conservative.S.TotalValueAllocs);
  EXPECT_TRUE(R.Analysis.Solved);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClosureEscapeProperty,
                         ::testing::Range(3000u, 3200u));

class DeepEverythingProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(DeepEverythingProperty, AllFeaturesAtDepthSeven) {
  programs::RandomProgramOptions Options;
  Options.MaxDepth = 7;
  Options.ClosureEscape = true;
  unsigned Seed = GetParam();
  std::string Source = programs::generateRandomProgram(Seed, Options);
  SCOPED_TRACE("seed " + std::to_string(Seed) + ": " + Source);

  driver::PipelineResult R = driver::runPipeline(Source);
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  const std::string Reference = interp::runRef(R.Ast, *R.Ctx).ResultText;
  EXPECT_EQ(R.Afl.ResultText, Reference);
  EXPECT_EQ(R.Conservative.ResultText, Reference);
  EXPECT_LE(R.Afl.S.MaxValues, R.Conservative.S.MaxValues);
  EXPECT_LE(R.Afl.S.MaxRegions, R.Conservative.S.MaxRegions);
  EXPECT_EQ(R.Afl.S.TotalValueAllocs, R.Conservative.S.TotalValueAllocs);
  EXPECT_TRUE(R.Analysis.Solved);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeepEverythingProperty,
                         ::testing::Range(7000u, 7150u));

} // namespace

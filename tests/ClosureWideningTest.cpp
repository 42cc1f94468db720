// Tests for the context-set widening (docs/ANALYSIS_CORE.md): the
// canonical invisible-class recoloring itself, its off-switch
// bit-identity, agreement across both fixpoint modes, the shared
// stabilization-cap derivation (a capped worklist must fall back to
// the conservative completion), the
// exact-blows-up/widened-converges cliff on the permuted-payload
// family, and the differential precision sweep over the corpus plus
// 500 random programs quantifying what the merge costs at runtime.

#include "ast/ASTContext.h"
#include "closure/ClosureAnalysis.h"
#include "completion/AflCompletion.h"
#include "completion/Conservative.h"
#include "constraints/ConstraintPrinter.h"
#include "driver/Pipeline.h"
#include "parser/Parser.h"
#include "programs/Corpus.h"
#include "programs/RandomProgram.h"
#include "regions/RegionInference.h"
#include "regions/RegionPrinter.h"
#include "types/TypeInference.h"

#include <gtest/gtest.h>

#include <limits>

using namespace afl;
using namespace afl::closure;
using namespace afl::regions;

namespace {

//===----------------------------------------------------------------------===//
// widenRegEnvMap unit properties
//===----------------------------------------------------------------------===//

TEST(WidenRegEnvMap, ZeroBoundIsOff) {
  RegEnvMap Map = {{1, 4}, {2, 7}, {3, 9}};
  RegEnvMap Before = Map;
  EXPECT_FALSE(widenRegEnvMap(Map, {}, 0));
  EXPECT_EQ(Map, Before);
  EXPECT_TRUE(widenedRegEnvVars(Map, {}, 0).empty());
}

TEST(WidenRegEnvMap, UnderBoundIsIdentity) {
  // Two invisible classes, bound 2: within the bound, untouched.
  RegEnvMap Map = {{1, 4}, {2, 7}, {3, 7}};
  RegEnvMap Before = Map;
  EXPECT_FALSE(widenRegEnvMap(Map, {}, 2));
  EXPECT_EQ(Map, Before);
  EXPECT_TRUE(widenedRegEnvVars(Map, {}, 2).empty());
}

TEST(WidenRegEnvMap, VisibleClassesNeverCountOrMove) {
  // Vars 1 and 2 are visible (in the consumer's latent effect); only
  // var 3's class is invisible — count 1 <= bound 1, no recolor even
  // though there are 3 classes total.
  RegEnvMap Map = {{1, 5}, {2, 8}, {3, 2}};
  RegEnvMap Before = Map;
  EXPECT_FALSE(widenRegEnvMap(Map, {1, 2}, 1));
  EXPECT_EQ(Map, Before);
}

TEST(WidenRegEnvMap, CanonicalRecolorSkipsVisibleColors) {
  // Visible class {var 1 -> 5}; three invisible classes with colors
  // 7, 3, 9 (first seen at vars 2, 3, 4). Bound 2 < 3 fires: invisible
  // classes take ascending canonical colors in smallest-member-var
  // order, skipping the visible color 5.
  RegEnvMap Map = {{1, 5}, {2, 7}, {3, 3}, {4, 9}};
  EXPECT_TRUE(widenRegEnvMap(Map, {1}, 2));
  RegEnvMap Want = {{1, 5}, {2, 0}, {3, 1}, {4, 2}};
  EXPECT_EQ(Map, Want);
  std::vector<RegionVarId> Vars = widenedRegEnvVars(Want, {1}, 2);
  EXPECT_EQ(Vars, (std::vector<RegionVarId>{2, 3, 4}));
}

TEST(WidenRegEnvMap, ReservedVisibleColorIsSkipped) {
  // Visible color 1 must not be reused for an invisible class.
  RegEnvMap Map = {{1, 1}, {2, 6}, {3, 4}};
  EXPECT_TRUE(widenRegEnvMap(Map, {1}, 1));
  RegEnvMap Want = {{1, 1}, {2, 0}, {3, 2}};
  EXPECT_EQ(Map, Want);
}

TEST(WidenRegEnvMap, PreservesAliasingPartition) {
  // Vars 2 and 4 alias (one class); 3 is separate. After recoloring
  // the partition must survive: 2 and 4 still share, 3 still differs.
  RegEnvMap Map = {{1, 9}, {2, 6}, {3, 4}, {4, 6}};
  EXPECT_TRUE(widenRegEnvMap(Map, {1}, 1));
  Color C2 = 0, C3 = 0, C4 = 0;
  for (const auto &[Var, C] : Map) {
    if (Var == 2)
      C2 = C;
    if (Var == 3)
      C3 = C;
    if (Var == 4)
      C4 = C;
  }
  EXPECT_EQ(C2, C4);
  EXPECT_NE(C2, C3);
}

TEST(WidenRegEnvMap, IdempotentOnContent) {
  RegEnvMap Map = {{1, 5}, {2, 7}, {3, 3}, {4, 9}};
  EXPECT_TRUE(widenRegEnvMap(Map, {1}, 2));
  RegEnvMap Once = Map;
  // A second application still reports "fired" (the class count is
  // still over the bound — widened-ness is re-derivable) but must not
  // change the content.
  EXPECT_TRUE(widenRegEnvMap(Map, {1}, 2));
  EXPECT_EQ(Map, Once);
}

TEST(WidenRegEnvMap, PermutationOrbitCollapses) {
  // Two environments that permute the same invisible partition across
  // the same vars widen to the same canonical map — this is the merge
  // that bounds the permuted-payload family.
  RegEnvMap A = {{1, 0}, {2, 1}, {3, 2}};
  RegEnvMap B = {{1, 2}, {2, 0}, {3, 1}};
  EXPECT_TRUE(widenRegEnvMap(A, {}, 1));
  EXPECT_TRUE(widenRegEnvMap(B, {}, 1));
  EXPECT_EQ(A, B);
}

//===----------------------------------------------------------------------===//
// ClosureOptions::stepCap — the shared overflow-checked derivation
//===----------------------------------------------------------------------===//

TEST(StepCap, MaxStepsOverridesDerivation) {
  ClosureOptions O;
  O.MaxSteps = 42;
  EXPECT_EQ(O.stepCap(1000000), 42u);
}

TEST(StepCap, DerivesPassesTimesNodes) {
  ClosureOptions O;
  O.MaxSteps = 0;
  O.MaxPasses = 1000;
  EXPECT_EQ(O.stepCap(50), 50000u);
}

TEST(StepCap, ZeroNodesCountsAsOne) {
  ClosureOptions O;
  O.MaxSteps = 0;
  O.MaxPasses = 7;
  EXPECT_EQ(O.stepCap(0), 7u);
}

TEST(StepCap, SaturatesInsteadOfOverflowing) {
  ClosureOptions O;
  O.MaxSteps = 0;
  O.MaxPasses = 1000;
  EXPECT_EQ(O.stepCap(std::numeric_limits<size_t>::max() / 2),
            std::numeric_limits<size_t>::max());
}

//===----------------------------------------------------------------------===//
// End-to-end helpers
//===----------------------------------------------------------------------===//

std::unique_ptr<RegionProgram> frontend(const std::string &Source,
                                        ast::ASTContext &Ctx,
                                        const char *Label) {
  DiagnosticEngine Diags;
  const ast::Expr *E = parseExpr(Source, Ctx, Diags);
  EXPECT_NE(E, nullptr) << Label << ": " << Diags.str();
  if (!E)
    return nullptr;
  types::TypedProgram Typed = types::inferTypes(E, Ctx, Diags);
  EXPECT_TRUE(Typed.Success) << Label << ": " << Diags.str();
  if (!Typed.Success)
    return nullptr;
  auto Prog = inferRegions(E, Ctx, Typed, Diags);
  EXPECT_NE(Prog, nullptr) << Label << ": " << Diags.str();
  return Prog;
}

/// Exact-analysis options: widening off. That is the default; it is
/// spelled out so each test states which side of the comparison it is.
ClosureOptions exactOpts() {
  ClosureOptions O;
  O.Widening = 0;
  return O;
}

ClosureOptions widenedOpts(unsigned K) {
  ClosureOptions O = exactOpts();
  O.Widening = K;
  return O;
}

/// Constraint dump + printed completion + Solved flag for one options
/// set — the byte-comparable artifact bundle.
struct Artifacts {
  bool Solved = false;
  std::string System;
  std::string Printed;
  ClosureStats Closure;
  size_t NumWidenedPinned = 0;
};

Artifacts artifactsFor(const RegionProgram &Prog,
                       const ClosureOptions &Opts) {
  Artifacts A;
  ClosureAnalysis CA(Prog, Opts);
  if (CA.run()) {
    constraints::GenResult Gen =
        constraints::generateConstraints(Prog, CA);
    A.System = constraints::dumpSystem(Gen);
    A.NumWidenedPinned = Gen.NumWidenedPinned;
  }
  A.Closure = CA.stats();
  completion::AflStats Stats;
  regions::Completion Cpl = completion::aflCompletion(
      Prog, &Stats, constraints::GenOptions(), solver::SolveOptions(),
      Opts);
  A.Solved = Stats.Solved;
  A.Printed = printRegionProgram(Prog, &Cpl);
  return A;
}

//===----------------------------------------------------------------------===//
// Widening-off and not-fired bit-identity
//===----------------------------------------------------------------------===//

TEST(ClosureWidening, ZeroBoundIsBitIdenticalToExact) {
  // --closure-widen=0 must be *the* exact analysis, not a near miss:
  // byte-identical constraint systems and completions on the corpus.
  for (const programs::BenchProgram &P : programs::smallCorpus()) {
    ast::ASTContext Ctx;
    auto Prog = frontend(P.Source, Ctx, P.Name.c_str());
    ASSERT_NE(Prog, nullptr);
    Artifacts Exact = artifactsFor(*Prog, exactOpts());
    Artifacts Zero = artifactsFor(*Prog, widenedOpts(0));
    EXPECT_TRUE(Exact.Solved) << P.Name;
    EXPECT_EQ(Exact.System, Zero.System) << P.Name;
    EXPECT_EQ(Exact.Printed, Zero.Printed) << P.Name;
    EXPECT_EQ(Zero.Closure.WideningBound, 0u);
    EXPECT_EQ(Zero.Closure.WidenedClosures, 0u);
  }
}

TEST(ClosureWidening, UnfiredBoundIsBitIdenticalToExact) {
  // A bound no corpus program exceeds: the widening hook runs on every
  // closure creation but must be a pure identity — proving the hook
  // itself cannot perturb the analysis.
  for (const programs::BenchProgram &P : programs::smallCorpus()) {
    ast::ASTContext Ctx;
    auto Prog = frontend(P.Source, Ctx, P.Name.c_str());
    ASSERT_NE(Prog, nullptr);
    Artifacts Exact = artifactsFor(*Prog, exactOpts());
    Artifacts High = artifactsFor(*Prog, widenedOpts(1000000));
    EXPECT_EQ(Exact.System, High.System) << P.Name;
    EXPECT_EQ(Exact.Printed, High.Printed) << P.Name;
    EXPECT_EQ(High.Closure.WideningBound, 1000000u);
    EXPECT_EQ(High.Closure.WidenedClosures, 0u) << P.Name;
    EXPECT_EQ(High.NumWidenedPinned, 0u) << P.Name;
  }
}

//===----------------------------------------------------------------------===//
// Cross-mode agreement under an active widening bound
//===----------------------------------------------------------------------===//

TEST(ClosureWidening, AllFixpointModesAgreeUnderWidening) {
  // The widened analysis must stay deterministic across the worklist
  // and restart fixpoints, exactly like the exact analysis
  // (ClosureDifferentialTest). permSource(4, 3) fires the bound heavily;
  // the corpus programs exercise the no-fire path.
  std::vector<programs::BenchProgram> Cases = programs::smallCorpus();
  Cases.push_back({"Perm(4,3)", programs::permSource(4, 3)});
  for (const programs::BenchProgram &P : Cases) {
    ast::ASTContext Ctx;
    auto Prog = frontend(P.Source, Ctx, P.Name.c_str());
    ASSERT_NE(Prog, nullptr);

    ClosureOptions Worklist = widenedOpts(2);
    ClosureOptions Restart = widenedOpts(2);
    Restart.UseWorklist = false;

    Artifacts W = artifactsFor(*Prog, Worklist);
    ASSERT_TRUE(W.Solved) << P.Name;
    SCOPED_TRACE(P.Name + std::string(" vs restart"));
    Artifacts O = artifactsFor(*Prog, Restart);
    EXPECT_TRUE(O.Solved);
    EXPECT_EQ(W.System, O.System);
    EXPECT_EQ(W.Printed, O.Printed);
    // The post-fixpoint widening counters are content-derived and must
    // agree too (this pins the recomputed design).
    EXPECT_EQ(W.Closure.WidenedClosures, O.Closure.WidenedClosures);
    EXPECT_EQ(W.Closure.WidenedVars, O.Closure.WidenedVars);
    EXPECT_EQ(W.NumWidenedPinned, O.NumWidenedPinned);
  }
}

//===----------------------------------------------------------------------===//
// The cap: shared derivation, shared conservative fallback
//===----------------------------------------------------------------------===//

TEST(ClosureWidening, CapHitFallsBackConservativelyInEveryMode) {
  // A cap far below what permSource(4, 3) needs: the worklist must
  // report non-convergence, and aflCompletion must fall back to the
  // conservative completion rather than "almost finish" into something
  // different.
  ast::ASTContext Ctx;
  auto Prog = frontend(programs::permSource(4, 3), Ctx, "Perm(4,3)");
  ASSERT_NE(Prog, nullptr);

  ClosureOptions Seq = exactOpts();
  Seq.MaxSteps = 10;

  ClosureAnalysis SeqCA(*Prog, Seq);
  EXPECT_FALSE(SeqCA.run());
  EXPECT_FALSE(SeqCA.error().empty());

  completion::AflStats SeqStats;
  regions::Completion SeqCpl = completion::aflCompletion(
      *Prog, &SeqStats, constraints::GenOptions(), solver::SolveOptions(),
      Seq);
  EXPECT_FALSE(SeqStats.Solved);
  regions::Completion Conservative = completion::conservativeCompletion(*Prog);
  EXPECT_EQ(printRegionProgram(*Prog, &SeqCpl),
            printRegionProgram(*Prog, &Conservative));
}

//===----------------------------------------------------------------------===//
// The cliff: exact blows past the cap, widened converges
//===----------------------------------------------------------------------===//

TEST(ClosureWidening, WidenedConvergesWhereExactHitsTheCap) {
  // Same program, same stabilization budget. The exact analysis must
  // enumerate the slot-permutation orbit and run out; the widened
  // analysis collapses the orbit and converges to a solved completion.
  ast::ASTContext Ctx;
  auto Prog = frontend(programs::permSource(6, 3), Ctx, "Perm(6,3)");
  ASSERT_NE(Prog, nullptr);

  ClosureOptions Exact = exactOpts();
  Exact.MaxSteps = 20000;
  ClosureOptions Widened = widenedOpts(2);
  Widened.MaxSteps = 20000;

  ClosureAnalysis ExactCA(*Prog, Exact);
  EXPECT_FALSE(ExactCA.run()) << "exact analysis should exceed the cap";

  ClosureAnalysis WidenedCA(*Prog, Widened);
  ASSERT_TRUE(WidenedCA.run()) << WidenedCA.error();
  EXPECT_GT(WidenedCA.stats().WidenedClosures, 0u);

  completion::AflStats ExactStats, WidenedStats;
  completion::aflCompletion(*Prog, &ExactStats, constraints::GenOptions(),
                            solver::SolveOptions(), Exact);
  completion::aflCompletion(*Prog, &WidenedStats, constraints::GenOptions(),
                            solver::SolveOptions(), Widened);
  EXPECT_FALSE(ExactStats.Solved);
  EXPECT_TRUE(WidenedStats.Solved);
  EXPECT_EQ(WidenedStats.Closure.WideningBound, 2u);
}

//===----------------------------------------------------------------------===//
// Differential precision harness: corpus + 500 random programs
//===----------------------------------------------------------------------===//

/// Runs the full pipeline (analysis + instrumented runs) exact and
/// widened at K; asserts soundness (same computed value; widened
/// residency within the conservative envelope) and accumulates the
/// precision cost as extra allocations / extra peak residency.
struct PrecisionDelta {
  size_t Programs = 0;
  size_t Regressed = 0;
  long long ExtraValueAllocs = 0;
  long long ExtraPeakValues = 0;
};

void sweepOne(const std::string &Source, const char *Label, unsigned K,
              PrecisionDelta &Agg) {
  driver::PipelineOptions ExactOpt, WideOpt;
  ExactOpt.ClosureOptions = exactOpts();
  WideOpt.ClosureOptions = widenedOpts(K);

  driver::PipelineResult Exact = driver::runPipeline(Source, ExactOpt);
  driver::PipelineResult Wide = driver::runPipeline(Source, WideOpt);
  ASSERT_TRUE(Exact.ok()) << Label << ": " << Exact.Diags.str();
  ASSERT_TRUE(Wide.ok()) << Label << ": " << Wide.Diags.str();
  ASSERT_TRUE(Exact.Afl.Ok && Wide.Afl.Ok) << Label;

  // Soundness: the widened completion still computes the same value...
  EXPECT_EQ(Exact.Afl.ResultText, Wide.Afl.ResultText) << Label;
  // ...and its memory behavior stays within the conservative envelope
  // (the paper's never-worse-than-T-T guarantee must survive widening).
  ASSERT_TRUE(Wide.Conservative.Ok) << Label;
  EXPECT_LE(Wide.Afl.S.MaxValues, Wide.Conservative.S.MaxValues) << Label;

  // Precision: count what the merge cost at runtime.
  long long DAllocs =
      static_cast<long long>(Wide.Afl.S.TotalValueAllocs) -
      static_cast<long long>(Exact.Afl.S.TotalValueAllocs);
  long long DPeak = static_cast<long long>(Wide.Afl.S.MaxValues) -
                    static_cast<long long>(Exact.Afl.S.MaxValues);
  ++Agg.Programs;
  if (DAllocs != 0 || DPeak != 0)
    ++Agg.Regressed;
  Agg.ExtraValueAllocs += DAllocs;
  Agg.ExtraPeakValues += DPeak;
}

TEST(ClosureWidening, PrecisionSweepCorpusAndRandom500) {
  const unsigned K = 2;
  PrecisionDelta Agg;

  for (const programs::BenchProgram &P : programs::smallCorpus()) {
    sweepOne(P.Source, P.Name.c_str(), K, Agg);
    if (::testing::Test::HasFatalFailure())
      return;
  }
  sweepOne(programs::permSource(4, 3), "Perm(4,3)", K, Agg);

  for (unsigned Seed = 0; Seed != 500; ++Seed) {
    programs::RandomProgramOptions Options;
    Options.HigherOrder = Seed % 3 != 0;
    Options.Recursion = Seed % 4 != 0;
    Options.ClosureEscape = Seed % 5 == 0;
    Options.NestedHof = Seed % 7 == 0;
    std::string Source = programs::generateRandomProgram(Seed, Options);
    std::string Label = "seed " + std::to_string(Seed);
    sweepOne(Source, Label.c_str(), K, Agg);
    if (::testing::Test::HasFatalFailure())
      return;
  }

  // The harness is about *measuring* the loss, not forbidding it; what
  // must hold is that the sweep ran everything.
  EXPECT_EQ(Agg.Programs, 508u);
  ::testing::Test::RecordProperty("widening_k", static_cast<int>(K));
  ::testing::Test::RecordProperty("programs",
                                  static_cast<int>(Agg.Programs));
  ::testing::Test::RecordProperty("programs_with_delta",
                                  static_cast<int>(Agg.Regressed));
  ::testing::Test::RecordProperty("extra_value_allocs",
                                  static_cast<int>(Agg.ExtraValueAllocs));
  ::testing::Test::RecordProperty("extra_peak_values",
                                  static_cast<int>(Agg.ExtraPeakValues));
  std::printf("widening precision (K=%u): %zu programs, %zu with a "
              "delta, %+lld value allocs, %+lld peak values vs exact\n",
              K, Agg.Programs, Agg.Regressed, Agg.ExtraValueAllocs,
              Agg.ExtraPeakValues);
}

} // namespace

// Tests for the shape of generated constraint systems, their statistics
// and dumping.

#include "ast/ASTContext.h"
#include "closure/ClosureAnalysis.h"
#include "constraints/ConstraintPrinter.h"
#include "parser/Parser.h"
#include "programs/Corpus.h"
#include "regions/RegionInference.h"
#include "types/TypeInference.h"

#include <gtest/gtest.h>

using namespace afl;
using namespace afl::constraints;

namespace {

GenResult genFor(const std::string &Source,
                 std::unique_ptr<regions::RegionProgram> &ProgOut) {
  ast::ASTContext Ctx;
  DiagnosticEngine Diags;
  const ast::Expr *E = parseExpr(Source, Ctx, Diags);
  EXPECT_NE(E, nullptr) << Diags.str();
  types::TypedProgram T = types::inferTypes(E, Ctx, Diags);
  EXPECT_TRUE(T.Success);
  ProgOut = regions::inferRegions(E, Ctx, T, Diags);
  EXPECT_NE(ProgOut, nullptr);
  closure::ClosureAnalysis CA(*ProgOut);
  CA.run();
  return generateConstraints(*ProgOut, CA);
}

TEST(ConstraintPrinter, StatsAddUp) {
  std::unique_ptr<regions::RegionProgram> Prog;
  GenResult Gen = genFor(programs::example11Source(), Prog);
  SystemStats S = systemStats(Gen);
  EXPECT_EQ(S.Equalities + S.AllocTriples + S.DeallocTriples,
            Gen.Sys.numConstraints());
  EXPECT_EQ(S.AllocBeforeChoices + S.FreeAfterChoices + S.FreeAppChoices,
            Gen.Choices.size());
  EXPECT_GT(S.AllocTriples, 0u);
  EXPECT_GT(S.DeallocTriples, 0u);
  EXPECT_GT(S.RestrictedStates, 0u); // letregion U-entries, access =A
  EXPECT_EQ(S.FreeAppChoices, 1u);   // one application in Example 1.1
}

/// `let x1 = (1, 1) in ... let xn = (n, n) in fst x1 + snd xn end ...`.
std::string letChain(int N) {
  std::string Out;
  for (int I = 1; I <= N; ++I)
    Out += "let x" + std::to_string(I) + " = (" + std::to_string(I) + ", " +
           std::to_string(I) + ") in ";
  Out += "fst x1 + snd x" + std::to_string(N);
  for (int I = 0; I < N; ++I)
    Out += " end";
  return Out;
}

/// `1 + 2 + ... + n`.
std::string sum(int N) {
  std::string Out = "1";
  for (int I = 2; I <= N; ++I)
    Out += " + " + std::to_string(I);
  return Out;
}

TEST(ConstraintGen, StraightLineCodeEmitsNoEq) {
  // A child context's in vector is its parent's chain vector and each
  // post-chain ends in the out vector itself, so code without joins,
  // calls or shared contexts threads its state with triples alone.
  for (const auto &[Label, Source] :
       {std::pair<const char *, std::string>{"let-chain 20", letChain(20)},
        {"sum 30", sum(30)}}) {
    std::unique_ptr<regions::RegionProgram> Prog;
    GenResult Gen = genFor(Source, Prog);
    SystemStats S = systemStats(Gen);
    EXPECT_EQ(S.Equalities, 0u) << Label;
    EXPECT_GT(S.AllocTriples, 0u) << Label;
    EXPECT_GT(S.DeallocTriples, 0u) << Label;
  }
}

TEST(ConstraintGen, JoinsAndCallsStillEmitEq) {
  // An if joins two branch vectors into one, and an application equates
  // caller and callee states: both are links between distinct variables.
  for (const char *Source :
       {"if 1 < 2 then 3 else 4", "(fn x => x + 1) 2"}) {
    std::unique_ptr<regions::RegionProgram> Prog;
    GenResult Gen = genFor(Source, Prog);
    EXPECT_GT(systemStats(Gen).Equalities, 0u) << Source;
  }
}

TEST(ConstraintPrinter, SummaryAndDump) {
  std::unique_ptr<regions::RegionProgram> Prog;
  GenResult Gen = genFor("1 + 2", Prog);
  std::string Summary = summarize(Gen);
  EXPECT_NE(Summary.find("state vars"), std::string::npos);
  EXPECT_NE(Summary.find("alloc triples"), std::string::npos);
  std::string Dump = dumpSystem(Gen);
  EXPECT_NE(Dump.find(")a"), std::string::npos);
  EXPECT_NE(Dump.find(")d"), std::string::npos);
  EXPECT_NE(Dump.find("alloc_before r"), std::string::npos);
  // Every choice boolean appears in the dump.
  for (const ChoicePoint &CP : Gen.Choices) {
    std::string Assign = "c";
    Assign += std::to_string(CP.B) + " := ";
    EXPECT_NE(Dump.find(Assign), std::string::npos);
  }
}

TEST(ConstraintPrinter, ChoicesCoverEveryOverallEffectRegion) {
  std::unique_ptr<regions::RegionProgram> Prog;
  GenResult Gen = genFor("let x = (1, 2) in fst x end", Prog);
  // Each reachable node must have one alloc_before and one free_after
  // choice per overall-effect region (the §4.2 pre-pass).
  std::map<std::pair<regions::RNodeId, regions::RegionVarId>, int> Alloc;
  for (const ChoicePoint &CP : Gen.Choices)
    if (CP.Kind == regions::COpKind::AllocBefore)
      ++Alloc[{CP.Node, CP.Region}];
  for (const auto &[Key, Count] : Alloc)
    EXPECT_EQ(Count, 1) << "duplicate choice point";
}

} // namespace

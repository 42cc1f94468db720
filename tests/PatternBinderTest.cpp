// Tests for pair-pattern binders ("fn (x, y) => ...", "let (x, y) = ...",
// "letrec f (x, y) = ..."), a parser-level desugaring into fst/snd
// projections.

#include "driver/Pipeline.h"
#include "interp/RefInterp.h"

#include <gtest/gtest.h>

using namespace afl;

namespace {

void check(const std::string &Source, const std::string &Expected) {
  SCOPED_TRACE(Source);
  driver::PipelineResult R = driver::runPipeline(Source);
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  EXPECT_EQ(R.Afl.ResultText, Expected);
  EXPECT_EQ(interp::runRef(R.Ast, *R.Ctx).ResultText, Expected);
  EXPECT_LE(R.Afl.S.MaxValues, R.Conservative.S.MaxValues);
}

TEST(PatternBinder, LambdaPattern) {
  check("(fn (a, b) => a + b) (3, 4)", "7");
}

TEST(PatternBinder, LetPattern) {
  check("let (a, b) = (10, 20) in a * b end", "200");
}

TEST(PatternBinder, LetrecPattern) {
  check("letrec g (n, acc) = if n = 0 then acc + 0 else g (n - 1, acc + "
        "n) in g (10, 0) end",
        "55");
}

TEST(PatternBinder, NestedPattern) {
  check("let ((a, b), c) = ((1, 2), 3) in a + 10 * b + 100 * c end",
        "321");
}

TEST(PatternBinder, PatternShadowing) {
  check("let a = 1 in let (a, b) = (2, 3) in a + b end end", "5");
}

TEST(PatternBinder, PatternInHigherOrder) {
  check("let apply = fn (f, x) => f x in apply ((fn n => n * n), 7) end",
        "49");
}

TEST(PatternBinder, ErrorOnNonPattern) {
  driver::PipelineResult R = driver::runPipeline("fn (a, ) => a");
  EXPECT_FALSE(R.ok());
}

TEST(PatternBinder, QuicksortStyleHelpers) {
  // The corpus helpers become pleasantly readable with patterns.
  check("letrec append (xs, ys) = if null xs then ys else hd xs :: append "
        "(tl xs, ys) in append (1 :: 2 :: nil, 3 :: nil) end",
        "[1, 2, 3]");
}

} // namespace

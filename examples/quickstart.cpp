//===----------------------------------------------------------------------===//
///
/// \file
/// Quickstart: run the full aflregion pipeline on the paper's Example 1.1
/// and print (a) the Tofte/Talpin region-annotated program with the
/// conservative completion, (b) the A-F-L completion computed by the
/// constraint solver, and (c) the memory behavior of both.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "interp/RefInterp.h"

#include <cstdio>

using namespace afl;

int main() {
  // Example 1.1 from the paper:
  //   (let z = (2,3) in fn y => (fst z, y) end) 5
  const char *Source = "(let z = (2, 3) in fn y => (fst z, y) end) 5";

  driver::PipelineResult R = driver::runPipeline(Source);
  if (!R.ok()) {
    std::fprintf(stderr, "pipeline failed:\n%s\n", R.Diags.str().c_str());
    return 1;
  }

  std::printf("=== source ===\n%s\n\n", Source);
  std::printf("=== Tofte/Talpin (conservative completion) ===\n%s\n",
              R.printConservative().c_str());
  std::printf("=== A-F-L completion ===\n%s\n", R.printAfl().c_str());

  std::printf("=== memory behavior ===\n");
  std::printf("%-34s %10s %10s\n", "metric", "T-T", "A-F-L");
  auto Row = [](const char *Name, uint64_t T, uint64_t A) {
    std::printf("%-34s %10llu %10llu\n", Name, (unsigned long long)T,
                (unsigned long long)A);
  };
  Row("max regions allocated", R.Conservative.S.MaxRegions,
      R.Afl.S.MaxRegions);
  Row("total region allocations", R.Conservative.S.TotalRegionAllocs,
      R.Afl.S.TotalRegionAllocs);
  Row("total value allocations", R.Conservative.S.TotalValueAllocs,
      R.Afl.S.TotalValueAllocs);
  Row("max values held", R.Conservative.S.MaxValues, R.Afl.S.MaxValues);
  Row("values in final memory", R.Conservative.S.FinalValues,
      R.Afl.S.FinalValues);

  std::printf("\nresult: %s (reference interpreter: %s)\n",
              R.Afl.ResultText.c_str(),
              interp::runRef(R.Ast, *R.Ctx).ResultText.c_str());
  return 0;
}

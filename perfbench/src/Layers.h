//===----------------------------------------------------------------------===//
///
/// \file
/// Two ways to run one program through the default production pipeline:
/// untraced, as one call to driver::runPipeline with the options `aflc
/// <program>` uses, and traced, as the same stages called one by one
/// through each layer's public function with a span around every call.
/// Both must produce the same A-F-L completion; the digest of its printed
/// form is how the benchmark checks that.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "Trace.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

/// Deterministic work counts of one program, summed over a pass.
struct Counts {
  uint64_t AstNodes = 0;
  uint64_t RegionVars = 0;
  uint64_t RegionNodes = 0;
  uint64_t Contexts = 0;
  uint64_t ProcessedContexts = 0;
  uint64_t Converged = 0; ///< programs whose closure fixpoint converged
  uint64_t StateVars = 0;
  uint64_t Constraints = 0;
  uint64_t Shards = 0;
  uint64_t LargestShard = 0; ///< max over the pass
  uint64_t Propagations = 0;
  uint64_t Choices = 0;
  uint64_t Backtracks = 0;
  uint64_t ConstraintsBeforeSimplify = 0;
  uint64_t ConstraintsAfterSimplify = 0;
  uint64_t CompletionOps = 0; ///< A-F-L completion operations placed
  uint64_t VmSteps = 0;
  uint64_t VmMemOps = 0;

  void add(const Counts &O);
};

/// Sub-stage times the layers report about themselves, in seconds.
struct Splits {
  double Simplify = 0; ///< summed over the solver's shard workers
  double VmCompile = 0;
  double VmExecute = 0;

  void add(const Splits &O);
};

struct Outcome {
  bool Ok = false;
  std::string Error;
  uint64_t Digest = 0; ///< FNV-1a of the printed A-F-L completion
  std::string AflValue;
  uint64_t AflMaxValues = 0;
  uint64_t TtMaxValues = 0;
  std::string Report; ///< completion report text, when requested
  Counts C;
  Splits S;
};

struct RunRequest {
  bool SkipRuns = false;   ///< analysis only (no instrumented runs)
  bool WantReport = false; ///< fill Outcome::Report
};

/// One driver::runPipeline call; \p Seconds is its wall time.
Outcome runDefault(std::string_view Source, const RunRequest &Req,
                   double &Seconds);

/// The same pipeline, stage by stage, with a span per layer call under a
/// Pipeline root span for request \p Id.
Outcome runLayers(std::string_view Source, const RunRequest &Req, Tracer &T,
                  uint32_t Id);

/// The region-oblivious value of \p Source from a fresh parse and
/// interp::runRef, independent of the pipeline under test.
bool referenceValue(std::string_view Source, std::string &Value);

uint64_t fnv1a(std::string_view Text);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H

//===----------------------------------------------------------------------===//
///
/// \file
/// The public pipeline facade: source text → parse → ML types → T-T
/// region inference → {conservative, A-F-L} completions → instrumented
/// runs. This is the API examples, tests and benchmarks use.
///
//===----------------------------------------------------------------------===//

#ifndef AFL_DRIVER_PIPELINE_H
#define AFL_DRIVER_PIPELINE_H

#include "ast/ASTContext.h"
#include "completion/AflCompletion.h"
#include "interp/Interp.h"
#include "regions/Completion.h"
#include "regions/RegionProgram.h"
#include "support/Diagnostics.h"
#include "support/Metrics.h"
#include "types/TypeInference.h"

#include <memory>
#include <string>
#include <string_view>

namespace afl {
namespace driver {

struct PipelineOptions {
  /// Record memory-over-time traces in both runs (Figures 5-8).
  bool RecordTrace = false;
  /// Step limit for each instrumented run.
  uint64_t MaxSteps = 200'000'000;
  /// Skip the two instrumented runs (analysis only).
  bool SkipRuns = false;
  /// Choice-point generation switches (ablations).
  constraints::GenOptions GenOptions;
  /// Solver path: sharded production or the raw oracle (`aflc
  /// --no-simplify`).
  solver::SolveOptions SolveOptions;
  /// Closure-analysis fixpoint mode and caps (`aflc --closure-restart`).
  closure::ClosureOptions ClosureOptions;
  /// Evaluator for the instrumented runs (`aflc --interp=vm|tree`).
  /// Both backends are semantics-exact; see docs/VM.md.
  interp::BackendKind Backend = interp::BackendKind::Vm;
};

/// Per-stage observability for one pipeline run: wall-clock time of every
/// stage that executed, plus the sizes of the intermediate artifacts.
/// Filled unconditionally by runPipeline (stages that did not run stay
/// at zero). Solver work counters live in PipelineResult::Analysis; the
/// registry emission (recordMetrics) combines both.
struct PipelineStats {
  /// Wall-clock seconds per stage, in pipeline order.
  double ParseSeconds = 0;
  double TypeInferSeconds = 0;
  double RegionInferSeconds = 0;
  double ConservativeSeconds = 0; ///< conservative (T-T) completion
  double ClosureSeconds = 0;      ///< extended closure analysis (§3)
  double ConstraintGenSeconds = 0;
  double SolveSeconds = 0;
  double ExtractSeconds = 0; ///< completion extraction from the solution
  double RunConservativeSeconds = 0;
  double RunAflSeconds = 0;
  /// VM-backend split of the two completed runs: bytecode compilation vs
  /// execution wall time, summed over both runs. These are sub-splits of
  /// RunConservativeSeconds + RunAflSeconds (excluded from stageSum);
  /// both stay zero under the tree walker.
  double VmCompileSeconds = 0;
  double VmExecuteSeconds = 0;
  /// Whole-pipeline wall time (≥ the sum of the stage times).
  double TotalSeconds = 0;

  /// Artifact sizes.
  size_t AstNodes = 0;
  size_t RegionNodes = 0;
  size_t RegionVars = 0;

  /// Sum of the individual stage times (excludes TotalSeconds).
  double stageSum() const {
    return ParseSeconds + TypeInferSeconds + RegionInferSeconds +
           ConservativeSeconds + ClosureSeconds + ConstraintGenSeconds +
           SolveSeconds + ExtractSeconds + RunConservativeSeconds +
           RunAflSeconds;
  }

  /// Pointwise sum (for batch aggregation).
  void accumulate(const PipelineStats &Other);
};

/// Everything the pipeline produced. Check ok() before using the later
/// stages; Diags explains failures.
struct PipelineResult {
  DiagnosticEngine Diags;
  std::unique_ptr<ast::ASTContext> Ctx;
  const ast::Expr *Ast = nullptr;
  std::unique_ptr<regions::RegionProgram> Prog;
  regions::Completion ConservativeC;
  regions::Completion AflC;
  completion::AflStats Analysis;
  interp::RunResult Conservative; ///< the T-T baseline run
  interp::RunResult Afl;          ///< the A-F-L run
  PipelineStats Stats;            ///< per-stage timings and sizes

  /// True if all requested stages succeeded.
  bool ok() const { return Ok; }
  bool Ok = false;

  /// Pretty-prints the region program with the conservative completion.
  std::string printConservative() const;
  /// Pretty-prints the region program with the A-F-L completion.
  std::string printAfl() const;

  /// Emits the stage timings, artifact sizes, solver counters and run
  /// metrics into \p Reg under the current scope (schema in
  /// docs/OBSERVABILITY.md).
  void recordMetrics(MetricsRegistry &Reg) const;

  /// Renders the stage timings as a human-readable table (aflc
  /// --timings).
  std::string formatTimings() const;
};

/// The front half of the pipeline: parse → ML type inference → T-T region
/// inference. Produced by runFrontEnd for callers that drive the analysis
/// stages themselves (the `aflc --serve` analysis server re-runs the front
/// end per edit, then seeds the back end incrementally).
struct FrontEnd {
  std::unique_ptr<ast::ASTContext> Ctx;
  const ast::Expr *Ast = nullptr;
  std::unique_ptr<regions::RegionProgram> Prog;
  double ParseSeconds = 0;
  double TypeInferSeconds = 0;
  double RegionInferSeconds = 0;

  /// True if all three stages succeeded (diagnostics explain failures).
  bool ok() const { return Prog != nullptr; }
};

/// Runs parse + type inference + region inference on \p Source, reporting
/// failures to \p Diags. On failure the result's later stages are null but
/// earlier artifacts remain inspectable.
FrontEnd runFrontEnd(std::string_view Source, DiagnosticEngine &Diags);

/// Runs the full pipeline on \p Source. It does not run the
/// region-oblivious reference interpreter: a caller that checks the
/// completed runs against it calls interp::runRef(R.Ast, *R.Ctx).
PipelineResult runPipeline(std::string_view Source,
                           const PipelineOptions &Options = PipelineOptions());

/// Shared emission routine behind PipelineResult::recordMetrics and the
/// batch aggregates: writes the "ok"/"sizes"/"stages"/"runs" subtree into
/// \p Reg under the current scope. \p ConsRun / \p AflRun may be null
/// when the instrumented runs were skipped (or failed).
void recordPipelineMetrics(MetricsRegistry &Reg, const PipelineStats &Stats,
                           const completion::AflStats &Analysis,
                           const interp::Stats *ConsRun,
                           const interp::Stats *AflRun, bool Ok);

/// Renders a stage-timing table (shared by aflc --timings for single and
/// batch runs).
std::string formatTimings(const PipelineStats &Stats,
                          const completion::AflStats &Analysis);

/// Emits the process-wide arena-pool counters as a "memory" scope under
/// the current registry scope (schema in docs/OBSERVABILITY.md). Shared
/// by single-run, batch, and server metrics emission.
void recordMemoryMetrics(MetricsRegistry &Reg);

} // namespace driver
} // namespace afl

#endif // AFL_DRIVER_PIPELINE_H

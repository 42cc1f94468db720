#include "Layers.h"

#include "closure/ClosureAnalysis.h"
#include "completion/AflCompletion.h"
#include "completion/Conservative.h"
#include "completion/Report.h"
#include "constraints/ConstraintGen.h"
#include "driver/Pipeline.h"
#include "interp/Interp.h"
#include "interp/RefInterp.h"
#include "parser/Parser.h"
#include "regions/RegionInference.h"
#include "regions/RegionPrinter.h"
#include "solver/Solver.h"
#include "types/TypeInference.h"

#include <algorithm>

using namespace afl;
using namespace perfbench;

void Counts::add(const Counts &O) {
  AstNodes += O.AstNodes;
  RegionVars += O.RegionVars;
  RegionNodes += O.RegionNodes;
  Contexts += O.Contexts;
  ProcessedContexts += O.ProcessedContexts;
  Converged += O.Converged;
  StateVars += O.StateVars;
  Constraints += O.Constraints;
  Shards += O.Shards;
  LargestShard = std::max(LargestShard, O.LargestShard);
  Propagations += O.Propagations;
  Choices += O.Choices;
  Backtracks += O.Backtracks;
  ConstraintsBeforeSimplify += O.ConstraintsBeforeSimplify;
  ConstraintsAfterSimplify += O.ConstraintsAfterSimplify;
  CompletionOps += O.CompletionOps;
  VmSteps += O.VmSteps;
  VmMemOps += O.VmMemOps;
}

void Splits::add(const Splits &O) {
  Simplify += O.Simplify;
  VmCompile += O.VmCompile;
  VmExecute += O.VmExecute;
}

uint64_t perfbench::fnv1a(std::string_view Text) {
  uint64_t H = 1469598103934665603ULL;
  for (unsigned char C : Text) {
    H ^= C;
    H *= 1099511628211ULL;
  }
  return H;
}

namespace {

/// The options `aflc <program>` runs with once the environment is pinned.
driver::PipelineOptions aflcOptions(const RunRequest &Req) {
  driver::PipelineOptions Options;
  Options.Backend = interp::BackendKind::Vm;
  Options.SkipRuns = Req.SkipRuns;
  return Options;
}

uint64_t numOps(const regions::Completion &C) {
  uint64_t N = 0;
  for (const auto *M : {&C.Pre, &C.Post, &C.FreeApp})
    for (const auto &[Node, Ops] : *M)
      N += Ops.size();
  return N;
}

void recordSolve(Outcome &O, uint64_t Propagations, uint64_t Choices,
                 uint64_t Backtracks, const solver::SimplifyStats &Simp) {
  O.C.Propagations = Propagations;
  O.C.Choices = Choices;
  O.C.Backtracks = Backtracks;
  O.C.ConstraintsBeforeSimplify = Simp.ConstraintsBefore;
  O.C.ConstraintsAfterSimplify = Simp.ConstraintsAfter;
  O.S.Simplify = Simp.SimplifySeconds;
}

void recordRun(Outcome &O, const interp::RunResult &Run) {
  O.C.VmSteps += Run.S.Steps;
  O.C.VmMemOps += Run.S.Time;
  O.S.VmCompile += Run.VmCompileSeconds;
  O.S.VmExecute += Run.VmExecuteSeconds;
}

/// Wraps one layer call in a span.
template <typename Fn>
auto timed(Tracer &T, Layer L, uint32_t Root, uint32_t Id, Fn &&F) {
  uint32_t S = T.begin(L, Root, Id);
  auto Result = F();
  T.end(S);
  return Result;
}

} // namespace

Outcome perfbench::runDefault(std::string_view Source, const RunRequest &Req,
                              double &Seconds) {
  uint64_t Start = nowNs();
  driver::PipelineResult R = driver::runPipeline(Source, aflcOptions(Req));
  Seconds = (nowNs() - Start) * 1e-9;

  Outcome O;
  if (!R.ok()) {
    O.Error = R.Diags.str();
    return O;
  }
  O.Ok = true;
  O.Digest = fnv1a(R.printAfl());
  O.AflValue = R.Afl.ResultText;
  O.AflMaxValues = R.Afl.S.MaxValues;
  O.TtMaxValues = R.Conservative.S.MaxValues;
  if (Req.WantReport)
    O.Report = completion::reportCompletion(*R.Prog, R.AflC).str();

  const completion::AflStats &A = R.Analysis;
  O.C.AstNodes = R.Stats.AstNodes;
  O.C.RegionVars = R.Stats.RegionVars;
  O.C.RegionNodes = R.Stats.RegionNodes;
  O.C.Contexts = A.NumContexts;
  O.C.ProcessedContexts = A.Closure.ProcessedContexts;
  O.C.Converged = A.Closure.Converged ? 1 : 0;
  O.C.StateVars = A.NumStateVars;
  O.C.Constraints = A.NumConstraints;
  O.C.Shards = A.Sharding.Shards;
  O.C.LargestShard = A.Sharding.LargestShardConstraints;
  O.C.CompletionOps = numOps(R.AflC);
  recordSolve(O, A.SolverPropagations, A.SolverChoices, A.SolverBacktracks,
              A.SolverSimplify);
  if (!Req.SkipRuns) {
    recordRun(O, R.Conservative);
    recordRun(O, R.Afl);
  }
  return O;
}

Outcome perfbench::runLayers(std::string_view Source, const RunRequest &Req,
                             Tracer &T, uint32_t Id) {
  // Mirrors driver::runPipeline and completion::aflCompletion, including
  // their fallbacks to the conservative completion.
  const driver::PipelineOptions Options = aflcOptions(Req);
  Outcome O;
  DiagnosticEngine Diags;
  ast::ASTContext Ctx;
  std::unique_ptr<regions::RegionProgram> Prog;
  regions::Completion AflC;
  uint32_t Root = T.begin(Layer::Pipeline, Tracer::NoParent, Id);
  // The stages run inside the root span; printing the result for the
  // digest happens after it, as it does after runPipeline returns.
  O.Ok = [&] {
    const ast::Expr *Ast = timed(T, Layer::Parser, Root, Id,
                                 [&] { return parseExpr(Source, Ctx, Diags); });
    O.C.AstNodes = Ctx.numNodes();
    if (!Ast) {
      O.Error = Diags.str();
      return false;
    }
    types::TypedProgram Typed = timed(T, Layer::Types, Root, Id, [&] {
      return types::inferTypes(Ast, Ctx, Diags);
    });
    if (!Typed.Success) {
      O.Error = Diags.str();
      return false;
    }
    Prog =
        timed(T, Layer::Regions, Root, Id,
              [&] { return regions::inferRegions(Ast, Ctx, Typed, Diags); });
    if (!Prog) {
      O.Error = Diags.str();
      return false;
    }
    O.C.RegionNodes = Prog->numNodes();
    O.C.RegionVars = Prog->Types.numRegionVars();

    regions::Completion ConservativeC =
        timed(T, Layer::Conservative, Root, Id,
              [&] { return completion::conservativeCompletion(*Prog); });

    closure::ClosureAnalysis CA(*Prog, Options.ClosureOptions);
    bool Converged =
        timed(T, Layer::Closure, Root, Id, [&] { return CA.run(); });
    O.C.ProcessedContexts = CA.stats().ProcessedContexts;
    O.C.Converged = Converged ? 1 : 0;
    if (!Converged) {
      AflC = timed(T, Layer::Conservative, Root, Id,
                   [&] { return completion::conservativeCompletion(*Prog); });
    } else {
      constraints::GenResult Gen = timed(T, Layer::Congen, Root, Id, [&] {
        return constraints::generateConstraints(*Prog, CA, Options.GenOptions);
      });
      O.C.Contexts = Gen.NumContexts;
      O.C.StateVars = Gen.Sys.numStateVars();
      O.C.Constraints = Gen.Sys.numConstraints();
      O.C.Shards = Gen.Sharding.Shards;
      O.C.LargestShard = Gen.Sharding.LargestShardConstraints;
      solver::SolveResult Sol = timed(T, Layer::Solver, Root, Id, [&] {
        return solver::solve(Gen.Sys, Options.SolveOptions);
      });
      recordSolve(O, Sol.Propagations, Sol.Choices, Sol.Backtracks,
                  Sol.Simplify);
      AflC = Sol.Sat ? timed(T, Layer::Extract, Root, Id,
                             [&] {
                               return completion::extractCompletion(Gen, Sol);
                             })
                     : timed(T, Layer::Conservative, Root, Id, [&] {
                         return completion::conservativeCompletion(*Prog);
                       });
    }
    O.C.CompletionOps = numOps(AflC);

    if (!Options.SkipRuns) {
      interp::RunOptions RO;
      RO.RecordTrace = Options.RecordTrace;
      RO.MaxSteps = Options.MaxSteps;
      RO.Backend = Options.Backend;
      interp::RunResult Cons = timed(T, Layer::Vm, Root, Id, [&] {
        return interp::run(*Prog, ConservativeC, RO);
      });
      recordRun(O, Cons);
      if (!Cons.Ok) {
        O.Error = "conservative run failed: " + Cons.Error;
        return false;
      }
      interp::RunResult Afl =
          timed(T, Layer::Vm, Root, Id,
                [&] { return interp::run(*Prog, AflC, RO); });
      recordRun(O, Afl);
      if (!Afl.Ok) {
        O.Error = "A-F-L run failed: " + Afl.Error;
        return false;
      }
      interp::RefResult Ref = timed(T, Layer::RefInterp, Root, Id, [&] {
        return interp::runRef(Ast, Ctx, Options.MaxSteps);
      });
      if (!Ref.Ok) {
        O.Error = "reference run failed: " + Ref.Error;
        return false;
      }
      O.AflValue = Afl.ResultText;
      O.AflMaxValues = Afl.S.MaxValues;
      O.TtMaxValues = Cons.S.MaxValues;
    }
    return true;
  }();
  T.end(Root);
  if (!O.Ok)
    return O;
  O.Digest = fnv1a(regions::printRegionProgram(*Prog, &AflC));
  if (Req.WantReport)
    O.Report = completion::reportCompletion(*Prog, AflC).str();
  return O;
}

bool perfbench::referenceValue(std::string_view Source, std::string &Value) {
  DiagnosticEngine Diags;
  ast::ASTContext Ctx;
  const ast::Expr *Ast = parseExpr(Source, Ctx, Diags);
  if (!Ast)
    return false;
  interp::RefResult Ref = interp::runRef(Ast, Ctx);
  Value = Ref.ResultText;
  return Ref.Ok;
}

#include "driver/Pipeline.h"

#include "completion/Conservative.h"
#include "parser/Parser.h"
#include "regions/RegionInference.h"
#include "regions/RegionPrinter.h"
#include "support/ArenaPool.h"

#include <cstdio>

using namespace afl;
using namespace afl::driver;

std::string PipelineResult::printConservative() const {
  if (!Prog)
    return "";
  return regions::printRegionProgram(*Prog, &ConservativeC);
}

std::string PipelineResult::printAfl() const {
  if (!Prog)
    return "";
  return regions::printRegionProgram(*Prog, &AflC);
}

void PipelineStats::accumulate(const PipelineStats &Other) {
  ParseSeconds += Other.ParseSeconds;
  TypeInferSeconds += Other.TypeInferSeconds;
  RegionInferSeconds += Other.RegionInferSeconds;
  ConservativeSeconds += Other.ConservativeSeconds;
  ClosureSeconds += Other.ClosureSeconds;
  ConstraintGenSeconds += Other.ConstraintGenSeconds;
  SolveSeconds += Other.SolveSeconds;
  ExtractSeconds += Other.ExtractSeconds;
  RunConservativeSeconds += Other.RunConservativeSeconds;
  RunAflSeconds += Other.RunAflSeconds;
  VmCompileSeconds += Other.VmCompileSeconds;
  VmExecuteSeconds += Other.VmExecuteSeconds;
  TotalSeconds += Other.TotalSeconds;
  AstNodes += Other.AstNodes;
  RegionNodes += Other.RegionNodes;
  RegionVars += Other.RegionVars;
}

void driver::recordPipelineMetrics(MetricsRegistry &Reg,
                                   const PipelineStats &Stats,
                                   const completion::AflStats &Analysis,
                                   const interp::Stats *ConsRun,
                                   const interp::Stats *AflRun, bool Ok) {
  Reg.set("ok", Ok ? 1 : 0);
  {
    MetricScope Sizes(Reg, "sizes");
    Reg.set("ast_nodes", Stats.AstNodes);
    Reg.set("region_nodes", Stats.RegionNodes);
    Reg.set("region_vars", Stats.RegionVars);
    Reg.set("closure_contexts", Analysis.NumContexts);
    Reg.set("closures", Analysis.NumClosures);
    Reg.set("closure_envs", Analysis.Closure.NumEnvs);
    Reg.set("closure_interned_sets", Analysis.Closure.InternedSets);
    Reg.set("state_vars", Analysis.NumStateVars);
    Reg.set("bool_vars", Analysis.NumBoolVars);
    Reg.set("constraints", Analysis.NumConstraints);
  }
  {
    MetricScope Stages(Reg, "stages");
    auto Stage = [&Reg](const char *Name, double Seconds) {
      MetricScope S(Reg, Name);
      Reg.addTime("wall_seconds", Seconds);
    };
    Stage("parse", Stats.ParseSeconds);
    Stage("type_inference", Stats.TypeInferSeconds);
    Stage("region_inference", Stats.RegionInferSeconds);
    Stage("conservative_completion", Stats.ConservativeSeconds);
    {
      MetricScope S(Reg, "closure_analysis");
      Reg.addTime("wall_seconds", Stats.ClosureSeconds);
      Reg.add("passes", Analysis.Closure.Passes);
      Reg.add("processed_contexts", Analysis.Closure.ProcessedContexts);
      Reg.add("enqueued", Analysis.Closure.Enqueued);
      Reg.set("worklist", Analysis.Closure.UsedWorklist ? 1 : 0);
      Reg.set("converged", Analysis.Closure.Converged ? 1 : 0);
      if (Analysis.Closure.WideningBound > 0) {
        MetricScope Wide(Reg, "widening");
        Reg.set("bound", Analysis.Closure.WideningBound);
        Reg.set("widened_closures", Analysis.Closure.WidenedClosures);
        Reg.set("widened_vars", Analysis.Closure.WidenedVars);
        Reg.set("widened_pinned_calls", Analysis.NumWidenedPinned);
      }
    }
    {
      MetricScope S(Reg, "constraint_gen");
      Reg.addTime("wall_seconds", Stats.ConstraintGenSeconds);
      const constraints::ShardingStats &Shard = Analysis.Sharding;
      MetricScope Sharding(Reg, "sharding");
      Reg.set("shards", Shard.Shards);
      Reg.set("largest_shard_constraints", Shard.LargestShardConstraints);
      Reg.set("interned_shapes", Shard.InternedShapes);
      Reg.addTime("finalize_seconds", Shard.FinalizeSeconds);
    }
    {
      MetricScope S(Reg, "solve");
      Reg.addTime("wall_seconds", Stats.SolveSeconds);
      Reg.add("propagations", Analysis.SolverPropagations);
      Reg.add("choices", Analysis.SolverChoices);
      Reg.add("backtracks", Analysis.SolverBacktracks);
      {
        const solver::SimplifyStats &Simp = Analysis.SolverSimplify;
        MetricScope Pre(Reg, "simplify");
        Reg.set("state_vars_before", Simp.StateVarsBefore);
        Reg.set("state_vars_after", Simp.StateVarsAfter);
        Reg.set("constraints_before", Simp.ConstraintsBefore);
        Reg.set("constraints_after", Simp.ConstraintsAfter);
        Reg.set("eq_removed", Simp.EqRemoved);
        Reg.set("dup_triples_removed", Simp.DupTriplesRemoved);
        Reg.set("forced_triples_removed", Simp.ForcedTriplesRemoved);
        Reg.set("bools_forced", Simp.BoolsForced);
        Reg.set("components", Simp.Components);
        Reg.set("largest_component", Simp.LargestComponent);
        Reg.set("threads", Simp.ThreadsUsed);
        Reg.addTime("simplify_seconds", Simp.SimplifySeconds);
        Reg.addTime("components_seconds", Simp.ComponentSeconds);
        Reg.addTime("reconstruct_seconds", Simp.ReconstructSeconds);
      }
    }
    Stage("extract", Stats.ExtractSeconds);
    Stage("run_conservative", Stats.RunConservativeSeconds);
    Stage("run_afl", Stats.RunAflSeconds);
    {
      // VM-backend split of the completed runs (zero under the tree
      // walker); a sub-split of run_conservative + run_afl above.
      MetricScope S(Reg, "runs");
      MetricScope Vm(Reg, "vm");
      Reg.addTime("compile_seconds", Stats.VmCompileSeconds);
      Reg.addTime("execute_seconds", Stats.VmExecuteSeconds);
    }
  }
  if (ConsRun || AflRun) {
    MetricScope Runs(Reg, "runs");
    auto Run = [&Reg](const char *Name, const interp::Stats *S) {
      if (!S)
        return;
      MetricScope Scope(Reg, Name);
      Reg.set("max_regions", S->MaxRegions);
      Reg.set("region_allocs", S->TotalRegionAllocs);
      Reg.set("value_allocs", S->TotalValueAllocs);
      Reg.set("max_values", S->MaxValues);
      Reg.set("final_values", S->FinalValues);
      Reg.set("steps", S->Steps);
      Reg.set("memory_ops", S->Time);
    };
    Run("conservative", ConsRun);
    Run("afl", AflRun);
  }
  Reg.addTime("total_seconds", Stats.TotalSeconds);
}

void PipelineResult::recordMetrics(MetricsRegistry &Reg) const {
  recordPipelineMetrics(Reg, Stats, Analysis,
                        Conservative.Ok ? &Conservative.S : nullptr,
                        Afl.Ok ? &Afl.S : nullptr, Ok);
}

std::string driver::formatTimings(const PipelineStats &Stats,
                                  const completion::AflStats &Analysis) {
  std::string Out;
  char Buf[128];
  double Total = Stats.TotalSeconds > 0 ? Stats.TotalSeconds : 1;
  auto Row = [&](const char *Name, double Seconds) {
    std::snprintf(Buf, sizeof(Buf), "%-24s %10.3f ms %6.1f%%\n", Name,
                  Seconds * 1e3, Seconds / Total * 100);
    Out += Buf;
  };
  std::snprintf(Buf, sizeof(Buf), "%-24s %13s %7s\n", "stage", "time", "");
  Out += Buf;
  Row("parse", Stats.ParseSeconds);
  Row("type inference", Stats.TypeInferSeconds);
  Row("region inference", Stats.RegionInferSeconds);
  Row("conservative completion", Stats.ConservativeSeconds);
  Row("closure analysis", Stats.ClosureSeconds);
  Row("constraint generation", Stats.ConstraintGenSeconds);
  Row("solve", Stats.SolveSeconds);
  Row("extract", Stats.ExtractSeconds);
  Row("run (conservative)", Stats.RunConservativeSeconds);
  Row("run (A-F-L)", Stats.RunAflSeconds);
  Row("total", Stats.TotalSeconds);
  if (Stats.VmCompileSeconds + Stats.VmExecuteSeconds > 0) {
    std::snprintf(Buf, sizeof(Buf),
                  "vm: compile %.3f ms, execute %.3f ms "
                  "(split of the two completed runs)\n",
                  Stats.VmCompileSeconds * 1e3, Stats.VmExecuteSeconds * 1e3);
    Out += Buf;
  }
  std::snprintf(Buf, sizeof(Buf),
                "solver: %llu propagations, %llu choices, %llu backtracks\n",
                (unsigned long long)Analysis.SolverPropagations,
                (unsigned long long)Analysis.SolverChoices,
                (unsigned long long)Analysis.SolverBacktracks);
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf),
                "closure: %s, %u pass(es), %zu contexts processed, "
                "%zu enqueued\n",
                Analysis.Closure.UsedWorklist ? "worklist" : "restart",
                Analysis.Closure.Passes, Analysis.Closure.ProcessedContexts,
                Analysis.Closure.Enqueued);
  Out += Buf;
  if (Analysis.Closure.WideningBound > 0) {
    std::snprintf(Buf, sizeof(Buf),
                  "closure-widen: bound %u, %zu widened closure(s), "
                  "%zu recolored var(s), %zu pinned call(s)\n",
                  Analysis.Closure.WideningBound,
                  Analysis.Closure.WidenedClosures, Analysis.Closure.WidenedVars,
                  Analysis.NumWidenedPinned);
    Out += Buf;
  }
  const constraints::ShardingStats &Shard = Analysis.Sharding;
  if (Shard.Shards) {
    std::snprintf(Buf, sizeof(Buf),
                  "congen-shard: %zu shard(s) (largest %zu constraints), "
                  "%zu interned shape(s), finalize %.3f ms\n",
                  Shard.Shards, Shard.LargestShardConstraints,
                  Shard.InternedShapes, Shard.FinalizeSeconds * 1e3);
    Out += Buf;
  }
  const solver::SimplifyStats &Simp = Analysis.SolverSimplify;
  if (Simp.ConstraintsBefore) {
    std::snprintf(Buf, sizeof(Buf),
                  "simplify: %zu vars -> %zu, %zu constraints -> %zu, "
                  "%zu component(s), %zu thread(s)\n",
                  Simp.StateVarsBefore, Simp.StateVarsAfter,
                  Simp.ConstraintsBefore, Simp.ConstraintsAfter,
                  Simp.Components, Simp.ThreadsUsed);
    Out += Buf;
  }
  ArenaPool::Stats Pool = ArenaPool::global().stats();
  std::snprintf(Buf, sizeof(Buf),
                "memory: arena pool %zu/%zu checkout(s) reused, "
                "%zu arena(s) pooled (%zu KiB retained)\n",
                Pool.Hits, Pool.Checkouts, Pool.Pooled,
                Pool.RetainedBytes / 1024);
  Out += Buf;
  return Out;
}

std::string PipelineResult::formatTimings() const {
  return driver::formatTimings(Stats, Analysis);
}

void driver::recordMemoryMetrics(MetricsRegistry &Reg) {
  ArenaPool::Stats S = ArenaPool::global().stats();
  MetricScope Mem(Reg, "memory");
  MetricScope Pool(Reg, "arena_pool");
  Reg.set("checkouts", S.Checkouts);
  Reg.set("hits", S.Hits);
  Reg.set("misses", S.Misses);
  Reg.set("returns", S.Returns);
  Reg.set("discarded", S.Discarded);
  Reg.set("pooled", S.Pooled);
  Reg.set("retained_bytes", S.RetainedBytes);
  Reg.set("max_pooled", ArenaPool::global().maxPooled());
}

FrontEnd driver::runFrontEnd(std::string_view Source,
                             DiagnosticEngine &Diags) {
  FrontEnd F;
  F.Ctx = std::make_unique<ast::ASTContext>();
  Stopwatch Watch;

  F.Ast = parseExpr(Source, *F.Ctx, Diags);
  F.ParseSeconds = Watch.seconds();
  if (!F.Ast)
    return F;

  Watch.reset();
  types::TypedProgram Typed = types::inferTypes(F.Ast, *F.Ctx, Diags);
  F.TypeInferSeconds = Watch.seconds();
  if (!Typed.Success)
    return F;

  Watch.reset();
  F.Prog = regions::inferRegions(F.Ast, *F.Ctx, Typed, Diags);
  F.RegionInferSeconds = Watch.seconds();
  return F;
}

PipelineResult driver::runPipeline(std::string_view Source,
                                   const PipelineOptions &Options) {
  PipelineResult R;
  Stopwatch Total;

  FrontEnd F = runFrontEnd(Source, R.Diags);
  R.Ctx = std::move(F.Ctx);
  R.Ast = F.Ast;
  R.Prog = std::move(F.Prog);
  R.Stats.ParseSeconds = F.ParseSeconds;
  R.Stats.TypeInferSeconds = F.TypeInferSeconds;
  R.Stats.RegionInferSeconds = F.RegionInferSeconds;
  R.Stats.AstNodes = R.Ctx->numNodes();
  if (!R.Prog) {
    R.Stats.TotalSeconds = Total.seconds();
    return R;
  }
  R.Stats.RegionNodes = R.Prog->numNodes();
  R.Stats.RegionVars = R.Prog->Types.numRegionVars();
  Stopwatch Watch;

  Watch.reset();
  R.ConservativeC = completion::conservativeCompletion(*R.Prog);
  R.Stats.ConservativeSeconds = Watch.seconds();

  R.AflC = completion::aflCompletion(*R.Prog, &R.Analysis, Options.GenOptions,
                                     Options.SolveOptions,
                                     Options.ClosureOptions);
  R.Stats.ClosureSeconds = R.Analysis.ClosureSeconds;
  R.Stats.ConstraintGenSeconds = R.Analysis.ConstraintGenSeconds;
  R.Stats.SolveSeconds = R.Analysis.SolveSeconds;
  R.Stats.ExtractSeconds = R.Analysis.ExtractSeconds;

  if (!Options.SkipRuns) {
    interp::RunOptions RO;
    RO.RecordTrace = Options.RecordTrace;
    RO.MaxSteps = Options.MaxSteps;
    RO.Backend = Options.Backend;
    Watch.reset();
    R.Conservative = interp::run(*R.Prog, R.ConservativeC, RO);
    R.Stats.RunConservativeSeconds = Watch.seconds();
    R.Stats.VmCompileSeconds += R.Conservative.VmCompileSeconds;
    R.Stats.VmExecuteSeconds += R.Conservative.VmExecuteSeconds;
    if (!R.Conservative.Ok) {
      R.Diags.error(SourceLoc(),
                    "conservative run failed: " + R.Conservative.Error);
      R.Stats.TotalSeconds = Total.seconds();
      return R;
    }
    Watch.reset();
    R.Afl = interp::run(*R.Prog, R.AflC, RO);
    R.Stats.RunAflSeconds = Watch.seconds();
    R.Stats.VmCompileSeconds += R.Afl.VmCompileSeconds;
    R.Stats.VmExecuteSeconds += R.Afl.VmExecuteSeconds;
    if (!R.Afl.Ok) {
      R.Diags.error(SourceLoc(), "A-F-L run failed: " + R.Afl.Error);
      R.Stats.TotalSeconds = Total.seconds();
      return R;
    }
  }

  R.Ok = true;
  R.Stats.TotalSeconds = Total.seconds();
  return R;
}

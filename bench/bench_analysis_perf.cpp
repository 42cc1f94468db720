//===----------------------------------------------------------------------===//
///
/// \file
/// Backs the paper's §6/§7 performance claims with google-benchmark
/// microbenchmarks: "all of the examples we have tried are analyzed in a
/// matter of seconds"; closure analysis is worst-case exponential but
/// comparable to T-T in practice; constraint generation and solving run
/// in low-order polynomial time. Measures each phase separately on
/// programs of increasing size.
///
//===----------------------------------------------------------------------===//

#include "ast/ASTContext.h"
#include "closure/ClosureAnalysis.h"
#include "completion/AflCompletion.h"
#include "constraints/ConstraintGen.h"
#include "driver/BatchRunner.h"
#include "driver/Pipeline.h"
#include "interp/Interp.h"
#include "parser/Parser.h"
#include "programs/Corpus.h"
#include "regions/RegionInference.h"
#include "solver/Solver.h"
#include "support/ArenaPool.h"
#include "types/TypeInference.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <set>

using namespace afl;

namespace {

/// A synthetic program with ~K recursive functions and a nested-let
/// spine, used to scale analysis input size.
std::string chainProgram(int K) {
  std::string Src;
  for (int I = 0; I != K; ++I) {
    std::string F = "f" + std::to_string(I);
    std::string N = "n" + std::to_string(I);
    Src += "letrec " + F + " " + N + " = if " + N + " <= 0 then 0 else " +
           N + " + " + F + " (" + N + " - 1) in ";
  }
  Src += "let acc = 0 in ";
  for (int I = 0; I != K; ++I)
    Src += "let acc = acc + f" + std::to_string(I) + " 3 in ";
  Src += "acc";
  for (int I = 0; I != K + 1; ++I)
    Src += " end";
  for (int I = 0; I != K; ++I)
    Src += " end";
  return Src;
}

struct Front {
  ast::ASTContext Ctx;
  DiagnosticEngine Diags;
  const ast::Expr *Ast = nullptr;
  types::TypedProgram Typed;
};

std::unique_ptr<Front> frontend(const std::string &Source) {
  auto F = std::make_unique<Front>();
  F->Ast = parseExprOrDie(Source, F->Ctx);
  F->Typed = types::inferTypes(F->Ast, F->Ctx, F->Diags);
  assert(F->Typed.Success);
  return F;
}

void BM_ParseAndTypecheck(benchmark::State &State) {
  std::string Src = chainProgram(static_cast<int>(State.range(0)));
  for (auto _ : State) {
    ast::ASTContext Ctx;
    DiagnosticEngine Diags;
    const ast::Expr *E = parseExpr(Src, Ctx, Diags);
    types::TypedProgram T = types::inferTypes(E, Ctx, Diags);
    benchmark::DoNotOptimize(T.Success);
  }
}
BENCHMARK(BM_ParseAndTypecheck)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_RegionInference(benchmark::State &State) {
  std::string Src = chainProgram(static_cast<int>(State.range(0)));
  auto F = frontend(Src);
  for (auto _ : State) {
    auto Prog = regions::inferRegions(F->Ast, F->Ctx, F->Typed, F->Diags);
    benchmark::DoNotOptimize(Prog.get());
  }
}
BENCHMARK(BM_RegionInference)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_ClosureAnalysis(benchmark::State &State) {
  std::string Src = chainProgram(static_cast<int>(State.range(0)));
  auto F = frontend(Src);
  auto Prog = regions::inferRegions(F->Ast, F->Ctx, F->Typed, F->Diags);
  size_t Contexts = 0;
  for (auto _ : State) {
    closure::ClosureAnalysis CA(*Prog);
    benchmark::DoNotOptimize(CA.run());
    Contexts = CA.numContexts();
  }
  // §7: worst-case exponential, "comparable to T-T in practice" — the
  // context count is the growth driver; report it alongside the time.
  State.counters["contexts"] = static_cast<double>(Contexts);
}
BENCHMARK(BM_ClosureAnalysis)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

/// Nested higher-order functions: each level passes a lambda downward,
/// multiplying the (expression, environment) contexts — the shape behind
/// the worst-case exponential bound of §7.
std::string nestedHofProgram(int K) {
  std::string Src = "let apply1 = fn f => f 1 in ";
  for (int I = 0; I != K; ++I)
    Src += "let h" + std::to_string(I) + " = fn x => apply1 (fn y => y + x) "
           "in ";
  std::string Sum = "0";
  for (int I = 0; I != K; ++I)
    Sum = "(" + Sum + " + h" + std::to_string(I) + " " + std::to_string(I) +
          ")";
  Src += Sum;
  for (int I = 0; I != K + 1; ++I)
    Src += " end";
  return Src;
}

void BM_ClosureAnalysis_NestedHOF(benchmark::State &State) {
  std::string Src = nestedHofProgram(static_cast<int>(State.range(0)));
  auto F = frontend(Src);
  auto Prog = regions::inferRegions(F->Ast, F->Ctx, F->Typed, F->Diags);
  size_t Contexts = 0;
  for (auto _ : State) {
    closure::ClosureAnalysis CA(*Prog);
    benchmark::DoNotOptimize(CA.run());
    Contexts = CA.numContexts();
  }
  State.counters["contexts"] = static_cast<double>(Contexts);
}
BENCHMARK(BM_ClosureAnalysis_NestedHOF)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

/// The permuted-payload family (programs::permSource): two recursive
/// call sites permute an M-slot payload, so the exact analysis walks
/// the slot-permutation orbit — up to M! abstract environments per
/// node — while the widened analysis (`aflc --closure-widen`)
/// canonically recolors the invisible color classes and collapses the
/// orbit. The exact/widened pair is the before/after widening series
/// of BENCH_analysis.json; `converged` drops to 0 where the exact
/// analysis exhausts its stabilization cap.
void closureWidenSeries(benchmark::State &State, unsigned K) {
  std::string Src = programs::permSource(static_cast<int>(State.range(0)), 3);
  auto F = frontend(Src);
  auto Prog = regions::inferRegions(F->Ast, F->Ctx, F->Typed, F->Diags);
  closure::ClosureOptions Options;
  Options.Widening = K;
  size_t Contexts = 0, Widened = 0;
  bool Converged = false;
  for (auto _ : State) {
    closure::ClosureAnalysis CA(*Prog, Options);
    Converged = CA.run();
    benchmark::DoNotOptimize(Converged);
    Contexts = CA.numContexts();
    Widened = CA.stats().WidenedClosures;
  }
  State.counters["contexts"] = static_cast<double>(Contexts);
  State.counters["widened"] = static_cast<double>(Widened);
  State.counters["converged"] = Converged ? 1 : 0;
}

void BM_ClosureExact_Perm(benchmark::State &State) {
  closureWidenSeries(State, /*K=*/0);
}
// M=7 exhausts the exact cap (5040 permutations x payload regions):
// kept in the series to *show* the cliff — converged=0 there.
BENCHMARK(BM_ClosureExact_Perm)->Arg(4)->Arg(5)->Arg(6)->Arg(7);

void BM_ClosureWidened_Perm(benchmark::State &State) {
  closureWidenSeries(State, /*K=*/2);
}
BENCHMARK(BM_ClosureWidened_Perm)->Arg(4)->Arg(5)->Arg(6)->Arg(7);

/// Closure-analysis stage time alone (the §3 fixpoint), over the same
/// chainProgram(K) series used for the solve benchmarks, extended to the
/// K=48 point of BENCH_solver.json. Tracked in BENCH_analysis.json.
void BM_Closure(benchmark::State &State) {
  std::string Src = chainProgram(static_cast<int>(State.range(0)));
  auto F = frontend(Src);
  auto Prog = regions::inferRegions(F->Ast, F->Ctx, F->Typed, F->Diags);
  size_t Contexts = 0;
  for (auto _ : State) {
    closure::ClosureAnalysis CA(*Prog);
    benchmark::DoNotOptimize(CA.run());
    Contexts = CA.numContexts();
  }
  State.counters["contexts"] = static_cast<double>(Contexts);
}
BENCHMARK(BM_Closure)->Arg(8)->Arg(16)->Arg(32)->Arg(48);

/// Constraint-generation stage time alone (no solve): consumes a
/// converged closure analysis, so this isolates the §4.2 table-driven
/// system construction. Tracked in BENCH_analysis.json.
void BM_ConstraintGen(benchmark::State &State) {
  std::string Src = chainProgram(static_cast<int>(State.range(0)));
  auto F = frontend(Src);
  auto Prog = regions::inferRegions(F->Ast, F->Ctx, F->Typed, F->Diags);
  closure::ClosureAnalysis CA(*Prog);
  CA.run();
  size_t NumConstraints = 0;
  for (auto _ : State) {
    constraints::GenResult Gen = constraints::generateConstraints(*Prog, CA);
    benchmark::DoNotOptimize(Gen.NumContexts);
    NumConstraints = Gen.Sys.numConstraints();
  }
  State.counters["constraints"] = static_cast<double>(NumConstraints);
}
BENCHMARK(BM_ConstraintGen)->Arg(8)->Arg(16)->Arg(32)->Arg(48);

/// Combined generation+solve with emission-time sharding: the system is
/// regenerated every iteration, so the measurement includes the
/// incremental union-find tracking and the shard finalization that the
/// sharded solve path consumes (no component discovery at solve time).
/// Real time: systems of 2048+ constraints solve on the thread pool.
void BM_CongenSharded(benchmark::State &State) {
  std::string Src = chainProgram(static_cast<int>(State.range(0)));
  auto F = frontend(Src);
  auto Prog = regions::inferRegions(F->Ast, F->Ctx, F->Typed, F->Diags);
  closure::ClosureAnalysis CA(*Prog);
  CA.run();
  size_t Shards = 0, Largest = 0;
  for (auto _ : State) {
    constraints::GenResult Gen = constraints::generateConstraints(*Prog, CA);
    solver::SolveResult Sol = solver::solve(Gen.Sys);
    benchmark::DoNotOptimize(Sol.Sat);
    Shards = Gen.Sharding.Shards;
    Largest = Gen.Sharding.LargestShardConstraints;
  }
  State.counters["shards"] = static_cast<double>(Shards);
  State.counters["largest_shard"] = static_cast<double>(Largest);
}
BENCHMARK(BM_CongenSharded)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(48)
    ->UseRealTime();

void BM_ConstraintGenAndSolve(benchmark::State &State) {
  std::string Src = chainProgram(static_cast<int>(State.range(0)));
  auto F = frontend(Src);
  auto Prog = regions::inferRegions(F->Ast, F->Ctx, F->Typed, F->Diags);
  closure::ClosureAnalysis CA(*Prog);
  CA.run();
  for (auto _ : State) {
    constraints::GenResult Gen =
        constraints::generateConstraints(*Prog, CA);
    solver::SolveResult Sol = solver::solve(Gen.Sys);
    benchmark::DoNotOptimize(Sol.Sat);
  }
}
BENCHMARK(BM_ConstraintGenAndSolve)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

/// Solve-stage series: the same generated constraint system solved raw
/// (the §4.3 oracle on byte domains) and on the production path
/// (per-shard preprocessing, packed domains, shard groups on the thread
/// pool for systems of 2048+ constraints). Prints a one-shot
/// constraint reduction-ratio report line and surfaces the graph sizes
/// as counters.
void solveSeries(benchmark::State &State,
                 const solver::SolveOptions &Options) {
  std::string Src = chainProgram(static_cast<int>(State.range(0)));
  auto F = frontend(Src);
  auto Prog = regions::inferRegions(F->Ast, F->Ctx, F->Typed, F->Diags);
  closure::ClosureAnalysis CA(*Prog);
  CA.run();
  constraints::GenResult Gen = constraints::generateConstraints(*Prog, CA);
  solver::SolveResult Sol;
  for (auto _ : State) {
    Sol = solver::solve(Gen.Sys, Options);
    benchmark::DoNotOptimize(Sol.Sat);
  }
  State.counters["cons_before"] =
      static_cast<double>(Gen.Sys.numConstraints());
  if (Options.Simplify) {
    const solver::SimplifyStats &Simp = Sol.Simplify;
    State.counters["cons_after"] = static_cast<double>(Simp.ConstraintsAfter);
    State.counters["components"] = static_cast<double>(Simp.Components);
    // Benchmark calibration reruns this function; report each size once.
    static std::set<long> Reported;
    if (!Reported.insert(State.range(0)).second)
      return;
    std::printf("# solve-reduction K=%ld: %zu state vars -> %zu, "
                "%zu constraints -> %zu (ratio %.2f), %zu eq removed, "
                "%zu components (largest %zu), %zu emission shards "
                "(largest %zu cons, %zu shapes interned)\n",
                State.range(0), Simp.StateVarsBefore, Simp.StateVarsAfter,
                Simp.ConstraintsBefore, Simp.ConstraintsAfter,
                Simp.ConstraintsBefore
                    ? static_cast<double>(Simp.ConstraintsAfter) /
                          static_cast<double>(Simp.ConstraintsBefore)
                    : 0.0,
                Simp.EqRemoved, Simp.Components, Simp.LargestComponent,
                Gen.Sharding.Shards, Gen.Sharding.LargestShardConstraints,
                Gen.Sharding.InternedShapes);
  }
}

void BM_SolveRaw(benchmark::State &State) {
  solver::SolveOptions Options;
  Options.Simplify = false;
  solveSeries(State, Options);
}
BENCHMARK(BM_SolveRaw)->Arg(8)->Arg(16)->Arg(32)->Arg(48);

// Real time: systems of 2048+ constraints solve on the thread pool.
void BM_SolveSimplified(benchmark::State &State) {
  solveSeries(State, solver::SolveOptions());
}
BENCHMARK(BM_SolveSimplified)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(48)
    ->UseRealTime();

/// Instrumented-run stage under one backend: a scaled builtin program is
/// analyzed once (A-F-L completion), then executed repeatedly. Family 0
/// is @fib (call/step heavy), family 1 is @appel (allocation heavy — the
/// paper's Fig. 1 example, stressing the region allocator). The
/// BM_RunTree / BM_RunVm pair is the before/after of BENCH_interp.json.
void runSeries(benchmark::State &State, interp::BackendKind Backend) {
  int Family = static_cast<int>(State.range(0));
  int N = static_cast<int>(State.range(1));
  std::string Src =
      Family == 0 ? programs::fibSource(N) : programs::appelSource(N);
  State.SetLabel((Family == 0 ? "fib " : "appel ") + std::to_string(N));
  auto F = frontend(Src);
  auto Prog = regions::inferRegions(F->Ast, F->Ctx, F->Typed, F->Diags);
  completion::AflStats Stats;
  regions::Completion C = completion::aflCompletion(*Prog, &Stats);
  interp::RunOptions Options;
  Options.Backend = Backend;
  uint64_t Steps = 0, MemOps = 0;
  for (auto _ : State) {
    interp::RunResult R = interp::run(*Prog, C, Options);
    benchmark::DoNotOptimize(R.Ok);
    Steps = R.S.Steps;
    MemOps = R.S.Time;
  }
  State.counters["steps"] = static_cast<double>(Steps);
  State.counters["mem_ops"] = static_cast<double>(MemOps);
}

void BM_RunTree(benchmark::State &State) {
  runSeries(State, interp::BackendKind::Tree);
}
BENCHMARK(BM_RunTree)
    ->Args({0, 18})
    ->Args({0, 22})
    ->Args({0, 25})
    ->Args({1, 200})
    ->Args({1, 800});

void BM_RunVm(benchmark::State &State) {
  runSeries(State, interp::BackendKind::Vm);
}
BENCHMARK(BM_RunVm)
    ->Args({0, 18})
    ->Args({0, 22})
    ->Args({0, 25})
    ->Args({1, 200})
    ->Args({1, 800});

void BM_FullAnalysis_Corpus(benchmark::State &State) {
  auto Corpus = programs::table2Corpus();
  const programs::BenchProgram &P =
      Corpus[static_cast<size_t>(State.range(0))];
  State.SetLabel(P.Name);
  auto F = frontend(P.Source);
  for (auto _ : State) {
    auto Prog = regions::inferRegions(F->Ast, F->Ctx, F->Typed, F->Diags);
    completion::AflStats Stats;
    regions::Completion C = completion::aflCompletion(*Prog, &Stats);
    benchmark::DoNotOptimize(C.numOps());
  }
}
BENCHMARK(BM_FullAnalysis_Corpus)->DenseRange(0, 4);

/// End-to-end pipeline with the per-stage breakdown surfaced as
/// counters: instead of one opaque total, each stage's share of the
/// wall time is reported (in milliseconds, averaged over iterations).
void BM_FullPipeline_Stages(benchmark::State &State) {
  std::string Src = chainProgram(static_cast<int>(State.range(0)));
  driver::PipelineStats Agg;
  uint64_t Iters = 0;
  for (auto _ : State) {
    driver::PipelineResult R = driver::runPipeline(Src);
    benchmark::DoNotOptimize(R.Ok);
    Agg.accumulate(R.Stats);
    ++Iters;
  }
  auto Ms = [&](double Seconds) {
    return Seconds * 1e3 / static_cast<double>(Iters ? Iters : 1);
  };
  State.counters["parse_ms"] = Ms(Agg.ParseSeconds);
  State.counters["regions_ms"] = Ms(Agg.RegionInferSeconds);
  State.counters["closure_ms"] = Ms(Agg.ClosureSeconds);
  State.counters["congen_ms"] = Ms(Agg.ConstraintGenSeconds);
  State.counters["solve_ms"] = Ms(Agg.SolveSeconds);
  State.counters["run_ms"] =
      Ms(Agg.RunConservativeSeconds + Agg.RunAflSeconds);
}
BENCHMARK(BM_FullPipeline_Stages)->Arg(4)->Arg(8)->Arg(16);

/// Batch throughput: the whole small corpus through the thread-pooled
/// runner at increasing worker counts — the parallel hot path a service
/// tier would exercise.
void BM_BatchThroughput(benchmark::State &State) {
  // Replicate the corpus so the queue is deeper than the longest single
  // item — otherwise the critical path is one program and adding
  // workers cannot help.
  std::vector<driver::BatchItem> Work;
  for (int Round = 0; Round != 8; ++Round)
    for (const programs::BenchProgram &P : programs::smallCorpus())
      Work.push_back({P.Name + "#" + std::to_string(Round), P.Source, ""});
  unsigned Threads = static_cast<unsigned>(State.range(0));
  for (auto _ : State) {
    driver::BatchResult B =
        driver::runBatch(Work, driver::PipelineOptions(), Threads);
    benchmark::DoNotOptimize(B.NumOk);
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Work.size()));
}
// Real time, not CPU time: the work happens on pool threads, so the
// main thread's CPU clock would make the rate meaningless.
BENCHMARK(BM_BatchThroughput)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

/// Arena churn of repeated per-item context construction (the batch and
/// server allocation pattern): the full front half over the small
/// corpus, with the process-wide arena pool on (arg 1) or off (arg 0).
/// Counters surface the reuse the pool achieves; peak RSS is process-
/// wide and monotonic, so the pooled/unpooled RSS comparison lives in
/// BENCH_solver.json (two separate `aflc --batch` processes).
void BM_FrontEndArenaPool(benchmark::State &State) {
  bool Pooled = State.range(0) != 0;
  bool Was = ArenaPool::globalEnabled();
  ArenaPool::setGlobalEnabled(Pooled);
  ArenaPool::global().clear();
  std::vector<std::string> Sources;
  for (const programs::BenchProgram &P : programs::smallCorpus())
    Sources.push_back(P.Source);
  for (auto _ : State) {
    for (const std::string &Src : Sources) {
      DiagnosticEngine Diags;
      driver::FrontEnd F = driver::runFrontEnd(Src, Diags);
      benchmark::DoNotOptimize(F.Prog);
    }
  }
  ArenaPool::Stats S = ArenaPool::global().stats();
  State.counters["pool_hits"] = static_cast<double>(S.Hits);
  State.counters["pool_misses"] = static_cast<double>(S.Misses);
  State.counters["retained_kb"] = static_cast<double>(S.RetainedBytes) / 1024;
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Sources.size()));
  ArenaPool::setGlobalEnabled(Was);
  State.SetLabel(Pooled ? "pool on" : "pool off");
}
BENCHMARK(BM_FrontEndArenaPool)->Arg(0)->Arg(1);

} // namespace

BENCHMARK_MAIN();

//===----------------------------------------------------------------------===//
///
/// \file
/// afl_perfbench: one run of one workload.
///
///   afl_perfbench --workload NAME --seed N --seconds S --trace 0|1
///                 [--out DIR] [--probe-rss 1]
///
/// With --trace 0 it measures the end-to-end metrics untraced; with
/// --trace 1 it alternates untraced and traced passes and reports the
/// per-layer metrics. With --probe-rss 1 it only reports peak_rss_mb of a
/// fixed amount of work. Every other run also checks the outputs (see
/// perfbench/WORKLOADS.md). The last stdout line is the result object;
/// the line before it is an "info" object with sample counts, the pinned
/// defaults and the files written under --out. Exit code 1 on any failed
/// program, request or check; 2 on a usage error.
///
//===----------------------------------------------------------------------===//

#include "Layers.h"
#include "Serving.h"
#include "Trace.h"
#include "Workloads.h"

#include "closure/ClosureAnalysis.h"
#include "driver/Pipeline.h"
#include "interp/Interp.h"
#include "solver/Solver.h"
#include "support/ArenaPool.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <sched.h>
#include <string>
#include <sys/resource.h>
#include <vector>

using namespace afl;
using namespace perfbench;

namespace {

/// Knobs that would silently change what is measured.
const char *const PinnedEnv[] = {"AFL_CLOSURE_JOBS", "AFL_SOLVER_JOBS",
                                 "AFL_CLOSURE_WIDEN", "AFL_INTERP",
                                 "AFL_ARENA_POOL",   "AFL_ARENA_POOL_MAX"};

/// Set-up repetitions per run; setup_s is their median.
constexpr int SetupReps = 5;
constexpr int EditClients = 2;
/// Edits per client in a --probe-rss run of edit-session.
constexpr size_t ProbeEdits = 200;
/// Rounds of each client's edit script played in an edit-session set-up.
constexpr size_t WarmupRounds = 4;

struct Args {
  Workload W = Workload::PaperCorpus;
  std::string Name;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  /// Only measure peak RSS: one set-up and one pass (or ProbeEdits edits
  /// per client), so the figure does not depend on how many passes fit
  /// into the run.
  bool ProbeRss = false;
  std::string OutDir;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I], Val = Argv[I + 1];
    char *End = nullptr;
    if (Flag == "--workload") {
      HaveWorkload = parseWorkload(Val, A.W);
      A.Name = Val;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(Val.c_str(), &End, 10);
      HaveSeed = !Val.empty() && *End == 0;
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(Val.c_str(), &End);
      HaveSeconds = !Val.empty() && *End == 0 && A.Seconds > 0;
    } else if (Flag == "--trace") {
      if (Val != "0" && Val != "1")
        return false;
      A.Trace = Val == "1";
    } else if (Flag == "--out") {
      A.OutDir = Val;
    } else if (Flag == "--probe-rss") {
      A.ProbeRss = Val == "1";
    } else {
      return false;
    }
  }
  return Argc % 2 == 1 && HaveWorkload && HaveSeed && HaveSeconds;
}

/// Quantile \p Q of \p V, interpolating linearly at position Q * (n - 1).
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * (V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (Pos - Lo) * (V[Hi] - V[Lo]);
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

/// A program's (or a kind of edit's) latency over a run: the 10th
/// percentile of its samples. The host's other load only ever adds time,
/// in bursts from a fraction of a second to whole runs; per-program
/// medians moved by up to 25% between runs of the same code, the 10th
/// percentile by about a third of that.
double typicalMs(const std::vector<double> &Samples) {
  return quantile(Samples, 0.1);
}

/// How many of \p V lie above \p X.
size_t countAbove(const std::vector<double> &V, double X) {
  return static_cast<size_t>(
      std::count_if(V.begin(), V.end(), [X](double Y) { return Y > X; }));
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// Peak resident set of this program, from VmHWM in /proc/self/status.
/// getrusage's ru_maxrss also counts the peak of the process image before
/// exec, i.e. of the parent that forked it: launched from Python, a probe
/// of edit-session read 15 MB where the program itself peaks at 8 MB.
double peakRssMb() {
  if (std::FILE *F = std::fopen("/proc/self/status", "r")) {
    char Line[256];
    long Kb = -1;
    while (Kb < 0 && std::fgets(Line, sizeof(Line), F))
      if (std::sscanf(Line, "VmHWM: %ld kB", &Kb) != 1)
        Kb = -1;
    std::fclose(F);
    if (Kb >= 0)
      return Kb / 1024.0;
  }
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

/// Everything one run reports.
struct Report {
  std::vector<Metric> Metrics;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::string Info; ///< JSON members for the info line
  std::vector<std::string> Failures;

  void add(std::string Name, double Value, const char *Unit) {
    Metrics.push_back({std::move(Name), Value, Unit});
  }
  void fail(const std::string &What) {
    ++Failed;
    if (Failures.size() < 20)
      Failures.push_back(What);
  }
  void info(const std::string &Key, const std::string &JsonValue) {
    Info += (Info.empty() ? "\"" : ",\"") + Key + "\":" + JsonValue;
  }
};

std::string num(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string jsonArray(const std::vector<double> &V) {
  std::string Out = "[";
  for (double X : V) {
    if (Out.size() > 1)
      Out += ",";
    Out += num(X);
  }
  return Out + "]";
}

std::string hex(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

bool writeFile(const std::string &Path, const std::string &Text) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  bool Ok = std::fwrite(Text.data(), 1, Text.size(), F) == Text.size();
  return std::fclose(F) == 0 && Ok;
}

std::string outPath(const Args &A, const char *Suffix) {
  return A.OutDir + "/" + A.Name + "-seed" + std::to_string(A.Seed) + Suffix;
}

/// Median over SetupReps repetitions of \p Setup's wall time, in seconds
/// (one repetition when only probing peak RSS).
double timeSetup(const Args &A, const std::function<void()> &Setup) {
  std::vector<double> Times;
  for (int I = 0; I != (A.ProbeRss ? 1 : SetupReps); ++I) {
    uint64_t Start = nowNs();
    Setup();
    Times.push_back((nowNs() - Start) * 1e-9);
  }
  return median(Times);
}

/// Per-layer work and time of the traced pipelines of one run.
struct LayerTotals {
  Counts C;
  Splits S;
  uint64_t Programs = 0;
};

/// The checks every program must pass, given its first untraced outcome:
/// the pipeline ran (so neither instrumented run trapped), A-F-L holds no
/// more values than T-T, the A-F-L value equals an independent reference
/// run, and the layer-by-layer pipeline yields the same completion.
void checkProgram(const Program &P, const Outcome &First, const Outcome &Traced,
                  Report &Rep) {
  std::string Value;
  ++Rep.Attempted;
  if (!First.Ok)
    return Rep.fail(P.Name + ": pipeline failed: " + First.Error);
  if (First.AflMaxValues > First.TtMaxValues)
    return Rep.fail(P.Name + ": A-F-L holds more values than T-T");
  if (!referenceValue(P.Source, Value) || Value != First.AflValue)
    return Rep.fail(P.Name + ": A-F-L value differs from the reference run");
  if (!Traced.Ok || Traced.Digest != First.Digest)
    return Rep.fail(P.Name + ": traced pass completion differs");
}

/// Server-side figures of the requests one client made.
struct ServeStats {
  uint64_t Requests = 0;
  uint64_t Tiers[3] = {0, 0, 0};
  uint64_t ShardsSolved = 0, ShardsReused = 0, Dirtied = 0;
  double FrontEndMs = 0, AnalysisMs = 0, TransportMs = 0;

  void record(const Response &R, uint64_t LatencyNs, Tracer &T,
              Layer RootLayer, uint32_t Id) {
    ++Requests;
    if (R.TierTaken != Response::None)
      ++Tiers[R.TierTaken];
    ShardsSolved += R.ShardsSolved;
    ShardsReused += R.ShardsReused;
    Dirtied += R.DirtiedContexts;
    FrontEndMs += R.FrontEndUs * 1e-3;
    AnalysisMs += R.AnalysisUs * 1e-3;
    double LatencyUs = LatencyNs * 1e-3;
    TransportMs += std::max(0.0, LatencyUs - R.TotalUs) * 1e-3;
    if (T.enabled()) {
      // The server reports its stage times; lay them out in order inside
      // the client-timed span.
      uint64_t End = nowNs(), Start = End - LatencyNs;
      uint64_t Mid = Start + R.FrontEndUs * 1000;
      uint32_t Root = T.add(RootLayer, Tracer::NoParent, Id, Start, End);
      T.add(Layer::ServerFrontEnd, Root, Id, Start, Mid);
      T.add(Layer::ServerAnalysis, Root, Id, Mid, Mid + R.AnalysisUs * 1000);
    }
  }

  void merge(const ServeStats &O) {
    Requests += O.Requests;
    for (int I = 0; I != 3; ++I)
      Tiers[I] += O.Tiers[I];
    ShardsSolved += O.ShardsSolved;
    ShardsReused += O.ShardsReused;
    Dirtied += O.Dirtied;
    FrontEndMs += O.FrontEndMs;
    AnalysisMs += O.AnalysisMs;
    TransportMs += O.TransportMs;
  }

  void report(Report &Rep) const {
    double N = static_cast<double>(Requests);
    Rep.add("server.tier_reuse_frac", ratio(Tiers[0], N), "frac");
    Rep.add("server.tier_incremental_frac", ratio(Tiers[1], N), "frac");
    Rep.add("server.tier_full_frac", ratio(Tiers[2], N), "frac");
    Rep.add("server.shard_reuse_ratio",
            ratio(ShardsReused, ShardsSolved + ShardsReused), "ratio");
    Rep.add("server.dirtied_contexts", ratio(Dirtied, N), "count");
    Rep.add("server.frontend_ms", ratio(FrontEndMs, N), "ms");
    Rep.add("server.analysis_ms", ratio(AnalysisMs, N), "ms");
    Rep.add("server.transport_ms", ratio(TransportMs, N), "ms");
  }
};

/// Opens every program once in a loopback session and checks the served
/// report against the pipeline's. Records Open spans in \p T.
void serveCheck(const std::vector<Program> &Programs,
                const std::vector<Outcome> &First, Tracer &T,
                ServeStats &Stats, Report &Rep) {
  LoopbackServer Server;
  Client C;
  std::string Error;
  if (!Server.start(Error) || !C.connect(Server.port(), Error))
    return Rep.fail("serve check: " + Error);
  for (size_t I = 0; I != Programs.size(); ++I) {
    Response R;
    uint64_t Lat = 0;
    ++Rep.Attempted;
    if (!C.call(openRequest(Programs[I].Source), R, Lat) || !R.Ok) {
      Rep.fail(Programs[I].Name + ": served open failed: " + R.Error);
      continue;
    }
    Stats.record(R, Lat, T, Layer::Open, static_cast<uint32_t>(I));
    if (R.ReportText != First[I].Report)
      Rep.fail(Programs[I].Name + ": served report differs from runPipeline");
  }
}

/// The per-layer metrics shared by all workloads, from the traced layer
/// spans and counts. \p Passes divides times and counts to "per pass".
void reportLayers(const Tracer &T, const LayerTotals &L, double Passes,
                  const std::vector<Program> &Programs,
                  const std::vector<Counts> &PerProgram, Report &Rep) {
  std::array<double, NumLayers> Self = T.selfSeconds();
  auto Ms = [&](Layer X) {
    return ratio(Self[static_cast<size_t>(X)] * 1e3, Passes);
  };
  auto PerPass = [&](uint64_t V) {
    return ratio(static_cast<double>(V), Passes);
  };
  const Counts &C = L.C;
  const Splits &S = L.S;

  Rep.add("parser.busy_ms", Ms(Layer::Parser), "ms");
  Rep.add("parser.ast_nodes", PerPass(C.AstNodes), "count");
  Rep.add("types.busy_ms", Ms(Layer::Types), "ms");
  Rep.add("regions.busy_ms", Ms(Layer::Regions), "ms");
  Rep.add("regions.region_vars", PerPass(C.RegionVars), "count");
  Rep.add("regions.region_nodes", PerPass(C.RegionNodes), "count");
  Rep.add("closure.busy_ms", Ms(Layer::Closure), "ms");
  Rep.add("closure.contexts", PerPass(C.Contexts), "count");
  Rep.add("closure.processed_contexts", PerPass(C.ProcessedContexts), "count");
  Rep.add("closure.useful_ratio", ratio(C.Contexts, C.ProcessedContexts),
          "ratio");
  Rep.add("closure.converged_frac", ratio(C.Converged, L.Programs), "frac");
  Rep.add("congen.busy_ms", Ms(Layer::Congen), "ms");
  Rep.add("congen.state_vars", PerPass(C.StateVars), "count");
  Rep.add("congen.constraints", PerPass(C.Constraints), "count");
  Rep.add("congen.shards", PerPass(C.Shards), "count");
  Rep.add("congen.largest_shard", static_cast<double>(C.LargestShard), "count");
  Rep.add("solver.busy_ms", Ms(Layer::Solver), "ms");
  // Summed over the solver's shard workers, so it can exceed busy_ms.
  Rep.add("solver.simplify_ms", ratio(S.Simplify * 1e3, Passes), "ms");
  Rep.add("solver.propagations", PerPass(C.Propagations), "count");
  Rep.add("solver.choices", PerPass(C.Choices), "count");
  Rep.add("solver.backtracks", PerPass(C.Backtracks), "count");
  Rep.add("solver.kept_ratio",
          ratio(C.ConstraintsAfterSimplify, C.ConstraintsBeforeSimplify),
          "ratio");
  Rep.add("completion.conservative_ms", Ms(Layer::Conservative), "ms");
  Rep.add("completion.extract_ms", Ms(Layer::Extract), "ms");
  Rep.add("completion.ops", PerPass(C.CompletionOps), "count");
  double ExecMs = ratio(S.VmExecute * 1e3, Passes);
  Rep.add("vm.busy_ms", Ms(Layer::Vm), "ms");
  Rep.add("vm.compile_ms", ratio(S.VmCompile * 1e3, Passes), "ms");
  Rep.add("vm.execute_ms", ExecMs, "ms");
  Rep.add("vm.steps", PerPass(C.VmSteps), "count");
  Rep.add("vm.mem_ops", PerPass(C.VmMemOps), "count");
  Rep.add("vm.steps_per_ms", ratio(PerPass(C.VmSteps), ExecMs), "1/ms");
  Rep.add("refinterp.busy_ms", Ms(Layer::RefInterp), "ms");

  // Growth from n to 2n of each scaling family, as log2(count(2n) /
  // count(n)); the largest over families. 0 when no family is present.
  double ConstraintsExp = 0, StateVarsExp = 0, RegionVarsExp = 0;
  for (size_t I = 0; I != Programs.size(); ++I)
    for (size_t J = 0; J != Programs.size(); ++J) {
      const Program &Small = Programs[I], &Big = Programs[J];
      if (Small.Family.empty() || Small.Family != Big.Family ||
          Big.Size != 2 * Small.Size)
        continue;
      auto Exp = [](uint64_t A, uint64_t B) {
        return A && B ? std::log2(static_cast<double>(B) / A) : 0.0;
      };
      const Counts &A = PerProgram[I], &B = PerProgram[J];
      ConstraintsExp =
          std::max(ConstraintsExp, Exp(A.Constraints, B.Constraints));
      StateVarsExp = std::max(StateVarsExp, Exp(A.StateVars, B.StateVars));
      RegionVarsExp = std::max(RegionVarsExp, Exp(A.RegionVars, B.RegionVars));
    }
  Rep.add("congen.constraints_exponent", ConstraintsExp, "exponent");
  Rep.add("congen.state_vars_exponent", StateVarsExp, "exponent");
  Rep.add("regions.region_vars_exponent", RegionVarsExp, "exponent");
}

void reportTraceQuality(const Tracer &T, double UntracedRate,
                        double TracedRate, Report &Rep) {
  std::array<double, NumLayers> Self = T.selfSeconds();
  std::array<double, NumLayers> Total = T.totalSeconds();
  double RootTotal = 0, RootSelf = 0;
  for (Layer Root : {Layer::Pipeline, Layer::Edit, Layer::Open}) {
    RootTotal += Total[static_cast<size_t>(Root)];
    RootSelf += Self[static_cast<size_t>(Root)];
  }
  Rep.add("trace.coverage_frac", ratio(RootTotal - RootSelf, RootTotal),
          "frac");
  Rep.add("trace.overhead_frac", 1 - ratio(TracedRate, UntracedRate), "frac");
}

void writeDigests(const Args &A, const std::vector<Program> &Programs,
                  const std::vector<Outcome> &First, Report &Rep) {
  if (A.OutDir.empty())
    return;
  std::string Text;
  for (size_t I = 0; I != Programs.size(); ++I)
    Text += Programs[I].Name + " " + hex(First[I].Digest) + "\n";
  std::string Path = outPath(A, ".digests");
  if (!writeFile(Path, Text))
    return Rep.fail("cannot write " + Path);
  Rep.info("digests_file", jsonQuote(Path));
}

void writeSpans(const Args &A, const Tracer &T, Report &Rep) {
  if (A.OutDir.empty() || !T.enabled())
    return;
  std::string Path = outPath(A, ".spans.jsonl");
  if (!T.write(Path))
    return Rep.fail("cannot write " + Path);
  Rep.info("spans_file", jsonQuote(Path));
}

//===----------------------------------------------------------------------===//
// Batch workloads: paper-corpus, straight-line, hof-contexts
//===----------------------------------------------------------------------===//

Report runBatch(const Args &A) {
  Report Rep;
  std::vector<Program> Programs;
  std::string SetupError;
  double SetupS = timeSetup(A, [&] {
    // Generate the inputs, check each passes the front end, and warm up
    // with one untimed pass.
    Programs = batchPrograms(A.W, A.Seed);
    for (const Program &P : Programs) {
      DiagnosticEngine Diags;
      double Seconds = 0;
      if (!driver::runFrontEnd(P.Source, Diags).ok())
        SetupError = P.Name + ": invalid input: " + Diags.str();
      else if (Outcome O = runDefault(P.Source, RunRequest(), Seconds); !O.Ok)
        SetupError = P.Name + ": warm-up failed: " + O.Error;
    }
  });
  if (!SetupError.empty()) {
    Rep.Attempted = Programs.size();
    Rep.fail(SetupError);
    return Rep;
  }

  const size_t N = Programs.size();
  std::vector<Outcome> First(N);
  std::vector<std::vector<double>> Latency(N);
  std::vector<double> UntracedRates, TracedRates;
  Tracer T(A.Trace);
  LayerTotals Layers;
  std::vector<Counts> PerProgram(N);
  uint32_t NextId = 0;
  size_t TracedPasses = 0;

  ArenaPool::Stats Pool0 = ArenaPool::global().stats();
  uint64_t Deadline = nowNs() + static_cast<uint64_t>(A.Seconds * 1e9);
  for (size_t Pass = 0; Pass == 0 || (!A.ProbeRss && nowNs() < Deadline);
       ++Pass) {
    bool Traced = A.Trace && Pass % 2 == 1;
    double PassSeconds = 0;
    for (size_t I = 0; I != N; ++I) {
      RunRequest Req;
      Req.WantReport = Pass == 0;
      Outcome O;
      ++Rep.Attempted;
      if (Traced) {
        uint32_t Root = static_cast<uint32_t>(T.spans().size());
        O = runLayers(Programs[I].Source, Req, T, NextId++);
        const Span &S = T.spans()[Root];
        PassSeconds += (S.EndNs - S.StartNs) * 1e-9;
        Layers.C.add(O.C);
        Layers.S.add(O.S);
        ++Layers.Programs;
        PerProgram[I] = O.C;
      } else {
        double Seconds = 0;
        O = runDefault(Programs[I].Source, Req, Seconds);
        PassSeconds += Seconds;
        Latency[I].push_back(Seconds * 1e3);
      }
      if (Pass == 0)
        First[I] = O;
      else if (!O.Ok || O.Digest != First[I].Digest)
        Rep.fail(Programs[I].Name + ": completion differs between reps");
    }
    (Traced ? TracedRates : UntracedRates).push_back(ratio(N, PassSeconds));
    TracedPasses += Traced;
  }
  ArenaPool::Stats Pool1 = ArenaPool::global().stats();
  if (A.ProbeRss) {
    Rep.add("peak_rss_mb", peakRssMb(), "MB");
    return Rep;
  }

  // Checks (untimed).
  Tracer CheckTracer(false);
  ServeStats Serve;
  uint64_t AflMax = 0, TtMax = 0;
  for (size_t I = 0; I != N; ++I) {
    Outcome Traced =
        runLayers(Programs[I].Source, RunRequest(), CheckTracer, 0);
    checkProgram(Programs[I], First[I], Traced, Rep);
    AflMax += First[I].AflMaxValues;
    TtMax += First[I].TtMaxValues;
  }
  serveCheck(Programs, First, T, Serve, Rep);
  writeDigests(A, Programs, First, Rep);

  // Latency percentiles are over the programs of the workload, each at its
  // typical latency: a sample-level p90 would jump between two programs
  // whenever their latencies straddle the rank.
  std::vector<double> PerProgramMs;
  std::string PerProgramInfo;
  size_t Samples = 0;
  for (size_t I = 0; I != N; ++I) {
    Samples += Latency[I].size();
    PerProgramMs.push_back(typicalMs(Latency[I]));
    if (!PerProgramInfo.empty())
      PerProgramInfo += ",";
    PerProgramInfo +=
        jsonQuote(Programs[I].Name) + ":" + num(PerProgramMs.back());
  }
  Rep.info("pipeline_ms_per_program", "{" + PerProgramInfo + "}");
  Rep.info("programs_per_s_per_pass", jsonArray(UntracedRates));
  double P90 = quantile(PerProgramMs, 0.9);
  Rep.info("samples", "{\"setup_reps\":" + std::to_string(SetupReps) +
                          ",\"untraced_passes\":" +
                          std::to_string(UntracedRates.size()) +
                          ",\"traced_passes\":" + std::to_string(TracedPasses) +
                          ",\"programs_per_pass\":" + std::to_string(N) +
                          ",\"latency_samples\":" + std::to_string(Samples) +
                          ",\"programs_beyond_p90\":" +
                          std::to_string(countAbove(PerProgramMs, P90)) +
                          "}");

  if (!A.Trace) {
    Rep.add("setup_s", SetupS, "s");
    // Throughput at the stated sizes: one pass, every program at its
    // typical latency.
    double PassMs = 0;
    for (double Ms : PerProgramMs)
      PassMs += Ms;
    Rep.add("programs_per_s", ratio(N * 1e3, PassMs), "1/s");
    Rep.add("pipeline_ms_p50", quantile(PerProgramMs, 0.5), "ms");
    Rep.add("pipeline_ms_p90", P90, "ms");
    Rep.add("afl_space_ratio", ratio(AflMax, TtMax), "ratio");
    return Rep;
  }
  reportLayers(T, Layers, static_cast<double>(TracedPasses), Programs,
               PerProgram, Rep);
  Serve.report(Rep);
  Rep.add("support.arena_pool_hit_ratio",
          ratio(Pool1.Hits - Pool0.Hits, Pool1.Checkouts - Pool0.Checkouts),
          "ratio");
  reportTraceQuality(T, median(UntracedRates), median(TracedRates), Rep);
  writeSpans(A, T, Rep);
  return Rep;
}

//===----------------------------------------------------------------------===//
// edit-session
//===----------------------------------------------------------------------===//

struct EditClient {
  Client Conn;
  Program Doc;
  int64_t DocId = -1;
  std::string Text;
  /// Client-timed latency of the untraced edits, by kind of edit.
  std::map<unsigned, std::vector<double>> UntracedMs;
  uint64_t TracedEdits = 0;
  ServeStats Serve; ///< traced-window requests
  uint64_t Attempted = 0;
  std::vector<std::string> Failures;
  Tracer T{false};
  uint32_t NextId = 0; ///< request id of the next traced edit
};

bool openDocument(EditClient &C, uint16_t Port, const Program &Doc,
                  std::string &Error) {
  C.Conn = Client();
  if (!C.Conn.connect(Port, Error))
    return false;
  Response R;
  uint64_t Lat = 0;
  if (!C.Conn.call(openRequest(Doc.Source), R, Lat) || !R.Ok) {
    Error = Doc.Name + ": open failed: " + R.Error;
    return false;
  }
  C.Doc = Doc;
  C.DocId = R.Doc;
  C.Text = Doc.Source;
  return true;
}

/// Sends \p C's next edit and waits for the answer; traced from
/// \p TraceFrom on. False if the edit failed.
bool editOnce(EditClient &C, EditScript &Script, uint64_t TraceFrom) {
  bool Traced = nowNs() >= TraceFrom;
  if (Traced && !C.T.enabled())
    C.T = Tracer(true);
  Edit E = Script.next(C.Text);
  Response R;
  uint64_t Lat = 0;
  ++C.Attempted;
  if (!C.Conn.call(editRequest(C.DocId, E), R, Lat)) {
    C.Failures.push_back(C.Doc.Name + ": connection failed");
    return false;
  }
  if (!R.Ok) {
    C.Failures.push_back(C.Doc.Name + ": edit failed: " + R.Error);
    return false; // the server kept the old text; the script would diverge
  }
  C.Text.replace(E.Start, E.Length, E.Text);
  if (Traced) {
    ++C.TracedEdits;
    C.Serve.record(R, Lat, C.T, Layer::Edit, C.NextId++);
  } else {
    C.UntracedMs[E.Kind].push_back(Lat * 1e-6);
  }
  return true;
}

/// Plays the clients' edit scripts in turn from this thread, so one
/// request is in flight at a time: each client is a closed loop whose next
/// edit goes out once its previous answer is in and the other clients have
/// had their turn. Stops at \p Deadline, after \p MaxEdits edits per client
/// or at the first failed edit.
void editLoop(std::vector<EditClient> &Clients, uint64_t Seed,
              uint64_t TraceFrom, uint64_t Deadline, size_t MaxEdits) {
  std::vector<EditScript> Scripts;
  for (size_t I = 0; I != Clients.size(); ++I)
    Scripts.emplace_back(Clients[I].Text, Seed * 7919 + I);
  for (size_t Done = 0; Done != MaxEdits && nowNs() < Deadline; ++Done)
    for (size_t I = 0; I != Clients.size(); ++I)
      if (!editOnce(Clients[I], Scripts[I], TraceFrom))
        return;
}

/// Restricts the calling thread, and every thread it starts from now on,
/// to the CPU it runs on. Returns that CPU, or -1 if it stays unpinned.
int pinToCurrentCpu() {
  int Cpu = sched_getcpu();
  if (Cpu < 0)
    return -1;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpu, &Set);
  return sched_setaffinity(0, sizeof(Set), &Set) == 0 ? Cpu : -1;
}

Report runEditSession(const Args &A) {
  Report Rep;
  // The client, the server's acceptor and its connection threads share
  // one CPU: with one request in flight, each hand-over is then a switch
  // on that CPU, not a cross-CPU wake-up whose cost follows the host.
  Rep.info("pinned_cpu", std::to_string(pinToCurrentCpu()));
  LoopbackServer Server;
  std::string Error;
  if (!Server.start(Error)) {
    Rep.Attempted = 1;
    Rep.fail("cannot start the server: " + Error);
    return Rep;
  }
  std::vector<EditClient> Clients(EditClients);
  std::vector<Program> Docs;
  std::string SetupError;
  double SetupS = timeSetup(A, [&] {
    // Generate the documents, connect every client, open its document and
    // warm up with a few rounds of the edit script, which end on the
    // opened text.
    Docs = editDocuments();
    for (int I = 0; I != EditClients; ++I)
      if (!openDocument(Clients[I], Server.port(), Docs[I % Docs.size()],
                        Error))
        SetupError = Error;
    if (!SetupError.empty())
      return;
    editLoop(Clients, 2 * A.Seed, ~0ull, ~0ull,
             WarmupRounds * EditScript::RoundEdits);
    for (EditClient &C : Clients) {
      if (!C.Failures.empty() || C.Text != C.Doc.Source)
        SetupError = C.Doc.Name + ": warm-up edits failed";
      C.UntracedMs.clear();
      C.Attempted = 0;
    }
  });
  if (!SetupError.empty()) {
    Rep.Attempted = EditClients;
    Rep.fail("set-up: " + SetupError);
    return Rep;
  }

  ArenaPool::Stats Pool0 = ArenaPool::global().stats();
  uint64_t Start = nowNs();
  uint64_t Deadline = Start + static_cast<uint64_t>(A.Seconds * 1e9);
  uint64_t TraceFrom = A.Trace ? Start + (Deadline - Start) / 2 : ~0ull;
  // Request ids stay unique once the clients' spans are merged.
  for (int I = 0; I != EditClients; ++I)
    Clients[I].NextId = static_cast<uint32_t>(I + 1) << 24;
  editLoop(Clients, 2 * A.Seed + 1, TraceFrom, A.ProbeRss ? ~0ull : Deadline,
           A.ProbeRss ? ProbeEdits : ~size_t(0));
  uint64_t End = nowNs();
  ArenaPool::Stats Pool1 = ArenaPool::global().stats();
  if (A.ProbeRss) {
    Rep.add("peak_rss_mb", peakRssMb(), "MB");
    return Rep;
  }

  // Checks (untimed): each client's final report against a from-scratch
  // pipeline of its final text, and every opened document through the
  // batch checks.
  Tracer T(A.Trace);
  ServeStats Serve;
  std::map<unsigned, std::vector<double>> UntracedMs;
  uint64_t Untraced = 0, Traced = 0;
  LayerTotals Layers;
  std::vector<Outcome> First;
  uint32_t Id = 0;
  for (EditClient &C : Clients) {
    Rep.Attempted += C.Attempted;
    for (const std::string &F : C.Failures)
      Rep.fail(F);
    for (auto &[Kind, Ms] : C.UntracedMs) {
      Untraced += Ms.size();
      UntracedMs[Kind].insert(UntracedMs[Kind].end(), Ms.begin(), Ms.end());
    }
    Traced += C.TracedEdits;
    Serve.merge(C.Serve);
    T.merge(std::move(C.T));

    Response R;
    uint64_t Lat = 0;
    ++Rep.Attempted;
    RunRequest Final;
    Final.SkipRuns = true;
    Final.WantReport = true;
    Outcome Scratch = runLayers(C.Text, Final, T, Id++);
    Layers.C.add(Scratch.C);
    Layers.S.add(Scratch.S);
    ++Layers.Programs;
    if (!C.Conn.call(reportRequest(C.DocId), R, Lat) || !R.Ok)
      Rep.fail(C.Doc.Name + ": final report query failed");
    else if (!Scratch.Ok || R.ReportText != Scratch.Report)
      Rep.fail(C.Doc.Name + ": final report differs from runPipeline");
    C.Conn.close();
  }
  uint64_t AflMax = 0, TtMax = 0;
  std::vector<Counts> PerDoc;
  for (const Program &P : Docs) {
    double Seconds = 0;
    First.push_back(runDefault(P.Source, RunRequest(), Seconds));
    Outcome Layered = runLayers(P.Source, RunRequest(), T, Id++);
    Layers.C.add(Layered.C);
    Layers.S.add(Layered.S);
    ++Layers.Programs;
    PerDoc.push_back(Layered.C);
    checkProgram(P, First.back(), Layered, Rep);
    AflMax += First.back().AflMaxValues;
    TtMax += First.back().TtMaxValues;
  }
  writeDigests(A, Docs, First, Rep);

  // Latency by kind of edit, each kind at its typical latency, with the
  // kinds weighted by how often the script makes them. A percentile over
  // raw samples jumps between the costs of two kinds whenever the rank
  // falls between them, and throughput counted over the window follows
  // every stall of the host.
  std::vector<double> Weighted;
  double WeightedMs = 0;
  size_t FewestSamples = ~size_t(0);
  for (const auto &[Kind, Ms] : UntracedMs) {
    double M = typicalMs(Ms);
    unsigned W = EditScript::weight(Kind);
    Weighted.insert(Weighted.end(), W, M);
    WeightedMs += W * M;
    FewestSamples = std::min(FewestSamples, Ms.size());
  }
  double Window = (End - Start) * 1e-9;
  double P90 = quantile(Weighted, 0.9);
  size_t BeyondP90 = 0;
  for (const auto &[Kind, Ms] : UntracedMs)
    if (typicalMs(Ms) > P90)
      BeyondP90 += Ms.size();
  Rep.info("samples",
           "{\"setup_reps\":" + std::to_string(SetupReps) +
               ",\"clients\":" + std::to_string(EditClients) +
               ",\"untraced_edits\":" + std::to_string(Untraced) +
               ",\"traced_edits\":" + std::to_string(Traced) +
               ",\"edit_kinds\":" + std::to_string(UntracedMs.size()) +
               ",\"fewest_edits_of_a_kind\":" +
               std::to_string(UntracedMs.empty() ? 0 : FewestSamples) +
               ",\"edits_of_kinds_beyond_p90\":" +
               std::to_string(BeyondP90) + "}");

  if (!A.Trace) {
    Rep.add("setup_s", SetupS, "s");
    // One request in flight: throughput at the script's mix is the
    // inverse of the mean latency per edit.
    Rep.add("programs_per_s",
            ratio(static_cast<double>(Weighted.size()) * 1e3, WeightedMs),
            "1/s");
    Rep.add("pipeline_ms_p50", quantile(Weighted, 0.5), "ms");
    Rep.add("pipeline_ms_p90", P90, "ms");
    Rep.add("afl_space_ratio", ratio(AflMax, TtMax), "ratio");
    return Rep;
  }
  // The batch layers run only in the checks here: one "pass" is the whole
  // check of this run.
  reportLayers(T, Layers, 1.0, Docs, PerDoc, Rep);
  Serve.report(Rep);
  Rep.add("support.arena_pool_hit_ratio",
          ratio(Pool1.Hits - Pool0.Hits, Pool1.Checkouts - Pool0.Checkouts),
          "ratio");
  reportTraceQuality(T, ratio(Untraced, Window / 2),
                     ratio(Traced, Window / 2), Rep);
  writeSpans(A, T, Rep);
  return Rep;
}

std::string resolvedDefaults() {
  return std::string("{\"closure_jobs\":") +
         std::to_string(closure::ClosureOptions().Jobs) +
         ",\"closure_widen\":" +
         std::to_string(closure::ClosureOptions().Widening) +
         ",\"solver_jobs\":" + std::to_string(solver::SolveOptions().Jobs) +
         ",\"hardware_threads\":" +
         std::to_string(ThreadPool::hardwareThreads()) + ",\"backend\":\"" +
         (interp::defaultBackend() == interp::BackendKind::Vm ? "vm" : "tree") +
         "\",\"arena_pool\":" +
         (ArenaPool::globalEnabled() ? "true" : "false") +
         ",\"arena_pool_max\":" +
         std::to_string(ArenaPool::global().maxPooled()) + "}";
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Cleared;
  for (const char *Name : PinnedEnv)
    if (std::getenv(Name)) {
      Cleared += Cleared.empty() ? "" : ",";
      Cleared += jsonQuote(Name);
      unsetenv(Name);
    }

  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: afl_perfbench --workload "
                 "paper-corpus|straight-line|hof-contexts|edit-session "
                 "--seed N --seconds S --trace 0|1 [--out DIR] "
                 "[--probe-rss 1]\n");
    return 2;
  }

  Report Rep = A.W == Workload::EditSession ? runEditSession(A) : runBatch(A);
  Rep.info("workload", jsonQuote(A.Name));
  Rep.info("seed", std::to_string(A.Seed));
  Rep.info("pinned_env_cleared", "[" + Cleared + "]");
  Rep.info("resolved_defaults", resolvedDefaults());
  Rep.info("build_type", jsonQuote(PERFBENCH_BUILD_TYPE));
  Rep.info("compiler", jsonQuote(PERFBENCH_COMPILER));
  std::string Failures;
  for (const std::string &F : Rep.Failures) {
    std::fprintf(stderr, "FAIL %s\n", F.c_str());
    Failures += Failures.empty() ? "" : ",";
    Failures += jsonQuote(F);
  }
  Rep.info("failures", "[" + Failures + "]");

  std::string Metrics;
  for (const Metric &M : Rep.Metrics)
    Metrics += (Metrics.empty() ? "\"" : ",\"") + M.Name + "\":{\"value\":" +
               num(M.Value) + ",\"unit\":\"" + M.Unit + "\"}";
  std::printf("{\"info\":{%s}}\n", Rep.Info.c_str());
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              Rep.Failed ? "false" : "true",
              static_cast<unsigned long long>(Rep.Attempted),
              static_cast<unsigned long long>(Rep.Failed), Metrics.c_str());
  return Rep.Failed ? 1 : 0;
}

#include "driver/Session.h"

#include "completion/AflCompletion.h"
#include "completion/Conservative.h"
#include "driver/Incremental.h"
#include "interp/Interp.h"
#include "support/ArenaPool.h"
#include "support/Metrics.h"

#include <cmath>
#include <exception>

using namespace afl;
using namespace afl::driver;

namespace {

std::string jsonString(std::string_view S) {
  std::string O = "\"";
  O += MetricsRegistry::escapeJson(S);
  O += '"';
  return O;
}

uint64_t micros(double Seconds) {
  return Seconds > 0 ? static_cast<uint64_t>(std::llround(Seconds * 1e6)) : 0;
}

/// Re-serializes a request "id" for echoing (numbers and strings pass
/// through; anything else, including a missing id, becomes null).
std::string echoId(const json::Value *Id) {
  if (!Id)
    return "null";
  if (Id->isInt())
    return std::to_string(Id->asInt());
  if (Id->isString())
    return jsonString(Id->asString());
  return "null";
}

/// The completion report as a JSON object: classification counts plus the
/// full human-readable rendering (the byte string the differential tests
/// compare).
std::string reportJson(const completion::CompletionReport &R) {
  std::string O = "{";
  O += "\"regions\":" + std::to_string(R.Regions.size());
  O += ",\"lexical\":" + std::to_string(R.NumLexical);
  O += ",\"late_alloc\":" + std::to_string(R.NumLateAlloc);
  O += ",\"early_free\":" + std::to_string(R.NumEarlyFree);
  O += ",\"non_lexical\":" + std::to_string(R.NumNonLexical);
  O += ",\"unused\":" + std::to_string(R.NumUnused);
  O += ",\"text\":" + jsonString(R.str());
  O += "}";
  return O;
}

/// A solver domain vector as a compact digit string ('1'..'7' per state
/// var, '1'..'3' per bool var). Takes the packed lane arrays
/// (support/PackedDomains.h) the solver now returns.
template <unsigned Bits>
std::string domainString(const support::PackedArray<Bits> &Dom) {
  std::string O;
  O.reserve(Dom.size());
  for (size_t I = 0; I != Dom.size(); ++I)
    O.push_back(static_cast<char>('0' + (Dom.get(I) & 7)));
  return O;
}

} // namespace

Session::AnalysisInfo Session::analyze(Document &Doc,
                                       const closure::ClosureAnalysis *PrevCA,
                                       const closure::IncrementalSeed *Seed,
                                       StageTimings &T) {
  AnalysisInfo Info;
  T.AnalysisRan = true;
  Stopwatch Watch;

  auto CA = std::make_unique<closure::ClosureAnalysis>(*Doc.Prog);
  bool Converged = false;
  if (PrevCA && Seed && CA->runIncremental(*PrevCA, *Seed)) {
    Info.Tier = "incremental";
    Converged = true;
    ++Stats.IncrementalAnalyses;
  } else {
    if (PrevCA && Seed) // rejected seed: restart on a fresh instance
      CA = std::make_unique<closure::ClosureAnalysis>(*Doc.Prog);
    Converged = CA->run();
    ++Stats.FullAnalyses;
  }
  T.Closure = Watch.seconds();
  Doc.CA = std::move(CA);

  Info.Converged = Converged;
  Info.ProcessedContexts = Doc.CA->stats().ProcessedContexts;
  Info.DirtiedContexts = Doc.CA->stats().Incremental
                             ? Doc.CA->stats().DirtiedContexts
                             : Doc.CA->stats().ProcessedContexts;
  Stats.DirtiedContexts += Info.DirtiedContexts;

  uint64_t Hits0 = Doc.Cache.Hits;
  uint64_t Misses0 = Doc.Cache.Misses;
  if (!Converged) {
    // Mirror aflCompletion: unconverged tables are unsound, fall back to
    // the conservative completion (should not happen in practice).
    Doc.Gen.reset();
    Doc.Sol = solver::SolveResult();
    Doc.AflC = completion::conservativeCompletion(*Doc.Prog);
  } else {
    Watch.reset();
    Doc.Gen = std::make_unique<constraints::GenResult>(
        constraints::generateConstraints(*Doc.Prog, *Doc.CA));
    T.ConstraintGen = Watch.seconds();
    Doc.Sol = solver::solveCached(Doc.Gen->Sys, solver::SolveOptions(),
                                  Doc.Cache);
    T.Solve = Doc.Sol.Seconds;
    Watch.reset();
    Doc.AflC = Doc.Sol.Sat
                   ? completion::extractCompletion(*Doc.Gen, Doc.Sol)
                   : completion::conservativeCompletion(*Doc.Prog);
    T.Extract = Watch.seconds();
  }
  Doc.Report = completion::reportCompletion(*Doc.Prog, Doc.AflC);

  Info.Sat = Doc.Sol.Sat;
  Info.ShardsSolved = Doc.Cache.Misses - Misses0;
  Info.ShardsReused = Doc.Cache.Hits - Hits0;
  Stats.ShardsSolved += Info.ShardsSolved;
  Stats.ShardsReused += Info.ShardsReused;
  return Info;
}

Session::Document *Session::findDoc(const json::Value &Params,
                                    std::string &Error) {
  const json::Value *Doc = Params.find("doc");
  if (!Doc || !Doc->isInt()) {
    Error = "missing integer \"doc\" parameter";
    return nullptr;
  }
  auto It = Docs.find(Doc->asInt());
  if (It == Docs.end()) {
    Error = "unknown document " + std::to_string(Doc->asInt());
    return nullptr;
  }
  return &It->second;
}

std::string Session::handleOpen(const json::Value &Params, StageTimings &T,
                                std::string &Error) {
  const json::Value *Source = Params.find("source");
  if (!Source || !Source->isString()) {
    Error = "missing string \"source\" parameter";
    return "";
  }
  ++Stats.Opens;

  DiagnosticEngine Diags;
  FrontEnd F = runFrontEnd(Source->asString(), Diags);
  T.FrontEnd = F.ParseSeconds + F.TypeInferSeconds + F.RegionInferSeconds;
  if (!F.ok()) {
    Error = "analysis failed: " + Diags.str();
    return "";
  }

  Document Doc;
  Doc.Text = Source->asString();
  Doc.Ctx = std::move(F.Ctx);
  Doc.Ast = F.Ast;
  Doc.Prog = std::move(F.Prog);
  AnalysisInfo Info = analyze(Doc, nullptr, nullptr, T);

  int64_t Id = NextDocId++;
  Document &Stored = Docs[Id];
  Stored = std::move(Doc);

  std::string O = "{\"doc\":" + std::to_string(Id);
  O += ",\"tier\":" + jsonString(Info.Tier);
  O += ",\"report\":" + reportJson(Stored.Report);
  O += ",\"analysis\":" + analysisBody(Stored, Info);
  O += "}";
  return O;
}

std::string Session::analysisBody(const Document &Doc,
                                  const AnalysisInfo &Info) const {
  std::string O = "{";
  O += "\"converged\":" + std::string(Info.Converged ? "true" : "false");
  O += ",\"sat\":" + std::string(Info.Sat ? "true" : "false");
  O += ",\"contexts\":" + std::to_string(Doc.CA ? Doc.CA->numContexts() : 0);
  O += ",\"closures\":" + std::to_string(Doc.CA ? Doc.CA->numClosures() : 0);
  O += ",\"state_vars\":" +
       std::to_string(Doc.Gen ? Doc.Gen->Sys.numStateVars() : 0);
  O += ",\"bool_vars\":" +
       std::to_string(Doc.Gen ? Doc.Gen->Sys.numBoolVars() : 0);
  O += ",\"constraints\":" +
       std::to_string(Doc.Gen ? Doc.Gen->Sys.numConstraints() : 0);
  O += ",\"shards\":" + std::to_string(Doc.Gen ? Doc.Gen->Sys.numShards() : 0);
  O += ",\"processed_contexts\":" + std::to_string(Info.ProcessedContexts);
  O += ",\"dirtied_contexts\":" + std::to_string(Info.DirtiedContexts);
  O += ",\"shards_solved\":" + std::to_string(Info.ShardsSolved);
  O += ",\"shards_reused\":" + std::to_string(Info.ShardsReused);
  O += "}";
  return O;
}

std::string Session::handleEdit(const json::Value &Params, StageTimings &T,
                                std::string &Error) {
  Document *Doc = findDoc(Params, Error);
  if (!Doc)
    return "";
  const json::Value *Start = Params.find("start");
  const json::Value *Length = Params.find("length");
  const json::Value *Text = Params.find("text");
  if (!Start || !Start->isInt() || !Length || !Length->isInt() || !Text ||
      !Text->isString()) {
    Error = "edit needs integer \"start\"/\"length\" and string \"text\"";
    return "";
  }
  int64_t S = Start->asInt();
  int64_t L = Length->asInt();
  if (S < 0 || L < 0 || static_cast<uint64_t>(S) > Doc->Text.size() ||
      static_cast<uint64_t>(S + L) > Doc->Text.size()) {
    Error = "edit span [" + std::to_string(S) + ", " + std::to_string(S + L) +
            ") out of range for document of " +
            std::to_string(Doc->Text.size()) + " bytes";
    return "";
  }
  ++Stats.Edits;

  std::string NewText = Doc->Text;
  NewText.replace(static_cast<size_t>(S), static_cast<size_t>(L),
                  Text->asString());

  // The front end always re-runs from scratch; a failure leaves the
  // document at its previous revision (revert semantics, docs/SERVER.md).
  DiagnosticEngine Diags;
  FrontEnd F = runFrontEnd(NewText, Diags);
  T.FrontEnd = F.ParseSeconds + F.TypeInferSeconds + F.RegionInferSeconds;
  if (!F.ok()) {
    Error = "analysis failed (document unchanged): " + Diags.str();
    return "";
  }

  ProgramDiff Diff = diffPrograms(*Doc->Prog, *F.Prog);
  AnalysisInfo Info;
  if (Diff.Kind == DiffKind::Identical || Diff.Kind == DiffKind::LiteralsOnly) {
    // The previous region program is isomorphic modulo literal payloads,
    // which nothing downstream of the front end reads: keep every cached
    // artifact (including the old program as the analysis baseline) and
    // only move the text forward.
    Doc->Text = std::move(NewText);
    Info.Tier = "reuse";
    Info.Converged = Doc->CA && Doc->CA->converged();
    Info.Sat = Doc->Sol.Sat;
    Info.ShardsReused = Doc->Gen ? Doc->Gen->Sys.numShards() : 0;
    ++Stats.ReusedAnalyses;
    Stats.ShardsReused += Info.ShardsReused;
  } else {
    // Keep the previous program + closure tables alive while the seeded
    // restart translates out of them, then drop them.
    std::unique_ptr<regions::RegionProgram> OldProg = std::move(Doc->Prog);
    std::unique_ptr<closure::ClosureAnalysis> OldCA = std::move(Doc->CA);
    Doc->Text = std::move(NewText);
    Doc->Ctx = std::move(F.Ctx);
    Doc->Ast = F.Ast;
    Doc->Prog = std::move(F.Prog);
    bool TrySeed = Diff.Kind == DiffKind::Subtree && OldCA != nullptr;
    Info = analyze(*Doc, TrySeed ? OldCA.get() : nullptr,
                   TrySeed ? &Diff.Seed : nullptr, T);
  }

  const json::Value *DocId = Params.find("doc");
  std::string O = "{\"doc\":" + std::to_string(DocId->asInt());
  O += ",\"tier\":" + jsonString(Info.Tier);
  O += ",\"report\":" + reportJson(Doc->Report);
  O += ",\"analysis\":" + analysisBody(*Doc, Info);
  O += "}";
  return O;
}

std::string Session::handleQuery(const json::Value &Params,
                                 std::string &Error) {
  const json::Value *What = Params.find("what");
  if (!What || !What->isString()) {
    Error = "missing string \"what\" parameter";
    return "";
  }
  ++Stats.Queries;
  const std::string &W = What->asString();

  if (W == "metrics") {
    std::string O = "{\"metrics\":{";
    O += "\"requests\":" + std::to_string(Stats.Requests);
    O += ",\"errors\":" + std::to_string(Stats.Errors);
    O += ",\"opens\":" + std::to_string(Stats.Opens);
    O += ",\"edits\":" + std::to_string(Stats.Edits);
    O += ",\"queries\":" + std::to_string(Stats.Queries);
    O += ",\"closes\":" + std::to_string(Stats.Closes);
    O += ",\"open_docs\":" + std::to_string(Docs.size());
    O += ",\"full_analyses\":" + std::to_string(Stats.FullAnalyses);
    O += ",\"incremental_analyses\":" +
         std::to_string(Stats.IncrementalAnalyses);
    O += ",\"reused_analyses\":" + std::to_string(Stats.ReusedAnalyses);
    O += ",\"dirtied_contexts\":" + std::to_string(Stats.DirtiedContexts);
    O += ",\"shards_solved\":" + std::to_string(Stats.ShardsSolved);
    O += ",\"shards_reused\":" + std::to_string(Stats.ShardsReused);
    if (Conn) {
      // Socket-transport sessions also report the server-wide connection
      // counters (docs/OBSERVABILITY.md, "server/connections" scope).
      O += ",\"connections\":{";
      O += "\"accepted\":" +
           std::to_string(Conn->Accepted.load(std::memory_order_relaxed));
      O += ",\"active\":" +
           std::to_string(Conn->Active.load(std::memory_order_relaxed));
      O += ",\"rejected\":" +
           std::to_string(Conn->Rejected.load(std::memory_order_relaxed));
      O += ",\"timed_out\":" +
           std::to_string(Conn->TimedOut.load(std::memory_order_relaxed));
      O += "}";
    }
    // Process-wide arena-pool counters: every open/edit leases its AST
    // and region-IR arenas from the pool (docs/OBSERVABILITY.md).
    ArenaPool::Stats Pool = ArenaPool::global().stats();
    O += ",\"memory\":{\"arena_pool\":{";
    O += "\"enabled\":" +
         std::string(ArenaPool::globalEnabled() ? "true" : "false");
    O += ",\"checkouts\":" + std::to_string(Pool.Checkouts);
    O += ",\"hits\":" + std::to_string(Pool.Hits);
    O += ",\"misses\":" + std::to_string(Pool.Misses);
    O += ",\"returns\":" + std::to_string(Pool.Returns);
    O += ",\"pooled\":" + std::to_string(Pool.Pooled);
    O += ",\"retained_bytes\":" + std::to_string(Pool.RetainedBytes);
    O += "}}";
    O += "}}";
    return O;
  }

  Document *Doc = findDoc(Params, Error);
  if (!Doc)
    return "";
  if (W == "report")
    return "{\"report\":" + reportJson(Doc->Report) + "}";
  if (W == "domains") {
    std::string O = "{\"domains\":{";
    O += "\"sat\":" + std::string(Doc->Sol.Sat ? "true" : "false");
    O += ",\"states\":" + jsonString(domainString(Doc->Sol.StateDom));
    O += ",\"bools\":" + jsonString(domainString(Doc->Sol.BoolDom));
    O += "}}";
    return O;
  }
  if (W == "run") {
    // Instrumented execution of the document under its current A-F-L
    // completion. Served runs use the bytecode VM (docs/VM.md).
    Stopwatch Watch;
    interp::RunResult R = interp::run(*Doc->Prog, Doc->AflC);
    double TotalSeconds = Watch.seconds();
    std::string O = "{\"run\":{";
    O += "\"ok\":" + std::string(R.Ok ? "true" : "false");
    if (R.Ok)
      O += ",\"result\":" + jsonString(R.ResultText);
    else
      O += ",\"error\":" + jsonString(R.Error);
    O += ",\"backend\":\"vm\"";
    O += ",\"stats\":{";
    O += "\"max_regions\":" + std::to_string(R.S.MaxRegions);
    O += ",\"region_allocs\":" + std::to_string(R.S.TotalRegionAllocs);
    O += ",\"value_allocs\":" + std::to_string(R.S.TotalValueAllocs);
    O += ",\"max_values\":" + std::to_string(R.S.MaxValues);
    O += ",\"final_values\":" + std::to_string(R.S.FinalValues);
    O += ",\"memory_ops\":" + std::to_string(R.S.Time);
    O += "},\"micros\":{";
    O += "\"compile_us\":" + std::to_string(micros(R.VmCompileSeconds));
    O += ",\"execute_us\":" + std::to_string(micros(R.VmExecuteSeconds));
    O += ",\"total_us\":" + std::to_string(micros(TotalSeconds));
    O += "}}}";
    return O;
  }
  Error =
      "unknown query \"" + W + "\" (expected report, metrics, domains or run)";
  return "";
}

std::string Session::handleClose(const json::Value &Params,
                                 std::string &Error) {
  const json::Value *DocId = Params.find("doc");
  Document *Doc = findDoc(Params, Error);
  if (!Doc)
    return "";
  ++Stats.Closes;
  Docs.erase(DocId->asInt());
  return "{\"closed\":true}";
}

std::string Session::errorLine(const std::string &Msg) {
  return "{\"id\":null,\"ok\":false,\"error\":" + jsonString(Msg) +
         ",\"timings\":{\"total_us\":0}}";
}

std::string Session::transportError(const std::string &Msg) {
  ++Stats.Requests;
  ++Stats.Errors;
  return errorLine(Msg);
}

std::string Session::handleLine(const std::string &Line) {
  Stopwatch Total;
  ++Stats.Requests;

  std::string IdJson = "null";
  StageTimings T;
  auto Respond = [&](bool Ok, const std::string &Body) {
    std::string O = "{\"id\":" + IdJson;
    O += Ok ? ",\"ok\":true,\"result\":" + Body
            : ",\"ok\":false,\"error\":" + jsonString(Body);
    O += ",\"timings\":{";
    if (T.AnalysisRan || T.FrontEnd > 0) {
      O += "\"frontend_us\":" + std::to_string(micros(T.FrontEnd));
      O += ",\"closure_us\":" + std::to_string(micros(T.Closure));
      O += ",\"congen_us\":" + std::to_string(micros(T.ConstraintGen));
      O += ",\"solve_us\":" + std::to_string(micros(T.Solve));
      O += ",\"extract_us\":" + std::to_string(micros(T.Extract));
      O += ",";
    }
    O += "\"total_us\":" + std::to_string(micros(Total.seconds())) + "}}";
    return O;
  };
  auto Fail = [&](const std::string &Msg) {
    ++Stats.Errors;
    return Respond(false, Msg);
  };

  json::Value Req;
  std::string ParseError;
  if (!json::parseJson(Line, Req, ParseError))
    return Fail("parse error: " + ParseError);
  if (!Req.isObject())
    return Fail("request must be a JSON object");
  IdJson = echoId(Req.find("id"));
  const json::Value *Method = Req.find("method");
  if (!Method || !Method->isString())
    return Fail("missing string \"method\"");
  static const json::Value EmptyParams = json::Value::object();
  const json::Value *Params = Req.find("params");
  if (!Params)
    Params = &EmptyParams;
  else if (!Params->isObject())
    return Fail("\"params\" must be an object");

  const std::string &M = Method->asString();
  try {
    std::string Error;
    std::string Result;
    if (M == "open")
      Result = handleOpen(*Params, T, Error);
    else if (M == "edit")
      Result = handleEdit(*Params, T, Error);
    else if (M == "query")
      Result = handleQuery(*Params, Error);
    else if (M == "close")
      Result = handleClose(*Params, Error);
    else if (M == "shutdown") {
      Shutdown = true;
      Result = "{\"stopping\":true}";
    } else
      Error = "unknown method \"" + M + "\"";
    if (!Error.empty())
      return Fail(Error);
    return Respond(true, Result);
  } catch (const std::exception &E) {
    return Fail(std::string("internal error: ") + E.what());
  } catch (...) {
    return Fail("internal error");
  }
}

#include "driver/Session.h"

#include "completion/AflCompletion.h"
#include "completion/Conservative.h"
#include "constraints/ConstraintGen.h"
#include "interp/Interp.h"
#include "support/ArenaPool.h"
#include "support/Metrics.h"

#include <algorithm>
#include <array>
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

/// True iff \p New equals \p Old node for node except for Int/Bool
/// literal payloads: the same kinds and operators, node ids, types,
/// region annotations, effects and binders. Closure analysis, constraint
/// generation, the solver and the completion report never read a literal
/// payload, so such an edit keeps the open document's analysis (the
/// "reuse" tier). The walk also rejects a binder seen twice, a use
/// reached before its binder, and a letregion-bound region outside
/// either program's region-variable table.
bool sameModuloLiterals(const regions::RegionProgram &Old,
                        const regions::RegionProgram &New) {
  using regions::cast;
  using K = regions::RExpr::Kind;
  if (!Old.Root || !New.Root || Old.numNodes() != New.numNodes() ||
      Old.numVars() != New.numVars() || Old.GlobalRegions != New.GlobalRegions)
    return false;
  uint32_t NumRegions =
      std::min(Old.Types.numRegionVars(), New.Types.numRegionVars());
  auto InRange = [&](const std::vector<regions::RegionVarId> &Rs) {
    return std::all_of(Rs.begin(), Rs.end(),
                       [&](regions::RegionVarId R) { return R < NumRegions; });
  };
  std::vector<uint8_t> Bound(Old.numVars(), 0);
  auto Bind = [&](regions::VarId V) {
    if (V >= Bound.size() || Bound[V])
      return false;
    Bound[V] = 1;
    return true;
  };
  auto Use = [&](regions::VarId V) { return V < Bound.size() && Bound[V]; };

  std::vector<std::pair<const regions::RExpr *, const regions::RExpr *>>
      Stack{{Old.Root, New.Root}};
  while (!Stack.empty()) {
    auto [O, N] = Stack.back();
    Stack.pop_back();
    if (O->kind() != N->kind() || O->id() != N->id() ||
        O->type() != N->type() || O->writeRegion() != N->writeRegion() ||
        O->readRegions() != N->readRegions() ||
        O->boundRegions() != N->boundRegions() ||
        O->effect() != N->effect() ||
        O->overallEffect() != N->overallEffect() ||
        !InRange(O->boundRegions()))
      return false;
    switch (O->kind()) {
    case K::UnOp:
      if (cast<regions::RUnOpExpr>(O)->op() !=
          cast<regions::RUnOpExpr>(N)->op())
        return false;
      break;
    case K::BinOp:
      if (cast<regions::RBinOpExpr>(O)->op() !=
          cast<regions::RBinOpExpr>(N)->op())
        return false;
      break;
    case K::Var: {
      regions::VarId V = cast<regions::RVarExpr>(O)->var();
      if (V != cast<regions::RVarExpr>(N)->var() || !Use(V))
        return false;
      break;
    }
    case K::Lambda: {
      const auto *OL = cast<regions::RLambdaExpr>(O);
      const auto *NL = cast<regions::RLambdaExpr>(N);
      if (OL->param() != NL->param() ||
          OL->freeRegions() != NL->freeRegions() || !Bind(OL->param()))
        return false;
      break;
    }
    case K::Let: {
      regions::VarId V = cast<regions::RLetExpr>(O)->var();
      if (V != cast<regions::RLetExpr>(N)->var() || !Bind(V))
        return false;
      break;
    }
    case K::Letrec: {
      const auto *OL = cast<regions::RLetrecExpr>(O);
      const auto *NL = cast<regions::RLetrecExpr>(N);
      if (OL->fn() != NL->fn() || OL->param() != NL->param() ||
          OL->formals() != NL->formals() ||
          OL->freeRegions() != NL->freeRegions() ||
          !InRange(OL->formals()) || !Bind(OL->fn()) || !Bind(OL->param()))
        return false;
      break;
    }
    case K::RegApp: {
      const auto *OR = cast<regions::RRegAppExpr>(O);
      const auto *NR = cast<regions::RRegAppExpr>(N);
      if (OR->fn() != NR->fn() || OR->actuals() != NR->actuals() ||
          !Use(OR->fn()))
        return false;
      break;
    }
    default:
      break;
    }
    std::array<const regions::RExpr *, 3> OC = regions::childrenOf(O);
    std::array<const regions::RExpr *, 3> NC = regions::childrenOf(N);
    for (size_t I = 0; I != OC.size() && OC[I]; ++I)
      Stack.push_back({OC[I], NC[I]});
  }
  return true;
}

} // namespace

Session::AnalysisInfo Session::analyze(Document &Doc, StageTimings &T) {
  AnalysisInfo Info;
  T.AnalysisRan = true;
  ++Stats.FullAnalyses;
  Stopwatch Watch;

  closure::ClosureAnalysis CA(*Doc.Prog);
  bool Converged = CA.run();
  T.Closure = Watch.seconds();
  Info.ProcessedContexts = CA.stats().ProcessedContexts;
  Stats.DirtiedContexts += Info.ProcessedContexts;
  Doc.Sizes = AnalysisSizes();
  Doc.Sizes.Converged = Converged;
  Doc.Sizes.Contexts = CA.numContexts();
  Doc.Sizes.Closures = CA.numClosures();

  uint64_t Hits0 = Doc.Cache.Hits;
  uint64_t Misses0 = Doc.Cache.Misses;
  if (!Converged) {
    // Mirror aflCompletion: unconverged tables are unsound, fall back to
    // the conservative completion (should not happen in practice).
    Doc.Sol = solver::SolveResult();
    Doc.AflC = completion::conservativeCompletion(*Doc.Prog);
  } else {
    Watch.reset();
    constraints::GenResult Gen =
        constraints::generateConstraints(*Doc.Prog, CA);
    T.ConstraintGen = Watch.seconds();
    Doc.Sizes.StateVars = Gen.Sys.numStateVars();
    Doc.Sizes.BoolVars = Gen.Sys.numBoolVars();
    Doc.Sizes.Constraints = Gen.Sys.numConstraints();
    Doc.Sizes.Shards = Gen.Sys.numShards();
    Doc.Sol = solver::solveCached(Gen.Sys, solver::SolveOptions(), Doc.Cache);
    T.Solve = Doc.Sol.Seconds;
    Watch.reset();
    Doc.AflC = Doc.Sol.Sat ? completion::extractCompletion(Gen, Doc.Sol)
                           : completion::conservativeCompletion(*Doc.Prog);
    T.Extract = Watch.seconds();
  }
  Doc.Report = completion::reportCompletion(*Doc.Prog, Doc.AflC);

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
  AnalysisInfo Info = analyze(Doc, T);

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
  const AnalysisSizes &Z = Doc.Sizes;
  std::string O = "{";
  O += "\"converged\":" + std::string(Z.Converged ? "true" : "false");
  O += ",\"sat\":" + std::string(Doc.Sol.Sat ? "true" : "false");
  O += ",\"contexts\":" + std::to_string(Z.Contexts);
  O += ",\"closures\":" + std::to_string(Z.Closures);
  O += ",\"state_vars\":" + std::to_string(Z.StateVars);
  O += ",\"bool_vars\":" + std::to_string(Z.BoolVars);
  O += ",\"constraints\":" + std::to_string(Z.Constraints);
  O += ",\"shards\":" + std::to_string(Z.Shards);
  O += ",\"processed_contexts\":" + std::to_string(Info.ProcessedContexts);
  O += ",\"dirtied_contexts\":" + std::to_string(Info.ProcessedContexts);
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
  uint64_t Size = Doc->Text.size();
  if (S < 0 || L < 0 || static_cast<uint64_t>(S) > Size ||
      static_cast<uint64_t>(L) > Size - static_cast<uint64_t>(S)) {
    Error = "edit span of length " + std::to_string(L) + " at " +
            std::to_string(S) + " out of range for document of " +
            std::to_string(Size) + " bytes";
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

  bool Reuse = sameModuloLiterals(*Doc->Prog, *F.Prog);
  Doc->Text = std::move(NewText);
  Doc->Ctx = std::move(F.Ctx);
  Doc->Ast = F.Ast;
  Doc->Prog = std::move(F.Prog);
  AnalysisInfo Info;
  if (Reuse) {
    // Node ids, types and regions are unchanged, so the completion, its
    // report and the solver domains still describe the new program.
    Info.Tier = "reuse";
    Info.ShardsReused = Doc->Sizes.Shards;
    ++Stats.ReusedAnalyses;
    Stats.ShardsReused += Info.ShardsReused;
  } else {
    Info = analyze(*Doc, T);
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
    O += "\"checkouts\":" + std::to_string(Pool.Checkouts);
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

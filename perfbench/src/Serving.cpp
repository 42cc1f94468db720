#include "Serving.h"

#include "Trace.h"

#include "support/Json.h"
#include "support/Metrics.h"

using namespace afl;
using namespace perfbench;

LoopbackServer::~LoopbackServer() {
  if (Acceptor.joinable()) {
    Server.requestStop();
    Acceptor.join();
  }
}

bool LoopbackServer::start(std::string &Error) {
  driver::ServeOptions Opts;
  Opts.Port = 0;
  Opts.MaxConnections = 4;
  Opts.IdleTimeoutMs = 0;
  Opts.InstallSignalHandlers = false;
  if (!Server.listen(Opts, Error))
    return false;
  Acceptor = std::thread([this] { Server.serve(); });
  return true;
}

bool Client::connect(uint16_t Port, std::string &Error) {
  Sock = support::Socket::connectTo(Port, Error);
  return Sock.valid();
}

namespace {

uint64_t field(const json::Value *Obj, std::string_view Key) {
  const json::Value *V = Obj ? Obj->find(Key) : nullptr;
  return V && V->asInt() > 0 ? static_cast<uint64_t>(V->asInt()) : 0;
}

bool parseResponse(const std::string &Line, Response &Out) {
  json::Value V;
  std::string Error;
  if (!json::parseJson(Line, V, Error) || !V.isObject())
    return false;
  const json::Value *Ok = V.find("ok");
  Out.Ok = Ok && Ok->asBool();
  if (const json::Value *E = V.find("error"))
    Out.Error = E->asString();
  const json::Value *T = V.find("timings");
  Out.TotalUs = field(T, "total_us");
  Out.FrontEndUs = field(T, "frontend_us");
  Out.AnalysisUs = field(T, "closure_us") + field(T, "congen_us") +
                   field(T, "solve_us") + field(T, "extract_us");
  const json::Value *R = V.find("result");
  if (!R)
    return true;
  if (const json::Value *D = R->find("doc"))
    Out.Doc = D->asInt(-1);
  if (const json::Value *Tier = R->find("tier")) {
    const std::string &Name = Tier->asString();
    Out.TierTaken = Name == "reuse"         ? Response::Reuse
                    : Name == "incremental" ? Response::Incremental
                                            : Response::Full;
  }
  const json::Value *A = R->find("analysis");
  Out.ShardsSolved = field(A, "shards_solved");
  Out.ShardsReused = field(A, "shards_reused");
  Out.DirtiedContexts = field(A, "dirtied_contexts");
  if (const json::Value *Rep = R->find("report"))
    if (const json::Value *Text = Rep->find("text"))
      Out.ReportText = Text->asString();
  return true;
}

} // namespace

std::string perfbench::jsonQuote(std::string_view S) {
  std::string Out = "\"";
  Out += MetricsRegistry::escapeJson(S);
  return Out + "\"";
}

bool Client::call(const std::string &Request, Response &Out,
                  uint64_t &LatencyNs) {
  uint64_t Start = nowNs();
  if (!Sock.sendAll(Request + "\n"))
    return false;
  size_t Nl;
  char Buf[65536];
  while ((Nl = Buffer.find('\n')) == std::string::npos) {
    long N = Sock.recvSome(Buf, sizeof(Buf));
    if (N <= 0)
      return false;
    Buffer.append(Buf, static_cast<size_t>(N));
  }
  LatencyNs = nowNs() - Start;
  std::string Line = Buffer.substr(0, Nl);
  Buffer.erase(0, Nl + 1);
  Out = Response();
  return parseResponse(Line, Out);
}

std::string perfbench::openRequest(const std::string &Source) {
  return "{\"method\":\"open\",\"params\":{\"source\":" + jsonQuote(Source) +
         "}}";
}

std::string perfbench::editRequest(int64_t Doc, const Edit &E) {
  return "{\"method\":\"edit\",\"params\":{\"doc\":" + std::to_string(Doc) +
         ",\"start\":" + std::to_string(E.Start) +
         ",\"length\":" + std::to_string(E.Length) +
         ",\"text\":" + jsonQuote(E.Text) + "}}";
}

std::string perfbench::reportRequest(int64_t Doc) {
  return "{\"method\":\"query\",\"params\":{\"doc\":" + std::to_string(Doc) +
         ",\"what\":\"report\"}}";
}

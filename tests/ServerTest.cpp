//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the incremental analysis server (docs/SERVER.md): protocol
/// round-trips, malformed-request robustness, and the differential
/// harness — random edit scripts over the corpus asserting that every
/// incremental tier produces byte-identical completion reports and
/// solver domains to a from-scratch analysis of the same text.
///
//===----------------------------------------------------------------------===//

#include "closure/ClosureAnalysis.h"
#include "completion/AflCompletion.h"
#include "completion/Conservative.h"
#include "completion/Report.h"
#include "constraints/ConstraintGen.h"
#include "driver/Pipeline.h"
#include "driver/Server.h"
#include "driver/Session.h"
#include "programs/Corpus.h"
#include "solver/Solver.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/Socket.h"

#include "gtest/gtest.h"

#include <atomic>
#include <cctype>
#include <chrono>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <vector>

using namespace afl;

namespace {

/// Parses a server response line; fails the test on malformed output (the
/// server must always answer with well-formed JSON).
json::Value call(driver::Session &S, const std::string &Request) {
  std::string Response = S.handleLine(Request);
  json::Value V;
  std::string Error;
  EXPECT_TRUE(json::parseJson(Response, V, Error))
      << Error << " in: " << Response;
  EXPECT_TRUE(V.isObject()) << Response;
  EXPECT_NE(V.find("timings"), nullptr) << Response;
  return V;
}

bool okOf(const json::Value &Resp) {
  const json::Value *Ok = Resp.find("ok");
  return Ok && Ok->isBool() && Ok->asBool();
}

/// result.<Path0>.<Path1>... lookup; nullptr when any hop is missing.
const json::Value *dig(const json::Value &Resp,
                       std::initializer_list<const char *> Path) {
  const json::Value *V = &Resp;
  for (const char *Key : Path) {
    if (!V->isObject())
      return nullptr;
    V = V->find(Key);
    if (!V)
      return nullptr;
  }
  return V;
}

std::string jquote(const std::string &S) {
  std::string O = "\"";
  O += MetricsRegistry::escapeJson(S);
  O += '"';
  return O;
}

json::Value openDoc(driver::Session &S, const std::string &Source,
                    int64_t *DocId) {
  json::Value R = call(
      S, "{\"method\":\"open\",\"params\":{\"source\":" + jquote(Source) +
             "}}");
  *DocId = -1;
  if (okOf(R)) {
    const json::Value *Doc = dig(R, {"result", "doc"});
    EXPECT_NE(Doc, nullptr) << "open response has no doc id";
    if (Doc)
      *DocId = Doc->asInt(-1);
  }
  return R;
}

template <unsigned Bits>
std::string domainString(const support::PackedArray<Bits> &Dom) {
  std::string O;
  O.reserve(Dom.size());
  for (size_t I = 0; I != Dom.size(); ++I)
    O.push_back(static_cast<char>('0' + (Dom.get(I) & 7)));
  return O;
}

/// The from-scratch oracle: front end + closure + constraints + plain
/// (uncached) solve + extraction, mirroring completion::aflCompletion's
/// fallbacks exactly as the server does.
struct Oracle {
  bool FrontOk = false;
  std::string Report;
  bool Sat = false;
  std::string States;
  std::string Bools;
};

Oracle oracleFor(const std::string &Source) {
  Oracle O;
  DiagnosticEngine Diags;
  driver::FrontEnd F = driver::runFrontEnd(Source, Diags);
  if (!F.ok())
    return O;
  O.FrontOk = true;

  closure::ClosureAnalysis CA(*F.Prog);
  regions::Completion AflC;
  solver::SolveResult Sol;
  if (CA.run()) {
    constraints::GenResult Gen = constraints::generateConstraints(*F.Prog, CA);
    Sol = solver::solve(Gen.Sys);
    AflC = Sol.Sat ? completion::extractCompletion(Gen, Sol)
                   : completion::conservativeCompletion(*F.Prog);
  } else {
    AflC = completion::conservativeCompletion(*F.Prog);
  }
  O.Report = completion::reportCompletion(*F.Prog, AflC).str();
  O.Sat = Sol.Sat;
  O.States = domainString(Sol.StateDom);
  O.Bools = domainString(Sol.BoolDom);
  return O;
}

/// Compares the server's view of \p DocId against the oracle for \p Text.
void expectMatchesOracle(driver::Session &S, int64_t DocId,
                         const std::string &Text, const std::string &Where) {
  Oracle O = oracleFor(Text);
  ASSERT_TRUE(O.FrontOk) << Where << ": oracle front end failed";

  json::Value Rep = call(S, "{\"method\":\"query\",\"params\":{\"doc\":" +
                                std::to_string(DocId) +
                                ",\"what\":\"report\"}}");
  ASSERT_TRUE(okOf(Rep)) << Where;
  const json::Value *Txt = dig(Rep, {"result", "report", "text"});
  ASSERT_NE(Txt, nullptr) << Where;
  EXPECT_EQ(Txt->asString(), O.Report) << Where;

  json::Value Dom = call(S, "{\"method\":\"query\",\"params\":{\"doc\":" +
                                std::to_string(DocId) +
                                ",\"what\":\"domains\"}}");
  ASSERT_TRUE(okOf(Dom)) << Where;
  const json::Value *Sat = dig(Dom, {"result", "domains", "sat"});
  const json::Value *St = dig(Dom, {"result", "domains", "states"});
  const json::Value *Bo = dig(Dom, {"result", "domains", "bools"});
  ASSERT_TRUE(Sat && St && Bo) << Where;
  EXPECT_EQ(Sat->asBool(), O.Sat) << Where;
  EXPECT_EQ(St->asString(), O.States) << Where;
  EXPECT_EQ(Bo->asString(), O.Bools) << Where;
}

//===----------------------------------------------------------------------===//
// Protocol round-trips
//===----------------------------------------------------------------------===//

TEST(ServerProtocol, OpenQueryCloseShutdown) {
  driver::Session S;
  int64_t Doc = -1;
  json::Value R = openDoc(S, "let x = 1 in x + 2 end", &Doc);
  ASSERT_TRUE(okOf(R));
  ASSERT_GE(Doc, 1);
  EXPECT_EQ(dig(R, {"result", "tier"})->asString(), "full");
  EXPECT_TRUE(dig(R, {"result", "analysis", "converged"})->asBool());
  EXPECT_TRUE(dig(R, {"result", "analysis", "sat"})->asBool());
  EXPECT_NE(dig(R, {"result", "report", "text"}), nullptr);

  json::Value Q = call(S, "{\"id\":7,\"method\":\"query\",\"params\":{\"doc\":" +
                              std::to_string(Doc) +
                              ",\"what\":\"report\"}}");
  EXPECT_TRUE(okOf(Q));
  EXPECT_EQ(Q.find("id")->asInt(), 7);

  json::Value M =
      call(S, "{\"method\":\"query\",\"params\":{\"what\":\"metrics\"}}");
  ASSERT_TRUE(okOf(M));
  EXPECT_EQ(dig(M, {"result", "metrics", "opens"})->asInt(), 1);
  EXPECT_EQ(dig(M, {"result", "metrics", "open_docs"})->asInt(), 1);

  json::Value C = call(S, "{\"method\":\"close\",\"params\":{\"doc\":" +
                              std::to_string(Doc) + "}}");
  EXPECT_TRUE(okOf(C));
  EXPECT_FALSE(S.shutdownRequested());
  json::Value Down = call(S, "{\"method\":\"shutdown\"}");
  EXPECT_TRUE(okOf(Down));
  EXPECT_TRUE(S.shutdownRequested());
}

TEST(ServerProtocol, RunQueryExecutesDocument) {
  driver::Session S;
  int64_t Doc = -1;
  json::Value R = openDoc(S, "let x = (1, 2) in fst x + snd x end", &Doc);
  ASSERT_TRUE(okOf(R));

  json::Value Q = call(S, "{\"method\":\"query\",\"params\":{\"doc\":" +
                              std::to_string(Doc) + ",\"what\":\"run\"}}");
  ASSERT_TRUE(okOf(Q));
  EXPECT_TRUE(dig(Q, {"result", "run", "ok"})->asBool());
  EXPECT_EQ(dig(Q, {"result", "run", "result"})->asString(), "3");
  // Served runs use the bytecode VM.
  EXPECT_EQ(dig(Q, {"result", "run", "backend"})->asString(), "vm");
  EXPECT_GT(dig(Q, {"result", "run", "stats", "value_allocs"})->asInt(), 0);
  EXPECT_GT(dig(Q, {"result", "run", "stats", "memory_ops"})->asInt(), 0);
  ASSERT_NE(dig(Q, {"result", "run", "micros", "total_us"}), nullptr);
  ASSERT_NE(dig(Q, {"result", "run", "micros", "compile_us"}), nullptr);

  // A run on an unknown document is an error, and the unknown-query
  // message advertises the new verb.
  json::Value Bad = call(
      S, "{\"method\":\"query\",\"params\":{\"doc\":999,\"what\":\"run\"}}");
  EXPECT_FALSE(okOf(Bad));
  json::Value Unknown =
      call(S, "{\"method\":\"query\",\"params\":{\"doc\":" +
                  std::to_string(Doc) + ",\"what\":\"bogus\"}}");
  EXPECT_FALSE(okOf(Unknown));
  EXPECT_NE(Unknown.find("error")->asString().find("run"), std::string::npos);
}

TEST(ServerProtocol, TimingsPresentOnEveryResponse) {
  driver::Session S;
  for (const char *Req :
       {"{\"method\":\"query\",\"params\":{\"what\":\"metrics\"}}",
        "garbage", "{\"method\":\"nope\"}"}) {
    json::Value R = call(S, Req);
    const json::Value *Total = dig(R, {"timings", "total_us"});
    ASSERT_NE(Total, nullptr) << Req;
    EXPECT_TRUE(Total->isInt()) << Req;
  }
}

//===----------------------------------------------------------------------===//
// Robustness: malformed requests must produce errors, never crashes.
//===----------------------------------------------------------------------===//

TEST(ServerRobustness, MalformedRequests) {
  driver::Session S;
  const char *Bad[] = {
      "",                                       // empty (not even JSON)
      "{",                                      // truncated object
      "{\"method\":\"open\"",                   // truncated mid-object
      "[1,2,3]",                                // not an object
      "42",                                     // not an object
      "{\"params\":{}}",                        // missing method
      "{\"method\":42}",                        // non-string method
      "{\"method\":\"frobnicate\"}",            // unknown method
      "{\"method\":\"open\"}",                  // open without params
      "{\"method\":\"open\",\"params\":{}}",    // open without source
      "{\"method\":\"open\",\"params\":{\"source\":7}}", // non-string source
      "{\"method\":\"open\",\"params\":\"x\"}", // params not an object
      "{\"method\":\"edit\",\"params\":{\"doc\":99}}",   // unknown doc
      "{\"method\":\"query\",\"params\":{\"doc\":1,\"what\":\"report\"}}",
      "{\"method\":\"close\",\"params\":{\"doc\":1}}",
      "{\"method\":\"query\",\"params\":{\"doc\":true,\"what\":\"report\"}}",
  };
  for (const char *Req : Bad) {
    json::Value R = call(S, Req);
    EXPECT_FALSE(okOf(R)) << Req;
    const json::Value *E = R.find("error");
    ASSERT_NE(E, nullptr) << Req;
    EXPECT_TRUE(E->isString()) << Req;
    EXPECT_FALSE(E->asString().empty()) << Req;
  }
  EXPECT_FALSE(S.shutdownRequested());
}

TEST(ServerRobustness, OpenRejectsBrokenSource) {
  driver::Session S;
  int64_t Doc = -1;
  // Parse error, then a type error: both fail without opening a document.
  json::Value R1 = openDoc(S, "let x = in", &Doc);
  EXPECT_FALSE(okOf(R1));
  json::Value R2 = openDoc(S, "1 + true", &Doc);
  EXPECT_FALSE(okOf(R2));
  json::Value M =
      call(S, "{\"method\":\"query\",\"params\":{\"what\":\"metrics\"}}");
  EXPECT_EQ(dig(M, {"result", "metrics", "open_docs"})->asInt(), 0);
}

TEST(ServerRobustness, EditValidationAndRevert) {
  driver::Session S;
  const std::string Text = "let x = 1 in x + 2 end";
  int64_t Doc = -1;
  ASSERT_TRUE(okOf(openDoc(S, Text, &Doc)));
  const std::string DocStr = std::to_string(Doc);

  // Span outside the document.
  json::Value R1 =
      call(S, "{\"method\":\"edit\",\"params\":{\"doc\":" + DocStr +
                  ",\"start\":9999,\"length\":1,\"text\":\"2\"}}");
  EXPECT_FALSE(okOf(R1));
  // Negative length.
  json::Value R2 =
      call(S, "{\"method\":\"edit\",\"params\":{\"doc\":" + DocStr +
                  ",\"start\":0,\"length\":-4,\"text\":\"2\"}}");
  EXPECT_FALSE(okOf(R2));
  // Missing text.
  json::Value R3 =
      call(S, "{\"method\":\"edit\",\"params\":{\"doc\":" + DocStr +
                  ",\"start\":0,\"length\":0}}");
  EXPECT_FALSE(okOf(R3));
  // An edit that breaks the program: rejected, document unchanged.
  json::Value R4 =
      call(S, "{\"method\":\"edit\",\"params\":{\"doc\":" + DocStr +
                  ",\"start\":8,\"length\":1,\"text\":\"(((\"}}");
  EXPECT_FALSE(okOf(R4));
  expectMatchesOracle(S, Doc, Text, "after rejected edits");

  // Edits to a closed document fail.
  call(S, "{\"method\":\"close\",\"params\":{\"doc\":" + DocStr + "}}");
  json::Value R5 =
      call(S, "{\"method\":\"edit\",\"params\":{\"doc\":" + DocStr +
                  ",\"start\":0,\"length\":0,\"text\":\"\"}}");
  EXPECT_FALSE(okOf(R5));
}

//===----------------------------------------------------------------------===//
// Differential harness: random edit scripts vs. the from-scratch oracle.
//===----------------------------------------------------------------------===//

/// Maximal digit runs that form standalone integer literals (not adjacent
/// to identifier characters), the edit targets of the random scripts.
std::vector<std::pair<size_t, size_t>> literalTokens(const std::string &S) {
  std::vector<std::pair<size_t, size_t>> Out;
  auto IsWord = [](char C) {
    return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
  };
  size_t I = 0;
  while (I < S.size()) {
    if (!std::isdigit(static_cast<unsigned char>(S[I]))) {
      ++I;
      continue;
    }
    size_t Begin = I;
    while (I < S.size() && std::isdigit(static_cast<unsigned char>(S[I])))
      ++I;
    bool LeftOk = Begin == 0 || !IsWord(S[Begin - 1]);
    bool RightOk = I == S.size() || !IsWord(S[I]);
    if (LeftOk && RightOk)
      Out.push_back({Begin, I - Begin});
  }
  return Out;
}

/// Deterministic 64-bit LCG (results must not depend on libc rand).
struct Lcg {
  uint64_t State;
  explicit Lcg(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return State >> 33;
  }
};

struct TierCounts {
  int Reuse = 0;
  int Incremental = 0;
  int Full = 0;
};

/// Opens \p Source and applies \p NumEdits random literal edits, checking
/// the server against the oracle after each one. Accumulates the tiers
/// taken into \p Tiers.
void runEditScript(const std::string &Name, const std::string &Source,
                   int NumEdits, uint64_t Seed, TierCounts &Tiers) {
  driver::Session S;
  int64_t Doc = -1;
  json::Value R = openDoc(S, Source, &Doc);
  ASSERT_TRUE(okOf(R)) << Name;
  std::string Text = Source;
  expectMatchesOracle(S, Doc, Text, Name + " after open");

  Lcg Rng(Seed);
  for (int E = 0; E != NumEdits; ++E) {
    std::vector<std::pair<size_t, size_t>> Tokens = literalTokens(Text);
    ASSERT_FALSE(Tokens.empty()) << Name << ": no literals left to edit";
    auto [Pos, Len] = Tokens[Rng.next() % Tokens.size()];
    std::string Old = Text.substr(Pos, Len);
    std::string Replacement;
    switch (Rng.next() % 5) {
    case 0: // literal-only: another number
      Replacement = std::to_string(Rng.next() % 95 + 1);
      break;
    case 1: // arrow-free subtree growth around the literal
      Replacement = "(" + Old + " + " + std::to_string(Rng.next() % 9 + 1) +
                    ")";
      break;
    case 2: // arrow-free subtree with a conditional
      Replacement = "(if true then " + Old + " else " +
                    std::to_string(Rng.next() % 9 + 1) + ")";
      break;
    case 3: // lambda in the replaced subtree: forces the full tier
      Replacement = "((fn q => q + " + std::to_string(Rng.next() % 9 + 1) +
                    ") " + Old + ")";
      break;
    default: // shrink back to a bare literal (often a multi-node break)
      Replacement = std::to_string(Rng.next() % 9 + 1);
      break;
    }
    std::string Where = Name + " edit " + std::to_string(E) + " @" +
                        std::to_string(Pos) + " '" + Old + "' -> '" +
                        Replacement + "'";
    json::Value ER =
        call(S, "{\"method\":\"edit\",\"params\":{\"doc\":" +
                    std::to_string(Doc) + ",\"start\":" + std::to_string(Pos) +
                    ",\"length\":" + std::to_string(Len) +
                    ",\"text\":" + jquote(Replacement) + "}}");
    ASSERT_TRUE(okOf(ER)) << Where;
    Text.replace(Pos, Len, Replacement);

    const json::Value *Tier = dig(ER, {"result", "tier"});
    ASSERT_NE(Tier, nullptr) << Where;
    if (Tier->asString() == "reuse")
      ++Tiers.Reuse;
    else if (Tier->asString() == "incremental")
      ++Tiers.Incremental;
    else
      ++Tiers.Full;
    // A reuse-tier edit must dirty nothing.
    if (Tier->asString() == "reuse") {
      EXPECT_EQ(dig(ER, {"result", "analysis", "dirtied_contexts"})->asInt(),
                0)
          << Where;
    }

    expectMatchesOracle(S, Doc, Text, Where);
  }
}

TEST(ServerDifferential, CorpusEditScripts) {
  struct Program {
    const char *Name;
    std::string Source;
    int Edits;
  };
  const Program Corpus[] = {
      {"appel", programs::appelSource(6), 40},
      {"quicksort", programs::quicksortSource(8), 40},
      {"fib", programs::fibSource(7), 30},
      {"randlist", programs::randlistSource(6), 30},
      {"fac", programs::facSource(5), 30},
      {"example21", programs::example21Source(), 20},
      {"escape",
       "let mk = fn a => fn x => x + a in let f = (mk 3, mk 4) in "
       "(fst f) 10 + (snd f) 20 end end",
       20},
  };
  TierCounts Total;
  uint64_t Seed = 0x5eed;
  int TotalEdits = 0;
  for (const Program &P : Corpus) {
    runEditScript(P.Name, P.Source, P.Edits, Seed++, Total);
    TotalEdits += P.Edits;
    if (::testing::Test::HasFatalFailure())
      return;
  }
  // The scripts must actually exercise every tier, and meet the
  // acceptance floor of 200+ verified random edits.
  EXPECT_GE(TotalEdits, 200);
  EXPECT_GT(Total.Reuse, 0);
  EXPECT_GT(Total.Incremental, 0);
  EXPECT_GT(Total.Full, 0);
}

//===----------------------------------------------------------------------===//
// Incrementality: a small edit on a warm document re-processes fewer
// contexts than the full analysis did.
//===----------------------------------------------------------------------===//

TEST(ServerIncrementality, WarmEditDirtiesFewerContexts) {
  driver::Session S;
  std::string Text = programs::appelSource(16);
  int64_t Doc = -1;
  json::Value R = openDoc(S, Text, &Doc);
  ASSERT_TRUE(okOf(R));
  int64_t FullProcessed =
      dig(R, {"result", "analysis", "processed_contexts"})->asInt();
  ASSERT_GT(FullProcessed, 0);

  // A literal-only edit reuses the whole analysis: zero contexts dirtied.
  std::vector<std::pair<size_t, size_t>> Tokens = literalTokens(Text);
  ASSERT_FALSE(Tokens.empty());
  auto [Pos, Len] = Tokens.back();
  json::Value E1 =
      call(S, "{\"method\":\"edit\",\"params\":{\"doc\":" +
                  std::to_string(Doc) + ",\"start\":" + std::to_string(Pos) +
                  ",\"length\":" + std::to_string(Len) +
                  ",\"text\":\"77\"}}");
  ASSERT_TRUE(okOf(E1));
  EXPECT_EQ(dig(E1, {"result", "tier"})->asString(), "reuse");
  EXPECT_EQ(dig(E1, {"result", "analysis", "dirtied_contexts"})->asInt(), 0);
  Text.replace(Pos, Len, "77");

  // A structural (arrow-free subtree) edit restarts the worklist from the
  // edit's frontier only.
  Tokens = literalTokens(Text);
  ASSERT_FALSE(Tokens.empty());
  auto [Pos2, Len2] = Tokens.back();
  std::string Sub = "(" + Text.substr(Pos2, Len2) + " + 1)";
  json::Value E2 =
      call(S, "{\"method\":\"edit\",\"params\":{\"doc\":" +
                  std::to_string(Doc) + ",\"start\":" + std::to_string(Pos2) +
                  ",\"length\":" + std::to_string(Len2) +
                  ",\"text\":" + jquote(Sub) + "}}");
  ASSERT_TRUE(okOf(E2));
  EXPECT_EQ(dig(E2, {"result", "tier"})->asString(), "incremental");
  int64_t Dirtied =
      dig(E2, {"result", "analysis", "dirtied_contexts"})->asInt();
  EXPECT_GT(Dirtied, 0);
  EXPECT_LT(Dirtied, FullProcessed);
  Text.replace(Pos2, Len2, Sub);
  expectMatchesOracle(S, Doc, Text, "warm structural edit");

  // The structural edit re-solved only the shards its constraints
  // changed; the rest replayed from the per-document cache.
  int64_t Reused =
      dig(E2, {"result", "analysis", "shards_reused"})->asInt();
  EXPECT_GT(Reused, 0);
}

//===----------------------------------------------------------------------===//
// The JSON reader itself.
//===----------------------------------------------------------------------===//

TEST(JsonReader, ParsesScalarsAndNesting) {
  json::Value V;
  std::string E;
  ASSERT_TRUE(json::parseJson(
      " {\"a\": [1, -2.5, true, null, \"x\\n\\u0041\"], \"b\": {}} ", V, E))
      << E;
  ASSERT_TRUE(V.isObject());
  const json::Value *A = V.find("a");
  ASSERT_NE(A, nullptr);
  ASSERT_TRUE(A->isArray());
  ASSERT_EQ(A->items().size(), 5u);
  EXPECT_EQ(A->items()[0].asInt(), 1);
  EXPECT_FALSE(A->items()[1].isInt());
  EXPECT_DOUBLE_EQ(A->items()[1].asDouble(), -2.5);
  EXPECT_TRUE(A->items()[2].asBool());
  EXPECT_TRUE(A->items()[3].isNull());
  EXPECT_EQ(A->items()[4].asString(), "x\nA");
  EXPECT_NE(V.find("b"), nullptr);
}

TEST(JsonReader, RejectsMalformedInput) {
  const char *Bad[] = {
      "",       "{",        "}",           "[1,]",        "{\"a\":}",
      "01",     "1.",       "+1",          "tru",         "\"unterminated",
      "[1] []", "nullx",    "{\"a\" 1}",   "{1: 2}",      "\"\\q\"",
      "--1",    "[1,2,,3]", "{\"a\":1,}",  "\x01",        "[\"\\u12\"]",
  };
  for (const char *Text : Bad) {
    json::Value V;
    std::string E;
    EXPECT_FALSE(json::parseJson(Text, V, E)) << Text;
    EXPECT_FALSE(E.empty()) << Text;
  }
}

TEST(JsonReader, DepthCapStopsAdversarialNesting) {
  std::string Deep(100000, '[');
  json::Value V;
  std::string E;
  EXPECT_FALSE(json::parseJson(Deep, V, E));
}

//===----------------------------------------------------------------------===//
// Framing: the LineSplitter shared by the stdio and socket transports.
//===----------------------------------------------------------------------===//

TEST(LineSplitter, SplitsAcrossChunksAndStripsCr) {
  driver::LineSplitter Split(64);
  std::string L;
  EXPECT_EQ(Split.next(L), driver::LineSplitter::Item::None);
  Split.feed("ab", 2);
  EXPECT_EQ(Split.next(L), driver::LineSplitter::Item::None);
  Split.feed("c\r\nsecond\nthi", 13);
  ASSERT_EQ(Split.next(L), driver::LineSplitter::Item::Line);
  EXPECT_EQ(L, "abc"); // CR stripped
  ASSERT_EQ(Split.next(L), driver::LineSplitter::Item::Line);
  EXPECT_EQ(L, "second");
  EXPECT_EQ(Split.next(L), driver::LineSplitter::Item::None);
  Split.feed("rd\n\r\n", 5);
  ASSERT_EQ(Split.next(L), driver::LineSplitter::Item::Line);
  EXPECT_EQ(L, "third");
  // A bare CRLF is an empty line after stripping, not a CR line.
  ASSERT_EQ(Split.next(L), driver::LineSplitter::Item::Line);
  EXPECT_EQ(L, "");
  EXPECT_EQ(Split.next(L), driver::LineSplitter::Item::None);
}

TEST(LineSplitter, FinalUnterminatedLineAtEof) {
  driver::LineSplitter Split(64);
  std::string L;
  Split.feed("one\ntail", 8);
  ASSERT_EQ(Split.next(L), driver::LineSplitter::Item::Line);
  EXPECT_EQ(L, "one");
  EXPECT_EQ(Split.next(L), driver::LineSplitter::Item::None);
  Split.finish();
  ASSERT_EQ(Split.next(L), driver::LineSplitter::Item::Line);
  EXPECT_EQ(L, "tail");
  EXPECT_EQ(Split.next(L), driver::LineSplitter::Item::None);
}

TEST(LineSplitter, OversizeReportedOnceAndDiscarded) {
  driver::LineSplitter Split(8);
  std::string L;
  // The cap fires mid-line, before the newline even arrives...
  Split.feed("0123456789", 10);
  EXPECT_EQ(Split.next(L), driver::LineSplitter::Item::Oversize);
  // ...and the rest of the long line is discarded without a second report.
  Split.feed("morelongbytes", 13);
  EXPECT_EQ(Split.next(L), driver::LineSplitter::Item::None);
  Split.feed("stilllong\nok\n", 13);
  ASSERT_EQ(Split.next(L), driver::LineSplitter::Item::Line);
  EXPECT_EQ(L, "ok");
  // A complete-but-too-long line arriving in one chunk reports once too.
  Split.feed("0123456789\nfine\n", 16);
  EXPECT_EQ(Split.next(L), driver::LineSplitter::Item::Oversize);
  ASSERT_EQ(Split.next(L), driver::LineSplitter::Item::Line);
  EXPECT_EQ(L, "fine");
  // Exactly at the cap is not oversize.
  Split.feed("01234567\n", 9);
  ASSERT_EQ(Split.next(L), driver::LineSplitter::Item::Line);
  EXPECT_EQ(L, "01234567");
  // An unterminated oversize line at EOF stays discarded.
  Split.feed("waytoolongtail", 14);
  EXPECT_EQ(Split.next(L), driver::LineSplitter::Item::Oversize);
  Split.finish();
  EXPECT_EQ(Split.next(L), driver::LineSplitter::Item::None);
}

//===----------------------------------------------------------------------===//
// The stdio transport: CRLF, request caps, and EOF handling (the PR-9
// protocol bugfixes).
//===----------------------------------------------------------------------===//

/// Runs the stdio server over \p Input and returns the parsed response
/// lines.
std::vector<json::Value> runStdio(const std::string &Input,
                                  size_t MaxRequestBytes = 1u << 20) {
  driver::Server S;
  std::istringstream In(Input);
  std::ostringstream Out;
  EXPECT_EQ(S.run(In, Out, MaxRequestBytes), 0);
  std::vector<json::Value> Responses;
  std::istringstream Lines(Out.str());
  std::string Line;
  while (std::getline(Lines, Line)) {
    json::Value V;
    std::string Error;
    EXPECT_TRUE(json::parseJson(Line, V, Error)) << Error << " in: " << Line;
    Responses.push_back(std::move(V));
  }
  return Responses;
}

TEST(ServerStdio, CrlfRequestsAreServed) {
  // CRLF line endings must not leak the '\r' into the JSON reader, and a
  // bare CRLF is a blank line to skip, not a parse error.
  std::vector<json::Value> R =
      runStdio("{\"id\":1,\"method\":\"query\",\"params\":{\"what\":"
               "\"metrics\"}}\r\n"
               "\r\n"
               "{\"id\":2,\"method\":\"shutdown\"}\r\n");
  ASSERT_EQ(R.size(), 2u);
  EXPECT_TRUE(okOf(R[0]));
  EXPECT_EQ(R[0].find("id")->asInt(), 1);
  EXPECT_TRUE(okOf(R[1]));
  EXPECT_EQ(R[1].find("id")->asInt(), 2);
}

TEST(ServerStdio, FinalUnterminatedLineIsAnswered) {
  std::vector<json::Value> R = runStdio(
      "{\"id\":1,\"method\":\"query\",\"params\":{\"what\":\"metrics\"}}");
  ASSERT_EQ(R.size(), 1u);
  EXPECT_TRUE(okOf(R[0]));
  EXPECT_EQ(R[0].find("id")->asInt(), 1);
}

TEST(ServerStdio, OversizedRequestGetsProtocolError) {
  std::string Long = "{\"method\":\"open\",\"params\":{\"source\":\"" +
                     std::string(300, 'x') + "\"}}";
  std::vector<json::Value> R = runStdio(
      Long + "\n{\"id\":2,\"method\":\"query\",\"params\":{\"what\":"
             "\"metrics\"}}\n",
      128);
  ASSERT_EQ(R.size(), 2u);
  EXPECT_FALSE(okOf(R[0]));
  EXPECT_NE(R[0].find("error")->asString().find("limit"), std::string::npos);
  // The session survives: the next request is served normally, and the
  // failed request is visible in its error counters.
  EXPECT_TRUE(okOf(R[1]));
  EXPECT_EQ(dig(R[1], {"result", "metrics", "errors"})->asInt(), 1);
  EXPECT_EQ(dig(R[1], {"result", "metrics", "requests"})->asInt(), 2);
}

TEST(ServerStdio, MetricsHaveNoConnectionsObject) {
  // The "connections" scope belongs to the socket transport only.
  std::vector<json::Value> R = runStdio(
      "{\"method\":\"query\",\"params\":{\"what\":\"metrics\"}}\n");
  ASSERT_EQ(R.size(), 1u);
  ASSERT_TRUE(okOf(R[0]));
  EXPECT_EQ(dig(R[0], {"result", "metrics", "connections"}), nullptr);
}

//===----------------------------------------------------------------------===//
// The socket transport: concurrency, overload, timeouts, shutdown.
//===----------------------------------------------------------------------===//

/// A listening server on an ephemeral loopback port, with serve() running
/// on its own thread.
struct TestServer {
  driver::Server S;
  std::thread T;
  bool Ok = false;

  explicit TestServer(unsigned MaxConnections = 8, unsigned IdleTimeoutMs = 0,
                      size_t MaxRequestBytes = 1u << 20) {
    driver::ServeOptions O;
    O.Port = 0;
    O.MaxConnections = MaxConnections;
    O.IdleTimeoutMs = IdleTimeoutMs;
    O.MaxRequestBytes = MaxRequestBytes;
    O.InstallSignalHandlers = false; // keep the test harness's handlers
    std::string Error;
    Ok = S.listen(O, Error);
    EXPECT_TRUE(Ok) << Error;
    if (Ok)
      T = std::thread([this] { S.serve(); });
  }

  uint16_t port() const { return S.port(); }

  /// Blocks until serve() returned (after an in-band shutdown request).
  void join() {
    if (T.joinable())
      T.join();
  }

  ~TestServer() {
    S.requestStop();
    join();
  }
};

/// A blocking line-oriented protocol client.
struct TestClient {
  support::Socket Sock;
  std::string Buf;

  bool connect(uint16_t Port) {
    std::string Error;
    Sock = support::Socket::connectTo(Port, Error);
    return Sock.valid();
  }

  bool send(const std::string &Bytes) { return Sock.sendAll(Bytes); }
  bool sendLine(const std::string &L) { return send(L + "\n"); }

  /// Reads one '\n'-terminated response line (terminator stripped).
  bool readLine(std::string &Out, int TimeoutMs = 60000) {
    for (;;) {
      size_t Nl = Buf.find('\n');
      if (Nl != std::string::npos) {
        Out = Buf.substr(0, Nl);
        Buf.erase(0, Nl + 1);
        return true;
      }
      if (Sock.waitReadable(TimeoutMs) != support::Socket::Wait::Ready)
        return false;
      char Tmp[4096];
      long N = Sock.recvSome(Tmp, sizeof(Tmp));
      if (N <= 0)
        return false;
      Buf.append(Tmp, static_cast<size_t>(N));
    }
  }

  /// One request/response round trip; fails the test on transport errors.
  json::Value call(const std::string &Request) {
    EXPECT_TRUE(sendLine(Request));
    std::string Line;
    EXPECT_TRUE(readLine(Line)) << "no response to: " << Request;
    json::Value V;
    std::string Error;
    EXPECT_TRUE(json::parseJson(Line, V, Error)) << Error << " in: " << Line;
    return V;
  }
};

/// Strips the non-reproducible wall-clock objects (the trailing request
/// "timings" and any embedded run "micros") so two responses to the same
/// request can be compared byte-for-byte.
std::string stripTimings(const std::string &Resp) {
  std::string Out = Resp;
  size_t P = Out.rfind(",\"timings\":{");
  if (P != std::string::npos)
    Out = Out.substr(0, P) + "}";
  for (size_t M = Out.find("\"micros\":{"); M != std::string::npos;
       M = Out.find("\"micros\":{", M + 1)) {
    size_t Open = M + 9; // at '{'; micros objects are flat
    size_t Close = Out.find('}', Open);
    if (Close == std::string::npos)
      break;
    Out.erase(Open + 1, Close - Open - 1);
  }
  return Out;
}

TEST(ServerSocket, MultiClientDifferential) {
  // Four concurrent clients, each driving its own interleaved
  // open/edit/query transcript in lockstep with the others. Every
  // client's responses must be byte-identical (modulo wall-clock
  // timings) to a fresh single-session replay of its transcript — the
  // tentpole proof that sessions do not bleed into each other.
  const std::string Progs[4] = {
      "let x = 1 in x + 2 end",
      "let f = fn a => a + 3 in f 4 end",
      "let p = (5, 6) in fst p + snd p end",
      "let g = fn h => h 7 in g (fn z => z + 8) end",
  };
  std::vector<std::vector<std::string>> Transcripts;
  for (int C = 0; C != 4; ++C) {
    std::vector<std::string> T;
    T.push_back("{\"id\":1,\"method\":\"open\",\"params\":{\"source\":" +
                jquote(Progs[C]) + "}}");
    T.push_back("{\"id\":2,\"method\":\"query\",\"params\":{\"doc\":1,"
                "\"what\":\"report\"}}");
    // A literal-only edit (reuse tier) then a structural one.
    T.push_back("{\"id\":3,\"method\":\"edit\",\"params\":{\"doc\":1,"
                "\"start\":0,\"length\":0,\"text\":\"\"}}");
    T.push_back("{\"id\":4,\"method\":\"query\",\"params\":{\"doc\":1,"
                "\"what\":\"domains\"}}");
    T.push_back("{\"id\":5,\"method\":\"query\",\"params\":{\"doc\":1,"
                "\"what\":\"run\"}}");
    T.push_back("{\"id\":6,\"method\":\"close\",\"params\":{\"doc\":1}}");
    T.push_back("{\"id\":7,\"method\":\"query\",\"params\":{\"doc\":1,"
                "\"what\":\"report\"}}"); // now an error: doc closed
    Transcripts.push_back(std::move(T));
  }

  TestServer Srv(/*MaxConnections=*/8);
  ASSERT_TRUE(Srv.Ok);

  std::vector<std::vector<std::string>> Got(4);
  std::vector<std::thread> Clients;
  std::atomic<int> Failures{0};
  for (int C = 0; C != 4; ++C) {
    Clients.emplace_back([&, C] {
      TestClient Cl;
      if (!Cl.connect(Srv.port())) {
        ++Failures;
        return;
      }
      for (const std::string &Req : Transcripts[C]) {
        if (!Cl.sendLine(Req)) {
          ++Failures;
          return;
        }
        std::string Line;
        if (!Cl.readLine(Line)) {
          ++Failures;
          return;
        }
        Got[C].push_back(Line);
      }
    });
  }
  for (std::thread &T : Clients)
    T.join();
  ASSERT_EQ(Failures.load(), 0);

  for (int C = 0; C != 4; ++C) {
    driver::Session Replay;
    ASSERT_EQ(Got[C].size(), Transcripts[C].size()) << "client " << C;
    for (size_t I = 0; I != Transcripts[C].size(); ++I) {
      std::string Expect = Replay.handleLine(Transcripts[C][I]);
      EXPECT_EQ(stripTimings(Got[C][I]), stripTimings(Expect))
          << "client " << C << " request " << I;
    }
  }

  const driver::ConnectionCounters &Conn = Srv.S.connections();
  EXPECT_GE(Conn.Accepted.load(), 4u);
  EXPECT_EQ(Conn.Rejected.load(), 0u);
}

TEST(ServerSocket, CrlfAndBlankLinesOverSocket) {
  TestServer Srv;
  ASSERT_TRUE(Srv.Ok);
  TestClient Cl;
  ASSERT_TRUE(Cl.connect(Srv.port()));
  // A blank CRLF line produces no response; the CRLF-terminated request
  // after it is answered normally.
  ASSERT_TRUE(Cl.send("\r\n{\"id\":9,\"method\":\"query\",\"params\":{"
                      "\"what\":\"metrics\"}}\r\n"));
  std::string Line;
  ASSERT_TRUE(Cl.readLine(Line));
  json::Value R;
  std::string Error;
  ASSERT_TRUE(json::parseJson(Line, R, Error)) << Error;
  EXPECT_TRUE(okOf(R));
  EXPECT_EQ(R.find("id")->asInt(), 9);
}

TEST(ServerSocket, ConnectionMetricsExposed) {
  TestServer Srv;
  ASSERT_TRUE(Srv.Ok);
  TestClient Cl;
  ASSERT_TRUE(Cl.connect(Srv.port()));
  json::Value M =
      Cl.call("{\"method\":\"query\",\"params\":{\"what\":\"metrics\"}}");
  ASSERT_TRUE(okOf(M));
  const json::Value *Acc =
      dig(M, {"result", "metrics", "connections", "accepted"});
  const json::Value *Act =
      dig(M, {"result", "metrics", "connections", "active"});
  ASSERT_TRUE(Acc && Act);
  EXPECT_GE(Acc->asInt(), 1);
  EXPECT_GE(Act->asInt(), 1);
  EXPECT_NE(dig(M, {"result", "metrics", "connections", "rejected"}), nullptr);
  EXPECT_NE(dig(M, {"result", "metrics", "connections", "timed_out"}),
            nullptr);
}

TEST(ServerSocket, OverloadRepliesAndRecovers) {
  TestServer Srv(/*MaxConnections=*/1);
  ASSERT_TRUE(Srv.Ok);

  TestClient A;
  ASSERT_TRUE(A.connect(Srv.port()));
  // A full round trip guarantees the acceptor has registered A.
  EXPECT_TRUE(okOf(
      A.call("{\"method\":\"query\",\"params\":{\"what\":\"metrics\"}}")));

  // The connection over the cap gets a one-line overload error, then EOF.
  TestClient B;
  ASSERT_TRUE(B.connect(Srv.port()));
  std::string Line;
  ASSERT_TRUE(B.readLine(Line));
  json::Value R;
  std::string Error;
  ASSERT_TRUE(json::parseJson(Line, R, Error)) << Error << " in: " << Line;
  EXPECT_FALSE(okOf(R));
  EXPECT_NE(R.find("error")->asString().find("capacity"), std::string::npos);
  EXPECT_FALSE(B.readLine(Line, 5000));
  EXPECT_GE(Srv.S.connections().Rejected.load(), 1u);

  // Once A leaves, a retrying client gets a slot again.
  A.Sock.close();
  bool Recovered = false;
  for (int Try = 0; Try != 100 && !Recovered; ++Try) {
    TestClient C;
    if (!C.connect(Srv.port()))
      break;
    C.sendLine("{\"id\":1,\"method\":\"query\",\"params\":{\"what\":"
               "\"metrics\"}}");
    std::string L;
    if (C.readLine(L) && L.find("\"ok\":true") != std::string::npos) {
      Recovered = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_TRUE(Recovered);
}

TEST(ServerSocket, IdleConnectionTimesOut) {
  TestServer Srv(/*MaxConnections=*/4, /*IdleTimeoutMs=*/400);
  ASSERT_TRUE(Srv.Ok);
  TestClient Cl;
  ASSERT_TRUE(Cl.connect(Srv.port()));
  EXPECT_TRUE(okOf(
      Cl.call("{\"method\":\"query\",\"params\":{\"what\":\"metrics\"}}")));

  // Go idle: the server sends a final error line and closes.
  std::string Line;
  ASSERT_TRUE(Cl.readLine(Line, 30000));
  json::Value R;
  std::string Error;
  ASSERT_TRUE(json::parseJson(Line, R, Error)) << Error << " in: " << Line;
  EXPECT_FALSE(okOf(R));
  EXPECT_NE(R.find("error")->asString().find("idle"), std::string::npos);
  EXPECT_FALSE(Cl.readLine(Line, 5000)); // EOF after the timeout reply
  EXPECT_GE(Srv.S.connections().TimedOut.load(), 1u);
}

TEST(ServerSocket, MidRequestDisconnectLeavesServerServing) {
  TestServer Srv;
  ASSERT_TRUE(Srv.Ok);
  {
    TestClient Cl;
    ASSERT_TRUE(Cl.connect(Srv.port()));
    // Half a request, then the client vanishes without a newline.
    ASSERT_TRUE(Cl.send("{\"id\":1,\"method\":\"que"));
    Cl.Sock.close();
  }
  // The server must shrug it off and keep serving new connections.
  TestClient Next;
  ASSERT_TRUE(Next.connect(Srv.port()));
  EXPECT_TRUE(okOf(
      Next.call("{\"method\":\"query\",\"params\":{\"what\":\"metrics\"}}")));
}

TEST(ServerSocket, HalfCloseStillAnswersFinalLine) {
  TestServer Srv;
  ASSERT_TRUE(Srv.Ok);
  TestClient Cl;
  ASSERT_TRUE(Cl.connect(Srv.port()));
  // An unterminated request followed by a write-side shutdown: the EOF
  // flushes the final line, which still gets a response.
  ASSERT_TRUE(Cl.send(
      "{\"id\":5,\"method\":\"query\",\"params\":{\"what\":\"metrics\"}}"));
  ::shutdown(Cl.Sock.fd(), SHUT_WR);
  std::string Line;
  ASSERT_TRUE(Cl.readLine(Line));
  json::Value R;
  std::string Error;
  ASSERT_TRUE(json::parseJson(Line, R, Error)) << Error << " in: " << Line;
  EXPECT_TRUE(okOf(R));
  EXPECT_EQ(R.find("id")->asInt(), 5);
}

TEST(ServerSocket, OversizedRequestOverSocket) {
  TestServer Srv(/*MaxConnections=*/4, /*IdleTimeoutMs=*/0,
                 /*MaxRequestBytes=*/256);
  ASSERT_TRUE(Srv.Ok);
  TestClient Cl;
  ASSERT_TRUE(Cl.connect(Srv.port()));
  json::Value R = Cl.call("{\"method\":\"open\",\"params\":{\"source\":\"" +
                          std::string(1000, 'x') + "\"}}");
  EXPECT_FALSE(okOf(R));
  EXPECT_NE(R.find("error")->asString().find("limit"), std::string::npos);
  // The connection survives the oversized request.
  EXPECT_TRUE(okOf(
      Cl.call("{\"method\":\"query\",\"params\":{\"what\":\"metrics\"}}")));
}

TEST(ServerSocket, ShutdownRequestStopsServerAndDrains) {
  TestServer Srv;
  ASSERT_TRUE(Srv.Ok);
  TestClient A, B;
  ASSERT_TRUE(A.connect(Srv.port()));
  ASSERT_TRUE(B.connect(Srv.port()));
  EXPECT_TRUE(okOf(
      A.call("{\"method\":\"query\",\"params\":{\"what\":\"metrics\"}}")));
  EXPECT_TRUE(okOf(
      B.call("{\"method\":\"query\",\"params\":{\"what\":\"metrics\"}}")));

  json::Value Down = A.call("{\"id\":99,\"method\":\"shutdown\"}");
  EXPECT_TRUE(okOf(Down));
  Srv.join(); // serve() must return and drain every connection

  // Both connections are closed and the listener is gone.
  std::string Line;
  EXPECT_FALSE(A.readLine(Line, 2000));
  EXPECT_FALSE(B.readLine(Line, 2000));
  TestClient After;
  EXPECT_FALSE(After.connect(Srv.port()));
  EXPECT_EQ(Srv.S.connections().Active.load(), 0u);
}

} // namespace

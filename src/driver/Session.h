//===----------------------------------------------------------------------===//
///
/// \file
/// One analysis-server session: the transport-agnostic core behind
/// `aflc --serve`. A Session owns a document store (text + every analysis
/// artifact, kept hot across edits) and answers one newline-delimited JSON
/// request at a time via handleLine(). It knows nothing about where the
/// request bytes came from — driver::Server pumps it from stdin/stdout or
/// from a TCP connection (docs/SERVER.md documents every method, the
/// invalidation model, and the failure semantics).
///
/// Per edit the session re-runs the front end (parse → types → regions;
/// always from scratch — it is the cheap half), then structurally diffs
/// the new region program against the open one (driver/Incremental.h):
///
///   * identical-modulo-literals edits reuse the previous analysis
///     outright ("reuse" tier — zero contexts dirtied);
///   * single arrow-free subtree replacements seed the closure analysis
///     from the previous revision's tables and restart the worklist from
///     the edited subtree's parent ("incremental" tier);
///   * everything else re-analyzes from scratch ("full" tier).
///
/// All tiers share a per-document shard solution cache
/// (solver::ShardSolutionCache), so constraint shards untouched by an
/// edit replay their solved domains without re-entering the solver.
/// Every tier produces byte-identical reports and solver domains to a
/// from-scratch run — tests/ServerTest.cpp proves it differentially, and
/// the socket transport's multi-client harness proves each connection's
/// responses are byte-identical to a fresh single-session replay.
///
/// Thread-safety: a Session is confined to one connection (or stdin) and
/// is not itself thread-safe; concurrency comes from running many
/// sessions at once. The process-wide structures sessions share are each
/// thread-safe on their own: ArenaPool::global() (mutexed checkout/
/// return) and ThreadPool::global() (mutexed queue). Interners
/// (StringInterner, SetInterner, StateVecInterner) are per-document —
/// they live inside the session's ASTContext/analysis artifacts — so no
/// cross-session locking is needed for them.
///
//===----------------------------------------------------------------------===//

#ifndef AFL_DRIVER_SESSION_H
#define AFL_DRIVER_SESSION_H

#include "closure/ClosureAnalysis.h"
#include "completion/Report.h"
#include "constraints/ConstraintGen.h"
#include "driver/Pipeline.h"
#include "solver/Solver.h"
#include "support/Json.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

namespace afl {
namespace driver {

/// Shared lifetime counters of the socket transport, rendered into every
/// session's `query {"what": "metrics"}` response as the "connections"
/// object (docs/OBSERVABILITY.md). Owned by driver::Server; sessions hold
/// a const pointer (stdio sessions hold none and omit the object).
struct ConnectionCounters {
  std::atomic<uint64_t> Accepted{0}; ///< Connections handed a session.
  std::atomic<uint64_t> Active{0};   ///< Sessions currently live.
  std::atomic<uint64_t> Rejected{0}; ///< Overload-refused connections.
  std::atomic<uint64_t> TimedOut{0}; ///< Connections closed for idleness.
};

/// Splits a byte stream into protocol lines with uniform framing rules
/// for every transport: lines end at '\n', a trailing '\r' is stripped
/// (CRLF clients), a line longer than the cap is reported once as
/// Oversize and its bytes discarded through the terminating newline, and
/// finish() turns a final unterminated line at EOF into a regular line.
class LineSplitter {
public:
  enum class Item { None, Line, Oversize };

  explicit LineSplitter(size_t MaxLineBytes) : MaxLine(MaxLineBytes) {}

  /// Appends raw transport bytes.
  void feed(const char *Data, size_t Len) {
    if (Overflow) {
      // Mid-discard: only the position of the next '\n' matters.
      size_t Nl = std::string_view(Data, Len).find('\n');
      if (Nl == std::string_view::npos)
        return;
      Data += Nl;
      Len -= Nl;
    }
    Buf.append(Data, Len);
  }

  /// Marks end of stream: pending bytes become one final line.
  void finish() { Finished = true; }

  /// Pulls the next complete line (CR stripped) into \p Line. Oversize is
  /// returned exactly once per too-long line; None means "feed me more"
  /// (or, after finish(), "drained").
  Item next(std::string &Line) {
    for (;;) {
      size_t Nl = Buf.find('\n', Scan);
      if (Nl == std::string::npos) {
        Scan = Buf.size();
        if (!Overflow && Buf.size() > MaxLine) {
          Overflow = true;
          Buf.clear();
          Scan = 0;
          return Item::Oversize;
        }
        if (Finished && !Overflow && !Buf.empty()) {
          Line = std::move(Buf);
          Buf.clear();
          Scan = 0;
          stripCr(Line);
          return Item::Line;
        }
        return Item::None;
      }
      std::string L = Buf.substr(0, Nl);
      Buf.erase(0, Nl + 1);
      Scan = 0;
      if (Overflow) {
        // This newline terminates the line already reported as Oversize.
        Overflow = false;
        continue;
      }
      if (L.size() > MaxLine)
        return Item::Oversize;
      stripCr(L);
      Line = std::move(L);
      return Item::Line;
    }
  }

private:
  static void stripCr(std::string &L) {
    if (!L.empty() && L.back() == '\r')
      L.pop_back();
  }

  std::string Buf;
  size_t Scan = 0;
  size_t MaxLine;
  bool Overflow = false;
  bool Finished = false;
};

/// One `aflc --serve` session. Not thread-safe: requests are handled
/// strictly in order, matching the one-line-in/one-line-out protocol;
/// the socket transport runs one Session per connection.
class Session {
public:
  /// Request-size cap every transport applies before the JSON layer.
  static constexpr size_t DefaultMaxRequestBytes = 1u << 20; // 1 MiB

  Session() = default;
  /// A session attached to the socket transport: `query metrics`
  /// responses additionally render \p Conn as the "connections" object.
  explicit Session(const ConnectionCounters *Conn) : Conn(Conn) {}

  /// Handles one request line and returns the response line (no trailing
  /// newline). Never throws and never terminates the process: malformed
  /// input, unknown methods and bad arguments all produce `"ok": false`
  /// error responses.
  std::string handleLine(const std::string &Line);

  /// A transport-level failure (oversized request, idle timeout) rendered
  /// as a standard error response line; counted as a failed request. The
  /// bytes never reached the JSON layer, so the echoed id is null.
  std::string transportError(const std::string &Msg);

  /// Renders an error response line outside any session (e.g. the
  /// overload reply sent to a connection that never got a session).
  static std::string errorLine(const std::string &Msg);

  /// True once a `shutdown` request has been handled.
  bool shutdownRequested() const { return Shutdown; }

private:
  /// An open document: its text plus every analysis artifact, kept hot
  /// across edits. The region program owns the IR the closure analysis
  /// and constraint system point into, so artifacts are replaced as a
  /// unit (or, on the reuse tier, kept as a unit while only Text moves).
  struct Document {
    std::string Text;
    std::unique_ptr<ast::ASTContext> Ctx;
    const ast::Expr *Ast = nullptr;
    std::unique_ptr<regions::RegionProgram> Prog;
    std::unique_ptr<closure::ClosureAnalysis> CA;
    std::unique_ptr<constraints::GenResult> Gen;
    solver::SolveResult Sol;
    regions::Completion AflC;
    completion::CompletionReport Report;
    solver::ShardSolutionCache Cache;
  };

  /// Wall-clock stage timings of one request, in seconds.
  struct StageTimings {
    double FrontEnd = 0;
    double Closure = 0;
    double ConstraintGen = 0;
    double Solve = 0;
    double Extract = 0;
    bool AnalysisRan = false;
  };

  /// Outcome summary of one analysis (or reuse) for the response body.
  struct AnalysisInfo {
    const char *Tier = "full";
    bool Converged = false;
    bool Sat = false;
    size_t ProcessedContexts = 0;
    size_t DirtiedContexts = 0;
    uint64_t ShardsSolved = 0;
    uint64_t ShardsReused = 0;
  };

  /// Runs closure analysis → constraint generation → cached solve →
  /// extraction over Doc.Prog, replacing Doc's analysis artifacts. When
  /// \p PrevCA and \p Seed are given, tries the seeded incremental
  /// worklist first and falls back to a full run if the seed is rejected.
  /// Mirrors completion::aflCompletion's fallbacks (conservative
  /// completion on non-convergence or unsat) so results are byte-identical
  /// to the one-shot pipeline.
  AnalysisInfo analyze(Document &Doc, const closure::ClosureAnalysis *PrevCA,
                       const closure::IncrementalSeed *Seed, StageTimings &T);

  /// Renders the shared "analysis" result object for open/edit responses.
  std::string analysisBody(const Document &Doc, const AnalysisInfo &Info) const;

  std::string handleOpen(const json::Value &Params, StageTimings &T,
                         std::string &Error);
  std::string handleEdit(const json::Value &Params, StageTimings &T,
                         std::string &Error);
  std::string handleQuery(const json::Value &Params, std::string &Error);
  std::string handleClose(const json::Value &Params, std::string &Error);

  Document *findDoc(const json::Value &Params, std::string &Error);

  std::map<int64_t, Document> Docs;
  int64_t NextDocId = 1;
  bool Shutdown = false;
  const ConnectionCounters *Conn = nullptr;

  /// Lifetime counters, exposed by `query {"what": "metrics"}` and
  /// documented under `server/*` in docs/OBSERVABILITY.md.
  struct Counters {
    uint64_t Requests = 0;
    uint64_t Errors = 0;
    uint64_t Opens = 0;
    uint64_t Edits = 0;
    uint64_t Queries = 0;
    uint64_t Closes = 0;
    uint64_t FullAnalyses = 0;
    uint64_t IncrementalAnalyses = 0;
    uint64_t ReusedAnalyses = 0;
    uint64_t DirtiedContexts = 0;
    uint64_t ShardsSolved = 0;
    uint64_t ShardsReused = 0;
  } Stats;
};

} // namespace driver
} // namespace afl

#endif // AFL_DRIVER_SESSION_H

//===----------------------------------------------------------------------===//
///
/// \file
/// A driver::Server on a loopback port inside the benchmark process, and
/// a blocking client that speaks its newline-delimited JSON protocol
/// (docs/SERVER.md). The client times each request from its own side.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SERVING_H
#define PERFBENCH_SERVING_H

#include "Workloads.h"

#include "driver/Server.h"
#include "support/Socket.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <thread>

namespace perfbench {

/// Owns a listening server and the thread that runs its accept loop.
class LoopbackServer {
public:
  LoopbackServer() = default;
  ~LoopbackServer();
  LoopbackServer(const LoopbackServer &) = delete;
  LoopbackServer &operator=(const LoopbackServer &) = delete;

  bool start(std::string &Error);
  uint16_t port() const { return Server.port(); }

private:
  afl::driver::Server Server;
  std::thread Acceptor;
};

/// The parts of one response the benchmark reads.
struct Response {
  bool Ok = false;
  std::string Error;
  int64_t Doc = -1;
  enum Tier { Reuse, Incremental, Full, None } TierTaken = None;
  uint64_t TotalUs = 0;
  uint64_t FrontEndUs = 0;
  uint64_t AnalysisUs = 0; ///< closure + congen + solve + extract
  uint64_t ShardsSolved = 0;
  uint64_t ShardsReused = 0;
  uint64_t DirtiedContexts = 0;
  std::string ReportText;
};

class Client {
public:
  bool connect(uint16_t Port, std::string &Error);

  /// Sends one request line, waits for its response and parses it.
  /// \p LatencyNs is the time from send to the end of the response line.
  /// False if the connection failed or the response was not JSON.
  bool call(const std::string &Request, Response &Out, uint64_t &LatencyNs);

  void close() { Sock.close(); }

private:
  afl::support::Socket Sock;
  std::string Buffer;
};

/// \p S as a JSON string literal.
std::string jsonQuote(std::string_view S);

std::string openRequest(const std::string &Source);
std::string editRequest(int64_t Doc, const Edit &E);
std::string reportRequest(int64_t Doc);

} // namespace perfbench

#endif // PERFBENCH_SERVING_H

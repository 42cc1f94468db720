//===----------------------------------------------------------------------===//
///
/// \file
/// In-memory span recorder for the traced pass. A span is one call into a
/// layer's public function, timed from the benchmark's side of the call:
/// layer, start, end, parent span and the id of the program or request it
/// served. Spans stay in memory and are written out when the run ends.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The layer boundaries the benchmark times. Root spans are Pipeline (one
/// batch program) and Edit / Open (one server request).
enum class Layer : uint8_t {
  Pipeline,
  Parser,
  Types,
  Regions,
  Conservative,
  Closure,
  Congen,
  Solver,
  Extract,
  Vm,
  RefInterp,
  Edit,
  Open,
  ServerFrontEnd,
  ServerAnalysis,
  Count
};

constexpr size_t NumLayers = static_cast<size_t>(Layer::Count);

const char *layerName(Layer L);

/// Nanoseconds on the steady clock.
inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  Layer L = Layer::Pipeline;
  uint32_t Parent = 0; ///< index of the parent span, or NoParent
  uint32_t Request = 0;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
};

class Tracer {
public:
  static constexpr uint32_t NoParent = ~0u;

  /// A disabled tracer records nothing; begin() returns NoParent.
  explicit Tracer(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }

  uint32_t begin(Layer L, uint32_t Parent, uint32_t Request) {
    if (!Enabled)
      return NoParent;
    Spans.push_back({L, Parent, Request, nowNs(), 0});
    return static_cast<uint32_t>(Spans.size() - 1);
  }

  void end(uint32_t Id) {
    if (Id != NoParent)
      Spans[Id].EndNs = nowNs();
  }

  /// Records a span whose bounds were measured elsewhere (the server's
  /// stage timings inside a client-timed request).
  uint32_t add(Layer L, uint32_t Parent, uint32_t Request, uint64_t StartNs,
               uint64_t EndNs) {
    if (!Enabled)
      return NoParent;
    Spans.push_back({L, Parent, Request, StartNs, EndNs});
    return static_cast<uint32_t>(Spans.size() - 1);
  }

  /// Moves \p Other's spans into this tracer, re-basing parent indices.
  void merge(Tracer &&Other);

  const std::vector<Span> &spans() const { return Spans; }

  /// Self time per layer in seconds: each span's duration minus the part
  /// its direct children cover.
  std::array<double, NumLayers> selfSeconds() const;

  /// Total duration per layer in seconds, children included.
  std::array<double, NumLayers> totalSeconds() const;

  /// Writes one JSON object per span to \p Path. Returns false on failure.
  bool write(const std::string &Path) const;

private:
  bool Enabled;
  std::vector<Span> Spans;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H

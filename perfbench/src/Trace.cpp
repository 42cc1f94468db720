#include "Trace.h"

#include <cstdio>

using namespace perfbench;

const char *perfbench::layerName(Layer L) {
  static const char *const Names[NumLayers] = {
      "pipeline",  "parser", "types",   "regions",         "conservative",
      "closure",   "congen", "solver",  "extract",         "vm",
      "refinterp", "edit",   "open",    "server.frontend", "server.analysis"};
  return Names[static_cast<size_t>(L)];
}

void Tracer::merge(Tracer &&Other) {
  uint32_t Base = static_cast<uint32_t>(Spans.size());
  for (Span S : Other.Spans) {
    if (S.Parent != NoParent)
      S.Parent += Base;
    Spans.push_back(S);
  }
  Other.Spans.clear();
}

std::array<double, NumLayers> Tracer::totalSeconds() const {
  std::array<double, NumLayers> Out{};
  for (const Span &S : Spans)
    Out[static_cast<size_t>(S.L)] += (S.EndNs - S.StartNs) * 1e-9;
  return Out;
}

std::array<double, NumLayers> Tracer::selfSeconds() const {
  std::vector<uint64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent != NoParent)
      ChildNs[S.Parent] += S.EndNs - S.StartNs;
  std::array<double, NumLayers> Out{};
  for (size_t I = 0; I != Spans.size(); ++I) {
    uint64_t Dur = Spans[I].EndNs - Spans[I].StartNs;
    uint64_t Self = Dur > ChildNs[I] ? Dur - ChildNs[I] : 0;
    Out[static_cast<size_t>(Spans[I].L)] += Self * 1e-9;
  }
  return Out;
}

bool Tracer::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  uint64_t Epoch = ~0ull;
  for (const Span &S : Spans)
    Epoch = S.StartNs < Epoch ? S.StartNs : Epoch;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"id\":%zu,\"name\":\"%s\",\"parent\":%lld,\"request\":%u,"
                 "\"start_ns\":%llu,\"end_ns\":%llu}\n",
                 I, layerName(S.L),
                 S.Parent == NoParent ? -1LL : static_cast<long long>(S.Parent),
                 S.Request, static_cast<unsigned long long>(S.StartNs - Epoch),
                 static_cast<unsigned long long>(S.EndNs - Epoch));
  }
  return std::fclose(F) == 0;
}

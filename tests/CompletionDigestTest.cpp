// Golden completion digests: the FNV-1a digest of the printed A-F-L
// completion (PipelineResult::printAfl) for the builtin corpus and an
// aliasing matrix under the default settings, each ablation and each
// reference mode, and for 500 random programs of each generator shape.
// The table in CompletionDigests.inc pins the output of every analysis
// layer, so a change meant to be output-preserving (constraint
// generation, the solver, region placement) must leave every digest
// unchanged.
//
// A label missing from the table fails with its computed table line;
// regenerating the table means pasting those lines, which is only right
// for a change that is meant to move completions.

#include "driver/Pipeline.h"
#include "programs/Corpus.h"
#include "programs/RandomProgram.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <functional>
#include <string>
#include <unordered_map>

using namespace afl;

namespace {

struct GoldenDigest {
  const char *Label;
  uint64_t Digest;
};

const GoldenDigest Golden[] = {
#include "CompletionDigests.inc"
};

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

/// Digest of the A-F-L completion of \p Source; 0 if the pipeline fails.
uint64_t completionDigest(const std::string &Source,
                          const driver::PipelineOptions &Options) {
  driver::PipelineResult R = driver::runPipeline(Source, Options);
  return R.ok() ? fnv1a(R.printAfl()) : 0;
}

void expectGolden(const std::string &Label, uint64_t Digest) {
  static const std::unordered_map<std::string, uint64_t> Table = [] {
    std::unordered_map<std::string, uint64_t> T;
    for (const GoldenDigest &G : Golden)
      T.emplace(G.Label, G.Digest);
    return T;
  }();
  char Line[160];
  std::snprintf(Line, sizeof(Line), "{\"%s\", 0x%016" PRIx64 "ull},",
                Label.c_str(), Digest);
  auto It = Table.find(Label);
  if (It == Table.end()) {
    ADD_FAILURE() << "no golden digest; computed: " << Line;
    return;
  }
  EXPECT_EQ(It->second, Digest) << "computed: " << Line;
}

driver::PipelineOptions analysisOnly() {
  driver::PipelineOptions O;
  O.SkipRuns = true;
  return O;
}

/// The settings the corpus is digested under, named by their aflc flag.
std::vector<std::pair<std::string, std::function<void(
                                       driver::PipelineOptions &)>>>
corpusSettings() {
  return {
      {"default", [](driver::PipelineOptions &) {}},
      {"--no-freeapp",
       [](driver::PipelineOptions &O) { O.GenOptions.FreeApp = false; }},
      {"--lexical-alloc",
       [](driver::PipelineOptions &O) { O.GenOptions.LateAlloc = false; }},
      {"--lexical-free",
       [](driver::PipelineOptions &O) { O.GenOptions.EarlyFree = false; }},
      {"--no-simplify",
       [](driver::PipelineOptions &O) { O.SolveOptions.Simplify = false; }},
      {"--closure-restart",
       [](driver::PipelineOptions &O) {
         O.ClosureOptions.UseWorklist = false;
       }},
      {"--closure-widen=2",
       [](driver::PipelineOptions &O) { O.ClosureOptions.Widening = 2; }},
  };
}

/// The builtin corpus plus the aliasing matrix of ExhaustiveTest: a
/// recursive function called with shared and distinct pair components,
/// whose contexts map two regions to one color.
std::vector<programs::BenchProgram> digestCorpus() {
  std::vector<programs::BenchProgram> Corpus = programs::smallCorpus();
  for (programs::BenchProgram &P : programs::table2Corpus())
    Corpus.push_back(std::move(P));
  const char *Args[] = {"(a, a)", "(a, b)", "(b, a)", "(b, b)"};
  for (const char *Arg1 : Args)
    for (const char *Arg2 : Args)
      Corpus.push_back(
          {std::string("Aliasing") + Arg1 + Arg2,
           std::string("let a = 1 in let b = 2 in "
                       "letrec f p = if fst p <= 0 then snd p + 0 "
                       "else f (fst p - 1, snd p) in (f ") +
               Arg1 + ") + (f " + Arg2 + ") end end end"});
  return Corpus;
}

TEST(CompletionDigest, CorpusUnderEverySetting) {
  const std::vector<programs::BenchProgram> Corpus = digestCorpus();
  for (const auto &[Name, Apply] : corpusSettings()) {
    driver::PipelineOptions O = analysisOnly();
    Apply(O);
    for (const programs::BenchProgram &P : Corpus)
      expectGolden("corpus/" + P.Name + "/" + Name,
                   completionDigest(P.Source, O));
  }
}

void expectRandomShape(const std::string &Shape,
                       const programs::RandomProgramOptions &Gen) {
  driver::PipelineOptions O = analysisOnly();
  for (unsigned Seed = 0; Seed != 500; ++Seed)
    expectGolden("random/" + Shape + "/" + std::to_string(Seed),
                 completionDigest(programs::generateRandomProgram(Seed, Gen),
                                  O));
}

TEST(CompletionDigest, RandomDefault500) {
  expectRandomShape("default", programs::RandomProgramOptions());
}

TEST(CompletionDigest, RandomClosureEscape500) {
  programs::RandomProgramOptions Gen;
  Gen.ClosureEscape = true;
  expectRandomShape("closure-escape", Gen);
}

TEST(CompletionDigest, RandomNestedHof500) {
  programs::RandomProgramOptions Gen;
  Gen.NestedHof = true;
  expectRandomShape("nested-hof", Gen);
}

TEST(CompletionDigest, RandomMaxDepth7x500) {
  programs::RandomProgramOptions Gen;
  Gen.MaxDepth = 7;
  expectRandomShape("max-depth-7", Gen);
}

} // namespace

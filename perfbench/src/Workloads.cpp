#include "Workloads.h"

#include "Layers.h"

#include "programs/Corpus.h"
#include "programs/RandomProgram.h"

#include <algorithm>
#include <cctype>

using namespace perfbench;

namespace {

// Sizes of every workload. Changing one changes what the benchmark
// measures: record the new sizes in perfbench/WORKLOADS.md.
constexpr int AppelN = 400;
constexpr int QuicksortN = 500;
constexpr int FibN = 22;
constexpr int RandlistN = 2000;
constexpr int FacN = 20;
constexpr int LetChainN = 60;  // also run at 2n
constexpr int SumN = 100;      // also run at 2n
constexpr int PermSlots = 4;
constexpr int PermDepth = 3;
constexpr int HofDraws = 100;

Program plain(std::string Name, std::string Source) {
  Program P;
  P.Name = std::move(Name);
  P.Source = std::move(Source);
  return P;
}

/// `let x1 = (a1, a1) in ... let xn = (an, an) in fst x1 + snd xn end...`:
/// every binding stays in scope to the end, so every region is in every
/// state vector.
std::string letChainSource(int N, Lcg &Rng) {
  std::string Out;
  for (int I = 1; I <= N; ++I) {
    std::string A = std::to_string(Rng.below(90) + 1);
    Out += "let x" + std::to_string(I) + " = (" + A + ", " + A + ") in ";
  }
  Out += "fst x1 + snd x" + std::to_string(N);
  for (int I = 0; I < N; ++I)
    Out += " end";
  return Out;
}

/// `a1 + a2 + ... + an` with single-digit terms.
std::string sumSource(int N, Lcg &Rng) {
  std::string Out = std::to_string(Rng.below(9) + 1);
  for (int I = 1; I < N; ++I)
    Out += " + " + std::to_string(Rng.below(9) + 1);
  return Out;
}

/// The corpus's list generators start their LCG at 12345; the seed picks
/// another start value, which changes the list contents but not its length.
std::string reseedList(std::string Source, uint64_t Start) {
  size_t At = Source.rfind(", 12345)");
  if (At != std::string::npos)
    Source.replace(At + 2, 5, std::to_string(Start));
  return Source;
}

std::vector<Program> paperCorpus(Lcg &Rng) {
  std::vector<Program> Out = {
      plain("appel/" + std::to_string(AppelN),
            afl::programs::appelSource(AppelN)),
      plain("quicksort/" + std::to_string(QuicksortN),
            afl::programs::quicksortSource(QuicksortN)),
      plain("fib/" + std::to_string(FibN), afl::programs::fibSource(FibN)),
      plain("randlist/" + std::to_string(RandlistN),
            reseedList(afl::programs::randlistSource(RandlistN),
                       Rng.below(60000) + 1)),
      plain("fac/" + std::to_string(FacN), afl::programs::facSource(FacN)),
  };
  // Quicksort keeps its fixed list, since its cost depends on the list
  // order; the pass order is fixed too, since the heap state one program
  // leaves changes the next one's time.
  return Out;
}

std::vector<Program> straightLine(Lcg &Rng) {
  std::vector<Program> Out;
  for (int N : {LetChainN, 2 * LetChainN})
    Out.push_back({"let-chain/" + std::to_string(N), letChainSource(N, Rng),
                   "let-chain", N});
  for (int N : {SumN, 2 * SumN})
    Out.push_back({"sum/" + std::to_string(N), sumSource(N, Rng), "sum", N});
  return Out;
}

/// The perm program with seeded payload values `let wI = v in` (its cost
/// does not depend on them).
std::string seededPerm(Lcg &Rng) {
  std::string Source = afl::programs::permSource(PermSlots, PermDepth);
  for (int I = 0; I < PermSlots; ++I) {
    std::string Index = std::to_string(I);
    std::string Old = "let w" + Index + " = " + Index + " in ";
    std::string New = "let w" + Index + " = ";
    New += std::to_string(Rng.below(90) + 1);
    New += " in ";
    size_t At = Source.find(Old);
    if (At != std::string::npos)
      Source.replace(At, Old.size(), New);
  }
  return Source;
}

std::vector<Program> hofContexts(Lcg &Rng) {
  std::vector<Program> Out;
  Out.push_back(plain("perm/" + std::to_string(PermSlots) + "x" +
                          std::to_string(PermDepth),
                      seededPerm(Rng)));
  // The same draws for every seed, so the workload's cost does not depend
  // on it: the first HofDraws generator seeds whose program is defined,
  // i.e. whose reference run ends within the evaluators' default step and
  // recursion-depth limits (about 1 draw in 200 recurses deeper).
  afl::programs::RandomProgramOptions Options;
  Options.NestedHof = true;
  std::string Value;
  for (unsigned DrawSeed = 0; Out.size() <= HofDraws; ++DrawSeed) {
    std::string Source =
        afl::programs::generateRandomProgram(DrawSeed, Options);
    if (referenceValue(Source, Value))
      Out.push_back(plain("random/" + std::to_string(DrawSeed), Source));
  }
  return Out;
}

/// Standalone integer literals (digit runs not glued to an identifier).
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
    if ((Begin == 0 || !IsWord(S[Begin - 1])) &&
        (I == S.size() || !IsWord(S[I])))
      Out.push_back({Begin, I - Begin});
  }
  return Out;
}

} // namespace

bool perfbench::parseWorkload(std::string_view Name, Workload &Out) {
  if (Name == "paper-corpus")
    Out = Workload::PaperCorpus;
  else if (Name == "straight-line")
    Out = Workload::StraightLine;
  else if (Name == "hof-contexts")
    Out = Workload::HofContexts;
  else if (Name == "edit-session")
    Out = Workload::EditSession;
  else
    return false;
  return true;
}

std::vector<Program> perfbench::batchPrograms(Workload W, uint64_t Seed) {
  Lcg Rng(Seed);
  switch (W) {
  case Workload::PaperCorpus:
    return paperCorpus(Rng);
  case Workload::StraightLine:
    return straightLine(Rng);
  case Workload::HofContexts:
    return hofContexts(Rng);
  case Workload::EditSession:
    break;
  }
  return {};
}

std::vector<Program> perfbench::editDocuments() {
  // Both clients edit the same program in their own sessions: with a
  // second, costlier document (quicksort 12 costs 5x more per edit) the
  // latency p90 falls between the two documents' clusters and jumps.
  return {plain("appel/16", afl::programs::appelSource(16)),
          plain("appel/16", afl::programs::appelSource(16))};
}

EditScript::EditScript(const std::string &Text, uint64_t Seed)
    : Literals(literalTokens(Text)), Rng(Seed),
      Offset(static_cast<unsigned>(Rng.below(Literals.size() * 2))) {}

unsigned EditScript::weight(unsigned Kind) {
  // The literal-only edit, the two wrappers and their reverts, the lambda
  // and its revert.
  static constexpr unsigned Weights[KindsPerLiteral] = {4, 2, 2, 2, 2, 1, 1};
  return Weights[Kind % KindsPerLiteral];
}

Edit EditScript::next(const std::string &Text) {
  // Round robin over the literals, so every seed edits each one equally
  // often; the seed picks where the rotation starts.
  unsigned Literal = (Offset + Cycle) % Literals.size();
  unsigned Wrapper = (Offset + Cycle) / Literals.size() % 2;
  if (Step == 0) {
    auto [At, Len] = Literals[Literal];
    Pos = At;
    Original = Text.substr(At, Len);
    CurLen = Len;
  }
  static constexpr unsigned StepKind[] = {0, 1, 3, 5, 6};
  Edit E;
  E.Kind = Literal * KindsPerLiteral + StepKind[Step] +
           (Step == 1 || Step == 2 ? Wrapper : 0);
  E.Start = Pos;
  E.Length = CurLen;
  std::string K = std::to_string(Rng.below(9) + 1);
  std::string Current = Text.substr(Pos, CurLen);
  switch (Step) {
  case 0: // literal only: the reuse tier
    E.Text = std::to_string(Rng.below(95) + 1);
    break;
  case 1: // arrow-free subtree: the incremental tier
    E.Text = Wrapper ? "(" + Current + " + " + K + ")"
                     : "(if true then " + Current + " else " + K + ")";
    break;
  case 3: // a lambda in the replaced subtree: the full tier
    E.Text = "((fn q => q + " + K + ") " + Original + ")";
    break;
  default: // revert to the opened text
    E.Text = Original;
    break;
  }
  CurLen = E.Text.size();
  bool LambdaCycle = Cycle % 4 == 3;
  if (Step == 4 || (Step == 2 && !LambdaCycle)) {
    Step = 0;
    ++Cycle;
  } else {
    ++Step;
  }
  return E;
}

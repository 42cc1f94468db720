//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's workloads: every input is generated in-process from the
/// `--seed` argument, so one seed always yields the same programs and the
/// same edit scripts. See perfbench/WORKLOADS.md for why each was chosen.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Workload { PaperCorpus, StraightLine, HofContexts, EditSession };

/// Maps a `--workload` name to its kind; false for an unknown name.
bool parseWorkload(std::string_view Name, Workload &Out);

/// Deterministic 64-bit LCG, so inputs never depend on the C library.
struct Lcg {
  uint64_t State;
  explicit Lcg(uint64_t Seed) : State(Seed * 2654435761u + 1) {}
  uint64_t next() {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return State >> 33;
  }
  /// Uniform-ish draw in [0, N).
  uint64_t below(uint64_t N) { return next() % N; }
};

/// One input program of a batch workload. Programs of a scaling family
/// carry the family name and size, so the run can fit growth exponents.
struct Program {
  std::string Name;
  std::string Source;
  std::string Family; ///< empty unless part of an n / 2n pair
  int Size = 0;
};

/// The programs one pass of a batch workload runs, in pass order.
std::vector<Program> batchPrograms(Workload W, uint64_t Seed);

/// The document each edit-session client opens (one entry per client).
/// They are fixed; the seed drives the edit scripts.
std::vector<Program> editDocuments();

/// One span replacement in a document's text.
struct Edit {
  size_t Start = 0;
  size_t Length = 0;
  std::string Text;
  /// Which edit of the script this is: the literal, the step of the cycle
  /// and the wrapper. Edits of one kind cost the same; the seed changes
  /// only the numbers they write.
  unsigned Kind = 0;
};

/// A client's scripted edit mix. Each cycle takes the next integer literal
/// in turn and applies: another number (reuse tier), a `(N + k)` or `(if
/// true then N else k)` wrapper (incremental tier, the two alternating per
/// rotation), then a revert to the original literal. Every fourth cycle
/// also wraps the literal in a lambda application and reverts it (full
/// tier). Every edit keeps the program
/// valid, and the text returns to the opened document after each cycle,
/// so the cost per edit does not drift over a run.
class EditScript {
public:
  /// Edits in one round of four cycles, the last with the lambda edits.
  static constexpr size_t RoundEdits = 14;
  /// Kinds of edit per literal.
  static constexpr unsigned KindsPerLiteral = 7;

  /// How often edits of \p Kind occur per round of a literal's cycles;
  /// the weights of one literal sum to RoundEdits.
  static unsigned weight(unsigned Kind);

  EditScript(const std::string &Text, uint64_t Seed);

  /// The next edit against \p Text (the client's current text).
  Edit next(const std::string &Text);

private:
  std::vector<std::pair<size_t, size_t>> Literals; ///< of the opened text
  Lcg Rng;
  unsigned Offset;    ///< seeded start of the rotation over Literals
  unsigned Step = 0;  ///< position in the current cycle
  unsigned Cycle = 0;
  size_t Pos = 0;     ///< start of the literal being edited
  size_t CurLen = 0;  ///< current length of the edited span
  std::string Original;
};

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H

//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark corpus of paper §6 (Table 2, Figures 5-8), written in the
/// surface language. The paper does not print its benchmark sources, so
/// these are reconstructions that exercise the behaviors the paper
/// describes:
///
///   * appel(n)    — the Appel example [App92] cited in §6: a recursive
///                   function whose (freshly built) list parameter dies
///                   partway through the activation. Stack-disciplined
///                   regions hold every list until the recursion unwinds
///                   (O(n²) residency); freeing the parameter's region
///                   early gives O(n).
///   * quicksort(n)— list quicksort over a pseudo-random list (partition,
///                   append, region-polymorphic recursion).
///   * fib(n)      — naive recursive Fibonacci.
///   * randlist(n) — generate a list of n pseudo-random integers (LCG).
///   * fac(n)      — factorial (the "nearly identical behavior" case).
///
//===----------------------------------------------------------------------===//

#ifndef AFL_PROGRAMS_CORPUS_H
#define AFL_PROGRAMS_CORPUS_H

#include <iosfwd>
#include <string>
#include <vector>

namespace afl {
namespace programs {

/// The Appel example with parameter \p N.
std::string appelSource(int N);

/// Quicksort of a \p N-element pseudo-random list.
std::string quicksortSource(int N);

/// Naive Fibonacci of \p N.
std::string fibSource(int N);

/// Generate a list of \p N pseudo-random integers.
std::string randlistSource(int N);

/// Factorial of \p N.
std::string facSource(int N);

/// Example 1.1 of the paper.
std::string example11Source();

/// Example 2.1 of the paper (region-polymorphic function applied to
/// values in different regions).
std::string example21Source();

/// The permuted-payload context-explosion family: a self-recursive
/// letrec over (count, \p Slots-slot right-nested pair payload) whose
/// two recursive call sites apply different slot permutations (rotate
/// and swap-first-two — together they generate the full symmetric
/// group). Every distinct slot→region arrangement reached within
/// \p Depth recursion steps is a distinct abstract region environment
/// for the recursive closure, so the exact closure analysis enumerates
/// up to Slots! contexts per node while the widened analysis
/// (ClosureOptions::Widening) collapses the orbit. This is the
/// benchmark cliff for `aflc --closure-widen`.
std::string permSource(int Slots, int Depth);

/// One named benchmark instance.
struct BenchProgram {
  std::string Name;
  std::string Source;
};

/// Prints the program's name. Parameterized tests show this instead of
/// the struct's raw bytes, which hold heap addresses and would make the
/// test names differ from run to run.
std::ostream &operator<<(std::ostream &OS, const BenchProgram &P);

/// The Table 2 corpus at the paper's parameters:
/// Appel(100), Quicksort(500), Fibonacci(6), Randlist(25), Fac(10).
std::vector<BenchProgram> table2Corpus();

/// A small-parameter corpus for tests and quick runs.
std::vector<BenchProgram> smallCorpus();

} // namespace programs
} // namespace afl

#endif // AFL_PROGRAMS_CORPUS_H

//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation study over the completion's design choices (DESIGN.md):
/// which of the A-F-L ingredients buys how much memory? Configurations:
///
///   full        alloc late + free early + free_app (the paper's system)
///   no-simplify full, but solving the raw constraint system (skips the
///               union-find collapse + component decomposition; must
///               reproduce the `full` column exactly)
///   no-freeapp  drop the free_app choice point (§1)
///   lex-alloc   allocation only at the letregion (alloc still explicit)
///   lex-free    deallocation only at the letregion
///   lexical     both lexical = the Tofte/Talpin discipline
///   widen-2     full, with the closure analysis context-set widening
///               at bound 2 (aflc --closure-widen=2) — the differential
///               precision column for the widened analysis
///
/// Reported: max storable values held for each corpus program.
///
//===----------------------------------------------------------------------===//

#include "ast/ASTContext.h"
#include "completion/AflCompletion.h"
#include "completion/Conservative.h"
#include "interp/Interp.h"
#include "parser/Parser.h"
#include "programs/Corpus.h"
#include "regions/RegionInference.h"
#include "types/TypeInference.h"

#include <cstdio>
#include <cstdlib>

using namespace afl;

namespace {

struct Config {
  const char *Name;
  constraints::GenOptions Options;
  solver::SolveOptions Solve;
  closure::ClosureOptions Closure;
};

uint64_t maxValuesUnder(const regions::RegionProgram &Prog,
                        const constraints::GenOptions &Options,
                        const solver::SolveOptions &Solve,
                        const closure::ClosureOptions &Closure,
                        const char *Name, const char *Program) {
  completion::AflStats Stats;
  regions::Completion C = completion::aflCompletion(Prog, &Stats, Options,
                                                    Solve, Closure);
  if (!Stats.Solved) {
    std::fprintf(stderr, "%s/%s: solver fell back to conservative\n",
                 Program, Name);
  }
  interp::RunResult R = interp::run(Prog, C);
  if (!R.Ok) {
    std::fprintf(stderr, "%s/%s: run failed: %s\n", Program, Name,
                 R.Error.c_str());
    std::exit(1);
  }
  return R.S.MaxValues;
}

} // namespace

int main() {
  Config Configs[7];
  Configs[0] = {"full", {}, {}, {}};
  Configs[1] = {"no-simplify", {}, {}, {}};
  Configs[1].Solve.Simplify = false;
  Configs[2] = {"no-freeapp", {}, {}, {}};
  Configs[2].Options.FreeApp = false;
  Configs[3] = {"lex-alloc", {}, {}, {}};
  Configs[3].Options.LateAlloc = false;
  Configs[4] = {"lex-free", {}, {}, {}};
  Configs[4].Options.EarlyFree = false;
  Configs[4].Options.FreeApp = false;
  Configs[5] = {"lexical", {}, {}, {}};
  Configs[5].Options.LateAlloc = false;
  Configs[5].Options.EarlyFree = false;
  Configs[5].Options.FreeApp = false;
  // Widened closure analysis (--closure-widen=2): how much memory the
  // context-set merge costs at runtime relative to `full`.
  Configs[6] = {"widen-2", {}, {}, {}};
  Configs[6].Closure.Widening = 2;

  std::printf("ablation — max storable values held\n");
  std::printf("%-16s", "program");
  for (const Config &C : Configs)
    std::printf(" %11s", C.Name);
  std::printf(" %11s\n", "T-T");

  for (const programs::BenchProgram &P : programs::smallCorpus()) {
    ast::ASTContext Ctx;
    DiagnosticEngine Diags;
    const ast::Expr *E = parseExpr(P.Source, Ctx, Diags);
    types::TypedProgram T = types::inferTypes(E, Ctx, Diags);
    auto Prog = regions::inferRegions(E, Ctx, T, Diags);
    if (!Prog) {
      std::fprintf(stderr, "%s: inference failed\n", P.Name.c_str());
      return 1;
    }

    std::printf("%-16s", P.Name.c_str());
    for (const Config &C : Configs)
      std::printf(" %11llu",
                  (unsigned long long)maxValuesUnder(*Prog, C.Options,
                                                     C.Solve, C.Closure,
                                                     C.Name,
                                                     P.Name.c_str()));
    regions::Completion Cons = completion::conservativeCompletion(*Prog);
    interp::RunResult R = interp::run(*Prog, Cons);
    std::printf(" %11llu\n", (unsigned long long)R.S.MaxValues);
  }
  return 0;
}

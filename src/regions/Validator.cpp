#include "regions/Validator.h"

#include <set>

using namespace afl;
using namespace afl::regions;

namespace {

/// The regions in scope, as a region-indexed mask. A scope is left by
/// clearing what was put in scope since its mark, so no node copies the
/// set it inherits.
class ScopeMask {
public:
  explicit ScopeMask(const RegionProgram &Prog)
      : In(Prog.Types.numRegionVars(), 0) {
    for (RegionVarId R : Prog.GlobalRegions)
      enter(R);
  }

  bool contains(RegionVarId R) const { return R < In.size() && In[R]; }

  /// Puts \p R in scope; false if it already was.
  bool enter(RegionVarId R) {
    if (contains(R))
      return false;
    if (R >= In.size())
      In.resize(R + 1, 0);
    In[R] = 1;
    Entered.push_back(R);
    return true;
  }

  size_t mark() const { return Entered.size(); }

  /// Takes every region entered since \p Mark out of scope again.
  void leave(size_t Mark) {
    for (; Entered.size() > Mark; Entered.pop_back())
      In[Entered.back()] = 0;
  }

private:
  std::vector<char> In;
  std::vector<RegionVarId> Entered;
};

class ProgramValidator {
public:
  explicit ProgramValidator(const RegionProgram &Prog)
      : Prog(Prog), Scope(Prog) {}

  std::vector<std::string> run() {
    for (RegionVarId R : Prog.GlobalRegions)
      checkCanonical(R, "global region");
    visit(Prog.Root);
    return std::move(Errors);
  }

private:
  void error(const RExpr *N, const std::string &Message) {
    Errors.push_back("node " + std::to_string(N->id()) + ": " + Message);
  }

  void checkCanonical(RegionVarId R, const char *What) {
    if (Prog.Types.findRegion(R) != R)
      Errors.push_back(std::string(What) + " r" + std::to_string(R) +
                       " is not canonical");
  }

  void checkInScope(const RExpr *N, RegionVarId R, const char *What) {
    if (!Scope.contains(R))
      error(N, std::string(What) + " r" + std::to_string(R) +
                   " is not in scope");
  }

  void visit(const RExpr *N) {
    size_t Mark = Scope.mark();
    for (RegionVarId R : N->boundRegions()) {
      checkCanonical(R, "letregion-bound region");
      if (!Scope.enter(R))
        error(N, "letregion rebinds in-scope region r" + std::to_string(R));
    }

    if (N->hasWriteRegion()) {
      checkCanonical(N->writeRegion(), "write region");
      checkInScope(N, N->writeRegion(), "write region");
      if (!N->effect().count(N->writeRegion()))
        error(N, "write region missing from node effect");
    }
    for (RegionVarId R : N->readRegions()) {
      checkCanonical(R, "read region");
      checkInScope(N, R, "read region");
      if (!N->effect().count(R))
        error(N, "read region missing from node effect");
    }
    for (RegionVarId R : N->overallEffect())
      checkInScope(N, R, "overall-effect region");

    if (const auto *RA = dyn_cast<RRegAppExpr>(N)) {
      const RLetrecExpr *Callee = Prog.varInfo(RA->fn()).Letrec;
      if (!Callee) {
        error(N, "region application of a non-letrec variable");
      } else {
        if (Callee->formals().size() != RA->actuals().size())
          error(N, "region arity mismatch");
        for (RegionVarId R : RA->actuals()) {
          checkCanonical(R, "region-application actual");
          checkInScope(N, R, "region-application actual");
        }
      }
    }
    if (const auto *L = dyn_cast<RLetrecExpr>(N)) {
      std::set<RegionVarId> Formals;
      for (RegionVarId F : L->formals()) {
        checkCanonical(F, "letrec formal");
        if (!Formals.insert(F).second)
          error(N, "duplicate letrec formal r" + std::to_string(F));
        if (Scope.contains(F))
          error(N, "letrec formal r" + std::to_string(F) +
                       " shadows an in-scope region");
      }
      size_t BodyMark = Scope.mark();
      for (RegionVarId F : Formals)
        Scope.enter(F);
      visit(L->fnBody());
      Scope.leave(BodyMark);
      visit(L->body());
    } else {
      for (const RExpr *C : childrenOf(N))
        if (C)
          visit(C);
    }
    Scope.leave(Mark);
  }

  const RegionProgram &Prog;
  ScopeMask Scope;
  std::vector<std::string> Errors;
};

class CompletionValidator {
public:
  CompletionValidator(const RegionProgram &Prog, const Completion &C)
      : Prog(Prog), C(C), Scope(Prog) {}

  std::vector<std::string> run() {
    visit(Prog.Root);
    // Every op must be anchored at a node we visited.
    for (const auto &[Node, Ops] : C.Pre)
      checkAnchored(Node, Ops);
    for (const auto &[Node, Ops] : C.Post)
      checkAnchored(Node, Ops);
    for (const auto &[Node, Ops] : C.FreeApp) {
      checkAnchored(Node, Ops);
      if (Visited.count(Node) &&
          Prog.node(Node)->kind() != RExpr::Kind::App)
        Errors.push_back("free_app ops on non-application node " +
                         std::to_string(Node));
    }
    return std::move(Errors);
  }

private:
  void checkAnchored(RNodeId Node, const std::vector<COp> &Ops) {
    if (Ops.empty())
      return;
    if (!Visited.count(Node))
      Errors.push_back("completion ops on unreachable node " +
                       std::to_string(Node));
  }

  void checkOps(const RExpr *N, const std::vector<COp> *Ops) {
    if (!Ops)
      return;
    for (const COp &Op : *Ops) {
      if (!Scope.contains(Op.Region))
        Errors.push_back("node " + std::to_string(N->id()) + ": " +
                         spelling(Op.Kind) + " on out-of-scope region r" +
                         std::to_string(Op.Region));
      if (!N->overallEffect().count(Op.Region))
        Errors.push_back("node " + std::to_string(N->id()) + ": " +
                         spelling(Op.Kind) +
                         " outside the node's overall effect (r" +
                         std::to_string(Op.Region) + ")");
    }
  }

  void visit(const RExpr *N) {
    Visited.insert(N->id());
    size_t Mark = Scope.mark();
    for (RegionVarId R : N->boundRegions())
      Scope.enter(R);
    checkOps(N, C.preOps(N->id()));
    checkOps(N, C.postOps(N->id()));
    checkOps(N, C.freeAppOps(N->id()));
    if (const auto *L = dyn_cast<RLetrecExpr>(N)) {
      size_t BodyMark = Scope.mark();
      for (RegionVarId F : L->formals())
        Scope.enter(F);
      visit(L->fnBody());
      Scope.leave(BodyMark);
      visit(L->body());
    } else {
      for (const RExpr *Child : childrenOf(N))
        if (Child)
          visit(Child);
    }
    Scope.leave(Mark);
  }

  const RegionProgram &Prog;
  const Completion &C;
  ScopeMask Scope;
  std::set<RNodeId> Visited;
  std::vector<std::string> Errors;
};

} // namespace

std::vector<std::string>
regions::validateRegionProgram(const RegionProgram &Prog) {
  ProgramValidator V(Prog);
  return V.run();
}

std::vector<std::string>
regions::validateCompletion(const RegionProgram &Prog, const Completion &C) {
  CompletionValidator V(Prog, C);
  return V.run();
}

#include "closure/AbstractEnv.h"

#include <algorithm>

using namespace afl;
using namespace afl::closure;
using regions::RegionVarId;

namespace {

uint64_t hashEnv(const RegEnvMap &Map) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (const auto &[Var, C] : Map) {
    H ^= (static_cast<uint64_t>(Var) << 32) | C;
    H *= 0x100000001b3ull;
  }
  return H;
}

} // namespace

RegEnvId RegEnvTable::intern(RegEnvMap Map) {
  assert(std::is_sorted(Map.begin(), Map.end(),
                        [](const auto &A, const auto &B) {
                          return A.first < B.first;
                        }) &&
         "abstract region environments must be sorted");
  std::vector<RegEnvId> &Bucket = Index[hashEnv(Map)];
  for (RegEnvId Id : Bucket)
    if (Envs[Id] == Map)
      return Id;
  RegEnvId Id = static_cast<RegEnvId>(Envs.size());
  Envs.push_back(std::move(Map));
  Bucket.push_back(Id);
  return Id;
}

Color RegEnvTable::colorOf(RegEnvId Id, RegionVarId Var) const {
  const RegEnvMap &E = Envs[Id];
  auto It = std::lower_bound(
      E.begin(), E.end(), Var,
      [](const auto &Entry, RegionVarId V) { return Entry.first < V; });
  assert(It != E.end() && It->first == Var &&
         "region variable not in abstract environment");
  return It->second;
}

bool RegEnvTable::maps(RegEnvId Id, RegionVarId Var) const {
  const RegEnvMap &E = Envs[Id];
  auto It = std::lower_bound(
      E.begin(), E.end(), Var,
      [](const auto &Entry, RegionVarId V) { return Entry.first < V; });
  return It != E.end() && It->first == Var;
}

FlatSet<Color>
RegEnvTable::colorsOf(RegEnvId Id,
                      const std::set<RegionVarId> &Vars) const {
  FlatSet<Color> Out;
  Out.reserve(Vars.size());
  for (RegionVarId V : Vars)
    Out.insert(colorOf(Id, V));
  return Out;
}

RegEnvId RegEnvTable::restrict(RegEnvId Id,
                               const FlatSet<RegionVarId> &Keep) {
  RegEnvMap Out;
  Out.reserve(Keep.size());
  for (const auto &[Var, C] : Envs[Id])
    if (Keep.count(Var))
      Out.push_back({Var, C});
  assert(Out.size() == Keep.size() &&
         "restriction set contains unmapped region variables");
  return intern(std::move(Out));
}

RegEnvId RegEnvTable::extendFresh(RegEnvId Id, RegionVarId Var) {
  const RegEnvMap &E = Envs[Id];
  // The minimal free color is at most |E|: mark the used colors below
  // that bound and scan — no ordered set needed.
  std::vector<bool> Used(E.size() + 1, false);
  for (const auto &[V, C] : E)
    if (C < Used.size())
      Used[C] = true;
  Color Fresh = 0;
  while (Used[Fresh])
    ++Fresh;
  return extend(Id, Var, Fresh);
}

RegEnvId RegEnvTable::extend(RegEnvId Id, RegionVarId Var, Color C) {
  RegEnvMap Out = Envs[Id];
  auto It = std::lower_bound(
      Out.begin(), Out.end(), Var,
      [](const auto &Entry, RegionVarId V) { return Entry.first < V; });
  if (It != Out.end() && It->first == Var) {
    // Rebinding (e.g. a recursive instantiation reusing a formal name).
    It->second = C;
  } else {
    Out.insert(It, {Var, C});
  }
  return intern(std::move(Out));
}

namespace {

/// One color class of an environment, in canonical (smallest-member)
/// order: Map is sorted by variable, so a class's first occurrence *is*
/// its smallest member, and appending on first sight orders the classes.
struct ColorClass {
  Color C;
  bool Visible = false;
};

std::vector<ColorClass> classifyEnv(const RegEnvMap &Map,
                                    const std::set<RegionVarId> &Visible) {
  std::vector<ColorClass> Classes;
  for (const auto &[Var, C] : Map) {
    ColorClass *Cls = nullptr;
    for (ColorClass &Existing : Classes)
      if (Existing.C == C) {
        Cls = &Existing;
        break;
      }
    if (!Cls) {
      Classes.push_back({C, false});
      Cls = &Classes.back();
    }
    Cls->Visible |= Visible.count(Var) != 0;
  }
  return Classes;
}

/// The recoloring map for the invisible classes, or empty when the
/// widening does not fire (invisible-class count within the bound).
/// Identity entries are kept so "does the map contain C" means "is C an
/// invisible-class color".
std::vector<std::pair<Color, Color>>
invisibleRecoloring(const std::vector<ColorClass> &Classes, unsigned Bound) {
  size_t Invisible = 0;
  for (const ColorClass &Cls : Classes)
    if (!Cls.Visible)
      ++Invisible;
  if (Invisible <= Bound)
    return {};
  // Colors the visible classes occupy; the canonical assignment walks
  // ascending colors skipping them.
  FlatSet<Color> Reserved;
  for (const ColorClass &Cls : Classes)
    if (Cls.Visible)
      Reserved.insert(Cls.C);
  std::vector<std::pair<Color, Color>> Recolor;
  Recolor.reserve(Invisible);
  Color Next = 0;
  for (const ColorClass &Cls : Classes) {
    if (Cls.Visible)
      continue;
    while (Reserved.contains(Next))
      ++Next;
    Recolor.push_back({Cls.C, Next++});
  }
  return Recolor;
}

} // namespace

bool closure::widenRegEnvMap(RegEnvMap &Map,
                             const std::set<RegionVarId> &Visible,
                             unsigned Bound) {
  if (Bound == 0 || Map.empty())
    return false;
  std::vector<std::pair<Color, Color>> Recolor =
      invisibleRecoloring(classifyEnv(Map, Visible), Bound);
  if (Recolor.empty())
    return false;
  for (auto &[Var, C] : Map)
    for (const auto &[From, To] : Recolor)
      if (C == From) {
        C = To;
        break;
      }
  return true;
}

std::vector<RegionVarId>
closure::widenedRegEnvVars(const RegEnvMap &Map,
                           const std::set<RegionVarId> &Visible,
                           unsigned Bound) {
  if (Bound == 0 || Map.empty())
    return {};
  std::vector<std::pair<Color, Color>> Recolor =
      invisibleRecoloring(classifyEnv(Map, Visible), Bound);
  std::vector<RegionVarId> Out;
  if (Recolor.empty())
    return Out;
  // Map is sorted by variable, so collecting in order keeps Out sorted.
  for (const auto &[Var, C] : Map)
    for (const auto &[From, To] : Recolor)
      if (C == From) {
        Out.push_back(Var);
        break;
      }
  return Out;
}

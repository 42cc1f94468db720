//===----------------------------------------------------------------------===//
///
/// \file
/// Tofte/Talpin region inference [TT94]: translates a typed surface
/// program into the region-explicit IR of paper §2.
///
/// The algorithm:
///   1. decorates ML types with fresh region variables and arrow effects,
///      unifying region types structurally at applications, conditionals,
///      and cons cells;
///   2. gives letrec-bound functions region-polymorphic type schemes and
///      supports *polymorphic recursion in regions* via a fixed-point
///      iteration over the function body (recursive occurrences are
///      instantiated with fresh regions from the current scheme; iteration
///      stops when the scheme's region structure and latent effect
///      stabilize);
///   3. places `letregion` bindings at the lowest node that covers every
///      mention of a region, within each *placement domain* (the program
///      top level and each function body) — regions observable from a
///      function's type escape into the enclosing domain, exactly the
///      effect-observability criterion of [TT94];
///   4. finalizes per-node analysis annotations: canonical read/write
///      regions, letregion-masked effects, overall effects (§4.2), and the
///      free-region sets used to restrict abstract region environments.
///
//===----------------------------------------------------------------------===//

#ifndef AFL_REGIONS_REGIONINFERENCE_H
#define AFL_REGIONS_REGIONINFERENCE_H

#include "regions/RegionProgram.h"
#include "support/Diagnostics.h"
#include "types/TypeInference.h"

#include <memory>

namespace afl {
namespace ast {
class ASTContext;
class Expr;
} // namespace ast

namespace regions {

/// Runs region inference on \p Root (which must have been typed by \p
/// Typed). Returns nullptr on failure (reported to \p Diags).
std::unique_ptr<RegionProgram> inferRegions(const ast::Expr *Root,
                                            const ast::ASTContext &Ctx,
                                            const types::TypedProgram &Typed,
                                            DiagnosticEngine &Diags);

} // namespace regions
} // namespace afl

#endif // AFL_REGIONS_REGIONINFERENCE_H

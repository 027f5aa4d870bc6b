// CoresetAlgorithm: one row of the method table. A row is a compression
// method on the spectrum — one-shot sampler or streaming builder alike —
// given as its name, alias, default options and the functions that
// validate and build it. The table (in src/api/algorithms.cc) is the one
// place that says which methods exist.

#ifndef FASTCORESET_API_ALGORITHM_H_
#define FASTCORESET_API_ALGORITHM_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/api/diagnostics.h"
#include "src/api/spec.h"
#include "src/common/rng.h"
#include "src/core/coreset.h"
#include "src/geometry/matrix.h"

namespace fastcoreset {
namespace api {

/// Builds a coreset of (points, weights) targeting `m` rows, consuming
/// randomness from `rng`. `m` is passed separately from the spec so
/// streaming composition can override it per reduce call. The spec has
/// already passed Validate() and the row's validate_spec, and `weights` is
/// empty or n-sized; a build must not FC_CHECK on spec-reachable state.
/// `diag` may be nullptr; when set, the build records effective
/// parameters (j_effective) and internal stage timings.
using BuildFn = Coreset (*)(const CoresetSpec& spec, const Matrix& points,
                            const std::vector<double>& weights, size_t m,
                            Rng& rng, BuildDiagnostics* diag);

/// Method-specific spec checks on top of CoresetSpec::Validate() and the
/// options-alternative check (bico needs z == 2).
using SpecCheckFn = FcStatus (*)(const CoresetSpec& spec);

/// Method-specific *input* checks on top of the facade's common pass
/// (shape match, finite non-negative weights, positive total). They run
/// before the build so inputs the method cannot digest are reported, not
/// aborted on — e.g. bico rejects individual zero weights.
using InputCheckFn = FcStatus (*)(const Matrix& points,
                                  const std::vector<double>& weights);

/// A compression method: one constant row of the method table. Rows hold
/// no per-build state (it all flows through the arguments), so the one
/// row per method serves every caller concurrently.
struct CoresetAlgorithm {
  std::string_view name;   ///< Canonical name ("fast_coreset", ...).
  std::string_view alias;  ///< Empty when the method has none.
  /// The options alternative with every knob at its default;
  /// std::monostate for methods without knobs. A spec for this method may
  /// hold std::monostate or this alternative, nothing else.
  MethodOptions defaults;
  BuildFn build = nullptr;
  SpecCheckFn validate_spec = nullptr;    ///< nullptr accepts.
  InputCheckFn validate_input = nullptr;  ///< nullptr accepts.
};

/// Looks a method up in the method table by canonical name or alias
/// ("fast" finds fast_coreset). Unknown names are kNotFound, with the
/// canonical names listed in the message. The pointee lives for the
/// process.
FcStatusOr<const CoresetAlgorithm*> FindMethod(std::string_view name);

/// The table's canonical method names, sorted (aliases excluded).
std::vector<std::string> MethodNames();

/// The spec's options with every default resolved: std::monostate
/// becomes the method's row defaults, welterweight j = 0 becomes
/// DefaultWelterweightJ(k), and bico max_features = 0 becomes `m`, the
/// coreset size the build targets (spec.EffectiveM() for a one-shot
/// build). Specs whose resolved options and common fields agree describe
/// the same build. Expects a spec that passed api::ValidateSpec.
MethodOptions ResolvedOptions(const CoresetSpec& spec, size_t m);

}  // namespace api
}  // namespace fastcoreset

#endif  // FASTCORESET_API_ALGORITHM_H_

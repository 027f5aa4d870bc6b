// CoresetAlgorithm: the polymorphic interface every compression method on
// the spectrum implements — one-shot samplers and streaming builders
// alike — and the fixed method table that names them. The table (in
// src/api/algorithms.cc) is the one place that says which methods exist,
// their aliases, and which MethodOptions alternative each one takes.

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

/// A compression method. Implementations are stateless (all per-build
/// state flows through the arguments), so the one table instance per
/// method serves every caller concurrently.
class CoresetAlgorithm {
 public:
  virtual ~CoresetAlgorithm() = default;

  /// Canonical name from the method table ("fast_coreset", ...).
  std::string_view Name() const;

  /// The method's options alternative with every knob at its default;
  /// std::monostate for methods without knobs. A spec for this method may
  /// hold std::monostate or this alternative, nothing else.
  const MethodOptions& DefaultOptions() const;

  /// Method-specific spec checks on top of CoresetSpec::Validate() and the
  /// options-alternative check (bico needs z == 2). The default accepts.
  virtual FcStatus ValidateSpec(const CoresetSpec& spec) const;

  /// Method-specific *input* checks on top of the facade's common pass
  /// (shape match, finite non-negative weights, positive total). Runs
  /// before Build() so inputs the method cannot digest are reported, not
  /// aborted on — e.g. bico rejects individual zero weights. The default
  /// accepts.
  virtual FcStatus ValidateInput(const Matrix& points,
                                 const std::vector<double>& weights) const;

  /// Builds a coreset of (points, weights) targeting `m` rows, consuming
  /// randomness from `rng`. `m` is passed separately from the spec so
  /// streaming composition can override it per reduce call. The spec has
  /// already passed Validate() + ValidateSpec() and `weights` is empty or
  /// n-sized; implementations must not FC_CHECK on spec-reachable state.
  /// `diag` may be nullptr; when set, implementations record effective
  /// parameters (j_effective) and internal stage timings.
  virtual Coreset Build(const CoresetSpec& spec, const Matrix& points,
                        const std::vector<double>& weights, size_t m,
                        Rng& rng, BuildDiagnostics* diag) const = 0;
};

/// Looks a method up in the method table by canonical name or alias
/// ("fast" finds fast_coreset). Unknown names are kNotFound, with the
/// canonical names listed in the message. The pointee lives for the
/// process.
FcStatusOr<const CoresetAlgorithm*> FindMethod(std::string_view name);

/// The table's canonical method names, sorted (aliases excluded).
std::vector<std::string> MethodNames();

/// The spec's options with every default resolved: std::monostate
/// becomes the method's DefaultOptions(), welterweight j = 0 becomes
/// DefaultWelterweightJ(k), and bico max_features = 0 becomes `m`, the
/// coreset size the build targets (spec.EffectiveM() for a one-shot
/// build). Specs whose resolved options and common fields agree describe
/// the same build. Expects a spec that passed api::ValidateSpec.
MethodOptions ResolvedOptions(const CoresetSpec& spec, size_t m);

}  // namespace api
}  // namespace fastcoreset

#endif  // FASTCORESET_API_ALGORITHM_H_

// CoresetSpec: the one options object for the whole sampling spectrum.
//
// A spec is request-shaped: the common knobs every method understands
// (method name, k, m, z, seed, optional input weights) plus one tagged
// per-method sub-options value. It is plain data — trivially marshalled
// from a config file, CLI flags, or a server request — and validated as a
// whole before any O(nd) work starts, returning FcStatus instead of
// FC_CHECK-aborting on inconsistent requests.
//
// The spec deliberately does not include the core per-method option
// structs (FastCoresetOptions etc.): the facade owns its own stable
// surface and maps it onto the internals, so internal option churn never
// leaks into serialized specs.

#ifndef FASTCORESET_API_SPEC_H_
#define FASTCORESET_API_SPEC_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "src/api/status.h"

namespace fastcoreset {
namespace api {

/// Sub-options for "uniform" (none — the tag documents intent).
struct UniformOptions {};

/// Sub-options for "lightweight" (none).
struct LightweightOptions {};

/// Sub-options for "welterweight": the interpolation knob of the paper's
/// Section 5.2 spectrum.
struct WelterweightOptions {
  /// Candidate-solution size, 1 <= j <= k. 0 picks the paper's default
  /// ceil(log2 k). j = 1 behaves like lightweight, j = k like full
  /// sensitivity sampling.
  size_t j = 0;
};

/// Sub-options for "sensitivity" (none).
struct SensitivityOptions {};

/// Seeding algorithm choices for "fast_coreset".
enum class FastSeeder {
  kFastKMeansPlusPlus,  ///< Quadtree D^z sampling (the paper's default).
  kTreeGreedy,          ///< HST top-down greedy (Section 8.4 extension).
};

/// Sub-options for "fast_coreset" (Algorithm 1). Mirrors the method-
/// specific knobs of core FastCoresetOptions; k/m/z come from the spec.
struct FastOptions {
  bool use_jl = true;       ///< JL-project before seeding.
  double jl_eps = 0.7;      ///< JL target-dimension accuracy.
  bool use_spread_reduction = false;  ///< Crude-Approx + Reduce-Spread.
  bool center_correction = false;     ///< Algorithm 1 lines 7-8 weights.
  double correction_eps = 0.1;
  FastSeeder seeder = FastSeeder::kFastKMeansPlusPlus;
  int seeding_max_depth = 60;  ///< Quadtree depth cap, in [1, 62].
  bool seeding_full_depth_tree = false;
  bool seeding_rejection_sampling = true;
  int seeding_max_rejections = 512;
};

/// Sub-options for "group_sampling" (STOC'21 extension).
struct GroupOptions {
  double eps = 0.5;  ///< Ring-threshold parameter.
};

/// Sub-options for the streaming "bico" builder (z = 2 only).
struct BicoOptions {
  /// Clustering-feature budget before a rebuild; 0 uses the effective
  /// coreset size m.
  size_t max_features = 0;
  double initial_threshold = 0.0;  ///< 0 derives it from the first points.
  int max_depth = 16;              ///< CF-tree depth cap.
};

/// Sub-options for the streaming "stream_km" builder (none; z = 2 only).
struct StreamKmOptions {};

/// Tagged per-method sub-options. std::monostate means "the method's
/// defaults"; a non-monostate alternative must match the spec's method
/// (checked by the method's ValidateSpec), so a welterweight `j` can never
/// again silently ride into a method that ignores it.
using MethodOptions =
    std::variant<std::monostate, UniformOptions, LightweightOptions,
                 WelterweightOptions, SensitivityOptions, FastOptions,
                 GroupOptions, BicoOptions, StreamKmOptions>;

/// Short human-readable tag of a MethodOptions alternative ("default",
/// "welterweight", ...) — used in validation error messages.
std::string MethodOptionsName(const MethodOptions& options);

/// The unified build request.
struct CoresetSpec {
  /// Registry key of the compression method ("uniform", "lightweight",
  /// "welterweight", "sensitivity", "fast_coreset", "group_sampling",
  /// "bico", "stream_km", or any externally registered name/alias).
  std::string method = "fast_coreset";

  size_t k = 100;    ///< Cluster count the coreset must support.
  size_t m = 0;      ///< Coreset size; 0 picks the paper's default 40 * k.
  int z = 2;         ///< 1 = k-median, 2 = k-means.
  uint64_t seed = 1; ///< Rng seed for the seed-driven Build() entry point.

  /// Optional input weights (empty = unit). Must match the input's row
  /// count at build time.
  std::vector<double> weights;

  /// Per-method sub-options (monostate = method defaults).
  MethodOptions options;

  /// Effective coreset size: m, or the 40 * k default when m == 0.
  size_t EffectiveM() const { return m == 0 ? 40 * k : m; }

  /// Validates every method-independent invariant: k >= 1, z in {1, 2},
  /// finite non-negative weights, and the sub-option structs' own ranges
  /// (jl_eps > 0, j <= k, ...). Method-specific consistency — including
  /// "the options tag matches the method" — is checked on top by the
  /// algorithm's ValidateSpec, which Build() always runs; nothing aborts
  /// on a bad request.
  FcStatus Validate() const;
};

}  // namespace api
}  // namespace fastcoreset

#endif  // FASTCORESET_API_SPEC_H_

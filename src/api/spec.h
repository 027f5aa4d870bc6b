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
// leaks into serialized specs. Each sub-options struct names its knobs
// once, in a static Fields() list of (wire name, member) pairs; the
// request reader and the cache key are generic over that list.

#ifndef FASTCORESET_API_SPEC_H_
#define FASTCORESET_API_SPEC_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "src/api/status.h"

namespace fastcoreset {
namespace api {

// Every struct below lists its knobs once, in Fields(self, f): one
// f(wire_name, member) call per knob. The fc_serve protocol reader, its
// unknown-key check, and the service cache key all walk that list.

/// Sub-options for "welterweight": the interpolation knob of the paper's
/// Section 5.2 spectrum.
struct WelterweightOptions {
  /// Candidate-solution size, 1 <= j <= k. 0 picks the paper's default
  /// ceil(log2 k). j = 1 behaves like lightweight, j = k like full
  /// sensitivity sampling.
  size_t j = 0;

  template <typename Self, typename F>
  static void Fields(Self& self, F&& f) { f("j", self.j); }
};

/// Seeding algorithm choices for "fast_coreset".
enum class FastSeeder {
  kFastKMeansPlusPlus,  ///< Quadtree D^z sampling (the paper's default).
  kTreeGreedy,          ///< HST top-down greedy (Section 8.4 extension).
};

/// Wire names of the FastSeeder values, indexed by enumerator.
inline constexpr const char* kFastSeederNames[] = {"fast_kmeans++",
                                                   "tree_greedy"};

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

  template <typename Self, typename F>
  static void Fields(Self& self, F&& f) {
    f("use_jl", self.use_jl);
    f("jl_eps", self.jl_eps);
    f("use_spread_reduction", self.use_spread_reduction);
    f("center_correction", self.center_correction);
    f("correction_eps", self.correction_eps);
    f("seeding_max_depth", self.seeding_max_depth);
    f("seeding_full_depth_tree", self.seeding_full_depth_tree);
    f("seeding_rejection_sampling", self.seeding_rejection_sampling);
    f("seeding_max_rejections", self.seeding_max_rejections);
    f("seeder", self.seeder);
  }
};

/// Sub-options for "group_sampling" (STOC'21 extension).
struct GroupOptions {
  double eps = 0.5;  ///< Ring-threshold parameter.

  template <typename Self, typename F>
  static void Fields(Self& self, F&& f) { f("eps", self.eps); }
};

/// Sub-options for the streaming "bico" builder (z = 2 only).
struct BicoOptions {
  /// Clustering-feature budget before a rebuild; 0 uses the effective
  /// coreset size m.
  size_t max_features = 0;
  double initial_threshold = 0.0;  ///< 0 derives it from the first points.
  int max_depth = 16;              ///< CF-tree depth cap.

  template <typename Self, typename F>
  static void Fields(Self& self, F&& f) {
    f("max_features", self.max_features);
    f("initial_threshold", self.initial_threshold);
    f("max_depth", self.max_depth);
  }
};

/// Tagged per-method sub-options. std::monostate means "the method's
/// defaults" and is the only value for methods without knobs (uniform,
/// lightweight, sensitivity, stream_km). Any other alternative must be the
/// spec's method's own (api::ValidateSpec checks it against the method
/// table), so a welterweight `j` can never silently ride into a method
/// that ignores it.
using MethodOptions = std::variant<std::monostate, WelterweightOptions,
                                   FastOptions, GroupOptions, BicoOptions>;

/// The unified build request.
struct CoresetSpec {
  /// Name or alias of the compression method in the method table
  /// ("uniform", "lightweight", "welterweight", "sensitivity",
  /// "fast_coreset"/"fast", "group_sampling"/"group", "bico",
  /// "stream_km"/"streamkm"; see src/api/algorithm.h).
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
  /// "the options alternative is the method's own" — is checked on top by
  /// api::ValidateSpec, which Build() always runs; nothing aborts on a bad
  /// request.
  FcStatus Validate() const;
};

}  // namespace api
}  // namespace fastcoreset

#endif  // FASTCORESET_API_SPEC_H_

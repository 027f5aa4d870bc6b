// CoresetSpec: the one options object for the whole sampling spectrum.
//
// A spec is request-shaped: the common knobs every method understands
// (method name, k, m, z, seed, optional input weights) plus one tagged
// per-method sub-options value. It is plain data — trivially marshalled
// from a config file, CLI flags, or a server request — and validated as a
// whole before any O(nd) work starts, returning FcStatus instead of
// FC_CHECK-aborting on inconsistent requests.
//
// The per-method knob structs are the core ones (FastCoresetOptions,
// GroupSamplingOptions, BicoOptions), under one-line facade aliases. Each
// names its knobs once, in a static Fields() list of (wire name, member)
// pairs that owns the wire names; the request reader and the cache key
// are generic over that list.

#ifndef FASTCORESET_API_SPEC_H_
#define FASTCORESET_API_SPEC_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "src/api/status.h"
#include "src/core/fast_coreset.h"
#include "src/core/group_sampling.h"
#include "src/streaming/bico.h"

namespace fastcoreset {
namespace api {

/// Sub-options for "welterweight": the interpolation knob of the paper's
/// Section 5.2 spectrum. Fields() names the knob, as in the core structs.
struct WelterweightOptions {
  /// Candidate-solution size, 1 <= j <= k. 0 picks the paper's default
  /// ceil(log2 k). j = 1 behaves like lightweight, j = k like full
  /// sensitivity sampling.
  size_t j = 0;

  template <typename Self, typename F>
  static void Fields(Self& self, F&& f) { f("j", self.j); }
};

/// Sub-options for "fast_coreset" (Algorithm 1); k/m/z come from the spec.
using FastOptions = FastCoresetOptions;
/// Seeding algorithm choices for "fast_coreset".
using FastSeeder = FastCoresetSeeder;
/// Sub-options for "group_sampling" (STOC'21 extension).
using GroupOptions = GroupSamplingOptions;
/// Sub-options for the streaming "bico" builder (z = 2 only);
/// max_features = 0 uses the effective coreset size m.
using BicoOptions = ::fastcoreset::BicoOptions;

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

#include "src/api/spec.h"

#include <cmath>
#include <string>

#include "src/geometry/quadtree.h"

namespace fastcoreset {
namespace api {

namespace {

/// Range checks for each sub-option struct, independent of the method the
/// spec names (a malformed sub-option is invalid even when mismatched).
struct OptionsValidator {
  FcStatus operator()(std::monostate) const { return FcStatus::Ok(); }
  FcStatus operator()(const WelterweightOptions& o) const {
    if (o.j > k) {
      return FcStatus::InvalidArgument(
          "welterweight j (" + std::to_string(o.j) +
          ") exceeds k (" + std::to_string(k) + ")");
    }
    return FcStatus::Ok();
  }
  FcStatus operator()(const FastOptions& o) const {
    if (!(o.jl_eps > 0.0)) {
      return FcStatus::InvalidArgument("fast_coreset jl_eps must be > 0");
    }
    if (!(o.correction_eps > 0.0)) {
      return FcStatus::InvalidArgument(
          "fast_coreset correction_eps must be > 0");
    }
    if (o.seeding.max_depth < 1 || o.seeding.max_depth > Quadtree::kMaxDepth) {
      return FcStatus::InvalidArgument(
          "fast_coreset seeding_max_depth must be in [1, " +
          std::to_string(Quadtree::kMaxDepth) + "]");
    }
    if (o.seeding.max_rejections < 0) {
      return FcStatus::InvalidArgument(
          "fast_coreset seeding_max_rejections must be >= 0");
    }
    return FcStatus::Ok();
  }
  FcStatus operator()(const GroupOptions& o) const {
    // The ring construction needs (eps/8)^z < 1 < (8/eps)^z, i.e.
    // 0 < eps < 8 (enforced by FC_CHECK in the core — reject here so the
    // facade reports instead of aborting).
    if (!(o.eps > 0.0 && o.eps < 8.0)) {
      return FcStatus::InvalidArgument(
          "group_sampling eps must be in (0, 8)");
    }
    return FcStatus::Ok();
  }
  FcStatus operator()(const BicoOptions& o) const {
    if (o.max_depth < 1) {
      return FcStatus::InvalidArgument("bico max_depth must be >= 1");
    }
    if (!(o.initial_threshold >= 0.0)) {
      return FcStatus::InvalidArgument(
          "bico initial_threshold must be >= 0");
    }
    return FcStatus::Ok();
  }

  size_t k;
};

}  // namespace

FcStatus CoresetSpec::Validate() const {
  if (method.empty()) {
    return FcStatus::InvalidArgument("spec.method is empty");
  }
  if (k == 0) {
    return FcStatus::InvalidArgument("spec.k must be >= 1");
  }
  if (z != 1 && z != 2) {
    return FcStatus::InvalidArgument(
        "spec.z must be 1 (k-median) or 2 (k-means), got " +
        std::to_string(z));
  }
  if (EffectiveM() == 0) {
    return FcStatus::InvalidArgument("effective coreset size m is 0");
  }
  for (size_t i = 0; i < weights.size(); ++i) {
    if (!std::isfinite(weights[i]) || weights[i] < 0.0) {
      return FcStatus::InvalidArgument(
          "spec.weights[" + std::to_string(i) +
          "] must be finite and >= 0");
    }
  }
  return std::visit(OptionsValidator{k}, options);
}

}  // namespace api
}  // namespace fastcoreset

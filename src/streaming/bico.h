// BICO (Fichtenberger, Gillé, Schmidt, Schwiegelshohn, Sohler, ESA'13):
// BIRCH-style clustering-feature tree producing k-means coresets in a
// stream.
//
// Every tree node is a clustering feature CF = (weight, linear sum,
// sum of squared norms), enough to evaluate the 1-means error of the
// points it absorbed in O(d). A new point is routed down the tree: at
// each level it looks for a reference CF within a level radius R_i
// (halving per level); if absorbing the point keeps that CF's 1-means
// error below the global threshold T it is merged, otherwise the search
// descends (or opens a fresh CF). When the number of CFs exceeds the
// budget, T doubles and the tree is rebuilt from its own CFs.
//
// The output is one weighted point (the CF centroid) per feature. BICO is
// fast and memory-bounded, but — as the paper's Table 6 shows — the CF
// tree enforces no sensitivity lower bound, so its coreset distortion is
// frequently above 5 at the paper's coreset sizes. This reimplementation
// follows the published algorithm; the original's nearest-neighbor
// filtering heuristics are replaced by linear scans (we run at laptop
// scale).

#ifndef FASTCORESET_STREAMING_BICO_H_
#define FASTCORESET_STREAMING_BICO_H_

#include <cstdint>
#include <vector>

#include "src/core/coreset.h"
#include "src/geometry/matrix.h"

namespace fastcoreset {

/// Options for the BICO tree. Fields() names each knob once, as in
/// FastCoresetOptions.
struct BicoOptions {
  /// Maximum number of clustering features kept before a rebuild; must be
  /// >= 1 at construction. The facade resolves 0 to the coreset size m.
  size_t max_features = 0;
  /// Initial 1-means error threshold; 0 derives it from the first points.
  double initial_threshold = 0.0;
  /// Depth cap of the CF tree.
  int max_depth = 16;

  template <typename Self, typename F>
  static void Fields(Self& self, F&& f) {
    f("max_features", self.max_features);
    f("initial_threshold", self.initial_threshold);
    f("max_depth", self.max_depth);
  }
};

/// Streaming BICO compressor for k-means (z = 2 only, as in the original).
class Bico {
 public:
  explicit Bico(size_t dim, const BicoOptions& options);

  /// Inserts one point with the given weight.
  void Insert(std::span<const double> point, double weight = 1.0);

  /// Inserts every row of `points` (weights may be empty = unit).
  void InsertAll(const Matrix& points,
                 const std::vector<double>& weights = {});

  /// One weighted point per clustering feature (synthetic indices: BICO
  /// representatives are centroids, not input points).
  Coreset ExtractCoreset() const;

  size_t NumFeatures() const { return features_.size(); }
  double threshold() const { return threshold_; }
  size_t rebuilds() const { return rebuilds_; }

 private:
  /// One clustering feature plus its tree linkage.
  struct Feature {
    double weight = 0.0;
    std::vector<double> linear_sum;
    double sum_sq = 0.0;  ///< Sum of w * ||x||^2 over absorbed points.
    std::vector<double> reference;  ///< Routing anchor (first point).
    int level = 1;
    std::vector<int32_t> children;
  };

  /// 1-means error of a feature: sum_sq - ||linear_sum||^2 / weight.
  static double QuantizationError(const Feature& feature);
  /// Error of the feature after absorbing (w, p).
  double MergedError(const Feature& feature, std::span<const double> point,
                     double weight) const;

  void InsertFeature(std::span<const double> point, double weight,
                     double sum_sq);
  void Rebuild();
  double LevelRadius(int level) const;

  size_t dim_;
  BicoOptions options_;
  double threshold_;
  bool threshold_initialized_ = false;
  size_t rebuilds_ = 0;
  std::vector<Feature> features_;
  std::vector<int32_t> roots_;  ///< Level-1 features.
};

}  // namespace fastcoreset

#endif  // FASTCORESET_STREAMING_BICO_H_

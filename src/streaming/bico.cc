#include "src/streaming/bico.h"

#include <cmath>
#include <limits>

#include "src/clustering/types.h"
#include "src/geometry/distance.h"

namespace fastcoreset {

Bico::Bico(size_t dim, const BicoOptions& options)
    : dim_(dim), options_(options), threshold_(options.initial_threshold) {
  FC_CHECK_GT(dim_, 0u);
  FC_CHECK_GT(options_.max_features, 0u);
  threshold_initialized_ = threshold_ > 0.0;
}

double Bico::QuantizationError(const Feature& feature) {
  if (feature.weight <= 0.0) return 0.0;
  double norm_sq = 0.0;
  for (double s : feature.linear_sum) norm_sq += s * s;
  return feature.sum_sq - norm_sq / feature.weight;
}

double Bico::MergedError(const Feature& feature, std::span<const double> point,
                         double weight) const {
  const double new_weight = feature.weight + weight;
  double norm_sq = 0.0;
  double point_sq = 0.0;
  for (size_t j = 0; j < dim_; ++j) {
    const double s = feature.linear_sum[j] + weight * point[j];
    norm_sq += s * s;
    point_sq += point[j] * point[j];
  }
  return feature.sum_sq + weight * point_sq - norm_sq / new_weight;
}

double Bico::LevelRadius(int level) const {
  return std::sqrt(threshold_) * std::pow(0.5, level - 1);
}

void Bico::Insert(std::span<const double> point, double weight) {
  FC_CHECK_EQ(point.size(), dim_);
  FC_CHECK_GT(weight, 0.0);
  double point_sq = 0.0;
  for (double x : point) point_sq += x * x;
  InsertFeature(point, weight, weight * point_sq);
  if (features_.size() > options_.max_features) Rebuild();
}

void Bico::InsertAll(const Matrix& points, const std::vector<double>& weights) {
  FC_CHECK(weights.empty() || weights.size() == points.rows());
  for (size_t i = 0; i < points.rows(); ++i) {
    Insert(points.Row(i), WeightAt(weights, i));
  }
}

void Bico::InsertFeature(std::span<const double> point, double weight,
                         double sum_sq) {
  auto open_feature = [&](int level, std::vector<int32_t>* siblings) {
    Feature feature;
    feature.weight = weight;
    feature.linear_sum.resize(dim_);
    for (size_t j = 0; j < dim_; ++j) {
      feature.linear_sum[j] = weight * point[j];
    }
    feature.sum_sq = sum_sq;
    feature.reference.assign(point.begin(), point.end());
    feature.level = level;
    siblings->push_back(static_cast<int32_t>(features_.size()));
    features_.push_back(std::move(feature));
  };

  // Lazily derive the error threshold from the first nonzero distance seen
  // at the top level (the natural scale of the data).
  if (!threshold_initialized_ && !roots_.empty()) {
    double nearest_sq = std::numeric_limits<double>::infinity();
    for (int32_t id : roots_) {
      nearest_sq =
          std::min(nearest_sq, SquaredL2(point, features_[id].reference));
    }
    if (nearest_sq > 0.0 && std::isfinite(nearest_sq)) {
      threshold_ = nearest_sq;
      threshold_initialized_ = true;
    }
  }

  std::vector<int32_t>* siblings = &roots_;
  int level = 1;
  while (true) {
    // Nearest reference among the candidate features within the level
    // radius (linear scan; the original uses NN filtering for scale).
    int32_t best = -1;
    double best_sq = std::numeric_limits<double>::infinity();
    const double radius = LevelRadius(level);
    const double radius_sq = radius * radius;
    for (int32_t id : *siblings) {
      const double sq = SquaredL2(point, features_[id].reference);
      if (sq <= radius_sq && sq < best_sq) {
        best_sq = sq;
        best = id;
      }
    }
    if (best < 0) {
      open_feature(level, siblings);
      return;
    }
    Feature& feature = features_[best];
    if (MergedError(feature, point, weight) <= threshold_) {
      feature.weight += weight;
      for (size_t j = 0; j < dim_; ++j) {
        feature.linear_sum[j] += weight * point[j];
      }
      feature.sum_sq += sum_sq;
      return;
    }
    if (level >= options_.max_depth) {
      open_feature(level, &feature.children);
      return;
    }
    siblings = &feature.children;
    ++level;
  }
}

void Bico::Rebuild() {
  // Doubling the threshold merges more aggressively; repeat until the
  // feature budget holds (bounded, since the radius eventually spans the
  // whole data diameter and everything merges).
  for (int attempt = 0; attempt < 64; ++attempt) {
    if (features_.size() <= options_.max_features) return;
    struct Moments {
      std::vector<double> centroid;
      double weight;
      double sum_sq;
    };
    std::vector<Moments> moments;
    moments.reserve(features_.size());
    for (const Feature& feature : features_) {
      Moments m;
      m.weight = feature.weight;
      m.sum_sq = feature.sum_sq;
      m.centroid.resize(dim_);
      for (size_t j = 0; j < dim_; ++j) {
        m.centroid[j] = feature.linear_sum[j] / feature.weight;
      }
      moments.push_back(std::move(m));
    }
    features_.clear();
    roots_.clear();
    threshold_ = threshold_ > 0.0 ? threshold_ * 2.0 : 1e-12;
    threshold_initialized_ = true;
    ++rebuilds_;
    // Re-inserting a feature's centroid with its weight and sum of squares
    // reconstructs its exact moments inside whichever feature absorbs it.
    for (const Moments& m : moments) {
      InsertFeature(m.centroid, m.weight, m.sum_sq);
    }
  }
}

Coreset Bico::ExtractCoreset() const {
  Coreset coreset;
  coreset.points = Matrix(features_.size(), dim_);
  coreset.weights.reserve(features_.size());
  coreset.indices.assign(features_.size(), Coreset::kSyntheticIndex);
  for (size_t f = 0; f < features_.size(); ++f) {
    auto row = coreset.points.Row(f);
    for (size_t j = 0; j < dim_; ++j) {
      row[j] = features_[f].linear_sum[j] / features_[f].weight;
    }
    coreset.weights.push_back(features_[f].weight);
  }
  return coreset;
}

}  // namespace fastcoreset

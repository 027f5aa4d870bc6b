#include "src/clustering/kmeans_plus_plus.h"

#include <cmath>
#include <cstdint>
#include <utility>

#include "src/common/fenwick_tree.h"
#include "src/common/parallel.h"
#include "src/geometry/distance.h"

namespace fastcoreset {

namespace {

// The triangle-inequality skip. Let x be a point, a its center and c the
// new center, with D = ‖x−a‖², C = ‖c−a‖² and E = ‖x−c‖² exact. If
// C ≥ 4D then √E ≥ √C − √D ≥ √D: c cannot bring x closer. The round
// updates x iff the computed Ê = SquaredL2(x, c) is below x's stored
// D̂ = min_sq, so the skip has to prove Ê ≥ D̂ for the computed values:
//   - SquaredL2 adds d rounded squares of rounded differences, all ≥ 0,
//     so in any summation order its relative error is at most
//     γ = (d+2)u / (1 − (d+2)u), u = 2⁻⁵³; γ < 1.2e-8 for d < kMaxSkipDims.
//     Skipping when Ĉ ≥ 4(1+1e-6)·D̂ (the product rounded) then gives
//     C ≥ 4s²·D with s > 1 + 4.8e-7, so E ≥ (2s−1)²·D and
//     Ê ≥ (1−γ)(2s−1)²·D > (1+γ)·D ≥ D̂.
//   - The bound is relative, so subnormal squares break it. With
//     D̂ ≥ kMinSkipSq, the absolute error they can add (d·2⁻¹⁰⁷⁵ per sum)
//     is below 1e-35 of D̂, and Ĉ and Ê are larger still. D̂ == 0 needs
//     no bound: no Ê is below 0.
//   - An infinite Ĉ is never trusted: D̂ may have overflowed too, and
//     then only the full comparison can tell. A finite Ĉ or D̂ saw no
//     overflow, and an Ê that overflows is ≥ D̂ anyway.
//   - NaN fails every comparison, so a NaN distance is never skipped.
// The test reads only the point's own state and this round's center
// gaps, so it cannot depend on the chunk plan or the thread count.
constexpr size_t kMaxSkipDims = 100'000'000;
constexpr double kMinSkipSq = 1e-280;
constexpr double kSkipFactor = 4.0 * (1.0 + 1e-6);

/// True when a center at squared distance `center_gap_sq` from the
/// point's current center cannot improve its `min_sq`.
bool NewCenterCannotImprove(double center_gap_sq, double min_sq) {
  return std::isfinite(center_gap_sq) &&
         (min_sq == 0.0 || min_sq >= kMinSkipSq) &&
         center_gap_sq >= kSkipFactor * min_sq;
}

}  // namespace

Clustering KMeansPlusPlus(const Matrix& points,
                          const std::vector<double>& weights, size_t k,
                          int z, Rng& rng, WorkCounters* work) {
  const size_t n = points.rows();
  FC_CHECK_GT(n, 0u);
  FC_CHECK_GT(k, 0u);
  FC_CHECK(z == 1 || z == 2);
  FC_CHECK(weights.empty() || weights.size() == n);
  if (k > n) k = n;

  Clustering result;
  result.z = z;
  result.centers = Matrix(k, points.cols());
  result.assignment.assign(n, 0);

  // min_sq[i] = squared distance to the closest chosen center so far.
  std::vector<double> min_sq(n, 0.0);
  std::vector<uint8_t> chosen(n, 0);

  // First center: proportional to the weights alone.
  size_t first;
  if (weights.empty()) {
    first = rng.NextIndex(n);
  } else {
    first = rng.SampleDiscrete(weights);
  }
  chosen[first] = 1;
  result.centers.CopyRowFrom(points, first, 0);
  {
    const auto center = points.Row(first);
    ParallelFor(n, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        min_sq[i] = SquaredL2(points.Row(i), center);
      }
    });
  }

  // Sampling mass w_i * D^z(i), built once in O(n) and then maintained
  // incrementally: a new center only touches the slots whose min-distance
  // it improves, so each of the k-1 rounds pays O(changed * log n) Fenwick
  // updates plus an O(log n) total/draw — not the former O(n) mass rebuild
  // plus SampleDiscrete's O(n) re-sum.
  FenwickTree masses(size_t{0});
  {
    std::vector<double> initial(n);
    ParallelFor(n, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        const double d = z == 2 ? min_sq[i] : std::sqrt(min_sq[i]);
        initial[i] = WeightAt(weights, i) * d;
      }
    });
    masses.Assign(initial);
  }

  // The parallel distance pass records improved slots per chunk; the
  // Fenwick updates are then applied on this thread in chunk order, so
  // the tree state (and every draw) is bit-identical at any thread count.
  const size_t chunks = ParallelChunkCount(n);
  std::vector<std::vector<std::pair<size_t, double>>> improved(chunks);
  // Distance evaluations: the serial ones here, the point passes' per
  // chunk, summed once at the end.
  uint64_t distance_evals = n;  // The first center's pass.
  std::vector<uint64_t> chunk_evals(chunks, 0);
  // center_gap_sq[j] = squared distance from this round's center to
  // center j < c, the C of the skip test.
  std::vector<double> center_gap_sq(k, 0.0);
  const bool may_skip = points.cols() < kMaxSkipDims;

  for (size_t c = 1; c < k; ++c) {
    const double total = masses.Total();

    // The tree total accumulates signed update deltas, so exact-zero mass
    // can surface as a tiny positive residue. A draw from such a
    // distribution can only land on a zero-mass (already-chosen) slot —
    // the same degenerate state as total <= 0, so detect it by the
    // sampled slot's stored (exact) mass and fall through to the
    // unchosen-only draw.
    size_t next = n;
    if (total > 0.0) {
      const size_t drawn = masses.Sample(rng);
      if (masses.Get(drawn) > 0.0) next = drawn;
    }
    if (next == n) {
      // All mass sits on already-chosen centers (duplicated points). Draw
      // weight-proportionally among the *unchosen* indices only — a plain
      // redraw could return an index that is already a center, silently
      // shrinking the effective center set below k.
      std::vector<size_t> unchosen;
      unchosen.reserve(n - c);
      double unchosen_weight = 0.0;
      for (size_t i = 0; i < n; ++i) {
        if (!chosen[i]) {
          unchosen.push_back(i);
          unchosen_weight += WeightAt(weights, i);
        }
      }
      FC_DCHECK(!unchosen.empty());  // c < k <= n distinct chosen indices.
      if (unchosen_weight > 0.0 && !weights.empty()) {
        std::vector<double> sub(unchosen.size());
        for (size_t u = 0; u < unchosen.size(); ++u) {
          sub[u] = weights[unchosen[u]];
        }
        next = unchosen[rng.SampleDiscrete(sub, unchosen_weight)];
      } else {
        // Unit weights, or every unchosen point has zero weight: uniform.
        next = unchosen[rng.NextIndex(unchosen.size())];
      }
    }
    chosen[next] = 1;
    result.centers.CopyRowFrom(points, next, c);
    const auto center = result.centers.Row(c);
    for (size_t j = 0; j < c; ++j) {
      center_gap_sq[j] = SquaredL2(center, result.centers.Row(j));
    }
    distance_evals += c;
    ParallelForChunks(n, [&](size_t chunk, size_t begin, size_t end) {
      auto& batch = improved[chunk];
      batch.clear();
      uint64_t computed = 0;
      for (size_t i = begin; i < end; ++i) {
        const double gap = center_gap_sq[result.assignment[i]];
        if (may_skip && NewCenterCannotImprove(gap, min_sq[i])) {
          FC_DCHECK(!(SquaredL2(points.Row(i), center) < min_sq[i]));
          continue;
        }
        ++computed;
        const double sq = SquaredL2(points.Row(i), center);
        if (sq < min_sq[i]) {
          min_sq[i] = sq;
          result.assignment[i] = c;
          const double d = z == 2 ? sq : std::sqrt(sq);
          batch.emplace_back(i, WeightAt(weights, i) * d);
        }
      }
      chunk_evals[chunk] += computed;
    });
    for (const auto& batch : improved) {
      for (const auto& [i, mass] : batch) masses.Set(i, mass);
    }
  }

  result.point_costs.resize(n);
  result.total_cost = ParallelReduce(n, [&](size_t begin, size_t end) {
    double partial = 0.0;
    for (size_t i = begin; i < end; ++i) {
      result.point_costs[i] = z == 2 ? min_sq[i] : std::sqrt(min_sq[i]);
      partial += WeightAt(weights, i) * result.point_costs[i];
    }
    return partial;
  });
  if (work != nullptr) {
    for (uint64_t count : chunk_evals) distance_evals += count;
    work->kmeanspp_distance_evals += distance_evals;
  }
  return result;
}

}  // namespace fastcoreset

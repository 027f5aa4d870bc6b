#include "src/clustering/kmeans_plus_plus.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <utility>

#include "src/common/fenwick_tree.h"
#include "src/common/parallel.h"
#include "src/geometry/distance.h"

namespace fastcoreset {

namespace {

// Two exact tests skip the distances a new center c cannot improve. Each
// has to prove Ê ≥ D̂ for the computed values, where Ê = SquaredL2(x, c)
// is what the round would compute for a point x and D̂ = min_sq is x's
// stored distance: the round updates x iff Ê < D̂. Both rest on the same
// rounding facts:
//   - SquaredL2 adds d rounded squares of rounded differences, all ≥ 0,
//     so in any summation order its relative error is at most
//     γ = (d+2)u / (1 − (d+2)u), u = 2⁻⁵³; γ < 1.2e-8 for d < kMaxSkipDims.
//   - The bound is relative, so subnormal squares break it. With
//     D̂ ≥ kMinSkipSq, the absolute error they can add (d·2⁻¹⁰⁷⁴ per sum)
//     is below 1e-35 of D̂, and below 1e-17 of √D̂ once rooted. D̂ == 0
//     needs no bound: no Ê is below 0.
//   - An infinite gap is never trusted: D̂ may have overflowed too, and
//     then only the full comparison can tell. A finite gap or D̂ saw no
//     overflow, and an Ê that overflows is ≥ D̂ anyway.
//   - NaN fails every comparison, so a NaN never passes a test.
//
// The point test. Let a be x's center, D = ‖x−a‖², C = ‖c−a‖² and
// E = ‖x−c‖² exact. If C ≥ 4D then √E ≥ √C − √D ≥ √D: c cannot bring x
// closer. Skipping when Ĉ ≥ 4(1+1e-6)·D̂ (the product rounded) gives
// C ≥ 4s²·D with s > 1 + 4.8e-7, so E ≥ (2s−1)²·D and
// Ê ≥ (1−γ)(2s−1)²·D > (1+γ)·D ≥ D̂.
//
// The block test. A block's rows x lie within √R of its anchor o, where
// R̂ is the largest computed SquaredL2(x, o), and M̂ is the largest D̂
// over its rows. Then √E ≥ √G − √R for G = ‖o−c‖², and the block is
// skipped when √Ĝ ≥ (√R̂ + √M̂)·(1+1e-6), all of it rounded:
//   - the factor, the roots, the sum and the product each add a
//     relative error of at most u, so the exact √Ĝ ≥ (√R̂ + √M̂)(1+ε)
//     with ε > 1e-6 − 6u;
//   - with M̂ = 0 every row has D̂ = 0 and needs no bound. Otherwise
//     Ĝ ≥ M̂ ≥ kMinSkipSq, so √G ≥ √Ĝ·(1−γ), and for each row
//     √R ≤ √R̂·(1+γ) + 1e-17·√M̂ (R̂ may be subnormal: its absolute
//     error, rooted, is below 1e-17 of √kMinSkipSq);
//   - so √E ≥ √R̂·(ε − 2γ − εγ) + √M̂·(1 + ε − γ − εγ − 1e-17)
//     ≥ √M̂·(1 + ε/2), and Ê ≥ (1−γ)(1+ε/2)²·M̂ − 1e-35·M̂ > M̂ ≥ D̂.
//   - R̂ and M̂ must be upper bounds: a NaN SquaredL2 makes R̂ infinite
//     (std::max would drop it), and a D̂ that is NaN, infinite or in
//     (0, kMinSkipSq) makes M̂ infinite. An infinite bound fails the test.
// Both tests read only the point's or block's own state and this round's
// gaps, so they cannot depend on the thread count.
constexpr size_t kMaxSkipDims = 100'000'000;
constexpr double kMinSkipSq = 1e-280;
constexpr double kSkipFactor = 4.0 * (1.0 + 1e-6);
constexpr double kBlockSkipFactor = 1.0 + 1e-6;
constexpr double kInf = std::numeric_limits<double>::infinity();

// Rows per block of the block test. A constant, so the blocks depend on
// n alone.
constexpr size_t kBlockRows = 512;

/// True when a center at squared distance `center_gap_sq` from the
/// point's current center cannot improve its `min_sq`.
bool NewCenterCannotImprove(double center_gap_sq, double min_sq) {
  return std::isfinite(center_gap_sq) &&
         (min_sq == 0.0 || min_sq >= kMinSkipSq) &&
         center_gap_sq >= kSkipFactor * min_sq;
}

/// `min_sq` as the block test may bound it: itself when the rounding
/// argument covers it, else +inf.
double BlockBoundOf(double min_sq) {
  return min_sq == 0.0 || min_sq >= kMinSkipSq ? min_sq : kInf;
}

/// True when a center at squared distance `anchor_gap_sq` from a block's
/// anchor cannot improve the `min_sq` of any row of the block, whose
/// rows lie within squared distance `radius_sq` of the anchor and have
/// `min_sq` at most `max_min_sq`.
bool NewCenterCannotReachBlock(double anchor_gap_sq, double radius_sq,
                               double max_min_sq) {
  return std::isfinite(anchor_gap_sq) &&
         std::sqrt(anchor_gap_sq) >=
             (std::sqrt(radius_sq) + std::sqrt(max_min_sq)) *
                 kBlockSkipFactor;
}

/// Runs scan(b) for each block b of `blocks`, which hold `rows` rows:
/// on the pool, or inline when the substrate would not split that many
/// rows. Each block's scan writes only its own slots.
void ForEachBlock(const std::vector<size_t>& blocks, size_t rows,
                  const std::function<void(size_t)>& scan) {
  if (ParallelChunkCount(rows) > 1) {
    RunTasks(blocks.size(), 0, [&](size_t t) { scan(blocks[t]); });
  } else {
    for (size_t b : blocks) scan(b);
  }
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

  // The block test's state. Block b holds the rows [b·kBlockRows,
  // block_end(b)); its anchor is its first row. radius_sq[b] is its R̂,
  // fixed; max_min_sq[b] its M̂, kept exact by the scans of the block
  // (min_sq changes nowhere else).
  const size_t blocks = (n + kBlockRows - 1) / kBlockRows;
  const auto block_end = [n](size_t b) {
    return std::min(n, (b + 1) * kBlockRows);
  };
  const auto block_bound = [&](size_t b) {
    double bound = 0.0;
    for (size_t i = b * kBlockRows; i < block_end(b); ++i) {
      bound = std::max(bound, BlockBoundOf(min_sq[i]));
    }
    return bound;
  };
  std::vector<double> radius_sq(blocks, 0.0);
  std::vector<double> max_min_sq(blocks, 0.0);
  // The blocks a round scans; for the first center, all of them.
  std::vector<size_t> scanned(blocks);
  std::iota(scanned.begin(), scanned.end(), size_t{0});

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
    ForEachBlock(scanned, n, [&](size_t b) {
      const auto anchor = points.Row(b * kBlockRows);
      double radius = 0.0;
      for (size_t i = b * kBlockRows; i < block_end(b); ++i) {
        const auto row = points.Row(i);
        const double r = SquaredL2(row, anchor);
        radius = std::isnan(r) ? kInf : std::max(radius, r);
        min_sq[i] = SquaredL2(row, center);
      }
      radius_sq[b] = radius;
      max_min_sq[b] = block_bound(b);
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

  // A round records improved slots per block; the Fenwick updates are
  // then applied on this thread in block order, i.e. in ascending index
  // order, so the tree state (and every draw) is bit-identical at any
  // thread count.
  std::vector<std::vector<std::pair<size_t, double>>> improved(blocks);
  // Distance evaluations: the serial ones here (the first center's pass
  // and the block radii included), the point scans' per block, summed
  // once at the end.
  uint64_t distance_evals = 2 * n;
  std::vector<uint64_t> block_evals(blocks, 0);
  uint64_t rows_tested = 0;
  // center_gap_sq[j] = squared distance from this round's center to
  // center j < c, the C of the point test.
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
    distance_evals += c + blocks;

    scanned.clear();
    size_t rows = 0;
    for (size_t b = 0; b < blocks; ++b) {
      const size_t begin = b * kBlockRows;
      const double gap = SquaredL2(points.Row(begin), center);
      if (may_skip &&
          NewCenterCannotReachBlock(gap, radius_sq[b], max_min_sq[b])) {
        for (size_t i = begin; i < block_end(b); ++i) {
          FC_DCHECK(!(SquaredL2(points.Row(i), center) < min_sq[i]));
        }
        continue;
      }
      scanned.push_back(b);
      rows += block_end(b) - begin;
    }
    rows_tested += rows;

    ForEachBlock(scanned, rows, [&](size_t b) {
      auto& batch = improved[b];
      batch.clear();
      uint64_t computed = 0;
      // The block's M̂ is exact as long as no improved row held it: then
      // it only has to rise to cover the improved rows' new bounds.
      bool max_improved = false;
      double new_bound = max_min_sq[b];
      const size_t end = block_end(b);
      for (size_t i = b * kBlockRows; i < end; ++i) {
        const double gap = center_gap_sq[result.assignment[i]];
        if (may_skip && NewCenterCannotImprove(gap, min_sq[i])) {
          FC_DCHECK(!(SquaredL2(points.Row(i), center) < min_sq[i]));
        } else {
          ++computed;
          const double sq = SquaredL2(points.Row(i), center);
          if (sq < min_sq[i]) {
            max_improved |= !(BlockBoundOf(min_sq[i]) < max_min_sq[b]);
            new_bound = std::max(new_bound, BlockBoundOf(sq));
            min_sq[i] = sq;
            result.assignment[i] = c;
            const double d = z == 2 ? sq : std::sqrt(sq);
            batch.emplace_back(i, WeightAt(weights, i) * d);
          }
        }
      }
      max_min_sq[b] = max_improved ? block_bound(b) : new_bound;
      block_evals[b] += computed;
    });
    for (size_t b : scanned) {
      for (const auto& [i, mass] : improved[b]) masses.Set(i, mass);
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
    for (uint64_t count : block_evals) distance_evals += count;
    work->kmeanspp_distance_evals += distance_evals;
    work->kmeanspp_rows_tested += rows_tested;
  }
  return result;
}

}  // namespace fastcoreset

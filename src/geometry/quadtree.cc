#include "src/geometry/quadtree.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "src/common/parallel.h"
#include "src/geometry/bounding_box.h"

namespace fastcoreset {

namespace {

// A point's child code at level l + 1 packs, per dimension, the low two
// bits of its integer cell coordinate c = (x - shift) * 2^(l+1) / root_side
// (rounded down; the product is never negative because the shift lies
// below the bounding box). The scale doubles exactly from level to level,
// so c is 2c' or 2c' + 1 for the level-l coordinate c' shared by every
// point of a level-l cell, and two bits tell a cell's children apart
// without hashing full coordinates. The root is the one cell whose points
// need not share c': shifted coordinates span up to 1.5 root sides, so
// level-1 coordinates lie in [0, 3] — still two bits.
constexpr size_t kDimsPerWord = 32;

// Multiplicative hash; callers take its top bits.
uint64_t HashCode(const uint64_t* code, size_t words) {
  uint64_t h = 0;
  for (size_t w = 0; w < words; ++w) {
    h = (h ^ code[w]) * 0x9e3779b97f4a7c15ull;
  }
  return h;
}

// Reusable scratch for partitioning one cell's points by child code.
struct PartitionScratch {
  std::vector<int32_t> table;  // Open addressing: group id or -1.
  std::vector<uint32_t> first_point;  // Per group: its first point index.
  std::vector<uint32_t> size;         // Per group: its point count.
};

// Stable partition of pts[begin, end) — ascending point indices — into
// groups of equal child code, ordered by first occurrence, i.e. by the
// smallest point index in each group. Writes the group start offsets
// (relative to `begin`) to offsets[begin, begin + groups) and returns the
// group count. group_of and moved are position-indexed scratch.
size_t PartitionCell(size_t begin, size_t end, const uint64_t* codes,
                     size_t words, uint32_t* pts, uint32_t* group_of,
                     uint32_t* moved, uint32_t* offsets,
                     PartitionScratch* scratch) {
  const size_t capacity = std::bit_ceil(2 * (end - begin));  // Load <= 1/2.
  const int shift = 64 - std::countr_zero(capacity);
  const size_t mask = capacity - 1;
  if (scratch->table.size() < capacity) scratch->table.resize(capacity);
  std::fill_n(scratch->table.begin(), capacity, -1);
  scratch->first_point.clear();
  scratch->size.clear();

  for (size_t p = begin; p < end; ++p) {
    const uint64_t* code = codes + size_t{pts[p]} * words;
    size_t slot = HashCode(code, words) >> shift;
    int32_t group;
    while (true) {
      group = scratch->table[slot];
      if (group < 0) {
        group = static_cast<int32_t>(scratch->first_point.size());
        scratch->table[slot] = group;
        scratch->first_point.push_back(pts[p]);
        scratch->size.push_back(0);
        break;
      }
      const uint64_t* other =
          codes + size_t{scratch->first_point[group]} * words;
      if (std::equal(code, code + words, other)) break;
      slot = (slot + 1) & mask;
    }
    group_of[p] = static_cast<uint32_t>(group);
    ++scratch->size[group];
  }

  const size_t groups = scratch->size.size();
  uint32_t offset = 0;
  for (size_t g = 0; g < groups; ++g) {
    offsets[begin + g] = offset;
    offset += scratch->size[g];
    scratch->size[g] = offsets[begin + g];  // Now the scatter cursor.
  }
  for (size_t p = begin; p < end; ++p) {
    moved[begin + scratch->size[group_of[p]]++] = pts[p];
  }
  std::copy(moved + begin, moved + end, pts + begin);
  return groups;
}

}  // namespace

Quadtree::Quadtree(const Matrix& points, Rng& rng,
                   const QuadtreeOptions& options)
    : max_depth_(options.max_depth), full_depth_(options.full_depth) {
  FC_CHECK_GT(points.rows(), 0u);
  FC_CHECK_LT(points.rows(), size_t{INT32_MAX});
  FC_CHECK_GE(max_depth_, 1);
  FC_CHECK_LE(max_depth_, kMaxDepth);

  const BoundingBox box = ComputeBoundingBox(points);
  double base = box.MaxSide();
  if (base <= 0.0) base = 1.0;  // All points coincide; any grid works.
  root_side_ = 2.0 * base;

  // Shift each grid origin below the bounding box by a uniform offset in
  // [0, base). Every point then lies in [s_i, s_i + root_side), and the
  // offset is uniform modulo the cell side at every level >= 1, which is
  // what the separation probability of Lemma 4.3 / Lemma 2.2 needs.
  shift_.resize(points.cols());
  for (size_t j = 0; j < points.cols(); ++j) {
    shift_[j] = box.lo[j] - rng.Uniform(0.0, base);
  }

  Build(points);
}

void Quadtree::Build(const Matrix& points) {
  const size_t n = points.rows();
  const size_t d = points.cols();
  const size_t words = (d + kDimsPerWord - 1) / kDimsPerWord;

  pts_.resize(n);
  std::iota(pts_.begin(), pts_.end(), 0u);
  leaf_of_point_.assign(n, -1);
  level_ = {0};
  parent_ = {-1};
  point_begin_ = {0};
  point_end_ = {static_cast<uint32_t>(n)};
  child_begin_.clear();

  // Cells of the current level that split, in id order, and their points
  // (ascending). A cell splits while it holds two or more points (every
  // cell, in full-depth mode) and sits above max_depth.
  std::vector<int32_t> frontier;
  std::vector<uint32_t> active;
  if (full_depth_ || n >= 2) {
    frontier.push_back(0);
    active = pts_;
  } else {
    leaf_of_point_[0] = 0;
  }

  std::vector<uint64_t> codes(frontier.empty() ? 0 : n * words);
  std::vector<uint32_t> group_of(n), moved(n), offsets(n);
  std::vector<size_t> cell_start;  // Prefix sums of frontier cell sizes.
  std::vector<uint32_t> num_children;
  std::vector<int32_t> first_child;

  // Runs fn(f_begin, f_end) over the frontier cells, split across the
  // pool by point count: a cell belongs to the chunk holding its first
  // point in the frontier's concatenated point order, so the chunk plan
  // depends on the active point count alone.
  const auto for_each_cells = [&](const auto& fn) {
    ParallelFor(active.size(), [&](size_t begin, size_t end) {
      const auto first =
          std::lower_bound(cell_start.begin(), cell_start.end(), begin);
      const auto last = std::lower_bound(first, cell_start.end(), end);
      fn(static_cast<size_t>(first - cell_start.begin()),
         static_cast<size_t>(last - cell_start.begin()));
    });
  };

  int32_t level_begin = 0;
  for (int level = 0; !frontier.empty(); ++level) {
    const int child_level = level + 1;
    const double inv_side = std::pow(2.0, child_level) / root_side_;

    // Child codes, in one pass over the active points in index order.
    ParallelFor(active.size(), [&](size_t begin, size_t end) {
      const double* shift = shift_.data();
      for (size_t a = begin; a < end; ++a) {
        const uint32_t i = active[a];
        const double* row = points.Row(i).data();
        uint64_t* code = &codes[size_t{i} * words];
        for (size_t w = 0; w < words; ++w) {
          const size_t j_end = std::min(d, (w + 1) * kDimsPerWord);
          uint64_t word = 0;
          for (size_t j = w * kDimsPerWord; j < j_end; ++j) {
            const auto cell =
                static_cast<int64_t>((row[j] - shift[j]) * inv_side);
            word = word << 2 | (static_cast<uint64_t>(cell) & 3u);
          }
          code[w] = word;
        }
      }
    });

    // Partition every splitting cell into its children.
    cell_start.resize(frontier.size());
    size_t total = 0;
    for (size_t f = 0; f < frontier.size(); ++f) {
      cell_start[f] = total;
      total += point_end_[frontier[f]] - point_begin_[frontier[f]];
    }
    num_children.resize(frontier.size());
    for_each_cells([&](size_t f_begin, size_t f_end) {
      PartitionScratch scratch;
      for (size_t f = f_begin; f < f_end; ++f) {
        const int32_t v = frontier[f];
        num_children[f] = static_cast<uint32_t>(PartitionCell(
            point_begin_[v], point_end_[v], codes.data(), words, pts_.data(),
            group_of.data(), moved.data(), offsets.data(), &scratch));
      }
    });

    // Children get consecutive ids, in parent order.
    const auto level_end = static_cast<int32_t>(level_.size());
    first_child.resize(frontier.size());
    int64_t next = level_end;
    size_t f = 0;
    for (int32_t v = level_begin; v < level_end; ++v) {
      child_begin_.push_back(static_cast<int32_t>(next));
      if (f < frontier.size() && frontier[f] == v) {
        first_child[f] = static_cast<int32_t>(next);
        next += num_children[f];
        ++f;
      }
    }
    FC_CHECK_LE(next, int64_t{INT32_MAX});  // Node ids are int32_t.
    const auto children_end = static_cast<int32_t>(next);
    level_.resize(children_end, static_cast<uint8_t>(child_level));
    parent_.resize(children_end);
    point_begin_.resize(children_end);
    point_end_.resize(children_end);

    const auto is_leaf_size = [&](uint32_t size) {
      return child_level == max_depth_ || (!full_depth_ && size == 1);
    };
    for_each_cells([&](size_t f_begin, size_t f_end) {
      for (size_t f = f_begin; f < f_end; ++f) {
        const int32_t v = frontier[f];
        const uint32_t begin = point_begin_[v];
        const uint32_t end = point_end_[v];
        for (uint32_t g = 0; g < num_children[f]; ++g) {
          const int32_t child = first_child[f] + static_cast<int32_t>(g);
          const uint32_t child_begin = begin + offsets[begin + g];
          const uint32_t child_end =
              g + 1 < num_children[f] ? begin + offsets[begin + g + 1] : end;
          parent_[child] = v;
          point_begin_[child] = child_begin;
          point_end_[child] = child_end;
          if (is_leaf_size(child_end - child_begin)) {
            for (uint32_t p = child_begin; p < child_end; ++p) {
              leaf_of_point_[pts_[p]] = child;
            }
          }
        }
      }
    });

    frontier.clear();
    for (int32_t child = level_end; child < children_end; ++child) {
      if (!is_leaf_size(point_end_[child] - point_begin_[child])) {
        frontier.push_back(child);
      }
    }
    std::erase_if(active, [&](uint32_t i) { return leaf_of_point_[i] >= 0; });
    level_begin = level_end;
  }
  child_begin_.resize(level_.size() + 1, static_cast<int32_t>(level_.size()));
}

double Quadtree::CellSide(int level) const {
  return root_side_ * std::pow(0.5, level);
}

double Quadtree::TreeDistanceAtLevel(int level) const {
  // Geometric sum of the down-path edge lengths (sqrt(d) * cell side per
  // level) on both sides of the LCA.
  return 2.0 * std::sqrt(static_cast<double>(dim())) * CellSide(level);
}

int Quadtree::LcaLevel(size_t point_a, size_t point_b) const {
  int32_t a = leaf_of_point_[point_a];
  int32_t b = leaf_of_point_[point_b];
  if (a == b) return max_depth_;
  while (level_[a] > level_[b]) a = parent_[a];
  while (level_[b] > level_[a]) b = parent_[b];
  while (a != b) {
    a = parent_[a];
    b = parent_[b];
  }
  return level_[a];
}

double Quadtree::TreeDistance(size_t point_a, size_t point_b) const {
  if (leaf_of_point_[point_a] == leaf_of_point_[point_b]) {
    // Co-located at max depth: the tree cannot distinguish them.
    return 0.0;
  }
  return TreeDistanceAtLevel(LcaLevel(point_a, point_b));
}

}  // namespace fastcoreset

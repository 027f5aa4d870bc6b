#include "src/clustering/tree_greedy.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <queue>
#include <tuple>

#include "src/clustering/kmedian.h"
#include "src/geometry/distance.h"
#include "src/geometry/quadtree.h"

namespace fastcoreset {

namespace {

double WeightAt(const std::vector<double>& weights, size_t i) {
  return weights.empty() ? 1.0 : weights[i];
}

// Position of each cell in the order in which inserting points 0..n-1 one
// at a time (a leaf splits when a second point reaches it) would create
// the cells of `tree` (an adaptive one). The frontier breaks priority ties
// by it, so results do not depend on how the tree numbers its cells. A
// cell c with parent P is created
//   - while inserting P's second-smallest point, if c holds P's smallest
//     one (P's split pushes that point down a level at a time);
//   - while inserting its own smallest point, otherwise;
// and within one insertion by level, the earlier point's cell first.
std::vector<uint64_t> InsertionRanks(const Quadtree& tree) {
  const size_t num_nodes = tree.num_nodes();
  std::vector<uint32_t> smallest(num_nodes), second(num_nodes);
  for (size_t id = num_nodes; id-- > 0;) {
    const auto v = static_cast<int32_t>(id);
    if (tree.is_leaf(v)) {
      const auto points = tree.points(v);
      smallest[id] = points[0];
      second[id] = points.size() > 1 ? points[1] : UINT32_MAX;
    } else {
      // Children are ordered by their smallest point.
      const auto children = tree.children(v);
      const int32_t first = children.front();
      smallest[id] = smallest[first];
      second[id] = children.size() > 1
                       ? std::min(second[first], smallest[first + 1])
                       : second[first];
    }
  }
  std::vector<uint64_t> rank(num_nodes, 0);  // The root comes first.
  for (size_t id = 1; id < num_nodes; ++id) {
    const auto v = static_cast<int32_t>(id);
    const bool pushed_down = smallest[id] == smallest[tree.parent(v)];
    const uint64_t inserted =
        pushed_down ? second[tree.parent(v)] : smallest[id];
    rank[id] = inserted << 7 | static_cast<uint64_t>(tree.level(v)) << 1 |
               (pushed_down ? 0u : 1u);
  }
  return rank;
}

}  // namespace

Clustering TreeGreedySeeding(const Matrix& points,
                             const std::vector<double>& weights, size_t k,
                             const TreeGreedyOptions& options, Rng& rng) {
  const size_t n = points.rows();
  FC_CHECK_GT(n, 0u);
  FC_CHECK_GT(k, 0u);
  FC_CHECK(options.z == 1 || options.z == 2);
  FC_CHECK(weights.empty() || weights.size() == n);

  Quadtree tree(points, rng, options.max_depth);

  // Subtree weights, bottom-up. Children always have larger ids than
  // their parent, so reverse id order is a valid topological order.
  std::vector<double> subtree_weight(tree.num_nodes(), 0.0);
  for (size_t id = tree.num_nodes(); id-- > 0;) {
    const auto v = static_cast<int32_t>(id);
    for (uint32_t p : tree.points(v)) {
      subtree_weight[id] += WeightAt(weights, p);
    }
    for (int32_t child : tree.children(v)) {
      subtree_weight[id] += subtree_weight[child];
    }
  }

  // Greedy splitting: priority = weight * (cell tree-diameter)^z, an upper
  // bound on the cost of serving the whole group from one center.
  auto bound = [&](int32_t v) {
    if (tree.is_leaf(v)) {
      return 0.0;  // A leaf cannot be improved by splitting.
    }
    const double diameter = tree.TreeDistanceAtLevel(tree.level(v));
    return subtree_weight[v] *
           (options.z == 2 ? diameter * diameter : diameter);
  };

  // (priority, insertion rank, node id); equal priorities are common
  // (sibling singletons), and the rank orders them.
  const std::vector<uint64_t> rank = InsertionRanks(tree);
  using Entry = std::tuple<double, uint64_t, int32_t>;
  std::priority_queue<Entry> frontier;
  const auto push = [&](int32_t v) { frontier.emplace(bound(v), rank[v], v); };
  push(tree.root());
  std::vector<int32_t> groups;
  while (groups.size() + frontier.size() < k && !frontier.empty()) {
    const auto [priority, unused_rank, v] = frontier.top();
    frontier.pop();
    if (priority <= 0.0) {
      groups.push_back(v);  // Unsplittable; keep as a final group.
      continue;
    }
    // Replace v by its occupied children (an internal node holds no
    // points of its own).
    for (int32_t child : tree.children(v)) push(child);
  }
  while (!frontier.empty()) {
    groups.push_back(std::get<2>(frontier.top()));
    frontier.pop();
  }

  // Materialize clusters: DFS each group subtree to collect its points.
  Clustering result;
  result.z = options.z;
  result.assignment.assign(n, 0);
  std::vector<std::vector<size_t>> members(groups.size());
  std::vector<int32_t> stack;
  for (size_t g = 0; g < groups.size(); ++g) {
    stack.clear();
    stack.push_back(groups[g]);
    while (!stack.empty()) {
      const int32_t v = stack.back();
      stack.pop_back();
      for (uint32_t p : tree.points(v)) {
        members[g].push_back(p);
        result.assignment[p] = g;
      }
      for (int32_t child : tree.children(v)) stack.push_back(child);
    }
  }

  // Drop empty groups (possible when k exceeds occupied leaves).
  std::vector<std::vector<size_t>> occupied;
  for (auto& group : members) {
    if (!group.empty()) occupied.push_back(std::move(group));
  }
  result.centers = Matrix(occupied.size(), points.cols());
  for (size_t g = 0; g < occupied.size(); ++g) {
    auto center = result.centers.Row(g);
    if (options.z == 2) {
      double total = 0.0;
      for (size_t idx : occupied[g]) {
        const double w = WeightAt(weights, idx);
        total += w;
        const auto row = points.Row(idx);
        for (size_t j = 0; j < points.cols(); ++j) center[j] += w * row[j];
      }
      FC_CHECK_GT(total, 0.0);
      for (size_t j = 0; j < points.cols(); ++j) center[j] /= total;
    } else {
      const std::vector<double> median =
          GeometricMedian(points, weights, occupied[g]);
      for (size_t j = 0; j < points.cols(); ++j) center[j] = median[j];
    }
    for (size_t idx : occupied[g]) result.assignment[idx] = g;
  }

  result.point_costs.resize(n);
  result.total_cost = 0.0;
  for (size_t i = 0; i < n; ++i) {
    result.point_costs[i] =
        DistPow(points.Row(i), result.centers.Row(result.assignment[i]),
                options.z);
    result.total_cost += WeightAt(weights, i) * result.point_costs[i];
  }
  return result;
}

}  // namespace fastcoreset

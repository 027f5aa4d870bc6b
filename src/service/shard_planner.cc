#include "src/service/shard_planner.h"

#include <string>
#include <utility>

#include "src/api/fastcoreset.h"
#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/common/timer.h"

namespace fastcoreset {
namespace service {

namespace {

/// Returns the shard's rows as a dense matrix plus (when the request is
/// weighted) the matching weight slice.
Matrix SliceRows(const Matrix& points, const ShardRange& range) {
  Matrix slice(range.rows(), points.cols());
  for (size_t r = range.begin; r < range.end; ++r) {
    slice.CopyRowFrom(points, r, r - range.begin);
  }
  return slice;
}

/// One shard task's product (tasks cannot return a status — each records
/// it in its own slot for the join; slots are written by exactly one
/// task). Diagnostics go straight into the result's ShardDiagnostics
/// slot.
struct ShardOutcome {
  api::FcStatus status;  ///< Ok unless this shard's build failed.
  Coreset coreset;       ///< Indices already remapped to dataset rows.
};

}  // namespace

uint64_t DeriveBuildSeed(uint64_t base_seed, uint64_t domain, uint64_t index) {
  return SplitMix64(base_seed ^ SplitMix64(domain ^ SplitMix64(index)));
}

size_t EffectiveShardCount(size_t rows, size_t requested) {
  // fc-lint: allow(no-abort-in-service): the service rejects shards == 0
  // with InvalidArgument before planning (service.cc), so zero here is a
  // programmer error, not request data.
  FC_CHECK_GT(requested, 0u);
  if (rows == 0) return 1;
  return requested < rows ? requested : rows;
}

std::vector<ShardRange> PlanShards(size_t rows, size_t requested) {
  const size_t shards = EffectiveShardCount(rows, requested);
  std::vector<ShardRange> plan(shards);
  const size_t base = rows / shards;
  const size_t remainder = rows % shards;
  size_t begin = 0;
  for (size_t i = 0; i < shards; ++i) {
    const size_t size = base + (i < remainder ? 1 : 0);
    plan[i] = {begin, begin + size};
    begin += size;
  }
  return plan;
}

api::FcStatusOr<ShardedBuildResult> BuildSharded(const api::CoresetSpec& spec,
                                                 const Matrix& points,
                                                 size_t shard_count,
                                                 size_t parallelism) {
  if (shard_count == 0) {
    return api::FcStatus::InvalidArgument("shard count must be >= 1");
  }
  if (points.rows() == 0 || points.cols() == 0) {
    return api::FcStatus::InvalidArgument("input has no points");
  }
  if (!spec.weights.empty() && spec.weights.size() != points.rows()) {
    return api::FcStatus::InvalidArgument(
        "spec.weights size (" + std::to_string(spec.weights.size()) +
        ") does not match dataset rows (" + std::to_string(points.rows()) +
        ")");
  }

  const std::vector<ShardRange> plan = PlanShards(points.rows(), shard_count);
  const size_t shards = plan.size();

  // Per-shard result slots: shard tasks write only their own index (and
  // their own ShardDiagnostics), so concurrent execution needs no locking
  // here, and the merge reads them in fixed shard order after the join.
  Timer wall;
  ShardedBuildResult result;
  ShardedBuildDiagnostics& diag = result.diagnostics;
  std::vector<ShardOutcome> built(shards);
  diag.shards.resize(shards);
  for (size_t i = 0; i < shards; ++i) {
    ShardDiagnostics& slot = diag.shards[i];
    slot.index = i;
    slot.row_begin = plan[i].begin;
    slot.row_end = plan[i].end;
    // With a single shard the request IS a plain one-shot build; derived
    // seeds start mattering once there is more than one rng to keep
    // apart.
    slot.seed = shards == 1 ? spec.seed
                            : DeriveBuildSeed(spec.seed, kShardSeedDomain, i);
  }
  diag.has_merge = shards > 1;

  // Fork: one independent build per shard on the pool, each internally
  // parallel on its fixed slice of the pool. The schedule decides only
  // WHEN a shard builds: seeds are derived per shard and the merge
  // consumes shard coresets in fixed shard order, so concurrent
  // execution is bit-identical to the sequential walk.
  diag.parallelism = EffectiveParallelism(parallelism);
  RunTasks(shards, diag.parallelism,
           [&spec, &points, &plan, &built, &diag, &wall](size_t i) {
             ShardDiagnostics& slot = diag.shards[i];
             slot.start_seconds = wall.Seconds();
             api::CoresetSpec sub_spec = spec;
             sub_spec.seed = slot.seed;
             if (!spec.weights.empty()) {
               sub_spec.weights.assign(spec.weights.begin() + plan[i].begin,
                                       spec.weights.begin() + plan[i].end);
             }
             api::FcStatusOr<api::BuildResult> shard_built =
                 api::Build(sub_spec, SliceRows(points, plan[i]));
             if (!shard_built.ok()) {
               built[i].status = shard_built.status();
             } else {
               // Shard-local indices -> dataset rows.
               for (size_t& index : shard_built->coreset.indices) {
                 if (index != Coreset::kSyntheticIndex) index += plan[i].begin;
               }
               built[i].coreset = std::move(shard_built->coreset);
               slot.build = std::move(shard_built->diagnostics);
             }
             slot.end_seconds = wall.Seconds();
           });

  // Join: the first failed shard's status wins (matching the sequential
  // walk) and makes the merge moot.
  for (size_t i = 0; i < shards; ++i) {
    if (!built[i].status.ok()) return built[i].status;
  }
  if (shards == 1) {
    result.coreset = std::move(built[0].coreset);
  } else {
    // Merge: one more api::Build on the caller, which has the whole pool
    // again, over the weighted union of the shard coresets in fixed
    // shard order (that union is itself a coreset of the dataset, so one
    // reduce suffices). Zero-weight rows carry no mass and some methods
    // (bico's CF tree) reject them, so they are left out.
    // `union_to_dataset` maps union rows back to original dataset rows.
    api::CoresetSpec merge_spec = spec;
    merge_spec.weights.clear();
    merge_spec.seed = DeriveBuildSeed(spec.seed, kMergeSeedDomain, shards);
    Matrix shard_union;
    std::vector<size_t> union_to_dataset;
    for (size_t i = 0; i < shards; ++i) {
      const Coreset& shard = built[i].coreset;
      std::vector<size_t> keep;
      for (size_t r = 0; r < shard.size(); ++r) {
        if (shard.weights[r] <= 0.0) continue;
        keep.push_back(r);
        union_to_dataset.push_back(shard.indices[r]);
        merge_spec.weights.push_back(shard.weights[r]);
      }
      shard_union.AppendRows(shard.points.SelectRows(keep));
    }
    api::FcStatusOr<api::BuildResult> merged =
        api::Build(merge_spec, shard_union);
    if (!merged.ok()) return merged.status();
    for (size_t& index : merged->coreset.indices) {
      if (index != Coreset::kSyntheticIndex) {
        index = union_to_dataset[index];
      }
    }
    result.coreset = std::move(merged->coreset);
    diag.merge = std::move(merged->diagnostics);
  }
  diag.critical_path_seconds = wall.Seconds();

  // The shards partition the rows; the merge reduces their union once.
  diag.points_processed = points.rows() + diag.merge.points_processed;
  diag.bytes_processed =
      diag.points_processed * points.cols() * sizeof(double);
  return result;
}

}  // namespace service
}  // namespace fastcoreset

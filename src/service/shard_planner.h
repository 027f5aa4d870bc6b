// ShardPlanner: sharded coreset builds via one reduce of the shard union.
//
// The paper's composability property — the weighted union of coresets of
// disjoint parts is a coreset of the whole — is what makes sharded
// serving correct: the dataset is split into contiguous row-range
// shards, each shard is compressed independently (one api::Build per
// shard, on the persistent thread pool), and the positive-weight rows of
// the shard coresets, concatenated in shard order, are compressed once
// more by a single api::Build (the merge) into the final size-m
// coreset, whose indices still refer to the original dataset rows.
//
// Execution is a fork-join (RunTasks, src/common/parallel.h): the shard
// builds run as one dispatch on the persistent pool, up to `parallelism`
// at once, each shard's inner chunk dispatches capped to a fixed slice
// of the pool (GetNumThreads() / shards in flight); after the join the
// merge runs on the caller with the whole pool.
//
// Diagnostics: every build writes its accounting in place into the
// result's ShardedBuildDiagnostics — each shard its own ShardDiagnostics
// slot, the merge the merge record (its build's own BuildDiagnostics) —
// and ServiceDiagnostics extends that struct, so the numbers reach the
// wire without being copied from struct to struct.
//
// Determinism contract: each shard's build seeds a fresh Rng with
// DeriveBuildSeed(spec.seed, kShardSeedDomain, shard_index), the merge
// build gets its own derived seed, and the merge consumes shard coresets
// in fixed shard order — so a (seed, shard_count) pair fully determines
// the result, bit-identically at any FC_THREADS and any parallelism
// budget: concurrent shard execution equals the sequential walk
// (parallelism = 1) exactly. Different shard counts are different (all
// valid) coresets.

#ifndef FASTCORESET_SERVICE_SHARD_PLANNER_H_
#define FASTCORESET_SERVICE_SHARD_PLANNER_H_

#include <cstdint>
#include <vector>

#include "src/api/diagnostics.h"
#include "src/api/spec.h"
#include "src/api/status.h"
#include "src/geometry/matrix.h"

namespace fastcoreset {
namespace service {

/// One contiguous row range [begin, end) of the dataset.
struct ShardRange {
  size_t begin = 0;
  size_t end = 0;
  size_t rows() const { return end - begin; }
};

/// Seed-derivation domains (so a shard seed can never collide with the
/// merge seed of the same request).
inline constexpr uint64_t kShardSeedDomain = 0x5348415244ull;  // "SHARD"
inline constexpr uint64_t kMergeSeedDomain = 0x4d45524745ull;  // "MERGE"

/// SplitMix64-mixed child seed: deterministic, and well-spread even for
/// adjacent base seeds / indices.
uint64_t DeriveBuildSeed(uint64_t base_seed, uint64_t domain, uint64_t index);

/// Shard count actually used for `rows`: `requested` clamped to the row
/// count (a shard must own at least one row). Requires requested >= 1.
size_t EffectiveShardCount(size_t rows, size_t requested);

/// Near-equal contiguous partition of [0, rows) into
/// EffectiveShardCount(rows, requested) ranges, in row order. The
/// partition depends only on (rows, requested) — it is part of the cache
/// identity of a sharded build.
std::vector<ShardRange> PlanShards(size_t rows, size_t requested);

/// What one shard's build did: its range, its derived seed, the full
/// per-build diagnostics (stage times included), and where its execution
/// sat on the request's wall clock. With concurrent shards the
/// [start_seconds, end_seconds) windows OVERLAP — summing per-shard
/// durations gives CPU-side work, not elapsed time.
struct ShardDiagnostics {
  size_t index = 0;
  size_t row_begin = 0;
  size_t row_end = 0;
  uint64_t seed = 0;
  /// Offsets from the sharded build's start at which this shard's build
  /// began and finished executing.
  double start_seconds = 0.0;
  double end_seconds = 0.0;
  api::BuildDiagnostics build;
};

/// What a sharded build did — the one record of it. The service's
/// per-request diagnostics extend this struct rather than copying it.
struct ShardedBuildDiagnostics {
  std::vector<ShardDiagnostics> shards;  ///< One entry per shard, in order.
  bool has_merge = false;                ///< True when shards > 1.
  /// The merge build's own diagnostics when has_merge: input_rows is the
  /// positive-weight shard-coreset rows it reduced.
  api::BuildDiagnostics merge;
  size_t parallelism = 0;  ///< Effective shard-concurrency budget.
  size_t points_processed = 0;  ///< Shard rows + merge input rows.
  size_t bytes_processed = 0;   ///< points_processed * dims * sizeof(double).
  /// Wall clock of the whole sharded build — the critical path through
  /// the overlapped shard windows plus the merge, NOT the per-shard sum.
  double critical_path_seconds = 0.0;
};

/// A sharded build's product, shaped like api::BuildResult.
struct ShardedBuildResult {
  Coreset coreset;  ///< Indices refer to the original dataset rows.
  ShardedBuildDiagnostics diagnostics;
};

/// Runs the full sharded pipeline: plan, per-shard api::Build with derived
/// seeds run as concurrent tasks, and, after they join, one api::Build of
/// the weighted shard-coreset union as the merge. spec.weights (when
/// non-empty) must match points.rows() and is sliced per shard.
/// `parallelism` caps how many shards build at once (0 = all workers;
/// 1 = the sequential reference walk); it never changes the result, only
/// the schedule. All request-level failures come back as a
/// status; nothing aborts.
api::FcStatusOr<ShardedBuildResult> BuildSharded(const api::CoresetSpec& spec,
                                                 const Matrix& points,
                                                 size_t shard_count,
                                                 size_t parallelism = 0);

}  // namespace service
}  // namespace fastcoreset

#endif  // FASTCORESET_SERVICE_SHARD_PLANNER_H_

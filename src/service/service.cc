#include "src/service/service.h"

#include <memory>
#include <utility>

#include "src/common/parallel.h"
#include "src/common/timer.h"
#include "src/service/fingerprint.h"
#include "src/service/spec_key.h"

namespace fastcoreset {
namespace service {

api::FcStatusOr<BuildResponse> CoresetService::Build(
    const BuildRequest& request) {
  Timer timer;
  if (request.shards == 0) {
    return api::FcStatus::InvalidArgument("shards must be >= 1");
  }
  if (request.parallelism > MaxParallelism()) {
    return api::FcStatus::InvalidArgument(
        "parallelism (" + std::to_string(request.parallelism) +
        ") exceeds the maximum worker budget (" +
        std::to_string(MaxParallelism()) + ")");
  }
  api::FcStatus status = api::ValidateSpec(request.spec);
  if (!status.ok()) return status;

  // The shared snapshot pins the dataset for the whole build even if a
  // concurrent Remove() unbinds the name.
  api::FcStatusOr<std::shared_ptr<const DatasetEntry>> dataset =
      store_.Get(request.dataset);
  if (!dataset.ok()) return dataset.status();
  const Matrix& points = dataset.value()->points;
  if (!request.spec.weights.empty() &&
      request.spec.weights.size() != points.rows()) {
    return api::FcStatus::InvalidArgument(
        "spec.weights size (" + std::to_string(request.spec.weights.size()) +
        ") does not match dataset '" + request.dataset + "' rows (" +
        std::to_string(points.rows()) + ")");
  }

  const size_t shards = EffectiveShardCount(points.rows(), request.shards);
  api::FcStatusOr<std::string> spec_key = CanonicalSpecKey(request.spec);
  if (!spec_key.ok()) return spec_key.status();

  ServiceDiagnostics diag;
  diag.dataset = request.dataset;
  diag.dataset_fingerprint = dataset.value()->fingerprint;
  diag.cache_key = "ds=" + FingerprintHex(dataset.value()->fingerprint) +
                   ";" + spec_key.value() + ";shards=" +
                   std::to_string(shards);
  diag.shard_count = shards;

  const bool caching = request.use_cache && options_.cache_capacity > 0;
  if (caching) {
    if (std::shared_ptr<const CachedBuild> cached =
            cache_.Lookup(diag.cache_key)) {
      // Hit: share the stored entry, copying nothing. shards stays
      // empty and points_processed/build_seconds stay 0 — this request
      // did no build work, and the diagnostics prove it.
      diag.cache_status = "hit";
      diag.total_seconds = timer.Seconds();
      return BuildResponse(std::move(cached), std::move(diag));
    }
    diag.cache_status = "miss";
  } else {
    diag.cache_status = "bypass";
  }

  api::FcStatusOr<ShardedBuildResult> built =
      BuildSharded(request.spec, points, shards, request.parallelism);
  if (!built.ok()) return built.status();
  static_cast<ShardedBuildDiagnostics&>(diag) = std::move(built->diagnostics);
  // Summed CPU-side work: with concurrent shards this exceeds
  // critical_path_seconds — exactly the point of the comparison.
  for (const ShardDiagnostics& shard : diag.shards) {
    diag.build_seconds += shard.build.total_seconds;
  }
  if (diag.has_merge) diag.build_seconds += diag.merge.total_seconds;

  // The coreset moves into the entry, whose constructor derives the
  // fingerprint and total weight once, outside the cache mutex. A bypass
  // builds the same record and does not insert it.
  auto entry = std::make_shared<const CachedBuild>(
      diag.cache_key, diag.dataset_fingerprint, std::move(built->coreset));
  if (caching) cache_.Insert(entry);

  diag.total_seconds = timer.Seconds();
  return BuildResponse(std::move(entry), std::move(diag));
}

void CoresetService::ReportTransportLoad(size_t queue_depth,
                                         size_t sessions_active) {
  queue_depth_.store(queue_depth, std::memory_order_relaxed);
  sessions_active_.store(sessions_active, std::memory_order_relaxed);
}

void CoresetService::AddTransportRejections(uint64_t count) {
  requests_rejected_.fetch_add(count, std::memory_order_relaxed);
}

CoresetService::TransportStats CoresetService::TransportLoad() const {
  return {queue_depth_.load(std::memory_order_relaxed),
          sessions_active_.load(std::memory_order_relaxed),
          requests_rejected_.load(std::memory_order_relaxed)};
}

api::FcStatusOr<size_t> CoresetService::EvictDataset(
    const std::string& name) {
  api::FcStatusOr<std::shared_ptr<const DatasetEntry>> dataset =
      store_.Get(name);
  if (!dataset.ok()) return dataset.status();
  return cache_.EvictDataset(dataset.value()->fingerprint);
}

}  // namespace service
}  // namespace fastcoreset

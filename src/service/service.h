// CoresetService: the long-lived, request-driven front over the one-shot
// api::Build. It composes the service-layer parts — DatasetStore (named
// data + content fingerprints), ShardPlanner (deterministic sharded
// builds), CoresetCache (LRU over completed builds) — into
// one entry point: validate the request, resolve the dataset, consult the
// cache, build on miss, and return the coreset with diagnostics that say
// exactly what the request cost (and what a cache hit saved).
// tools/fc_serve.cc exposes this over newline-delimited JSON.

#ifndef FASTCORESET_SERVICE_SERVICE_H_
#define FASTCORESET_SERVICE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "src/api/fastcoreset.h"
#include "src/service/coreset_cache.h"
#include "src/service/dataset_store.h"
#include "src/service/shard_planner.h"

namespace fastcoreset {
namespace service {

struct ServiceOptions {
  /// LRU capacity in cached builds. 0 disables caching (every request
  /// reports cache="bypass").
  size_t cache_capacity = 32;
};

/// One build request: a registered dataset by name, a CoresetSpec, and
/// the shard count. Requests are plain data — the JSON protocol marshals
/// into this struct and nothing else.
struct BuildRequest {
  std::string dataset;
  api::CoresetSpec spec;
  size_t shards = 1;
  /// Parallelism budget for the sharded build: caps how many shards
  /// build concurrently (0 = all workers, GetNumThreads()); each of the
  /// E = min(budget, shards) concurrent shards gets a fixed
  /// GetNumThreads() / E slice of the pool for its inner loops. 1 = the
  /// sequential reference walk — one shard at a time, each on the full
  /// pool. Validated against MaxParallelism();
  /// NEVER part of the cache key, because the budget only changes the
  /// schedule — the result is bit-identical at any value.
  size_t parallelism = 0;
  /// false skips both cache lookup and insertion (cache="bypass") — for
  /// measurements and cache-busting rebuilds.
  bool use_cache = true;
};

/// What the service did for one request: the planner's sharded-build
/// record (shard windows, merge accounting, parallelism budget, volumes,
/// critical path) plus the service's own fields. On a cache hit the
/// inherited record stays empty — no shards, zero points_processed and
/// parallelism — the proof that no rebuild happened.
struct ServiceDiagnostics : ShardedBuildDiagnostics {
  std::string dataset;
  uint64_t dataset_fingerprint = 0;
  std::string cache_key;     ///< Full composite key the cache used.
  std::string cache_status;  ///< "hit" | "miss" | "bypass".
  size_t shard_count = 1;    ///< Effective (clamped) shard count.
  /// Summed CPU-side build work: Σ shard build seconds + merge seconds.
  /// With concurrent shards this EXCEEDS elapsed time — compare against
  /// critical_path_seconds to see the overlap.
  double build_seconds = 0.0;
  double total_seconds = 0.0;  ///< Request wall clock (lookup included).
};

/// A request's product: the shared, immutable record of the build plus
/// what this request did. A hit hands out the cache's own entry, a miss
/// the entry it just inserted, a bypass an entry the cache never sees; in
/// every case nothing is copied, and the response keeps its entry alive
/// after the cache evicts or replaces it.
struct BuildResponse {
  BuildResponse(std::shared_ptr<const CachedBuild> build_in,
                ServiceDiagnostics diagnostics_in)
      : build(std::move(build_in)),
        coreset(build->coreset),
        diagnostics(std::move(diagnostics_in)) {}

  std::shared_ptr<const CachedBuild> build;
  /// build->coreset. The entry lives on the heap, so copies and moves of
  /// the response keep this reference valid.
  const Coreset& coreset;
  ServiceDiagnostics diagnostics;
};

class CoresetService {
 public:
  explicit CoresetService(ServiceOptions options = {})
      : options_(options), cache_(options.cache_capacity) {}

  /// Dataset registration/lookup surface (register/remove/list).
  DatasetStore& datasets() { return store_; }
  const DatasetStore& datasets() const { return store_; }

  /// Serves one request. Same request = bit-identical coreset, whether it
  /// came from the cache or a rebuild, at any FC_THREADS. All failures
  /// (unknown dataset, invalid spec, zero shards) are non-ok statuses.
  api::FcStatusOr<BuildResponse> Build(const BuildRequest& request);

  CoresetCache::Stats CacheStats() const { return cache_.stats(); }

  /// Load gauges + rejection counter reported by whatever transport
  /// fronts this service (tools/fc_serve's socket listener). The service
  /// itself never writes them — it is transport-agnostic — but it owns
  /// the storage so the stats verb can report load without the protocol
  /// layer knowing which transport is attached. Gauges are
  /// last-write-wins snapshots; requests_rejected accumulates. Each field
  /// is its own relaxed atomic, so a snapshot may mix two reports.
  struct TransportStats {
    size_t queue_depth = 0;       ///< Requests queued, not yet executing.
    size_t sessions_active = 0;   ///< Connected client sessions.
    uint64_t requests_rejected = 0;  ///< Admission-control rejections.
  };
  /// Transport hooks: set the current load gauges / count a shed request.
  void ReportTransportLoad(size_t queue_depth, size_t sessions_active);
  void AddTransportRejections(uint64_t count);
  TransportStats TransportLoad() const;

  /// Drops cached builds of the named dataset's content; kNotFound when
  /// the name is not registered.
  api::FcStatusOr<size_t> EvictDataset(const std::string& name);

  void ClearCache() { cache_.Clear(); }

 private:
  ServiceOptions options_;
  DatasetStore store_;
  CoresetCache cache_;
  /// TransportStats, stored lock-free: the net server writes these while
  /// it holds its own lock, so no service lock may nest under it.
  std::atomic<size_t> queue_depth_{0};
  std::atomic<size_t> sessions_active_{0};
  std::atomic<uint64_t> requests_rejected_{0};
};

}  // namespace service
}  // namespace fastcoreset

#endif  // FASTCORESET_SERVICE_SERVICE_H_

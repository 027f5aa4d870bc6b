// CoresetCache: LRU cache over completed coreset builds. Coreset requests
// are deterministic functions of (dataset content, canonical spec, shard
// count) — the perfect shape for caching: a repeated request under heavy
// traffic costs a map lookup and a shared-pointer copy instead of an O(nd)
// build, and nothing on a hit grows with the coreset's size. Keys are the
// service's composite strings ("ds=<fingerprint>;<spec key>;shards=N");
// values are immutable shared records of the built coreset (no
// diagnostics), so a hit can be handed out while another thread inserts
// or evicts, and a response outlives the eviction of its entry.

#ifndef FASTCORESET_SERVICE_CORESET_CACHE_H_
#define FASTCORESET_SERVICE_CORESET_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/core/coreset.h"

namespace fastcoreset {
namespace service {

/// The one immutable record of a served build, shared between the cache
/// and every response that serves it (hit, miss or bypass). It holds only
/// what a response reports and what eviction matches on; the build's
/// diagnostics belong to the response of the request that built it. The
/// O(m·d) summaries are computed once, by the constructor, on the build
/// path and outside the cache mutex, so a hit never recomputes them.
struct CachedBuild {
  /// Takes ownership of the coreset (no copy) and derives the summaries.
  CachedBuild(std::string key, uint64_t dataset_fingerprint,
              Coreset coreset);

  const std::string key;
  const uint64_t dataset_fingerprint;  ///< Matched by EvictDataset.
  const Coreset coreset;
  const uint64_t fingerprint;  ///< FingerprintCoreset(coreset).
  const double total_weight;   ///< coreset.TotalWeight().
  /// Bytes the coreset holds: points, weights and indices.
  const size_t bytes;
};

/// Thread-safe LRU cache with hit/miss/eviction counters. Capacity is an
/// entry count; capacity 0 disables insertion entirely (every lookup
/// misses).
class CoresetCache {
 public:
  explicit CoresetCache(size_t capacity) : capacity_(capacity) {}

  /// Returns the entry and refreshes its recency, or nullptr. Counts one
  /// hit or miss.
  std::shared_ptr<const CachedBuild> Lookup(const std::string& key);

  /// Inserts (or replaces) the entry and evicts least-recently-used
  /// entries beyond capacity. No-op at capacity 0.
  void Insert(std::shared_ptr<const CachedBuild> entry);

  /// Drops every entry built from the given dataset content. Returns the
  /// number of entries dropped (counted as evictions).
  size_t EvictDataset(uint64_t dataset_fingerprint);

  /// Drops everything (counted as evictions).
  void Clear();

  struct Stats {
    size_t hits = 0;
    size_t misses = 0;
    size_t evictions = 0;
    size_t entries = 0;
    size_t capacity = 0;
    size_t bytes = 0;  ///< Σ CachedBuild::bytes over the live entries.
  };
  Stats stats() const;

 private:
  struct Slot {
    std::shared_ptr<const CachedBuild> value;
    std::list<std::string>::iterator recency;  ///< Position in lru_.
  };

  /// Rank kCoresetCache (see lock_rank in src/common/mutex.h).
  mutable Mutex mutex_{lock_rank::kCoresetCache};
  const size_t capacity_;  ///< Immutable after construction: lock-free reads.
  /// Front = most recently used.
  std::list<std::string> lru_ FC_GUARDED_BY(mutex_);
  std::unordered_map<std::string, Slot> entries_ FC_GUARDED_BY(mutex_);
  size_t hits_ FC_GUARDED_BY(mutex_) = 0;
  size_t misses_ FC_GUARDED_BY(mutex_) = 0;
  size_t evictions_ FC_GUARDED_BY(mutex_) = 0;
  size_t bytes_ FC_GUARDED_BY(mutex_) = 0;  ///< Running Stats::bytes.
};

}  // namespace service
}  // namespace fastcoreset

#endif  // FASTCORESET_SERVICE_CORESET_CACHE_H_

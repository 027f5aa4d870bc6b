#include "src/service/coreset_cache.h"

#include <utility>

#include "src/service/fingerprint.h"

namespace fastcoreset {
namespace service {

CachedBuild::CachedBuild(std::string key_in, uint64_t dataset_fingerprint_in,
                         Coreset coreset_in)
    : key(std::move(key_in)),
      dataset_fingerprint(dataset_fingerprint_in),
      coreset(std::move(coreset_in)),
      fingerprint(FingerprintCoreset(coreset)),
      total_weight(coreset.TotalWeight()),
      bytes((coreset.points.data().size() + coreset.weights.size()) *
                sizeof(double) +
            coreset.indices.size() * sizeof(size_t)) {}

std::shared_ptr<const CachedBuild> CoresetCache::Lookup(
    const std::string& key) {
  MutexLock lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second.recency);
  return it->second.value;
}

void CoresetCache::Insert(std::shared_ptr<const CachedBuild> entry) {
  // fc-lint: allow(no-abort-in-service): null entry is a programmer
  // error in the build pipeline, not request data; requests cannot
  // steer this argument.
  FC_CHECK(entry != nullptr);
  if (capacity_ == 0) return;
  MutexLock lock(mutex_);
  const auto it = entries_.find(entry->key);
  if (it != entries_.end()) {
    // Replace in place. Two concurrent misses on one key both build and
    // both insert (bypass requests never insert); the builds are
    // bit-identical, and a response still holding the replaced entry
    // keeps it alive through its own shared pointer.
    bytes_ -= it->second.value->bytes;
    bytes_ += entry->bytes;
    it->second.value = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second.recency);
    return;
  }
  const std::string key = entry->key;  // std::move(entry) below.
  bytes_ += entry->bytes;
  lru_.push_front(key);
  entries_.emplace(key, Slot{std::move(entry), lru_.begin()});
  while (entries_.size() > capacity_) {
    const auto victim = entries_.find(lru_.back());
    bytes_ -= victim->second.value->bytes;
    entries_.erase(victim);
    lru_.pop_back();
    ++evictions_;
  }
}

size_t CoresetCache::EvictDataset(uint64_t dataset_fingerprint) {
  MutexLock lock(mutex_);
  size_t dropped = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.value->dataset_fingerprint == dataset_fingerprint) {
      bytes_ -= it->second.value->bytes;
      lru_.erase(it->second.recency);
      it = entries_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  evictions_ += dropped;
  return dropped;
}

void CoresetCache::Clear() {
  MutexLock lock(mutex_);
  evictions_ += entries_.size();
  entries_.clear();
  lru_.clear();
  bytes_ = 0;
}

CoresetCache::Stats CoresetCache::stats() const {
  MutexLock lock(mutex_);
  Stats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evictions = evictions_;
  stats.entries = entries_.size();
  stats.capacity = capacity_;
  stats.bytes = bytes_;
  return stats;
}

}  // namespace service
}  // namespace fastcoreset

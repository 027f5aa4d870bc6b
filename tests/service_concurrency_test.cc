// Multi-threaded stress over CoresetService: N application threads hammer
// one shared service with interleaved register / build / evict / stats
// while the builds themselves parallelize on the persistent pool. This is
// the workload the TSan CI job (tsan preset, FC_THREADS=4) exists for:
// any data race in CoresetCache, DatasetStore, the thread pool,
// or the protocol layer shows up here. The assertions pin the lock-free
// observable contracts — cache counters add up, concurrent identical
// requests stay bit-identical, and the NDJSON register path never aborts
// under a concurrent Remove (the protocol.cc TOCTOU fix).

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/service/dataset_store.h"
#include "src/service/fingerprint.h"
#include "src/service/protocol.h"
#include "src/service/service.h"

namespace fastcoreset {
namespace {

using service::BuildRequest;
using service::CoresetCache;
using service::CoresetService;
using service::ServiceOptions;
using service::SyntheticSpec;

constexpr size_t kSharedDatasets = 4;
constexpr size_t kThreads = 8;
constexpr size_t kRounds = 10;

SyntheticSpec SmallMixture(uint64_t seed) {
  SyntheticSpec spec;
  spec.generator = "gaussian_mixture";
  spec.n = 1200;
  spec.d = 4;
  spec.kappa = 4;
  spec.seed = seed;
  return spec;
}

std::string SharedName(size_t index) {
  return "shared" + std::to_string(index);
}

BuildRequest SharedRequest(size_t dataset_index) {
  BuildRequest request;
  request.dataset = SharedName(dataset_index);
  request.spec.method = "sensitivity";
  request.spec.k = 4;
  request.spec.m = 80;
  request.spec.z = 2;
  // One fixed seed per dataset: every thread that builds this dataset
  // must observe the same bit-identical coreset, cached or rebuilt.
  request.spec.seed = 1000 + dataset_index;
  return request;
}

void RegisterShared(CoresetService& service) {
  for (size_t i = 0; i < kSharedDatasets; ++i) {
    ASSERT_TRUE(service.datasets()
                    .RegisterSynthetic(SharedName(i), SmallMixture(50 + i))
                    .ok());
  }
}

TEST(ServiceConcurrencyTest, ConcurrentBuildsAreConsistent) {
  CoresetService service(ServiceOptions{/*cache_capacity=*/8});
  RegisterShared(service);

  // First fingerprint wins; every later build of the same dataset must
  // match it exactly.
  std::atomic<uint64_t> expected[kSharedDatasets] = {};
  std::atomic<size_t> cached_lookups{0};
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> failures{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t round = 0; round < kRounds; ++round) {
        const size_t dataset = (t + round) % kSharedDatasets;
        BuildRequest request = SharedRequest(dataset);
        // A few bypass builds keep the rebuild path racing the cache.
        request.use_cache = (t + round) % 3 != 0;
        api::FcStatusOr<service::BuildResponse> response =
            service.Build(request);
        if (!response.ok()) {
          ++failures;
          continue;
        }
        if (request.use_cache) ++cached_lookups;
        const uint64_t fingerprint =
            service::FingerprintCoreset(response->coreset);
        uint64_t seen = 0;
        if (!expected[dataset].compare_exchange_strong(seen, fingerprint)) {
          if (seen != fingerprint) ++mismatches;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u)
      << "concurrent builds of one (dataset, spec) disagreed bit-for-bit";

  // Counter consistency: every cache-enabled build did exactly one
  // Lookup, so hits + misses must equal the lookups the threads issued
  // (bypass builds never touch the counters).
  const CoresetCache::Stats stats = service.CacheStats();
  EXPECT_EQ(stats.hits + stats.misses, cached_lookups.load());
  EXPECT_GE(stats.misses, kSharedDatasets);  // Someone built each first.
  EXPECT_LE(stats.entries, stats.capacity);
}

TEST(ServiceConcurrencyTest, ConcurrentMissesOnOneKeyShareOneEntry) {
  // Every thread asks for the same fresh key at once, so usually several
  // miss, build and insert it: the cache's replace branch. One entry
  // survives, every response carries the same bits, and a response whose
  // entry was replaced still reads valid bits through its own pointer.
  CoresetService service(ServiceOptions{/*cache_capacity=*/8});
  RegisterShared(service);

  std::atomic<size_t> waiting{kThreads};
  std::vector<std::optional<api::FcStatusOr<service::BuildResponse>>>
      responses(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      --waiting;
      while (waiting.load() > 0) std::this_thread::yield();
      responses[t].emplace(service.Build(SharedRequest(0)));
    });
  }
  for (std::thread& thread : threads) thread.join();

  const CoresetCache::Stats stats = service.CacheStats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.hits + stats.misses, kThreads);
  EXPECT_GE(stats.misses, 1u);

  // Evict the survivor too: from here on every response is the only owner
  // of its record.
  service.ClearCache();
  EXPECT_EQ(service.CacheStats().bytes, 0u);
  ASSERT_TRUE(responses[0]->ok()) << responses[0]->status().ToString();
  const uint64_t expected = (*responses[0])->build->fingerprint;
  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(responses[t]->ok()) << responses[t]->status().ToString();
    const service::BuildResponse& response = responses[t]->value();
    EXPECT_EQ(response.build->fingerprint, expected) << "thread " << t;
    // Recomputed from the bits: the record is intact, not just its
    // cached summary.
    EXPECT_EQ(service::FingerprintCoreset(response.coreset), expected)
        << "thread " << t;
  }
}

TEST(ServiceConcurrencyTest, InterleavedRegisterBuildEvictStats) {
  CoresetService service(ServiceOptions{/*cache_capacity=*/4});
  RegisterShared(service);

  std::atomic<size_t> cached_lookups{0};
  std::atomic<size_t> unexpected{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string own = "private_t" + std::to_string(t);
      for (size_t round = 0; round < kRounds; ++round) {
        switch ((t + round) % 4) {
          case 0: {
            // Shared-dataset cached build (never removed: must succeed).
            api::FcStatusOr<service::BuildResponse> response =
                service.Build(SharedRequest(round % kSharedDatasets));
            if (response.ok()) {
              ++cached_lookups;
            } else {
              ++unexpected;
            }
            break;
          }
          case 1: {
            // Thread-private register -> build -> remove lifecycle.
            if (!service.datasets()
                     .RegisterSynthetic(own, SmallMixture(900 + t))
                     .ok()) {
              ++unexpected;
              break;
            }
            BuildRequest request = SharedRequest(0);
            request.dataset = own;
            request.use_cache = false;  // Bypass: no counter bookkeeping.
            if (!service.Build(request).ok()) ++unexpected;
            if (!service.datasets().Remove(own)) ++unexpected;
            break;
          }
          case 2: {
            // Evict + stats churn; both must stay well-formed mid-storm.
            if (!service.EvictDataset(SharedName(round % kSharedDatasets))
                     .ok()) {
              ++unexpected;
            }
            const CoresetCache::Stats stats = service.CacheStats();
            if (stats.entries > stats.capacity) ++unexpected;
            if (service.datasets().Names().size() < kSharedDatasets) {
              ++unexpected;
            }
            break;
          }
          default: {
            // NDJSON register racing another thread's Remove of the same
            // name: responses may be ok or duplicate-name/not-found
            // errors, but the line is always well-formed JSON and the
            // server never aborts (regression for the HandleRegister
            // .value() TOCTOU).
            const std::string contested =
                "contested" + std::to_string(round % 2);
            const std::string line =
                "{\"verb\":\"register\",\"name\":\"" + contested +
                "\",\"points\":[[0,1],[2,3],[4,5]]}";
            const std::string response =
                service::HandleRequestLine(service, line);
            if (service::ParseJson(response).ok()) {
              service.datasets().Remove(contested);
            } else {
              ++unexpected;
            }
            break;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(unexpected.load(), 0u);
  const CoresetCache::Stats stats = service.CacheStats();
  EXPECT_EQ(stats.hits + stats.misses, cached_lookups.load());
  EXPECT_LE(stats.entries, stats.capacity);
  EXPECT_EQ(service.datasets().Names().size(), kSharedDatasets);
}

TEST(ServiceConcurrencyTest, MixedShardedBuildsThroughSchedulerAgree) {
  // Concurrent application threads drive sharded builds with varying
  // parallelism budgets — the budget and the shard count of OTHER
  // requests in flight must never reach a build's bits. Bypass the cache
  // so every request really builds; all fingerprints for one (dataset,
  // shards) pair must agree.
  CoresetService service(ServiceOptions{/*cache_capacity=*/0});
  RegisterShared(service);

  constexpr size_t kShardChoices[] = {1, 2, 4};
  std::atomic<uint64_t> expected[kSharedDatasets][3] = {};
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> failures{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t round = 0; round < kRounds; ++round) {
        const size_t dataset = (t + round) % kSharedDatasets;
        const size_t shard_pick = (t * kRounds + round) % 3;
        BuildRequest request = SharedRequest(dataset);
        request.shards = kShardChoices[shard_pick];
        request.parallelism = (t + round) % 3;  // 0 = all, 1, 2.
        request.use_cache = false;
        api::FcStatusOr<service::BuildResponse> response =
            service.Build(request);
        if (!response.ok()) {
          ++failures;
          continue;
        }
        // The request ran its own build (a bypass, never a hit), every
        // shard slot was built, and the merge ran iff shards > 1.
        const service::ServiceDiagnostics& diag = response->diagnostics;
        bool all_built = diag.cache_status == "bypass" &&
                         diag.shards.size() == diag.shard_count &&
                         diag.has_merge == (diag.shard_count > 1);
        for (const service::ShardDiagnostics& shard : diag.shards) {
          all_built = all_built && shard.build.output_rows > 0;
        }
        if (!all_built) {
          ++failures;
          continue;
        }
        const uint64_t fingerprint =
            service::FingerprintCoreset(response->coreset);
        uint64_t seen = 0;
        if (!expected[dataset][shard_pick].compare_exchange_strong(
                seen, fingerprint)) {
          if (seen != fingerprint) ++mismatches;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u)
      << "a parallelism budget or a concurrent request changed the bits";
}

TEST(ServiceConcurrencyTest, TransportGaugesTakeConcurrentWritersAndReaders) {
  // The transport hooks hold no lock: the net server's I/O thread writes
  // them while workers serving stats read them. Under TSan this is the
  // deterministic race check for the three fields; everywhere it checks
  // that a reader never sees the lifetime rejection count go down.
  CoresetService service;
  constexpr uint64_t kWrites = 2000;
  std::atomic<bool> reading{false};
  std::atomic<bool> done{false};
  std::thread writer([&service, &reading, &done] {
    // Start once the reader loops, and yield after every write, so the
    // two loops interleave even when both threads share one CPU.
    while (!reading.load()) std::this_thread::yield();
    for (uint64_t i = 1; i <= kWrites; ++i) {
      service.ReportTransportLoad(i % 7, i % 5);
      service.AddTransportRejections(1);
      std::this_thread::yield();
    }
    done.store(true);
  });
  uint64_t last_rejected = 0;
  bool monotonic = true;
  reading.store(true);
  while (!done.load()) {
    const CoresetService::TransportStats load = service.TransportLoad();
    monotonic = monotonic && load.requests_rejected >= last_rejected;
    last_rejected = load.requests_rejected;
  }
  writer.join();
  EXPECT_TRUE(monotonic);
  EXPECT_EQ(service.TransportLoad().requests_rejected, kWrites);
}

}  // namespace
}  // namespace fastcoreset

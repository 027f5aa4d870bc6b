// Tests for src/service: dataset store fingerprints, canonical spec keys,
// shard planning and deterministic sharded builds (bit-identical at any
// FC_THREADS), the LRU coreset cache (hits prove no rebuild, eviction
// under capacity pressure), the service error model (nothing aborts), and
// the fc_serve JSON protocol surface.

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/parallel.h"
#include "src/data/generators.h"
#include "src/service/coreset_cache.h"
#include "src/service/dataset_store.h"
#include "src/service/fingerprint.h"
#include "src/service/json.h"
#include "src/service/protocol.h"
#include "src/service/service.h"
#include "src/service/shard_planner.h"
#include "src/service/spec_key.h"

namespace fastcoreset {
namespace {

using service::BuildRequest;
using service::CoresetService;
using service::JsonValue;
using service::ServiceOptions;

Matrix TestMixture(size_t n = 400, size_t d = 6, size_t kappa = 4) {
  Rng rng(12345);
  return GenerateGaussianMixture(n, d, kappa, /*gamma=*/1.0, rng);
}

void ExpectBitIdentical(const Coreset& a, const Coreset& b,
                        const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  ASSERT_EQ(a.indices.size(), b.indices.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.indices[i], b.indices[i]) << label << " index row " << i;
    EXPECT_EQ(a.weights[i], b.weights[i]) << label << " weight row " << i;
    for (size_t j = 0; j < a.points.cols(); ++j) {
      EXPECT_EQ(a.points.At(i, j), b.points.At(i, j))
          << label << " point " << i << "," << j;
    }
  }
}

/// Scoped worker-count override (same pattern as determinism_test).
struct ThreadCountGuard {
  explicit ThreadCountGuard(size_t count) { SetNumThreads(count); }
  ~ThreadCountGuard() { ResetNumThreads(); }
};

api::CoresetSpec SmallSpec(const std::string& method = "fast_coreset",
                           uint64_t seed = 7) {
  api::CoresetSpec spec;
  spec.method = method;
  spec.k = 4;
  spec.m = 60;
  spec.z = 2;
  spec.seed = seed;
  return spec;
}

BuildRequest SmallRequest(const std::string& dataset, uint64_t seed = 7,
                          size_t shards = 1) {
  BuildRequest request;
  request.dataset = dataset;
  request.spec = SmallSpec("fast_coreset", seed);
  request.shards = shards;
  return request;
}

/// Registers the standard mixture under "mixture" (services hold mutexes
/// and are not movable, so the helper fills an existing instance).
void AddMixture(CoresetService& svc) {
  const api::FcStatus status =
      svc.datasets().RegisterMatrix("mixture", TestMixture());
  FC_CHECK(status.ok());
}

// ---------------------------------------------------------------- store

TEST(DatasetStoreTest, FingerprintTracksContentNotName) {
  service::DatasetStore store;
  ASSERT_TRUE(store.RegisterMatrix("a", TestMixture()).ok());
  ASSERT_TRUE(store.RegisterMatrix("b", TestMixture()).ok());
  Matrix other = TestMixture();
  other.At(0, 0) += 1.0;
  ASSERT_TRUE(store.RegisterMatrix("c", std::move(other)).ok());

  const uint64_t fp_a = store.Get("a").value()->fingerprint;
  EXPECT_EQ(fp_a, store.Get("b").value()->fingerprint)
      << "same content must share a fingerprint across names";
  EXPECT_NE(fp_a, store.Get("c").value()->fingerprint)
      << "one flipped cell must change the fingerprint";
}

TEST(DatasetStoreTest, DuplicateEmptyAndUnknownAreErrors) {
  service::DatasetStore store;
  ASSERT_TRUE(store.RegisterMatrix("a", TestMixture(50)).ok());
  EXPECT_EQ(store.RegisterMatrix("a", TestMixture(50)).code(),
            api::FcErrorCode::kInvalidArgument);
  EXPECT_EQ(store.RegisterMatrix("empty", Matrix()).code(),
            api::FcErrorCode::kInvalidArgument);
  EXPECT_EQ(store.RegisterMatrix("", TestMixture(50)).code(),
            api::FcErrorCode::kInvalidArgument);

  const auto missing = store.Get("nope");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), api::FcErrorCode::kNotFound);
  // The message lists what IS registered.
  EXPECT_NE(missing.status().message().find("a"), std::string::npos);

  EXPECT_TRUE(store.Remove("a"));
  EXPECT_FALSE(store.Remove("a"));
}

TEST(DatasetStoreTest, CsvAndSyntheticSourcesRegister) {
  const std::string path = "/tmp/fc_service_store_test.csv";
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("1,2\n3,4\n5,6\n", f);
    fclose(f);
  }
  service::DatasetStore store;
  ASSERT_TRUE(store.RegisterCsv("csv", path).ok());
  std::remove(path.c_str());
  EXPECT_EQ(store.Get("csv").value()->points.rows(), 3u);
  EXPECT_EQ(store.RegisterCsv("missing", "/tmp/fc_no_such_file.csv").code(),
            api::FcErrorCode::kInvalidArgument);

  service::SyntheticSpec synthetic;
  synthetic.generator = "gaussian_mixture";
  synthetic.n = 200;
  synthetic.d = 3;
  synthetic.kappa = 2;
  ASSERT_TRUE(store.RegisterSynthetic("g", synthetic).ok());
  EXPECT_EQ(store.Get("g").value()->points.rows(), 200u);
  // Same spec = same content = same fingerprint.
  ASSERT_TRUE(store.RegisterSynthetic("g2", synthetic).ok());
  EXPECT_EQ(store.Get("g").value()->fingerprint,
            store.Get("g2").value()->fingerprint);

  synthetic.generator = "warp_drive";
  EXPECT_EQ(store.RegisterSynthetic("bad", synthetic).code(),
            api::FcErrorCode::kInvalidArgument);
}

// ------------------------------------------------------------- spec key

TEST(SpecKeyTest, CanonicalizesAliasesDefaultsAndOptions) {
  const std::string base = service::CanonicalSpecKey(SmallSpec()).value();

  // Alias and canonical name key identically.
  api::CoresetSpec alias = SmallSpec("fast");
  EXPECT_EQ(service::CanonicalSpecKey(alias).value(), base);

  // Monostate and explicitly defaulted options key identically.
  api::CoresetSpec defaulted = SmallSpec();
  defaulted.options = api::FastOptions{};
  EXPECT_EQ(service::CanonicalSpecKey(defaulted).value(), base);

  // m = 0 resolves to the 40k default.
  api::CoresetSpec m_zero = SmallSpec();
  m_zero.m = 0;
  api::CoresetSpec m_explicit = SmallSpec();
  m_explicit.m = 160;
  EXPECT_EQ(service::CanonicalSpecKey(m_zero).value(),
            service::CanonicalSpecKey(m_explicit).value());

  // welterweight j = 0 resolves to the paper default.
  api::CoresetSpec j_default = SmallSpec("welterweight");
  api::CoresetSpec j_explicit = SmallSpec("welterweight");
  api::WelterweightOptions j_options;
  j_options.j = 2;  // ceil(log2 4)
  j_explicit.options = j_options;
  EXPECT_EQ(service::CanonicalSpecKey(j_default).value(),
            service::CanonicalSpecKey(j_explicit).value());

  // Anything that changes the build changes the key.
  std::set<std::string> keys;
  keys.insert(base);
  for (auto mutate : {+[](api::CoresetSpec* s) { s->k = 5; },
                      +[](api::CoresetSpec* s) { s->m = 61; },
                      +[](api::CoresetSpec* s) { s->z = 1; },
                      +[](api::CoresetSpec* s) { s->seed = 8; },
                      +[](api::CoresetSpec* s) {
                        api::FastOptions options;
                        options.use_jl = false;
                        s->options = options;
                      },
                      +[](api::CoresetSpec* s) {
                        s->weights.assign(400, 2.0);
                      }}) {
    api::CoresetSpec spec = SmallSpec();
    mutate(&spec);
    EXPECT_TRUE(keys.insert(service::CanonicalSpecKey(spec).value()).second)
        << "mutated spec collided with a previous key";
  }

  EXPECT_EQ(service::CanonicalSpecKey(SmallSpec("no_such")).status().code(),
            api::FcErrorCode::kNotFound);
}

/// Out-of-tree algorithm that reuses a built-in options tag — the case
/// the key serializer cannot canonicalize and must still keep
/// value-faithful.
class EchoUniformAlgorithm : public api::CoresetAlgorithm {
 public:
  std::string_view Name() const override { return "test_echo_uniform"; }
  api::FcStatus ValidateSpec(const api::CoresetSpec&) const override {
    return api::FcStatus::Ok();  // Accepts any options tag.
  }
  Coreset Build(const api::CoresetSpec&, const Matrix& points,
                const std::vector<double>& weights, size_t m, Rng& rng,
                api::BuildDiagnostics*) const override {
    return UniformLike(points, weights, m, rng);
  }

 private:
  static Coreset UniformLike(const Matrix& points,
                             const std::vector<double>& weights, size_t m,
                             Rng& rng) {
    api::CoresetSpec spec;
    spec.method = "uniform";
    spec.m = m;
    return api::Build(spec, points, weights, rng)->coreset;
  }
};

FC_REGISTER_CORESET_ALGORITHM("test_echo_uniform", EchoUniformAlgorithm);

TEST(SpecKeyTest, ExternalMethodKeysAreValueFaithful) {
  api::CoresetSpec low = SmallSpec("test_echo_uniform");
  api::GroupOptions low_options;
  low_options.eps = 0.1;
  low.options = low_options;

  api::CoresetSpec high = low;
  api::GroupOptions high_options;
  high_options.eps = 0.9;
  high.options = high_options;

  // Different option values through an unknown method must never share a
  // cache key (a shared key would serve the wrong coreset as a "hit").
  EXPECT_NE(service::CanonicalSpecKey(low).value(),
            service::CanonicalSpecKey(high).value());
  // Different tags differ too, and monostate has its own key.
  api::CoresetSpec tagless = SmallSpec("test_echo_uniform");
  EXPECT_NE(service::CanonicalSpecKey(tagless).value(),
            service::CanonicalSpecKey(low).value());
}

// ------------------------------------------------------------- sharding

TEST(ShardPlannerTest, PlanCoversRowsExactlyAndClamps) {
  for (const auto& [rows, requested] : std::vector<std::pair<size_t, size_t>>{
           {100, 1}, {100, 4}, {101, 4}, {7, 16}, {1, 3}}) {
    const auto plan = service::PlanShards(rows, requested);
    EXPECT_EQ(plan.size(), service::EffectiveShardCount(rows, requested));
    EXPECT_LE(plan.size(), rows);
    size_t expected_begin = 0;
    size_t min_rows = rows, max_rows = 0;
    for (const auto& range : plan) {
      EXPECT_EQ(range.begin, expected_begin);
      EXPECT_GT(range.rows(), 0u);
      min_rows = std::min(min_rows, range.rows());
      max_rows = std::max(max_rows, range.rows());
      expected_begin = range.end;
    }
    EXPECT_EQ(expected_begin, rows);
    EXPECT_LE(max_rows - min_rows, 1u) << "shards must be near-equal";
  }
}

TEST(ShardPlannerTest, DerivedSeedsAreDistinctAcrossShardsAndDomains) {
  std::set<uint64_t> seeds;
  for (uint64_t base : {0ull, 1ull, 2ull, 42ull}) {
    for (uint64_t i = 0; i < 8; ++i) {
      EXPECT_TRUE(seeds
                      .insert(service::DeriveBuildSeed(
                          base, service::kShardSeedDomain, i))
                      .second);
    }
    EXPECT_TRUE(seeds
                    .insert(service::DeriveBuildSeed(
                        base, service::kMergeSeedDomain, 4))
                    .second);
  }
}

TEST(ShardedBuildTest, ShardedCoresetsAreThreadInvariantAndSeedStable) {
  const Matrix points = TestMixture();
  for (size_t shards : {size_t{1}, size_t{4}}) {
    Coreset serial, threaded;
    {
      ThreadCountGuard guard(1);
      serial = service::BuildSharded(SmallSpec(), points, shards)->coreset;
    }
    {
      ThreadCountGuard guard(4);
      threaded = service::BuildSharded(SmallSpec(), points, shards)->coreset;
    }
    ExpectBitIdentical(serial, threaded,
                       "shards=" + std::to_string(shards) +
                           " FC_THREADS 1 vs 4");
    // Same (seed, shard_count) = same coreset on a rebuild.
    const Coreset again =
        service::BuildSharded(SmallSpec(), points, shards)->coreset;
    ExpectBitIdentical(serial, again,
                       "shards=" + std::to_string(shards) + " rebuild");
  }
}

TEST(ShardedBuildTest, ShardDiagnosticsAndIndicesCoverTheDataset) {
  const Matrix points = TestMixture();
  const auto result = service::BuildSharded(SmallSpec(), points, 4);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ASSERT_EQ(result->shards.size(), 4u);
  uint64_t previous_seed = 0;
  for (const auto& shard : result->shards) {
    EXPECT_EQ(shard.build.input_rows, 100u);
    EXPECT_FALSE(shard.build.stages.empty())
        << "per-shard stage times must be reported";
    EXPECT_NE(shard.seed, previous_seed);
    previous_seed = shard.seed;
  }
  EXPECT_TRUE(result->has_merge);
  EXPECT_EQ(result->merge.stream_blocks, 4u);
  EXPECT_GT(result->merge.stream_reduce_ops, 0u);
  // Shard rows + merge re-reduction rows.
  EXPECT_GT(result->points_processed, 400u);

  // Sampled indices must refer to original dataset rows within the
  // owning shard's range (synthetic rows excepted).
  for (size_t i = 0; i < result->coreset.size(); ++i) {
    const size_t index = result->coreset.indices[i];
    if (index == Coreset::kSyntheticIndex) continue;
    ASSERT_LT(index, points.rows());
    for (size_t j = 0; j < points.cols(); ++j) {
      EXPECT_EQ(result->coreset.points.At(i, j), points.At(index, j))
          << "coreset row " << i << " does not match dataset row " << index;
    }
  }

  // Different shard counts are different (both valid) coresets.
  const auto unsharded = service::BuildSharded(SmallSpec(), points, 1);
  EXPECT_NE(service::FingerprintCoreset(result->coreset),
            service::FingerprintCoreset(unsharded->coreset));
}

TEST(ShardedBuildTest, SingleShardMatchesPlainApiBuild) {
  const Matrix points = TestMixture();
  const auto sharded = service::BuildSharded(SmallSpec(), points, 1);
  const auto plain = api::Build(SmallSpec(), points);
  ExpectBitIdentical(sharded->coreset, plain->coreset,
                     "shards=1 vs api::Build");
}

// ---------------------------------------------------------------- cache

TEST(ServiceTest, CacheHitReturnsIdenticalCoresetWithoutRebuilding) {
  CoresetService svc;
  AddMixture(svc);

  const auto first = svc.Build(SmallRequest("mixture", 7, 2));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->diagnostics.cache_status, "miss");
  EXPECT_EQ(first->diagnostics.shards.size(), 2u);
  EXPECT_GT(first->diagnostics.points_processed, 0u);
  EXPECT_GT(first->diagnostics.build_seconds, 0.0);

  const auto second = svc.Build(SmallRequest("mixture", 7, 2));
  ASSERT_TRUE(second.ok());
  // The diagnostics prove no rebuild happened...
  EXPECT_EQ(second->diagnostics.cache_status, "hit");
  EXPECT_TRUE(second->diagnostics.shards.empty());
  EXPECT_EQ(second->diagnostics.points_processed, 0u);
  EXPECT_EQ(second->diagnostics.build_seconds, 0.0);
  // ...and the coreset is the first build, bit for bit.
  ExpectBitIdentical(first->coreset, second->coreset, "cache hit");

  const auto stats = svc.CacheStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);

  // use_cache=false bypasses but still rebuilds the same bits.
  BuildRequest bypass = SmallRequest("mixture", 7, 2);
  bypass.use_cache = false;
  const auto rebuilt = svc.Build(bypass);
  EXPECT_EQ(rebuilt->diagnostics.cache_status, "bypass");
  ExpectBitIdentical(first->coreset, rebuilt->coreset, "bypass rebuild");
  EXPECT_EQ(svc.CacheStats().hits, 1u) << "bypass must not touch the cache";
}

TEST(ServiceTest, LruEvictionUnderCapacityPressure) {
  CoresetService svc(ServiceOptions{/*cache_capacity=*/2});
  AddMixture(svc);

  ASSERT_TRUE(svc.Build(SmallRequest("mixture", 1)).ok());
  ASSERT_TRUE(svc.Build(SmallRequest("mixture", 2)).ok());
  // Touch seed=1 so seed=2 is the LRU victim when seed=3 arrives.
  EXPECT_EQ(svc.Build(SmallRequest("mixture", 1))->diagnostics.cache_status,
            "hit");
  ASSERT_TRUE(svc.Build(SmallRequest("mixture", 3)).ok());

  auto stats = svc.CacheStats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(svc.Build(SmallRequest("mixture", 1))->diagnostics.cache_status,
            "hit")
      << "recently-used entry must survive";
  EXPECT_EQ(svc.Build(SmallRequest("mixture", 2))->diagnostics.cache_status,
            "miss")
      << "LRU entry must have been evicted";

  // Explicit dataset eviction drops its entries and reports the count.
  const auto evicted = svc.EvictDataset("mixture");
  ASSERT_TRUE(evicted.ok());
  EXPECT_EQ(evicted.value(), 2u);
  EXPECT_EQ(svc.Build(SmallRequest("mixture", 1))->diagnostics.cache_status,
            "miss");
  EXPECT_EQ(svc.EvictDataset("nope").status().code(),
            api::FcErrorCode::kNotFound);
}

TEST(ServiceTest, ZeroCapacityDisablesCaching) {
  CoresetService svc(ServiceOptions{/*cache_capacity=*/0});
  AddMixture(svc);
  EXPECT_EQ(svc.Build(SmallRequest("mixture"))->diagnostics.cache_status,
            "bypass");
  EXPECT_EQ(svc.Build(SmallRequest("mixture"))->diagnostics.cache_status,
            "bypass");
  EXPECT_EQ(svc.CacheStats().entries, 0u);
}

// ---------------------------------------------------------- error model

TEST(ServiceTest, InvalidRequestsSurfaceStatusesWithoutAborting) {
  CoresetService svc;
  AddMixture(svc);

  BuildRequest unknown_dataset = SmallRequest("no_such_dataset");
  EXPECT_EQ(svc.Build(unknown_dataset).status().code(),
            api::FcErrorCode::kNotFound);

  BuildRequest bad_method = SmallRequest("mixture");
  bad_method.spec.method = "no_such_method";
  EXPECT_EQ(svc.Build(bad_method).status().code(),
            api::FcErrorCode::kNotFound);

  BuildRequest bad_z = SmallRequest("mixture");
  bad_z.spec.z = 3;
  EXPECT_EQ(svc.Build(bad_z).status().code(),
            api::FcErrorCode::kInvalidArgument);

  BuildRequest mismatched_options = SmallRequest("mixture");
  mismatched_options.spec.method = "uniform";
  mismatched_options.spec.options = api::WelterweightOptions{};
  EXPECT_EQ(svc.Build(mismatched_options).status().code(),
            api::FcErrorCode::kInvalidArgument);

  BuildRequest zero_shards = SmallRequest("mixture");
  zero_shards.shards = 0;
  EXPECT_EQ(svc.Build(zero_shards).status().code(),
            api::FcErrorCode::kInvalidArgument);

  BuildRequest short_weights = SmallRequest("mixture");
  short_weights.spec.weights.assign(3, 1.0);
  EXPECT_EQ(svc.Build(short_weights).status().code(),
            api::FcErrorCode::kInvalidArgument);

  // Nothing above poisoned the service: a valid request still works.
  EXPECT_TRUE(svc.Build(SmallRequest("mixture")).ok());
  // And none of the failures were cached or counted as traffic.
  EXPECT_EQ(svc.CacheStats().entries, 1u);
}

TEST(ServiceTest, ShardCountClampsToRowsAndKeysTheClampedValue) {
  CoresetService svc;
  Matrix tiny(3, 2);
  tiny.At(0, 0) = 1.0;
  tiny.At(1, 0) = 2.0;
  tiny.At(2, 1) = 3.0;
  ASSERT_TRUE(svc.datasets().RegisterMatrix("tiny", std::move(tiny)).ok());

  BuildRequest request = SmallRequest("tiny", 7, /*shards=*/16);
  request.spec.k = 1;
  request.spec.m = 2;
  const auto first = svc.Build(request);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->diagnostics.shard_count, 3u) << "16 shards clamp to rows";

  // A literally-equal request at a different requested count that clamps
  // to the same effective count is the same cached build.
  request.shards = 5;
  const auto second = svc.Build(request);
  EXPECT_EQ(second->diagnostics.cache_status, "hit");
}

// ------------------------------------------------------------- protocol

TEST(JsonTest, ParsesAndRejects) {
  const auto value =
      service::ParseJson(R"({"a":[1,2.5,-3e2],"b":"x\ny","c":{"d":true},)"
                         R"("e":null})");
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(value->Find("a")->array().size(), 3u);
  EXPECT_EQ(value->Find("a")->array()[2].number_value(), -300.0);
  EXPECT_EQ(value->Find("b")->string_value(), "x\ny");
  EXPECT_TRUE(value->Find("c")->Find("d")->bool_value());
  EXPECT_TRUE(value->Find("e")->is_null());
  EXPECT_EQ(value->Find("missing"), nullptr);

  EXPECT_TRUE(service::ParseJson(R"("Aé")").value().string_value() ==
              "A\xc3\xa9");

  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "{\"a\":1,\"a\":2}", "01x", "1 2",
        "\"unterminated", "{\"a\":1}extra", "nul", "[1e400]",
        // Strict number grammar: strtod would take all of these.
        "+5", ".5", "5.", "01", "-01", "1e", "1e+", "-", "[.5]"}) {
    EXPECT_FALSE(service::ParseJson(bad).ok()) << "accepted: " << bad;
  }

  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  EXPECT_FALSE(service::ParseJson(deep).ok()) << "depth cap must kick in";

  std::string escaped;
  service::AppendJsonString(&escaped, "a\"b\\c\nd\x01");
  EXPECT_EQ(escaped, "\"a\\\"b\\\\c\\nd\\u0001\"");
}

TEST(JsonTest, HardenedAgainstHostileInput) {
  // Depth cap holds for every nesting shape, and the deepest legal
  // nesting still parses (the cap is a limit, not an off-by-one).
  for (const char open : {'[', '{'}) {
    std::string deep;
    for (int i = 0; i < 80; ++i) {
      deep += open;
      if (open == '{') deep += "\"k\":";
    }
    EXPECT_FALSE(service::ParseJson(deep).ok()) << "depth cap: " << open;
  }
  std::string nested = "1";
  for (int i = 0; i < 60; ++i) nested = "[" + nested + "]";
  EXPECT_TRUE(service::ParseJson(nested).ok()) << "60 levels must parse";

  // Long and overflowing numeric literals: rejected, not rounded to inf.
  EXPECT_FALSE(service::ParseJson("1e309").ok());
  EXPECT_FALSE(service::ParseJson("-1e309").ok());
  EXPECT_FALSE(service::ParseJson(std::string(400, '9')).ok());
  // Long-but-finite literals are fine (denormal underflow is not an
  // error; strtod rounds).
  EXPECT_TRUE(service::ParseJson("1e-400").ok());
  EXPECT_TRUE(
      service::ParseJson("0." + std::string(5000, '1')).ok());

  // Raw invalid UTF-8 in strings is a parse error, never passed through.
  for (const std::string bad : {
           std::string("\"\x80\""),          // stray continuation byte
           std::string("\"\xc3(\""),         // truncated 2-byte sequence
           std::string("\"\xc0\xaf\""),      // overlong '/'
           std::string("\"\xe0\x80\x80\""),  // overlong NUL
           std::string("\"\xed\xa0\x80\""),  // raw-encoded surrogate
           std::string("\"\xf4\x90\x80\x80\""),  // > U+10FFFF
           std::string("\"\xf8\x88\x80\x80\x80\""),  // 5-byte form
           std::string("\"\xc3"),            // cut at end of input
       }) {
    EXPECT_FALSE(service::ParseJson(bad).ok())
        << "accepted invalid UTF-8: " << bad;
  }
  // Well-formed multi-byte sequences round-trip untouched.
  EXPECT_EQ(service::ParseJson("\"\xe2\x82\xac\"").value().string_value(),
            "\xe2\x82\xac");  // €
  EXPECT_EQ(
      service::ParseJson("\"\xf0\x9f\x98\x80\"").value().string_value(),
      "\xf0\x9f\x98\x80");  // 😀 (4-byte)

  // \u escapes: lone surrogate halves are rejected; a proper pair
  // combines into one 4-byte UTF-8 code point (not CESU-8).
  EXPECT_FALSE(service::ParseJson(R"("\ud83d")").ok());
  EXPECT_FALSE(service::ParseJson(R"("\ude00")").ok());
  EXPECT_FALSE(service::ParseJson(R"("\ud83dx")").ok());
  EXPECT_FALSE(service::ParseJson(R"("\ud83dA")").ok());
  EXPECT_FALSE(service::ParseJson(R"("\ud83d\ud83d")").ok());
  EXPECT_EQ(
      service::ParseJson(R"("\ud83d\ude00")").value().string_value(),
      "\xf0\x9f\x98\x80");  // Pair combines to U+1F600, one 4-byte char.
  EXPECT_EQ(service::ParseJson(R"("\u20ac")").value().string_value(),
            "\xe2\x82\xac");

  // Malformed escapes stay recoverable errors.
  for (const char* bad : {R"("\u12")", R"("\u12gh")", R"("\q")", R"("\)"}) {
    EXPECT_FALSE(service::ParseJson(bad).ok()) << "accepted: " << bad;
  }

  // A hostile request line produces an error response, never a crash.
  CoresetService svc;
  const std::string response = service::HandleRequestLine(
      svc, "{\"verb\":\"register\",\"name\":\"\xff\xfe\"}");
  const auto parsed = service::ParseJson(response);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->Find("ok")->bool_value());
}

TEST(ProtocolTest, SpecFromJsonMarshalsFieldsAndOptions) {
  const auto request = service::ParseJson(
      R"({"method":"welterweight","k":6,"m":80,"z":1,"seed":11,)"
      R"("options":{"j":3}})");
  ASSERT_TRUE(request.ok());
  const auto spec = service::SpecFromJson(request.value());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->method, "welterweight");
  EXPECT_EQ(spec->k, 6u);
  EXPECT_EQ(spec->m, 80u);
  EXPECT_EQ(spec->z, 1);
  EXPECT_EQ(spec->seed, 11u);
  EXPECT_EQ(std::get<api::WelterweightOptions>(spec->options).j, 3u);

  // Unknown option keys and options on option-less methods are errors.
  const auto bad_key = service::ParseJson(
      R"({"method":"welterweight","options":{"jay":3}})");
  EXPECT_FALSE(service::SpecFromJson(bad_key.value()).ok());
  const auto no_options =
      service::ParseJson(R"({"method":"uniform","options":{"x":1}})");
  EXPECT_FALSE(service::SpecFromJson(no_options.value()).ok());
  const auto fractional_k = service::ParseJson(R"({"k":2.5})");
  EXPECT_FALSE(service::SpecFromJson(fractional_k.value()).ok());
}

TEST(ProtocolTest, EndToEndRegisterBuildHitStatsEvict) {
  CoresetService svc;

  const auto Handle = [&](const std::string& line) {
    const std::string response = service::HandleRequestLine(svc, line);
    auto parsed = service::ParseJson(response);
    FC_CHECK_MSG(parsed.ok(), response.c_str());
    return std::move(parsed.value());
  };

  const JsonValue registered = Handle(
      R"({"verb":"register","name":"p","points":)"
      R"([[0,0],[1,0],[0,1],[9,9],[9,8],[8,9],[5,5],[5,6]]})");
  ASSERT_TRUE(registered.Find("ok")->bool_value())
      << registered.Find("message")->string_value();
  EXPECT_EQ(registered.Find("rows")->number_value(), 8.0);

  const std::string build_line =
      R"({"verb":"build","dataset":"p","method":"uniform","k":2,"m":4,)"
      R"("seed":5,"shards":2})";
  const JsonValue first = Handle(build_line);
  ASSERT_TRUE(first.Find("ok")->bool_value())
      << first.Find("message")->string_value();
  EXPECT_EQ(first.Find("cache")->string_value(), "miss");
  EXPECT_EQ(first.Find("shards")->number_value(), 2.0);

  const JsonValue second = Handle(build_line);
  EXPECT_EQ(second.Find("cache")->string_value(), "hit");
  EXPECT_EQ(second.Find("points_processed")->number_value(), 0.0);
  EXPECT_EQ(second.Find("coreset_fingerprint")->string_value(),
            first.Find("coreset_fingerprint")->string_value())
      << "cache hit must be bit-identical";

  const JsonValue stats = Handle(R"({"verb":"stats"})");
  EXPECT_EQ(stats.Find("cache")->Find("hits")->number_value(), 1.0);
  EXPECT_EQ(stats.Find("cache")->Find("misses")->number_value(), 1.0);
  EXPECT_EQ(stats.Find("datasets")->array().size(), 1u);

  const JsonValue evicted =
      Handle(R"({"verb":"evict","dataset":"p"})");
  ASSERT_TRUE(evicted.Find("ok")->bool_value());
  EXPECT_EQ(evicted.Find("evicted")->number_value(), 1.0);
  EXPECT_EQ(Handle(build_line).Find("cache")->string_value(), "miss");
}

TEST(ServiceTest, TransportLoadGaugesFlowIntoStats) {
  CoresetService svc;

  const auto Transport = [&]() {
    const std::string response =
        service::HandleRequestLine(svc, R"({"verb":"stats"})");
    auto parsed = service::ParseJson(response);
    FC_CHECK_MSG(parsed.ok(), response.c_str());
    FC_CHECK_MSG(parsed->Find("transport") != nullptr, response.c_str());
    return *parsed->Find("transport");
  };

  // Without an attached transport every gauge reads zero.
  const JsonValue idle = Transport();
  EXPECT_EQ(idle.Find("queue_depth")->number_value(), 0.0);
  EXPECT_EQ(idle.Find("sessions_active")->number_value(), 0.0);
  EXPECT_EQ(idle.Find("requests_rejected")->number_value(), 0.0);

  // Gauges are last-write-wins; the rejection counter accumulates.
  svc.ReportTransportLoad(3, 2);
  svc.AddTransportRejections(5);
  svc.AddTransportRejections(2);
  const CoresetService::TransportStats load = svc.TransportLoad();
  EXPECT_EQ(load.queue_depth, 3u);
  EXPECT_EQ(load.sessions_active, 2u);
  EXPECT_EQ(load.requests_rejected, 7u);

  const JsonValue busy = Transport();
  EXPECT_EQ(busy.Find("queue_depth")->number_value(), 3.0);
  EXPECT_EQ(busy.Find("sessions_active")->number_value(), 2.0);
  EXPECT_EQ(busy.Find("requests_rejected")->number_value(), 7.0);

  svc.ReportTransportLoad(0, 0);
  const JsonValue drained = Transport();
  EXPECT_EQ(drained.Find("queue_depth")->number_value(), 0.0);
  EXPECT_EQ(drained.Find("sessions_active")->number_value(), 0.0);
  EXPECT_EQ(drained.Find("requests_rejected")->number_value(), 7.0)
      << "rejections are lifetime totals, not gauges";
}

TEST(ProtocolTest, IdEchoAndOverloadResponse) {
  CoresetService svc;

  // A string or numeric "id" is echoed verbatim, on success and error.
  const auto with_string_id = service::ParseJson(
      service::HandleRequestLine(svc, R"({"verb":"stats","id":"req-7"})"));
  ASSERT_TRUE(with_string_id.ok());
  EXPECT_TRUE(with_string_id->Find("ok")->bool_value());
  EXPECT_EQ(with_string_id->Find("id")->string_value(), "req-7");

  const auto with_number_id = service::ParseJson(
      service::HandleRequestLine(svc, R"({"verb":"warp","id":42})"));
  ASSERT_TRUE(with_number_id.ok());
  EXPECT_FALSE(with_number_id->Find("ok")->bool_value());
  EXPECT_EQ(with_number_id->Find("id")->number_value(), 42.0);

  // Any other id type is rejected (and carries no echo to mis-match).
  const auto bad_id = service::ParseJson(
      service::HandleRequestLine(svc, R"({"verb":"stats","id":[1]})"));
  ASSERT_TRUE(bad_id.ok());
  EXPECT_FALSE(bad_id->Find("ok")->bool_value());
  EXPECT_EQ(bad_id->Find("code")->string_value(), "invalid_argument");
  EXPECT_EQ(bad_id->Find("id"), nullptr);

  // The admission-control rejection is a valid protocol line carrying
  // the gauges that triggered the shed.
  const auto overload =
      service::ParseJson(service::OverloadResponse(9, 8));
  ASSERT_TRUE(overload.ok());
  EXPECT_EQ(overload->Find("v")->number_value(), 1.0);
  EXPECT_FALSE(overload->Find("ok")->bool_value());
  EXPECT_EQ(overload->Find("code")->string_value(), "unavailable");
  EXPECT_EQ(overload->Find("queue_depth")->number_value(), 9.0);
  EXPECT_EQ(overload->Find("queue_limit")->number_value(), 8.0);
  EXPECT_FALSE(overload->Find("message")->string_value().empty());
}

TEST(ProtocolTest, MalformedRequestsGetErrorResponsesNotCrashes) {
  CoresetService svc;
  for (const char* line :
       {"not json at all", "[1,2,3]", R"({"verb":"warp"})",
        R"({"verb":"build"})", R"({"verb":"build","dataset":"nope","k":1})",
        R"({"verb":"register","name":"x"})",
        R"({"verb":"register","name":"x","points":[[1,2],[3]]})",
        R"({"verb":"build","dataset":"d","k":-1})",
        R"({"verb":"build","dataset":"d","typo_field":1})",
        R"({"verb":"evict"})"}) {
    const std::string response = service::HandleRequestLine(svc, line);
    const auto parsed = service::ParseJson(response);
    ASSERT_TRUE(parsed.ok()) << "unparseable response: " << response;
    EXPECT_FALSE(parsed.value().Find("ok")->bool_value()) << line;
    EXPECT_FALSE(parsed.value().Find("message")->string_value().empty())
        << line;
  }
}

// A quadtree depth cap past 62 used to reach the tree builder: duplicate
// rows descend one new cell per level (std::bad_alloc at 20M levels), and
// cell coordinates past level 62 overflow int64. Validation now rejects
// it as a structured error, and the service keeps serving.
TEST(ProtocolTest, OversizedSeedingDepthIsRejectedAndServiceSurvives) {
  CoresetService svc;
  const auto Handle = [&](const std::string& line) {
    const std::string response = service::HandleRequestLine(svc, line);
    auto parsed = service::ParseJson(response);
    FC_CHECK_MSG(parsed.ok(), response.c_str());
    return std::move(parsed.value());
  };
  ASSERT_TRUE(Handle(R"({"verb":"register","name":"dup",)"
                     R"("points":[[0,0],[0,0],[1,1],[2,2]]})")
                  .Find("ok")
                  ->bool_value());
  const auto Build = [&](int depth) {
    return Handle(R"({"verb":"build","dataset":"dup","method":"fast_coreset",)"
                  R"("k":2,"m":8,"seed":1,"options":{"seeding_max_depth":)" +
                  std::to_string(depth) + "}}");
  };

  for (int depth : {20000000, 63}) {
    const JsonValue rejected = Build(depth);
    ASSERT_FALSE(rejected.Find("ok")->bool_value()) << depth;
    EXPECT_EQ(rejected.Find("code")->string_value(), "invalid_argument");
    EXPECT_NE(rejected.Find("message")->string_value().find("[1, 62]"),
              std::string::npos)
        << rejected.Find("message")->string_value();
  }

  // The deepest allowed tree still builds: the duplicates descend to
  // level 62 and share a leaf there.
  const JsonValue deepest = Build(62);
  ASSERT_TRUE(deepest.Find("ok")->bool_value())
      << deepest.Find("message")->string_value();
  EXPECT_EQ(deepest.Find("cache")->string_value(), "miss");
  EXPECT_TRUE(Handle(R"({"verb":"stats"})").Find("ok")->bool_value());
}

// Service builds honour the library-wide thread-invariance contract end
// to end (the acceptance matrix: shards x FC_THREADS).
TEST(ServiceTest, ServedCoresetsAreBitIdenticalAcrossThreadCounts) {
  for (size_t shards : {size_t{1}, size_t{4}}) {
    Coreset serial, threaded;
    {
      ThreadCountGuard guard(1);
      CoresetService svc;
  AddMixture(svc);
      serial = svc.Build(SmallRequest("mixture", 7, shards))->coreset;
    }
    {
      ThreadCountGuard guard(4);
      CoresetService svc;
  AddMixture(svc);
      threaded = svc.Build(SmallRequest("mixture", 7, shards))->coreset;
    }
    ExpectBitIdentical(serial, threaded,
                       "served shards=" + std::to_string(shards) +
                           " FC_THREADS 1 vs 4");
  }
}

}  // namespace
}  // namespace fastcoreset

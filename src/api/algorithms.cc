// The built-in spectrum behind the registry: the paper's five compression
// methods (uniform -> lightweight -> welterweight -> sensitivity ->
// fast_coreset), the group-sampling extension, and the streaming builders
// (bico, stream_km). Each adapter maps the facade's CoresetSpec onto the
// method's internal entry point — calling it exactly once with the given
// rng, so a facade build is bit-identical to the legacy free-function path
// at the same seed (pinned by tests/api_test.cc).

#include <utility>

#include "src/api/registry.h"
#include "src/common/timer.h"
#include "src/core/fast_coreset.h"
#include "src/core/group_sampling.h"
#include "src/core/lightweight_coreset.h"
#include "src/core/sensitivity_sampling.h"
#include "src/core/uniform_sampling.h"
#include "src/core/welterweight_coreset.h"
#include "src/streaming/bico.h"
#include "src/streaming/streamkm.h"

namespace fastcoreset {
namespace api {

namespace {

/// Fetches the method's sub-options, falling back to defaults when the
/// spec holds monostate. ValidateSpec has already rejected mismatches.
template <typename OptionsT>
OptionsT OptionsOrDefault(const CoresetSpec& spec) {
  if (const OptionsT* options = std::get_if<OptionsT>(&spec.options)) {
    return *options;
  }
  return OptionsT{};
}

void RecordStage(BuildDiagnostics* diag, const char* name, double seconds) {
  if (diag != nullptr) diag->stages.push_back({name, seconds});
}

class UniformAlgorithm : public CoresetAlgorithm {
 public:
  std::string_view Name() const override { return "uniform"; }

  FcStatus ValidateSpec(const CoresetSpec& spec) const override {
    return ExpectOptions<UniformOptions>(spec);
  }

  Coreset Build(const CoresetSpec&, const Matrix& points,
                const std::vector<double>& weights, size_t m, Rng& rng,
                BuildDiagnostics* diag) const override {
    Timer timer;
    Coreset coreset = UniformSamplingCoreset(points, weights, m, rng);
    RecordStage(diag, "sample", timer.Seconds());
    return coreset;
  }
};

class LightweightAlgorithm : public CoresetAlgorithm {
 public:
  std::string_view Name() const override { return "lightweight"; }

  FcStatus ValidateSpec(const CoresetSpec& spec) const override {
    return ExpectOptions<LightweightOptions>(spec);
  }

  Coreset Build(const CoresetSpec& spec, const Matrix& points,
                const std::vector<double>& weights, size_t m, Rng& rng,
                BuildDiagnostics* diag) const override {
    if (diag != nullptr) diag->j_effective = 1;  // 1-means candidate.
    Timer timer;
    Coreset coreset = LightweightCoreset(points, weights, m, spec.z, rng);
    RecordStage(diag, "sample", timer.Seconds());
    return coreset;
  }
};

class WelterweightAlgorithm : public CoresetAlgorithm {
 public:
  std::string_view Name() const override { return "welterweight"; }

  FcStatus ValidateSpec(const CoresetSpec& spec) const override {
    return ExpectOptions<WelterweightOptions>(spec);
  }

  Coreset Build(const CoresetSpec& spec, const Matrix& points,
                const std::vector<double>& weights, size_t m, Rng& rng,
                BuildDiagnostics* diag) const override {
    const WelterweightOptions options =
        OptionsOrDefault<WelterweightOptions>(spec);
    if (diag != nullptr) {
      diag->j_effective =
          options.j == 0 ? DefaultWelterweightJ(spec.k) : options.j;
    }
    Timer timer;
    Coreset coreset = WelterweightCoreset(points, weights, spec.k, options.j,
                                          m, spec.z, rng);
    RecordStage(diag, "seed_and_sample", timer.Seconds());
    return coreset;
  }
};

class SensitivityAlgorithm : public CoresetAlgorithm {
 public:
  std::string_view Name() const override { return "sensitivity"; }

  FcStatus ValidateSpec(const CoresetSpec& spec) const override {
    return ExpectOptions<SensitivityOptions>(spec);
  }

  Coreset Build(const CoresetSpec& spec, const Matrix& points,
                const std::vector<double>& weights, size_t m, Rng& rng,
                BuildDiagnostics* diag) const override {
    if (diag != nullptr) diag->j_effective = spec.k;  // Full k-center seed.
    Timer timer;
    Coreset coreset =
        SensitivitySamplingCoreset(points, weights, spec.k, m, spec.z, rng);
    RecordStage(diag, "seed_and_sample", timer.Seconds());
    return coreset;
  }
};

class FastCoresetAlgorithm : public CoresetAlgorithm {
 public:
  std::string_view Name() const override { return "fast_coreset"; }

  FcStatus ValidateSpec(const CoresetSpec& spec) const override {
    return ExpectOptions<FastOptions>(spec);
  }

  Coreset Build(const CoresetSpec& spec, const Matrix& points,
                const std::vector<double>& weights, size_t m, Rng& rng,
                BuildDiagnostics* diag) const override {
    const FastOptions options = OptionsOrDefault<FastOptions>(spec);
    FastCoresetOptions core;
    core.k = spec.k;
    core.m = m;
    core.z = spec.z;
    core.use_jl = options.use_jl;
    core.jl_eps = options.jl_eps;
    core.use_spread_reduction = options.use_spread_reduction;
    core.center_correction = options.center_correction;
    core.correction_eps = options.correction_eps;
    core.seeder = options.seeder == FastSeeder::kTreeGreedy
                      ? FastCoresetSeeder::kTreeGreedy
                      : FastCoresetSeeder::kFastKMeansPlusPlus;
    core.seeding.max_depth = options.seeding_max_depth;
    core.seeding.full_depth_tree = options.seeding_full_depth_tree;
    core.seeding.rejection_sampling = options.seeding_rejection_sampling;
    core.seeding.max_rejections = options.seeding_max_rejections;

    if (diag != nullptr) diag->j_effective = spec.k;  // Full k solution.
    return FastCoreset(points, weights, core, rng,
                       diag == nullptr ? nullptr : &diag->stages);
  }
};

class GroupSamplingAlgorithm : public CoresetAlgorithm {
 public:
  std::string_view Name() const override { return "group_sampling"; }

  FcStatus ValidateSpec(const CoresetSpec& spec) const override {
    return ExpectOptions<GroupOptions>(spec);
  }

  Coreset Build(const CoresetSpec& spec, const Matrix& points,
                const std::vector<double>& weights, size_t m, Rng& rng,
                BuildDiagnostics* diag) const override {
    const GroupOptions options = OptionsOrDefault<GroupOptions>(spec);
    GroupSamplingOptions core;
    core.k = spec.k;
    core.m = m;
    core.z = spec.z;
    core.eps = options.eps;
    if (diag != nullptr) diag->j_effective = spec.k;
    Timer timer;
    Coreset coreset = GroupSamplingCoreset(points, weights, core, rng);
    RecordStage(diag, "seed_and_sample", timer.Seconds());
    return coreset;
  }
};

class BicoAlgorithm : public CoresetAlgorithm {
 public:
  std::string_view Name() const override { return "bico"; }

  FcStatus ValidateSpec(const CoresetSpec& spec) const override {
    if (spec.z != 2) {
      return FcStatus::InvalidArgument(
          "bico supports z == 2 (k-means) only");
    }
    return ExpectOptions<api::BicoOptions>(spec);
  }

  FcStatus ValidateInput(
      const Matrix&, const std::vector<double>& weights) const override {
    // A clustering feature cannot absorb a massless point (the CF tree
    // aborts on weight == 0); the other samplers just never draw it.
    for (size_t i = 0; i < weights.size(); ++i) {
      if (weights[i] == 0.0) {
        return FcStatus::InvalidArgument(
            "bico requires strictly positive weights (weights[" +
            std::to_string(i) + "] is 0)");
      }
    }
    return FcStatus::Ok();
  }

  Coreset Build(const CoresetSpec& spec, const Matrix& points,
                const std::vector<double>& weights, size_t m, Rng&,
                BuildDiagnostics* diag) const override {
    const api::BicoOptions options =
        OptionsOrDefault<api::BicoOptions>(spec);
    fastcoreset::BicoOptions core;
    core.max_features = options.max_features == 0 ? m : options.max_features;
    core.initial_threshold = options.initial_threshold;
    core.max_depth = options.max_depth;
    Timer timer;
    Bico bico(points.cols(), core);
    bico.InsertAll(points, weights);
    RecordStage(diag, "insert", timer.Seconds());
    timer.Reset();
    Coreset coreset = bico.ExtractCoreset();
    RecordStage(diag, "extract", timer.Seconds());
    return coreset;
  }
};

class StreamKmAlgorithm : public CoresetAlgorithm {
 public:
  std::string_view Name() const override { return "stream_km"; }

  FcStatus ValidateSpec(const CoresetSpec& spec) const override {
    if (spec.z != 2) {
      return FcStatus::InvalidArgument(
          "stream_km supports z == 2 (k-means) only");
    }
    return ExpectOptions<StreamKmOptions>(spec);
  }

  Coreset Build(const CoresetSpec&, const Matrix& points,
                const std::vector<double>& weights, size_t m, Rng& rng,
                BuildDiagnostics* diag) const override {
    Timer timer;
    Coreset coreset = StreamKmReduce(points, weights, m, rng);
    RecordStage(diag, "reduce", timer.Seconds());
    return coreset;
  }
};

FC_REGISTER_CORESET_ALGORITHM("uniform", UniformAlgorithm);
FC_REGISTER_CORESET_ALGORITHM("lightweight", LightweightAlgorithm);
FC_REGISTER_CORESET_ALGORITHM("welterweight", WelterweightAlgorithm);
FC_REGISTER_CORESET_ALGORITHM("sensitivity", SensitivityAlgorithm);
FC_REGISTER_CORESET_ALGORITHM("fast_coreset", FastCoresetAlgorithm,
                              {"fast"});
FC_REGISTER_CORESET_ALGORITHM("group_sampling", GroupSamplingAlgorithm,
                              {"group"});
FC_REGISTER_CORESET_ALGORITHM("bico", BicoAlgorithm);
FC_REGISTER_CORESET_ALGORITHM("stream_km", StreamKmAlgorithm, {"streamkm"});

}  // namespace

namespace internal {

// Linker anchor: fc_api is a static library, so this translation unit —
// and with it the self-registrations above — is only linked into a binary
// if some symbol here is referenced. Registry::Instance() calls this
// no-op, guaranteeing every registry user sees the built-ins.
void EnsureBuiltinAlgorithmsLinked() {}

}  // namespace internal

}  // namespace api
}  // namespace fastcoreset

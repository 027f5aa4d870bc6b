// The method table: the paper's five compression methods (uniform ->
// lightweight -> welterweight -> sensitivity -> fast_coreset), the
// group-sampling extension, and the streaming builders (bico, stream_km),
// with their aliases and default options. Each adapter maps the facade's
// CoresetSpec onto the method's internal entry point — calling it exactly
// once with the given rng, so a facade build is bit-identical to the
// legacy free-function path at the same seed (pinned by tests/api_test.cc).

#include <utility>

#include "src/api/algorithm.h"
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

/// The method's own sub-options with defaults resolved. ValidateSpec has
/// already rejected another method's alternative.
template <typename OptionsT>
OptionsT Resolved(const CoresetSpec& spec, size_t m) {
  return std::get<OptionsT>(ResolvedOptions(spec, m));
}

void RecordStage(BuildDiagnostics* diag, const char* name, double seconds) {
  if (diag != nullptr) diag->stages.push_back({name, seconds});
}

class UniformAlgorithm : public CoresetAlgorithm {
 public:
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
  Coreset Build(const CoresetSpec& spec, const Matrix& points,
                const std::vector<double>& weights, size_t m, Rng& rng,
                BuildDiagnostics* diag) const override {
    const auto options = Resolved<WelterweightOptions>(spec, m);
    if (diag != nullptr) diag->j_effective = options.j;
    Timer timer;
    Coreset coreset = WelterweightCoreset(points, weights, spec.k, options.j,
                                          m, spec.z, rng);
    RecordStage(diag, "seed_and_sample", timer.Seconds());
    return coreset;
  }
};

class SensitivityAlgorithm : public CoresetAlgorithm {
 public:
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
  Coreset Build(const CoresetSpec& spec, const Matrix& points,
                const std::vector<double>& weights, size_t m, Rng& rng,
                BuildDiagnostics* diag) const override {
    const auto options = Resolved<FastOptions>(spec, m);
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
  Coreset Build(const CoresetSpec& spec, const Matrix& points,
                const std::vector<double>& weights, size_t m, Rng& rng,
                BuildDiagnostics* diag) const override {
    const auto options = Resolved<GroupOptions>(spec, m);
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
  FcStatus ValidateSpec(const CoresetSpec& spec) const override {
    if (spec.z != 2) {
      return FcStatus::InvalidArgument(
          "bico supports z == 2 (k-means) only");
    }
    return FcStatus::Ok();
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
    const auto options = Resolved<api::BicoOptions>(spec, m);
    fastcoreset::BicoOptions core;
    core.max_features = options.max_features;
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
  FcStatus ValidateSpec(const CoresetSpec& spec) const override {
    if (spec.z != 2) {
      return FcStatus::InvalidArgument(
          "stream_km supports z == 2 (k-means) only");
    }
    return FcStatus::Ok();
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

// Stateless singletons; constinit because FindMethod may run from any
// other translation unit's static initializers.
constinit const UniformAlgorithm kUniform;
constinit const LightweightAlgorithm kLightweight;
constinit const WelterweightAlgorithm kWelterweight;
constinit const SensitivityAlgorithm kSensitivity;
constinit const FastCoresetAlgorithm kFastCoreset;
constinit const GroupSamplingAlgorithm kGroupSampling;
constinit const BicoAlgorithm kBico;
constinit const StreamKmAlgorithm kStreamKm;

struct Method {
  std::string_view name;
  std::string_view alias;  ///< Empty when the method has none.
  const CoresetAlgorithm* algorithm;
  MethodOptions defaults;  ///< std::monostate: the method has no knobs.
};

/// Sorted by name: MethodNames() and the not-found message list this order.
constinit const Method kMethods[] = {
    {"bico", "", &kBico, api::BicoOptions{}},
    {"fast_coreset", "fast", &kFastCoreset, FastOptions{}},
    {"group_sampling", "group", &kGroupSampling, GroupOptions{}},
    {"lightweight", "", &kLightweight, {}},
    {"sensitivity", "", &kSensitivity, {}},
    {"stream_km", "streamkm", &kStreamKm, {}},
    {"uniform", "", &kUniform, {}},
    {"welterweight", "", &kWelterweight, WelterweightOptions{}},
};

const Method* FindRow(std::string_view name) {
  for (const Method& method : kMethods) {
    if (name == method.name ||
        (!method.alias.empty() && name == method.alias)) {
      return &method;
    }
  }
  return nullptr;
}

/// The table row holding `algorithm`; an empty row (no name, no knobs)
/// for a subclass defined outside the table.
const Method& RowOf(const CoresetAlgorithm* algorithm) {
  static constexpr Method kUnlisted{};
  for (const Method& method : kMethods) {
    if (method.algorithm == algorithm) return method;
  }
  return kUnlisted;
}

}  // namespace

std::string_view CoresetAlgorithm::Name() const { return RowOf(this).name; }

const MethodOptions& CoresetAlgorithm::DefaultOptions() const {
  return RowOf(this).defaults;
}

FcStatus CoresetAlgorithm::ValidateSpec(const CoresetSpec& /*spec*/) const {
  return FcStatus::Ok();
}

FcStatus CoresetAlgorithm::ValidateInput(
    const Matrix& /*points*/, const std::vector<double>& /*weights*/) const {
  return FcStatus::Ok();
}

FcStatusOr<const CoresetAlgorithm*> FindMethod(std::string_view name) {
  if (const Method* method = FindRow(name)) {
    return FcStatusOr<const CoresetAlgorithm*>(method->algorithm);
  }
  std::string known;
  for (const Method& method : kMethods) {
    if (!known.empty()) known += ", ";
    known += method.name;
  }
  return FcStatus::NotFound("no coreset method named '" + std::string(name) +
                            "' (registered: " + known + ")");
}

std::vector<std::string> MethodNames() {
  std::vector<std::string> names;
  for (const Method& method : kMethods) names.emplace_back(method.name);
  return names;
}

MethodOptions ResolvedOptions(const CoresetSpec& spec, size_t m) {
  MethodOptions options = spec.options;
  if (std::holds_alternative<std::monostate>(options)) {
    if (const Method* method = FindRow(spec.method)) {
      options = method->defaults;
    }
  }
  if (auto* welterweight = std::get_if<WelterweightOptions>(&options)) {
    if (welterweight->j == 0) welterweight->j = DefaultWelterweightJ(spec.k);
  }
  if (auto* bico = std::get_if<BicoOptions>(&options)) {
    if (bico->max_features == 0) bico->max_features = m;
  }
  return options;
}

}  // namespace api
}  // namespace fastcoreset

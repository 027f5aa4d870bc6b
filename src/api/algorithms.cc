// The method table: the paper's five compression methods (uniform ->
// lightweight -> welterweight -> sensitivity -> fast_coreset), the
// group-sampling extension, and the streaming builders (bico, stream_km).
// Each row names a method, its alias and default options, and the free
// functions that validate and build it. A Build* function passes the
// spec's resolved options straight to the method's entry point, calling
// it exactly once with the given rng, so a facade build is bit-identical
// to the direct call at the same seed (pinned by tests/api_test.cc).

#include <string>

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

WorkCounters* WorkOf(BuildDiagnostics* diag) {
  return diag == nullptr ? nullptr : &diag->work;
}

Coreset BuildUniform(const CoresetSpec&, const Matrix& points,
                     const std::vector<double>& weights, size_t m, Rng& rng,
                     BuildDiagnostics* diag) {
  Timer timer;
  Coreset coreset = UniformSamplingCoreset(points, weights, m, rng);
  RecordStage(diag, "sample", timer.Seconds());
  return coreset;
}

Coreset BuildLightweight(const CoresetSpec& spec, const Matrix& points,
                         const std::vector<double>& weights, size_t m,
                         Rng& rng, BuildDiagnostics* diag) {
  if (diag != nullptr) diag->j_effective = 1;  // 1-means candidate.
  Timer timer;
  Coreset coreset = LightweightCoreset(points, weights, m, spec.z, rng);
  RecordStage(diag, "sample", timer.Seconds());
  return coreset;
}

Coreset BuildWelterweight(const CoresetSpec& spec, const Matrix& points,
                          const std::vector<double>& weights, size_t m,
                          Rng& rng, BuildDiagnostics* diag) {
  const size_t j = Resolved<WelterweightOptions>(spec, m).j;
  if (diag != nullptr) diag->j_effective = j;
  Timer timer;
  Coreset coreset = WelterweightCoreset(points, weights, spec.k, j, m, spec.z,
                                        rng, WorkOf(diag));
  RecordStage(diag, "seed_and_sample", timer.Seconds());
  return coreset;
}

Coreset BuildSensitivity(const CoresetSpec& spec, const Matrix& points,
                         const std::vector<double>& weights, size_t m,
                         Rng& rng, BuildDiagnostics* diag) {
  if (diag != nullptr) diag->j_effective = spec.k;  // Full k-center seed.
  Timer timer;
  Coreset coreset = SensitivitySamplingCoreset(points, weights, spec.k, m,
                                               spec.z, rng, WorkOf(diag));
  RecordStage(diag, "seed_and_sample", timer.Seconds());
  return coreset;
}

Coreset BuildFastCoreset(const CoresetSpec& spec, const Matrix& points,
                         const std::vector<double>& weights, size_t m,
                         Rng& rng, BuildDiagnostics* diag) {
  if (diag != nullptr) diag->j_effective = spec.k;  // Full k solution.
  return FastCoreset(points, weights, spec.k, m, spec.z,
                     Resolved<FastOptions>(spec, m), rng,
                     diag == nullptr ? nullptr : &diag->stages);
}

Coreset BuildGroupSampling(const CoresetSpec& spec, const Matrix& points,
                           const std::vector<double>& weights, size_t m,
                           Rng& rng, BuildDiagnostics* diag) {
  if (diag != nullptr) diag->j_effective = spec.k;
  Timer timer;
  Coreset coreset =
      GroupSamplingCoreset(points, weights, spec.k, m, spec.z,
                           Resolved<GroupOptions>(spec, m), rng, WorkOf(diag));
  RecordStage(diag, "seed_and_sample", timer.Seconds());
  return coreset;
}

Coreset BuildBico(const CoresetSpec& spec, const Matrix& points,
                  const std::vector<double>& weights, size_t m, Rng&,
                  BuildDiagnostics* diag) {
  Timer timer;
  Bico bico(points.cols(), Resolved<BicoOptions>(spec, m));
  bico.InsertAll(points, weights);
  RecordStage(diag, "insert", timer.Seconds());
  timer.Reset();
  Coreset coreset = bico.ExtractCoreset();
  RecordStage(diag, "extract", timer.Seconds());
  return coreset;
}

Coreset BuildStreamKm(const CoresetSpec&, const Matrix& points,
                      const std::vector<double>& weights, size_t m, Rng& rng,
                      BuildDiagnostics* diag) {
  Timer timer;
  Coreset coreset = StreamKmReduce(points, weights, m, rng, WorkOf(diag));
  RecordStage(diag, "reduce", timer.Seconds());
  return coreset;
}

/// The streaming builders are k-means-only constructions.
FcStatus RequireKMeans(const char* method, const CoresetSpec& spec) {
  if (spec.z == 2) return FcStatus::Ok();
  return FcStatus::InvalidArgument(std::string(method) +
                                   " supports z == 2 (k-means) only");
}

FcStatus ValidateBicoSpec(const CoresetSpec& spec) {
  return RequireKMeans("bico", spec);
}

FcStatus ValidateStreamKmSpec(const CoresetSpec& spec) {
  return RequireKMeans("stream_km", spec);
}

FcStatus ValidateBicoInput(const Matrix&, const std::vector<double>& weights) {
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

/// Sorted by name: MethodNames() and the not-found message list this
/// order. constinit because FindMethod may run from any other translation
/// unit's static initializers.
constinit const CoresetAlgorithm kMethods[] = {
    {"bico", "", BicoOptions{}, BuildBico, ValidateBicoSpec,
     ValidateBicoInput},
    {"fast_coreset", "fast", FastOptions{}, BuildFastCoreset},
    {"group_sampling", "group", GroupOptions{}, BuildGroupSampling},
    {"lightweight", "", {}, BuildLightweight},
    {"sensitivity", "", {}, BuildSensitivity},
    {"stream_km", "streamkm", {}, BuildStreamKm, ValidateStreamKmSpec},
    {"uniform", "", {}, BuildUniform},
    {"welterweight", "", WelterweightOptions{}, BuildWelterweight},
};

const CoresetAlgorithm* FindRow(std::string_view name) {
  for (const CoresetAlgorithm& method : kMethods) {
    if (name == method.name ||
        (!method.alias.empty() && name == method.alias)) {
      return &method;
    }
  }
  return nullptr;
}

}  // namespace

FcStatusOr<const CoresetAlgorithm*> FindMethod(std::string_view name) {
  if (const CoresetAlgorithm* method = FindRow(name)) {
    return FcStatusOr<const CoresetAlgorithm*>(method);
  }
  std::string known;
  for (const CoresetAlgorithm& method : kMethods) {
    if (!known.empty()) known += ", ";
    known += method.name;
  }
  return FcStatus::NotFound("no coreset method named '" + std::string(name) +
                            "' (registered: " + known + ")");
}

std::vector<std::string> MethodNames() {
  std::vector<std::string> names;
  for (const CoresetAlgorithm& method : kMethods) {
    names.emplace_back(method.name);
  }
  return names;
}

MethodOptions ResolvedOptions(const CoresetSpec& spec, size_t m) {
  MethodOptions options = spec.options;
  if (std::holds_alternative<std::monostate>(options)) {
    if (const CoresetAlgorithm* method = FindRow(spec.method)) {
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

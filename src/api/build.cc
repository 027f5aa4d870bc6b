// Facade entry points: spec validation, one-shot builds, and the
// CoresetBuilder adapter for merge-&-reduce composition.

#include <cmath>
#include <string>
#include <utility>
#include <variant>

#include "src/api/fastcoreset.h"
#include "src/common/timer.h"
#include "src/core/sensitivity_sampling.h"

namespace fastcoreset {
namespace api {

namespace {

constexpr double kMinWeightTotal = 1e-150;
constexpr double kMaxWeightTotal = 1e150;

/// The shared request prologue every entry point runs: common spec
/// invariants, method-table lookup, the options alternative, and the
/// method's own spec checks.
FcStatusOr<const CoresetAlgorithm*> ResolveAndValidate(
    const CoresetSpec& spec) {
  FcStatus status = spec.Validate();
  if (!status.ok()) return status;
  FcStatusOr<const CoresetAlgorithm*> algo = FindMethod(spec.method);
  if (!algo.ok()) return algo.status();
  if (!std::holds_alternative<std::monostate>(spec.options) &&
      spec.options.index() != algo.value()->defaults.index()) {
    return FcStatus::InvalidArgument("method '" + spec.method +
                                     "' got another method's sub-options");
  }
  if (algo.value()->validate_spec != nullptr) {
    status = algo.value()->validate_spec(spec);
    if (!status.ok()) return status;
  }
  return algo;
}

/// n-dependent request checks shared by every build path, then the
/// method's own.
FcStatus ValidateInput(const CoresetAlgorithm& algo, const Matrix& points,
                       const std::vector<double>& weights) {
  if (points.rows() == 0) {
    return FcStatus::InvalidArgument("input has no points");
  }
  if (points.cols() == 0) {
    return FcStatus::InvalidArgument("input has zero dimensions");
  }
  if (!weights.empty() && weights.size() != points.rows()) {
    return FcStatus::InvalidArgument(
        "weights size (" + std::to_string(weights.size()) +
        ") does not match input rows (" + std::to_string(points.rows()) +
        ")");
  }
  double total = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    if (!std::isfinite(weights[i]) || weights[i] < 0.0) {
      return FcStatus::InvalidArgument(
          "weights[" + std::to_string(i) + "] must be finite and >= 0");
    }
    total += weights[i];
  }
  if (!weights.empty() && total <= 0.0) {
    // Every sampler needs positive total mass to draw from.
    return FcStatus::InvalidArgument("weights sum to zero");
  }
  // The samplers form count * w * total with w <= total; capping the total
  // (which also rejects a sum that overflowed to +inf) keeps that product
  // finite for any m below 1e8.
  if (total > kMaxWeightTotal) {
    return FcStatus::InvalidArgument("weights sum to more than 1e150");
  }
  // At the other end, a sampled row's weight is about total / m, which
  // underflows to 0 for tiny totals (all-subnormal weights). Above the
  // 1e-150 floor, total / m stays a normal double for any m below 1e8.
  if (!weights.empty() && total < kMinWeightTotal) {
    return FcStatus::InvalidArgument("weights sum to less than 1e-150");
  }
  if (algo.validate_input != nullptr) {
    return algo.validate_input(points, weights);
  }
  return FcStatus::Ok();
}

/// The streaming CoresetBuilder closure over a resolved algorithm. The
/// table row outlives every closure (process-lived). The
/// CoresetBuilder signature has no status channel, so per-call inputs
/// the method cannot digest are a caller contract violation — checked
/// here with the facade's own diagnostics so the failure names the real
/// cause instead of a deep internal FC_CHECK.
CoresetBuilder BuilderFor(const CoresetAlgorithm* algorithm,
                          const CoresetSpec& spec) {
  return CoresetBuilder(
      [algorithm, spec](const Matrix& points,
                        const std::vector<double>& weights, size_t m,
                        Rng& rng) {
        const FcStatus status = ValidateInput(*algorithm, points, weights);
        // fc-lint: allow(no-abort-in-service): the raw CoresetBuilder
        // callable documents a pre-validated-input contract; the
        // status-returning path is api::Build, which validates first.
        FC_CHECK_MSG(status.ok(), status.ToString().c_str());
        return algorithm->build(spec, points, weights, m, rng,
                                /*diag=*/nullptr);
      });
}

/// Pre-populates the diagnostics every build reports.
BuildDiagnostics StartDiagnostics(const CoresetAlgorithm& algo,
                                  const CoresetSpec& spec,
                                  const Matrix& points, size_t m) {
  BuildDiagnostics diag;
  diag.method = std::string(algo.name);
  diag.seed = spec.seed;
  diag.input_rows = points.rows();
  diag.input_dims = points.cols();
  diag.points_processed = points.rows();
  diag.bytes_processed = points.rows() * points.cols() * sizeof(double);
  diag.k = spec.k;
  diag.m_requested = spec.m;
  diag.m_effective = m;
  diag.z = spec.z;
  return diag;
}

void FinishDiagnostics(const Coreset& coreset, double seconds,
                       BuildDiagnostics* diag) {
  diag->total_seconds = seconds;
  diag->output_rows = coreset.size();
  diag->output_total_weight = coreset.TotalWeight();
}

}  // namespace

FcStatus ValidateSpec(const CoresetSpec& spec) {
  return ResolveAndValidate(spec).status();
}

FcStatusOr<BuildResult> Build(const CoresetSpec& spec, const Matrix& points,
                              const std::vector<double>& weights, Rng& rng) {
  FcStatusOr<const CoresetAlgorithm*> algo = ResolveAndValidate(spec);
  if (!algo.ok()) return algo.status();

  if (!weights.empty() && !spec.weights.empty()) {
    return FcStatus::InvalidArgument(
        "weights passed both in the spec and as an argument");
  }
  const std::vector<double>& effective_weights =
      weights.empty() ? spec.weights : weights;
  const FcStatus status =
      ValidateInput(*algo.value(), points, effective_weights);
  if (!status.ok()) return status;

  const size_t m = spec.EffectiveM();
  BuildDiagnostics diag = StartDiagnostics(*algo.value(), spec, points, m);
  diag.external_rng = true;
  Timer timer;
  Coreset coreset =
      algo.value()->build(spec, points, effective_weights, m, rng, &diag);
  FinishDiagnostics(coreset, timer.Seconds(), &diag);
  return BuildResult{std::move(coreset), std::move(diag)};
}

FcStatusOr<BuildResult> Build(const CoresetSpec& spec, const Matrix& points) {
  Rng rng(spec.seed);
  FcStatusOr<BuildResult> result = Build(spec, points, {}, rng);
  if (result.ok()) result->diagnostics.external_rng = false;
  return result;
}

FcStatusOr<CoresetBuilder> MakeBuilder(const CoresetSpec& spec) {
  FcStatusOr<const CoresetAlgorithm*> algo = ResolveAndValidate(spec);
  if (!algo.ok()) return algo.status();
  if (!spec.weights.empty()) {
    return FcStatus::InvalidArgument(
        "spec.weights is meaningless for a streaming builder (the "
        "compressor supplies weights per call)");
  }
  return BuilderFor(algo.value(), spec);
}

Coreset SampleFromSolution(const Matrix& points,
                           const std::vector<double>& weights,
                           const Clustering& solution, size_t m, Rng& rng) {
  return SensitivitySamplingFromSolution(points, weights, solution, m, rng);
}

}  // namespace api
}  // namespace fastcoreset

// API-surface check: a standalone consumer translation unit that includes
// ONLY the umbrella header, exactly like an out-of-tree user would. It
// exercises every facade entry point so that a missing transitive include
// or hidden internal dependency in src/api/ breaks this build — in CI —
// instead of a downstream consumer. Also registered as a ctest smoke test.

#include "src/api/fastcoreset.h"

int main() {
  using namespace fastcoreset;

  // Spec construction with sub-options, validation, and the error model.
  api::CoresetSpec spec;
  spec.method = "fast_coreset";
  spec.k = 4;
  spec.m = 40;
  spec.seed = 7;
  api::FastOptions fast_options;
  fast_options.use_jl = false;
  spec.options = fast_options;
  if (!spec.Validate().ok()) return 1;
  if (!api::ValidateSpec(spec).ok()) return 1;
  api::CoresetSpec bogus;
  bogus.method = "bogus";
  if (api::ValidateSpec(bogus).ok()) return 1;

  // Method-table introspection.
  if (!api::FindMethod("stream_km").ok()) return 1;
  if (api::MethodNames().size() < 8) return 1;

  // Seed-driven build on a tiny inline dataset + diagnostics.
  Matrix points(40, 2);
  Rng fill(3);
  for (double& x : points.data()) x = fill.Uniform(0.0, 100.0);
  const api::FcStatusOr<api::BuildResult> result = api::Build(spec, points);
  if (!result.ok()) return 1;
  if (result->coreset.size() == 0) return 1;
  if (result->diagnostics.ToString().empty()) return 1;

  // External-rng build, the streaming adapter, and streaming composition.
  Rng rng(11);
  if (!api::Build(spec, points, {}, rng).ok()) return 1;
  const api::FcStatusOr<CoresetBuilder> builder = api::MakeBuilder(spec);
  if (!builder.ok()) return 1;
  StreamingCompressor compressor(builder.value(), 40, &rng);
  compressor.Push(points);
  if (compressor.Finalize().size() == 0) return 1;

  // The bring-your-own-solution tail.
  Clustering solution;
  solution.centers = Matrix(1, 2);
  solution.assignment.assign(points.rows(), 0);
  solution.point_costs.assign(points.rows(), 1.0);
  solution.total_cost = static_cast<double>(points.rows());
  if (api::SampleFromSolution(points, {}, solution, 10, rng).size() == 0) {
    return 1;
  }
  return 0;
}

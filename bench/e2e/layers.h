// In-process per-layer measurements for the --trace runs. Each module's
// public functions are called and timed from outside, on the workload's
// own data and request shape:
//   geometry   JlProject (fast_coreset's stage), AssignToNearest
//   clustering FastKMeansPlusPlus (fast_coreset's stage), KMeansPlusPlus
//   core       ComputeSensitivities, SampleByImportance
//   api        api::Build (its wall minus the stage spans is overhead)
//   common     the thread pool (1-thread vs 4-thread build wall)
//   protocol   HandleRequestLine, ParseJson, SpecFromJson,
//              FingerprintCoreset
//   service    CoresetService::Build (hit and sharded miss),
//              CanonicalSpecKey, DatasetStore::Get
//   net        Session::IngestBytes + NextRequest (framing)
//
// fast_coreset's stages are the times api::Build reports for them itself
// (BuildDiagnostics::stages), so none of its pipeline is copied here.
// sensitivity reports a single stage, so its pipeline is run again through
// the public functions SensitivitySamplingCoreset calls.

#ifndef FASTCORESET_BENCH_E2E_LAYERS_H_
#define FASTCORESET_BENCH_E2E_LAYERS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "bench/e2e/e2e.h"
#include "src/api/fastcoreset.h"

namespace fastcoreset {
namespace e2e {

/// The build a workload asks for.
struct BuildShape {
  std::string method;  ///< "fast_coreset" or "sensitivity".
  size_t k = 0;
  size_t m = 0;
};

api::CoresetSpec SpecFor(const BuildShape& shape, uint64_t seed);

/// The NDJSON build request line for `shape` (no trailing newline).
/// `id` < 0 leaves the id out.
std::string BuildLine(const std::string& dataset, const BuildShape& shape,
                      uint64_t seed, size_t shards, int64_t id);

/// Records the stage times a fast_coreset api::Build reported as spans
/// under `parent`, back to back from `start` (the build's start on the
/// trace clock): geometry.jl_project, clustering.fast_kmpp,
/// core.sensitivities (which includes the center refinement) and
/// core.sample.
void RecordFastStages(const api::BuildDiagnostics& diagnostics, double start,
                      Trace& trace, size_t parent, uint64_t request);

/// sensitivity's pipeline through the public functions api::Build runs,
/// in the same order on the same Rng stream (z = 2, unit weights), so the
/// coreset is bit-identical to api::Build's. Records clustering.kmeanspp,
/// core.sensitivities and core.sample spans under `parent`.
Coreset DecomposedSensitivity(const Matrix& points, size_t k, size_t m,
                              uint64_t seed, Trace& trace, size_t parent,
                              uint64_t request);

/// Build-path layers (geometry, clustering, core, api, common, and the
/// Õ(nd) scaling slopes). `trace` must already hold at least one
/// "api.build" span and the stage spans of `shape.method`; the other
/// method is built `reps` times here, and each repeated kernel call runs
/// for about `budget` seconds. Adds every build-path metric to `result`
/// and returns the sum of the workload method's stage medians in seconds
/// (the layer parts of one build).
double MeasureBuildLayers(const Matrix& points, const BuildShape& shape,
                          uint64_t seed, int reps, double budget,
                          Trace& trace, Result& result);

/// Protocol, service and framing layers over an in-process
/// CoresetService holding `points`, for the shards=1 request of `shape`
/// (hits, each call repeated for about `budget` seconds) and its shards=4
/// rebuild (`miss_reps` misses). Adds their metrics to `result`.
void MeasureServiceLayers(const Matrix& points, const BuildShape& shape,
                          uint64_t seed, int miss_reps, double budget,
                          Result& result);

}  // namespace e2e
}  // namespace fastcoreset

#endif  // FASTCORESET_BENCH_E2E_LAYERS_H_

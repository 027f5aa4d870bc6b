// fastcoreset public API — the one header library consumers include.
//
//   #include "src/api/fastcoreset.h"
//
//   fastcoreset::api::CoresetSpec spec;
//   spec.method = "fast_coreset";
//   spec.k = 100;
//   spec.seed = 42;
//   auto result = fastcoreset::api::Build(spec, points);
//   if (!result.ok()) { /* result.status() says why */ }
//   use(result->coreset);
//   log(result->diagnostics.ToString());
//
// The facade covers the paper's whole sampling spectrum (uniform ->
// lightweight -> welterweight -> sensitivity -> fast_coreset), the
// group-sampling extension, and the streaming builders (bico, stream_km)
// through one spec/method-table/diagnostics surface:
//
//   - CoresetSpec (src/api/spec.h): request-shaped options; Validate()
//     rejects inconsistent requests instead of aborting.
//   - FindMethod / MethodNames (src/api/algorithm.h): the fixed method
//     table — canonical names, aliases, and each method's options.
//   - BuildResult (src/api/diagnostics.h): the coreset plus structured
//     diagnostics (per-stage wall-clock, effective parameters, volumes).
//   - FcStatus / FcStatusOr (src/api/status.h): recoverable errors.
//
// Streaming composition (merge-&-reduce) is re-exported here:
// wrap any spec into a CoresetBuilder with MakeBuilder() and feed a
// StreamingCompressor, or hand it to StreamingCompress() for a one-shot
// pass over an in-memory matrix.
// For a long-lived request-driven front (named datasets, sharded builds,
// an LRU build cache), see src/service/service.h.

#ifndef FASTCORESET_API_FASTCORESET_H_
#define FASTCORESET_API_FASTCORESET_H_

#include <cstddef>
#include <vector>

#include "src/api/algorithm.h"
#include "src/api/diagnostics.h"
#include "src/api/spec.h"
#include "src/api/status.h"
#include "src/clustering/types.h"
#include "src/common/rng.h"
#include "src/core/coreset.h"
#include "src/geometry/matrix.h"
#include "src/streaming/merge_reduce.h"

namespace fastcoreset {
namespace api {

/// Full request validation: spec.Validate(), method-table lookup, the
/// options alternative against the method's row defaults, and the row's
/// own validate_spec. Build()/MakeBuilder() run this for you;
/// call it directly to vet a request before accepting it (e.g. at a
/// service boundary).
FcStatus ValidateSpec(const CoresetSpec& spec);

/// Seed-driven build: compresses `points` (weighted by spec.weights, or
/// unweighted when empty) with the method named by the spec, using a
/// fresh Rng(spec.seed). Same spec + same points = bit-identical coreset,
/// at any FC_THREADS. Invalid or unknown requests come back as a non-ok
/// status; nothing aborts.
FcStatusOr<BuildResult> Build(const CoresetSpec& spec, const Matrix& points);

/// External-randomness build, for callers that thread one Rng through a
/// larger randomized pipeline (trial harnesses, streaming). `weights`
/// override spec.weights when non-empty (both set is an error).
FcStatusOr<BuildResult> Build(const CoresetSpec& spec, const Matrix& points,
                              const std::vector<double>& weights, Rng& rng);

/// Wraps the spec's method into the streaming CoresetBuilder signature
/// (src/core/coreset.h): the compressor supplies points/weights/m/rng per
/// reduce call, the spec supplies everything else. The spec is fully
/// validated here, once. Per-call *inputs* follow the internal
/// composition contract — the CoresetBuilder signature has no status
/// channel, so a batch the method cannot digest (e.g. a zero weight fed
/// to bico) aborts with the validation message rather than returning an
/// error; vet user-supplied batches with Build() first when in doubt.
FcStatusOr<CoresetBuilder> MakeBuilder(const CoresetSpec& spec);

/// Advanced: the sensitivity-sampling tail over a caller-provided
/// candidate solution — the common backend of the whole j-center spectrum
/// (Schwiegelshohn & Sheikh-Omar, ESA'22). For seeder research and custom
/// pipelines that bring their own approximate solution.
Coreset SampleFromSolution(const Matrix& points,
                           const std::vector<double>& weights,
                           const Clustering& solution, size_t m, Rng& rng);

}  // namespace api
}  // namespace fastcoreset

#endif  // FASTCORESET_API_FASTCORESET_H_

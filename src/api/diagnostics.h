// Structured build diagnostics: every facade build reports what it did —
// effective parameters, rng seed, input/output volumes, and a per-stage
// wall-clock breakdown — so harnesses, benches, and (eventually) a server
// frontend can log and account builds without bespoke timing code.

#ifndef FASTCORESET_API_DIAGNOSTICS_H_
#define FASTCORESET_API_DIAGNOSTICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/timer.h"
#include "src/common/work_counters.h"
#include "src/core/coreset.h"

namespace fastcoreset {
namespace api {

using fastcoreset::StageTime;

/// What a build actually did. All fields are filled by the facade; the
/// per-stage vector additionally gets method-internal stages where the
/// core records them (FastCoreset appends its Algorithm 1 stages itself).
/// This is the one record of a build: the service's sharded diagnostics
/// hold one per shard plus one for the merge rather than copying its
/// fields.
struct BuildDiagnostics {
  std::string method;        ///< Canonical method name used.
  uint64_t seed = 0;         ///< Rng seed (meaningful when !external_rng).
  bool external_rng = false; ///< Randomness came from a caller-owned Rng.

  size_t input_rows = 0;   ///< n of the build input.
  size_t input_dims = 0;   ///< d of the build input.
  size_t points_processed = 0;  ///< Rows fed through compression.
  /// points_processed * input_dims * sizeof(double).
  size_t bytes_processed = 0;

  size_t k = 0;            ///< Effective cluster count.
  size_t m_requested = 0;  ///< spec.m as given (0 = default).
  size_t m_effective = 0;  ///< Resolved coreset size target.
  int z = 2;               ///< Cost exponent.
  /// Candidate-solution size actually used by j-center samplers
  /// (welterweight j, sensitivity k, lightweight 1); 0 when the method
  /// has no such notion.
  size_t j_effective = 0;

  size_t output_rows = 0;          ///< Coreset rows produced.
  double output_total_weight = 0;  ///< Kahan-summed coreset weight.

  std::vector<StageTime> stages;  ///< Wall-clock per pipeline stage.
  double total_seconds = 0.0;     ///< Wall-clock of the whole build.
  /// Operation counts; the same at any FC_THREADS. Filled by the methods
  /// that count: k-means++ distance evaluations and rows tested by
  /// sensitivity,
  /// welterweight, group_sampling and stream_km.
  WorkCounters work;

  /// Multi-line human-readable report (stable key=value lines).
  std::string ToString() const;
};

/// A facade build's product: the coreset plus its diagnostics.
struct BuildResult {
  Coreset coreset;
  BuildDiagnostics diagnostics;
};

}  // namespace api
}  // namespace fastcoreset

#endif  // FASTCORESET_API_DIAGNOSTICS_H_

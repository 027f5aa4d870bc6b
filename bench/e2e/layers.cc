#include "bench/e2e/layers.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <utility>

#include "src/clustering/kmeans_plus_plus.h"
#include "src/common/parallel.h"
#include "src/common/timer.h"
#include "src/core/importance.h"
#include "src/geometry/distance.h"
#include "src/net/session.h"
#include "src/service/fingerprint.h"
#include "src/service/json.h"
#include "src/service/protocol.h"
#include "src/service/service.h"
#include "src/service/spec_key.h"

namespace fastcoreset {
namespace e2e {

namespace {

bool Contains(const std::vector<std::string>& names, const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

/// Rows 0, stride, 2*stride, ...: a subsample that keeps every cluster.
Matrix StridedRows(const Matrix& points, size_t stride) {
  std::vector<size_t> rows;
  for (size_t i = 0; i < points.rows(); i += stride) rows.push_back(i);
  return points.SelectRows(rows);
}

/// The layer span a fast_coreset stage is recorded under (nullptr for a
/// stage the benchmark does not know; its time stays in api overhead).
const char* FastStageSpan(const std::string& stage) {
  if (stage == "jl_projection") return "geometry.jl_project";
  if (stage == "seeding") return "clustering.fast_kmpp";
  if (stage == "sensitivities") return "core.sensitivities";
  if (stage == "sampling") return "core.sample";
  return nullptr;
}

/// Stage span names a build of `method` records, in order.
std::vector<std::string> StageNames(const std::string& method) {
  if (method == "fast_coreset") {
    return {"geometry.jl_project", "clustering.fast_kmpp",
            "core.sensitivities", "core.sample"};
  }
  return {"clustering.kmeanspp", "core.sensitivities", "core.sample"};
}

/// Median wall seconds of `fn` over at least `min_reps` calls, then more
/// until `budget_seconds` are spent (at most `max_reps`).
double MedianSeconds(const std::function<void()>& fn, int min_reps,
                     double budget_seconds, int max_reps) {
  std::vector<double> samples;
  Timer budget;
  while (static_cast<int>(samples.size()) < max_reps &&
         (static_cast<int>(samples.size()) < min_reps ||
          budget.Seconds() < budget_seconds)) {
    Timer timer;
    fn();
    samples.push_back(timer.Seconds());
  }
  return Median(std::move(samples));
}

/// One build of `shape` at `seed` recorded as stage spans: fast_coreset
/// through api::Build and the stage times it reports, sensitivity through
/// DecomposedSensitivity.
void TraceStages(const Matrix& points, const BuildShape& shape, uint64_t seed,
                 Trace& trace, uint64_t request, Result& result) {
  if (shape.method != "fast_coreset") {
    DecomposedSensitivity(points, shape.k, shape.m, seed, trace,
                          Trace::kNoParent, request);
    return;
  }
  const double start = trace.Now();
  const api::FcStatusOr<api::BuildResult> built =
      api::Build(SpecFor(shape, seed), points);
  if (result.Check(built.ok(), "api::Build seed " + std::to_string(seed))) {
    RecordFastStages(built->diagnostics, start, trace, Trace::kNoParent,
                     request);
  }
}

}  // namespace

api::CoresetSpec SpecFor(const BuildShape& shape, uint64_t seed) {
  api::CoresetSpec spec;
  spec.method = shape.method;
  spec.k = shape.k;
  spec.m = shape.m;
  spec.seed = seed;
  return spec;
}

std::string BuildLine(const std::string& dataset, const BuildShape& shape,
                      uint64_t seed, size_t shards, int64_t id) {
  std::string line = "{\"verb\":\"build\"";
  if (id >= 0) line += ",\"id\":" + std::to_string(id);
  line += ",\"dataset\":\"" + dataset + "\",\"method\":\"" + shape.method +
          "\",\"k\":" + std::to_string(shape.k) +
          ",\"m\":" + std::to_string(shape.m) +
          ",\"seed\":" + std::to_string(seed) +
          ",\"shards\":" + std::to_string(shards) + "}";
  return line;
}

void RecordFastStages(const api::BuildDiagnostics& diagnostics, double start,
                      Trace& trace, size_t parent, uint64_t request) {
  double at = start;
  for (const api::StageTime& stage : diagnostics.stages) {
    if (const char* span = FastStageSpan(stage.name)) {
      trace.Record(span, parent, request, at, at + stage.seconds);
    }
    at += stage.seconds;
  }
}

Coreset DecomposedSensitivity(const Matrix& points, size_t k, size_t m,
                              uint64_t seed, Trace& trace, size_t parent,
                              uint64_t request) {
  Rng rng(seed);
  const std::vector<double> unit;  // Unit weights.
  Clustering solution;
  {
    ScopedSpan span(trace, "clustering.kmeanspp", parent, request);
    solution = KMeansPlusPlus(points, unit, k, /*z=*/2, rng);
  }
  ImportanceScores scores;
  {
    ScopedSpan span(trace, "core.sensitivities", parent, request);
    scores = ComputeSensitivities(points, unit, solution.assignment,
                                  solution.centers, /*z=*/2);
  }
  ScopedSpan span(trace, "core.sample", parent, request);
  return SampleByImportance(points, unit, scores, m, rng);
}

double MeasureBuildLayers(const Matrix& points, const BuildShape& shape,
                          uint64_t seed, int reps, double budget,
                          Trace& trace, Result& result) {
  const size_t n = points.rows();
  const size_t d = points.cols();
  BuildShape fast = shape;
  fast.method = "fast_coreset";
  BuildShape sensitivity = shape;
  sensitivity.method = "sensitivity";
  const BuildShape& other =
      shape.method == "fast_coreset" ? sensitivity : fast;
  Trace side(/*enabled=*/true);
  for (int r = 0; r < reps; ++r) {
    TraceStages(points, other, seed + r, side, r, result);
  }
  // Stages of the workload's own method come from its traced builds; the
  // other method's from the side builds above.
  const std::vector<std::string> own = StageNames(shape.method);
  const auto stage = [&](const std::string& name) {
    return Median(Contains(own, name) ? trace.Durations(name)
                                      : side.Durations(name));
  };
  const double jl = stage("geometry.jl_project");
  const double fast_kmpp = stage("clustering.fast_kmpp");
  const double kpp = stage("clustering.kmeanspp");
  const double sens = stage("core.sensitivities");
  const double sample = stage("core.sample");
  result.Add("geometry.jl_project_ms", 1e3 * jl, "ms");
  result.Add("clustering.fast_kmpp_ms", 1e3 * fast_kmpp, "ms");
  result.Add("clustering.kmeanspp_ms", 1e3 * kpp, "ms");
  result.Add("core.sensitivities_ms", 1e3 * sens, "ms");
  result.Add("core.sample_ms", 1e3 * sample, "ms");

  double parts = 0.0;
  for (const std::string& name : own) parts += stage(name);
  const double build = Median(trace.Durations("api.build"));
  // api::Build minus its stages: validation, option handling and
  // diagnostics.
  result.Add("api.build_p50_ms", 1e3 * build, "ms");
  result.Add("api.overhead_ms", 1e3 * (build - parts), "ms");

  // Blocked assignment kernel against k centers; the op count is computed
  // (2nkd multiply-adds), not counted.
  Rng rng(seed);
  const Matrix centers =
      points.SelectRows(rng.SampleWithoutReplacement(n, shape.k));
  std::vector<size_t> assignment;
  std::vector<double> sq_dists;
  const double assign = MedianSeconds(
      [&] { AssignToNearest(points, centers, &assignment, &sq_dists); }, 3,
      budget, 50);
  result.Add("geometry.assign_ms", 1e3 * assign, "ms");
  result.Add("geometry.assign_gflops",
             2.0 * static_cast<double>(n * shape.k * d) / assign / 1e9,
             "GFLOP/s");

  // Thread-pool payoff: the same build at 1 thread over the traced
  // (multi-thread) median.
  const size_t threads = GetNumThreads();
  SetNumThreads(1);
  const double serial = MedianSeconds(
      [&] { api::Build(SpecFor(shape, seed), points); }, reps, budget, 5);
  SetNumThreads(threads);
  result.Add("common.parallel_speedup", serial / build, "x");

  // Õ(nd) check: per-stage log-log slope over n in {n/4, n/2, n} (strided
  // subsamples, both methods), and seeding slope over k in {k/4, k/2, k}.
  std::vector<double> ns;
  std::vector<double> jl_t, fast_t, kpp_t, sens_t, sample_t;
  for (size_t stride : {4, 2}) {
    const Matrix sub = StridedRows(points, stride);
    Trace sweep(/*enabled=*/true);
    for (int r = 0; r < reps; ++r) {
      TraceStages(sub, fast, seed + r, sweep, r, result);
      TraceStages(sub, sensitivity, seed + r, sweep, r, result);
    }
    ns.push_back(static_cast<double>(sub.rows()));
    jl_t.push_back(Median(sweep.Durations("geometry.jl_project")));
    fast_t.push_back(Median(sweep.Durations("clustering.fast_kmpp")));
    kpp_t.push_back(Median(sweep.Durations("clustering.kmeanspp")));
    sens_t.push_back(Median(sweep.Durations("core.sensitivities")));
    sample_t.push_back(Median(sweep.Durations("core.sample")));
  }
  ns.push_back(static_cast<double>(n));
  jl_t.push_back(jl);
  fast_t.push_back(fast_kmpp);
  kpp_t.push_back(kpp);
  sens_t.push_back(sens);
  sample_t.push_back(sample);
  result.Add("jl_project.slope_n", LogLogSlope(ns, jl_t), "exponent");
  result.Add("fast_kmpp.slope_n", LogLogSlope(ns, fast_t), "exponent");
  result.Add("kmeanspp.slope_n", LogLogSlope(ns, kpp_t), "exponent");
  result.Add("sensitivities.slope_n", LogLogSlope(ns, sens_t), "exponent");
  result.Add("sample.slope_n", LogLogSlope(ns, sample_t), "exponent");

  std::vector<double> ks;
  std::vector<double> fast_k, kpp_k;
  for (size_t divisor : {4, 2}) {
    BuildShape fewer_fast = fast;
    fewer_fast.k = std::max<size_t>(2, shape.k / divisor);
    BuildShape fewer_sensitivity = sensitivity;
    fewer_sensitivity.k = fewer_fast.k;
    Trace sweep(/*enabled=*/true);
    for (int r = 0; r < reps; ++r) {
      TraceStages(points, fewer_fast, seed + r, sweep, r, result);
      TraceStages(points, fewer_sensitivity, seed + r, sweep, r, result);
    }
    ks.push_back(static_cast<double>(fewer_fast.k));
    fast_k.push_back(Median(sweep.Durations("clustering.fast_kmpp")));
    kpp_k.push_back(Median(sweep.Durations("clustering.kmeanspp")));
  }
  ks.push_back(static_cast<double>(shape.k));
  fast_k.push_back(fast_kmpp);
  kpp_k.push_back(kpp);
  result.Add("fast_kmpp.slope_k", LogLogSlope(ks, fast_k), "exponent");
  result.Add("kmeanspp.slope_k", LogLogSlope(ks, kpp_k), "exponent");
  return parts;
}

void MeasureServiceLayers(const Matrix& points, const BuildShape& shape,
                          uint64_t seed, int miss_reps, double budget,
                          Result& result) {
  service::CoresetService svc;
  result.Check(svc.datasets().RegisterMatrix("bench", points).ok(),
               "in-process register");
  service::BuildRequest request;
  request.dataset = "bench";
  request.spec = SpecFor(shape, seed);
  const api::FcStatusOr<service::BuildResponse> warm = svc.Build(request);
  if (!result.Check(warm.ok(), "in-process warm build")) return;
  const Coreset& coreset = warm->coreset;
  const std::string line = BuildLine("bench", shape, seed, 1, /*id=*/-1);
  constexpr int kMaxReps = 5000;
  uint64_t sink = 0;  // Keeps every timed result observable.

  const double hit = MedianSeconds(
      [&] {
        const auto response = svc.Build(request);
        sink += response.ok() ? response->coreset.size() : 1;
      },
      5, budget, kMaxReps);
  const double spec_key = MedianSeconds(
      [&] {
        const auto key = service::CanonicalSpecKey(request.spec);
        sink += key.ok() ? key->size() : 1;
      },
      5, budget, kMaxReps);
  const double dataset_get = MedianSeconds(
      [&] {
        const auto entry = svc.datasets().Get("bench");
        sink += entry.ok() ? 1 : 2;
      },
      5, budget, kMaxReps);
  const double parse = MedianSeconds(
      [&] { sink += service::ParseJson(line).ok() ? 1 : 2; }, 5, budget,
      kMaxReps);
  const api::FcStatusOr<service::JsonValue> parsed = service::ParseJson(line);
  if (!result.Check(parsed.ok(), "request line parses")) return;
  const double marshal = MedianSeconds(
      [&] { sink += service::SpecFromJson(parsed.value()).ok() ? 1 : 2; }, 5,
      budget, kMaxReps);
  const double fingerprint = MedianSeconds(
      [&] { sink += service::FingerprintCoreset(coreset); }, 5, budget,
      kMaxReps);
  std::string response;
  const double handle = MedianSeconds(
      [&] { response = service::HandleRequestLine(svc, line); }, 5, budget,
      kMaxReps);
  result.Check(response.find("\"cache\":\"hit\"") != std::string::npos,
               "in-process HandleRequestLine serves a hit");

  // Framing: one request's bytes through the socket-free session.
  net::Session session(/*id=*/1, /*fd=*/-1, net::SessionLimits{});
  const std::string wire = line + "\n";
  std::vector<double> framing_samples;
  Timer framing_budget;
  while (framing_samples.size() < 5 ||
         (framing_budget.Seconds() < budget &&
          framing_samples.size() < static_cast<size_t>(kMaxReps))) {
    Timer timer;
    session.IngestBytes(wire.data(), wire.size());
    std::optional<net::Session::Request> framed = session.NextRequest();
    framing_samples.push_back(timer.Seconds());
    if (!framed.has_value()) {
      result.Check(false, "session did not frame the request");
      break;
    }
    session.CompleteRequest(framed->sequence, "{}");
    session.ConsumeOutput(session.OutputSize());
  }

  // Sharded rebuild: what a miss costs in the service, with the overlap
  // of its concurrent shards and the merge-&-reduce phase.
  service::BuildRequest miss = request;
  miss.shards = 4;
  miss.use_cache = false;
  std::vector<double> miss_s, overlap, merge_s;
  for (int r = 0; r < miss_reps; ++r) {
    Timer timer;
    const auto built = svc.Build(miss);
    miss_s.push_back(timer.Seconds());
    if (!result.Check(built.ok(), "in-process sharded build")) continue;
    const service::ServiceDiagnostics& diag = built->diagnostics;
    double shard_sum = 0.0;
    for (const auto& shard : diag.shards) {
      shard_sum += shard.build.total_seconds;
    }
    overlap.push_back(diag.critical_path_seconds > 0.0
                          ? shard_sum / diag.critical_path_seconds
                          : 0.0);
    merge_s.push_back(diag.merge.total_seconds);
  }

  result.Add("protocol.handle_us", 1e6 * handle, "us");
  result.Add("protocol.parse_us", 1e6 * parse, "us");
  result.Add("protocol.marshal_us", 1e6 * marshal, "us");
  result.Add("protocol.fingerprint_us", 1e6 * fingerprint, "us");
  // The remainder of HandleRequestLine: id/verb handling, key checks and
  // the response serialization.
  result.Add("protocol.serialize_us",
             1e6 * (handle - parse - marshal - hit - fingerprint), "us");
  result.Add("protocol.response_bytes",
             static_cast<double>(response.size() + 1), "bytes");
  result.Add("service.build_hit_us", 1e6 * hit, "us");
  result.Add("service.spec_key_us", 1e6 * spec_key, "us");
  result.Add("service.dataset_get_us", 1e6 * dataset_get, "us");
  result.Add("service.build_miss_ms", 1e3 * Median(miss_s), "ms");
  result.Add("service.shard_overlap", Median(overlap), "x");
  result.Add("streaming.merge_ms", 1e3 * Median(merge_s), "ms");
  result.Add("net.framing_us", 1e6 * Median(framing_samples), "us");
  result.Check(sink != 0, "timed calls produced results");
}

}  // namespace e2e
}  // namespace fastcoreset

// bench_e2e: the end-to-end + per-layer benchmark of the Fast-Coreset
// library (api::Build) and the shipped daemon (tools/fc_serve --listen 0,
// run as a child process). See bench/e2e/README.md for the workloads,
// the metrics, and how to compare two commits.
//
//   bench_e2e --workload build_fast|build_sensitivity|net_cached|net_mixed|all
//             [--seed S] [--seconds T] [--trace 0|1] [--out DIR]
//   bench_e2e --smoke      tiny shapes, every workload and its traced run
//
// Every input derives from --seed: the data, the request seeds and the
// arrival schedule. The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). Any failed operation or output check exits non-zero.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/e2e/daemon.h"
#include "bench/e2e/e2e.h"
#include "bench/e2e/layers.h"
#include "src/api/fastcoreset.h"
#include "src/common/parallel.h"
#include "src/common/timer.h"
#include "src/data/generators.h"
#include "src/eval/distortion.h"
#include "src/service/fingerprint.h"
#include "src/service/json.h"
#include "src/service/service.h"

namespace fastcoreset {
namespace e2e {
namespace {

constexpr int kSetupReps = 5;  // setup_s is their median.
constexpr double kDistortionCeiling = 2.0;
constexpr double kMaxUnattributedPct = 15.0;
// Open-loop validity: 99% of requests leave within 50 ms of their due
// time, five mean inter-arrival gaps at 100 req/s. Latency is timed from
// the due time, so lateness is charged to the latency metrics anyway;
// this only rejects a generator that stopped offering the schedule. On a
// shared VM the p99 read 0.02-0.3 ms in most runs but up to 6 ms when
// the host took the generator's vCPU away, so a 5 ms rule failed healthy
// runs.
// The rule needs enough requests for a p99 to rest on several of them;
// below that (smoke runs) one host stall would decide it.
constexpr double kMaxLatenessP99 = 0.050;
constexpr size_t kMinRequestsForLateness = 500;
constexpr size_t kBuildThreads = 4;

struct Options {
  std::string workload = "all";
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = "bench_out/e2e";
};

/// gaussian_mixture generator parameters (the data seed is --seed).
struct Data {
  size_t n = 0;
  size_t d = 0;
  size_t kappa = 0;
  double gamma = 0.0;
};

struct Workload {
  std::string name;
  bool net = false;
  Data data;
  BuildShape shape;
  /// Coresets whose distortion is measured (mean reported, each checked
  /// against the ceiling).
  size_t quality_coresets = 3;
  /// build_*: per-build settling-time limit for slo_pct.
  double build_limit_s = 2.0;
  // net_*: daemon, traffic and latency limits.
  size_t daemon_threads = 2;
  size_t cache_capacity = 0;  ///< 0: the daemon's default (32).
  size_t keys = 8;
  size_t connections = 4;
  bool open_loop = false;
  double rate = 0.0;        ///< Open loop: requests per second.
  double miss_share = 0.0;  ///< Open loop: share of fresh-seed misses.
  size_t miss_shards = 4;
  double hit_limit_s = 0.010;
  double miss_limit_s = 0.250;
};

Workload MakeWorkload(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  if (name == "build_fast" || name == "build_sensitivity") {
    w.data = smoke ? Data{4000, 8, 10, 1.0} : Data{200000, 32, 50, 1.0};
    w.shape.method = name == "build_fast" ? "fast_coreset" : "sensitivity";
    w.shape.k = smoke ? 20 : 400;
    w.shape.m = smoke ? 400 : 40000;
    return w;
  }
  w.net = true;
  w.data = smoke ? Data{2000, 4, 8, 0.5} : Data{20000, 8, 32, 0.5};
  w.shape.method = "fast_coreset";
  w.shape.k = smoke ? 10 : 50;
  w.shape.m = 40 * w.shape.k;
  w.quality_coresets = smoke ? 3 : 8;
  // Two closed-loop connections keep both workers busy without a queue.
  // With four, the generator, the I/O thread and both workers wanted all
  // four vCPUs, and ops_per_s over ten runs spread 19-25% (lat_p50_ms
  // 4-8%); with two it spread 8-14% and followed lat_p50_ms.
  if (name == "net_cached") w.connections = 2;
  if (name == "net_mixed") {
    w.open_loop = true;
    // Smoke runs are too short for 2.5% of 100 req/s to yield the misses
    // the quality check needs.
    w.rate = smoke ? 300.0 : 100.0;
    // A sharded miss holds both pool threads for 60-160 ms, and hits
    // served meanwhile are slower. At 10% misses the daemon ran near
    // saturation: lat_p50_ms swung from 1.3 to 7.9 ms between seeds as
    // the host's speed varied. At 5% a miss was running about half the
    // time, so the median fell between the hits served beside a miss and
    // those served alone, and read 0.6 or 0.95 ms. At 2.5% it lies among
    // the hits served alone.
    w.miss_share = smoke ? 0.3 : 0.025;
    // Each daemon sees 10 misses (2.5% of a 4 s round at 100 req/s)
    // beside its 9 warm entries; a capacity of 12 keeps LRU evictions in
    // play.
    w.cache_capacity = 12;
    // Sharded coresets' distortion varies more from seed to seed than a
    // single build's: the mean over 8 spread 2.2-2.7% across seeds, over
    // 16 it spreads 1.0-1.8%.
    if (!smoke) w.quality_coresets = 16;
  }
  return w;
}

bool KnownWorkload(const std::string& name) {
  return name == "build_fast" || name == "build_sensitivity" ||
         name == "net_cached" || name == "net_mixed";
}

Matrix GenerateData(const Data& data, uint64_t seed) {
  Rng rng(seed);
  return GenerateGaussianMixture(data.n, data.d, data.kappa, data.gamma, rng);
}

std::string FingerprintText(const Coreset& coreset) {
  return service::FingerprintHex(service::FingerprintCoreset(coreset));
}

/// The paper's distortion (Schwiegelshohn & Sheikh-Omar): max over the
/// coreset-derived solution and one probe seeded on the full data.
double Distortion(const Matrix& points, const Coreset& coreset, size_t k,
                  uint64_t seed) {
  DistortionOptions options;
  options.k = k;
  options.z = 2;
  Rng rng(seed);
  return MaxDistortionOverProbes(points, {}, coreset, options,
                                 /*extra_probes=*/1, rng);
}

/// Reports the mean distortion; every coreset must stay under the ceiling.
void AddQuality(const std::vector<double>& distortions, Result& result) {
  double sum = 0.0;
  for (double d : distortions) {
    result.Check(d <= kDistortionCeiling,
                 "distortion " + std::to_string(d) + " above " +
                     std::to_string(kDistortionCeiling));
    sum += d;
  }
  result.Check(!distortions.empty(), "no coreset to measure quality on");
  result.Add("distortion",
             distortions.empty()
                 ? 0.0
                 : sum / static_cast<double>(distortions.size()),
             "ratio");
}

/// Share (percent) of `count` operations that finished ok within their
/// limit; an operation that failed or never answered misses.
double SloPct(size_t within, size_t count) {
  return count == 0 ? 0.0
                    : 100.0 * static_cast<double>(within) /
                          static_cast<double>(count);
}

/// Seconds each repeated in-process call of a traced run gets.
double MicroBudget(const Options& options) {
  return std::min(0.3, options.seconds / 20);
}

/// Share (percent) of `wall` seconds the measuring thread spent recording
/// the trace's spans.
double TraceOverheadPct(const Trace& trace, double wall) {
  return 100.0 * static_cast<double>(trace.size()) * MeasureSpanCost() /
         wall;
}

// ---------------------------------------------------------------------
// build_fast / build_sensitivity: one in-process caller, closed loop.
// ---------------------------------------------------------------------

struct BuildLoop {
  std::vector<double> seconds;  ///< Per-build wall clock.
  std::vector<Coreset> first;   ///< Coresets of the first request seeds.
  size_t ok = 0;
  double wall = 0.0;
};

/// Cold api::Build calls with request seeds first_seed, first_seed+1, ...
/// until `duration` passes (at least `keep` builds, whose coresets are
/// kept). When tracing, each iteration also records its stage spans:
/// fast_coreset's as api::Build reported them, sensitivity's by running
/// the seed's pipeline again through the public stage functions, which
/// must reproduce api::Build bit for bit.
BuildLoop TimeBuilds(const Matrix& points, const BuildShape& shape,
                     uint64_t first_seed, double duration, size_t keep,
                     Trace& trace, Result& result) {
  BuildLoop loop;
  Timer wall;
  for (uint64_t i = 0; i < keep || wall.Seconds() < duration; ++i) {
    const uint64_t seed = first_seed + i;
    ScopedSpan iteration(trace, "iteration", Trace::kNoParent, i);
    const double start = trace.Now();
    const size_t span = trace.Open("api.build", iteration.id(), i);
    Timer timer;
    api::FcStatusOr<api::BuildResult> built =
        api::Build(SpecFor(shape, seed), points);
    loop.seconds.push_back(timer.Seconds());
    trace.Close(span);
    if (!result.Check(built.ok(), "api::Build seed " + std::to_string(seed))) {
      continue;
    }
    ++loop.ok;
    if (trace.enabled() && shape.method == "fast_coreset") {
      RecordFastStages(built->diagnostics, start, trace, span, i);
    } else if (trace.enabled()) {
      ScopedSpan decomposed(trace, "bench.decomposed", iteration.id(), i);
      const Coreset replay = DecomposedSensitivity(
          points, shape.k, shape.m, seed, trace, decomposed.id(), i);
      result.Check(FingerprintText(replay) == FingerprintText(built->coreset),
                   "decomposed pipeline differs from api::Build");
    }
    if (i < keep) loop.first.push_back(std::move(built->coreset));
  }
  loop.wall = wall.Seconds();
  return loop;
}

/// Set-up, repeated kSetupReps times: generate the dataset from the seed
/// and fingerprint it (what registering it with the service costs).
Matrix SetUpData(const Workload& w, uint64_t seed, Result& result,
                 std::vector<double>* setup_s, std::vector<double>* generate_s,
                 std::vector<double>* fingerprint_s) {
  Matrix points;
  uint64_t first = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    points = Matrix();  // One copy alive at a time keeps peak RSS honest.
    Timer timer;
    points = GenerateData(w.data, seed);
    generate_s->push_back(timer.Seconds());
    Timer hashing;
    const uint64_t fingerprint = service::FingerprintMatrix(points);
    fingerprint_s->push_back(hashing.Seconds());
    setup_s->push_back(timer.Seconds());
    if (rep == 0) first = fingerprint;
    result.Check(fingerprint == first, "data is not a function of the seed");
  }
  return points;
}

// ---------------------------------------------------------------------
// The daemon side, shared by the net workloads and the build workloads'
// traced probe.
// ---------------------------------------------------------------------

std::string RegisterLine(const Data& data, uint64_t seed) {
  return "{\"verb\":\"register\",\"name\":\"g\",\"synthetic\":{"
         "\"generator\":\"gaussian_mixture\",\"n\":" +
         std::to_string(data.n) + ",\"d\":" + std::to_string(data.d) +
         ",\"kappa\":" + std::to_string(data.kappa) +
         ",\"gamma\":" + service::JsonNumber(data.gamma) +
         ",\"seed\":" + std::to_string(seed) + "}}";
}

/// A running daemon with the workload's dataset registered and its warm
/// keys (request seeds S..S+keys-1, shards=1) built once.
struct Served {
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<Connection> control;
  double start_s = 0.0;  ///< Spawn to port announcement.
  double setup_s = 0.0;  ///< Spawn to the end of the warm-up.
  std::vector<std::string> key_fingerprints;
};

/// Starts a daemon serving `w`'s dataset and warms `keys` keys. With
/// `warm_sharded` one sharded build at an unused seed also runs, so the
/// first timed misses do not pay the sharded path's lazy start-up.
bool StartServed(const Options& options, const Workload& w, size_t keys,
                 bool warm_sharded, uint64_t data_fingerprint, Result& result,
                 Served* served) {
  const uint64_t seed = options.seed;
  Timer timer;
  served->daemon = std::make_unique<Daemon>();
  const api::FcStatus started =
      served->daemon->Start(FC_SERVE_PATH, w.daemon_threads,
                            w.cache_capacity);
  if (!result.Check(started.ok(), "daemon start: " + started.message())) {
    return false;
  }
  served->start_s = timer.Seconds();
  served->control = std::make_unique<Connection>();
  if (!result.Check(served->control->Connect(served->daemon->port()).ok(),
                    "control connection")) {
    return false;
  }
  const api::FcStatusOr<std::string> registered =
      served->control->Call(RegisterLine(w.data, seed), 120.0);
  if (!result.Check(registered.ok(), "register call")) return false;
  const api::FcStatusOr<service::JsonValue> reply =
      service::ParseJson(registered.value());
  const service::JsonValue* fingerprint =
      reply.ok() ? reply->Find("fingerprint") : nullptr;
  // The daemon generated the same rows as the bench did in-process.
  if (!result.Check(fingerprint != nullptr && fingerprint->is_string() &&
                        fingerprint->string_value() ==
                            service::FingerprintHex(data_fingerprint),
                    "daemon dataset differs: " + registered.value())) {
    return false;
  }
  served->key_fingerprints.clear();
  for (size_t key = 0; key < keys; ++key) {
    const api::FcStatusOr<std::string> line = served->control->Call(
        BuildLine("g", w.shape, seed + key, 1, static_cast<int64_t>(key)),
        120.0);
    const Reply warm = line.ok() ? ParseReply(line.value()) : Reply{};
    if (!result.Check(warm.ok && warm.cache == "miss",
                      "warm key " + std::to_string(key))) {
      return false;
    }
    served->key_fingerprints.push_back(warm.fingerprint);
  }
  if (warm_sharded) {
    const api::FcStatusOr<std::string> line = served->control->Call(
        BuildLine("g", w.shape, seed + keys, w.miss_shards, -1), 120.0);
    if (!result.Check(line.ok() && ParseReply(line.value()).ok,
                      "warm sharded build")) {
      return false;
    }
  }
  served->setup_s = timer.Seconds();
  return true;
}

/// Prints the daemon's stats (optional), then drains and stops it;
/// returns its peak RSS in MB.
double StopServed(Served& served, bool print_stats, Result& result) {
  const double peak_rss = served.daemon->PeakRssMb();
  result.Check(peak_rss > 0.0, "daemon peak RSS unreadable");
  if (print_stats) {
    const api::FcStatusOr<std::string> stats =
        served.control->Call("{\"verb\":\"stats\"}", 30.0);
    if (result.Check(stats.ok(), "stats call")) {
      std::printf("# daemon stats: %s\n", stats.value().c_str());
    }
  }
  served.control.reset();
  result.Check(served.daemon->Stop(), "daemon did not drain and exit 0");
  return peak_rss;
}

/// Fresh-seed sharded misses sent one at a time over the control
/// connection, appended to `sent`/`samples` for the latency split.
void ProbeMisses(Served& served, const Workload& w, uint64_t first_seed,
                 int count, Result& result, std::vector<Request>* sent,
                 std::vector<Sample>* samples) {
  for (int i = 0; i < count; ++i) {
    Request request;
    request.miss = true;
    request.seed = first_seed + static_cast<uint64_t>(i);
    const size_t index = sent->size();
    request.line = BuildLine("g", w.shape, request.seed, w.miss_shards,
                             static_cast<int64_t>(index));
    sent->push_back(request);
    Timer timer;
    const api::FcStatusOr<std::string> line =
        served.control->Call(request.line, 120.0);
    Sample sample;
    sample.request = index;
    sample.latency = timer.Seconds();
    sample.reply = line.ok() ? ParseReply(line.value()) : Reply{};
    result.Check(sample.reply.ok, "probe miss " + std::to_string(i));
    samples->push_back(sample);
  }
}

/// Every reply for a warm key must carry the fingerprint of that key's
/// first (warming) reply.
void CheckKeyFingerprints(const std::vector<Sample>& samples,
                          const std::vector<Request>& sent,
                          const Served& served, Result& result) {
  for (const Sample& sample : samples) {
    const Request& request = sent[sample.request];
    if (request.miss || !sample.reply.ok) continue;
    result.Check(sample.reply.fingerprint ==
                     served.key_fingerprints[request.key],
                 "hit fingerprint differs for key " +
                     std::to_string(request.key));
  }
}

/// net.* layer metrics from what the generator saw; needs the in-process
/// protocol and framing metrics of MeasureServiceLayers. A hit's latency
/// splits into the service time the daemon reports ("seconds"), the rest
/// of HandleRequestLine (timed in-process), framing (timed in-process),
/// and transport: what is left — queue wait, worker hand-off and socket
/// I/O together. Returns the hit p50 in microseconds.
double AddNetLayers(const std::vector<Sample>& samples,
                    const std::vector<Request>& sent, Result& result) {
  std::vector<double> all, hits, misses, wait, hit_service, hit_outside, late;
  for (const Sample& sample : samples) {
    const bool miss = sent[sample.request].miss;
    all.push_back(sample.latency);
    (miss ? misses : hits).push_back(sample.latency);
    wait.push_back(sample.latency - sample.reply.seconds);
    late.push_back(sample.late);
    if (!miss) {
      hit_service.push_back(sample.reply.seconds);
      hit_outside.push_back(sample.latency - sample.reply.seconds);
    }
  }
  const double protocol_us =
      result.Get("protocol.handle_us") - result.Get("service.build_hit_us");
  result.Add("net.hit_p50_ms", 1e3 * Quantile(hits, 0.5), "ms");
  result.Add("net.hit_p99_ms", 1e3 * Quantile(hits, 0.99), "ms");
  result.Add("net.miss_p50_ms", 1e3 * Quantile(misses, 0.5), "ms");
  result.Add("net.lat_p99_ms", 1e3 * Quantile(all, 0.99), "ms");
  result.Add("net.wait_p50_ms", 1e3 * Quantile(wait, 0.5), "ms");
  result.Add("net.wait_p90_ms", 1e3 * Quantile(wait, 0.9), "ms");
  result.Add("net.hit_service_us", 1e6 * Quantile(hit_service, 0.5), "us");
  result.Add("net.transport_us",
             1e6 * Quantile(hit_outside, 0.5) - protocol_us -
                 result.Get("net.framing_us"),
             "us");
  result.Add("net.generator_late_p99_ms", 1e3 * Quantile(late, 0.99), "ms");
  return 1e6 * Quantile(hits, 0.5);
}

// ---------------------------------------------------------------------
// Workload runners.
// ---------------------------------------------------------------------

void RunBuild(const Options& options, const Workload& w, Trace& trace,
              Result& result) {
  SetNumThreads(kBuildThreads);
  std::vector<double> setup_s, generate_s, fingerprint_s;
  const Matrix points = SetUpData(w, options.seed, result, &setup_s,
                                  &generate_s, &fingerprint_s);
  // Warm-up (pool threads, allocator) at a seed the loops never use.
  if (!api::Build(SpecFor(w.shape, options.seed + (1ull << 40)), points)
           .ok()) {
    result.Check(false, "warm-up build");
  }

  if (!options.trace) {
    const BuildLoop loop =
        TimeBuilds(points, w.shape, options.seed, options.seconds,
                   w.quality_coresets, trace, result);
    const double peak_rss = SelfPeakRssMb();
    size_t within = 0;
    for (double s : loop.seconds) within += s <= w.build_limit_s ? 1 : 0;
    std::vector<double> distortions;
    for (size_t i = 0; i < loop.first.size(); ++i) {
      distortions.push_back(
          Distortion(points, loop.first[i], w.shape.k, options.seed + i));
    }
    // Bit-identity contract: the same seed at 1 thread and at 4.
    SetNumThreads(1);
    const api::FcStatusOr<api::BuildResult> serial =
        api::Build(SpecFor(w.shape, options.seed), points);
    SetNumThreads(kBuildThreads);
    result.Check(serial.ok() && !loop.first.empty() &&
                     FingerprintText(serial->coreset) ==
                         FingerprintText(loop.first[0]),
                 "1-thread and 4-thread builds differ");

    result.Add("setup_s", Median(setup_s), "s");
    result.Add("peak_rss_mb", peak_rss, "MB");
    result.Add("ops_per_s", static_cast<double>(loop.ok) / loop.wall, "1/s");
    result.Add("lat_p50_ms", 1e3 * Median(loop.seconds), "ms");
    result.Add("slo_pct", SloPct(within, loop.seconds.size()), "%");
    AddQuality(distortions, result);
    std::printf("# %zu builds, rows_per_s %.6g (n=%zu x ops_per_s)\n",
                loop.seconds.size(),
                static_cast<double>(w.data.n * loop.ok) / loop.wall,
                w.data.n);
    return;
  }

  // Traced run: each iteration times api::Build and then its decomposed
  // pipeline, so the figure and its parts see the same machine state.
  const BuildLoop loop = TimeBuilds(points, w.shape, options.seed,
                                    options.seconds, 1, trace, result);
  const double build = Median(loop.seconds);
  const double parts =
      MeasureBuildLayers(points, w.shape, options.seed, 3,
                         MicroBudget(options), trace, result);
  const double overhead = TraceOverheadPct(trace, loop.wall);
  MeasureServiceLayers(points, w.shape, options.seed, 2, MicroBudget(options),
                       result);

  // The same dataset and request served by the daemon: hits over one
  // connection, then two sharded misses.
  Served served;
  if (StartServed(options, w, /*keys=*/1, /*warm_sharded=*/false,
                  service::FingerprintMatrix(points), result, &served)) {
    Traffic traffic;
    traffic.connections = 1;
    traffic.seconds = std::min(1.0, options.seconds / 4);
    traffic.next = [&](uint64_t id) {
      Request request;
      request.seed = options.seed;
      request.line = BuildLine("g", w.shape, options.seed, 1,
                               static_cast<int64_t>(id));
      return request;
    };
    TrafficRun run =
        RunTraffic(served.daemon->port(), traffic, trace, result);
    CheckKeyFingerprints(run.samples, run.sent, served, result);
    ProbeMisses(served, w, (options.seed + 1) * 1000000, 2, result,
                &run.sent, &run.samples);
    AddNetLayers(run.samples, run.sent, result);
    StopServed(served, /*print_stats=*/true, result);
  }
  result.Add("data.generate_s", Median(generate_s), "s");
  result.Add("service.dataset_fingerprint_s", Median(fingerprint_s), "s");
  result.Add("net.daemon_start_s", served.start_s, "s");
  result.Add("bench.trace_overhead_pct", overhead, "%");
  const double unattributed = 100.0 * (build - parts) / build;
  result.Add("bench.unattributed_pct", unattributed, "%");
  std::printf("# layer sum: api::Build p50 %.6g s = stage parts %.6g s + "
              "unattributed %.3g%%\n",
              build, parts, unattributed);
  result.Check(std::fabs(unattributed) <= kMaxUnattributedPct,
               "layer parts leave more than 15% unattributed");
}

/// One round of net_mixed's arrival schedule: round(rate x seconds)
/// arrivals of a Poisson process (sorted uniform due times), of which
/// round(miss_share x arrivals), drawn at random, are sharded misses on
/// fresh seeds and the rest hits on uniformly drawn warm keys. Fixing both
/// counts makes every run offer the same load. Request ids start at
/// `first_id`.
std::vector<Request> MixedSchedule(const Workload& w, uint64_t seed,
                                   int round, double seconds,
                                   uint64_t first_id) {
  Rng rng(service::DeriveBuildSeed(seed, 0x4d495844ull /* "MIXD" */, round));
  const size_t count = static_cast<size_t>(std::llround(w.rate * seconds));
  std::vector<double> due(count);
  for (double& t : due) t = seconds * rng.NextDouble();
  std::sort(due.begin(), due.end());
  std::vector<bool> miss(count, false);
  const size_t misses = static_cast<size_t>(
      std::llround(w.miss_share * static_cast<double>(count)));
  for (size_t i : rng.SampleWithoutReplacement(count, misses)) miss[i] = true;
  std::vector<Request> schedule(count);
  for (size_t i = 0; i < count; ++i) {
    Request& request = schedule[i];
    request.due = due[i];
    request.miss = miss[i];
    const int64_t id = static_cast<int64_t>(first_id + i);
    if (request.miss) {
      request.seed = (seed + 1) * 1000000 + 100000 + first_id + i;
      request.line = BuildLine("g", w.shape, request.seed, w.miss_shards, id);
    } else {
      request.key = rng.NextIndex(w.keys);
      request.seed = seed + request.key;
      request.line = BuildLine("g", w.shape, request.seed, 1, id);
    }
  }
  return schedule;
}

void RunNet(const Options& options, const Workload& w, Trace& trace,
            Result& result) {
  SetNumThreads(kBuildThreads);  // In-process checks and layers.
  Timer generate;
  const Matrix points = GenerateData(w.data, options.seed);
  const double generate_s = generate.Seconds();
  Timer hashing;
  const uint64_t data_fingerprint = service::FingerprintMatrix(points);
  const double fingerprint_s = hashing.Seconds();

  // kSetupReps rounds, each on a fresh daemon: set it up (spawn, register
  // the data, warm the keys and the sharded path; setup_s is the median),
  // drive a kSetupReps-th of the traffic through it, and read its peak RSS
  // (peak_rss_mb is the median): one daemon's peak reads one of two
  // values, net_cached daemons peaked at 12.0 or 14.4 MB. The last daemon
  // stays up for the traced run's probes.
  Served served;
  std::vector<double> setup_s;
  std::vector<double> peak_rss;
  std::vector<std::string> warm_fingerprints;
  std::vector<Request> sent;
  std::vector<Sample> samples;
  double traffic_seconds = 0.0;
  Rng key_rng(service::DeriveBuildSeed(options.seed, 0x4b455953ull, 0));
  for (int round = 0; round < kSetupReps; ++round) {
    if (round > 0) {
      peak_rss.push_back(StopServed(served, /*print_stats=*/false, result));
    }
    if (!StartServed(options, w, w.keys, /*warm_sharded=*/true,
                     data_fingerprint, result, &served)) {
      return;
    }
    if (round == 0) warm_fingerprints = served.key_fingerprints;
    result.Check(served.key_fingerprints == warm_fingerprints,
                 "warm keys differ between daemons");
    setup_s.push_back(served.setup_s);

    Traffic traffic;
    traffic.connections = w.connections;
    traffic.seconds = options.seconds / kSetupReps;
    traffic.open_loop = w.open_loop;
    traffic.first_id = sent.size();
    if (w.open_loop) {
      traffic.schedule = MixedSchedule(w, options.seed, round,
                                       traffic.seconds, traffic.first_id);
    } else {
      traffic.next = [&](uint64_t id) {
        Request request;
        request.key = key_rng.NextIndex(w.keys);
        request.seed = options.seed + request.key;
        request.line = BuildLine("g", w.shape, request.seed, 1,
                                 static_cast<int64_t>(id));
        return request;
      };
    }
    TrafficRun run =
        RunTraffic(served.daemon->port(), traffic, trace, result);
    CheckKeyFingerprints(run.samples, run.sent, served, result);
    for (Sample& sample : run.samples) {
      sample.request += traffic.first_id;
      samples.push_back(std::move(sample));
    }
    sent.insert(sent.end(), run.sent.begin(), run.sent.end());
    traffic_seconds += run.seconds;
  }
  std::vector<double> late;
  for (const Sample& sample : samples) late.push_back(sample.late);
  std::printf("# %zu requests, generator lateness p50 %.6g ms, p99 %.6g ms\n",
              samples.size(), 1e3 * Quantile(late, 0.5),
              1e3 * Quantile(late, 0.99));
  if (samples.size() >= kMinRequestsForLateness) {
    result.Check(Quantile(late, 0.99) <= kMaxLatenessP99,
                 "generator ran late (p99 > 50 ms): run invalid");
  }

  // In-process twin of the daemon (same synthetic spec): what the daemon
  // served over TCP must equal CoresetService::Build here, bit for bit —
  // the warm keys (net_cached) or the first sharded misses (net_mixed).
  service::CoresetService twin;
  service::SyntheticSpec synthetic;
  synthetic.n = w.data.n;
  synthetic.d = w.data.d;
  synthetic.kappa = w.data.kappa;
  synthetic.gamma = w.data.gamma;
  synthetic.seed = options.seed;
  result.Check(twin.datasets().RegisterSynthetic("g", synthetic).ok(),
               "in-process register");
  std::vector<std::pair<service::BuildRequest, std::string>> served_builds;
  const auto add_served = [&](uint64_t seed, size_t shards,
                              const std::string& fingerprint) {
    service::BuildRequest build;
    build.dataset = "g";
    build.spec = SpecFor(w.shape, seed);
    build.shards = shards;
    served_builds.emplace_back(build, fingerprint);
  };
  if (w.open_loop) {
    std::vector<const Sample*> misses;
    for (const Sample& sample : samples) {
      if (sent[sample.request].miss && sample.reply.ok) {
        misses.push_back(&sample);
      }
    }
    std::sort(misses.begin(), misses.end(),
              [](const Sample* a, const Sample* b) {
                return a->request < b->request;
              });
    for (size_t i = 0; i < misses.size() && i < w.quality_coresets; ++i) {
      add_served(sent[misses[i]->request].seed, w.miss_shards,
                 misses[i]->reply.fingerprint);
    }
  } else {
    for (size_t key = 0; key < w.keys && key < w.quality_coresets; ++key) {
      add_served(options.seed + key, 1, served.key_fingerprints[key]);
    }
  }
  result.Check(served_builds.size() == w.quality_coresets,
               "too few served builds to check");
  std::vector<double> distortions;
  for (size_t i = 0; i < served_builds.size(); ++i) {
    const auto built = twin.Build(served_builds[i].first);
    if (!result.Check(built.ok(), "in-process twin build")) continue;
    result.Check(FingerprintText(built->coreset) == served_builds[i].second,
                 "TCP reply differs from in-process CoresetService::Build");
    if (!options.trace) {
      distortions.push_back(
          Distortion(points, built->coreset, w.shape.k, options.seed + i));
    }
  }

  if (!options.trace) {
    std::vector<double> latency;
    size_t ok = 0;
    size_t within = 0;
    for (const Sample& sample : samples) {
      latency.push_back(sample.latency);
      if (!sample.reply.ok) continue;
      ++ok;
      const double limit =
          sent[sample.request].miss ? w.miss_limit_s : w.hit_limit_s;
      within += sample.latency <= limit ? 1 : 0;
    }
    peak_rss.push_back(StopServed(served, /*print_stats=*/true, result));
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("peak_rss_mb", Median(peak_rss), "MB");
    result.Add("ops_per_s", static_cast<double>(ok) / traffic_seconds,
               "1/s");
    result.Add("lat_p50_ms", 1e3 * Median(latency), "ms");
    result.Add("slo_pct", SloPct(within, sent.size()), "%");
    AddQuality(distortions, result);
    return;
  }

  const double overhead = TraceOverheadPct(trace, traffic_seconds);
  if (!w.open_loop) {
    ProbeMisses(served, w, (options.seed + 1) * 1000000, 3, result, &sent,
                &samples);
  }
  StopServed(served, /*print_stats=*/true, result);
  MeasureServiceLayers(points, w.shape, options.seed, 3, MicroBudget(options),
                       result);
  const double hit_us = AddNetLayers(samples, sent, result);

  // Build-path layers for the workload's request, in-process.
  TimeBuilds(points, w.shape, options.seed, std::min(0.5, options.seconds), 1,
             trace, result);
  MeasureBuildLayers(points, w.shape, options.seed, 3, MicroBudget(options),
                     trace, result);

  result.Add("data.generate_s", generate_s, "s");
  result.Add("service.dataset_fingerprint_s", fingerprint_s, "s");
  result.Add("net.daemon_start_s", served.start_s, "s");
  result.Add("bench.trace_overhead_pct", overhead, "%");
  const double protocol_us =
      result.Get("protocol.handle_us") - result.Get("service.build_hit_us");
  const double parts_us = result.Get("net.hit_service_us") + protocol_us +
                          result.Get("net.framing_us") +
                          result.Get("net.transport_us");
  const double unattributed = 100.0 * (hit_us - parts_us) / hit_us;
  result.Add("bench.unattributed_pct", unattributed, "%");
  std::printf("# layer sum: hit p50 %.6g us = service %.6g + protocol %.6g "
              "+ framing %.6g + transport %.6g + unattributed %.3g%%\n",
              hit_us, result.Get("net.hit_service_us"), protocol_us,
              result.Get("net.framing_us"), result.Get("net.transport_us"),
              unattributed);
  result.Check(std::fabs(unattributed) <= kMaxUnattributedPct,
               "layer parts leave more than 15% unattributed");
}

// ---------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------

void Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload build_fast|build_sensitivity|"
               "net_cached|net_mixed|all\n"
               "                 [--seed S] [--seconds T] [--trace 0|1] "
               "[--out DIR]\n"
               "       bench_e2e --smoke\n");
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      options->smoke = true;
    } else if (arg == "--workload" && has_value) {
      options->workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options->seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options->trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--out" && has_value) {
      options->out_dir = argv[++i];
    } else {
      return false;
    }
  }
  return options->seconds > 0.0 &&
         (options->workload == "all" || KnownWorkload(options->workload));
}

Result RunOne(const Options& options, const std::string& name) {
  const Workload w = MakeWorkload(name, options.smoke);
  Result result;
  Trace trace(options.trace);
  std::printf("# %s seed=%llu seconds=%g trace=%d\n", name.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  if (w.net) {
    RunNet(options, w, trace, result);
  } else {
    RunBuild(options, w, trace, result);
  }
  for (const Metric& metric : result.metrics()) {
    std::printf("%-32s %16.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  for (const std::string& failure : result.failures()) {
    std::fprintf(stderr, "FAILED %s: %s\n", name.c_str(), failure.c_str());
  }

  std::error_code ignored;
  std::filesystem::create_directories(options.out_dir, ignored);
  const std::string stem = options.out_dir + "/" + name + "_seed" +
                           std::to_string(options.seed);
  if (options.trace) {
    result.Check(trace.WriteChrome(stem + ".trace.json"),
                 "cannot write " + stem + ".trace.json");
  }
  const std::string path =
      stem + (options.trace ? "_trace1" : "_trace0") + ".json";
  if (std::FILE* file = std::fopen(path.c_str(), "w")) {
    std::fprintf(file, "%s\n", result.Json().c_str());
    std::fclose(file);
  }
  return result;
}

}  // namespace
}  // namespace e2e
}  // namespace fastcoreset

int main(int argc, char** argv) {
  using namespace fastcoreset::e2e;
  // The build workloads' peak_rss_mb is this process's.
  mallopt(M_MMAP_THRESHOLD, kMmapThresholdBytes);
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    Usage();
    return 2;
  }
  std::vector<std::string> workloads = {"build_fast", "build_sensitivity",
                                        "net_cached", "net_mixed"};
  if (!options.smoke && options.workload != "all") {
    workloads = {options.workload};
  }
  std::vector<bool> trace_modes = {options.trace};
  if (options.smoke) {
    options.seconds = 0.25;
    trace_modes = {false, true};
  }
  // One result line per run; a single run's line is the last stdout line.
  bool correct = true;
  for (const std::string& name : workloads) {
    for (bool trace : trace_modes) {
      options.trace = trace;
      const Result result = RunOne(options, name);
      correct = correct && result.correct();
      std::printf("%s\n", result.Json().c_str());
    }
  }
  std::fflush(stdout);
  return correct ? 0 : 1;
}

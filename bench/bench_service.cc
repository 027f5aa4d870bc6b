// Service-layer throughput bench: requests/sec through CoresetService for
// cold builds (distinct seeds -> every request misses and builds) vs
// cached builds (one request repeated -> every request hits), at 1 and 4
// shards, plus the shard-overlap ratio (the same shards=4 rebuild
// scheduled concurrently vs sequentially at 4 pool threads), plus
// the socket-transport cached throughput (4 concurrent loopback clients
// pipelining the warmed request through NetServer).
// Emits BENCH_service.json; the CI perf gate compares its "gate" ratios
// (machine-relative, so a slower runner cannot fail them) against
// bench/baselines/BENCH_service_baseline.json.
//
// Honours FC_RUNS (cold requests per cell; best-of is NOT used here —
// throughput is an average over the batch), FC_SCALE (row multiplier) and
// FC_K (cluster count).

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/parallel.h"
#include "src/common/timer.h"
#include "src/net/net_server.h"
#include "src/service/service.h"

namespace fastcoreset {
namespace {

struct Cell {
  size_t shards = 1;
  double cold_rps = 0.0;    ///< Requests/sec, every request builds.
  double cached_rps = 0.0;  ///< Requests/sec, every request hits.
  double cold_seconds_per_request = 0.0;
  double cached_seconds_per_request = 0.0;
};

service::BuildRequest RequestFor(size_t k, uint64_t seed, size_t shards) {
  service::BuildRequest request;
  request.dataset = "bench";
  request.spec.method = "fast_coreset";
  request.spec.k = k;
  request.spec.seed = seed;
  request.shards = shards;
  return request;
}

Cell Measure(service::CoresetService& svc, size_t k, size_t shards,
             int cold_requests, int cached_requests) {
  Cell cell;
  cell.shards = shards;

  // Cold: distinct seeds are distinct cache keys, so every request pays a
  // full sharded build. Start from a cleared cache so inserts/evictions
  // are part of the measured path.
  svc.ClearCache();
  Timer timer;
  for (int i = 0; i < cold_requests; ++i) {
    const auto response =
        svc.Build(RequestFor(k, /*seed=*/1000 + i, shards));
    FC_CHECK_MSG(response.ok(), response.status().ToString().c_str());
  }
  cell.cold_seconds_per_request = timer.Seconds() / cold_requests;
  cell.cold_rps = 1.0 / cell.cold_seconds_per_request;

  // Cached: one warm-up miss, then the same request over and over.
  const auto warm = svc.Build(RequestFor(k, /*seed=*/7, shards));
  FC_CHECK_MSG(warm.ok(), warm.status().ToString().c_str());
  timer.Reset();
  for (int i = 0; i < cached_requests; ++i) {
    const auto response = svc.Build(RequestFor(k, /*seed=*/7, shards));
    FC_CHECK_MSG(response.ok(), response.status().ToString().c_str());
    FC_CHECK_MSG(response->diagnostics.cache_status == "hit",
                 "expected a cache hit");
  }
  cell.cached_seconds_per_request = timer.Seconds() / cached_requests;
  cell.cached_rps = 1.0 / cell.cached_seconds_per_request;
  return cell;
}

/// Shard-overlap ratio: the same shards=4 rebuild with its shard builds
/// run sequentially (parallelism = 1, one shard at a time, each on the
/// full pool) vs concurrently (parallelism = 0, all four shards at once
/// as one pool dispatch, each on a fixed 4 / 4 = 1 thread slice),
/// best-of-`runs` wall clock each, at a pinned
/// 4-thread pool (the CI bench env does not set FC_THREADS). Returns
/// sequential_wall / concurrent_wall — above 1.0 means overlapping the
/// shards beat running them one after another on the same machine.
double MeasureShardOverlap(service::CoresetService& svc, size_t k,
                           int runs) {
  SetNumThreads(4);
  auto best_wall = [&](size_t parallelism) {
    double best = 0.0;
    for (int i = 0; i < runs; ++i) {
      service::BuildRequest request = RequestFor(k, /*seed=*/31, 4);
      request.parallelism = parallelism;
      request.use_cache = false;  // Every run pays the full sharded build.
      Timer timer;
      const auto response = svc.Build(request);
      const double wall = timer.Seconds();
      FC_CHECK_MSG(response.ok(), response.status().ToString().c_str());
      if (best == 0.0 || wall < best) best = wall;
    }
    return best;
  };
  const double sequential = best_wall(/*parallelism=*/1);
  const double concurrent = best_wall(/*parallelism=*/0);
  ResetNumThreads();
  std::printf("shards=4 overlap @4 threads: sequential %.2f ms   "
              "concurrent %.2f ms   ratio %.3f\n",
              1e3 * sequential, 1e3 * concurrent, sequential / concurrent);
  return sequential / concurrent;
}

/// All-cache-hit request throughput over the --listen transport: 4
/// concurrent loopback clients pipelining the warmed shards=1 request
/// through NetServer (poll loop + bounded queue + worker pool), measured
/// as aggregate requests/sec. Gated as net_cached_rps / cold_rps — the
/// served-cache-hit contract: a request over the socket transport must
/// stay lookup-priced, orders of magnitude cheaper than a rebuild.
double MeasureNetCachedRps(service::CoresetService& svc, size_t k,
                           int requests_per_client) {
  constexpr size_t kClients = 4;
  net::NetServerOptions options;
  options.workers = 4;
  net::NetServer server(svc, options);
  const auto status = server.Start();
  FC_CHECK_MSG(status.ok(), status.ToString().c_str());
  std::thread serve_thread([&server] { server.Serve(); });

  // Warm the seed-7 shards=1 entry (the shards=4 measurement cleared the
  // cache); every request line below is then a cache hit, so this times
  // the transport + queue + cache path only.
  const auto warm = svc.Build(RequestFor(k, /*seed=*/7, /*shards=*/1));
  FC_CHECK_MSG(warm.ok(), warm.status().ToString().c_str());
  const std::string line =
      "{\"verb\":\"build\",\"dataset\":\"bench\",\"method\":"
      "\"fast_coreset\",\"k\":" +
      std::to_string(k) + ",\"seed\":7,\"shards\":1}\n";

  const auto run_client = [&](size_t* hits) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    FC_CHECK_MSG(fd >= 0, "socket");
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(server.port());
    FC_CHECK_MSG(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0,
                 "connect");
    std::string burst;
    for (int i = 0; i < requests_per_client; ++i) burst += line;
    size_t sent = 0;
    std::string received;
    char buf[65536];
    // Interleave sending and receiving: the per-session in-flight cap
    // backpressures a fire-everything sender, so a real pipelining
    // client drains responses as it goes.
    while (static_cast<int>(std::count(received.begin(), received.end(),
                                       '\n')) < requests_per_client) {
      if (sent < burst.size()) {
        const ssize_t n = ::send(fd, burst.data() + sent,
                                 std::min<size_t>(burst.size() - sent, 1 << 16),
                                 MSG_NOSIGNAL);
        FC_CHECK_MSG(n > 0, "send");
        sent += static_cast<size_t>(n);
      }
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      FC_CHECK_MSG(n > 0, "recv");
      received.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    size_t count = 0;
    for (size_t at = received.find("\"cache\":\"hit\"");
         at != std::string::npos;
         at = received.find("\"cache\":\"hit\"", at + 1)) {
      ++count;
    }
    *hits = count;
  };

  std::vector<size_t> hits(kClients, 0);
  std::vector<std::thread> clients;
  Timer timer;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back(run_client, &hits[c]);
  }
  for (std::thread& client : clients) client.join();
  const double seconds = timer.Seconds();

  server.RequestDrain();
  serve_thread.join();

  size_t total_hits = 0;
  for (size_t count : hits) total_hits += count;
  const size_t total = kClients * static_cast<size_t>(requests_per_client);
  FC_CHECK_MSG(total_hits == total,
               "every net request must be a served cache hit");
  const double rps = static_cast<double>(total) / seconds;
  std::printf("net (--listen): %zu clients x %d pipelined cache hits: "
              "%10.0f req/s aggregate (%.4f ms/req)\n",
              kClients, requests_per_client, rps, 1e3 * seconds /
                  static_cast<double>(total));
  return rps;
}

void WriteJson(size_t n, size_t d, size_t k, const Cell& one,
               const Cell& four, double shard_overlap, double net_rps,
               const char* path) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"service\",\n"
               "  \"dataset\": {\"n\": %zu, \"d\": %zu, \"k\": %zu},\n",
               n, d, k);
  std::fprintf(out,
               "  \"shards1\": {\"cold_rps\": %.3f, \"cached_rps\": %.1f},\n",
               one.cold_rps, one.cached_rps);
  std::fprintf(out,
               "  \"shards4\": {\"cold_rps\": %.3f, \"cached_rps\": %.1f},\n",
               four.cold_rps, four.cached_rps);
  std::fprintf(out, "  \"net\": {\"clients\": 4, \"cached_rps\": %.1f},\n",
               net_rps);
  // Machine-relative ratios for the CI gate: what a cache hit saves over
  // a cold build (direct and over the socket transport), and what
  // overlapping shards saves over running them sequentially. A slower
  // runner shifts numerators and denominators together.
  std::fprintf(out,
               "  \"gate\": {\n"
               "    \"service_cached_speedup\": %.3f,\n"
               "    \"service_shard_overlap\": %.3f,\n"
               "    \"service_net_throughput\": %.3f\n"
               "  }\n}\n",
               one.cached_rps / one.cold_rps, shard_overlap,
               net_rps / one.cold_rps);
  std::fclose(out);
}

}  // namespace
}  // namespace fastcoreset

int main() {
  using namespace fastcoreset;
  const double scale = bench::Scale();
  const size_t n =
      std::max<size_t>(2000, static_cast<size_t>(20000 * scale));
  const size_t d = 8;
  const size_t k = std::min<size_t>(bench::K(), 50);
  const int cold_requests = std::max(3, bench::Runs());
  const int cached_requests = 200;

  bench::Banner("Service bench — cached vs cold request throughput",
                "a repeated request costs a cache lookup, not an O(nd) "
                "build (merge-&-reduce sharding included)");

  service::CoresetService svc({/*cache_capacity=*/64});
  {
    service::SyntheticSpec synthetic;
    synthetic.generator = "gaussian_mixture";
    synthetic.n = n;
    synthetic.d = d;
    synthetic.kappa = 32;
    synthetic.gamma = 0.5;
    synthetic.seed = 20240729;
    const auto status = svc.datasets().RegisterSynthetic("bench", synthetic);
    FC_CHECK_MSG(status.ok(), status.ToString().c_str());
  }

  const Cell one = Measure(svc, k, /*shards=*/1, cold_requests,
                           cached_requests);
  const Cell four = Measure(svc, k, /*shards=*/4, cold_requests,
                            cached_requests);

  std::printf("n=%zu d=%zu k=%zu (m=%zu)\n", n, d, k, 40 * k);
  std::printf("shards=1: cold %8.2f req/s (%.2f ms)   cached %10.0f req/s "
              "(%.4f ms)   speedup %.0fx\n",
              one.cold_rps, 1e3 * one.cold_seconds_per_request,
              one.cached_rps, 1e3 * one.cached_seconds_per_request,
              one.cached_rps / one.cold_rps);
  std::printf("shards=4: cold %8.2f req/s (%.2f ms)   cached %10.0f req/s "
              "(%.4f ms)   speedup %.0fx\n",
              four.cold_rps, 1e3 * four.cold_seconds_per_request,
              four.cached_rps, 1e3 * four.cached_seconds_per_request,
              four.cached_rps / four.cold_rps);

  const double shard_overlap =
      MeasureShardOverlap(svc, k, std::max(3, bench::Runs()));
  const double net_rps =
      MeasureNetCachedRps(svc, k, /*requests_per_client=*/200);

  WriteJson(n, d, k, one, four, shard_overlap, net_rps,
            "BENCH_service.json");
  std::printf("\nwrote BENCH_service.json (cold=%d cached=%d requests)\n",
              cold_requests, cached_requests);
  return 0;
}

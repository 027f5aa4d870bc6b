// fc_serve: the coreset-build service over newline-delimited JSON —
// register datasets (CSV, inline rows, synthetic generators), issue
// sharded/cached build requests, inspect cache and transport stats,
// evict. One request line in, one response line out; every response
// line leads with the protocol version ("v":1); malformed requests
// produce error-response lines and never terminate the server. Sharded
// builds fork one build per shard and join them in one merge —
// "parallelism" caps how many shards build at once (0 = all workers)
// without changing the resulting coreset. See src/service/protocol.h
// for the full request/response schema and the README's "Service
// layer" / "Network daemon" sections.
//
// Transports:
//   default          stdin/stdout, one request per line until EOF.
//   --listen PORT    loopback TCP daemon (port 0 = ephemeral; the bound
//                    port is announced on stdout). Serves many clients
//                    concurrently over a bounded request queue; when the
//                    queue is full, requests are shed with a structured
//                    "unavailable" error. SIGTERM/SIGINT drain
//                    gracefully: stop accepting, finish in-flight
//                    builds, flush responses, exit 0.
//
// Example session:
//   {"verb":"register","name":"d","csv":"points.csv"}
//   {"verb":"build","dataset":"d","method":"fast_coreset","k":10,
//    "seed":1,"shards":4,"parallelism":2}
//   {"verb":"stats"}

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "src/net/net_server.h"
#include "src/service/protocol.h"
#include "src/service/service.h"

namespace {

constexpr char kUsage[] =
    "usage: fc_serve [--cache-capacity N] [--listen PORT]\n"
    "                [--workers N] [--max-queue N] [--max-sessions N]\n"
    "                [--max-line-bytes N] [--max-inflight N]\n"
    "                [--idle-timeout SECONDS] [--help] [--version]\n"
    "\n"
    "Coreset-build service speaking newline-delimited JSON (protocol\n"
    "v1). Default transport is stdin/stdout; --listen starts a\n"
    "loopback-only TCP daemon instead (port 0 picks an ephemeral port,\n"
    "announced on stdout). The network flags bound the daemon's\n"
    "admission control; they are rejected without --listen.\n";

/// The daemon being drained by the signal handler. Written once before
/// signals are installed, read only by the handler.
fastcoreset::net::NetServer* g_server = nullptr;

void HandleDrainSignal(int) {
  // Async-signal-safe by contract of RequestDrain (atomic store + one
  // write(2) on the wakeup pipe).
  if (g_server != nullptr) g_server->RequestDrain();
}

/// Parses a non-negative integer flag value; exits with usage status 2
/// on garbage — a typoed knob must fail loudly, not silently become 0.
unsigned long long ParseCount(const char* flag, const char* value) {
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0') {
    std::fprintf(stderr, "invalid %s '%s'\n%s", flag, value, kUsage);
    std::exit(2);
  }
  return parsed;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fastcoreset;

  service::ServiceOptions options;
  net::NetServerOptions net_options;
  bool listen_mode = false;
  bool net_flags_seen = false;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      std::fputs(kUsage, stdout);
      return 0;
    }
    if (std::strcmp(arg, "--version") == 0) {
      std::printf("fc_serve (fastcoreset) protocol v%llu\n",
                  static_cast<unsigned long long>(
                      service::kProtocolVersion));
      return 0;
    }
    if (std::strcmp(arg, "--cache-capacity") == 0 && has_value) {
      options.cache_capacity =
          static_cast<size_t>(ParseCount(arg, argv[++i]));
    } else if (std::strcmp(arg, "--listen") == 0 && has_value) {
      const unsigned long long port = ParseCount(arg, argv[++i]);
      if (port > 65535) {
        std::fprintf(stderr, "invalid --listen port %llu\n%s", port,
                     kUsage);
        return 2;
      }
      net_options.port = static_cast<uint16_t>(port);
      listen_mode = true;
    } else if (std::strcmp(arg, "--workers") == 0 && has_value) {
      net_options.workers = static_cast<size_t>(ParseCount(arg, argv[++i]));
      net_flags_seen = true;
    } else if (std::strcmp(arg, "--max-queue") == 0 && has_value) {
      net_options.max_queue =
          static_cast<size_t>(ParseCount(arg, argv[++i]));
      net_flags_seen = true;
    } else if (std::strcmp(arg, "--max-sessions") == 0 && has_value) {
      net_options.max_sessions =
          static_cast<size_t>(ParseCount(arg, argv[++i]));
      net_flags_seen = true;
    } else if (std::strcmp(arg, "--max-line-bytes") == 0 && has_value) {
      net_options.session.max_line_bytes =
          static_cast<size_t>(ParseCount(arg, argv[++i]));
      net_flags_seen = true;
    } else if (std::strcmp(arg, "--max-inflight") == 0 && has_value) {
      net_options.session.max_inflight =
          static_cast<size_t>(ParseCount(arg, argv[++i]));
      net_flags_seen = true;
    } else if (std::strcmp(arg, "--idle-timeout") == 0 && has_value) {
      char* end = nullptr;
      const double seconds = std::strtod(argv[i + 1], &end);
      if (end == argv[i + 1] || *end != '\0') {
        std::fprintf(stderr, "invalid --idle-timeout '%s'\n%s",
                     argv[i + 1], kUsage);
        return 2;
      }
      ++i;
      net_options.idle_timeout_seconds = seconds;
      net_flags_seen = true;
    } else {
      std::fprintf(stderr, "unknown or incomplete flag '%s'\n%s", arg,
                   kUsage);
      return 2;
    }
  }
  if (net_flags_seen && !listen_mode) {
    std::fprintf(stderr, "network flags require --listen\n%s", kUsage);
    return 2;
  }

  service::CoresetService coreset_service(options);

  if (listen_mode) {
    net::NetServer server(coreset_service, net_options);
    const api::FcStatus status = server.Start();
    if (!status.ok()) {
      std::fprintf(stderr, "fc_serve: %s\n", status.message().c_str());
      return 1;
    }
    g_server = &server;
    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_handler = HandleDrainSignal;
    ::sigaction(SIGTERM, &action, nullptr);
    ::sigaction(SIGINT, &action, nullptr);
    // Announce the bound port (meaningful with --listen 0) so drivers
    // can connect without racing the bind.
    std::printf("fc_serve: listening on 127.0.0.1:%u\n",
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);
    server.Serve();
    g_server = nullptr;
    return 0;
  }

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    // One response line per request line; flush so a driving process can
    // read each response before sending the next request.
    std::fputs(service::HandleRequestLine(coreset_service, line).c_str(),
               stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
  }
  return 0;
}

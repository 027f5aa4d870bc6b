// The wire side of bench_e2e: the shipped daemon (tools/fc_serve
// --listen 0) started as a child process, blocking NDJSON connections for
// set-up calls, and the one-thread traffic generator that drives the net
// workloads and times every request from outside the daemon.

#ifndef FASTCORESET_BENCH_E2E_DAEMON_H_
#define FASTCORESET_BENCH_E2E_DAEMON_H_

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench/e2e/e2e.h"
#include "src/api/status.h"

namespace fastcoreset {
namespace e2e {

/// `fc_serve --listen 0` as a child process with FC_THREADS pinned and
/// the mmap threshold fixed at kMmapThresholdBytes. The child gets SIGKILL
/// if this process dies first, and the destructor stops a child that is
/// still running, so no daemon outlives the bench.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawns the daemon and waits for its port announcement.
  /// `cache_capacity` 0 keeps the daemon's default.
  api::FcStatus Start(const std::string& binary, size_t threads,
                      size_t cache_capacity);

  uint16_t port() const { return port_; }

  /// SIGTERM (graceful drain), then waits for the exit. True when the
  /// daemon drained and exited 0 within the grace period.
  bool Stop();

  /// The running daemon's peak resident set so far (VmHWM), in MB; 0 when
  /// unreadable. Not wait4's ru_maxrss: that keeps the high-water mark of
  /// the image the child replaced at exec, i.e. of this process at fork.
  double PeakRssMb() const;

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

/// One blocking loopback NDJSON connection, for set-up calls.
class Connection {
 public:
  Connection() = default;
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  api::FcStatus Connect(uint16_t port);
  /// Sends one request line and returns its reply line.
  api::FcStatusOr<std::string> Call(const std::string& line,
                                    double timeout_seconds);

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// The fields of a build reply the benchmark reads.
struct Reply {
  bool parsed = false;
  bool ok = false;
  double id = -1.0;
  std::string cache;        ///< "hit" | "miss" | "bypass".
  std::string fingerprint;  ///< coreset_fingerprint.
  double seconds = 0.0;     ///< Service-side request wall clock.
  std::string code;         ///< Error code when !ok.
};
Reply ParseReply(const std::string& line);

/// One request of a traffic run.
struct Request {
  double due = 0.0;   ///< Open loop: send time, seconds from the start.
  bool miss = false;  ///< Planned as a cache miss.
  size_t key = 0;     ///< Warm-key index (hits).
  uint64_t seed = 0;  ///< Request seed.
  std::string line;   ///< Request line with its "id", no newline.
};

/// What the generator saw for one request.
struct Sample {
  size_t request = 0;    ///< Index into the schedule / send order.
  double latency = 0.0;  ///< Reply time minus due time (seconds).
  double late = 0.0;     ///< Send time minus due time (seconds).
  Reply reply;
};

/// Closed loop: each connection keeps one request in flight and sends the
/// next as soon as the reply lands, until `seconds` pass. Open loop: the
/// schedule is sent on time regardless of replies, round-robin over the
/// connections (pipelined), by a thread that polls without sleeping.
/// Either way one thread drives all sockets.
struct Traffic {
  size_t connections = 4;
  double seconds = 10.0;
  bool open_loop = false;
  /// Request ids are consecutive from here: the schedule's lines carry
  /// them, and next() is asked for them.
  uint64_t first_id = 0;
  std::vector<Request> schedule;  ///< Open loop, in due order.
  /// Closed loop: makes the request with this id.
  std::function<Request(uint64_t id)> next;
};

/// What a traffic run sent and saw.
struct TrafficRun {
  /// Every request sent (closed loop) or the schedule (open loop);
  /// Sample::request indexes it.
  std::vector<Request> sent;
  std::vector<Sample> samples;  ///< In reply order.
  double seconds = 0.0;         ///< Start to the last reply.
};

/// Runs `traffic` against the daemon on `port`. Transport failures and
/// replies that do not parse, are not ok, or carry the wrong id are
/// failed checks in `result`. Each request becomes a "client.request"
/// span when tracing.
TrafficRun RunTraffic(uint16_t port, const Traffic& traffic, Trace& trace,
                      Result& result);

}  // namespace e2e
}  // namespace fastcoreset

#endif  // FASTCORESET_BENCH_E2E_DAEMON_H_

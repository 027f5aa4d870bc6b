// NetServer: the multi-client socket transport of fc_serve. One poll(2)
// driven I/O thread owns all sockets (the TcpListener plus every client
// fd); a small worker pool executes requests against CoresetService.
// Between them sits a bounded global request queue — the admission
// control point: when it is full, new requests are answered immediately
// with the structured "unavailable" protocol error instead of queueing
// (shed, not dropped — the client always gets a response line).
//
// Threading model. All mutable server state (sessions, queue, counters)
// is guarded by a single mutex_ at lock_rank::kNetServer — the outermost
// rank in the tree. Under it the server calls only the service's
// lock-free transport hooks (gauges and the rejection count are relaxed
// atomics); HandleRequestLine runs unlocked, and the service takes its
// own rank-20+ locks. The I/O thread parks in
// poll() and is woken through a self-pipe by workers (response ready)
// and by RequestDrain (signal handler) — the only async-signal-safe
// surface: an atomic store plus one write(2) on the pipe.
//
// Shutdown. RequestDrain() (SIGTERM/SIGINT) stops accepting new
// connections and new request lines, lets queued and executing builds
// finish, flushes every pending response, then Serve() returns. Clients
// mid-request get their response before their connection closes: drain
// is graceful by construction, not by timeout.
//
// This layer inherits the service layer's non-aborting contract: no
// input, client behavior, or socket error may terminate the daemon.

#ifndef FASTCORESET_NET_NET_SERVER_H_
#define FASTCORESET_NET_NET_SERVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <thread>
#include <vector>

#include "src/api/status.h"
#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/net/listener.h"
#include "src/net/session.h"
#include "src/service/service.h"

namespace fastcoreset {
namespace net {

struct NetServerOptions {
  /// TCP port to listen on (loopback only); 0 picks an ephemeral port,
  /// readable via NetServer::port() once Start() succeeds.
  uint16_t port = 0;
  /// Worker threads executing requests against the service.
  size_t workers = 2;
  /// Bounded global request queue; a request arriving while the queue
  /// holds this many is shed with the "unavailable" protocol error.
  size_t max_queue = 64;
  /// Connection cap; further accepts are closed after a best-effort
  /// "unavailable" line.
  size_t max_sessions = 64;
  /// Per-client framing and pipelining limits.
  SessionLimits session;
  /// Connections with no traffic for this long are closed (<= 0
  /// disables the timeout).
  double idle_timeout_seconds = 300.0;
};

class NetServer {
 public:
  NetServer(service::CoresetService& service, NetServerOptions options)
      : service_(service), options_(options) {}
  ~NetServer();
  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds the listener, opens the wakeup pipe, and launches the worker
  /// pool. On error nothing is left running.
  api::FcStatus Start();

  /// Runs the poll loop on the calling thread until a drain completes.
  /// Requires a successful Start().
  void Serve();

  /// Initiates graceful drain. Async-signal-safe (atomic store + pipe
  /// write) — this is the SIGTERM/SIGINT handler's entry point; safe to
  /// call from any thread, any number of times.
  void RequestDrain();

  /// The bound listener port (valid after Start()).
  uint16_t port() const { return listener_.port(); }

 private:
  struct QueuedRequest {
    uint64_t session_id = 0;
    uint64_t sequence = 0;
    std::string line;
  };

  void WorkerLoop();
  /// Frames, admits, or sheds everything currently readable from
  /// `session`; returns false when the connection must be closed.
  bool PumpSession(Session& session) FC_REQUIRES(mutex_);
  void DispatchReadyLines(Session& session) FC_REQUIRES(mutex_);
  /// Flushes pending output; returns false on a dead socket.
  bool FlushSession(Session& session) FC_REQUIRES(mutex_);
  void CloseSession(uint64_t session_id) FC_REQUIRES(mutex_);
  void PublishTransportGauges() FC_REQUIRES(mutex_);
  bool DrainComplete() FC_REQUIRES(mutex_);
  void DrainWakePipe();

  service::CoresetService& service_;
  const NetServerOptions options_;
  TcpListener listener_;

  /// Self-pipe: [0] is polled by the I/O thread, [1] is written by
  /// workers and RequestDrain to interrupt poll().
  int wake_pipe_[2] = {-1, -1};
  /// Set by RequestDrain before the pipe write; read by the poll loop.
  std::atomic<bool> draining_{false};

  /// Rank kNetServer: the outermost lock of the tree — held briefly
  /// around state transitions, never across a request's handling or
  /// blocking socket I/O, and never with another ranked lock (see
  /// lock_rank in src/common/mutex.h).
  mutable Mutex mutex_{lock_rank::kNetServer};
  CondVar queue_cv_;  ///< Workers wait here for queue_ / stop.
  std::map<uint64_t, Session> sessions_ FC_GUARDED_BY(mutex_);
  std::deque<QueuedRequest> queue_ FC_GUARDED_BY(mutex_);
  size_t executing_ FC_GUARDED_BY(mutex_) = 0;
  uint64_t next_session_id_ FC_GUARDED_BY(mutex_) = 1;
  bool stop_workers_ FC_GUARDED_BY(mutex_) = false;

  std::vector<std::thread> workers_;
  bool started_ = false;  ///< I/O-thread only after Start().
};

}  // namespace net
}  // namespace fastcoreset

#endif  // FASTCORESET_NET_NET_SERVER_H_

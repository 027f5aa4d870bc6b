// Session: the per-client state machine of the fc_serve socket
// transport. One instance per connected client, owning everything the
// NDJSON protocol needs between the socket and the service: the read
// buffer with line framing (one request per '\n'-terminated line), the
// request sequence numbers that pin response ordering, and the write
// queue the poll loop drains back to the socket.
//
// The class is deliberately socket-free: bytes go in through
// IngestBytes, complete request lines come out of NextRequest, finished
// response lines go back in through CompleteRequest (from any worker
// thread, in any order — delivery is re-sequenced so the client always
// sees responses in request order), and the flushed output comes out of
// OutputData/ConsumeOutput. That makes the framing, ordering, and limit
// logic unit-testable without a single fd. Sessions carry no lock of
// their own; NetServer serializes all access under its server mutex.
//
// Limits: a line longer than max_line_bytes is answered with a
// structured invalid_argument error in its arrival slot (the line's
// bytes are discarded as they stream in, so the buffer stays bounded and
// the connection stays usable); open_requests() is capped by max_inflight
// and, together with WantsRead, throttles how far a pipelining client
// can run ahead — backpressure, not data loss. Reads also pause while
// unsent output is at least max_line_bytes, so a client that never reads
// its socket cannot grow the write queue without bound.

#ifndef FASTCORESET_NET_SESSION_H_
#define FASTCORESET_NET_SESSION_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>

namespace fastcoreset {
namespace net {

/// Per-client limits, set once at accept time from NetServerOptions.
struct SessionLimits {
  /// Longest accepted request line (bytes, newline excluded). Longer
  /// lines produce an error response and are discarded. Also the unsent
  /// output at which the server stops reading the client's socket.
  size_t max_line_bytes = 1 << 20;
  /// Most requests a single client may have unanswered at once; further
  /// complete lines stay queued (and the server stops reading the
  /// socket) until responses drain — per-client backpressure.
  size_t max_inflight = 4;
};

class Session {
 public:
  Session(uint64_t id, int fd, SessionLimits limits)
      : id_(id), fd_(fd), limits_(limits) {}

  uint64_t id() const { return id_; }
  int fd() const { return fd_; }
  const SessionLimits& limits() const { return limits_; }

  // --- read side -------------------------------------------------------

  /// Appends bytes received from the socket, framing them into request
  /// lines as they arrive. A line exceeding max_line_bytes is replaced by
  /// an oversized marker in its arrival slot and its remaining bytes are
  /// dropped until the terminating newline.
  void IngestBytes(const char* data, size_t size);

  /// The client half-closed its write side (recv returned 0): no more
  /// requests will arrive. An unterminated trailing line is framed as a
  /// final request (matching stdio getline-at-EOF semantics); buffered
  /// requests still run and their responses still flush.
  void NoteReadClosed();
  bool read_closed() const { return read_closed_; }

  /// True while the server should keep polling this socket for input:
  /// not half-closed, in-flight slots free, unsent output below
  /// max_line_bytes, and no framed line already waiting for dispatch.
  bool WantsRead() const;

  /// One framed request, sequence-stamped. `oversized` requests carry no
  /// line (it was discarded) — the caller answers them with an error
  /// response via CompleteRequest, exactly like a real request. Returns
  /// nullopt when no complete line is buffered or all in-flight slots
  /// are taken.
  struct Request {
    uint64_t sequence = 0;
    std::string line;
    bool oversized = false;
  };
  std::optional<Request> NextRequest();

  // --- response side ---------------------------------------------------

  /// Hands back the response for `sequence` (any completion order).
  /// Responses are released to the write queue strictly in sequence
  /// order: a response completed out of order is parked until its
  /// predecessors land. The trailing '\n' is appended here.
  void CompleteRequest(uint64_t sequence, std::string response_line);

  /// Requests dispatched via NextRequest whose responses have not yet
  /// been released to the write queue.
  size_t open_requests() const {
    return static_cast<size_t>(next_sequence_ - next_release_);
  }

  // --- write side ------------------------------------------------------

  bool HasOutput() const { return output_.size() > write_offset_; }
  const char* OutputData() const { return output_.data() + write_offset_; }
  size_t OutputSize() const { return output_.size() - write_offset_; }
  /// Marks `bytes` of OutputData as written to the socket.
  void ConsumeOutput(size_t bytes);

  // --- lifecycle -------------------------------------------------------

  /// Nothing left to do for this client right now: no dispatched request
  /// awaiting its response, no framed line awaiting dispatch, and no
  /// pending output. With read_closed() this means the connection can be
  /// dropped.
  bool Drained() const {
    return open_requests() == 0 && ready_.empty() && !HasOutput();
  }

  /// Poll-loop bookkeeping for the idle timeout, in seconds on the
  /// server's monotonic clock.
  double last_activity_seconds = 0.0;

 private:
  struct PendingLine {
    std::string line;
    bool oversized = false;
  };

  const uint64_t id_;
  const int fd_;
  const SessionLimits limits_;

  std::string partial_;      ///< Unterminated tail of the current line.
  bool discarding_ = false;  ///< Dropping an oversized line's tail.
  bool read_closed_ = false;
  /// Framed lines (and oversized markers) in arrival order, awaiting
  /// dispatch via NextRequest.
  std::deque<PendingLine> ready_;

  uint64_t next_sequence_ = 0;  ///< Stamped onto the next NextRequest.
  uint64_t next_release_ = 0;   ///< Next sequence to release in order.
  /// Responses completed out of order, parked until releasable.
  std::map<uint64_t, std::string> parked_;

  std::string output_;
  size_t write_offset_ = 0;
};

}  // namespace net
}  // namespace fastcoreset

#endif  // FASTCORESET_NET_SESSION_H_

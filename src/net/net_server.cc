#include "src/net/net_server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <string>
#include <utility>

#include "src/common/timer.h"
#include "src/service/protocol.h"

namespace fastcoreset {
namespace net {

namespace {

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// One best-effort nonblocking write for sockets we are about to close
/// (session-cap and drain-time rejections). Losing it is acceptable;
/// blocking is not. Pending input is drained first so the close sends a
/// FIN, not an unread-data RST that could clip the rejection line.
void BestEffortSend(int fd, const std::string& data) {
  ::send(fd, data.data(), data.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
  char scratch[4096];
  while (::recv(fd, scratch, sizeof(scratch), MSG_DONTWAIT) > 0) {
  }
}

}  // namespace

NetServer::~NetServer() {
  // Normal shutdown happens at the end of Serve(); this covers objects
  // that were started but never served (e.g. Start() succeeded and the
  // caller bailed out before Serve()).
  {
    MutexLock lock(mutex_);
    stop_workers_ = true;
  }
  queue_cv_.NotifyAll();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  {
    MutexLock lock(mutex_);
    while (!sessions_.empty()) CloseSession(sessions_.begin()->first);
  }
  for (int& fd : wake_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
  listener_.Close();
}

api::FcStatus NetServer::Start() {
  if (started_) {
    return api::FcStatus::FailedPrecondition("server is already started");
  }
  api::FcStatus status = listener_.Listen(options_.port);
  if (!status.ok()) return status;
  // A previous Serve() leaves its pipe open (see the Serve epilogue);
  // recycle it before opening a fresh one.
  for (int& fd : wake_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
  if (::pipe(wake_pipe_) != 0 || !SetNonBlocking(wake_pipe_[0]) ||
      !SetNonBlocking(wake_pipe_[1])) {
    listener_.Close();
    for (int& fd : wake_pipe_) {
      if (fd >= 0) {
        ::close(fd);
        fd = -1;
      }
    }
    return api::FcStatus::Internal("failed to open the wakeup pipe");
  }
  const size_t workers = std::max<size_t>(1, options_.workers);
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  started_ = true;
  return api::FcStatus::Ok();
}

void NetServer::RequestDrain() {
  // Async-signal-safe: one atomic store and one write(2). The poll loop
  // observes draining_ after the pipe wakes it.
  draining_.store(true, std::memory_order_release);
  if (wake_pipe_[1] >= 0) {
    const char byte = 'd';
    // A full pipe already guarantees a pending wakeup; ignore the result
    // (there is nothing a signal handler could do about it anyway).
    const ssize_t ignored = ::write(wake_pipe_[1], &byte, 1);
    static_cast<void>(ignored);
  }
}

void NetServer::DrainWakePipe() {
  char buf[64];
  while (::read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
  }
}

void NetServer::Serve() {
  if (!started_) return;
  Timer clock;
  std::vector<pollfd> pollfds;
  std::vector<uint64_t> pollfd_sessions;  // parallel to pollfds[2..]
  bool listener_open = true;

  for (;;) {
    pollfds.clear();
    pollfd_sessions.clear();
    pollfds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
    const bool draining = draining_.load(std::memory_order_acquire);
    if (draining && listener_open) {
      // Drain step 1: stop accepting. In-flight work keeps running.
      listener_.Close();
      listener_open = false;
    }
    {
      MutexLock lock(mutex_);
      if (listener_open) {
        // Polled even at the session cap so rejects are prompt rather
        // than deferred to the next unrelated wakeup.
        pollfds.push_back(pollfd{listener_.fd(), POLLIN, 0});
      }
      for (auto& [id, session] : sessions_) {
        short events = 0;
        if (session.WantsRead()) events |= POLLIN;
        if (session.HasOutput()) events |= POLLOUT;
        if (events == 0) continue;
        pollfds.push_back(pollfd{session.fd(), events, 0});
        pollfd_sessions.push_back(id);
      }
    }

    int timeout_ms = -1;
    if (options_.idle_timeout_seconds > 0) {
      timeout_ms = static_cast<int>(std::min(
          1000.0, std::max(10.0, options_.idle_timeout_seconds * 250.0)));
    }
    const int ready = ::poll(pollfds.data(),
                             static_cast<nfds_t>(pollfds.size()), timeout_ms);
    if (ready < 0 && errno != EINTR) {
      // poll() failing outright (EINVAL/ENOMEM) leaves no way to serve;
      // treat it as a drain request rather than spinning.
      draining_.store(true, std::memory_order_release);
    }
    if (pollfds[0].revents & POLLIN) DrainWakePipe();

    const double now = clock.Seconds();
    {
      MutexLock lock(mutex_);
      // Accept pending connections (pollfds[1] is the listener iff open).
      if (listener_open && pollfds.size() > 1 &&
          (pollfds[1].revents & POLLIN)) {
        for (;;) {
          const int client = listener_.Accept();
          if (client < 0) break;
          if (draining_.load(std::memory_order_acquire) ||
              sessions_.size() >= options_.max_sessions) {
            BestEffortSend(client, service::OverloadResponse(
                                       queue_.size(), options_.max_queue) +
                                       "\n");
            ::close(client);
            service_.AddTransportRejections(1);
            continue;
          }
          if (!SetNonBlocking(client)) {
            ::close(client);
            continue;
          }
          const uint64_t id = next_session_id_++;
          auto [it, inserted] = sessions_.emplace(
              id, Session(id, client, options_.session));
          it->second.last_activity_seconds = now;
          static_cast<void>(inserted);
        }
      }

      // Socket events for live sessions.
      for (size_t i = 0; i < pollfd_sessions.size(); ++i) {
        const pollfd& entry = pollfds[(listener_open ? 2 : 1) + i];
        auto it = sessions_.find(pollfd_sessions[i]);
        if (it == sessions_.end()) continue;
        Session& session = it->second;
        if (entry.revents & (POLLERR | POLLNVAL)) {
          CloseSession(session.id());
          continue;
        }
        if (entry.revents & (POLLIN | POLLHUP)) {
          if (!PumpSession(session)) {
            CloseSession(session.id());
            continue;
          }
          session.last_activity_seconds = now;
        }
        if (entry.revents & POLLOUT) {
          if (!FlushSession(session)) {
            CloseSession(session.id());
            continue;
          }
          session.last_activity_seconds = now;
        }
      }

      // Sweep every session: dispatch lines that were waiting for queue
      // space, flush responses parked by workers, and retire finished or
      // idle connections. O(sessions) per wakeup, and the caps keep
      // sessions small.
      std::vector<uint64_t> to_close;
      for (auto& [id, session] : sessions_) {
        DispatchReadyLines(session);
        if (!FlushSession(session)) {
          to_close.push_back(id);
          continue;
        }
        if (session.Drained() &&
            (session.read_closed() ||
             draining_.load(std::memory_order_acquire))) {
          to_close.push_back(id);
          continue;
        }
        if (options_.idle_timeout_seconds > 0 && session.Drained() &&
            now - session.last_activity_seconds >
                options_.idle_timeout_seconds) {
          to_close.push_back(id);
        }
      }
      for (const uint64_t id : to_close) CloseSession(id);
      PublishTransportGauges();

      if (DrainComplete()) {
        stop_workers_ = true;
        break;
      }
    }
    queue_cv_.NotifyAll();
  }

  // Drain step 3: everything answered and flushed — stop the workers so
  // exit is deterministic. The wake pipe stays open until the destructor:
  // RequestDrain (possibly a signal handler) may still write to it after
  // Serve returns, and closing here would race that write onto a recycled
  // fd.
  queue_cv_.NotifyAll();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  {
    MutexLock lock(mutex_);
    PublishTransportGauges();
  }
  listener_.Close();
  started_ = false;
}

bool NetServer::PumpSession(Session& session) {
  char buf[16384];
  while (session.WantsRead()) {
    const ssize_t n = ::recv(session.fd(), buf, sizeof(buf), 0);
    if (n > 0) {
      session.IngestBytes(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      session.NoteReadClosed();
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return false;
  }
  DispatchReadyLines(session);
  return true;
}

void NetServer::DispatchReadyLines(Session& session) {
  while (true) {
    // NextRequest enforces the per-client in-flight cap; admission
    // control below sheds on a full queue. A shed request's
    // "unavailable" response still flows through the sequence path and
    // cannot overtake earlier in-flight responses.
    std::optional<Session::Request> request = session.NextRequest();
    if (!request.has_value()) return;
    if (request->oversized) {
      session.CompleteRequest(
          request->sequence,
          service::ErrorResponse(api::FcStatus::InvalidArgument(
              "request line exceeds the transport limit of " +
              std::to_string(session.limits().max_line_bytes) + " bytes")));
      continue;
    }
    if (draining_.load(std::memory_order_acquire) ||
        queue_.size() >= options_.max_queue) {
      session.CompleteRequest(
          request->sequence,
          service::OverloadResponse(queue_.size(), options_.max_queue));
      service_.AddTransportRejections(1);
      continue;
    }
    queue_.push_back(QueuedRequest{session.id(), request->sequence,
                                   std::move(request->line)});
    queue_cv_.NotifyOne();
  }
}

bool NetServer::FlushSession(Session& session) {
  while (session.HasOutput()) {
    const ssize_t n = ::send(session.fd(), session.OutputData(),
                             session.OutputSize(), MSG_NOSIGNAL);
    if (n > 0) {
      session.ConsumeOutput(static_cast<size_t>(n));
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    return false;
  }
  return true;
}

void NetServer::CloseSession(uint64_t session_id) {
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  ::close(it->second.fd());
  sessions_.erase(it);
  // Queued requests from this session keep their slots; workers drop the
  // response when the session is gone.
}

void NetServer::PublishTransportGauges() {
  service_.ReportTransportLoad(queue_.size(), sessions_.size());
}

bool NetServer::DrainComplete() {
  if (!draining_.load(std::memory_order_acquire)) return false;
  return queue_.empty() && executing_ == 0 && sessions_.empty();
}

void NetServer::WorkerLoop() {
  for (;;) {
    QueuedRequest request;
    {
      MutexLock lock(mutex_);
      while (queue_.empty() && !stop_workers_) queue_cv_.Wait(mutex_);
      if (queue_.empty() && stop_workers_) return;
      request = std::move(queue_.front());
      queue_.pop_front();
      ++executing_;
      PublishTransportGauges();
    }

    // The expensive part runs without the transport lock: the service
    // takes its own (higher-ranked) locks and parallelizes internally.
    std::string response =
        service::HandleRequestLine(service_, request.line);

    bool wake = false;
    {
      MutexLock lock(mutex_);
      --executing_;
      auto it = sessions_.find(request.session_id);
      if (it != sessions_.end()) {
        it->second.CompleteRequest(request.sequence, std::move(response));
        wake = true;
      }
      if (draining_.load(std::memory_order_acquire)) wake = true;
    }
    if (wake && wake_pipe_[1] >= 0) {
      const char byte = 'w';
      const ssize_t ignored = ::write(wake_pipe_[1], &byte, 1);
      static_cast<void>(ignored);
    }
  }
}

}  // namespace net
}  // namespace fastcoreset

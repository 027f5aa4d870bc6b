#include "bench/e2e/daemon.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <utility>

#include "src/common/timer.h"
#include "src/service/json.h"

extern char** environ;

namespace fastcoreset {
namespace e2e {

namespace {

timespec ToTimespec(double seconds) {
  seconds = std::max(0.0, seconds);
  timespec ts;
  ts.tv_sec = static_cast<time_t>(seconds);
  ts.tv_nsec = static_cast<long>((seconds - std::floor(seconds)) * 1e9);
  return ts;
}

/// Waits up to `seconds` for `fd` to become readable.
bool WaitReadable(int fd, double seconds) {
  pollfd entry{fd, POLLIN, 0};
  const timespec ts = ToTimespec(seconds);
  return ::ppoll(&entry, 1, &ts, nullptr) > 0;
}

/// Blocking loopback connect with Nagle off (one small line per request).
int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

Daemon::~Daemon() { Stop(); }

api::FcStatus Daemon::Start(const std::string& binary, size_t threads,
                            size_t cache_capacity) {
  if (pid_ > 0) return api::FcStatus::FailedPrecondition("already running");
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    return api::FcStatus::Internal("pipe2 failed");
  }
  // Everything the child needs is built before fork: between fork and
  // exec only async-signal-safe calls are allowed.
  std::vector<std::string> env_strings;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    if (std::strncmp(*entry, "FC_THREADS=", 11) != 0 &&
        std::strncmp(*entry, "MALLOC_MMAP_THRESHOLD_=", 23) != 0) {
      env_strings.emplace_back(*entry);
    }
  }
  env_strings.push_back("FC_THREADS=" + std::to_string(threads));
  env_strings.push_back("MALLOC_MMAP_THRESHOLD_=" +
                        std::to_string(kMmapThresholdBytes));
  std::vector<char*> envp;
  for (std::string& entry : env_strings) envp.push_back(entry.data());
  envp.push_back(nullptr);
  std::vector<std::string> args = {binary, "--listen", "0"};
  if (cache_capacity > 0) {
    args.push_back("--cache-capacity");
    args.push_back(std::to_string(cache_capacity));
  }
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return api::FcStatus::Internal("fork failed");
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::execve(binary.c_str(), argv.data(), envp.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  pid_ = pid;
  stdout_fd_ = pipe_fds[0];

  // "fc_serve: listening on 127.0.0.1:<port>\n"
  std::string announced;
  char c = 0;
  while (announced.size() < 256 && WaitReadable(stdout_fd_, 30.0) &&
         ::read(stdout_fd_, &c, 1) == 1 && c != '\n') {
    announced.push_back(c);
  }
  const size_t colon = announced.rfind(':');
  const long port = colon == std::string::npos
                        ? 0
                        : std::strtol(announced.c_str() + colon + 1,
                                      nullptr, 10);
  if (announced.find("listening") == std::string::npos || port <= 0 ||
      port > 65535) {
    Stop();
    return api::FcStatus::Internal("daemon did not announce a port (got '" +
                                   announced + "')");
  }
  port_ = static_cast<uint16_t>(port);
  return api::FcStatus::Ok();
}

bool Daemon::Stop() {
  if (pid_ <= 0) return true;
  ::kill(pid_, SIGTERM);
  int status = 0;
  bool killed = false;
  Timer waited;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (waited.Seconds() > 20.0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      killed = true;
      break;
    }
    const timespec pause = ToTimespec(0.002);
    ::nanosleep(&pause, nullptr);
  }
  pid_ = -1;
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
  stdout_fd_ = -1;
  return !killed && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

double Daemon::PeakRssMb() const {
  if (pid_ <= 0) return 0.0;
  const std::string path = "/proc/" + std::to_string(pid_) + "/status";
  std::FILE* file = std::fopen(path.c_str(), "r");
  if (file == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
    }
  }
  std::fclose(file);
  return kb / 1024.0;
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

api::FcStatus Connection::Connect(uint16_t port) {
  fd_ = ConnectLoopback(port);
  if (fd_ < 0) return api::FcStatus::Unavailable("connect failed");
  return api::FcStatus::Ok();
}

api::FcStatusOr<std::string> Connection::Call(const std::string& line,
                                              double timeout_seconds) {
  const std::string wire = line + "\n";
  size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::send(fd_, wire.data() + sent, wire.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0 && errno != EINTR) {
      return api::FcStatus::Unavailable("send failed");
    }
    if (n > 0) sent += static_cast<size_t>(n);
  }
  Timer waited;
  for (;;) {
    const size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string reply = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      return reply;
    }
    const double left = timeout_seconds - waited.Seconds();
    if (left <= 0.0 || !WaitReadable(fd_, left)) {
      return api::FcStatus::Unavailable("no reply within the timeout");
    }
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) return api::FcStatus::Unavailable("daemon closed the line");
    if (n < 0 && errno != EINTR) {
      return api::FcStatus::Unavailable("recv failed");
    }
    if (n > 0) buffer_.append(chunk, static_cast<size_t>(n));
  }
}

Reply ParseReply(const std::string& line) {
  Reply reply;
  api::FcStatusOr<service::JsonValue> parsed = service::ParseJson(line);
  if (!parsed.ok() || !parsed->is_object()) return reply;
  const service::JsonValue& object = parsed.value();
  reply.parsed = true;
  if (const auto* ok = object.Find("ok"); ok != nullptr && ok->is_bool()) {
    reply.ok = ok->bool_value();
  }
  if (const auto* id = object.Find("id"); id != nullptr && id->is_number()) {
    reply.id = id->number_value();
  }
  if (const auto* v = object.Find("cache"); v != nullptr && v->is_string()) {
    reply.cache = v->string_value();
  }
  if (const auto* v = object.Find("coreset_fingerprint");
      v != nullptr && v->is_string()) {
    reply.fingerprint = v->string_value();
  }
  if (const auto* v = object.Find("seconds"); v != nullptr && v->is_number()) {
    reply.seconds = v->number_value();
  }
  if (const auto* v = object.Find("code"); v != nullptr && v->is_string()) {
    reply.code = v->string_value();
  }
  return reply;
}

TrafficRun RunTraffic(uint16_t port, const Traffic& traffic, Trace& trace,
                      Result& result) {
  struct Pending {
    size_t request;
    double due;
    double sent;
  };
  struct Conn {
    int fd = -1;
    std::string out;
    size_t out_offset = 0;
    std::string in;
    std::deque<Pending> inflight;
  };
  struct Conns {
    std::vector<Conn> list;
    ~Conns() {
      for (Conn& conn : list) {
        if (conn.fd >= 0) ::close(conn.fd);
      }
    }
  } conns;

  TrafficRun run;
  std::vector<Request>& sent = run.sent;
  std::vector<Sample>& samples = run.samples;
  if (traffic.open_loop) sent = traffic.schedule;
  conns.list.resize(traffic.connections);
  for (Conn& conn : conns.list) {
    conn.fd = ConnectLoopback(port);
    if (!result.Check(conn.fd >= 0, "traffic connect failed")) return run;
    ::fcntl(conn.fd, F_SETFL, ::fcntl(conn.fd, F_GETFL, 0) | O_NONBLOCK);
  }

  bool broken = false;
  const auto flush = [&](Conn& conn) {
    while (conn.out_offset < conn.out.size()) {
      const ssize_t n =
          ::send(conn.fd, conn.out.data() + conn.out_offset,
                 conn.out.size() - conn.out_offset, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_offset += static_cast<size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      } else {
        broken = !result.Check(false, "traffic send failed");
        return;
      }
    }
    conn.out.clear();
    conn.out_offset = 0;
  };
  size_t outstanding = 0;
  const auto enqueue = [&](size_t c, size_t index, double due) {
    Conn& conn = conns.list[c];
    conn.out += sent[index].line;
    conn.out += '\n';
    conn.inflight.push_back({index, due, trace.Now()});
    ++outstanding;
    flush(conn);
  };
  const auto enqueue_next = [&](size_t c, double now) {
    const size_t index = sent.size();
    sent.push_back(traffic.next(traffic.first_id + index));
    enqueue(c, index, now);
  };

  const double start = trace.Now();
  double last_reply = start;
  const double end = start + traffic.seconds;
  const double deadline = end + 60.0;  // Replies still owed after the run.
  size_t next_scheduled = 0;
  if (!traffic.open_loop) {
    for (size_t c = 0; c < conns.list.size(); ++c) enqueue_next(c, start);
  }
  std::vector<pollfd> fds(conns.list.size());
  char chunk[65536];
  while (!broken) {
    const double now = trace.Now();
    if (traffic.open_loop) {
      while (next_scheduled < sent.size() &&
             start + sent[next_scheduled].due <= now) {
        enqueue(next_scheduled % conns.list.size(), next_scheduled,
                start + sent[next_scheduled].due);
        ++next_scheduled;
      }
    }
    const bool sending = traffic.open_loop
                             ? next_scheduled < sent.size()
                             : now < end;
    if (!sending && outstanding == 0) break;
    if (now >= deadline) {
      result.Check(false, "replies still owed at the deadline");
      break;
    }
    // The open loop polls without sleeping. On a VM whose idle vCPUs halt,
    // a generator sleeping in ppoll woke for its due times and its replies
    // 0.2-11 ms late at p99 (even at SCHED_FIFO), and net_mixed's
    // lat_p50_ms read one of two levels with the host's load. Spinning
    // costs one vCPU for the run; the p99 lateness then read 0.02-0.3 ms
    // in most runs (6 ms when the host took the vCPU away).
    const double wait = traffic.open_loop ? 0.0 : 0.05;
    for (size_t c = 0; c < conns.list.size(); ++c) {
      const Conn& conn = conns.list[c];
      fds[c] = pollfd{conn.fd,
                      static_cast<short>(
                          POLLIN | (conn.out.empty() ? 0 : POLLOUT)),
                      0};
    }
    const timespec ts = ToTimespec(wait);
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) continue;

    for (size_t c = 0; c < conns.list.size() && !broken; ++c) {
      Conn& conn = conns.list[c];
      if (fds[c].revents & POLLOUT) flush(conn);
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      for (;;) {
        const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
        if (n > 0) {
          conn.in.append(chunk, static_cast<size_t>(n));
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        broken = !result.Check(false, "daemon closed a traffic connection");
        break;
      }
      const double received = trace.Now();
      last_reply = received;
      size_t line_start = 0;
      for (size_t newline = conn.in.find('\n'); newline != std::string::npos;
           newline = conn.in.find('\n', line_start)) {
        const std::string line =
            conn.in.substr(line_start, newline - line_start);
        line_start = newline + 1;
        if (conn.inflight.empty()) {
          broken = !result.Check(false, "reply with no request");
          break;
        }
        const Pending pending = conn.inflight.front();
        conn.inflight.pop_front();
        --outstanding;
        Sample sample;
        sample.request = pending.request;
        sample.latency = received - pending.due;
        sample.late = pending.sent - pending.due;
        sample.reply = ParseReply(line);
        const uint64_t id = traffic.first_id + pending.request;
        result.Check(sample.reply.parsed && sample.reply.ok &&
                         sample.reply.id == static_cast<double>(id),
                     "request " + std::to_string(id) +
                         " failed: " + line.substr(0, 200));
        trace.Record("client.request", Trace::kNoParent, id, pending.due,
                     received);
        samples.push_back(std::move(sample));
        if (!traffic.open_loop && received < end) enqueue_next(c, received);
      }
      conn.in.erase(0, line_start);
    }
  }
  run.seconds = last_reply - start;
  return run;
}

}  // namespace e2e
}  // namespace fastcoreset

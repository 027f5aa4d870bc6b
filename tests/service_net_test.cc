// The socket transport end to end: Session framing/ordering as a pure
// state machine, then NetServer over real loopback sockets — concurrent
// clients, pipelining, queue saturation (every request answered, shed
// requests get the structured "unavailable" error, nothing dropped
// mid-response), graceful drain with an in-flight build, per-client
// limits, and the session cap. Runs under the TSan preset like the rest
// of the service concurrency coverage: the poll thread, the worker
// pool, and client threads all race here on purpose.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/check.h"
#include "src/net/net_server.h"
#include "src/net/session.h"
#include "src/service/json.h"
#include "src/service/protocol.h"
#include "src/service/service.h"

namespace fastcoreset {
namespace {

using net::NetServer;
using net::NetServerOptions;
using net::Session;
using net::SessionLimits;
using service::CoresetService;
using service::JsonValue;

// ---------------------------------------------------------------------
// Session: framing and response ordering without any sockets.
// ---------------------------------------------------------------------

TEST(SessionTest, FramesLinesAcrossChunkBoundariesAndCrlf) {
  Session session(1, -1, SessionLimits{});
  const std::string wire = "{\"a\":1}\r\n{\"b\":2}\n{\"c\"";
  // Feed one byte at a time: framing must be chunking-invariant.
  for (char byte : wire) session.IngestBytes(&byte, 1);

  auto first = session.NextRequest();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->sequence, 0u);
  EXPECT_EQ(first->line, "{\"a\":1}");
  auto second = session.NextRequest();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->line, "{\"b\":2}");
  EXPECT_FALSE(session.NextRequest().has_value()) << "partial line held";

  // Half-close frames the unterminated tail, like getline at EOF.
  session.NoteReadClosed();
  auto last = session.NextRequest();
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->line, "{\"c\"");
}

TEST(SessionTest, ResponsesFlushStrictlyInRequestOrder) {
  Session session(1, -1, SessionLimits{});
  const std::string wire = "one\ntwo\nthree\n";
  session.IngestBytes(wire.data(), wire.size());
  auto a = session.NextRequest();
  auto b = session.NextRequest();
  auto c = session.NextRequest();
  ASSERT_TRUE(a && b && c);
  EXPECT_EQ(session.open_requests(), 3u);

  // Completions land out of order; the wire order must not.
  session.CompleteRequest(c->sequence, "R3");
  EXPECT_FALSE(session.HasOutput()) << "later response must be parked";
  session.CompleteRequest(a->sequence, "R1");
  session.CompleteRequest(b->sequence, "R2");
  ASSERT_TRUE(session.HasOutput());
  EXPECT_EQ(std::string(session.OutputData(), session.OutputSize()),
            "R1\nR2\nR3\n");
  session.ConsumeOutput(session.OutputSize());
  EXPECT_TRUE(session.Drained());
}

TEST(SessionTest, OversizedLineBecomesMarkerInItsArrivalSlot) {
  SessionLimits limits;
  limits.max_line_bytes = 8;
  Session session(1, -1, limits);
  const std::string wire =
      "short\n" + std::string(100, 'x') + "\nafter\n";
  session.IngestBytes(wire.data(), wire.size());

  auto first = session.NextRequest();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->line, "short");
  EXPECT_FALSE(first->oversized);
  auto marker = session.NextRequest();
  ASSERT_TRUE(marker.has_value());
  EXPECT_TRUE(marker->oversized);
  EXPECT_TRUE(marker->line.empty());
  auto after = session.NextRequest();
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->line, "after");

  // The endless-line variant triggers without ever seeing a newline.
  Session streaming(2, -1, limits);
  const std::string torrent(1000, 'y');
  streaming.IngestBytes(torrent.data(), torrent.size());
  auto shed = streaming.NextRequest();
  ASSERT_TRUE(shed.has_value());
  EXPECT_TRUE(shed->oversized);
  // The tail keeps draining without buffering; the next real line works.
  const std::string tail = "zzz\nok\n";
  streaming.IngestBytes(tail.data(), tail.size());
  auto ok = streaming.NextRequest();
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->line, "ok");
}

TEST(SessionTest, InflightCapAndBackpressureGateReads) {
  SessionLimits limits;
  limits.max_inflight = 2;
  Session session(1, -1, limits);
  const std::string wire = "a\nb\nc\n";
  session.IngestBytes(wire.data(), wire.size());
  EXPECT_FALSE(session.WantsRead()) << "framed backlog pauses reads";

  auto a = session.NextRequest();
  auto b = session.NextRequest();
  ASSERT_TRUE(a && b);
  EXPECT_FALSE(session.NextRequest().has_value()) << "in-flight cap";
  session.CompleteRequest(a->sequence, "ra");
  auto c = session.NextRequest();
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->line, "c");
  session.CompleteRequest(b->sequence, "rb");
  session.CompleteRequest(c->sequence, "rc");
  EXPECT_TRUE(session.WantsRead());
}

TEST(SessionTest, UnsentOutputPausesReadsUntilDrained) {
  // A client that pipelines requests and never reads its socket: every
  // request is answered at once, so none stays open, and only the unsent
  // output can stop the server from reading more.
  SessionLimits limits;
  limits.max_line_bytes = 1024;
  Session session(1, -1, limits);
  const std::string response(400, 'r');
  size_t served = 0;
  while (session.WantsRead() && served < 100) {
    session.IngestBytes("q\n", 2);
    auto request = session.NextRequest();
    ASSERT_TRUE(request.has_value());
    session.CompleteRequest(request->sequence, response);
    ++served;
  }
  EXPECT_FALSE(session.WantsRead()) << "unsent output must pause reads";
  EXPECT_EQ(served, 3u) << "401-byte lines reach the 1024-byte cap at 3";
  EXPECT_GE(session.OutputSize(), limits.max_line_bytes);
  EXPECT_LE(session.OutputSize(), limits.max_line_bytes + response.size());

  // Reading resumes as soon as a partial write drops below the cap.
  session.ConsumeOutput(session.OutputSize() - limits.max_line_bytes + 1);
  EXPECT_TRUE(session.WantsRead());
  session.ConsumeOutput(session.OutputSize());
  EXPECT_TRUE(session.Drained());
  EXPECT_TRUE(session.WantsRead());
}

// ---------------------------------------------------------------------
// NetServer over real loopback sockets.
// ---------------------------------------------------------------------

/// A started daemon plus the thread running its poll loop.
class TestServer {
 public:
  explicit TestServer(NetServerOptions options)
      : server_(service_, options) {
    const api::FcStatus status = server_.Start();
    FC_CHECK_MSG(status.ok(), status.ToString().c_str());
    serve_thread_ = std::thread([this] { server_.Serve(); });
  }

  ~TestServer() {
    if (serve_thread_.joinable()) Drain();
  }

  void Drain() {
    server_.RequestDrain();
    serve_thread_.join();
  }

  uint16_t port() const { return server_.port(); }
  NetServer& server() { return server_; }
  CoresetService& service() { return service_; }

 private:
  CoresetService service_;
  NetServer server_;
  std::thread serve_thread_;
};

/// Blocking loopback client socket with a receive timeout so a server
/// bug fails the test instead of hanging it.
class TestClient {
 public:
  explicit TestClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    FC_CHECK_MSG(fd_ >= 0, "socket");
    timeval timeout{};
    timeout.tv_sec = 120;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    FC_CHECK_MSG(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0,
                 "connect");
  }

  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  void Send(const std::string& data) {
    size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                               MSG_NOSIGNAL);
      FC_CHECK_MSG(n > 0, "send");
      sent += static_cast<size_t>(n);
    }
  }

  void HalfClose() { ::shutdown(fd_, SHUT_WR); }

  /// Reads until `lines` complete lines arrived or the peer closed.
  std::vector<std::string> ReadLines(size_t lines) {
    while (CountLines() < lines) {
      char buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) break;
      received_.append(buf, static_cast<size_t>(n));
    }
    std::vector<std::string> out;
    size_t start = 0;
    for (size_t i = 0; i < received_.size() && out.size() < lines; ++i) {
      if (received_[i] != '\n') continue;
      out.push_back(received_.substr(start, i - start));
      start = i + 1;
    }
    received_.erase(0, start);
    return out;
  }

  /// True once the server closed the connection (recv returns 0).
  bool WaitPeerClosed() {
    char buf[256];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return true;
      if (n < 0) return false;
      received_.append(buf, static_cast<size_t>(n));
    }
  }

 private:
  size_t CountLines() const {
    size_t count = 0;
    for (char byte : received_) count += byte == '\n';
    return count;
  }

  int fd_ = -1;
  std::string received_;
};

JsonValue MustParse(const std::string& line) {
  auto parsed = service::ParseJson(line);
  FC_CHECK_MSG(parsed.ok(), line.c_str());
  return std::move(parsed.value());
}

bool IsOk(const JsonValue& response) {
  return response.Find("ok") != nullptr &&
         response.Find("ok")->bool_value();
}

std::string ErrorCode(const JsonValue& response) {
  const JsonValue* code = response.Find("code");
  return code == nullptr ? std::string() : code->string_value();
}

const char* const kRegisterLine =
    "{\"verb\":\"register\",\"name\":\"g\",\"synthetic\":{"
    "\"generator\":\"gaussian_mixture\",\"n\":4000,\"d\":4,\"kappa\":4,"
    "\"seed\":3}}\n";

std::string BuildLine(uint64_t seed) {
  return "{\"verb\":\"build\",\"dataset\":\"g\",\"method\":\"sensitivity\","
         "\"k\":4,\"m\":100,\"seed\":" +
         std::to_string(seed) + ",\"id\":" + std::to_string(seed) + "}\n";
}

TEST(NetServerTest, ConcurrentClientsGetOrderedCompleteResponses) {
  NetServerOptions options;
  options.workers = 3;
  TestServer server(options);

  {
    TestClient registrar(server.port());
    registrar.Send(kRegisterLine);
    const auto ack = registrar.ReadLines(1);
    ASSERT_EQ(ack.size(), 1u);
    ASSERT_TRUE(IsOk(MustParse(ack[0]))) << ack[0];
  }

  constexpr size_t kClients = 6;
  constexpr size_t kRequestsPerClient = 4;  // == default max_inflight
  std::vector<std::vector<std::string>> responses(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([c, &server, &responses] {
      TestClient client(server.port());
      std::string burst;
      for (size_t r = 0; r < kRequestsPerClient; ++r) {
        burst += BuildLine(100 + c * kRequestsPerClient + r);
      }
      client.Send(burst);  // pipelined: all requests before any read
      responses[c] = client.ReadLines(kRequestsPerClient);
    });
  }
  for (std::thread& thread : clients) thread.join();

  for (size_t c = 0; c < kClients; ++c) {
    ASSERT_EQ(responses[c].size(), kRequestsPerClient) << "client " << c;
    for (size_t r = 0; r < kRequestsPerClient; ++r) {
      const JsonValue response = MustParse(responses[c][r]);
      EXPECT_EQ(response.Find("v")->number_value(), 1.0);
      ASSERT_TRUE(IsOk(response)) << responses[c][r];
      // The echoed id proves responses arrive in request order even
      // with several workers completing builds concurrently.
      EXPECT_EQ(response.Find("id")->number_value(),
                static_cast<double>(100 + c * kRequestsPerClient + r));
    }
  }

  server.Drain();
  const CoresetService::TransportStats load =
      server.service().TransportLoad();
  EXPECT_EQ(load.queue_depth, 0u);
  EXPECT_EQ(load.sessions_active, 0u);
}

TEST(NetServerTest, SaturatedQueueShedsWithStructuredUnavailable) {
  NetServerOptions options;
  options.workers = 1;
  options.max_queue = 1;
  TestServer server(options);

  {
    TestClient registrar(server.port());
    registrar.Send(kRegisterLine);
    ASSERT_TRUE(IsOk(MustParse(registrar.ReadLines(1).at(0))));
  }

  constexpr size_t kClients = 8;
  constexpr size_t kRequestsPerClient = 4;
  std::vector<std::vector<std::string>> responses(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([c, &server, &responses] {
      TestClient client(server.port());
      std::string burst;
      for (size_t r = 0; r < kRequestsPerClient; ++r) {
        burst += BuildLine(1000 + c * kRequestsPerClient + r);
      }
      client.Send(burst);
      responses[c] = client.ReadLines(kRequestsPerClient);
    });
  }
  for (std::thread& thread : clients) thread.join();

  // The contract under overload: every request gets exactly one valid
  // protocol response — success or a structured "unavailable" — and no
  // connection is dropped mid-stream.
  size_t served = 0;
  size_t shed = 0;
  for (size_t c = 0; c < kClients; ++c) {
    ASSERT_EQ(responses[c].size(), kRequestsPerClient)
        << "client " << c << " lost responses";
    for (const std::string& line : responses[c]) {
      const JsonValue response = MustParse(line);
      EXPECT_EQ(response.Find("v")->number_value(), 1.0) << line;
      if (IsOk(response)) {
        ++served;
        continue;
      }
      ASSERT_EQ(ErrorCode(response), "unavailable") << line;
      EXPECT_GE(response.Find("queue_limit")->number_value(), 1.0);
      ++shed;
    }
  }
  EXPECT_GT(served, 0u) << "admission control must not starve everyone";
  EXPECT_GT(shed, 0u) << "32 pipelined builds, queue=1, one worker — "
                         "saturation must shed";

  server.Drain();
  EXPECT_GE(server.service().TransportLoad().requests_rejected, shed);
}

TEST(NetServerTest, StatsDuringSheddingReadsLifetimeRejections) {
  // The transport gauges are lock-free atomics: the I/O thread writes
  // them as it admits and sheds the burst, while workers serving stats
  // read them. Under TSan this runs both sides through the daemon (the
  // overlap is brief; ServiceConcurrencyTest's gauge test is the
  // deterministic race check); everywhere it checks that
  // requests_rejected only grows.
  NetServerOptions options;
  options.workers = 3;
  options.max_queue = 1;
  TestServer server(options);

  {
    TestClient registrar(server.port());
    registrar.Send(kRegisterLine);
    ASSERT_TRUE(IsOk(MustParse(registrar.ReadLines(1).at(0))));
  }

  // Each client pipelines several bursts in turn, so the I/O thread keeps
  // shedding for as long as the stats client polls.
  constexpr size_t kClients = 8;
  constexpr size_t kBursts = 8;
  constexpr size_t kRequestsPerBurst = 4;
  std::atomic<bool> burst_done{false};
  std::vector<double> rejected_seen;
  std::thread stats_client([&server, &burst_done, &rejected_seen] {
    TestClient client(server.port());
    // One more round after the burst ends, so at least one stats
    // request meets an idle queue and is served.
    for (bool last = false; !last;) {
      last = burst_done.load();
      client.Send("{\"verb\":\"stats\"}\n");
      const JsonValue response = MustParse(client.ReadLines(1).at(0));
      if (!IsOk(response)) continue;  // shed like any other request
      rejected_seen.push_back(
          response.Find("transport")->Find("requests_rejected")
              ->number_value());
    }
  });
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([c, &server] {
      TestClient client(server.port());
      for (size_t b = 0; b < kBursts; ++b) {
        std::string burst;
        for (size_t r = 0; r < kRequestsPerBurst; ++r) {
          burst += BuildLine(2000 + (c * kBursts + b) * kRequestsPerBurst + r);
        }
        client.Send(burst);
        const auto replies = client.ReadLines(kRequestsPerBurst);
        FC_CHECK_MSG(replies.size() == kRequestsPerBurst, "lost responses");
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  burst_done.store(true);
  stats_client.join();

  server.Drain();
  const uint64_t final_rejected =
      server.service().TransportLoad().requests_rejected;
  EXPECT_GT(final_rejected, 0u) << "queue=1: pipelined bursts shed";
  ASSERT_FALSE(rejected_seen.empty());
  for (size_t i = 0; i < rejected_seen.size(); ++i) {
    EXPECT_LE(rejected_seen[i], static_cast<double>(final_rejected))
        << "stats reply " << i;
    if (i > 0) {
      EXPECT_GE(rejected_seen[i], rejected_seen[i - 1])
          << "a lifetime counter never goes down";
    }
  }
}

TEST(NetServerTest, DrainFinishesInFlightBuildBeforeExiting) {
  NetServerOptions options;
  options.workers = 1;
  TestServer server(options);

  TestClient client(server.port());
  client.Send(kRegisterLine);
  ASSERT_TRUE(IsOk(MustParse(client.ReadLines(1).at(0))));

  // A cache-missing build is dispatched, then drain is requested while
  // it (most likely) executes. Either way the already-admitted request
  // must complete and its response must be flushed before Serve returns.
  client.Send(BuildLine(7));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.Drain();  // returns only after the drain completed

  const auto lines = client.ReadLines(1);
  ASSERT_EQ(lines.size(), 1u) << "drain must flush the pending response";
  const JsonValue response = MustParse(lines[0]);
  EXPECT_TRUE(IsOk(response)) << lines[0];
  EXPECT_TRUE(client.WaitPeerClosed());
}

TEST(NetServerTest, OversizedLineGetsErrorAndConnectionSurvives) {
  NetServerOptions options;
  options.session.max_line_bytes = 64;
  TestServer server(options);

  TestClient client(server.port());
  client.Send(std::string(5000, 'x') + "\n{\"verb\":\"stats\"}\n");
  const auto lines = client.ReadLines(2);
  ASSERT_EQ(lines.size(), 2u);
  const JsonValue error = MustParse(lines[0]);
  EXPECT_FALSE(IsOk(error));
  EXPECT_EQ(ErrorCode(error), "invalid_argument") << lines[0];
  EXPECT_TRUE(IsOk(MustParse(lines[1]))) << lines[1];
}

TEST(NetServerTest, SessionCapRejectsExtraConnections) {
  NetServerOptions options;
  options.max_sessions = 1;
  TestServer server(options);

  TestClient first(server.port());
  first.Send("{\"verb\":\"stats\"}\n");
  ASSERT_TRUE(IsOk(MustParse(first.ReadLines(1).at(0))))
      << "first session must be admitted before the second connects";

  TestClient second(server.port());
  const auto lines = second.ReadLines(1);
  if (!lines.empty()) {
    // The rejection line is best-effort; when it arrives it must be the
    // structured unavailable error.
    EXPECT_EQ(ErrorCode(MustParse(lines[0])), "unavailable") << lines[0];
  }
  EXPECT_TRUE(second.WaitPeerClosed());
}

TEST(NetServerTest, IdleSessionsAreReaped) {
  NetServerOptions options;
  options.idle_timeout_seconds = 0.2;
  TestServer server(options);

  TestClient client(server.port());
  client.Send("{\"verb\":\"stats\"}\n");
  ASSERT_EQ(client.ReadLines(1).size(), 1u);
  // No further traffic: the server must close the connection on its own.
  EXPECT_TRUE(client.WaitPeerClosed());
}

TEST(NetServerTest, HalfCloseStillDeliversAllResponses) {
  TestServer server{NetServerOptions{}};

  TestClient client(server.port());
  client.Send("{\"verb\":\"stats\"}\n{\"verb\":\"stats\",\"id\":\"z\"}");
  client.HalfClose();  // EOF frames the trailing line, like stdio
  const auto lines = client.ReadLines(2);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(IsOk(MustParse(lines[0])));
  const JsonValue last = MustParse(lines[1]);
  EXPECT_TRUE(IsOk(last));
  EXPECT_EQ(last.Find("id")->string_value(), "z");
  EXPECT_TRUE(client.WaitPeerClosed());
}

}  // namespace
}  // namespace fastcoreset

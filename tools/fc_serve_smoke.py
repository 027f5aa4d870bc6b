#!/usr/bin/env python3
"""End-to-end smoke test for fc_serve (registered in ctest).

Drives the binary over BOTH transports:

  stdio — the original lockstep scenario: register a CSV dataset, issue
  the same sharded build request twice (the first with an explicit
  parallelism budget), and assert every response line leads with
  protocol version v=1, the second build is a cache hit carrying a
  bit-identical coreset (equal coreset fingerprints), a budget-capped
  rebuild still matches bit for bit, an invalid request surfaces an
  error response without killing the server, and stats report the
  protocol version plus cache counters that reflect the traffic (one
  miss, one hit, one entry with its bytes).

  --listen (loopback TCP daemon) — the same scenario over a socket, then
  four concurrent clients issuing pipelined builds (responses must come
  back complete, valid, and in request order per connection, witnessed
  by the echoed "id"), a saturation pass against a --max-queue 1
  --workers 1 server (every request is answered with success or the
  structured "unavailable" error, nothing dropped mid-response), and a
  SIGTERM drain with a request in flight (the response is still
  delivered and the daemon exits 0).

Each request gets its own response deadline (FC_SMOKE_REQUEST_TIMEOUT
seconds, default 60) so one wedged request fails fast with its index
instead of eating the whole ctest budget; servers are killed on any
failure path.

Usage: fc_serve_smoke.py <fc_serve-binary> <input.csv>
"""

import json
import os
import queue
import re
import signal
import socket
import subprocess
import sys
import threading
import time

REQUEST_TIMEOUT = float(os.environ.get("FC_SMOKE_REQUEST_TIMEOUT", "60"))

FAILURES = []


def check(condition, message):
    if not condition:
        FAILURES.append(message)


def scenario_requests(csv_path):
    build = {"verb": "build", "dataset": "tiny", "method": "fast_coreset",
             "k": 4, "m": 48, "z": 2, "seed": 7, "shards": 2,
             "options": {"use_jl": False}}
    # Same request with a sequential shard budget and no cache: the
    # budget must change the schedule only, never the bits.
    serial = dict(build, parallelism=1, use_cache=False)
    return [
        {"verb": "register", "name": "tiny", "csv": csv_path},
        build,
        build,
        serial,
        {"verb": "build", "dataset": "no_such_dataset", "k": 4},
        {"verb": "build", "dataset": "tiny", "k": 4, "z": 3},
        {"verb": "build", "dataset": "tiny", "k": 4, "parallelism": 100000},
        {"verb": "stats"},
    ]


def validate_scenario(responses, transport):
    """The shared request/response contract, identical on both
    transports; `transport` only labels messages and gates the transport
    gauge expectations in stats."""
    (register, first, second, serial_build, unknown, invalid, over_budget,
     stats) = responses

    for i, response in enumerate(responses):
        check(response.get("v") == 1,
              f"[{transport}] response {i} must lead with v=1: {response}")
    check(register.get("ok") and register.get("rows", 0) > 0,
          f"[{transport}] register failed: {register}")
    check(first.get("ok"), f"[{transport}] first build failed: {first}")
    check(first.get("cache") == "miss",
          f"[{transport}] first build should miss the cache: {first}")
    check(first.get("shards") == 2, f"[{transport}] expected 2 shards: "
          f"{first}")
    check(first.get("parallelism", 0) >= 1,
          f"[{transport}] a rebuild must report its effective parallelism: "
          f"{first}")
    check(first.get("critical_path_seconds", -1.0) >= 0.0
          and first.get("build_seconds", -1.0) >= 0.0,
          f"[{transport}] rebuild must report work and critical path: "
          f"{first}")
    check(len(first.get("shard_windows", [])) == 2,
          f"[{transport}] expected one [start, end] window per shard: "
          f"{first}")
    check(second.get("ok"), f"[{transport}] second build failed: {second}")
    check(second.get("cache") == "hit",
          f"[{transport}] second build should hit the cache: {second}")
    check(second.get("points_processed") == 0,
          f"[{transport}] a cache hit must not rebuild: {second}")
    check(first.get("coreset_fingerprint")
          == second.get("coreset_fingerprint"),
          f"[{transport}] cached coreset is not bit-identical: "
          f"{first.get('coreset_fingerprint')} vs "
          f"{second.get('coreset_fingerprint')}")
    check(serial_build.get("ok") and serial_build.get("parallelism") == 1,
          f"[{transport}] parallelism=1 rebuild should run serially: "
          f"{serial_build}")
    check(first.get("coreset_fingerprint")
          == serial_build.get("coreset_fingerprint"),
          f"[{transport}] scheduler budget changed the bits: "
          f"{first.get('coreset_fingerprint')} vs "
          f"{serial_build.get('coreset_fingerprint')}")
    check(not unknown.get("ok") and unknown.get("code") == "not_found",
          f"[{transport}] unknown dataset should be not_found: {unknown}")
    check(not invalid.get("ok")
          and invalid.get("code") == "invalid_argument",
          f"[{transport}] z=3 should be invalid_argument: {invalid}")
    check(not over_budget.get("ok")
          and over_budget.get("code") == "invalid_argument",
          f"[{transport}] parallelism=100000 should be invalid_argument: "
          f"{over_budget}")
    cache = stats.get("cache", {})
    check(stats.get("ok") and cache.get("hits") == 1
          and cache.get("misses") == 1 and cache.get("entries") == 1,
          f"[{transport}] stats disagree with the traffic: {stats}")
    check(cache.get("bytes", 0) > 0,
          f"[{transport}] the cached build must show in cache.bytes: "
          f"{stats}")
    check(stats.get("protocol_version") == 1,
          f"[{transport}] stats must report protocol_version=1: {stats}")
    gauges = stats.get("transport", {})
    if transport == "stdio":
        check(gauges.get("sessions_active") == 0
              and gauges.get("queue_depth") == 0
              and gauges.get("requests_rejected") == 0,
              f"[stdio] transport gauges must read zero: {stats}")
    else:
        check(gauges.get("sessions_active", 0) >= 1,
              f"[tcp] stats came over a live session: {stats}")


# ---------------------------------------------------------------------
# stdio transport
# ---------------------------------------------------------------------


def run_stdio(serve, requests):
    proc = subprocess.Popen([serve], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    out_q = queue.Queue()
    stderr_chunks = []

    def pump_stdout():
        for line in proc.stdout:
            out_q.put(line.rstrip("\n"))
        out_q.put(None)  # EOF: the server closed stdout / died

    def pump_stderr():
        stderr_chunks.append(proc.stderr.read())

    threading.Thread(target=pump_stdout, daemon=True).start()
    threading.Thread(target=pump_stderr, daemon=True).start()

    lines = []
    try:
        for i, request in enumerate(requests):
            proc.stdin.write(json.dumps(request) + "\n")
            proc.stdin.flush()
            try:
                line = out_q.get(timeout=REQUEST_TIMEOUT)
            except queue.Empty:
                print(f"[stdio] request {i} ({request.get('verb')}) got no "
                      f"response within {REQUEST_TIMEOUT:.0f}s — killing "
                      f"fc_serve", file=sys.stderr)
                return None
            if line is None:
                print(f"[stdio] fc_serve died before answering request {i} "
                      f"({request.get('verb')}): {''.join(stderr_chunks)}",
                      file=sys.stderr)
                return None
            lines.append(line)
        proc.stdin.close()
        try:
            rc = proc.wait(timeout=REQUEST_TIMEOUT)
        except subprocess.TimeoutExpired:
            print(f"[stdio] fc_serve did not exit within "
                  f"{REQUEST_TIMEOUT:.0f}s of stdin EOF — killing it",
                  file=sys.stderr)
            return None
        if rc != 0:
            print(f"[stdio] fc_serve exited {rc}: {''.join(stderr_chunks)}",
                  file=sys.stderr)
            return None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return [json.loads(line) for line in lines]


# ---------------------------------------------------------------------
# TCP transport
# ---------------------------------------------------------------------


def start_daemon(serve, extra_flags=()):
    """Launches fc_serve --listen 0 and returns (proc, port) after the
    bound-port announcement, or (proc, None) on startup failure."""
    proc = subprocess.Popen([serve, "--listen", "0", *extra_flags],
                            stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    announce = proc.stdout.readline()
    match = re.search(r"listening on 127\.0\.0\.1:(\d+)", announce)
    if not match:
        proc.kill()
        proc.wait()
        print(f"[tcp] no listen announcement, got: {announce!r} "
              f"{proc.stderr.read()}", file=sys.stderr)
        return proc, None
    return proc, int(match.group(1))


class NetClient:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=REQUEST_TIMEOUT)
        self.buffer = b""

    def send_line(self, line):
        self.sock.sendall(line.encode() + b"\n")

    def recv_line(self):
        while b"\n" not in self.buffer:
            chunk = self.sock.recv(65536)
            if not chunk:
                return None
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return line.decode()

    def recv_until_closed(self):
        try:
            while True:
                chunk = self.sock.recv(65536)
                if not chunk:
                    return True
                self.buffer += chunk
        except OSError:
            return False

    def close(self):
        self.sock.close()


def tcp_lockstep(port, requests):
    client = NetClient(port)
    responses = []
    for i, request in enumerate(requests):
        client.send_line(json.dumps(request))
        line = client.recv_line()
        if line is None:
            print(f"[tcp] connection closed before answering request {i} "
                  f"({request.get('verb')})", file=sys.stderr)
            client.close()
            return None
        responses.append(json.loads(line))
    client.close()
    return responses


def tcp_concurrent_clients(port, clients=4, requests_per_client=3):
    """Pipelined builds from `clients` concurrent connections; asserts
    complete, valid, in-order responses via the echoed id."""
    results = [None] * clients

    def run_client(index):
        client = NetClient(port)
        ids = [1000 + index * requests_per_client + r
               for r in range(requests_per_client)]
        burst = "".join(
            json.dumps({"verb": "build", "dataset": "tiny",
                        "method": "fast_coreset", "k": 4, "m": 48, "z": 2,
                        "seed": request_id, "shards": 2,
                        "options": {"use_jl": False}, "id": request_id})
            + "\n" for request_id in ids)
        client.sock.sendall(burst.encode())
        got = []
        for _ in ids:
            line = client.recv_line()
            if line is None:
                break
            got.append(json.loads(line))
        client.close()
        results[index] = (ids, got)

    threads = [threading.Thread(target=run_client, args=(i,))
               for i in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    for index, result in enumerate(results):
        check(result is not None, f"[tcp] client {index} never ran")
        if result is None:
            continue
        ids, got = result
        check(len(got) == len(ids),
              f"[tcp] client {index} got {len(got)}/{len(ids)} responses")
        for request_id, response in zip(ids, got):
            check(response.get("v") == 1 and response.get("ok"),
                  f"[tcp] client {index} bad response: {response}")
            check(response.get("id") == request_id,
                  f"[tcp] client {index} responses out of order: expected "
                  f"id {request_id}, got {response.get('id')}")


def tcp_saturation(serve):
    """A --max-queue 1 --workers 1 daemon under a pipelined burst: every
    request is answered — success or structured 'unavailable'."""
    proc, port = start_daemon(
        serve, ("--max-queue", "1", "--workers", "1"))
    if port is None:
        check(False, "[tcp] saturation daemon failed to start")
        return
    try:
        registrar = NetClient(port)
        registrar.send_line(json.dumps(
            {"verb": "register", "name": "g", "synthetic":
             {"generator": "gaussian_mixture", "n": 4000, "d": 4,
              "kappa": 4, "seed": 3}}))
        ack = registrar.recv_line()
        registrar.close()
        check(ack is not None and json.loads(ack).get("ok"),
              f"[tcp] saturation register failed: {ack}")

        served = [0]
        shed = [0]
        lost = [0]

        def blast(index):
            client = NetClient(port)
            count = 4
            burst = "".join(
                json.dumps({"verb": "build", "dataset": "g",
                            "method": "sensitivity", "k": 4, "m": 100,
                            "seed": 5000 + index * count + r}) + "\n"
                for r in range(count))
            client.sock.sendall(burst.encode())
            for _ in range(count):
                line = client.recv_line()
                if line is None:
                    lost[0] += 1
                    continue
                response = json.loads(line)
                if response.get("v") != 1:
                    lost[0] += 1
                elif response.get("ok"):
                    served[0] += 1
                elif response.get("code") == "unavailable":
                    check("queue_limit" in response,
                          f"[tcp] unavailable must carry queue gauges: "
                          f"{response}")
                    shed[0] += 1
                else:
                    lost[0] += 1
            client.close()

        threads = [threading.Thread(target=blast, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        check(lost[0] == 0,
              f"[tcp] {lost[0]} requests lost or malformed under overload")
        check(served[0] > 0, "[tcp] overload must not starve every client")
        check(shed[0] > 0,
              f"[tcp] 32 pipelined builds over queue=1/workers=1 must "
              f"shed (served={served[0]})")
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            rc = proc.wait(timeout=REQUEST_TIMEOUT)
            check(rc == 0, f"[tcp] saturation daemon exited {rc}")
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            check(False, "[tcp] saturation daemon did not drain on SIGTERM")


def tcp_sigterm_drain(proc, port):
    """SIGTERM with a request in flight: the response must still be
    delivered, the connection closed, and the daemon must exit 0."""
    client = NetClient(port)
    # A completed round trip first: the session is then provably
    # accepted, so the build below exercises the established-connection
    # drain path, not the accept-time shed.
    client.send_line(json.dumps({"verb": "stats"}))
    check(client.recv_line() is not None, "[tcp] drain client stats died")
    client.send_line(json.dumps(
        {"verb": "build", "dataset": "tiny", "method": "fast_coreset",
         "k": 4, "m": 48, "z": 2, "seed": 99, "shards": 2,
         "options": {"use_jl": False}, "id": "drain"}))
    time.sleep(0.2)  # let the line be read and (usually) dispatched
    proc.send_signal(signal.SIGTERM)
    line = client.recv_line()
    check(line is not None,
          "[tcp] SIGTERM dropped an in-flight request's response")
    if line is not None:
        response = json.loads(line)
        check(response.get("v") == 1,
              f"[tcp] drain response malformed: {response}")
        check(response.get("ok")
              or response.get("code") == "unavailable",
              f"[tcp] drain response must be success or a structured "
              f"shed: {response}")
        if "id" in response:
            check(response.get("id") == "drain",
                  f"[tcp] drain response echoes the wrong id: {response}")
    check(client.recv_until_closed(),
          "[tcp] server must close the connection after draining")
    client.close()
    try:
        rc = proc.wait(timeout=REQUEST_TIMEOUT)
        check(rc == 0, f"[tcp] daemon exited {rc} after SIGTERM drain")
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        check(False, "[tcp] daemon did not exit after SIGTERM drain")


def main():
    if len(sys.argv) != 3:
        print(f"usage: {sys.argv[0]} <fc_serve-binary> <input.csv>",
              file=sys.stderr)
        return 2
    serve, csv_path = sys.argv[1], sys.argv[2]
    requests = scenario_requests(csv_path)

    # Transport 1: stdin/stdout, lockstep.
    responses = run_stdio(serve, requests)
    if responses is None:
        return 1
    validate_scenario(responses, "stdio")

    # Transport 2: the TCP daemon — same scenario, then concurrency and
    # drain against the same process (the dataset is already registered).
    proc, port = start_daemon(serve)
    if port is None:
        return 1
    try:
        responses = tcp_lockstep(port, requests)
        if responses is None:
            return 1
        validate_scenario(responses, "tcp")
        tcp_concurrent_clients(port)
        tcp_sigterm_drain(proc, port)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    # Transport 2b: admission control under saturation.
    tcp_saturation(serve)

    for failure in FAILURES:
        print(f"FAIL: {failure}", file=sys.stderr)
    if FAILURES:
        return 1
    print("fc_serve smoke passed on both transports: v=1 on every line, "
          "register + build x2 (miss then bit-identical hit) + "
          "budget-capped rebuild + error responses + stats w/ cache "
          "counters; tcp adds 4 concurrent pipelined clients (in-order "
          "responses), queue-saturation shedding via structured "
          "'unavailable', and a SIGTERM drain that delivers the in-flight "
          "response and exits 0")
    return 0


if __name__ == "__main__":
    sys.exit(main())

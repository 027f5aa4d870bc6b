#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark (see bench/e2e/README.md).

Builds bench_e2e and tools/fc_serve from the sources of this checkout
(Release, into .bench_build/e2e, or $CARGO_TARGET_DIR/e2e when set), then
runs one workload and relays its output. The last stdout line is the
run's JSON result; the exit code is the benchmark's.

    python3 bench/e2e/run.py --workload net_cached --seed 3 --seconds 15 \
        --trace 0

Every argument is passed through to bench_e2e (run from the repo root, so
results land in bench_out/e2e/). Without the library sources next to
bench/e2e the build cannot run and this exits 1 without a result.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_TIMEOUT_S = 170  # Callers allow 180 s per run.


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "e2e")


def run_logged(cmd, log):
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        return subprocess.run(cmd, cwd=ROOT, stdout=out,
                              stderr=subprocess.STDOUT).returncode


def build():
    """Configures once, then rebuilds incrementally; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("run.py: the fastcoreset sources are missing from "
                         f"{ROOT}; nothing to build\n")
        sys.exit(1)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "build.log")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_logged(cmd, log) != 0:
            shutil.rmtree(out, ignore_errors=True)  # Retry from scratch.
            sys.stderr.write(f"run.py: configure failed, see {log}\n")
            sys.exit(1)
    jobs = str(min(4, os.cpu_count() or 1))
    if run_logged(["cmake", "--build", out, "-j", jobs,
                   "--target", "bench_e2e"], log) != 0:
        sys.stderr.write(f"run.py: build failed, see {log}\n")
        sys.exit(1)
    return os.path.join(out, "bench_e2e")


def main():
    binary = build()
    # A session of its own, so anything the run leaves behind (a daemon
    # of a crashed run) can be killed with the process group.
    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT,
                            stdout=subprocess.PIPE, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.stderr.write(f"run.py: no result within {RUN_TIMEOUT_S} s\n")
        return 1
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    sys.stdout.write(stdout.decode())
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())

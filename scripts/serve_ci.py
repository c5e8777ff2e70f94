#!/usr/bin/env python3
"""CI driver for the ``deepmc serve`` daemon.

Two phases, both against a real daemon subprocess started through the
CLI (the exact artifact CI ships):

1. **Byte-identical under concurrency** — N threads drive a mixed
   check/crashsim/litmus schedule through the daemon (worker pool,
   warm store, admission queue all engaged) and every ``result``
   document must byte-for-byte equal the output of the corresponding
   one-shot CLI command run serially. The daemon runs with
   ``--cache-dir``, and after the drain its analysis cache must hold an
   entry for every ``check`` program in the schedule. Its ``stats``
   after the load must show one worker pool for the daemon's life
   (``executor.pools_started == 1``, ``executor.pool_rebuilds == 0``).

2. **Zero lost in-flight requests on SIGTERM** — K heavy requests are
   admitted, SIGTERM lands mid-load, and every admitted request must
   still complete with a well-formed response before the daemon exits 0
   ("drained cleanly"). A request that arrives *after* the drain began
   may be refused, but only with the structured retryable
   ``shutting_down`` error — never a hang, never a dead socket.

Exit 0 = both phases held. Any violation prints a FAIL line and exits 1.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.corpus import REGISTRY  # noqa: E402
from repro.errors import ServeError  # noqa: E402
from repro.models import get_model  # noqa: E402
from repro.parallel import AnalysisCache, cache_key  # noqa: E402
from repro.serve import RetryPolicy, connect  # noqa: E402

CLIENTS = 8
FAILURES = []

#: the mixed-method schedule: (method, params, one-shot CLI argv)
WORKLOAD = [
    ("check", {"program": "pmdk_hashmap"},
     ["check", "--program", "pmdk_hashmap", "--format", "json"]),
    ("check", {"program": "pmdk_btree_map"},
     ["check", "--program", "pmdk_btree_map", "--format", "json"]),
    ("check", {"program": "pmfs_journal"},
     ["check", "--program", "pmfs_journal", "--format", "json"]),
    ("check", {"program": "mnemosyne_phlog"},
     ["check", "--program", "mnemosyne_phlog", "--format", "json"]),
    ("crashsim", {"programs": ["pmdk_hashmap"], "max_states": 256},
     ["crashsim", "pmdk_hashmap", "--max-states", "256",
      "--format", "json"]),
    ("litmus", {"tests": ["store-flush-fence"], "max_states": 256},
     ["litmus", "store-flush-fence", "--max-states", "256",
      "--format", "json"]),
]


def fail(message):
    FAILURES.append(message)
    print(f"FAIL: {message}", file=sys.stderr)


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    return env


def one_shot(argv):
    """Run one CLI command; exit 0/1 are both fine (1 = warnings)."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True, text=True, env=cli_env(), cwd=REPO)
    if proc.returncode not in (0, 1):
        raise RuntimeError(
            f"one-shot {' '.join(argv)} exited {proc.returncode}:\n"
            f"{proc.stderr}")
    return proc.stdout.strip()


def start_daemon(sock, *extra):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--socket", sock,
         *extra],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        env=cli_env(), cwd=REPO)
    probe = connect(socket_path=sock)
    try:
        end = time.monotonic() + 60.0
        while time.monotonic() < end:
            if proc.poll() is not None:
                raise RuntimeError(
                    f"daemon died during startup:\n{proc.stderr.read()}")
            if probe.wait_ready(timeout_s=1.0):
                return proc
        raise RuntimeError("daemon never became ready")
    finally:
        probe.close()


def phase_concurrent(workdir):
    print("=== phase 1: byte-identical under concurrent mixed load ===")
    baselines = {
        i: one_shot(argv) for i, (_m, _p, argv) in enumerate(WORKLOAD)
    }
    sock = os.path.join(workdir, "serve1.sock")
    cache_dir = os.path.join(workdir, "cache")
    daemon = start_daemon(sock, "--jobs", "2", "--max-inflight", "16",
                          "--warm", "pmdk_hashmap", "--cache-dir", cache_dir)
    try:
        def drive(ci):
            client = connect(socket_path=sock,
                             retry=RetryPolicy(attempts=6, seed=ci))
            try:
                # each client walks the workload at its own offset, so
                # warm/cold and method order differ per client
                for step in range(len(WORKLOAD)):
                    i = (ci + step) % len(WORKLOAD)
                    method, params, argv = WORKLOAD[i]
                    doc = client.result(method, params, timeout_s=120)
                    got = json.dumps(doc, indent=2, sort_keys=True)
                    if got != baselines[i]:
                        fail(f"client {ci}: {method} {params} diverged "
                             "from the one-shot CLI output")
            except ServeError as exc:
                fail(f"client {ci}: terminal error {exc.code}: {exc}")
            finally:
                client.close()

        threads = [threading.Thread(target=drive, args=(ci,))
                   for ci in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        if any(t.is_alive() for t in threads):
            fail("phase 1: client thread wedged")
        with connect(socket_path=sock) as client:
            counters = client.result("stats")["counters"]
        pools = (counters.get("executor.pools_started", 0),
                 counters.get("executor.pool_rebuilds", 0))
        if pools != (1, 0):
            fail(f"phase 1: {pools[0]} worker pool(s) started, {pools[1]} "
                 "rebuilt; a healthy --jobs 2 daemon keeps one pool")
    finally:
        daemon.send_signal(signal.SIGTERM)
        daemon.wait(timeout=60)
    if daemon.returncode != 0:
        fail(f"phase 1: daemon exited {daemon.returncode} "
             "(drain not clean)")
    cache = AnalysisCache(cache_dir)
    checked = [params["program"] for method, params, _argv in WORKLOAD
               if method == "check"]
    cached = 0
    for name in checked:
        module = REGISTRY.program(name).build()
        key = cache_key(module, get_model(module.persistency_model).name)
        if cache.get(key) is None:
            fail(f"phase 1: no analysis-cache entry for check {name}")
        else:
            cached += 1
    print(f"phase 1 ok: {CLIENTS} clients x {len(WORKLOAD)} requests, "
          f"all byte-identical; {cached}/{len(checked)} checks cached; "
          f"{pools[0]} worker pool, {pools[1]} rebuilt")


def phase_sigterm(workdir):
    print("=== phase 2: SIGTERM mid-load loses zero in-flight "
          "requests ===")
    sock = os.path.join(workdir, "serve2.sock")
    inflight = 6
    daemon = start_daemon(sock, "--jobs", "2",
                          "--max-inflight", str(inflight),
                          "--request-timeout", "300")
    outcomes = [None] * inflight
    sent = threading.Barrier(inflight + 1)

    def drive(ci):
        # attempts=1: a retry would mask a lost response
        client = connect(socket_path=sock,
                         retry=RetryPolicy(attempts=1))
        try:
            program = ["pmdk_hashmap", "pmfs_journal"][ci % 2]
            sent.wait(timeout=30)
            doc = client.call(
                "crashsim",
                {"programs": [program], "max_states": 2048},
                timeout_s=240)
            outcomes[ci] = ("ok", doc["result"]["summary"]["programs"])
        except ServeError as exc:
            outcomes[ci] = ("error", exc.code)
        except Exception as exc:  # barrier timeout, socket teardown, ...
            outcomes[ci] = ("lost", repr(exc))
        finally:
            client.close()

    threads = [threading.Thread(target=drive, args=(ci,))
               for ci in range(inflight)]
    for t in threads:
        t.start()
    sent.wait(timeout=30)  # every client is about to write its request
    time.sleep(0.3)        # let the requests reach the admission queue
    daemon.send_signal(signal.SIGTERM)
    for t in threads:
        t.join(timeout=300)
    daemon.wait(timeout=120)

    if any(t.is_alive() for t in threads):
        fail("phase 2: client thread wedged after SIGTERM")
    if daemon.returncode != 0:
        fail(f"phase 2: daemon exited {daemon.returncode} "
             "(drain not clean)")
    for ci, outcome in enumerate(outcomes):
        if outcome is None:
            fail(f"phase 2: client {ci} got no outcome")
        elif outcome[0] == "lost":
            fail(f"phase 2: client {ci} lost its request: {outcome[1]}")
        elif outcome[0] == "error" and outcome[1] != "shutting_down":
            fail(f"phase 2: client {ci} unexpected error {outcome[1]}")
    served = sum(1 for o in outcomes if o and o[0] == "ok")
    refused = sum(1 for o in outcomes if o and o == ("error",
                                                     "shutting_down"))
    print(f"phase 2 ok: {served} completed through the drain, "
          f"{refused} structurally refused, 0 lost")


def main():
    with tempfile.TemporaryDirectory(prefix="deepmc-serve-ci-") as workdir:
        phase_concurrent(workdir)
        phase_sigterm(workdir)
    if FAILURES:
        print(f"serve CI: {len(FAILURES)} failure(s)", file=sys.stderr)
        return 1
    print("serve CI: all phases held")
    return 0


if __name__ == "__main__":
    sys.exit(main())

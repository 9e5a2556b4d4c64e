"""Fleet and drain behavior of the real CLI processes.

Two stories that only real processes can tell:

* a ``kill -9``'d fleet worker is restarted by the supervisor over its
  shard store, and a re-sent request answers as a cache hit with the
  byte-identical plan — durability composes with supervision;
* ``serve`` drains gracefully on SIGTERM: the in-flight request is
  answered in full and the process exits 0 — the signal the
  supervisor's graceful stop sends every worker.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.service import HashRing, routing_key

_SRC = str(Path(__file__).resolve().parents[1] / "src")
_STOPWATCH = ("memory_check_s", "annealing_s", "total_s")


def _free_ports(n: int) -> "list[int]":
    """Ports the OS just handed out (racy, but the bind is immediate)."""
    sockets, ports = [], []
    for _ in range(n):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        sockets.append(sock)
        ports.append(sock.getsockname()[1])
    for sock in sockets:
        sock.close()
    return ports


def _free_port_block(n: int) -> int:
    """A base port with ``n`` consecutive free ports from it."""
    for _ in range(50):
        (base,) = _free_ports(1)
        held = []
        try:
            for offset in range(n):
                sock = socket.socket()
                sock.bind(("127.0.0.1", base + offset))
                held.append(sock)
        except OSError:
            continue
        finally:
            for sock in held:
                sock.close()
        if len(held) == n:
            return base
    raise AssertionError("no consecutive free port block found")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + (os.pathsep + env["PYTHONPATH"]
                                if env.get("PYTHONPATH") else "")
    return env


def _get(port: int, path: str, timeout: float = 5.0):
    with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=timeout) as response:
        return response.status, response.read()


def _post(port: int, path: str, payload: dict, timeout: float = 120.0):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def _wait_ok(port: int, deadline_s: float = 60.0) -> dict:
    deadline = time.monotonic() + deadline_s
    while True:
        try:
            _, raw = _get(port, "/healthz")
            health = json.loads(raw)
            if health["status"] == "ok":
                return health
        except (OSError, urllib.error.URLError, json.JSONDecodeError):
            pass
        if time.monotonic() >= deadline:
            raise AssertionError(f"port {port} never answered healthy")
        time.sleep(0.25)


def _canonical(answer: dict) -> str:
    result = {key: value for key, value in answer["result"].items()
              if key not in _STOPWATCH}
    return json.dumps({"config": answer["config"],
                       "schedule": answer["schedule"],
                       "latency_s": answer["latency_s"],
                       "result": result}, sort_keys=True)


def _worker_pid_by_shard(shard_index: int) -> int:
    """The live ``serve --shard-index K`` process, found via /proc."""
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                argv = handle.read().decode(errors="replace").split("\0")
        except OSError:
            continue
        if "repro.service" in argv and "serve" in argv \
                and "--shard-index" in argv:
            index = argv[argv.index("--shard-index") + 1]
            if index == str(shard_index):
                return int(pid)
    raise AssertionError(f"no live worker process for shard {shard_index}")


@pytest.mark.skipif(not os.path.isdir("/proc"),
                    reason="needs /proc to find worker processes")
def test_fleet_survives_kill_dash_nine(tmp_path):
    (router_port,) = _free_ports(1)
    base0 = _free_port_block(2)  # workers serve on base0 and base0 + 1
    fleet = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "fleet",
         "--workers", "2", "--http", str(router_port),
         "--base-port", str(base0),
         "--clusters", "mid-range:2",
         "--store-dir", str(tmp_path / "store"),
         "--log-dir", str(tmp_path / "logs"),
         "--sa-iterations", "60"],
        env=_env(), stderr=subprocess.DEVNULL)
    try:
        _wait_ok(router_port)
        payload = {"model": "gpt-toy", "global_batch": 32,
                   "cluster": "mid-range-0", "detail": True}
        status, first = _post(router_port, "/v1/plan", payload)
        assert status == 200
        assert first["status"] == "miss"

        # The router and this test share the deterministic placement
        # code, so the owning shard is computable from outside.
        owner = HashRing(range(2)).lookup(routing_key(payload))
        segment = tmp_path / "store" / f"mid-range-0.shard-{owner}.jsonl"
        assert segment.exists() and segment.stat().st_size > 0

        os.kill(_worker_pid_by_shard(owner), signal.SIGKILL)
        health = _wait_ok(router_port)  # supervisor restarted it
        assert health["restarts"][str(owner)] >= 1

        status, again = _post(router_port, "/v1/plan", payload)
        assert status == 200
        assert again["status"] == "hit"  # rehydrated from the segment
        assert _canonical(again) == _canonical(first)
    finally:
        fleet.send_signal(signal.SIGTERM)
        try:
            returncode = fleet.wait(timeout=60)
        except subprocess.TimeoutExpired:
            fleet.kill()
            raise
    assert returncode == 0


def test_serve_sigterm_drains_inflight_request(tmp_path):
    """No in-flight request is dropped by a graceful shutdown."""
    (port,) = _free_ports(1)
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "serve",
         "--http", str(port), "--clusters", "mid-range:2",
         "--store-dir", str(tmp_path / "store"),
         "--sa-iterations", "4000"],
        env=_env(), stderr=subprocess.DEVNULL)
    try:
        _wait_ok(port)
        from concurrent.futures import ThreadPoolExecutor
        payload = {"model": "gpt-toy", "global_batch": 64,
                   "cluster": "mid-range-0", "detail": True}
        with ThreadPoolExecutor(1) as pool:
            inflight = pool.submit(_post, port, "/v1/plan", payload)
            time.sleep(0.3)  # let the request reach the search
            server.send_signal(signal.SIGTERM)
            status, answer = inflight.result(timeout=120)
        assert status == 200
        assert answer["status"] in ("miss", "hit")
        assert "config" in answer and "result" in answer
        returncode = server.wait(timeout=60)
        assert returncode == 0
        # ...and the answer it finished under SIGTERM reached the
        # durable shard log before exit.
        store = tmp_path / "store" / "mid-range-0.jsonl"
        assert store.exists() and store.stat().st_size > 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=30)

"""Horizontally sharded planning fleet: supervisor + front-end router.

One ``serve`` process tops out at one interpreter's worth of
cache-miss searches.  The fleet layer scales the serving stack across
*processes* while keeping every single-process guarantee intact:

* :class:`FleetSupervisor` spawns N worker processes, each the
  ordinary ``python -m repro.service serve --http <port>
  --shard-index <k>`` stack (registry → gateway → HTTP) over its own
  durable shard segments (``<cluster>.shard-<k>.jsonl``).  It
  health-checks workers over ``/healthz``, restarts crashed ones onto
  the same shard store (so the revived worker rehydrates and keeps
  answering byte-identically), and stops the fleet through each
  worker's graceful SIGTERM drain.
* :class:`FleetRouter` is the thin front door.  ``POST /v1/plan``
  consistent-hashes the request's plan-determining content
  (:func:`~repro.service.shard.routing_key`) onto one worker, so the
  same question always lands on the same shard — per-shard LRU caches
  and in-flight coalescing stay exactly as effective as in one
  process, and a question is searched once per fleet, not once per
  worker.  Elastic events and template warm-ups fan to *all* workers
  (every worker models every cluster; the deterministic epoch math
  keeps their fingerprints in lockstep).  ``GET /metrics`` merges the
  workers' expositions into one page with a ``worker`` label
  (:func:`~repro.service.metrics.merge_expositions`) plus the
  router's own fleet series; ``GET /healthz`` aggregates worker
  health.
* :class:`AdmissionController` backs lane fairness *inside* a worker
  with admission fairness *across* the fleet: a token bucket per
  ``client_id`` at the front door answers ``429`` once a client
  exceeds its refill rate, before the request can queue anywhere.

Operator documentation (topology diagram, knobs, the fleet metrics
catalog) lives in ``docs/SERVING.md``; the scale-out proof —
≥2.5x aggregate cache-miss throughput at 4 workers with byte-identical
plans — in ``benchmarks/bench_fleet.py``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import subprocess
import sys
import time
from collections import OrderedDict
from pathlib import Path

from repro.obs.logs import get_logger
from repro.service.cache import parse_plan_payload
from repro.service.http import (
    _JSON,
    MAX_BODY_BYTES,
    HttpError,
    HttpServerBase,
    _json_body,
)
from repro.service.metrics import MetricsRegistry, merge_expositions
from repro.service.shard import HashRing, routing_key

__all__ = ["AdmissionController", "FleetRouter", "FleetSupervisor",
           "TokenBucket", "WorkerClient"]

_log = get_logger("service.fleet")

#: Idle keep-alive connections the router pools per worker.
MAX_POOL = 8


# ------------------------------------------------------------- admission


class TokenBucket:
    """One client's admission budget: ``rate`` tokens/s up to ``burst``."""

    __slots__ = ("rate", "burst", "tokens", "stamp")

    def __init__(self, rate: float, burst: float, now: float) -> None:
        self.rate = rate
        self.burst = burst
        self.tokens = burst  # a new client starts with a full burst
        self.stamp = now

    def admit(self, now: float) -> bool:
        """Take one token if available (refilling for elapsed time)."""
        self.tokens = min(self.burst,
                          self.tokens + (now - self.stamp) * self.rate)
        self.stamp = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class AdmissionController:
    """Per-``client_id`` token buckets at the fleet's front door.

    Args:
        rate: sustained plan requests per second granted to each
            client (> 0).
        burst: bucket capacity — how far a quiet client can briefly
            exceed ``rate``; defaults to ``max(1, 2 * rate)``.
        max_clients: bound on tracked clients; the least recently
            *seen* bucket is evicted beyond it (an evicted client that
            returns simply starts a fresh, full bucket).
        clock: injectable monotonic time source, for tests.

    The fleet-level twin of the per-worker fair lanes: lanes stop one
    admitted client from starving another, the admission controller
    stops a flood from being admitted in the first place.  Requests
    without a ``client_id`` share the ``""`` bucket, mirroring the
    gateway's default fair-queue lane.
    """

    def __init__(self, rate: float, burst: "float | None" = None,
                 max_clients: int = 4096, clock=time.monotonic) -> None:
        if not rate > 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if burst is None:
            burst = max(1.0, 2.0 * rate)
        if not burst >= 1.0:
            raise ValueError(f"burst must be >= 1, got {burst}")
        if max_clients < 1:
            raise ValueError(f"max_clients must be >= 1, got {max_clients}")
        self.rate = float(rate)
        self.burst = float(burst)
        self.max_clients = int(max_clients)
        self._clock = clock
        self._buckets: "OrderedDict[str, TokenBucket]" = OrderedDict()

    def admit(self, client_id: str) -> bool:
        """Whether one request from ``client_id`` may enter the fleet."""
        now = self._clock()
        bucket = self._buckets.get(client_id)
        if bucket is None:
            bucket = TokenBucket(self.rate, self.burst, now)
            self._buckets[client_id] = bucket
            while len(self._buckets) > self.max_clients:
                self._buckets.popitem(last=False)
        else:
            self._buckets.move_to_end(client_id)
        return bucket.admit(now)

    @property
    def retry_after_s(self) -> float:
        """Seconds until a drained bucket holds one token again."""
        return 1.0 / self.rate


# ------------------------------------------------------ worker transport


async def _read_http_response(reader: asyncio.StreamReader
                              ) -> "tuple[int, dict, bytes]":
    """One worker HTTP/1.1 response -> (status, headers, body)."""
    status_line = await reader.readline()
    if not status_line:
        raise asyncio.IncompleteReadError(b"", None)
    parts = status_line.decode("latin-1").split(None, 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise ConnectionError(f"malformed status line {status_line!r}")
    status = int(parts[1])
    headers: "dict[str, str]" = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            raise asyncio.IncompleteReadError(b"", None)
        name, sep, value = line.decode("latin-1").partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    body = await reader.readexactly(length) if length else b""
    return status, headers, body


class WorkerClient:
    """Keep-alive HTTP client to one worker, with a connection pool.

    The router keeps at most :data:`MAX_POOL` idle connections per
    worker; a request over a pooled connection that turns out stale
    (the worker restarted since it was pooled) is retried once on a
    fresh connection before the failure propagates.
    """

    def __init__(self, host: str, port: int,
                 index: "int | None" = None) -> None:
        self.host = host
        self.port = int(port)
        self.index = index
        self._pool: "list[tuple[asyncio.StreamReader, asyncio.StreamWriter]]" = []

    async def request(self, method: str, path: str, body: bytes = b"",
                      timeout_s: "float | None" = None
                      ) -> "tuple[int, bytes]":
        """One proxied request -> (status, response body).

        Raises ``ConnectionError`` / ``OSError`` when the worker is
        unreachable even over a fresh connection — the router's cue to
        involve the supervisor.
        """
        for attempt in (0, 1):
            pooled = bool(self._pool)
            if pooled:
                reader, writer = self._pool.pop()
            else:
                reader, writer = await asyncio.open_connection(
                    self.host, self.port)
            try:
                head = (f"{method} {path} HTTP/1.1\r\n"
                        f"Host: {self.host}:{self.port}\r\n"
                        f"Content-Type: {_JSON}\r\n"
                        f"Content-Length: {len(body)}\r\n\r\n")
                writer.write(head.encode("latin-1") + body)
                await writer.drain()
                waiter = _read_http_response(reader)
                if timeout_s is not None:
                    waiter = asyncio.wait_for(waiter, timeout_s)
                status, headers, payload = await waiter
            except (ConnectionError, OSError, EOFError,
                    asyncio.IncompleteReadError):
                writer.close()
                if pooled:
                    continue  # stale pooled connection; retry fresh
                raise
            except BaseException:
                writer.close()
                raise
            if headers.get("connection", "").lower() == "close" \
                    or len(self._pool) >= MAX_POOL:
                writer.close()
            else:
                self._pool.append((reader, writer))
            return status, payload
        raise ConnectionError(f"worker {self.index} closed both attempts")

    def close(self) -> None:
        """Close every pooled connection."""
        while self._pool:
            _, writer = self._pool.pop()
            writer.close()


# ------------------------------------------------------------ supervisor


class FleetSupervisor:
    """Spawns, health-checks, restarts, and drains the worker fleet.

    Args:
        n_workers: fleet size.
        base_port: worker ``k`` serves HTTP on ``base_port + k``.
        host: bind/connect address for every worker.
        worker_args: extra CLI arguments appended to every worker's
            ``serve`` command line (clusters, store dir, search knobs).
        python: interpreter to spawn workers with.
        log_dir: when given, worker ``k``'s stderr/stdout append to
            ``<log_dir>/worker-<k>.log`` (surviving restarts);
            otherwise output inherits the supervisor's stderr.
        health_timeout_s: how long :meth:`wait_healthy` polls before
            declaring a worker failed.
        poll_interval_s: crash-detection cadence of :meth:`watch`.

    Worker ``k`` always gets ``--shard-index k``, so its durable layer
    lives in per-shard segments and a restart rehydrates exactly the
    plans this shard answered before.
    """

    def __init__(self, n_workers: int, base_port: int, *,
                 host: str = "127.0.0.1",
                 worker_args: "tuple[str, ...] | list[str]" = (),
                 python: str = sys.executable,
                 log_dir: "str | None" = None,
                 health_timeout_s: float = 60.0,
                 poll_interval_s: float = 0.25) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = int(n_workers)
        self.base_port = int(base_port)
        self.host = host
        self.worker_args = list(worker_args)
        self.python = python
        self.log_dir = log_dir
        self.health_timeout_s = float(health_timeout_s)
        self.poll_interval_s = float(poll_interval_s)
        self.procs: "list[subprocess.Popen | None]" = [None] * n_workers
        self.restarts = {k: 0 for k in range(n_workers)}
        self._locks = [asyncio.Lock() for _ in range(n_workers)]

    # ------------------------------------------------------------ spawning

    def worker_port(self, index: int) -> int:
        """The HTTP port worker ``index`` serves on."""
        return self.base_port + index

    def _worker_env(self) -> "dict[str, str]":
        # Workers must import the same repro tree as the supervisor,
        # however it was put on *our* path (PYTHONPATH=src, an
        # installed package, a checkout).
        env = dict(os.environ)
        import repro
        src = str(Path(repro.__file__).resolve().parents[1])
        existing = env.get("PYTHONPATH", "")
        if src not in existing.split(os.pathsep):
            env["PYTHONPATH"] = src + (os.pathsep + existing
                                       if existing else "")
        return env

    def spawn(self, index: int) -> subprocess.Popen:
        """Start worker ``index`` (over its existing shard store)."""
        cmd = [self.python, "-m", "repro.service", "serve",
               "--http", str(self.worker_port(index)),
               "--host", self.host,
               "--shard-index", str(index), *self.worker_args]
        if self.log_dir is not None:
            os.makedirs(self.log_dir, exist_ok=True)
            log_path = os.path.join(self.log_dir, f"worker-{index}.log")
            with open(log_path, "ab") as log_fh:
                proc = subprocess.Popen(cmd, env=self._worker_env(),
                                        stdout=log_fh, stderr=log_fh)
        else:
            proc = subprocess.Popen(cmd, env=self._worker_env(),
                                    stdout=subprocess.DEVNULL)
        self.procs[index] = proc
        _log.info("worker spawned", extra={
            "worker": index, "pid": proc.pid,
            "port": self.worker_port(index)})
        return proc

    # -------------------------------------------------------------- health

    async def check_health(self, index: int) -> bool:
        """One ``GET /healthz`` probe of worker ``index``."""
        client = WorkerClient(self.host, self.worker_port(index), index)
        try:
            status, _ = await client.request("GET", "/healthz",
                                             timeout_s=5.0)
        except (ConnectionError, OSError, asyncio.TimeoutError,
                asyncio.IncompleteReadError):
            return False
        finally:
            client.close()
        return status == 200

    async def wait_healthy(self, index: int,
                           timeout_s: "float | None" = None) -> None:
        """Poll worker ``index`` until ``/healthz`` answers 200.

        Raises ``RuntimeError`` if the worker process exits or the
        timeout expires first — a worker that cannot come up is an
        operator problem, not something to poll forever.
        """
        deadline = time.monotonic() + (timeout_s if timeout_s is not None
                                       else self.health_timeout_s)
        while True:
            proc = self.procs[index]
            if proc is None or proc.poll() is not None:
                code = None if proc is None else proc.returncode
                raise RuntimeError(
                    f"worker {index} exited with code {code} before "
                    f"becoming healthy")
            if await self.check_health(index):
                return
            if time.monotonic() >= deadline:
                raise RuntimeError(
                    f"worker {index} did not answer /healthz on "
                    f"{self.host}:{self.worker_port(index)} within "
                    f"{timeout_s if timeout_s is not None else self.health_timeout_s:.1f}s")
            await asyncio.sleep(0.1)

    # ----------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """Spawn every worker and wait until all are healthy."""
        for index in range(self.n_workers):
            self.spawn(index)
        await asyncio.gather(*(self.wait_healthy(k)
                               for k in range(self.n_workers)))

    async def ensure_alive(self, index: int,
                           timeout_s: "float | None" = None) -> None:
        """Restart worker ``index`` if its process died; wait healthy.

        Serialized per worker, so the watch loop and a router retry
        discovering the same corpse spawn one replacement, not two.
        """
        async with self._locks[index]:
            proc = self.procs[index]
            if proc is None or proc.poll() is not None:
                if proc is not None:
                    self.restarts[index] += 1
                    _log.warning("worker died; restarting", extra={
                        "worker": index, "returncode": proc.returncode,
                        "restarts": self.restarts[index]})
                self.spawn(index)
            await self.wait_healthy(index, timeout_s)

    async def watch(self) -> None:
        """Restart crashed workers until cancelled (the monitor loop)."""
        while True:
            await asyncio.sleep(self.poll_interval_s)
            for index in range(self.n_workers):
                proc = self.procs[index]
                if proc is not None and proc.poll() is not None:
                    with contextlib.suppress(Exception):
                        await self.ensure_alive(index)

    async def _wait_exit(self, proc: subprocess.Popen,
                         timeout_s: float) -> bool:
        deadline = time.monotonic() + timeout_s
        while proc.poll() is None:
            if time.monotonic() >= deadline:
                return False
            await asyncio.sleep(0.05)
        return True

    async def stop(self, graceful: bool = True,
                   timeout_s: float = 15.0) -> "list[int | None]":
        """Stop the fleet; returns each worker's exit code.

        ``graceful`` sends SIGTERM (workers drain and exit 0) and
        escalates to SIGKILL only past ``timeout_s``.
        """
        live = [(k, p) for k, p in enumerate(self.procs)
                if p is not None and p.poll() is None]
        for _, proc in live:
            proc.send_signal(signal.SIGTERM if graceful else signal.SIGKILL)
        deadline = time.monotonic() + timeout_s
        for index, proc in live:
            if not await self._wait_exit(
                    proc, max(0.0, deadline - time.monotonic())):
                _log.warning("worker ignored SIGTERM; killing",
                             extra={"worker": index})
                proc.kill()
                await self._wait_exit(proc, 5.0)
        return [None if p is None else p.returncode for p in self.procs]


# ---------------------------------------------------------------- router


class FleetRouter(HttpServerBase):
    """The fleet's front door: shard routing, fan-out, aggregation.

    Args:
        workers: one :class:`WorkerClient` per worker, index-aligned
            with the supervisor's shards.
        supervisor: when given, a worker found unreachable is revived
            (:meth:`FleetSupervisor.ensure_alive`) and the request
            retried once before a ``502`` escapes.
        quota: optional :class:`AdmissionController`; ``None`` admits
            everything (the per-worker lanes still enforce fairness
            among admitted requests).
        metrics: registry for the router's own series; created fresh
            when ``None``.
        max_body_bytes: request-body cap, as on the workers.

    The router is deliberately *thin*: it never parses plan results,
    never caches, never coalesces — those stay in the workers, where
    the consistent hash concentrates each key.  It owns exactly the
    concerns that must be fleet-global: placement, admission, fan-out,
    and the aggregated observability pages.  The connection loop,
    dispatch, and error mapping are :class:`HttpServerBase`'s, shared
    with every worker's front end.
    """

    def __init__(self, workers: "list[WorkerClient]", *,
                 supervisor: "FleetSupervisor | None" = None,
                 quota: "AdmissionController | None" = None,
                 metrics: "MetricsRegistry | None" = None,
                 max_body_bytes: int = MAX_BODY_BYTES) -> None:
        if not workers:
            raise ValueError("a fleet needs at least one worker")
        super().__init__(
            {("POST", "/v1/plan"): self._plan,
             ("POST", "/v1/events/bandwidth"):
                 lambda body: self._fan("/v1/events/bandwidth", body),
             ("POST", "/v1/events/failure"):
                 lambda body: self._fan("/v1/events/failure", body),
             ("POST", "/v1/templates/warm"):
                 lambda body: self._fan("/v1/templates/warm", body),
             ("GET", "/healthz"): self._healthz,
             ("GET", "/metrics"): self._metrics_page},
            ("pipette_fleet_requests_total",
             "Requests served by the fleet router, by method, route, "
             "and status code."),
            metrics=metrics, max_body_bytes=max_body_bytes)
        self.workers = list(workers)
        self.supervisor = supervisor
        self.quota = quota
        self.ring = HashRing(range(len(self.workers)))
        self._admission_rejects = self.metrics.counter(
            "pipette_admission_rejects_total",
            "Plan requests refused at the fleet front door because the "
            "client's token bucket was empty (HTTP 429).",
            ("client_id",))
        self.metrics.gauge(
            "pipette_fleet_workers",
            "Worker processes behind the fleet router."
        ).set_function(lambda: len(self.workers))
        restarts = self.metrics.counter(
            "pipette_fleet_worker_restarts_total",
            "Crashed-worker restarts performed by the supervisor.",
            ("worker",))
        if supervisor is not None:
            for index in range(len(self.workers)):
                restarts.labels(worker=str(index)).bind(
                    lambda k=index: supervisor.restarts[k])

    # ------------------------------------------------------------ routes

    async def _plan(self, body: bytes):
        # A malformed plan answers 400 here, before it costs a quota
        # token or a worker round trip.
        fields = parse_plan_payload(self._json_payload(body))
        client_id = fields.client_id or ""
        if self.quota is not None and not self.quota.admit(client_id):
            self._admission_rejects.labels(client_id=client_id).inc()
            raise HttpError(
                429, f"admission quota exhausted for client "
                     f"{client_id or '(default)'}; retry in "
                     f"~{self.quota.retry_after_s:.2f}s")
        index = self.ring.lookup(routing_key(fields))
        status, out = await self._proxy(index, "POST", "/v1/plan", body)
        return status, _JSON, out

    async def _proxy(self, index: int, method: str, path: str,
                     body: bytes, timeout_s: "float | None" = None
                     ) -> "tuple[int, bytes]":
        """One request to worker ``index``, reviving it if dead."""
        worker = self.workers[index]
        try:
            return await worker.request(method, path, body,
                                        timeout_s=timeout_s)
        except (ConnectionError, OSError,
                asyncio.IncompleteReadError) as exc:
            reason = exc
            if self.supervisor is not None:
                try:
                    await self.supervisor.ensure_alive(index)
                    return await worker.request(method, path, body,
                                                timeout_s=timeout_s)
                except (ConnectionError, OSError, RuntimeError,
                        asyncio.IncompleteReadError) as retry_exc:
                    reason = retry_exc
            raise HttpError(
                502, f"worker {index} is unreachable ({reason})") from None

    async def _fan(self, path: str, body: bytes):
        """Fan one POST to every worker; merge the answers.

        Elastic events must reach *all* workers — each models every
        cluster, and a worker that missed a failure event would keep
        serving plans for dead nodes.  The per-worker epoch fencing is
        untouched (each gateway rolls its epoch between its own
        drains), and because the epoch fingerprint is deterministic
        in the event's content, all workers land on the same epoch —
        checked here, reported as per-worker ``epochs`` if they ever
        diverge.  ``retired`` sums across shards: each worker retires
        the cached plans *its* shard held, so the sum is the fleet
        total, directly comparable to the single-process number.
        """
        self._json_payload(body)  # reject malformed bodies before the fan
        results = await asyncio.gather(
            *(self._proxy(k, "POST", path, body)
              for k in range(len(self.workers))),
            return_exceptions=True)
        answers: "dict[int, tuple[int, dict]]" = {}
        for index, result in enumerate(results):
            if isinstance(result, BaseException):
                raise result if isinstance(result, HttpError) else \
                    HttpError(502, f"worker {index} failed: {result}")
            status, raw = result
            try:
                parsed = json.loads(raw) if raw else {}
            except json.JSONDecodeError:
                parsed = {"raw": raw.decode("utf-8", "replace")}
            answers[index] = (status, parsed)
        worst = max(status for status, _ in answers.values())
        if worst >= 400:
            # Workers are deterministic replicas, so they fail alike;
            # surface the first failing answer verbatim.
            for index in sorted(answers):
                status, parsed = answers[index]
                if status >= 400:
                    return status, _JSON, _json_body(parsed)
        out = dict(answers[0][1])
        out["workers"] = len(self.workers)
        if any("retired" in parsed for _, parsed in answers.values()):
            out["retired"] = sum(int(parsed.get("retired", 0))
                                 for _, parsed in answers.values())
        epochs = {str(k): parsed.get("epoch")
                  for k, (_, parsed) in answers.items()
                  if "epoch" in parsed}
        if epochs and len(set(epochs.values())) > 1:
            _log.warning("fleet epochs diverged", extra={
                "path": path, "epochs": epochs})
            out["epochs"] = epochs
        return 200, _JSON, _json_body(out)

    async def _healthz(self, body: bytes):
        """Aggregate worker health: ``ok`` only when every shard is."""
        async def probe(index: int):
            try:
                status, raw = await self.workers[index].request(
                    "GET", "/healthz", timeout_s=5.0)
            except (ConnectionError, OSError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError):
                return None
            if status != 200:
                return None
            try:
                return json.loads(raw)
            except json.JSONDecodeError:
                return None

        reports = await asyncio.gather(
            *(probe(k) for k in range(len(self.workers))))
        workers = {str(k): report for k, report in enumerate(reports)}
        healthy = [r for r in reports if r is not None]
        out = {
            "status": "ok" if len(healthy) == len(reports) else "degraded",
            "fleet_workers": len(self.workers),
            "healthy_workers": len(healthy),
            "workers": workers,
        }
        if healthy:
            out["clusters"] = healthy[0].get("clusters", [])
        if self.supervisor is not None:
            out["restarts"] = {str(k): v for k, v
                               in self.supervisor.restarts.items()}
        return 200, _JSON, _json_body(out)

    async def _metrics_page(self, body: bytes):
        """One Prometheus page: router series + worker-labeled series."""
        async def scrape(index: int):
            try:
                status, raw = await self.workers[index].request(
                    "GET", "/metrics", timeout_s=5.0)
            except (ConnectionError, OSError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError):
                return None
            return raw.decode("utf-8") if status == 200 else None

        pages = await asyncio.gather(
            *(scrape(k) for k in range(len(self.workers))))
        # A dead worker's series simply drop off the page (healthz
        # reports it); merging must not fail a whole scrape for one
        # crashed shard.
        merged = merge_expositions(
            [(str(k), page) for k, page in enumerate(pages)
             if page is not None])
        text = self.metrics.render() + merged
        return 200, MetricsRegistry.CONTENT_TYPE, text.encode("utf-8")

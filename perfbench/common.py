"""Shared pieces of the planning benchmark: statistics, checks, HTTP.

Everything here runs in the benchmark process only.  The checks are the
correctness gate every workload feeds: a plan that fails one of them
counts as a failed operation, and any failure makes the run exit
non-zero.
"""

from __future__ import annotations

import asyncio
import json
import math
import resource
import statistics

import numpy as np

from repro.core.configurator import PipetteResult
from repro.core.latency_model import pipette_latency
from repro.service import HttpPlanServer, PlanGateway
from repro.sim import ClusterRunner

#: ``to_payload`` fields that time a search instead of describing its
#: plan; two answers with the same plan may differ only in these.
STOPWATCH_FIELDS = ("memory_check_s", "annealing_s", "total_s")

#: Answer-body fields that describe one delivery, not the plan.
DELIVERY_FIELDS = ("elapsed_ms", "status", "trace_id", "timing")

#: Percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

#: A reported percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


# ----------------------------------------------------------------- statistics


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail(samples) -> "tuple[float, float, int] | None":
    """``(percentile, value, samples beyond)`` of the highest reportable tail.

    Nearest-rank percentiles; a percentile qualifies when at least
    :data:`TAIL_MIN_BEYOND` samples lie beyond it, so a tail is never
    one sample.  ``None`` when no percentile qualifies.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * n)
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            return pct, ordered[rank - 1], n - rank
    return None


def peak_rss_mb() -> float:
    """Peak resident memory of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def latency_summary(plan_s: list, wall_s: float) -> dict:
    """The client-side timing metrics of one timed loop."""
    return {"plan_s.p50": statistics.median(plan_s),
            "plans_per_s": len(plan_s) / wall_s,
            "n": len(plan_s),
            "tail": tail(plan_s)}


# --------------------------------------------------------------------- checks


class Failures:
    """Counts attempted and failed operations; keeps the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: "list[str]" = []

    def check(self, ok: bool, reason: str) -> bool:
        """Count one checked operation; record ``reason`` when not ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)
        return ok


def check_plan(failures: Failures, label: str, result: PipetteResult, model,
               bandwidth, profile, runner: "ClusterRunner | None"):
    """Gate one distinct answer's best plan; returns ``(predicted, sim)``.

    The best plan must pass the memory check, map blocks by a
    permutation, carry exactly the latency the scalar model re-scores,
    and (when a ``runner`` for its cluster exists) run without OOM.
    ``sim`` is ``None`` when there is no runner.
    """
    best = result.best
    if not failures.check(best is not None and best.memory_ok,
                          f"{label}: no best plan with memory_ok"):
        return None, None
    perm = np.asarray(best.mapping.block_to_slot)
    failures.check(np.array_equal(np.sort(perm), np.arange(len(perm))),
                   f"{label}: block_to_slot is not a permutation")
    rescored = pipette_latency(model, best.config, best.mapping, bandwidth,
                               profile)
    failures.check(rescored == best.estimated_latency_s,
                   f"{label}: predicted {best.estimated_latency_s!r} but "
                   f"pipette_latency re-scores {rescored!r}")
    if runner is None:
        return best.estimated_latency_s, None
    run = runner.run(best.config, best.mapping)
    failures.check(not run.oom, f"{label}: {best.config.describe()} OOMs "
                                f"in ClusterRunner")
    return best.estimated_latency_s, None if run.oom else run.time_per_iter_s


def read_result(failures: Failures, label: str,
                payload: dict) -> "PipetteResult | None":
    """The full result of a detail answer, or ``None`` (a failure)."""
    try:
        return PipetteResult.from_payload(payload["result"])
    except (KeyError, TypeError, ValueError) as exc:
        failures.check(False, f"{label}: unreadable plan ({exc!r})")
        return None


def plan_identity(payload: dict) -> str:
    """Canonical JSON of an answer net of delivery and stopwatch fields."""
    body = {k: v for k, v in payload.items() if k not in DELIVERY_FIELDS}
    if "result" in body:
        body["result"] = {k: v for k, v in body["result"].items()
                          if k not in STOPWATCH_FIELDS}
    return json.dumps(body, sort_keys=True)


def strip_elapsed(body: bytes) -> bytes:
    """An untraced answer body without its ``elapsed_ms`` member.

    Answer bodies are ``sort_keys`` JSON whose only per-delivery field
    in an untraced run is ``elapsed_ms`` (between ``"config"`` and
    ``"latency_s"``, or before ``"error"``), so two deliveries of one
    cached plan must be byte-identical once it is cut out.  Cutting by
    bytes keeps the check off the JSON decoder in the timed loops.
    """
    start = body.find(b'"elapsed_ms": ')
    end = body.find(b", ", start)
    if start < 0 or end < 0:
        return body
    return body[:start] + body[end + 2:]


# ----------------------------------------------------------------------- HTTP


class HttpClient:
    """One keep-alive HTTP/1.1 connection to the plan server."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, port: int) -> "HttpClient":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def post(self, path: str, body: bytes) -> "tuple[int, bytes]":
        """One request/response round trip -> ``(status code, body)``."""
        self.writer.write(
            (f"POST {path} HTTP/1.1\r\nHost: perfbench\r\n"
             f"Content-Length: {len(body)}\r\n\r\n").encode() + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        payload = await self.reader.readexactly(length)
        return int(status_line.split()[1]), payload

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


def request_body(**fields) -> bytes:
    return json.dumps(fields, sort_keys=True).encode()


class PlanStack:
    """The served stack: gateway, HTTP server on 127.0.0.1, and clients.

    :meth:`close` shuts it down in the order that leaves no handler
    task behind: clients hang up, the listener closes, the server
    drains its (now idle) connections, then the gateway stops its lanes.
    """

    def __init__(self, registry, gateway, front, server, clients) -> None:
        self.registry = registry
        self.gateway = gateway
        self.front = front
        self.server = server
        self.clients = clients

    @classmethod
    async def start(cls, registry, options, n_clients: int) -> "PlanStack":
        gateway = PlanGateway(registry)
        front = HttpPlanServer(gateway, options)
        server = await asyncio.start_server(front.handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        clients = [await HttpClient.connect(port) for _ in range(n_clients)]
        return cls(registry, gateway, front, server, clients)

    async def close(self) -> None:
        for client in self.clients:
            await client.close()
        self.server.close()
        await self.front.drain()
        await self.server.wait_closed()
        await self.gateway.aclose()

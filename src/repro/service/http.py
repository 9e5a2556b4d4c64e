"""HTTP/1.1 front end over the planning gateway, stdlib only.

The stdin JSON-lines ``serve`` mode is fine for piping requests from a
script, but production callers — schedulers, dashboards, a Prometheus
scraper — speak HTTP, the only socket transport.
:class:`HttpPlanServer` exposes the
:class:`~repro.service.gateway.PlanGateway` over a small, hand-rolled
HTTP/1.1 server (asyncio streams, no web framework):

====================  =====================================================
Route                 Meaning
====================  =====================================================
``POST /v1/plan``     answer one planning request (same JSON schema as
                      the line protocol, plus ``"detail": true`` for the
                      full result payload)
``POST /v1/events/bandwidth``  adopt a re-profiled matrix on one cluster
``POST /v1/events/failure``    apply a node failure to one cluster
``POST /v1/templates/warm``    fill a cluster's elastic template library
                      (synchronously, or in the background with
                      ``"wait": false``)
``GET /healthz``      liveness, uptime, version, clusters, store paths
``GET /metrics``      Prometheus text exposition of the serving metrics
``GET /v1/debug/traces``        recent trace summaries (ring buffer)
``GET /v1/debug/traces/<id>``   one trace's full span tree
====================  =====================================================

Request/response schemas, curl examples, and the full metrics catalog
live in ``docs/SERVING.md``; the layer diagram in
``docs/ARCHITECTURE.md``.

:class:`HttpServerBase` is the one server loop: connection handling
and graceful drain, route dispatch (404, and 405 with ``Allow``), the
exception-to-status map, JSON body parsing, and the per-request
counter.  :class:`HttpPlanServer` and the fleet router
(:class:`repro.service.fleet.FleetRouter`) subclass it and supply only
their route tables and counter names.

Design constraints, in order:

* **same answers as the gateway** — ``POST /v1/plan`` goes through
  :meth:`PlanBodies.answer` and :func:`answer_payload`, the exact
  routine the stdin JSON-lines mode uses, so a plan fetched over HTTP
  is byte-identical (net of stopwatch fields) to a direct
  :meth:`PlanGateway.plan` call (``benchmarks/bench_http.py`` holds
  the proof);
* **a repeated body is read once** — :class:`PlanBodies` keeps each
  plan body's decoded payload, fields and per-cluster
  :class:`~repro.service.cache.PlanRequest` in a bounded LRU keyed by
  the body's bytes, so a repeat goes straight to the cache lookup;
* **bounded inputs** — request bodies are capped (``413`` beyond
  ``max_body_bytes``), header counts are capped, and chunked bodies
  are refused (``501``) rather than buffered unbounded;
* **errors are answers** — malformed JSON, unknown models, and
  unknown clusters come back as JSON error bodies with proper status
  codes (400/404/405/413/503), never a dropped connection;
* **keep-alive** — HTTP/1.1 connections serve many requests; each
  connection handles its requests sequentially while separate
  connections proceed concurrently through the gateway's lanes.

``client_id`` in a plan payload feeds the gateway's weighted-fair
lanes.  It is transport identity, not plan identity: it never enters
the request fingerprint, so two clients asking the same question
still share one cache entry and one search.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import math
import time
from collections import OrderedDict
from functools import partial
from types import MappingProxyType

import numpy as np

import repro
from repro.cluster.fabric import BandwidthMatrix
from repro.core import PipetteOptions, PipetteResult
from repro.model import get_model
from repro.obs.logs import get_logger
from repro.obs.trace import (
    NULL_SPAN,
    TRACER,
    format_traceparent,
    parse_traceparent,
)
from repro.service.cache import (
    parse_plan_payload,
    payload_int,
    payload_number,
)
from repro.service.gateway import (
    GatewayOverloadedError,
    GatewayResponse,
    PlanGateway,
)
from repro.service.metrics import MetricsRegistry
from repro.service.registry import cheapest_rank_key
from repro.service.warmer import TemplateWarmer
from repro.units import GIB

__all__ = ["HttpError", "HttpPlanServer", "HttpServerBase", "PlanBodies",
           "PlanBody", "answer_payload", "plan_response_payload",
           "render_answer", "MAX_BODY_BYTES", "MEMO_BODY_BYTES",
           "MEMO_ENTRIES"]

#: Default request-body cap; a plan request is a few hundred bytes,
#: and even a full bandwidth matrix for a large fleet fits well under
#: this.  Raise per-server via ``max_body_bytes`` if yours does not.
MAX_BODY_BYTES = 1 << 20

#: Plan bodies a :class:`PlanBodies` memo keeps, least recently used
#: out first.  A serving working set is a campaign's few distinct
#: questions; an entry is a decoded payload plus one request per
#: cluster asked, a few KB.
MEMO_ENTRIES = 256

#: Bodies longer than this are answered but never kept; a plan body is
#: a few hundred bytes.
MEMO_BODY_BYTES = 4096

_JSON = "application/json; charset=utf-8"

#: ``_ENCODER.encode(x) == json.dumps(x, sort_keys=True)``, without
#: building a new encoder per call.
_ENCODER = json.JSONEncoder(sort_keys=True)

_log = get_logger("service.http")

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    502: "Bad Gateway",
    503: "Service Unavailable",
    505: "HTTP Version Not Supported",
}


class HttpError(Exception):
    """An HTTP-level failure with a status code and a safe message."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


# --------------------------------------------------------------- protocol


class PlanBody:
    """One plan request body, read once and asked many times.

    ``payload`` is the decoded JSON object, read-only: a memo hands the
    same body to every repeat.  :meth:`parsed` reads its fields,
    resolves its model and builds its request kwargs on first use.
    :meth:`request` builds the :class:`~repro.service.cache.PlanRequest`
    for one cluster and keeps it, tagged with the service that built
    it, for as long as the registry still names that service and the
    service still plans for the request's own cluster spec (a node
    failure replaces the spec).  A request's fingerprint is memoised on
    the request, so a kept request is hashed once.
    """

    __slots__ = ("raw", "payload", "options", "_decoded", "_read",
                 "_requests")

    def __init__(self, raw, payload: dict, options: PipetteOptions) -> None:
        if not isinstance(payload, dict):
            raise ValueError("plan payload must be a JSON object")
        self.raw = raw
        self.payload = MappingProxyType(payload)
        self.options = options
        self._decoded = payload
        self._read = None
        self._requests: "dict[str, tuple]" = {}

    def parsed(self):
        """``(PlanFields, model config, request kwargs)``; may raise."""
        if self._read is None:
            fields = parse_plan_payload(self._decoded)
            self._read = (fields, get_model(fields.model),
                          fields.request_kwargs(self.options))
        return self._read

    def request(self, registry, name: str):
        """The :class:`~repro.service.cache.PlanRequest` for ``name``."""
        service = registry.service(name)
        kept = self._requests.get(name)
        if kept is not None and kept[0] is service \
                and kept[1].cluster is service.cluster:
            return kept[1]
        fields, model, kwargs = self.parsed()
        request = service.request(model, fields.global_batch, **kwargs)
        self._requests[name] = (service, request)
        return request


class PlanBodies:
    """The plan front end's memo: a bounded LRU of :class:`PlanBody`.

    Keyed by the body's bytes (or text, on the JSON-lines transport),
    so only a byte-identical repeat is a memo hit.  Used on the event
    loop only, like the rest of a front end.  A body is kept
    once it was answered: a malformed body, a bad field or a refused
    memory limit raises before that, so it is parsed again, and
    refused again, on every ask.  At most
    :data:`MEMO_ENTRIES` bodies are kept, and none longer than
    :data:`MEMO_BODY_BYTES`.
    """

    def __init__(self, options: PipetteOptions) -> None:
        self.options = options
        self._bodies: "OrderedDict[bytes | str, PlanBody]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._bodies)

    def __contains__(self, raw) -> bool:
        return raw in self._bodies

    def read(self, raw, decode) -> PlanBody:
        """The kept body for ``raw``, else a new one from ``decode(raw)``."""
        body = self._bodies.get(raw)
        if body is not None:
            self._bodies.move_to_end(raw)
            return body
        return PlanBody(raw, decode(raw), self.options)

    async def answer(self, gateway: PlanGateway, body: PlanBody):
        """``(GatewayResponse, answer dict)`` for one body; may raise.

        The one plan-answering routine of both transports: the answer
        comes from :func:`answer_payload` and its dict from
        :func:`plan_response_payload`, then the body is kept if it may
        be.
        """
        answer = await answer_payload(gateway, self.options, body)
        raw = body.raw
        if len(raw) <= MEMO_BODY_BYTES and raw not in self._bodies:
            self._bodies[raw] = body
            if len(self._bodies) > MEMO_ENTRIES:
                self._bodies.popitem(last=False)
        return answer, plan_response_payload(answer, body.payload,
                                             registry=gateway.registry)


async def answer_payload(gateway: PlanGateway, options: PipetteOptions,
                         payload):
    """One request -> one GatewayResponse (may raise).

    ``payload`` is a decoded request object, or a :class:`PlanBody`
    read for these ``options``.  The single request-answering routine
    shared by every transport (JSON lines over stdin, HTTP): a request
    pinned to a ``"cluster"`` goes to that lane; an unpinned request is
    fanned concurrently over every cluster and answered with the
    cheapest feasible plan — the one cheapest-feasible path, ranked by
    :func:`~repro.service.registry.cheapest_rank_key` (fitting plans
    first, then latency, then cluster name).  The fan-out takes each
    cluster's hit at once (:meth:`PlanGateway.plan_nowait`) and awaits
    only the clusters that must search, concurrently.  ``"client_id"``
    selects the caller's fair-queue lane on every path.
    """
    if isinstance(payload, PlanBody):
        body = payload
        if body.options is not options:
            raise ValueError("plan body was read for other search options")
    else:
        body = PlanBody(None, payload, options)
    fields = body.parsed()[0]
    registry = gateway.registry
    if fields.cluster is not None:
        return await gateway.plan(body.request(registry, fields.cluster),
                                  cluster=fields.cluster,
                                  client_id=fields.client_id)
    names = registry.names
    if not names:
        raise ValueError("no clusters registered")
    requests = [body.request(registry, n) for n in names]
    answers = [gateway.plan_nowait(request, cluster=n,
                                   client_id=fields.client_id)
               for n, request in zip(names, requests)]
    waiting = [a for a in answers if not isinstance(a, GatewayResponse)]
    if waiting:
        waited = iter(await asyncio.gather(*waiting, return_exceptions=True))
        answers = [a if isinstance(a, GatewayResponse) else next(waited)
                   for a in answers]
    ranked, errors = [], []
    for n, answer in zip(names, answers):
        if isinstance(answer, BaseException):
            errors.append(f"{n}: {answer}")
        elif answer.best is None:
            errors.append(
                f"{n}: {answer.response.error or 'no feasible configuration'}")
        else:
            ranked.append((cheapest_rank_key(answer.best, n), answer))
    if not ranked:
        raise RuntimeError(
            "no cluster can serve the request: " + "; ".join(errors))
    return min(ranked, key=lambda pair: pair[0])[1]


def plan_response_payload(answer, payload: dict, registry=None) -> dict:
    """The answer dict for one GatewayResponse (see :func:`render_answer`).

    ``elapsed_ms`` is this caller's own submit-to-answer time — a
    coalesced follower must not report its leader's full search time.
    With ``"detail": true`` in the request, the plan's
    :class:`~repro.core.configurator.PipetteResult` itself rides along
    under ``"result"``, and :func:`render_answer` writes it as its
    :meth:`~repro.core.configurator.PipetteResult.to_payload`
    document, encoded once per cached plan; that document is what
    makes byte-identity through the transport testable.  When tracing
    is on, the answer additionally carries its ``trace_id``, and
    detail responses embed the request's own span tree under
    ``"timing"`` — the per-request twin of
    ``GET /v1/debug/traces/<id>``, rendered while the trace may still
    be open.  With a ``registry``, detail responses also
    report the answering cluster's elastic template library under
    ``"templates"`` (size, covered node counts, and whether the
    current node count is covered), so a scheduler can see at plan
    time whether a failure on this cluster would recover warm.
    """
    out = {"cluster": answer.cluster_name,
           "status": answer.status,
           "elapsed_ms": round(answer.elapsed_s * 1e3, 3)}
    trace_id = getattr(answer, "trace_id", None)
    if trace_id is not None:
        out["trace_id"] = trace_id
    best = answer.best
    if best is None:
        out["status"] = "error"
        out["error"] = answer.response.error or "no feasible configuration"
    else:
        out["config"] = best.config.describe()
        out["schedule"] = best.config.schedule
        out["latency_s"] = best.estimated_latency_s
        if best.estimated_memory_bytes is not None:
            out["memory_gib"] = round(best.estimated_memory_bytes / GIB, 3)
        # parse_plan_payload admits only a JSON bool (or null) here.
        if payload.get("detail") is True and answer.result is not None:
            out["result"] = answer.result
            if registry is not None:
                try:
                    service = registry.service(answer.cluster_name)
                except ValueError:
                    service = None
                if service is not None:
                    library = service.template_library
                    covered = [] if library is None else \
                        sorted(library.covered_counts)
                    out["templates"] = {
                        "library_size":
                            0 if library is None else library.size,
                        "covered_counts": covered,
                        "covers_cluster":
                            service.cluster.n_nodes in covered,
                    }
            if trace_id is not None:
                timing = TRACER.trace(trace_id)
                if timing is not None:
                    out["timing"] = timing
    return out


def render_answer(out: dict) -> str:
    """``json.dumps(out, sort_keys=True)`` for one answer dict.

    A :class:`~repro.core.configurator.PipetteResult` under
    ``"result"`` is written as its :meth:`payload_json
    <repro.core.configurator.PipetteResult.payload_json>` text, spliced
    in verbatim: the same bytes ``json.dumps`` renders for its
    ``to_payload()`` document, without rebuilding or re-encoding the
    document on every detail answer.  Every other value is encoded
    per answer, so ``elapsed_ms``, ``trace_id``, ``timing`` and an
    echoed ``"id"`` stay per delivery.
    """
    result = out.get("result")
    if not isinstance(result, PipetteResult):
        return _ENCODER.encode(out)
    return "{" + ", ".join(
        f"{_ENCODER.encode(key)}: "
        + (result.payload_json() if key == "result"
           else _ENCODER.encode(out[key]))
        for key in sorted(out)) + "}"


# ----------------------------------------------------------- HTTP parsing


async def _read_request(reader: asyncio.StreamReader, max_body: int):
    """Parse one request off the stream.

    Returns ``(method, path, version, headers, body)`` or ``None`` on
    a clean EOF between requests; raises :class:`HttpError` for
    malformed or over-limit input and lets connection-level failures
    (``IncompleteReadError``, resets) propagate to the caller.
    """
    try:
        request_line = await reader.readline()
    except (asyncio.LimitOverrunError, ValueError) as exc:
        raise HttpError(400, f"unreadable request line ({exc})") from None
    if not request_line:
        return None
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise HttpError(400, "malformed request line")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise HttpError(505, f"unsupported protocol {version}")
    headers: "dict[str, str]" = {}
    header_lines = 0
    while True:
        try:
            line = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError) as exc:
            raise HttpError(431, f"unreadable header line ({exc})") from None
        if line in (b"\r\n", b"\n", b""):
            break
        # Count header *lines*, not dict entries: duplicate names
        # overwrite one key, and the cap must bound what a client can
        # make us read, not what we happen to keep.
        header_lines += 1
        if header_lines > 100:
            raise HttpError(431, "too many header fields")
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {name.strip()!r}")
        headers[name.strip().lower()] = value.strip()
    if "transfer-encoding" in headers:
        raise HttpError(501, "chunked request bodies are not supported; "
                             "send Content-Length")
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise HttpError(400, "malformed Content-Length") from None
    if length < 0:
        raise HttpError(400, "negative Content-Length")
    if length > max_body:
        raise HttpError(413, f"request body of {length} bytes exceeds "
                             f"the {max_body}-byte limit")
    body = await reader.readexactly(length) if length else b""
    return method.upper(), target.split("?", 1)[0], version, headers, body


def _keep_alive(version: str, headers: "dict[str, str]") -> bool:
    connection = headers.get("connection", "").lower()
    if version == "HTTP/1.0":
        return connection == "keep-alive"
    return connection != "close"


def _write_response(writer: asyncio.StreamWriter, status: int, body: bytes,
                    content_type: str, keep_alive: bool,
                    allow: str | None = None,
                    extra_headers: "dict[str, str] | None" = None) -> None:
    head = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}"]
    if allow is not None:
        head.append(f"Allow: {allow}")
    for name, value in (extra_headers or {}).items():
        head.append(f"{name}: {value}")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)


def _json_body(out: dict) -> bytes:
    return render_answer(out).encode("utf-8")


def _link_table(value, name: str) -> "tuple[np.ndarray, np.ndarray]":
    """A square JSON array of arrays of numbers, and its link mask.

    Returns the float matrix and the boolean mask of its off-diagonal
    entries (the GPU pairs that are links).  Entries follow
    :func:`~repro.service.cache.payload_number`; ranges are the
    caller's rules.
    """
    if not isinstance(value, list) \
            or not all(isinstance(row, list) and len(row) == len(value)
                       for row in value):
        raise ValueError(f"{name} must be a square array of arrays of "
                         f"numbers")
    table = np.array([[payload_number(x, f"{name} entry") for x in row]
                      for row in value], dtype=float).reshape(
                          len(value), len(value))
    return table, ~np.eye(len(value), dtype=bool)


# ------------------------------------------------------------ the servers


def _error_body(message: str) -> bytes:
    return _json_body({"status": "error", "error": message})


class HttpServerBase:
    """The one HTTP/1.1 server loop, shared by every server process.

    Args:
        routes: ``(method, path) -> handler``.  A handler is a
            coroutine function taking the request body and returning
            ``(status, content type, body bytes)``.  A path ending in
            ``{id}`` matches every path with that prefix, and the rest
            of the path is passed to the handler as a second argument.
        counter: ``(name, help)`` of the per-request counter, labelled
            by method, route template, and status code.
        metrics: registry the counter lives on; created fresh (and
            reachable via :attr:`metrics`) when ``None``.
        max_body_bytes: request-body cap (``413`` beyond it).

    Instances are handed to :func:`asyncio.start_server` via
    :meth:`handle`; :meth:`drain` is the graceful-shutdown half.
    """

    #: Paths whose requests are never traced: scrapes and debug reads
    #: would bury the plan traces they exist to observe.
    _UNTRACED = ("/metrics", "/healthz", "/v1/debug")

    def __init__(self, routes: dict, counter: "tuple[str, str]",
                 metrics: MetricsRegistry | None = None,
                 max_body_bytes: int = MAX_BODY_BYTES) -> None:
        if max_body_bytes < 1:
            raise ValueError(
                f"max_body_bytes must be >= 1, got {max_body_bytes}")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.max_body_bytes = int(max_body_bytes)
        # path template -> {method: handler}, in route-table order.
        self._routes: "dict[str, dict]" = {}
        for (method, path), handler in routes.items():
            self._routes.setdefault(path, {})[method] = handler
        self._prefixes = [(path, path[:-len("{id}")])
                          for path in self._routes if path.endswith("{id}")]
        name, help_text = counter
        self._requests = self.metrics.counter(
            name, help_text, ("method", "route", "code"))
        # Live connections (handler task -> writer) and the subset
        # currently serving a request, for graceful drain: idle
        # keep-alive connections can be closed outright, busy ones get
        # to finish their in-flight request first.
        self._connections: "dict[asyncio.Task, asyncio.StreamWriter]" = {}
        self._busy: "set[asyncio.Task]" = set()
        self._draining = False

    # ------------------------------------------------------- connection

    async def handle(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        """Serve one client connection (the start_server callback)."""
        task = asyncio.current_task()
        if task is not None:
            self._connections[task] = writer
        try:
            while True:
                try:
                    parsed = await _read_request(reader, self.max_body_bytes)
                except HttpError as exc:
                    # The offending request (and any half-read body)
                    # cannot be trusted as a frame boundary: answer
                    # and close instead of resynchronizing.
                    self._count("-", "unmatched", exc.status)
                    _write_response(writer, exc.status,
                                    _error_body(exc.message), _JSON,
                                    keep_alive=False)
                    await writer.drain()
                    break
                except asyncio.IncompleteReadError:
                    break
                if parsed is None:
                    break
                if task is not None:
                    self._busy.add(task)
                method, path, version, headers, body = parsed
                keep_alive = _keep_alive(version, headers)
                span = self._request_span(method, path, headers)
                token = TRACER.activate(span) if span.recording else None
                t0 = time.monotonic()
                try:
                    status, content_type, out, route, allow = \
                        await self._dispatch(method, path, body)
                    # Logged while the span is still active so the
                    # record carries this request's trace/span ids.
                    if _log.isEnabledFor(logging.DEBUG):
                        _log.debug("request", extra={
                            "method": method, "route": route,
                            "code": status, "duration_ms":
                                round((time.monotonic() - t0) * 1000, 3)})
                finally:
                    if token is not None:
                        TRACER.deactivate(token)
                extra = None
                if span.recording:
                    # The response names *this server's* root span, so
                    # an upstream caller's trace links to our spans.
                    extra = {"traceparent": format_traceparent(span)}
                    span.set_attribute("status", status)
                span.end()
                self._count(method, route, status)
                # A draining server answers what it already accepted
                # but refuses to keep the connection for more.
                keep_alive = keep_alive and not self._draining
                _write_response(writer, status, out, content_type,
                                keep_alive, allow=allow,
                                extra_headers=extra)
                await writer.drain()
                if task is not None:
                    self._busy.discard(task)
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, TimeoutError):
            pass  # client went away; nothing left to answer
        finally:
            if task is not None:
                self._busy.discard(task)
                self._connections.pop(task, None)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def drain(self, poll_s: float = 0.05) -> None:
        """Finish in-flight requests, then close every connection.

        The graceful-shutdown half of the server (the caller closes
        the listener first, so no *new* connections arrive): in-flight
        requests run to completion and get complete responses (with
        ``Connection: close``), while idle keep-alive connections are
        closed outright — a client parked between requests must not
        hold the shutdown hostage.  Returns once no connection is
        left; bound it with :func:`asyncio.wait_for` to force exit.
        """
        self._draining = True
        while self._connections:
            for conn_task, conn_writer in list(self._connections.items()):
                if conn_task not in self._busy:
                    conn_writer.close()
            await asyncio.wait(set(self._connections), timeout=poll_s)

    def _count(self, method: str, route: str, status: int) -> None:
        self._requests.labels(method=method, route=route,
                              code=str(status)).inc()

    def _request_span(self, method: str, path: str,
                      headers: "dict[str, str]"):
        """The root span of one request (or the null span).

        Honors an incoming W3C ``traceparent`` header, so this
        request's spans join the remote caller's trace instead of
        starting a fresh one.
        """
        if not TRACER.enabled \
                or any(path.startswith(p) for p in self._UNTRACED):
            return NULL_SPAN
        remote = None
        header = headers.get("traceparent")
        if header is not None:
            remote = parse_traceparent(header)
        return TRACER.start_span("http.request", remote=remote,
                                 method=method, path=path)

    # --------------------------------------------------------- dispatch

    def _match(self, path: str):
        """``(route template, {method: handler}, path args)`` for ``path``.

        The template (or ``"unmatched"``) is what the request counter
        is labelled with, so its cardinality stays bounded no matter
        what paths clients probe: a ``{id}`` route counts under its
        template, never per id.
        """
        handlers = self._routes.get(path)
        if handlers is not None:
            return path, handlers, ()
        for template, prefix in self._prefixes:
            if path.startswith(prefix):
                return template, self._routes[template], \
                    (path[len(prefix):],)
        return "unmatched", None, ()

    async def _dispatch(self, method: str, path: str, body: bytes):
        """Route one request -> (status, content type, body, route, allow)."""
        route, handlers, args = self._match(path)
        if handlers is None:
            return (404, _JSON,
                    _error_body(f"unknown route {path}; serving "
                                f"{', '.join(self._routes)}"),
                    route, None)
        handler = handlers.get(method)
        if handler is None:
            allowed = ", ".join(sorted(handlers))
            return (405, _JSON,
                    _error_body(f"{method} is not allowed on {path}"),
                    route, allowed)
        try:
            status, content_type, out = await handler(body, *args)
        except HttpError as exc:
            status, content_type, out = exc.status, _JSON, \
                _error_body(exc.message)
        except GatewayOverloadedError as exc:
            status, content_type, out = 503, _JSON, _error_body(str(exc))
        except (ValueError, TypeError, KeyError, RuntimeError,
                json.JSONDecodeError) as exc:
            # Bad operands (unknown model/cluster, wrongly-typed
            # fields, no feasible cluster) are the caller's problem.
            status, content_type, out = 400, _JSON, _error_body(str(exc))
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 — the 500 boundary
            status, content_type, out = 500, _JSON, \
                _error_body(f"internal error: {exc}")
        return status, content_type, out, route, None

    @staticmethod
    def _json_payload(body: bytes) -> dict:
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as exc:
            raise HttpError(400, f"request body is not JSON: {exc}") \
                from None
        if not isinstance(payload, dict):
            raise HttpError(400, "request body must be a JSON object")
        return payload


class HttpPlanServer(HttpServerBase):
    """The worker's HTTP front end: plan, event, and debug routes.

    Args:
        gateway: the (already entered) gateway to answer through.
        options: search options applied to every request, like the
            stdin JSON-lines mode.
        metrics: registry rendered by ``GET /metrics``; created fresh
            (and then reachable via :attr:`metrics`) when ``None``.
            Pass the registry the gateway and cluster registry are
            attached to, or the page will only show HTTP series.
        max_body_bytes: request-body cap (``413`` beyond it).
        warmers: per-cluster
            :class:`~repro.service.warmer.TemplateWarmer`\\ s backing
            ``POST /v1/templates/warm`` — pass store-backed warmers to
            persist warmed libraries; clusters without one get an
            ephemeral in-memory warmer on first use.

    See ``cmd_serve`` in ``repro.service.__main__`` for the wiring, or
    ``tests/test_service_http.py`` for a minimal in-process setup.
    """

    def __init__(self, gateway: PlanGateway, options: PipetteOptions,
                 metrics: MetricsRegistry | None = None,
                 max_body_bytes: int = MAX_BODY_BYTES,
                 warmers: "dict[str, TemplateWarmer] | None" = None) -> None:
        super().__init__(
            {("POST", "/v1/plan"): self._plan,
             ("POST", "/v1/events/bandwidth"): self._event_bandwidth,
             ("POST", "/v1/events/failure"): self._event_failure,
             ("POST", "/v1/templates/warm"): self._templates_warm,
             ("GET", "/healthz"): self._healthz,
             ("GET", "/metrics"): self._metrics_page,
             ("GET", "/v1/debug/traces"): self._traces_index,
             ("GET", "/v1/debug/traces/{id}"): self._trace_detail},
            ("pipette_http_requests_total",
             "HTTP requests served, by method, route, and status code."),
            metrics=metrics, max_body_bytes=max_body_bytes)
        self.gateway = gateway
        self.options = options
        self.bodies = PlanBodies(options)
        self._warmers: "dict[str, TemplateWarmer]" = dict(warmers or {})
        self._started_monotonic = time.monotonic()
        self._plans_by_schedule = self.metrics.counter(
            "pipette_plans_by_schedule_total",
            "Plans answered over HTTP, by cluster and the chosen "
            "pipeline schedule.",
            ("cluster", "schedule"))

    # ----------------------------------------------------------- routes

    async def _plan(self, body: bytes):
        plan = self.bodies.read(body, self._json_payload)
        answer, out = await self.bodies.answer(self.gateway, plan)
        if answer.best is not None:
            self._plans_by_schedule.labels(
                cluster=answer.cluster_name,
                schedule=answer.best.config.schedule).inc()
        if "id" in plan.payload:
            out["id"] = plan.payload["id"]
        return 200, _JSON, _json_body(out)

    async def _event_bandwidth(self, body: bytes):
        # Every field is read and checked here, before the event takes
        # the lane fence: a refused event changes nothing.
        payload = self._json_payload(body)
        name = self._cluster_name(payload)
        service = self.gateway.registry.service(name)
        if "matrix" in payload:
            matrix, links = _link_table(payload["matrix"], "matrix")
            if not (np.isfinite(matrix[links]).all()
                    and (matrix[links] > 0).all()):
                raise HttpError(400, "matrix bandwidths off the diagonal "
                                     "must be finite and > 0 GB/s")
            # The diagonal is not a link, but group minima read it:
            # +inf bandwidth and zero latency, as a Fabric builds it.
            np.fill_diagonal(matrix, np.inf)
            if payload.get("alpha") is None:
                alpha = service.bandwidth.alpha.copy()
            else:
                alpha, links = _link_table(payload["alpha"], "alpha")
                if not (np.isfinite(alpha[links]).all()
                        and (alpha[links] >= 0).all()):
                    raise HttpError(400, "alpha latencies off the diagonal "
                                         "must be finite and >= 0 s")
                np.fill_diagonal(alpha, 0.0)
            new = BandwidthMatrix(matrix=matrix, alpha=alpha)
        elif "scale" in payload:
            factor = payload_number(payload["scale"], "scale")
            if not (math.isfinite(factor) and factor > 0):
                raise HttpError(400, "scale must be a finite number > 0, "
                                     f"got {factor}")
            matrix = service.bandwidth.matrix.copy()
            finite = np.isfinite(matrix)
            matrix[finite] *= factor
            new = BandwidthMatrix(matrix=matrix,
                                  alpha=service.bandwidth.alpha.copy())
        else:
            raise HttpError(400, "bandwidth event needs a full 'matrix' "
                                 "(GB/s) or a 'scale' factor")
        kwargs = {}
        if payload.get("drift_threshold") is not None:
            threshold = payload_number(payload["drift_threshold"],
                                       "drift_threshold")
            # NaN compares false against everything, so it would turn
            # drift detection off without a word.
            if not (math.isfinite(threshold) and threshold >= 0):
                raise HttpError(400, "drift_threshold must be a finite "
                                     f"number >= 0, got {threshold}")
            kwargs["drift_threshold"] = threshold
        epoch_before = service.bandwidth_fp
        retired = await self.gateway.update_bandwidth(name, new, **kwargs)
        # Adoption is an epoch roll, nothing else: a sub-threshold
        # re-profile is discarded as measurement wiggle (retired == 0
        # AND the fingerprint stayed put), while an adopted matrix
        # over an empty cache also retires nothing but *does* roll.
        return 200, _JSON, _json_body(
            {"cluster": name, "retired": retired,
             "adopted": service.bandwidth_fp != epoch_before,
             "epoch": service.bandwidth_fp})

    async def _event_failure(self, body: bytes):
        payload = self._json_payload(body)
        name = self._cluster_name(payload)
        nodes = payload.get("nodes")
        if not isinstance(nodes, list):
            nodes = [] if nodes is None else [nodes]
        if not nodes:
            raise HttpError(400, "failure event needs 'nodes' "
                                 "(a node index or a non-empty list)")
        # Refused before the event takes the lane fence: no node failed.
        failed = [payload_int(n, "nodes entry") for n in nodes]
        retired = await self.gateway.fail_nodes(name, *failed)
        service = self.gateway.registry.service(name)
        return 200, _JSON, _json_body(
            {"cluster": name, "failed_nodes": failed, "retired": retired,
             "surviving_nodes": service.cluster.n_nodes,
             "epoch": service.bandwidth_fp})

    async def _templates_warm(self, body: bytes):
        """Fill one cluster's elastic template library.

        Synchronous by default: the request returns once the library
        is generated, installed, and (with a store-backed warmer)
        persisted — generation runs on an executor thread, so the
        event loop keeps serving plans meanwhile.  ``"wait": false``
        instead kicks the cluster's background
        :class:`~repro.service.warmer.TemplateWarmer` and answers
        ``202`` immediately; a second warm-up while one is in flight
        answers ``400`` (the warmer refuses to race two generations).
        """
        payload = self._json_payload(body)
        fields = parse_plan_payload(payload)
        name = fields.cluster
        if name is None:
            raise HttpError(400, "template warm-up needs a 'cluster' name")
        service = self.gateway.registry.service(name)
        model = get_model(fields.model)
        global_batch = fields.global_batch
        kwargs = fields.request_kwargs(self.options)
        for key in ("min_nodes", "max_nodes", "templates_per_count"):
            if payload.get(key) is not None:
                kwargs[key] = payload_int(payload[key], key)
        wait = payload.get("wait")
        if wait is not None and not isinstance(wait, bool):
            raise HttpError(400, f"wait must be true or false, got {wait!r}")
        warmer = self._warmers.get(name)
        if warmer is None:
            warmer = TemplateWarmer(service)
            self._warmers[name] = warmer
        if wait is False:
            warmer.start(model, global_batch, **kwargs)
            return 202, _JSON, _json_body(
                {"cluster": name, "status": "warming",
                 "model": model.name, "global_batch": global_batch})
        t0 = time.monotonic()
        library = await asyncio.get_running_loop().run_in_executor(
            None, partial(warmer.warm, model, global_batch, **kwargs))
        return 200, _JSON, _json_body(
            {"cluster": name, "status": "ok",
             "model": library.model_name,
             "global_batch": library.global_batch,
             "templates": library.size,
             "covered_counts": sorted(library.covered_counts),
             "infeasible": {str(n): reason for n, reason
                            in sorted(library.infeasible.items())},
             "elapsed_ms": round((time.monotonic() - t0) * 1000, 3)})

    def _cluster_name(self, payload: dict) -> str:
        name = payload.get("cluster")
        if name is None:
            raise HttpError(400, "event needs a 'cluster' name")
        if not isinstance(name, str):
            raise HttpError(400, f"cluster must be a string, got {name!r}")
        return name

    async def _healthz(self, body: bytes):
        # A liveness probe must answer while every executor thread is
        # deep in a cache-miss search: nothing here may take a lock a
        # drain holds across searches (the template-library read is
        # lock-free for exactly this reason; the stats snapshot and
        # store-path reads hold only briefly-held locks).
        counters = self.gateway.stats.snapshot()
        stores = {}
        templates = {}
        for name in self.gateway.registry.names:
            service = self.gateway.registry.service(name)
            store = getattr(service.cache, "store", None)
            stores[name] = str(store.path) if store is not None else None
            library = service.template_library
            templates[name] = 0 if library is None else library.size
        return 200, _JSON, _json_body(
            {"status": "draining" if self._draining else "ok",
             "version": repro.__version__,
             "uptime_s": round(time.monotonic() - self._started_monotonic, 3),
             "clusters": self.gateway.registry.names,
             "stores": stores,
             "templates": templates,
             "tracing": TRACER.enabled,
             "submitted": counters["submitted"],
             "coalesced": counters["coalesced"],
             "rejected": counters["rejected"]})

    async def _metrics_page(self, body: bytes):
        return (200, MetricsRegistry.CONTENT_TYPE,
                self.metrics.render().encode("utf-8"))

    async def _traces_index(self, body: bytes):
        return 200, _JSON, _json_body(
            {"enabled": TRACER.enabled, "traces": TRACER.traces()})

    async def _trace_detail(self, body: bytes, trace_id: str):
        tree = TRACER.trace(trace_id)
        if tree is None:
            return (404, _JSON,
                    _error_body(f"no trace {trace_id!r}; see "
                                "GET /v1/debug/traces for the retained "
                                "ids"))
        return 200, _JSON, _json_body(tree)

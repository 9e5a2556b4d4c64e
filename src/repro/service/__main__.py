"""Command-line front door of the planning service.

Eight subcommands, each a small end-to-end story on a simulated
cluster (swap the simulated fabric for a real profiling campaign to
use them against physical machines):

* ``plan``     — answer one planning request and print the ranking;
* ``demo``     — answer a repeated workload, showing caching and
  (optionally) parallel search;
* ``replan``   — fail a node and compare warm-started re-planning with
  the cold search;
* ``registry`` — serve several named clusters at once: per-cluster
  answers, the cheapest feasible one, per-cluster failure isolation;
* ``serve``    — run the async gateway as a long-lived server: JSON
  lines on stdin/stdout by default, or an HTTP/1.1 front end
  (``--http PORT``) with ``POST /v1/plan``, elastic-event routes,
  ``GET /healthz``, and a Prometheus ``GET /metrics`` page — with
  in-flight coalescing, per-cluster backpressure, and weighted-fair
  per-client lanes either way (see ``docs/SERVING.md``).
  ``--log-level`` selects the stderr JSON log threshold;
  ``--trace``/``--trace-dir`` turn on end-to-end plan tracing (``GET
  /v1/debug/traces``, span dump files — see
  ``docs/OBSERVABILITY.md``).  Over HTTP, SIGTERM/SIGINT drain
  gracefully: stop accepting, finish in-flight plans, compact the
  durable stores, exit 0.
  ``--shard-index`` names this process's durable shard segments
  (``<cluster>.shard-<k>.jsonl``) — normally set by ``fleet``, not by
  hand;
* ``fleet``    — run ``--workers N`` ``serve`` processes behind one
  consistent-hash router: same plan question always lands on the same
  worker (so per-shard caches and coalescing keep working), elastic
  events fan to all workers, ``/metrics`` aggregates the fleet onto
  one page, crashed workers are restarted over their shard stores,
  and ``--quota-rate`` enforces per-``client_id`` admission at the
  front door;
* ``trace``    — pretty-print a span dump written by
  ``serve --trace-dir`` as indented per-trace timing trees;
* ``templates`` — generate, inspect, or background-warm an elastic
  pipeline-template library (``--library FILE`` persists it; ``serve
  --store-dir`` rehydrates per-cluster libraries at startup and
  exposes ``POST /v1/templates/warm``).

``--store-path`` (or the registry's ``--store-dir``) makes the plan
cache durable: re-running the same command answers previously planned
requests as cache hits, across process restarts.

Run ``python -m repro.service <subcommand> --help`` for knobs, or use
the ``pipette-plan`` console script installed by the package.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import itertools
import json
import os
import signal
import sys
from functools import partial

from repro.cluster import NetworkProfiler, make_fabric
from repro.cluster.presets import high_end_cluster, mid_range_cluster
from repro.core import PipetteOptions, SAOptions
from repro.model import MODEL_CATALOG, get_model
from repro.obs import TRACER, configure_logging, get_logger
from repro.service.cache import PlanRequest
from repro.service.executor import CandidateExecutor, available_workers
from repro.service.fleet import (
    AdmissionController,
    FleetRouter,
    FleetSupervisor,
    WorkerClient,
)
from repro.service.gateway import PlanGateway
from repro.service.http import HttpPlanServer, PlanBodies, render_answer
from repro.service.metrics import MetricsRegistry
from repro.service.planner import PlanningService
from repro.sim.schedule import registered_schedules
from repro.service.registry import ClusterRegistry, cheapest_rank_key
from repro.service.replan import ClusterEvent
from repro.service.shard import shard_segment_path
from repro.service.store import DurablePlanCache, PlanStoreError, \
    TemplateStore
from repro.service.warmer import TemplateWarmer
from repro.units import GIB

PRESETS = {"mid-range": mid_range_cluster, "high-end": high_end_cluster}


def _executor_width(text: str) -> int:
    """An executor width operand: 0 (serial), -1 (every usable CPU) or
    a pool size; parsing refuses anything below -1."""
    try:
        width = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if width < -1:
        raise argparse.ArgumentTypeError(
            f"must be >= -1 (-1 = all usable CPUs), got {width}")
    return width


def _executor(args) -> CandidateExecutor | None:
    if args.workers == 0:
        return None
    return CandidateExecutor(
        max_workers=args.workers if args.workers > 0 else None)


def _durable_cache(path: str | None) -> DurablePlanCache | None:
    if path is None:
        return None
    cache = DurablePlanCache(path)
    print(f"store: {path} ({cache.rehydrated} plans rehydrated)")
    return cache


def _build_service(args) -> PlanningService:
    cluster = PRESETS[args.cluster](n_nodes=args.nodes)
    fabric = make_fabric(cluster, seed=args.seed)
    network = NetworkProfiler().profile(fabric, seed=args.seed)
    executor = _executor(args)
    print(f"cluster: {cluster.description or cluster.name} "
          f"({cluster.n_nodes} nodes x {cluster.gpus_per_node} GPUs)")
    if executor is not None:
        print(f"executor: process pool, {executor.n_workers} workers")
    return PlanningService(cluster, network.bandwidth, executor=executor,
                           cache=_durable_cache(args.store_path),
                           profile_seed=args.seed)


def _options(args) -> PipetteOptions:
    return PipetteOptions(
        use_worker_dedication=not args.no_dedication,
        sa=SAOptions(max_iterations=args.sa_iterations,
                     portfolio_k=args.portfolio_k),
        seed=args.seed,
    )


def _print_plan(response) -> None:
    result = response.result
    print(f"[{response.status}] {len(result.ranked)} feasible, "
          f"{result.rejected_oom} rejected OOM, "
          f"{response.elapsed_s * 1e3:.1f} ms")
    for rank, entry in enumerate(result.ranked[:5]):
        mem = "" if entry.estimated_memory_bytes is None else \
            f", {entry.estimated_memory_bytes / GIB:5.1f} GiB/GPU"
        print(f"  #{rank + 1} {entry.config.describe():<24} "
              f"{entry.estimated_latency_s:7.3f} s/iter{mem}")


def cmd_plan(args) -> int:
    """Answer one planning request and print the top of the ranking."""
    options = _options(args)
    service = _build_service(args)
    model = get_model(args.model)
    print(f"model:   {model.name}, global batch {args.global_batch}\n")
    kwargs = {}
    if args.schedule:
        kwargs["schedules"] = tuple(args.schedule)
    response = service.plan(service.request(
        model, args.global_batch, options=options, **kwargs))
    _print_plan(response)
    if response.best is not None:
        print(f"\nschedule: {response.best.config.schedule}")
    return 0 if response.best is not None else 1


def cmd_demo(args) -> int:
    """Answer a repeated workload (cache showcase)."""
    options = _options(args)
    service = _build_service(args)
    models = [get_model(name) for name in args.models]
    print(f"workload: {args.repeats} rounds over "
          f"{[m.name for m in models]}, batch {args.global_batch}\n")

    # Each round re-asks every model, so round one pays the searches
    # and the rest ride the cache.
    for _ in range(args.repeats):
        for model in models:
            response = service.plan(service.request(
                model, args.global_batch, options=options))
            best = response.best
            print(f"  [{response.status:<4}] {best.config.describe():<24} "
                  f"{best.estimated_latency_s:7.3f} s/iter  "
                  f"({response.elapsed_s * 1e3:8.2f} ms)")
    print("\nservice stats:")
    for key, value in service.stats.items():
        print(f"  {key}: {value}")
    return 0


def cmd_replan(args) -> int:
    """Fail a node and compare warm-started re-planning with cold."""
    service = _build_service(args)
    model = get_model(args.model)
    print(f"model:   {model.name}, global batch {args.global_batch}\n")
    request = service.request(model, args.global_batch,
                              options=_options(args))
    report = service.replan(request, ClusterEvent.node_failure(args.fail_node))
    prev = report.previous
    print(f"before failure: {prev.config.describe():<24} "
          f"{prev.estimated_latency_s:7.3f} s/iter")
    print(f"node {args.fail_node} failed -> "
          f"{report.cluster.n_nodes} nodes remain\n")
    print(f"warm re-plan:   {report.warm.config.describe():<24} "
          f"{report.warm.estimated_latency_s:7.3f} s/iter "
          f"in {report.warm_search_s:6.2f} s "
          f"(warm start was {report.warm_start_latency_s:.3f}, "
          f"source {report.warm_source})")
    print(f"cold search:    {report.cold.config.describe():<24} "
          f"{report.cold.estimated_latency_s:7.3f} s/iter "
          f"in {report.cold_search_s:6.2f} s")
    print(f"\nwarm vs cold latency: {report.latency_gap * 100:+.2f}%   "
          f"search speedup: {report.search_speedup:.1f}x")
    return 0


def _parse_cluster_arg(entry: str, index: int):
    """One ``preset:nodes`` CLI entry -> (name, preset fn, node count)."""
    preset, _, nodes = entry.partition(":")
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; "
                         f"choose from {sorted(PRESETS)}")
    try:
        n_nodes = int(nodes) if nodes else 4
    except ValueError:
        raise ValueError(f"bad node count in {entry!r}") from None
    return f"{preset}-{index}", PRESETS[preset], n_nodes


def _build_registry(args) -> ClusterRegistry:
    registry = ClusterRegistry(executor=_executor(args))
    for index, entry in enumerate(args.clusters):
        name, preset, n_nodes = _parse_cluster_arg(entry, index)
        cluster = preset(n_nodes=n_nodes)
        seed = args.seed + index
        network = NetworkProfiler().profile(make_fabric(cluster, seed=seed),
                                            seed=seed)
        cache = None
        if args.store_dir is not None:
            # Under a fleet each worker owns per-shard segments
            # (<name>.shard-<k>.jsonl) in the shared directory; a
            # standalone server keeps the plain <name>.jsonl path.
            cache = _durable_cache(shard_segment_path(
                args.store_dir, name, getattr(args, "shard_index", None)))
        registry.add_cluster(name, cluster, network.bandwidth, cache=cache,
                             profile_seed=seed)
        print(f"registered {name}: {cluster.n_nodes} nodes x "
              f"{cluster.gpus_per_node} GPUs")
    return registry


def _plan_every_cluster(registry: ClusterRegistry, model, global_batch: int,
                        options: PipetteOptions):
    """Ask every cluster, print each answer, return the cheapest.

    The pick ranks the printed answers by
    :func:`~repro.service.registry.cheapest_rank_key`, the same order
    the servers' unpinned requests use.  Returns ``(name, best)``.
    """
    ranked = []
    for name in registry.names:
        service = registry.service(name)
        response = service.plan(service.request(model, global_batch,
                                                options=options))
        best = response.best
        print(f"  [{response.status:<4}] {name:<14} "
              f"{best.config.describe():<24} "
              f"{best.estimated_latency_s:7.3f} s/iter")
        ranked.append((cheapest_rank_key(best, name), name, best))
    _, name, best = min(ranked)
    return name, best


def cmd_registry(args) -> int:
    """Serve several named clusters: routing and failure isolation."""
    registry = _build_registry(args)
    options = _options(args)
    model = get_model(args.model)
    print(f"\nmodel: {model.name}, global batch {args.global_batch}\n")

    name, best = _plan_every_cluster(registry, model, args.global_batch,
                                     options)
    print(f"\ncheapest feasible: {name} "
          f"({best.config.describe()}, "
          f"{best.estimated_latency_s:.3f} s/iter)")

    if args.fail_node is not None:
        # Destructive by design: the victim's cache (and durable
        # store, if any) is cleared, so this step is opt-in — a
        # --store-dir re-run without it keeps answering [hit].
        victim = registry.names[0]
        retired = registry.service(victim).apply_failure(args.fail_node)
        print(f"\nnode {args.fail_node} failed on {victim}: "
              f"{retired} cached plans retired; siblings untouched\n")
        name, best = _plan_every_cluster(registry, model, args.global_batch,
                                         options)
        print(f"\ncheapest now: {name} "
              f"({best.config.describe()}, "
              f"{best.estimated_latency_s:.3f} s/iter)")

    print("\nregistry stats:")
    for name, stats in registry.stats.items():
        print(f"  {name}: entries={stats['cache_entries']} "
              f"hits={stats['cache_hits']} misses={stats['cache_misses']}")
    return 0


def _line_payload(line: str) -> dict:
    payload = json.loads(line)
    if not isinstance(payload, dict):
        raise ValueError("each request line must be a JSON object")
    return payload


async def _handle_line(gateway: PlanGateway, bodies: PlanBodies,
                       line: str, default_id, write_line) -> None:
    """One JSON-lines request -> one answer line, errors included.

    The answering itself (routing, cheapest-feasible fan-out,
    ``client_id`` fairness, the memo of repeated lines) is shared with
    the HTTP front end via :meth:`repro.service.http.PlanBodies.answer`.
    """
    rid = default_id
    try:
        body = bodies.read(line, _line_payload)
        rid = body.payload.get("id", default_id)
        # The answer dict reports this caller's own submit-to-answer
        # time — a coalesced follower must not report its leader's
        # full search time.
        _, out = await bodies.answer(gateway, body)
        out["id"] = rid
    except (ValueError, TypeError, RuntimeError, KeyError,
            json.JSONDecodeError) as exc:
        # Whatever a request line carries, it must answer as an error
        # line, never vanish.
        out = {"id": rid, "status": "error", "error": str(exc)}
    await write_line(render_answer(out))


async def _serve_stream(gateway: PlanGateway, options: PipetteOptions,
                        read_line, write_line) -> None:
    """Pump request lines until EOF; answers land as they finish.

    A reader failure (an unreadable line) must not abandon in-flight
    handlers: the started tasks are always gathered
    so every accepted request gets its answer attempt before the
    stream winds down.
    """
    counter = itertools.count(1)
    bodies = PlanBodies(options)
    # Completed handlers remove themselves: a long-lived stream
    # serves unboundedly many requests, so finished tasks must not
    # accumulate for the stream's whole lifetime.
    tasks: "set[asyncio.Task]" = set()
    try:
        while True:
            try:
                line = await read_line()
            except (asyncio.LimitOverrunError, ValueError) as exc:
                await write_line(json.dumps(
                    {"status": "error",
                     "error": f"unreadable request line ({exc})"},
                    sort_keys=True))
                break
            if not line:
                break
            line = line.strip()
            if not line:
                continue
            task = asyncio.ensure_future(_handle_line(
                gateway, bodies, line, next(counter), write_line))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
    finally:
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)


def _parse_client_weights(entries) -> dict:
    """``NAME=WEIGHT`` CLI entries -> fair-lane weight table."""
    weights = {}
    for entry in entries or ():
        name, sep, weight = entry.partition("=")
        if not sep or not name:
            raise ValueError(f"bad client weight {entry!r}; "
                             "expected NAME=WEIGHT")
        try:
            weights[name] = int(weight)
        except ValueError:
            raise ValueError(f"bad client weight {entry!r}; "
                             f"{weight!r} is not an integer") from None
    return weights


def _build_warmers(args, registry: ClusterRegistry
                   ) -> "dict[str, TemplateWarmer]":
    """Per-cluster template warmers; store-backed under ``--store-dir``.

    With a store directory each cluster gets a durable
    ``<name>.templates.json`` library that is rehydrated here, so a
    restarted server recovers failures warm before any warm-up runs.

    Template libraries are *not* sharded: every fleet worker answers
    every cluster, so all shards share one library file read-only and
    only shard 0 (or a standalone server) writes it — concurrent
    workers saving the same path would race.
    """
    read_only = getattr(args, "shard_index", None) not in (None, 0)
    warmers = {}
    for name in registry.names:
        store = None
        if args.store_dir is not None:
            store = TemplateStore(os.path.join(args.store_dir,
                                               f"{name}.templates.json"))
        warmer = TemplateWarmer(registry.service(name),
                                store=None if read_only else store)
        if read_only and store is not None:
            library = store.load()
            if library is not None:
                registry.service(name).set_template_library(library)
        else:
            library = warmer.rehydrate()
        if library is not None:
            print(f"templates: {name} rehydrated "
                  f"({library.size} templates)",
                  file=sys.stderr, flush=True)
        warmers[name] = warmer
    return warmers


async def _serve_until_signalled(server, front, banner: str) -> None:
    """Serve until SIGTERM/SIGINT, then shut down gracefully.

    On the signal: close the listener (no new connections), then let
    ``front`` (an :class:`~repro.service.http.HttpServerBase`) finish
    every in-flight request and close idle keep-alives.  Shared by
    ``serve --http`` and the ``fleet`` router.
    """
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    handled = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop.add_signal_handler(signum, stop.set)
            handled.append(signum)
    try:
        async with server:
            await stop.wait()
            print(banner, file=sys.stderr, flush=True)
            server.close()
            await front.drain()
    finally:
        for signum in handled:
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.remove_signal_handler(signum)


async def _serve_async(args, registry: ClusterRegistry,
                       options: PipetteOptions) -> int:
    metrics = MetricsRegistry()
    registry.attach_metrics(metrics)
    # Span-derived histograms (per-phase latency, anneal iteration and
    # evaluation counts).  The series exist even while tracing is off —
    # they just stay at zero observations until it is enabled.
    TRACER.attach_metrics(metrics)
    warmers = _build_warmers(args, registry)
    async with PlanGateway(registry, max_queue_depth=args.max_queue_depth,
                           overflow=args.overflow,
                           client_weights=_parse_client_weights(
                               args.client_weight),
                           metrics=metrics) as gateway:
        if args.http is not None:
            front = HttpPlanServer(gateway, options, metrics=metrics,
                                   warmers=warmers)
            server = await asyncio.start_server(
                front.handle, host=args.host, port=args.http,
                limit=1 << 16)  # 64 KiB header lines
            names = ", ".join(str(sock.getsockname())
                              for sock in server.sockets)
            print(f"http on {names}", file=sys.stderr, flush=True)
            # SIGTERM/SIGINT drain instead of dying mid-request; the
            # gateway context then awaits its own in-flight futures
            # and the durable stores are compacted below.  Stdin mode
            # keeps the default signal behavior — there is no clean
            # way to abandon a blocked stdin read at shutdown.
            await _serve_until_signalled(
                server, front, "draining: listener closed, finishing "
                               "in-flight requests")
        else:
            loop = asyncio.get_running_loop()

            async def read_line():
                return await loop.run_in_executor(None, sys.stdin.readline)

            async def write_line(text: str) -> None:
                print(text, flush=True)

            await _serve_stream(gateway, options, read_line, write_line)
        stats = gateway.stats
        print(f"gateway: {stats.submitted} submitted, "
              f"{stats.coalesced} coalesced, {stats.rejected} rejected, "
              f"{stats.batches} drained", file=sys.stderr, flush=True)
    # The gateway context has answered every in-flight future, so the
    # durable logs are final: leave each store compacted (live entries
    # only, fsynced) for the next process over this shard.
    compacted = registry.compact_stores()
    if compacted:
        print(f"stores: {compacted} durable caches compacted",
              file=sys.stderr, flush=True)
    return 0


def cmd_serve(args) -> int:
    # Structured JSON logs go to stderr: in stdin/stdout mode every
    # stdout line is a protocol answer, nothing else.
    configure_logging(args.log_level)
    log = get_logger("service.cli")
    trace_file = None
    if args.trace_dir is not None:
        os.makedirs(args.trace_dir, exist_ok=True)
        trace_file = os.path.join(args.trace_dir,
                                  f"trace-{os.getpid()}.jsonl")
    tracing = args.trace or trace_file is not None
    if tracing:
        TRACER.enable(trace_file=trace_file)
        log.info("tracing enabled", extra={"trace_file": trace_file})
    # Registration chatter also goes to stderr.
    with contextlib.redirect_stdout(sys.stderr):
        registry = _build_registry(args)
    try:
        return asyncio.run(_serve_async(args, registry, _options(args)))
    finally:
        if tracing:
            TRACER.disable()  # flushes and closes the span dump file


def _fleet_worker_args(args) -> "list[str]":
    """The ``serve`` arguments every fleet worker is spawned with.

    The supervisor appends ``--http <port> --shard-index <k>`` per
    worker; everything plan-determining (clusters, seed, search knobs)
    must be identical across the fleet so any worker would answer any
    question byte-identically — routing only decides *where* the
    answer is cached.
    """
    worker_args = ["--clusters", *args.clusters,
                   "--seed", str(args.seed),
                   "--sa-iterations", str(args.sa_iterations),
                   "--portfolio-k", str(args.portfolio_k),
                   "--workers", str(args.executor_workers),
                   "--log-level", args.log_level]
    if args.no_dedication:
        worker_args.append("--no-dedication")
    if args.store_dir is not None:
        worker_args += ["--store-dir", args.store_dir]
    return worker_args


async def _fleet_async(args) -> int:
    base_port = args.base_port if args.base_port is not None \
        else args.http + 1
    supervisor = FleetSupervisor(
        args.workers, base_port, host=args.host,
        worker_args=_fleet_worker_args(args), log_dir=args.log_dir)
    quota = None
    if args.quota_rate is not None:
        quota = AdmissionController(args.quota_rate, args.quota_burst)
    print(f"fleet: starting {args.workers} workers on "
          f"{args.host}:{base_port}..{base_port + args.workers - 1}",
          file=sys.stderr, flush=True)
    try:
        await supervisor.start()
    except BaseException:
        await supervisor.stop(graceful=False)
        raise
    clients = [WorkerClient(args.host, supervisor.worker_port(k), k)
               for k in range(args.workers)]
    router = FleetRouter(clients, supervisor=supervisor, quota=quota)
    server = await asyncio.start_server(router.handle, host=args.host,
                                        port=args.http,
                                        limit=1 << 16)  # 64 KiB headers
    names = ", ".join(str(sock.getsockname()) for sock in server.sockets)
    print(f"fleet router on {names}", file=sys.stderr, flush=True)
    watch_task = asyncio.ensure_future(supervisor.watch())
    try:
        await _serve_until_signalled(
            server, router, "fleet draining: router closed, finishing "
                            "in-flight requests")
    finally:
        watch_task.cancel()
        await asyncio.gather(watch_task, return_exceptions=True)
        # Workers drain themselves on SIGTERM (finish in-flight plans,
        # compact shard stores, exit 0).
        codes = await supervisor.stop(graceful=True)
        for client in clients:
            client.close()
    print(f"fleet stopped: worker exit codes {codes}, "
          f"restarts {dict(supervisor.restarts)}",
          file=sys.stderr, flush=True)
    return 0


def cmd_fleet(args) -> int:
    """Run N serve workers behind the consistent-hash fleet router."""
    configure_logging(args.log_level)
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    if args.quota_rate is not None and not args.quota_rate > 0:
        raise ValueError(f"--quota-rate must be positive, "
                         f"got {args.quota_rate}")
    return asyncio.run(_fleet_async(args))


def _load_span_dump(path: str) -> "list[dict]":
    """Every span payload of one dump file (or directory of them)."""
    if os.path.isdir(path):
        paths = sorted(os.path.join(path, name)
                       for name in os.listdir(path)
                       if name.endswith(".jsonl"))
        if not paths:
            raise ValueError(f"no .jsonl span dumps in {path!r}")
    else:
        paths = [path]
    spans = []
    for file_path in paths:
        with open(file_path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    span = json.loads(line)
                except json.JSONDecodeError:
                    print(f"skipping unparseable line "
                          f"{file_path}:{lineno}", file=sys.stderr)
                    continue
                if isinstance(span, dict) and "span_id" in span:
                    spans.append(span)
    return spans


#: Span attributes surfaced inline by ``trace`` (everything else stays
#: in the JSON dump; these are the ones that answer "why was it slow").
_TRACE_ATTRS = ("outcome", "cluster", "coalesced", "config",
                "exit_reason", "event_kind", "warm_source", "status",
                "n_nodes", "schedule", "templates")


def _print_span(span: dict, depth: int) -> None:
    duration = span.get("duration_ms")
    timing = f"{duration:9.3f} ms" if duration is not None else "      ?   "
    attrs = span.get("attributes") or {}
    notes = [f"{key}={attrs[key]}" for key in _TRACE_ATTRS if key in attrs]
    flight = attrs.get("flight")
    if isinstance(flight, dict):
        notes.append(f"anneal={flight.get('iterations')} iters "
                     f"[{flight.get('provenance')}, "
                     f"{flight.get('exit_reason')}]")
    suffix = f"  ({', '.join(notes)})" if notes else ""
    print(f"  {'  ' * depth}{span.get('name', '?'):<24} {timing}{suffix}")
    for child in span.get("children", ()):
        _print_span(child, depth + 1)


def cmd_trace(args) -> int:
    """Pretty-print a span dump as indented per-trace timing trees."""
    if args.limit < 1:
        raise ValueError(f"--limit must be >= 1, got {args.limit}")
    spans = _load_span_dump(args.path)
    if not spans:
        print(f"no spans in {args.path}", file=sys.stderr)
        return 1
    by_trace: "dict[str, list[dict]]" = {}
    for span in spans:
        by_trace.setdefault(str(span.get("trace_id")), []).append(span)
    if args.trace_id is not None:
        if args.trace_id not in by_trace:
            raise ValueError(f"no trace {args.trace_id!r} in {args.path}; "
                             f"{len(by_trace)} traces in the dump")
        selected = [args.trace_id]
    else:
        selected = list(by_trace)[-args.limit:]
        if len(by_trace) > len(selected):
            print(f"showing the last {len(selected)} of {len(by_trace)} "
                  "traces (--limit, or --trace-id for one)",
                  file=sys.stderr)
    for trace_id in selected:
        rows = by_trace[trace_id]
        nodes = {row["span_id"]: {**row, "children": []} for row in rows}
        roots = []
        for node in nodes.values():
            parent = nodes.get(node.get("parent_id"))
            if parent is None:
                roots.append(node)
            else:
                parent["children"].append(node)
        for node in nodes.values():
            node["children"].sort(key=lambda c: c.get("start_ts") or 0.0)
        roots.sort(key=lambda r: r.get("start_ts") or 0.0)
        print(f"trace {trace_id}  ({len(rows)} spans)")
        for root in roots:
            _print_span(root, 0)
        print()
    return 0


def _print_library(library) -> None:
    """One template library as a per-node-count table."""
    print(f"library: {library.model_name} on {library.cluster_name} "
          f"(x{library.gpus_per_node} GPUs/node), "
          f"global batch {library.global_batch}, "
          f"nodes {library.min_nodes}..{library.max_nodes}, "
          f"{library.size} templates")
    for n_nodes in range(library.min_nodes, library.max_nodes + 1):
        entries = library.templates_for(n_nodes)
        if not entries:
            reason = library.infeasible_reason(n_nodes) \
                or "no feasible configuration"
            print(f"  {n_nodes:>3} nodes: infeasible — {reason}")
            continue
        best = entries[0]
        print(f"  {n_nodes:>3} nodes: {len(entries)} templates, best "
              f"{best.config.describe():<24} "
              f"{best.estimated_latency_s:7.3f} s/iter")


def cmd_templates(args) -> int:
    """Generate, inspect, or background-warm a template library."""
    if args.action == "inspect":
        if args.library is None:
            raise ValueError("templates inspect needs --library FILE")
        library = TemplateStore(args.library).load()
        if library is None:
            print(f"no template library at {args.library}",
                  file=sys.stderr)
            return 2
        _print_library(library)
        return 0
    service = _build_service(args)
    model = get_model(args.model)
    print(f"model:   {model.name}, global batch {args.global_batch}\n")
    kwargs: dict = {"min_nodes": args.min_nodes,
                    "max_nodes": args.max_nodes,
                    "options": _options(args)}
    if args.per_count is not None:
        kwargs["templates_per_count"] = args.per_count
    store = TemplateStore(args.library) if args.library is not None else None
    if args.action == "warm":
        # The off-request-path story: generation runs on the warmer's
        # daemon thread (the CLI just has nothing else to do but wait).
        warmer = TemplateWarmer(service, store=store)
        warmer.start(model, args.global_batch, **kwargs)
        print("warming in the background...")
        library = warmer.wait()
    else:  # generate
        library = service.warm_templates(model, args.global_batch,
                                         **kwargs)
        if store is not None:
            store.save(library)
    _print_library(library)
    if store is not None:
        print(f"\nsaved to {store.path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``pipette-plan`` argument parser (shared with tests)."""
    parser = argparse.ArgumentParser(
        prog="pipette-plan",
        description="Pipette planning service: cached, parallel, elastic "
                    "LLM-training configuration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def search_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument("--global-batch", type=int, default=64,
                       help="bs_global (default 64)")
        p.add_argument("--seed", type=int, default=0,
                       help="fabric/profiling/search seed")
        p.add_argument("--sa-iterations", type=int, default=1500,
                       help="annealing budget per refined candidate")
        p.add_argument("--portfolio-k", type=int, default=4,
                       help="runner-up mappings kept per refined "
                            "candidate for elastic warm starts "
                            "(default 4; 1 keeps only the best)")
        p.add_argument("--no-dedication", action="store_true",
                       help="skip SA worker dedication (PPT-L mode)")
        p.add_argument("--workers", type=_executor_width, default=0,
                       help="candidate-executor width; 0 = serial "
                            "(default), -1 = all usable CPUs "
                            f"(this host: {available_workers()})")

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--cluster", choices=("mid-range", "high-end"),
                       default="mid-range", help="hardware preset (Table I)")
        p.add_argument("--nodes", type=int, default=4,
                       help="node count (default 4)")
        search_opts(p)
        p.add_argument("--store-path", default=None, metavar="FILE",
                       help="durable plan store (JSON lines); plans "
                            "survive restarts and repeats answer as "
                            "cache hits")

    plan = sub.add_parser("plan", help="answer one planning request")
    common(plan)
    plan.add_argument("--model", default="gpt-1.1b",
                      choices=sorted(MODEL_CATALOG),
                      help="architecture to plan for")
    plan.add_argument("--schedule", action="append", default=None,
                      choices=registered_schedules(), metavar="NAME",
                      help="pipeline schedule(s) to sweep as a search "
                           "dimension (repeatable); default sweeps only "
                           f"1f1b. Registered: {', '.join(registered_schedules())}")
    plan.set_defaults(fn=cmd_plan)

    demo = sub.add_parser("demo", help="answer a repeated workload "
                                       "(cache showcase)")
    common(demo)
    demo.add_argument("--models", nargs="+", default=["gpt-1.1b", "gpt-2.2b"],
                      help="architectures in the workload mix")
    demo.add_argument("--repeats", type=int, default=2,
                      help="how many times the workload re-asks")
    demo.set_defaults(fn=cmd_demo)

    rep = sub.add_parser("replan", help="fail a node, compare warm vs cold")
    common(rep)
    rep.add_argument("--model", default="gpt-1.1b",
                     choices=sorted(MODEL_CATALOG),
                     help="architecture to plan for")
    rep.add_argument("--fail-node", type=int, default=1,
                     help="node index that fails")
    rep.set_defaults(fn=cmd_replan)

    reg = sub.add_parser("registry", help="serve several named clusters "
                                          "behind one router")
    search_opts(reg)
    reg.add_argument("--clusters", nargs="+",
                     default=["mid-range:2", "high-end:2"],
                     metavar="PRESET[:NODES]",
                     help="clusters to register (default: one mid-range "
                          "and one high-end cluster of 2 nodes each)")
    reg.add_argument("--model", default="gpt-1.1b",
                     choices=sorted(MODEL_CATALOG),
                     help="architecture to plan for")
    reg.add_argument("--fail-node", type=int, default=None, metavar="NODE",
                     help="also demo failure isolation: fail this node "
                          "on the first cluster (clears its cache and "
                          "durable store; off by default)")
    reg.add_argument("--store-dir", default=None, metavar="DIR",
                     help="directory of per-cluster durable stores "
                          "(one <name>.jsonl each)")
    reg.set_defaults(fn=cmd_registry)

    # No prefix matching: the removed TCP flag ``--port`` would
    # otherwise parse silently as ``--portfolio-k``.
    srv = sub.add_parser("serve", allow_abbrev=False,
                         help="run the async gateway as a server: JSON "
                              "lines on stdin, or HTTP with --http")
    search_opts(srv)
    srv.add_argument("--clusters", nargs="+",
                     default=["mid-range:2", "high-end:2"],
                     metavar="PRESET[:NODES]",
                     help="clusters to serve (default: one mid-range "
                          "and one high-end cluster of 2 nodes each)")
    srv.add_argument("--store-dir", default=None, metavar="DIR",
                     help="directory of per-cluster durable stores "
                          "(one <name>.jsonl each)")
    srv.add_argument("--shard-index", type=int, default=None, metavar="K",
                     help="serve as fleet shard K: durable stores use "
                          "per-shard segments (<name>.shard-K.jsonl) "
                          "and shards > 0 share template libraries "
                          "read-only (normally set by the fleet "
                          "supervisor, not by hand)")
    srv.add_argument("--http", type=int, default=None, metavar="PORT",
                     help="serve HTTP/1.1 on PORT instead of JSON lines "
                          "on stdin/stdout: POST /v1/plan, POST "
                          "/v1/events/*, GET /healthz, GET /metrics "
                          "(Prometheus)")
    srv.add_argument("--host", default="127.0.0.1",
                     help="HTTP bind address (with --http; "
                          "default 127.0.0.1)")
    srv.add_argument("--max-queue-depth", type=int, default=64,
                     help="distinct in-flight requests per cluster "
                          "before the overflow policy applies")
    srv.add_argument("--overflow", choices=("wait", "reject"),
                     default="wait",
                     help="over-limit callers wait for a slot or get "
                          "an immediate error")
    srv.add_argument("--client-weight", action="append", default=None,
                     metavar="NAME=WEIGHT",
                     help="round-robin weight for a client_id "
                          "(repeatable; default 1 each)")
    srv.add_argument("--log-level", default="info",
                     choices=("debug", "info", "warning", "error"),
                     help="stderr JSON log threshold (default info)")
    srv.add_argument("--trace", action="store_true",
                     help="trace every plan end to end: span trees on "
                          "GET /v1/debug/traces and 'timing' blocks in "
                          "detail responses")
    srv.add_argument("--trace-dir", default=None, metavar="DIR",
                     help="also append every finished span to "
                          "DIR/trace-<pid>.jsonl (implies --trace; "
                          "pretty-print with the 'trace' subcommand)")
    srv.set_defaults(fn=cmd_serve)

    flt = sub.add_parser("fleet", help="run N serve workers behind one "
                                       "consistent-hash HTTP router")
    flt.add_argument("--workers", type=int, default=2, metavar="N",
                     help="worker processes in the fleet (default 2)")
    flt.add_argument("--http", type=int, default=8080, metavar="PORT",
                     help="router listen port (default 8080)")
    flt.add_argument("--base-port", type=int, default=None, metavar="PORT",
                     help="worker K serves on PORT+K "
                          "(default: router port + 1)")
    flt.add_argument("--host", default="127.0.0.1",
                     help="bind address for router and workers "
                          "(default 127.0.0.1)")
    flt.add_argument("--clusters", nargs="+",
                     default=["mid-range:2", "high-end:2"],
                     metavar="PRESET[:NODES]",
                     help="clusters every worker serves (default: one "
                          "mid-range and one high-end cluster of 2 "
                          "nodes each)")
    flt.add_argument("--store-dir", default=None, metavar="DIR",
                     help="shared durable-store directory; worker K "
                          "owns <name>.shard-K.jsonl segments and "
                          "template libraries are shared read-only")
    flt.add_argument("--quota-rate", type=float, default=None,
                     metavar="R",
                     help="admission quota: sustained plan requests "
                          "per second per client_id; over-budget "
                          "requests answer 429 (default: no quota)")
    flt.add_argument("--quota-burst", type=float, default=None,
                     metavar="B",
                     help="admission burst per client_id "
                          "(default: max(1, 2 * rate))")
    flt.add_argument("--seed", type=int, default=0,
                     help="fabric/profiling/search seed (forwarded to "
                          "every worker)")
    flt.add_argument("--sa-iterations", type=int, default=1500,
                     help="annealing budget per refined candidate "
                          "(forwarded)")
    flt.add_argument("--portfolio-k", type=int, default=4,
                     help="runner-up mappings kept per refined "
                          "candidate (forwarded)")
    flt.add_argument("--no-dedication", action="store_true",
                     help="skip SA worker dedication (forwarded)")
    flt.add_argument("--executor-workers", type=_executor_width, default=0,
                     metavar="W",
                     help="candidate-executor width inside each "
                          "worker (serve's --workers; default 0 = "
                          "serial, -1 = all usable CPUs)")
    flt.add_argument("--log-dir", default=None, metavar="DIR",
                     help="append worker K's output to "
                          "DIR/worker-K.log (default: inherit stderr)")
    flt.add_argument("--log-level", default="info",
                     choices=("debug", "info", "warning", "error"),
                     help="stderr JSON log threshold, router and "
                          "workers (default info)")
    flt.set_defaults(fn=cmd_fleet)

    tpl = sub.add_parser("templates",
                         help="generate, inspect, or background-warm an "
                              "elastic pipeline-template library")
    tpl.add_argument("action", choices=("generate", "inspect", "warm"),
                     help="generate synchronously, inspect a persisted "
                          "library, or warm through the background "
                          "TemplateWarmer")
    common(tpl)
    tpl.add_argument("--model", default="gpt-1.1b",
                     choices=sorted(MODEL_CATALOG),
                     help="architecture to build templates for")
    tpl.add_argument("--min-nodes", type=int, default=1,
                     help="smallest node count to cover (default 1)")
    tpl.add_argument("--max-nodes", type=int, default=None,
                     help="largest node count to cover (default: the "
                          "cluster's full size)")
    tpl.add_argument("--per-count", type=int, default=None,
                     metavar="K",
                     help="templates kept per node count (default 4)")
    tpl.add_argument("--library", default=None, metavar="FILE",
                     help="template store: generate/warm save here, "
                          "inspect reads from here")
    tpl.set_defaults(fn=cmd_templates)

    trc = sub.add_parser("trace", help="pretty-print a span dump written "
                                       "by serve --trace-dir")
    trc.add_argument("path", metavar="FILE_OR_DIR",
                     help="a trace-<pid>.jsonl dump, or the --trace-dir "
                          "holding several")
    trc.add_argument("--trace-id", default=None, metavar="ID",
                     help="print only this trace")
    trc.add_argument("--limit", type=int, default=10,
                     help="most recent traces to print (default 10)")
    trc.set_defaults(fn=cmd_trace)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point: dispatch a subcommand, keep errors friendly."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except PlanStoreError as exc:
        # A corrupt, foreign, or locked plan store is an operator
        # problem with a one-line explanation, not a traceback.
        print(f"store error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, KeyError) as exc:
        # Bad operands (unknown model, out-of-range node, infeasible
        # batch) are user errors, not crashes.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/grep that quit early — routine,
        # not an error.  Detach stdout so the interpreter does not
        # complain again while flushing at exit.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())

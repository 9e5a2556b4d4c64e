"""The HTTP front end: routes, edge cases, identity, keep-alive.

The identity contract extends the gateway's: a plan fetched through
``POST /v1/plan`` (with ``"detail": true``) must be byte-identical —
via ``to_payload``, net of stopwatch fields — to serial ``plan()``
calls on a fresh single-caller service.  HTTP is a transport; it must never
change answers.
"""

import asyncio
import json

import numpy as np
import pytest
from conftest import metric_value, parse_prometheus

from repro.cluster import Fabric, HeterogeneityModel, NetworkProfiler
from repro.cluster.topology import ClusterSpec, GpuSpec, LinkSpec, NodeSpec
from repro.core import PipetteOptions, SAOptions
from repro.core.memory_dataset import build_memory_dataset
from repro.core.memory_estimator import MemoryEstimator
from repro.model import get_model
from repro.service import (
    ClusterRegistry,
    HttpPlanServer,
    MetricsRegistry,
    PlanGateway,
    PlanningService,
)
from repro.units import GIB

FAST = PipetteOptions(use_worker_dedication=False)

_STOPWATCH_FIELDS = ("memory_check_s", "annealing_s", "total_s")


def _payload_bytes(payload: dict) -> str:
    payload = dict(payload)
    for field in _STOPWATCH_FIELDS:
        payload.pop(field, None)
    return json.dumps(payload, sort_keys=True)


def _cluster(name: str, n_nodes: int = 2) -> ClusterSpec:
    gpu = GpuSpec(name=f"{name}-GPU", memory_bytes=4 * GIB,
                  peak_flops=10e12, achievable_fraction=0.5, hbm_gb_s=500.0)
    node = NodeSpec(gpus_per_node=4, gpu=gpu,
                    intra_link=LinkSpec("NVL", 100.0, alpha_s=1e-6))
    return ClusterSpec(name=name, n_nodes=n_nodes, node=node,
                       inter_link=LinkSpec("IB", 10.0, alpha_s=1e-5))


def _registry() -> ClusterRegistry:
    registry = ClusterRegistry()
    for name, seed in (("alpha", 1), ("beta", 2)):
        cluster = _cluster(name)
        fabric = Fabric(cluster, heterogeneity=HeterogeneityModel(),
                        seed=seed)
        bandwidth = NetworkProfiler(n_rounds=2).profile(
            fabric, seed=seed).bandwidth
        registry.add_cluster(name, cluster, bandwidth)
    return registry


class _Server:
    """An in-process HTTP front end over a fresh gateway."""

    def __init__(self, registry: ClusterRegistry, *,
                 max_body_bytes: int = 1 << 20, options=FAST,
                 **gateway_kwargs) -> None:
        self.registry = registry
        self.options = options
        self.metrics = MetricsRegistry()
        self.registry.attach_metrics(self.metrics)
        self._gateway_kwargs = gateway_kwargs
        self._max_body_bytes = max_body_bytes
        self.port = None

    async def __aenter__(self) -> "_Server":
        self.gateway = PlanGateway(self.registry, metrics=self.metrics,
                                   **self._gateway_kwargs)
        await self.gateway.__aenter__()
        self.front = HttpPlanServer(self.gateway, self.options,
                                    metrics=self.metrics,
                                    max_body_bytes=self._max_body_bytes)
        self.server = await asyncio.start_server(
            self.front.handle, host="127.0.0.1", port=0)
        self.port = self.server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc) -> None:
        self.server.close()
        await self.server.wait_closed()
        await self.gateway.__aexit__(*exc)


async def _read_response(reader) -> "tuple[int, dict, bytes]":
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers.get("content-length", "0")))
    return status, headers, body


async def _request(port: int, method: str, path: str, body=None,
                   raw_body: bytes | None = None):
    """One-shot request over its own connection -> (status, headers, body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    data = raw_body if raw_body is not None else (
        b"" if body is None else json.dumps(body).encode("utf-8"))
    writer.write((f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
                  f"Content-Length: {len(data)}\r\n"
                  "Connection: close\r\n\r\n").encode() + data)
    await writer.drain()
    try:
        return await _read_response(reader)
    finally:
        writer.close()


def _json(body: bytes) -> dict:
    return json.loads(body.decode("utf-8"))


class TestRoutes:
    def test_healthz(self):
        async def main():
            async with _Server(_registry()) as server:
                return await _request(server.port, "GET", "/healthz")

        status, headers, body = asyncio.run(main())
        assert status == 200
        assert headers["content-type"].startswith("application/json")
        out = _json(body)
        assert out["status"] == "ok"
        assert out["clusters"] == ["alpha", "beta"]

    def test_plan_pinned_then_cached(self, toy_model):
        payload = {"model": "gpt-toy", "global_batch": 32,
                   "cluster": "alpha", "id": "job-9"}

        async def main():
            async with _Server(_registry()) as server:
                first = await _request(server.port, "POST", "/v1/plan",
                                       payload)
                second = await _request(server.port, "POST", "/v1/plan",
                                        payload)
                return first, second

        (s1, _, b1), (s2, _, b2) = asyncio.run(main())
        assert s1 == s2 == 200
        first, second = _json(b1), _json(b2)
        assert first["status"] == "miss"
        assert second["status"] == "hit"
        assert first["id"] == "job-9"
        assert first["cluster"] == "alpha"
        assert first["config"] == second["config"]
        assert "latency_s" in first

    def test_unpinned_plan_fans_to_cheapest(self, toy_model):
        async def main():
            async with _Server(_registry()) as server:
                return await _request(server.port, "POST", "/v1/plan",
                                      {"model": "gpt-toy",
                                       "global_batch": 32})

        status, _, body = asyncio.run(main())
        assert status == 200
        assert _json(body)["cluster"] in ("alpha", "beta")

    def test_failure_event_shrinks_cluster(self, toy_model):
        async def main():
            async with _Server(_registry()) as server:
                await _request(server.port, "POST", "/v1/plan",
                               {"model": "gpt-toy", "global_batch": 32,
                                "cluster": "alpha"})
                status, _, body = await _request(
                    server.port, "POST", "/v1/events/failure",
                    {"cluster": "alpha", "nodes": [1]})
                after = await _request(
                    server.port, "POST", "/v1/plan",
                    {"model": "gpt-toy", "global_batch": 32,
                     "cluster": "alpha", "detail": True})
                return (status, _json(body)), after

        (status, event), (after_status, _, after_body) = asyncio.run(main())
        assert status == 200
        assert event["retired"] == 1
        assert event["surviving_nodes"] == 1
        assert after_status == 200
        after = _json(after_body)
        assert after["status"] == "miss"  # pre-failure plan was retired
        assert after["result"]["cluster"]["n_nodes"] == 1  # survivor world

    def test_empty_failure_event_is_400_and_changes_nothing(self):
        # Regression: ``"nodes": []`` failed no node yet answered 200
        # and retired every cached plan and profile.
        async def main():
            async with _Server(_registry()) as server:
                await _request(server.port, "POST", "/v1/plan",
                               {"model": "gpt-toy", "global_batch": 32,
                                "cluster": "alpha"})
                service = server.registry.service("alpha")
                before = (len(service.cache), service.bandwidth_fp,
                          service.cluster.n_nodes)
                status, _, body = await _request(
                    server.port, "POST", "/v1/events/failure",
                    {"cluster": "alpha", "nodes": []})
                after = (len(service.cache), service.bandwidth_fp,
                         service.cluster.n_nodes)
                _, _, page = await _request(server.port, "GET", "/metrics")
                return status, _json(body), before, after, page

        status, out, before, after, page = asyncio.run(main())
        assert status == 400
        assert "'nodes'" in out["error"]
        assert before == after
        assert before[0] == 1
        samples = parse_prometheus(page.decode("utf-8"))
        assert metric_value(samples, "pipette_events_total",
                            cluster="alpha", kind="failure") == 0

    def test_mistyped_failure_nodes_are_400_and_change_nothing(self):
        # Regression: "12" failed nodes 1 and 2, true failed node 1, and
        # 1.7 / [1.9] were truncated to node 1.
        registry = ClusterRegistry()
        cluster = _cluster("alpha", n_nodes=4)
        fabric = Fabric(cluster, heterogeneity=HeterogeneityModel(), seed=1)
        registry.add_cluster("alpha", cluster, NetworkProfiler(
            n_rounds=2).profile(fabric, seed=1).bandwidth)
        bad = ["12", True, 1.7, [1.9], [1, "2"], [False], {"1": 1}]

        async def main():
            async with _Server(registry) as server:
                await _request(server.port, "POST", "/v1/plan",
                               {"model": "gpt-toy", "global_batch": 32,
                                "cluster": "alpha"})
                service = server.registry.service("alpha")
                before = (len(service.cache), service.bandwidth_fp,
                          service.cluster.n_nodes)
                answers = []
                for nodes in bad:
                    status, _, body = await _request(
                        server.port, "POST", "/v1/events/failure",
                        {"cluster": "alpha", "nodes": nodes})
                    answers.append((status, _json(body)))
                after = (len(service.cache), service.bandwidth_fp,
                         service.cluster.n_nodes)
                _, _, page = await _request(server.port, "GET", "/metrics")
                return answers, before, after, page

        answers, before, after, page = asyncio.run(main())
        for status, out in answers:
            assert status == 400
            assert "nodes" in out["error"]
        assert before == after
        assert before[0] == 1 and before[2] == 4
        samples = parse_prometheus(page.decode("utf-8"))
        assert metric_value(samples, "pipette_events_total",
                            cluster="alpha", kind="failure") == 0

    def test_bad_drift_threshold_is_400_and_changes_nothing(self):
        # Regression: a NaN threshold compares false against any drift,
        # so a halved fabric was silently never adopted; "0.1" and true
        # were coerced by float().
        async def main():
            async with _Server(_registry()) as server:
                await _request(server.port, "POST", "/v1/plan",
                               {"model": "gpt-toy", "global_batch": 32,
                                "cluster": "alpha"})
                service = server.registry.service("alpha")
                before = (len(service.cache), service.bandwidth_fp)
                answers = []
                for threshold in (float("nan"), -1, "0.1", True):
                    status, _, body = await _request(
                        server.port, "POST", "/v1/events/bandwidth",
                        {"cluster": "alpha", "scale": 0.5,
                         "drift_threshold": threshold})
                    answers.append((status, _json(body)))
                after = (len(service.cache), service.bandwidth_fp)
                return answers, before, after

        answers, before, after = asyncio.run(main())
        for status, out in answers:
            assert status == 400
            assert "drift_threshold" in out["error"]
        assert before == after
        assert before[0] == 1

    @staticmethod
    async def _refused_events(server, route: str, bodies) -> dict:
        """POST each body to ``route``; the answers and what they changed."""
        await _request(server.port, "POST", "/v1/plan",
                       {"model": "gpt-toy", "global_batch": 32,
                        "cluster": "alpha"})
        service = server.registry.service("alpha")
        before = (len(service.cache), service.bandwidth_fp,
                  service.bandwidth.matrix.copy())
        answers = []
        for body in bodies:
            raw = body if isinstance(body, bytes) \
                else json.dumps(body).encode("utf-8")
            status, _, out = await _request(server.port, "POST", route,
                                            raw_body=raw)
            answers.append((body, status, _json(out)))
        _, _, page = await _request(server.port, "GET", "/metrics")
        samples = parse_prometheus(page.decode("utf-8"))
        return {"answers": answers, "before": before,
                "after": (len(service.cache), service.bandwidth_fp,
                          service.bandwidth.matrix),
                "events": [metric_value(samples, "pipette_events_total",
                                        cluster="alpha", kind=kind)
                           for kind in ("bandwidth", "failure")]}

    def _assert_refused_and_unchanged(self, seen: dict, needle: str):
        for body, status, out in seen["answers"]:
            assert status == 400, body
            assert needle in out["error"], (body, out["error"])
        (size, epoch, matrix), after = seen["before"], seen["after"]
        assert size == 1
        assert (size, epoch) == after[:2]
        assert np.array_equal(matrix, after[2])
        assert seen["events"] == [0, 0]

    def test_mistyped_scale_is_400_and_changes_nothing(self):
        # Regression: "2" and true were coerced by float(), and
        # Infinity / 1e999 set every link to infinite bandwidth.
        bodies = [
            {"cluster": "alpha", "scale": "2"},
            {"cluster": "alpha", "scale": True},
            {"cluster": "alpha", "scale": [2]},
            b'{"cluster": "alpha", "scale": Infinity}',
            b'{"cluster": "alpha", "scale": 1e999}',
            b'{"cluster": "alpha", "scale": NaN}',
            {"cluster": "alpha", "scale": 0},
        ]

        async def main():
            async with _Server(_registry()) as server:
                return await self._refused_events(
                    server, "/v1/events/bandwidth", bodies)

        self._assert_refused_and_unchanged(asyncio.run(main()), "scale")

    def test_non_string_cluster_is_400_on_both_event_routes(self):
        async def main():
            registry = _registry()
            cluster = _cluster("7")
            registry.add_cluster("7", cluster, Fabric(
                cluster, heterogeneity=HeterogeneityModel(),
                seed=3).bandwidth())
            async with _Server(registry) as server:
                bandwidth = await self._refused_events(
                    server, "/v1/events/bandwidth",
                    [{"cluster": 7, "scale": 0.5},
                     {"cluster": ["alpha"], "scale": 0.5}])
                failure = await self._refused_events(
                    server, "/v1/events/failure",
                    [{"cluster": 7, "nodes": [1]}])
                return bandwidth, failure, \
                    server.registry.service("7").cluster.n_nodes

        bandwidth, failure, seven_nodes = asyncio.run(main())
        self._assert_refused_and_unchanged(bandwidth, "cluster must be a "
                                                      "string")
        self._assert_refused_and_unchanged(failure, "cluster must be a "
                                                    "string")
        assert seven_nodes == 2

    def test_matrix_bandwidth_event_is_adopted(self):
        # The route owns the diagonal: +inf bandwidth, zero latency,
        # whatever the body says (group minima read it).
        async def main():
            async with _Server(_registry()) as server:
                await _request(server.port, "POST", "/v1/plan",
                               {"model": "gpt-toy", "global_batch": 32,
                                "cluster": "alpha"})
                service = server.registry.service("alpha")
                epoch = service.bandwidth_fp
                matrix = service.bandwidth.matrix * 0.5
                np.fill_diagonal(matrix, 0.0)
                alpha = service.bandwidth.alpha * 2.0
                np.fill_diagonal(alpha, 7.0)
                status, _, body = await _request(
                    server.port, "POST", "/v1/events/bandwidth",
                    {"cluster": "alpha", "matrix": matrix.tolist(),
                     "alpha": alpha.tolist()})
                return (status, _json(body), epoch, service.bandwidth,
                        matrix, alpha)

        status, event, epoch, adopted, matrix, alpha = asyncio.run(main())
        assert status == 200
        assert event["adopted"] is True and event["retired"] == 1
        assert event["epoch"] != epoch
        links = ~np.eye(len(matrix), dtype=bool)
        assert np.array_equal(adopted.matrix[links], matrix[links])
        assert np.array_equal(adopted.alpha[links], alpha[links])
        assert np.all(np.diag(adopted.matrix) == np.inf)
        assert np.all(np.diag(adopted.alpha) == 0.0)

    def test_bad_matrix_bandwidth_event_is_400_and_changes_nothing(self):
        # Regression: a matrix of "-5" strings and an all-zero matrix
        # were both adopted.
        n = 8  # GPUs of the two-node test cluster

        def table(off, diagonal=0.0, size=n):
            return [[diagonal if i == j else off for j in range(size)]
                    for i in range(size)]

        good = table(10.0)
        one_bad = table(10.0)
        one_bad[0][1] = -1.0
        bodies = [
            {"cluster": "alpha", "matrix": table("-5", "-5")},
            {"cluster": "alpha", "matrix": table(0.0)},
            {"cluster": "alpha", "matrix": one_bad},
            {"cluster": "alpha", "matrix": table(True)},
            {"cluster": "alpha", "matrix": table(None)},
            {"cluster": "alpha", "matrix": table(float("nan"))},
            {"cluster": "alpha", "matrix": table(float("inf"))},
            {"cluster": "alpha", "matrix": good[:-1]},
            {"cluster": "alpha", "matrix": [row[:-1] for row in good]},
            {"cluster": "alpha", "matrix": table(10.0, size=4)},
            {"cluster": "alpha", "matrix": "10"},
            {"cluster": "alpha", "matrix": good, "alpha": table(-1e-6)},
            {"cluster": "alpha", "matrix": good,
             "alpha": table(float("nan"))},
            {"cluster": "alpha", "matrix": good,
             "alpha": table(float("inf"))},
            {"cluster": "alpha", "matrix": good, "alpha": table("1e-6")},
        ]

        async def main():
            async with _Server(_registry()) as server:
                return await self._refused_events(
                    server, "/v1/events/bandwidth", bodies)

        seen = asyncio.run(main())
        self._assert_refused_and_unchanged(seen, "")
        errors = [out["error"] for _, _, out in seen["answers"]]
        assert all("matrix" in e for e in errors[:11])
        assert all("alpha" in e for e in errors[11:])

    def test_bandwidth_event_scale_retires_plans(self, toy_model):
        async def main():
            async with _Server(_registry()) as server:
                await _request(server.port, "POST", "/v1/plan",
                               {"model": "gpt-toy", "global_batch": 32,
                                "cluster": "alpha"})
                status, _, body = await _request(
                    server.port, "POST", "/v1/events/bandwidth",
                    {"cluster": "alpha", "scale": 0.5})
                return status, _json(body)

        status, event = asyncio.run(main())
        assert status == 200
        assert event["retired"] == 1
        assert event["adopted"] is True

    def test_sub_threshold_bandwidth_event_reports_not_adopted(self,
                                                               toy_model):
        # Regression: "adopted" must mean the epoch actually rolled.
        # A 1% wiggle is discarded by the drift threshold — reporting
        # it as adopted would tell an operator the fleet is using a
        # matrix it threw away.
        async def main():
            async with _Server(_registry()) as server:
                service = server.registry.service("alpha")
                epoch = service.bandwidth_fp
                status, _, body = await _request(
                    server.port, "POST", "/v1/events/bandwidth",
                    {"cluster": "alpha", "scale": 0.99})
                return status, _json(body), epoch, service.bandwidth_fp

        status, event, before, after = asyncio.run(main())
        assert status == 200
        assert event["adopted"] is False
        assert event["retired"] == 0
        assert before == after == event["epoch"]

    def test_metrics_page_parses_with_nonzero_counters(self, toy_model):
        async def main():
            async with _Server(_registry()) as server:
                await _request(server.port, "POST", "/v1/plan",
                               {"model": "gpt-toy", "global_batch": 32,
                                "cluster": "alpha"})
                return await _request(server.port, "GET", "/metrics")

        status, headers, body = asyncio.run(main())
        assert status == 200
        assert headers["content-type"] == \
            "text/plain; version=0.0.4; charset=utf-8"
        samples = parse_prometheus(body.decode("utf-8"))
        assert metric_value(samples, "pipette_requests_total",
                            cluster="alpha", outcome="miss") == 1
        assert metric_value(samples, "pipette_http_requests_total",
                            method="POST", route="/v1/plan",
                            code="200") == 1
        assert metric_value(samples, "pipette_plan_latency_seconds_count",
                            cluster="alpha") == 1
        assert metric_value(samples, "pipette_cache_misses_total",
                            cluster="alpha") == 1


class TestEdgeCases:
    def test_malformed_json_body_is_400(self):
        async def main():
            async with _Server(_registry()) as server:
                return await _request(server.port, "POST", "/v1/plan",
                                      raw_body=b"{broken json")

        status, _, body = asyncio.run(main())
        assert status == 400
        assert "not JSON" in _json(body)["error"]

    def test_non_object_json_body_is_400(self):
        async def main():
            async with _Server(_registry()) as server:
                return await _request(server.port, "POST", "/v1/plan",
                                      body=["not", "an", "object"])

        status, _, body = asyncio.run(main())
        assert status == 400
        assert "JSON object" in _json(body)["error"]

    def test_unknown_route_is_404(self):
        async def main():
            async with _Server(_registry()) as server:
                return await _request(server.port, "GET", "/nope")

        status, _, body = asyncio.run(main())
        assert status == 404
        assert "unknown route" in _json(body)["error"]

    def test_wrong_method_is_405_with_allow(self):
        async def main():
            async with _Server(_registry()) as server:
                return await _request(server.port, "GET", "/v1/plan")

        status, headers, body = asyncio.run(main())
        assert status == 405
        assert headers["allow"] == "POST"

    def test_oversized_body_is_413(self):
        async def main():
            async with _Server(_registry(), max_body_bytes=256) as server:
                return await _request(server.port, "POST", "/v1/plan",
                                      raw_body=b"x" * 1000)

        status, _, body = asyncio.run(main())
        assert status == 413
        assert "exceeds" in _json(body)["error"]

    def test_unknown_model_and_cluster_are_400(self):
        async def main():
            async with _Server(_registry()) as server:
                bad_model = await _request(
                    server.port, "POST", "/v1/plan",
                    {"model": "no-such-model"})
                bad_cluster = await _request(
                    server.port, "POST", "/v1/plan",
                    {"model": "gpt-toy", "cluster": "nope"})
                bad_event = await _request(
                    server.port, "POST", "/v1/events/failure",
                    {"nodes": [0]})
                return bad_model, bad_cluster, bad_event

        (s1, _, b1), (s2, _, b2), (s3, _, b3) = asyncio.run(main())
        assert s1 == s2 == s3 == 400
        assert "unknown model" in _json(b1)["error"]
        assert "unknown cluster" in _json(b2)["error"]
        assert "'cluster'" in _json(b3)["error"]

    def test_mistyped_plan_fields_are_400(self):
        # Regression: "16" swept micro-batches 1 and 6, true planned for
        # global batch 1, and 32.9 planned for 32; all answered 200.
        bad = [{"micro_batches": "16"}, {"global_batch": True},
               {"global_batch": 32.9}, {"portfolio_k": "2"},
               {"memory_limit_gib": "12"}, {"schedule": [1]},
               # "false" and 1 used to answer a 20 KB detail body,
               # 0 a compact one.
               {"detail": "false"}, {"detail": 1}, {"detail": 0},
               {"detail": "yes"}]

        async def main():
            async with _Server(_registry()) as server:
                answers = []
                for fields in bad:
                    status, _, body = await _request(
                        server.port, "POST", "/v1/plan",
                        {"model": "gpt-toy", "global_batch": 32,
                         "cluster": "alpha", **fields})
                    answers.append((status, _json(body)))
                return answers, server.registry.stats["alpha"]

        answers, stats = asyncio.run(main())
        for fields, (status, out) in zip(bad, answers):
            assert status == 400
            assert next(iter(fields)) in out["error"]
        assert stats["cache_misses"] == 0  # nothing was planned

    def test_memory_limit_without_estimator_is_400(self):
        # These clusters have no memory estimator: a limit would be
        # silently ignored, so it is refused, pinned or fanned out.
        async def main():
            async with _Server(_registry()) as server:
                answers = []
                for pin in ({"cluster": "alpha"}, {}):
                    status, _, body = await _request(
                        server.port, "POST", "/v1/plan",
                        {"model": "gpt-toy", "global_batch": 32,
                         "memory_limit_gib": 12, **pin})
                    answers.append((status, _json(body)))
                return answers, server.registry.stats

        answers, stats = asyncio.run(main())
        for status, out in answers:
            assert status == 400
            assert "memory estimator" in out["error"]
        assert all(s["cache_misses"] == 0 and s["requests_submitted"] == 0
                   for s in stats.values())

    def test_infinite_memory_limit_is_400(self):
        # Regression: Python's json reads the Infinity token, and with
        # an estimator an infinite limit kept every candidate, so an
        # over-memory plan was answered 200 and flagged memory_ok.
        cluster = _cluster("alpha")
        estimator = MemoryEstimator(hidden_size=16, n_hidden_layers=1,
                                    seed=0)
        estimator.fit(build_memory_dataset(
            cluster, [get_model("gpt-toy")], global_batches=[16, 32],
            node_counts=[1, 2], seed=0), iterations=20)
        registry = ClusterRegistry()
        bandwidth = NetworkProfiler(n_rounds=2).profile(
            Fabric(cluster, heterogeneity=HeterogeneityModel(), seed=1),
            seed=1).bandwidth
        registry.add_cluster("alpha", cluster, bandwidth,
                             memory_estimator=estimator)
        body = (b'{"model": "gpt-toy", "global_batch": 32, '
                b'"cluster": "alpha", "memory_limit_gib": Infinity}')

        async def main():
            async with _Server(registry) as server:
                answer = await _request(server.port, "POST", "/v1/plan",
                                        raw_body=body)
                return answer, server.registry.stats["alpha"]

        (status, _, out), stats = asyncio.run(main())
        assert status == 400
        assert "memory_limit_gib must be a finite" in _json(out)["error"]
        assert stats["cache_misses"] == 0  # nothing was planned

    def test_mistyped_template_warm_fields_are_400(self):
        bad = [{"min_nodes": "1"}, {"max_nodes": 1.5},
               {"templates_per_count": True}, {"wait": "no"},
               {"micro_batches": "16"}]

        async def main():
            async with _Server(_registry()) as server:
                answers = []
                for fields in bad:
                    status, _, body = await _request(
                        server.port, "POST", "/v1/templates/warm",
                        {"model": "gpt-toy", "global_batch": 32,
                         "cluster": "alpha", **fields})
                    answers.append((status, _json(body)))
                return answers, server.registry.service("alpha")

        answers, service = asyncio.run(main())
        for fields, (status, out) in zip(bad, answers):
            assert status == 400
            assert next(iter(fields)) in out["error"]
        assert service.template_library is None

    def test_template_warm_honors_portfolio_k(self):
        # Regression: the warm-up parsed portfolio_k and then stored the
        # server default's runner-ups (3 per template) whatever it said.
        options = PipetteOptions(
            sa=SAOptions(max_iterations=60, portfolio_k=4), sa_top_k=2,
            seed=5)

        async def main():
            depths = {}
            async with _Server(_registry(), options=options) as server:
                service = server.registry.service("alpha")
                for k in (1, 2):
                    status, _, _ = await _request(
                        server.port, "POST", "/v1/templates/warm",
                        {"model": "gpt-toy", "global_batch": 32,
                         "cluster": "alpha", "portfolio_k": k})
                    assert status == 200
                    library = service.template_library
                    depths[k] = [len(t.portfolio)
                                 for n in library.covered_counts
                                 for t in library.templates_for(n)]
            return depths

        depths = asyncio.run(main())
        assert depths[1] and max(depths[1]) == 0
        assert max(depths[2]) == 1

    def test_duplicate_header_flood_hits_the_cap(self):
        # Regression: the header cap must count parsed *lines*, not
        # dict entries — duplicate names overwrite one key, so a flood
        # of repeated headers used to stream past the bound forever.
        async def main():
            async with _Server(_registry()) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                writer.write(b"GET /healthz HTTP/1.1\r\nHost: t\r\n")
                writer.write(b"x-flood: y\r\n" * 200)
                writer.write(b"\r\n")
                await writer.drain()
                try:
                    return await _read_response(reader)
                finally:
                    writer.close()

        status, _, body = asyncio.run(main())
        assert status == 431
        assert "too many header fields" in _json(body)["error"]

    def test_http_errors_are_counted_with_bounded_route_label(self):
        async def main():
            async with _Server(_registry()) as server:
                await _request(server.port, "GET", "/probe/one")
                await _request(server.port, "GET", "/probe/two")
                _, _, body = await _request(server.port, "GET", "/metrics")
                return body

        samples = parse_prometheus(asyncio.run(main()).decode("utf-8"))
        # Probed paths collapse into one "unmatched" label value, so a
        # port scan cannot explode the series cardinality.
        assert metric_value(samples, "pipette_http_requests_total",
                            method="GET", route="unmatched",
                            code="404") == 2


class TestKeepAlive:
    def test_two_requests_one_connection(self, toy_model):
        payload = json.dumps({"model": "gpt-toy", "global_batch": 32,
                              "cluster": "alpha"}).encode()

        async def main():
            async with _Server(_registry()) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                request = (b"POST /v1/plan HTTP/1.1\r\nHost: t\r\n"
                           b"Content-Length: %d\r\n\r\n" % len(payload)
                           ) + payload
                writer.write(request)
                await writer.drain()
                first = await _read_response(reader)
                writer.write(request)  # same connection, still open
                await writer.drain()
                second = await _read_response(reader)
                writer.close()
                return first, second

        (s1, h1, b1), (s2, _, b2) = asyncio.run(main())
        assert s1 == s2 == 200
        assert h1["connection"] == "keep-alive"
        assert _json(b1)["status"] == "miss"
        assert _json(b2)["status"] == "hit"


class TestIdentity:
    def test_concurrent_http_clients_match_serial_drains(self, toy_model):
        registry = _registry()
        jobs = []
        for name in ("alpha", "beta"):
            for batch in (16, 32, 16, 64):  # overlapping fingerprints
                jobs.append((name, batch))

        async def main():
            async with _Server(registry) as server:
                return await asyncio.gather(*(
                    _request(server.port, "POST", "/v1/plan",
                             {"model": "gpt-toy", "global_batch": batch,
                              "cluster": name, "detail": True,
                              "client_id": f"client-{i % 3}"})
                    for i, (name, batch) in enumerate(jobs)))

        answers = asyncio.run(main())
        # Serial reference: a fresh single-caller service per cluster,
        # answering the same requests in submission order.
        references = {}
        for name in ("alpha", "beta"):
            source = registry.service(name)
            serial = PlanningService(source.cluster, source.bandwidth)
            for job_name, batch in jobs:
                if job_name == name:
                    response = serial.plan(serial.request(toy_model, batch,
                                                          options=FAST))
                    references[(name, response.fingerprint)] = \
                        _payload_bytes(response.result.to_payload())
        assert len(answers) == len(jobs)
        for (name, batch), (status, _, body) in zip(jobs, answers):
            assert status == 200
            out = _json(body)
            request = registry.service(name).request(toy_model, batch,
                                                     options=FAST)
            assert _payload_bytes(out["result"]) == \
                references[(name, request.fingerprint())]


class TestLivenessUnderLoad:
    def test_healthz_and_metrics_answer_during_a_long_search(self,
                                                             toy_model):
        """The probes a supervisor relies on must never sit behind the
        executor: with a search parked on the drain thread, /healthz
        and /metrics still answer from the event loop — fast."""
        import threading
        import time

        registry = _registry()
        release = threading.Event()
        service = registry.service("alpha")
        original = service._search

        def slow_search(request):
            release.wait(timeout=30.0)
            return original(request)

        service._search = slow_search
        payload = {"model": "gpt-toy", "global_batch": 32,
                   "cluster": "alpha"}

        async def main():
            async with _Server(registry) as server:
                inflight = asyncio.ensure_future(
                    _request(server.port, "POST", "/v1/plan", payload))
                await asyncio.sleep(0.1)  # the search is now parked
                started = time.monotonic()
                health = await asyncio.wait_for(
                    _request(server.port, "GET", "/healthz"), timeout=2.0)
                metrics = await asyncio.wait_for(
                    _request(server.port, "GET", "/metrics"), timeout=2.0)
                probe_s = time.monotonic() - started
                assert not inflight.done()  # the search is still held
                release.set()
                plan = await inflight
                return health, metrics, probe_s, plan

        health, metrics, probe_s, plan = asyncio.run(main())
        assert health[0] == 200 and _json(health[2])["status"] == "ok"
        assert metrics[0] == 200
        parse_prometheus(metrics[2].decode())
        # Latency assertion: both probes answered while the executor
        # was occupied, nowhere near the wait_for guard.
        assert probe_s < 1.0
        assert plan[0] == 200 and _json(plan[2])["status"] == "miss"


class TestGracefulDrain:
    def test_drain_completes_inflight_and_closes_idle(self, toy_model):
        """serve's SIGTERM path in miniature: after drain() starts, the
        in-flight request is answered in full and idle keep-alive
        connections are closed without losing anything."""
        import threading

        registry = _registry()
        release = threading.Event()
        service = registry.service("alpha")
        original = service._search

        def slow_search(request):
            release.wait(timeout=30.0)
            return original(request)

        service._search = slow_search
        payload = {"model": "gpt-toy", "global_batch": 32,
                   "cluster": "alpha", "detail": True}

        async def main():
            async with _Server(registry) as server:
                # A busy connection: the plan request is mid-search
                # when the drain begins.
                busy = asyncio.ensure_future(
                    _request(server.port, "POST", "/v1/plan", payload))
                # An idle keep-alive connection: connected, no request.
                idle_reader, idle_writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                await asyncio.sleep(0.1)

                server.server.close()  # stop accepting, as serve does
                drain = asyncio.ensure_future(server.front.drain())
                await asyncio.sleep(0.1)
                assert not drain.done()  # held open by the busy request
                release.set()
                await asyncio.wait_for(drain, timeout=10.0)
                status, _, body = await busy
                idle_eof = await idle_reader.read(1)
                idle_writer.close()
                return status, body, idle_eof

        status, body, idle_eof = asyncio.run(main())
        assert status == 200
        out = _json(body)
        assert out["status"] == "miss"
        assert "result" in out  # the full answer, not a truncation
        assert idle_eof == b""  # idle connection closed by the drain

    def test_healthz_reports_draining(self):
        async def main():
            async with _Server(_registry()) as server:
                before = await _request(server.port, "GET", "/healthz")
                server.front._draining = True
                after = await _request(server.port, "GET", "/healthz")
                return before, after

        (s1, _, b1), (s2, _, b2) = asyncio.run(main())
        assert s1 == s2 == 200
        assert _json(b1)["status"] == "ok"
        assert _json(b2)["status"] == "draining"

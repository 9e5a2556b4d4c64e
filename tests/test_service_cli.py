"""CLI behaviours that must stay friendly: store errors, serve protocol."""

import asyncio
import json

import pytest

from repro.cluster import Fabric, HeterogeneityModel, NetworkProfiler
from repro.cluster.topology import ClusterSpec, GpuSpec, LinkSpec, NodeSpec
from repro.core import PipetteOptions
from repro.service import ClusterRegistry, PlanGateway, PlanStore
from repro.service.__main__ import _handle_line, main
from repro.units import GIB

FAST = PipetteOptions(use_worker_dedication=False)


class TestStoreErrorsExitCleanly:
    """A corrupt or contended store is one stderr line + exit 2.

    Regression: a store whose records decode to non-objects used to
    escape as a raw AttributeError traceback; schema mismatches and
    lock contention must land in the same friendly handler.
    """

    def _plan_args(self, path):
        return ["plan", "--nodes", "2", "--global-batch", "32",
                "--sa-iterations", "60", "--store-path", str(path)]

    def test_mismatched_schema_header(self, tmp_path, capsys):
        path = tmp_path / "plans.jsonl"
        path.write_text('{"kind": "header", "schema": 999}\n')
        assert main(self._plan_args(path)) == 2
        err = capsys.readouterr().err
        assert "store error:" in err
        assert "schema" in err
        assert "Traceback" not in err

    def test_non_object_record(self, tmp_path, capsys):
        path = tmp_path / "plans.jsonl"
        path.write_text('{"kind": "header", "schema": 1}\n42\n')
        assert main(self._plan_args(path)) == 2
        err = capsys.readouterr().err
        assert "store error:" in err
        assert "not a plan-store record" in err
        assert "Traceback" not in err

    def test_foreign_file(self, tmp_path, capsys):
        path = tmp_path / "plans.jsonl"
        path.write_text('{"not": "a header"}\n')
        assert main(self._plan_args(path)) == 2
        err = capsys.readouterr().err
        assert "store error:" in err and "header" in err

    def test_locked_store(self, tmp_path, capsys, monkeypatch):
        import repro.service.__main__ as cli

        path = tmp_path / "plans.jsonl"
        real_cache = cli.DurablePlanCache
        monkeypatch.setattr(
            cli, "DurablePlanCache",
            lambda p: real_cache(PlanStore(p, lock_timeout_s=0.05)))
        holder = PlanStore(path)
        with holder.lock():
            assert main(self._plan_args(path)) == 2
        err = capsys.readouterr().err
        assert "store error:" in err
        assert "single-writer" in err
        assert "Traceback" not in err


def _tiny_registry() -> ClusterRegistry:
    gpu = GpuSpec(name="CLI-GPU", memory_bytes=4 * GIB, peak_flops=10e12,
                  achievable_fraction=0.5, hbm_gb_s=500.0)
    node = NodeSpec(gpus_per_node=4, gpu=gpu,
                    intra_link=LinkSpec("NVL", 100.0, alpha_s=1e-6))
    cluster = ClusterSpec(name="cli", n_nodes=2, node=node,
                          inter_link=LinkSpec("IB", 10.0, alpha_s=1e-5))
    fabric = Fabric(cluster, heterogeneity=HeterogeneityModel(), seed=5)
    bandwidth = NetworkProfiler(n_rounds=2).profile(fabric, seed=5).bandwidth
    registry = ClusterRegistry()
    registry.add_cluster("cli", cluster, bandwidth)
    return registry


class TestServeProtocol:
    def _serve(self, lines):
        registry = _tiny_registry()
        outputs = []

        async def write_line(text):
            outputs.append(text)

        async def scenario():
            async with PlanGateway(registry) as gateway:
                await asyncio.gather(*(
                    _handle_line(gateway, FAST, line, i + 1, write_line)
                    for i, line in enumerate(lines)))

        asyncio.run(scenario())
        return [json.loads(text) for text in outputs]

    def test_pinned_request_answered(self):
        [answer] = self._serve([json.dumps(
            {"id": "job-1", "model": "gpt-toy", "global_batch": 32,
             "cluster": "cli"})])
        assert answer["id"] == "job-1"
        assert answer["cluster"] == "cli"
        assert answer["status"] == "miss"
        assert "config" in answer and "latency_s" in answer

    def test_unpinned_request_fans_to_cheapest(self):
        [answer] = self._serve([json.dumps(
            {"model": "gpt-toy", "global_batch": 32})])
        assert answer["cluster"] == "cli"
        assert answer["status"] == "miss"

    def test_bad_lines_are_error_answers_not_crashes(self):
        answers = self._serve([
            "{broken json",
            json.dumps({"global_batch": 32}),              # no model
            json.dumps({"model": "no-such-model"}),
            json.dumps(["not", "an", "object"]),
            json.dumps({"model": "gpt-toy", "cluster": "nope"}),
            # Wrongly-typed fields must answer, not vanish silently.
            json.dumps({"model": "gpt-toy", "micro_batches": 5}),
            json.dumps({"model": "gpt-toy", "global_batch": None}),
        ])
        assert len(answers) == 7  # every request line got an answer
        assert all(a["status"] == "error" for a in answers)
        assert all(a.get("error") for a in answers)

    def test_mistyped_fields_are_error_lines(self):
        answers = self._serve([
            json.dumps({"model": "gpt-toy", "cluster": "cli", **fields})
            for fields in ({"micro_batches": "16"}, {"global_batch": True},
                           {"global_batch": 32.9}, {"detail": "false"},
                           {"detail": 1})])
        assert len(answers) == 5
        assert all(a["status"] == "error" for a in answers)
        assert sorted(a["error"].split()[0] for a in answers) == \
            ["detail", "detail", "global_batch", "global_batch",
             "micro_batches"]

    def test_duplicate_concurrent_requests_coalesce(self):
        line = json.dumps({"model": "gpt-toy", "global_batch": 32,
                           "cluster": "cli"})
        answers = self._serve([line, line, line])
        statuses = sorted(a["status"] for a in answers)
        assert statuses == ["coalesced", "coalesced", "miss"]

    def test_serve_parser_wired(self):
        from repro.service.__main__ import build_parser

        args = build_parser().parse_args(
            ["serve", "--clusters", "mid-range:1", "--overflow", "reject",
             "--max-queue-depth", "3"])
        assert args.overflow == "reject"
        assert args.max_queue_depth == 3
        assert args.http is None
        # HTTP is the only socket transport; --port must not parse
        # (not even as a prefix of --portfolio-k).
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--port", "7070"])
        # Lanes drain one request at a time in client round-robin
        # order: there is no batch size or queue policy to pick.
        for flag in (["--max-batch", "4"], ["--fairness", "fifo"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["serve", *flag])


class TestTraceLimit:
    """``trace --limit N`` prints the last N traces; N < 1 is refused."""

    def _dump(self, tmp_path):
        path = tmp_path / "trace-1.jsonl"
        path.write_text("".join(
            json.dumps({"trace_id": trace_id, "span_id": f"{trace_id}-root",
                        "parent_id": None, "name": "http.request",
                        "start_ts": float(i), "duration_ms": 1.0}) + "\n"
            for i, trace_id in enumerate(("older", "newer"))))
        return path

    def test_limit_one_prints_the_newest_trace(self, tmp_path, capsys):
        assert main(["trace", str(self._dump(tmp_path)), "--limit", "1"]) == 0
        headers = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("trace ")]
        assert headers == ["trace newer  (1 spans)"]

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_limit_below_one_is_an_error(self, tmp_path, capsys, limit):
        assert main(["trace", str(self._dump(tmp_path)),
                     "--limit", limit]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --limit must be >= 1")


class TestExecutorWidth:
    """An executor width below -1 is refused with exit 2 at parse time.

    Regression: every negative ``--workers`` used to mean "all usable
    CPUs", though only -1 is documented.
    """

    @pytest.mark.parametrize("command", ["plan", "serve"])
    def test_workers_below_minus_one(self, command, capsys, monkeypatch):
        import repro.service.__main__ as cli

        built = []
        monkeypatch.setattr(cli, "_build_service", built.append)
        monkeypatch.setattr(cli, "_build_registry", built.append)
        with pytest.raises(SystemExit) as exc:
            main([command, "--workers", "-7"])
        assert exc.value.code == 2
        assert built == []
        assert "--workers: must be >= -1" in capsys.readouterr().err

    def test_fleet_executor_workers_below_minus_one(self, capsys,
                                                    monkeypatch):
        import repro.service.__main__ as cli

        spawned = []
        monkeypatch.setattr(cli, "FleetSupervisor",
                            lambda *a, **k: spawned.append(a))
        with pytest.raises(SystemExit) as exc:
            main(["fleet", "--executor-workers", "-2"])
        assert exc.value.code == 2
        assert spawned == []
        assert "--executor-workers: must be >= -1" in capsys.readouterr().err

    def test_documented_widths_parse(self):
        from repro.service.__main__ import build_parser

        for width in (-1, 0, 3):
            assert build_parser().parse_args(
                ["plan", "--workers", str(width)]).workers == width
            assert build_parser().parse_args(
                ["fleet", "--executor-workers", str(width)]
            ).executor_workers == width

"""Planning benchmark: one command, three workloads, every answer checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-search --seed 1 \
        --seconds 20 --trace 0

Runs one workload in this process against the planner in ``src/``,
prints one line per metric (name, value, unit, sample count) and, as
the last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics; ``--trace
1`` follows the timed loop with half as much work again, traced and with
the per-layer wrappers installed, and reports the per-layer metrics.  ``--seconds``
sizes a fixed amount of work (about that long on a 2-core x86 host);
no loop ever watches the clock.  ``--smoke`` shrinks every workload to
tiny presets and budgets.  Any failed check exits 1.  See README.md.
"""

from __future__ import annotations

import time

# set-up time is measured from before the first ``repro`` import
T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metrics every workload reports with ``--trace 0``.
END_TO_END = (
    ("setup_s", "s"),
    ("plan_s.p50", "s"),
    ("plans_per_s", "1/s"),
    ("plan_iter_s", "s"),
    ("sim_iter_s", "s"),
    ("peak_rss_mb", "MiB"),
)

#: Set-ups per run; ``setup_s`` reports the median one.
SETUP_REPEATS = 3

WORKLOADS = ("cold-search", "serve-hot", "elastic-churn")


class Context:
    """What a workload's ``run(ctx)`` gets: arguments, gate, and helpers."""

    def __init__(self, args, failures, import_s: float) -> None:
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.smoke = args.smoke
        self.workload = args.workload
        self.failures = failures
        self.import_s = import_s
        self.probe = None
        self.repeats = 1 if args.smoke else SETUP_REPEATS

    def _summarize(self, durations, timings):
        setup = {key: statistics.median(t[key] for t in timings)
                 for key in timings[0]}
        setup["import_s"] = self.import_s
        return self.import_s + statistics.median(durations), setup

    def repeat_setup(self, make):
        """Set up several times; keep the last state, report the median."""
        durations, timings = [], []
        for _ in range(self.repeats):
            state = None  # the previous set-up is released before the next
            t0 = time.perf_counter()
            state, timing = make()
            durations.append(time.perf_counter() - t0)
            timings.append(timing)
        return (state, *self._summarize(durations, timings))

    async def repeat_setup_async(self, make, close):
        """:meth:`repeat_setup` for set-ups that start servers."""
        durations, timings, state = [], [], None
        for _ in range(self.repeats):
            if state is not None:
                await close(state)
            t0 = time.perf_counter()
            state, timing = await make()
            durations.append(time.perf_counter() - t0)
            timings.append(timing)
        return (state, *self._summarize(durations, timings))

    @staticmethod
    def traced_size(count: int) -> int:
        """Rounds or cycles of the traced loop: half the untraced loop's.

        Per-layer metrics are per-call means, so half the work gives the
        same figures while keeping a traced run well inside its time
        limit on a slow host.
        """
        return max(1, count // 2)

    def _begin_trace(self):
        from layers import LayerProbe
        from repro.obs.trace import TRACER

        self.probe = LayerProbe()
        self.probe.install()
        TRACER.reset()
        TRACER.enable()
        return self.probe

    def _end_trace(self):
        from repro.obs.trace import TRACER

        TRACER.disable()
        self.probe.uninstall()
        self.probe.harvest()

    def traced(self, loop):
        """Run ``loop(probe)`` with tracing on and the wrappers installed."""
        probe = self._begin_trace()
        try:
            return loop(probe)
        finally:
            self._end_trace()

    async def traced_async(self, loop):
        probe = self._begin_trace()
        try:
            return await loop(probe)
        finally:
            self._end_trace()


def _line(name, value, unit, note="") -> None:
    print(f"{name:<32} {value:>16.6g} {unit:<6} {note}")


def end_to_end(result: dict, ctx: Context) -> dict:
    from common import geomean, peak_rss_mb

    timed = result["untraced"]
    values = {"setup_s": result["setup_s"],
              "plan_s.p50": timed["plan_s.p50"],
              "plans_per_s": timed["plans_per_s"],
              "plan_iter_s": geomean(result["predicted"]),
              "sim_iter_s": geomean(result["simulated"]),
              "peak_rss_mb": peak_rss_mb()}
    notes = {"setup_s": f"median of {ctx.repeats} set-ups + imports",
             "plan_s.p50": f"n={timed['n']}",
             "plans_per_s": f"n={timed['n'] + len(timed.get('replan_s', []))}",
             "plan_iter_s": f"n={len(result['predicted'])} distinct plans",
             "sim_iter_s": f"n={len(result['simulated'])} simulated plans"}
    for name, unit in END_TO_END:
        _line(name, values[name], unit, notes.get(name, ""))
    if timed["tail"] is not None:
        pct, value, beyond = timed["tail"]
        _line("plan_s.tail", value, "s",
              f"p{pct:g}, n={timed['n']}, {beyond} beyond")
    else:
        print(f"plan_s.tail: not reported, n={timed['n']} is too few")
    if "replan_s" in timed:
        _line("replan_s.p50", statistics.median(timed["replan_s"]), "s",
              f"n={len(timed['replan_s'])}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def per_layer(result: dict, ctx: Context) -> dict:
    traced, untraced = result["traced"], result["untraced"]
    overhead = traced["plan_s.p50"] / untraced["plan_s.p50"] - 1
    print(f"plan_s.p50 untraced {untraced['plan_s.p50']:.6g} s "
          f"(n={untraced['n']}), traced {traced['plan_s.p50']:.6g} s "
          f"(n={traced['n']})")
    probe = ctx.probe
    metrics = probe.metrics(
        setup=result["setup"],
        roundtrip_s=traced.get("roundtrip_s", []),
        response_bytes=traced.get("response_bytes", []),
        rejected=result.get("rejected", 0), overhead_ratio=overhead)
    ctx.failures.check(
        probe.flight_iterations() == probe.search_iterations,
        f"flight recorders saw {probe.flight_iterations()} SA iterations, "
        f"the annealer ran {probe.search_iterations}")
    for name, metric in metrics.items():
        _line(name, metric["value"], metric["unit"])
    out = ROOT / ".perfbench_out" \
        / f"spans-{ctx.workload}-seed{ctx.seed}.jsonl"
    probe.write_spans(out)
    print(f"{len(probe.spans)} spans written to "
          f"{out.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny presets and budgets (for the tests)")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: no planner source at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    try:
        import repro.service  # noqa: F401
        from common import Failures
        workload = importlib.import_module(args.workload.replace("-", "_"))
        if args.trace:
            import layers  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the planner from {src}: {exc}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START

    failures = Failures()
    ctx = Context(args, failures, import_s)
    result = workload.run(ctx)
    metrics = per_layer(result, ctx) if args.trace \
        else end_to_end(result, ctx)
    ratio = failures.failed / max(failures.attempted, 1)
    _line("fail_ratio", ratio, "1",
          f"{failures.failed} of {failures.attempted} checks failed")
    for reason in failures.reasons:
        print(f"FAILED: {reason}")
    print(json.dumps({"correct": failures.failed == 0,
                      "attempted": failures.attempted,
                      "failed": failures.failed,
                      "metrics": metrics}))
    return 0 if failures.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Prometheus-text-format metrics for the serving stack, stdlib only.

A planning service that answers live traffic needs to be *observable*:
an operator watching ``GET /metrics`` must be able to tell how many
requests each cluster answered (and how — cache hit, fresh search,
coalesced, rejected), how deep the lanes are queued, and where the
latency distribution sits, without attaching a debugger to the
gateway.  This module supplies the minimal instrument set the serving
stack needs — :class:`Counter`, :class:`Gauge`, :class:`Histogram`,
collected in a :class:`MetricsRegistry` that renders the Prometheus
text exposition format (version 0.0.4) — with no dependency beyond
the standard library.

Two ways to feed an instrument:

* **event-driven** — call :meth:`Counter.inc` / :meth:`Histogram.observe`
  at the moment something happens.  The gateway uses this for
  per-request outcomes and latency, which exist nowhere else.
* **pull-bound** — :meth:`Counter.bind` / :meth:`Gauge.set_function`
  attach a zero-argument callable that is read at scrape time.  The
  cache, service, and gateway counters that already live in
  ``CacheStats`` / ``GatewayStats`` are exported this way, so the
  ``/metrics`` page and the in-process stats objects *cannot*
  disagree — they are the same numbers (see
  ``tests/test_service_metrics.py`` for the regression contract).

Instruments are identified by name: asking the registry for an
existing name returns the existing family (so every cluster's cache
can attach to one ``pipette_cache_hits_total`` family under its own
``cluster`` label), while a name re-registered with a different kind
or label set raises.  All instruments are thread-safe — drain threads
and the event loop increment them concurrently.

The full catalog of series exported by the serving stack, with labels
and meanings, is documented in ``docs/SERVING.md``.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "merge_expositions",
]

#: Histogram bucket bounds (seconds) used for plan latency: the low
#: end resolves cache hits and transport overhead (milliseconds), the
#: high end resolves cold Algorithm-1 searches (tens of seconds).
DEFAULT_LATENCY_BUCKETS = (0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
                           0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class MetricsError(ValueError):
    """An instrument was misused (bad name, conflicting registration)."""


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    """One sample value in exposition format (integers stay integral)."""
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _render_labels(pairs: "tuple[tuple[str, str], ...]") -> str:
    if not pairs:
        return ""
    inner = ",".join(f'{name}="{_escape_label(value)}"'
                     for name, value in pairs)
    return "{" + inner + "}"


class _Child:
    """One labeled time series of a family; value or pull-callback."""

    __slots__ = ("_lock", "_value", "_fn")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0
        self._fn = None

    @property
    def value(self) -> float:
        """Current sample value (calls the bound function, if any)."""
        if self._fn is not None:
            return float(self._fn())
        with self._lock:
            return self._value


class _CounterChild(_Child):
    """A monotonically increasing series."""

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise MetricsError(f"counters only go up; inc({amount})")
        with self._lock:
            self._value += amount

    def bind(self, fn) -> "_CounterChild":
        """Read this series from ``fn()`` at scrape time instead.

        The callable must be monotonic for the series to behave as a
        Prometheus counter; binding the same child twice (two owners
        claiming one series) raises.
        """
        with self._lock:
            if self._fn is not None:
                raise MetricsError("series is already bound to a callback")
            self._fn = fn
        return self


class _GaugeChild(_Child):
    """A series that can go up and down, or mirror a live value."""

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative) to the gauge."""
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` from the gauge."""
        self.inc(-amount)

    def set_function(self, fn) -> "_GaugeChild":
        """Read this series from ``fn()`` at scrape time (live view)."""
        with self._lock:
            if self._fn is not None:
                raise MetricsError("series is already bound to a callback")
            self._fn = fn
        return self


class _HistogramChild:
    """One labeled latency/size distribution (cumulative buckets)."""

    __slots__ = ("_lock", "_bounds", "_counts", "_sum")

    def __init__(self, lock: threading.Lock,
                 bounds: "tuple[float, ...]") -> None:
        self._lock = lock
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1 for the +Inf bucket
        self._sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = bisect_left(self._bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value

    @property
    def count(self) -> int:
        """Total observations recorded."""
        with self._lock:
            return sum(self._counts)

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        with self._lock:
            return self._sum

    def _snapshot(self) -> "tuple[list[int], float]":
        with self._lock:
            return list(self._counts), self._sum


class _Family:
    """A named metric with zero or more labeled children.

    Families are created through :class:`MetricsRegistry`; a family
    with no label names owns a single default child and proxies the
    child's mutators (``counter.inc()`` works without ``labels()``).
    """

    kind = "untyped"

    def __init__(self, name: str, documentation: str,
                 labelnames: "tuple[str, ...]") -> None:
        if not _NAME_RE.match(name):
            raise MetricsError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label) or label.startswith("__"):
                raise MetricsError(f"invalid label name {label!r}")
        if len(set(labelnames)) != len(labelnames):
            raise MetricsError(f"duplicate label names in {labelnames}")
        self.name = name
        self.documentation = documentation
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: "dict[tuple[str, ...], object]" = {}
        if not self.labelnames:
            self._children[()] = self._make_child()

    def _make_child(self):
        raise NotImplementedError

    def labels(self, **labelvalues):
        """The child series for exactly this label assignment.

        An existing child is found by its label-value tuple without
        the lock: a call of the right length whose every name is known
        builds its key, and only a missing child takes the lock to
        create one.  Wrong, missing or extra names never build a key,
        so they reach the name check on every call.
        """
        if len(labelvalues) == len(self.labelnames):
            try:
                key = tuple(str(labelvalues[name])
                            for name in self.labelnames)
            except KeyError:
                pass
            else:
                child = self._children.get(key)
                if child is None:
                    with self._lock:
                        child = self._children.get(key)
                        if child is None:
                            child = self._children[key] = self._make_child()
                return child
        raise MetricsError(
            f"{self.name} takes labels {self.labelnames}, "
            f"got {tuple(labelvalues)}")

    def _default(self):
        if self.labelnames:
            raise MetricsError(
                f"{self.name} is labeled by {self.labelnames}; "
                "select a series with labels() first")
        return self._children[()]

    def _items(self) -> "list[tuple[tuple[tuple[str, str], ...], object]]":
        with self._lock:
            return [(tuple(zip(self.labelnames, key)), child)
                    for key, child in self._children.items()]

    def _sample_lines(self) -> "list[str]":
        return [f"{self.name}{_render_labels(pairs)} "
                f"{_format_value(child.value)}"
                for pairs, child in self._items()]


class Counter(_Family):
    """A monotonically increasing metric family.

    Feed it with :meth:`inc` per event, or :meth:`bind` a callable
    reading an existing monotonic counter (e.g. a ``CacheStats``
    field) so the exposition can never drift from the source.
    """

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild(self._lock)

    def inc(self, amount: float = 1.0) -> None:
        """Increment the (unlabeled) default series."""
        self._default().inc(amount)

    def bind(self, fn) -> _CounterChild:
        """Pull-bind the (unlabeled) default series to ``fn()``."""
        return self._default().bind(fn)

    @property
    def value(self) -> float:
        """Current value of the (unlabeled) default series."""
        return self._default().value


class Gauge(_Family):
    """A metric family whose series can rise and fall."""

    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild(self._lock)

    def set(self, value: float) -> None:
        """Set the (unlabeled) default series."""
        self._default().set(value)

    def inc(self, amount: float = 1.0) -> None:
        """Increment the (unlabeled) default series."""
        self._default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        """Decrement the (unlabeled) default series."""
        self._default().dec(amount)

    def set_function(self, fn) -> _GaugeChild:
        """Pull-bind the (unlabeled) default series to ``fn()``."""
        return self._default().set_function(fn)

    @property
    def value(self) -> float:
        """Current value of the (unlabeled) default series."""
        return self._default().value


class Histogram(_Family):
    """A distribution family with cumulative buckets.

    Args:
        buckets: ascending upper bounds; a ``+Inf`` bucket is always
            appended.  Defaults to :data:`DEFAULT_LATENCY_BUCKETS`.
    """

    kind = "histogram"

    def __init__(self, name: str, documentation: str,
                 labelnames: "tuple[str, ...]" = (),
                 buckets: "tuple[float, ...]" = DEFAULT_LATENCY_BUCKETS,
                 ) -> None:
        bounds = tuple(float(b) for b in buckets if not math.isinf(b))
        if not bounds:
            raise MetricsError("histogram needs at least one finite bucket")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise MetricsError(
                f"histogram buckets must be strictly ascending: {buckets}")
        if "le" in labelnames:
            raise MetricsError("'le' is reserved for histogram buckets")
        self.buckets = bounds
        super().__init__(name, documentation, labelnames)

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self._lock, self.buckets)

    def observe(self, value: float) -> None:
        """Record one observation on the (unlabeled) default series."""
        self._default().observe(value)

    def _sample_lines(self) -> "list[str]":
        lines = []
        for pairs, child in self._items():
            counts, total = child._snapshot()
            cumulative = 0
            for bound, count in zip(self.buckets, counts):
                cumulative += count
                bucket_pairs = pairs + (("le", _format_value(bound)),)
                lines.append(f"{self.name}_bucket"
                             f"{_render_labels(bucket_pairs)} {cumulative}")
            cumulative += counts[-1]
            inf_pairs = pairs + (("le", "+Inf"),)
            lines.append(f"{self.name}_bucket{_render_labels(inf_pairs)} "
                         f"{cumulative}")
            lines.append(f"{self.name}_sum{_render_labels(pairs)} "
                         f"{_format_value(total)}")
            lines.append(f"{self.name}_count{_render_labels(pairs)} "
                         f"{cumulative}")
        return lines


class MetricsRegistry:
    """Named instruments behind one ``/metrics`` page.

    The registry is the unit of exposition: everything the serving
    stack attaches to one registry renders as one Prometheus text
    document (:meth:`render`), in registration order.  Asking for an
    instrument that already exists returns the existing family when
    the kind and label names match, so independent components can
    share a family and differ only in label values; a mismatch raises
    :class:`MetricsError` rather than silently forking the series.
    """

    #: Content-Type of the rendered exposition, for HTTP servers.
    CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: "dict[str, _Family]" = {}

    def _get_or_register(self, cls, name: str, documentation: str,
                         labelnames: "tuple[str, ...]", **kwargs) -> _Family:
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if type(existing) is not cls \
                        or existing.labelnames != tuple(labelnames):
                    raise MetricsError(
                        f"metric {name!r} is already registered as a "
                        f"{existing.kind} with labels {existing.labelnames}")
                return existing
            family = cls(name, documentation, tuple(labelnames), **kwargs)
            self._families[name] = family
            return family

    def counter(self, name: str, documentation: str,
                labelnames: "tuple[str, ...]" = ()) -> Counter:
        """Get or register a :class:`Counter` family."""
        return self._get_or_register(Counter, name, documentation, labelnames)

    def gauge(self, name: str, documentation: str,
              labelnames: "tuple[str, ...]" = ()) -> Gauge:
        """Get or register a :class:`Gauge` family."""
        return self._get_or_register(Gauge, name, documentation, labelnames)

    def histogram(self, name: str, documentation: str,
                  labelnames: "tuple[str, ...]" = (),
                  buckets: "tuple[float, ...]" = DEFAULT_LATENCY_BUCKETS,
                  ) -> Histogram:
        """Get or register a :class:`Histogram` family."""
        return self._get_or_register(Histogram, name, documentation,
                                     labelnames, buckets=buckets)

    def get(self, name: str) -> "_Family | None":
        """The registered family under ``name``, if any."""
        with self._lock:
            return self._families.get(name)

    def render(self) -> str:
        """The whole registry in Prometheus text exposition format."""
        with self._lock:
            families = list(self._families.values())
        lines = []
        for family in families:
            lines.append(f"# HELP {family.name} "
                         f"{_escape_help(family.documentation)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            lines.extend(family._sample_lines())
        return "\n".join(lines) + "\n"


# ------------------------------------------------------- fleet aggregation

_MERGE_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})?\s(.+)$")
_HISTOGRAM_SUFFIX_RE = re.compile(r"_(bucket|sum|count)$")


def merge_expositions(pages, label: str = "worker") -> str:
    """Merge several Prometheus pages into one labeled exposition.

    The fleet router's ``GET /metrics`` problem: every worker renders
    the same families (``pipette_requests_total``, ...), and a valid
    exposition declares each family's ``# HELP``/``# TYPE`` exactly
    once with all its samples grouped together.  This function takes
    ``(label value, page text)`` pairs — one per worker — injects
    ``label="value"`` as the first label of every sample, and regroups
    samples under a single declaration per family (the first page's
    wording wins), so the merged page is scrapeable and per-worker
    series stay distinguishable.

    Samples must not already carry ``label`` (the router guarantees
    this: workers know nothing of their shard index); a malformed
    sample line raises :class:`MetricsError` rather than producing an
    exposition a scraper would reject.  Families keep first-seen
    order, which keeps merged pages stable across scrapes.
    """
    if not _LABEL_RE.match(label):
        raise MetricsError(f"invalid merge label name {label!r}")
    families: "dict[str, dict]" = {}
    for value, text in pages:
        escaped = _escape_label(str(value))
        current = None
        for line in text.splitlines():
            if not line.strip():
                continue
            if line.startswith("# HELP "):
                name = line.split(None, 3)[2]
                family = families.setdefault(
                    name, {"help": None, "type": None, "samples": []})
                if family["help"] is None:
                    family["help"] = line
                continue
            if line.startswith("# TYPE "):
                name = line.split(None, 3)[2]
                family = families.setdefault(
                    name, {"help": None, "type": None, "samples": []})
                if family["type"] is None:
                    family["type"] = line
                current = name
                continue
            if line.startswith("#"):
                continue  # other comments carry no samples
            match = _MERGE_SAMPLE_RE.match(line)
            if match is None:
                raise MetricsError(f"malformed sample line {line!r}")
            name, labels, sample_value = match.groups()
            if name in families:
                family_name = name
            elif _HISTOGRAM_SUFFIX_RE.sub("", name) in families:
                family_name = _HISTOGRAM_SUFFIX_RE.sub("", name)
            elif current is not None:
                family_name = current
            else:
                raise MetricsError(
                    f"sample {name!r} has no preceding # TYPE")
            if labels:
                relabeled = f'{{{label}="{escaped}",{labels[1:-1]}}}'
            else:
                relabeled = f'{{{label}="{escaped}"}}'
            families[family_name]["samples"].append(
                f"{name}{relabeled} {sample_value}")
    lines = []
    for name, family in families.items():
        if family["help"] is not None:
            lines.append(family["help"])
        if family["type"] is not None:
            lines.append(family["type"])
        lines.extend(family["samples"])
    return "\n".join(lines) + "\n" if lines else ""

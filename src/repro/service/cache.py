"""Canonical request fingerprinting and the LRU plan cache.

A production planner answers the same question many times: the same
model on the same cluster at the same batch size, asked by every job
of a training campaign.  Re-running Algorithm 1 for each request wastes
minutes of search; the service instead keys each request by a *stable
content hash* of everything that determines the answer and serves
repeats from an LRU store.

Cached plans are only as fresh as the bandwidth matrix they were
searched against, so every entry records the matrix fingerprint
(:meth:`repro.cluster.fabric.BandwidthMatrix.fingerprint`) of its
epoch.  A re-profiled fabric that drifted (Fig. 3) or lost a node gets
a new fingerprint, and lookups against the new epoch retire the stale
entries instead of returning them.

:func:`parse_plan_payload` is the one reader of a plan request's JSON
fields; every transport and the fleet router go through it.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, fields, is_dataclass, replace

from repro.cluster.topology import ClusterSpec
from repro.core.configurator import PipetteOptions, PipetteResult
from repro.model.transformer import TransformerConfig
from repro.units import GIB


#: Instance-``__dict__`` key of a deeply frozen dataclass's memoised
#: canonical JSON text.
_CANONICAL = "_canonical_memo"

#: Per dataclass type: ``(steps, tail, frozen)``.  ``steps`` pairs each
#: compared field's name with the constant text written before its
#: value (separator, ``json.dumps(key) + ": "``, and the class tag when
#: it sorts first); ``tail`` closes the object; ``frozen`` is the
#: type's own ``frozen`` flag.
_LAYOUTS: "dict[type, tuple]" = {}


def canonical_json(obj) -> str:
    """The canonical JSON text of ``obj``: the request-hashing encoder.

    Dataclasses encode as ``{"__class__": class name, field: value}``
    objects, keys sorted (fields excluded from comparison, like
    :attr:`ClusterSpec.description`, are skipped: cosmetic text must
    not split cache keys); tuples and lists encode as arrays; ``str``,
    ``int``, ``float``, ``bool`` and ``None`` as JSON leaves.  The text
    is what ``json.dumps(value, sort_keys=True)`` (default separators,
    ASCII) renders for that type-tagged reduction, so two different
    dataclasses with equal field values never collide.  Any other type
    raises ``TypeError``.

    Memoised, frozen-only: a frozen dataclass whose fields are all
    frozen too (frozen dataclasses, tuples, scalars; no list, no
    mutable dataclass) keeps its text on the instance, so a long-lived
    :class:`ClusterSpec`, :class:`TransformerConfig` or
    :class:`PipetteOptions` is encoded once per object and a fresh
    request encodes only its own fields.  The memo is keyed by
    identity, never by equality (``1 == 1.0`` and ``0.0 == -0.0``
    encode differently), and a frozen object cannot change under it.
    """
    return _encode(obj)[0]


def _encode(obj) -> "tuple[str, bool]":
    """``(canonical JSON text, deeply frozen)`` of ``obj``."""
    cls = type(obj)
    if cls is int:
        return int.__repr__(obj), True
    if obj is None:
        return "null", True
    if cls is bool:
        return ("true" if obj else "false"), True
    layout = _LAYOUTS.get(cls)
    if layout is None and is_dataclass(cls):
        layout = _LAYOUTS[cls] = _layout(cls)
    if layout is not None:
        state = getattr(obj, "__dict__", None)
        if state is not None:
            text = state.get(_CANONICAL)
            if text is not None:
                return text, True
        steps, tail, frozen = layout
        parts = []
        for prefix, name in steps:
            text, member_frozen = _encode(getattr(obj, name))
            parts.append(prefix)
            parts.append(text)
            frozen = frozen and member_frozen
        parts.append(tail)
        text = "".join(parts)
        if frozen and state is not None:
            state[_CANONICAL] = text
        return text, frozen
    if isinstance(obj, (list, tuple)):
        frozen = isinstance(obj, tuple)
        texts = []
        for member in obj:
            text, member_frozen = _encode(member)
            texts.append(text)
            frozen = frozen and member_frozen
        return "[" + ", ".join(texts) + "]", frozen
    if isinstance(obj, (str, int, float)):
        return json.dumps(obj), True
    raise TypeError(f"cannot canonicalize {cls.__name__} for hashing")


def _layout(cls: type) -> tuple:
    """The dataclass ``cls``'s key layout (see :data:`_LAYOUTS`)."""
    class_tag = f"{json.dumps('__class__')}: {json.dumps(cls.__name__)}"
    keys = sorted(["__class__"] + [f.name for f in fields(cls) if f.compare])
    steps = []
    pending = "{"
    for index, key in enumerate(keys):
        if index:
            pending += ", "
        if key == "__class__":
            pending += class_tag
        else:
            steps.append((pending + json.dumps(key) + ": ", key))
            pending = ""
    return tuple(steps), pending + "}", cls.__dataclass_params__.frozen


def sorted_unique(values) -> tuple:
    """A swept set in canonical form: sorted, duplicates dropped.

    ``[4, 2, 2]`` and ``(2, 4)`` ask one question.  :class:`PlanRequest`
    and the fleet's :func:`~repro.service.shard.routing_key` both
    canonicalize through here, so a cache entry and a shard always
    agree on what "the same set" is.
    """
    return tuple(sorted(set(values)))


def payload_int(value, name: str) -> int:
    """``value`` read as an integer field of a JSON payload.

    An integer is a number with an integral value (``32``, ``32.0`` or
    a NumPy integer), returned as a plain ``int``.  A bool, a string or
    a fraction raises ``ValueError`` instead of being coerced: ``"16"``
    must not sweep micro-batches 1 and 6, and ``true`` must not plan
    for global batch 1.  :class:`PlanRequest` reads its integers
    through here too, so ``64`` and ``64.0`` share one fingerprint.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    # NumPy integers; checked last, as an ABC check is the slow one.
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def canonical_memory_limit(memory_limit_bytes) -> "int | float | None":
    """``memory_limit_bytes`` in the one form a request fingerprints.

    ``None`` (the GPU's physical memory) passes.  An integral number
    (an int, an integral float or a NumPy integer) becomes an ``int``,
    as :func:`payload_int` reads integers, so ``20 * GIB`` and
    ``20.0 * GIB`` share one fingerprint; any other finite positive
    real becomes a ``float``.  A bool or a
    string raises ``ValueError``: ``True`` is not a 1-byte limit.  So
    does a limit that is not finite and positive: an infinite limit
    would pass every candidate's memory check while still counting as
    a checked limit, and NaN compares false with everything.
    """
    value = memory_limit_bytes
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"memory_limit_bytes must be a number, got "
                         f"{value!r}")
    if not 0 < value < math.inf:  # NaN fails too
        raise ValueError(f"memory_limit_bytes must be finite and positive, "
                         f"got {value}")
    if isinstance(value, numbers.Integral):
        return int(value)
    value = float(value)
    return int(value) if value.is_integer() else value


def payload_number(value, name: str) -> float:
    """``value`` read as a numeric field of a JSON payload.

    Any JSON number; a bool or a string raises ``ValueError`` instead
    of being coerced (``true`` is not 1.0, ``"2"`` is not 2.0).  Range
    and finiteness are the caller's rules.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _string_field(payload: dict, name: str) -> "str | None":
    value = payload.get(name)
    if value is not None and not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


@dataclass(frozen=True)
class PlanFields:
    """The plan-request fields of one JSON payload, typed and normalized.

    Plain values only (no model catalog, no cluster spec), so the fleet
    router can parse, and refuse, a payload it could not plan itself.
    ``micro_batches`` and ``schedules`` are already in
    :func:`sorted_unique` form.
    """

    model: str
    global_batch: int
    micro_batches: "tuple[int, ...] | None" = None
    memory_limit_gib: float | None = None
    schedules: "tuple[str, ...] | None" = None
    portfolio_k: int | None = None
    cluster: str | None = None
    client_id: str | None = None

    def search_kwargs(self) -> dict:
        """The sweep restrictions as keyword arguments.

        Accepted alike by :meth:`PlanningService.request
        <repro.service.planner.PlanningService.request>` and
        :meth:`~repro.service.planner.PlanningService.warm_templates`.
        """
        kwargs: dict = {}
        if self.micro_batches is not None:
            kwargs["micro_batches"] = self.micro_batches
        if self.memory_limit_gib is not None:
            kwargs["memory_limit_bytes"] = self.memory_limit_gib * GIB
        if self.schedules is not None:
            kwargs["schedules"] = self.schedules
        return kwargs

    def request_kwargs(self, options: PipetteOptions) -> dict:
        """``options`` with this request's ``portfolio_k``, plus
        :meth:`search_kwargs`: the keyword arguments of both planning
        and template warm-up (``SAOptions`` refuses a bad depth).
        """
        if self.portfolio_k is not None:
            options = replace(options, sa=replace(
                options.sa, portfolio_k=self.portfolio_k))
        return {"options": options, **self.search_kwargs()}


def parse_plan_payload(payload) -> PlanFields:
    """The one reader of a plan request's wire fields.

    Every front end reads a plan payload through here: the worker's
    ``POST /v1/plan`` and stdin lines, ``POST /v1/templates/warm``,
    and the fleet router's shard key.  ``global_batch`` defaults to 64
    when absent; every other field may be absent or ``null``.
    Integers follow :func:`payload_int`, ``memory_limit_gib`` is a
    finite number > 0, list fields must be JSON arrays, names must be
    strings, ``"schedule"`` is one name or an array of names, and
    ``"detail"`` is ``true`` or ``false`` (it shapes the answer, not
    the plan, so only the transports read it).  A bad field raises
    ``ValueError``.
    """
    if not isinstance(payload, dict):
        raise ValueError("plan payload must be a JSON object")
    model = _string_field(payload, "model")
    if model is None:
        raise ValueError("request needs a 'model' (e.g. \"gpt-1.1b\")")
    micro_batches = payload.get("micro_batches")
    if micro_batches is not None:
        if not isinstance(micro_batches, list):
            raise ValueError(f"micro_batches must be an array of integers, "
                             f"got {micro_batches!r}")
        micro_batches = sorted_unique(
            payload_int(m, "micro_batches entry") for m in micro_batches)
    memory = payload.get("memory_limit_gib")
    if memory is not None:
        memory = payload_number(memory, "memory_limit_gib")
        if not 0 < memory < math.inf:
            raise ValueError(f"memory_limit_gib must be a finite number "
                             f"> 0, got {memory!r}")
    schedules = payload.get("schedule")
    if schedules is not None:
        if isinstance(schedules, str):
            schedules = [schedules]
        if not isinstance(schedules, list) \
                or not all(isinstance(s, str) for s in schedules):
            raise ValueError(f"schedule must be a name or an array of "
                             f"names, got {payload['schedule']!r}")
        schedules = sorted_unique(schedules)
    portfolio_k = payload.get("portfolio_k")
    detail = payload.get("detail")
    if detail is not None and not isinstance(detail, bool):
        raise ValueError(f"detail must be true or false, got {detail!r}")
    return PlanFields(
        model=model,
        global_batch=payload_int(payload.get("global_batch", 64),
                                 "global_batch"),
        micro_batches=micro_batches,
        memory_limit_gib=memory,
        schedules=schedules,
        portfolio_k=None if portfolio_k is None
        else payload_int(portfolio_k, "portfolio_k"),
        cluster=_string_field(payload, "cluster"),
        client_id=_string_field(payload, "client_id"),
    )


@dataclass(frozen=True)
class PlanRequest:
    """One planning question, in canonical, hashable form.

    Attributes:
        cluster: the nominal cluster to plan for.
        model: architecture to train.
        global_batch: ``bs_global``.
        memory_limit_bytes: ``M_limit``; ``None`` uses the cluster
            GPU's physical memory.  Normalized by
            :func:`canonical_memory_limit`, so an integral limit is an
            ``int`` whatever numeric type it arrived as.
        micro_batches: optional restriction of the swept microbatch
            sizes; normalized to a sorted, deduplicated tuple so
            ``[4, 2, 2]`` and ``(2, 4)`` produce one cache entry (and
            one enumeration of each configuration).
        options: search behaviour (annealing budget, top-k, seed, ...).
        schedules: optional pipeline-schedule names to sweep as an
            extra search dimension; normalized like ``micro_batches``
            (sorted, deduplicated) and validated against the schedule
            registry.  ``None`` sweeps 1F1B only — the paper's
            assumption and the pre-schedule behaviour.
    """

    cluster: ClusterSpec
    model: TransformerConfig
    global_batch: int
    memory_limit_bytes: "int | float | None" = None
    micro_batches: "tuple[int, ...] | None" = None
    options: PipetteOptions = field(default_factory=PipetteOptions)
    schedules: "tuple[str, ...] | None" = None

    def __post_init__(self) -> None:
        global_batch = payload_int(self.global_batch, "global_batch")
        if global_batch < 1:
            raise ValueError(f"global_batch must be >= 1, got {global_batch}")
        object.__setattr__(self, "global_batch", global_batch)
        if self.memory_limit_bytes is not None:
            object.__setattr__(
                self, "memory_limit_bytes",
                canonical_memory_limit(self.memory_limit_bytes))
        if self.micro_batches is not None:
            normalized = sorted_unique(payload_int(m, "micro_batches entry")
                                       for m in self.micro_batches)
            if not normalized:
                raise ValueError(
                    "micro_batches must not be empty; pass None to sweep "
                    "the default sizes"
                )
            if normalized[0] < 1:
                raise ValueError(
                    f"micro_batches entries must be >= 1, got "
                    f"{normalized[0]}"
                )
            object.__setattr__(self, "micro_batches", normalized)
        if self.schedules is not None:
            schedules = sorted_unique(str(s) for s in self.schedules)
            if not schedules:
                raise ValueError(
                    "schedules must not be empty; pass None to sweep the "
                    "default 1F1B schedule"
                )
            # Reject unknown names at request time — a typo must fail
            # the request, not a worker deep inside the search.
            from repro.sim.schedule import schedule_type

            for name in schedules:
                schedule_type(name)
            object.__setattr__(self, "schedules", schedules)

    def fingerprint(self) -> str:
        """Stable content hash identifying this request.

        Two requests with equal search-relevant content hash equally on
        every platform and process (the JSON rendering is key-sorted);
        the bandwidth epoch is deliberately *not* part of the hash —
        the cache tracks it per entry so a drifted fabric invalidates
        rather than silently forks the key space.

        Memoised: a request is frozen, so the hash is computed on the
        first call and every later call (the gateway's coalescing key,
        the service's cache key) returns the stored value.  The hash is
        the one :func:`canonical_json` has always fed it, so the memo
        never re-keys the durable store or splits the cache.
        """
        fingerprint = self.__dict__.get("_fingerprint")
        if fingerprint is None:
            fingerprint = hashlib.sha256(
                canonical_json(self).encode("utf-8")).hexdigest()[:24]
            self.__dict__["_fingerprint"] = fingerprint
        return fingerprint


@dataclass
class CacheStats:
    """Hit/miss accounting of one :class:`PlanCache`.

    Attributes:
        hits: lookups served from the store.
        misses: lookups that found nothing (including never-seen keys).
        stale_drops: entries retired because their bandwidth epoch no
            longer matched the lookup's.
        evictions: entries displaced by the LRU capacity bound.
    """

    hits: int = 0
    misses: int = 0
    stale_drops: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups answered."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class _Entry:
    """One cached plan and the bandwidth epoch it was searched under."""

    bandwidth_fp: str
    result: PipetteResult


class PlanCache:
    """LRU store of finished plans, keyed by request fingerprint.

    Args:
        max_entries: capacity bound; least-recently-used plans are
            evicted beyond it.

    Every mutation flows through the ``_record_*`` hooks, which are
    no-ops here; :class:`repro.service.store.DurablePlanCache`
    overrides them to mirror the cache onto disk.

    The cache is safe for concurrent callers: every public method
    holds one reentrant lock, so the gateway's per-cluster drain
    threads (and an elastic event racing them) see the store, the LRU
    order, and the stats move atomically.  Hooks fire while the lock
    is held, which also serializes a durable cache's log appends.
    """

    def __init__(self, max_entries: int = 128) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = int(max_entries)
        self._store: "OrderedDict[str, _Entry]" = OrderedDict()
        self._lock = threading.RLock()
        self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._store

    def entries(self) -> "list[tuple[str, str, PipetteResult]]":
        """All live ``(key, bandwidth_fp, result)`` rows, LRU first."""
        with self._lock:
            return [(key, entry.bandwidth_fp, entry.result)
                    for key, entry in self._store.items()]

    def stats_snapshot(self) -> CacheStats:
        """An atomically-consistent copy of :attr:`stats`.

        The live :class:`CacheStats` moves under the cache lock (drain
        threads bump it mid-lookup) while ``/metrics`` scrapes and
        service stats reports read it from other threads; copying the
        fields *under the lock* is what keeps a multi-field read —
        hits plus misses, a hit rate — from tearing across a
        concurrent mutation.
        """
        with self._lock:
            return replace(self.stats)

    def get(self, key: str, bandwidth_fp: str) -> PipetteResult | None:
        """The cached plan for ``key`` in the current bandwidth epoch.

        A key whose entry was searched against a *different* bandwidth
        fingerprint is stale: the entry is dropped, the miss recorded,
        and the caller re-plans against the fresh matrix.  A stale
        lookup must never count as "recent use" — the entry leaves the
        LRU order outright, untouched siblings keep their positions,
        and only a same-epoch hit refreshes recency.
        """
        with self._lock:
            result = self.hit(key, bandwidth_fp)
            if result is None:
                self.miss(key, bandwidth_fp)
            return result

    def hit(self, key: str, bandwidth_fp: str) -> PipetteResult | None:
        """The same-epoch plan for ``key``, or ``None`` untouched.

        A hit counts and refreshes recency exactly as :meth:`get`
        does.  Anything else — no entry, or one from another epoch —
        returns ``None`` with no side effect: no stats, no drop.
        """
        with self._lock:
            entry = self._store.get(key)
            if entry is None or entry.bandwidth_fp != bandwidth_fp:
                return None
            self._store.move_to_end(key)
            self.stats.hits += 1
            return entry.result

    def miss(self, key: str, bandwidth_fp: str) -> None:
        """Count a lookup of ``key`` that :meth:`hit` did not serve.

        An entry from another epoch is stale: it leaves the LRU order
        outright (it must not be refreshed on its way out) and counts
        one stale drop.
        """
        with self._lock:
            entry = self._store.get(key)
            if entry is not None and entry.bandwidth_fp != bandwidth_fp:
                del self._store[key]
                self._record_drop(key)
                self.stats.stale_drops += 1
            self.stats.misses += 1

    def put(self, key: str, bandwidth_fp: str, result: PipetteResult) -> None:
        """Store a finished plan under ``key`` for one bandwidth epoch."""
        with self._lock:
            if key in self._store:
                self._store.move_to_end(key)
            self._store[key] = _Entry(bandwidth_fp=bandwidth_fp, result=result)
            self._record_put(key, bandwidth_fp, result)
            evicted = []
            while len(self._store) > self.max_entries:
                evicted.append(self._store.popitem(last=False)[0])
                self.stats.evictions += 1
            if evicted:
                self._record_drops(evicted)

    def invalidate_epoch(self, bandwidth_fp: str) -> int:
        """Drop every entry not belonging to ``bandwidth_fp``.

        Called when the service adopts a re-profiled matrix whose drift
        exceeded the re-plan threshold; returns the number of retired
        plans.
        """
        with self._lock:
            stale = [k for k, e in self._store.items()
                     if e.bandwidth_fp != bandwidth_fp]
            for key in stale:
                del self._store[key]
            if stale:
                self._record_drops(stale)
            self.stats.stale_drops += len(stale)
            return len(stale)

    def clear(self) -> None:
        """Drop everything (stats are kept)."""
        with self._lock:
            self._store.clear()
            self._record_clear()

    # ------------------------------------------------------------- metrics

    def attach_metrics(self, metrics, cluster: str) -> None:
        """Export this cache's counters on a metrics registry.

        Every series is *pull-bound* to the live :class:`CacheStats`
        fields (and entry count), so a scrape of ``/metrics`` and a
        read of :attr:`stats` always report the same numbers — there
        is no second set of counters to fall out of step.  All caches
        of a fleet share the same families, distinguished by the
        ``cluster`` label; attaching the same cluster twice raises
        (two owners must not claim one series).

        Args:
            metrics: a :class:`repro.service.metrics.MetricsRegistry`.
            cluster: label value identifying this cache's cluster.
        """
        bound = (
            ("pipette_cache_hits_total",
             "Plan-cache lookups served from the store.",
             lambda: self.stats_snapshot().hits),
            ("pipette_cache_misses_total",
             "Plan-cache lookups that found no live entry.",
             lambda: self.stats_snapshot().misses),
            ("pipette_cache_stale_drops_total",
             "Cached plans retired because their bandwidth epoch "
             "no longer matched.",
             lambda: self.stats_snapshot().stale_drops),
            ("pipette_cache_evictions_total",
             "Cached plans displaced by the LRU capacity bound.",
             lambda: self.stats_snapshot().evictions),
        )
        for name, documentation, fn in bound:
            metrics.counter(name, documentation,
                            ("cluster",)).labels(cluster=cluster).bind(fn)
        metrics.gauge(
            "pipette_cache_entries", "Live plans in the cache.",
            ("cluster",)).labels(cluster=cluster).set_function(
                lambda: len(self))

    # ------------------------------------------------- persistence hooks

    def _record_put(self, key: str, bandwidth_fp: str,
                    result: PipetteResult) -> None:
        """Mutation hook: ``key`` was stored or overwritten."""

    def _record_drop(self, key: str) -> None:
        """Mutation hook: ``key`` was evicted, staled, or invalidated."""

    def _record_drops(self, keys: "list[str]") -> None:
        """Mutation hook: many keys retired at once (epoch roll)."""
        for key in keys:
            self._record_drop(key)

    def _record_clear(self) -> None:
        """Mutation hook: the cache was emptied."""

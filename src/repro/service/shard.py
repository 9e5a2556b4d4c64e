"""Consistent-hash sharding for the planning fleet.

A fleet of worker processes only preserves the single-process serving
guarantees — one search per (cluster, fingerprint, epoch), an
effective per-key LRU, byte-identical answers — if every request for
the same planning question lands on the same worker.  This module is
the routing math that makes that hold:

* :class:`HashRing` — a consistent-hash ring with virtual nodes.
  Adding or removing a worker remaps roughly ``K/N`` of ``K`` keys
  (the classic consistent-hashing bound, property-tested in
  ``tests/test_service_fleet.py``), so a restarted or resized fleet
  keeps most shards' caches warm instead of reshuffling everything.
* :func:`routing_key` — a stable content hash of the
  *plan-determining* fields of a request payload, read by the one
  plan-payload parser (:func:`~repro.service.cache.parse_plan_payload`,
  which sorts and deduplicates ``micro_batches`` and ``schedule`` the
  way :class:`~repro.service.cache.PlanRequest` does and defaults
  ``global_batch``), and deliberately blind to transport identity
  (``client_id``, ``detail``, ``id``, ``traceparent``).  Two payload
  spellings of one question therefore hash to one shard, where the
  worker's own cache and in-flight coalescing collapse them into one
  search.
* :func:`shard_segment_path` — the naming convention of the sharded
  durable layer: worker ``k`` of a fleet appends to
  ``<cluster>.shard-<k>.jsonl``, so workers never contend on one
  append log and each shard rehydrates independently after a crash.

Hashes are :mod:`hashlib` SHA-256 (stable across processes, platforms
and Python versions) — ``hash()`` randomization would re-deal every
shard on every restart.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os

from repro.service.cache import PlanFields, parse_plan_payload

__all__ = ["HashRing", "routing_key", "shard_segment_path"]

#: Virtual nodes per ring member.  More points smooth the key
#: distribution (the load of the busiest member concentrates toward
#: K/N as replicas grow) at a small lookup-table cost; 128 keeps the
#: busiest-of-4 shard within ~30% of the mean in practice.
REPLICAS = 128


def _hash64(value: str) -> int:
    """Stable 64-bit position on the ring for ``value``."""
    digest = hashlib.sha256(value.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Consistent hashing over an arbitrary set of member ids.

    Args:
        members: initial ring members (any hashable, stringified for
            hashing — worker indices in the fleet).

    ``lookup(key)`` walks clockwise from the key's hash to the first
    virtual node and returns its member.  Membership changes only move
    the keys whose clockwise successor changed — everything else stays
    put, which is the whole point.
    """

    def __init__(self, members=()) -> None:
        self._points: "list[int]" = []          # sorted vnode positions
        self._owners: "dict[int, object]" = {}  # position -> member
        self._members: "set" = set()
        for member in members:
            self.add(member)

    # ---------------------------------------------------------- membership

    def add(self, member) -> None:
        """Add one member (:data:`REPLICAS` virtual nodes) to the ring."""
        if member in self._members:
            raise ValueError(f"member {member!r} is already on the ring")
        self._members.add(member)
        for i in range(REPLICAS):
            point = _hash64(f"{member}#{i}")
            # A position collision between two members' vnodes is a
            # 2^-64 event per pair; first owner keeps the point.
            if point in self._owners:
                continue
            bisect.insort(self._points, point)
            self._owners[point] = member

    def remove(self, member) -> None:
        """Remove one member; its arcs fall to the clockwise successors."""
        if member not in self._members:
            raise ValueError(f"member {member!r} is not on the ring")
        self._members.discard(member)
        for point, owner in list(self._owners.items()):
            if owner == member:
                del self._owners[point]
                index = bisect.bisect_left(self._points, point)
                del self._points[index]

    @property
    def members(self) -> "set":
        """The current ring membership (a copy)."""
        return set(self._members)

    def __len__(self) -> int:
        return len(self._members)

    # ------------------------------------------------------------- lookup

    def lookup(self, key: str):
        """The member owning ``key`` (clockwise-first virtual node)."""
        if not self._points:
            raise ValueError("lookup on an empty ring")
        position = _hash64(key)
        index = bisect.bisect_right(self._points, position)
        if index == len(self._points):
            index = 0  # wrap past twelve o'clock
        return self._owners[self._points[index]]


def routing_key(payload: "dict | PlanFields") -> str:
    """Stable shard key of one plan request.

    ``payload`` is a decoded request body, or the
    :class:`~repro.service.cache.PlanFields` already parsed from one.
    The key hashes exactly the fields that enter the worker-side
    :meth:`~repro.service.cache.PlanRequest.fingerprint`, normalized
    by the same :func:`~repro.service.cache.parse_plan_payload`, and
    none of the transport fields; so any two payloads that would share
    a cache entry on a worker also share a shard, and a payload the
    worker would refuse as malformed raises ``ValueError`` here.  (The
    key is *not* the cache fingerprint itself: the router must not
    need model catalogs or cluster specs to route.  It only has to be
    constant per question.)

    Unpinned requests (no ``"cluster"``) fan over every cluster inside
    whichever worker they land on, so they hash under a ``"*"``
    sentinel: the same unpinned question always reaches the same
    worker and coalesces there.
    """
    fields = payload if isinstance(payload, PlanFields) \
        else parse_plan_payload(payload)
    parts = {
        "cluster": "*" if fields.cluster is None else fields.cluster,
        "model": fields.model,
        "global_batch": fields.global_batch,
        "micro_batches": fields.micro_batches,
        "memory_limit_gib": fields.memory_limit_gib,
        "schedule": fields.schedules,
        "portfolio_k": fields.portfolio_k,
    }
    canonical = json.dumps(parts, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:24]


def shard_segment_path(store_dir: str, cluster: str,
                       shard_index: "int | None") -> str:
    """Durable-log path of one cluster on one shard.

    ``None`` is the single-process layout (``<cluster>.jsonl``, the
    pre-fleet naming, kept so existing stores rehydrate unchanged);
    worker ``k`` appends to ``<cluster>.shard-<k>.jsonl``.  Each
    segment keeps its own fcntl lock sidecar, so fleet workers never
    contend on one append log.
    """
    if shard_index is None:
        return os.path.join(store_dir, f"{cluster}.jsonl")
    if shard_index < 0:
        raise ValueError(f"shard_index must be >= 0, got {shard_index}")
    return os.path.join(store_dir, f"{cluster}.shard-{shard_index}.jsonl")

"""Request fingerprinting and the LRU plan cache."""

import gc
import json
import weakref
from dataclasses import dataclass, field, replace

import numpy as np
import pytest
from canonical_oracle import canonical_value
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.fabric import BandwidthMatrix
from repro.cluster.presets import mid_range_cluster
from repro.core import PipetteOptions, SAOptions
from repro.core.configurator import PipetteResult
from repro.model import get_model
from repro.service.cache import (
    PlanCache,
    PlanFields,
    PlanRequest,
    canonical_json,
    parse_plan_payload,
)
from repro.units import GIB


def _result() -> PipetteResult:
    return PipetteResult(best=None, ranked=[], rejected_oom=0,
                         memory_check_s=0.0, annealing_s=0.0, total_s=0.0)


@pytest.fixture
def request_a(tiny_cluster, toy_model) -> PlanRequest:
    return PlanRequest(cluster=tiny_cluster, model=toy_model,
                       global_batch=32)


class TestFingerprint:
    def test_stable_across_equal_requests(self, tiny_cluster, toy_model,
                                          request_a):
        twin = PlanRequest(cluster=tiny_cluster, model=toy_model,
                           global_batch=32)
        assert request_a.fingerprint() == twin.fingerprint()

    def test_differs_on_batch(self, tiny_cluster, toy_model, request_a):
        other = PlanRequest(cluster=tiny_cluster, model=toy_model,
                            global_batch=64)
        assert request_a.fingerprint() != other.fingerprint()

    def test_differs_on_model(self, tiny_cluster, request_a):
        other = PlanRequest(cluster=tiny_cluster, model=get_model("gpt-1.1b"),
                            global_batch=32)
        assert request_a.fingerprint() != other.fingerprint()

    def test_differs_on_options(self, tiny_cluster, toy_model, request_a):
        other = PlanRequest(
            cluster=tiny_cluster, model=toy_model, global_batch=32,
            options=PipetteOptions(sa=SAOptions(max_iterations=7)))
        assert request_a.fingerprint() != other.fingerprint()

    def test_micro_batches_normalized(self, tiny_cluster, toy_model):
        a = PlanRequest(cluster=tiny_cluster, model=toy_model,
                        global_batch=32, micro_batches=(4, 1, 2, 2))
        b = PlanRequest(cluster=tiny_cluster, model=toy_model,
                        global_batch=32, micro_batches=(1, 2, 4))
        assert a.micro_batches == (1, 2, 4)  # sorted and deduplicated
        assert a.fingerprint() == b.fingerprint()

    def test_cluster_description_is_cosmetic(self, tiny_cluster, toy_model,
                                             request_a):
        from dataclasses import replace
        renamed = replace(tiny_cluster, description="after relabeling")
        other = PlanRequest(cluster=renamed, model=toy_model, global_batch=32)
        assert request_a.fingerprint() == other.fingerprint()

    def test_canonical_rejects_exotic_values(self):
        with pytest.raises(TypeError):
            canonical_json(object())

    def test_nonpositive_micro_batches_rejected(self, tiny_cluster,
                                                toy_model):
        # Regression: micro_batches=(0,) used to flow straight into
        # configuration enumeration (and get cached).
        for bad in ((0,), (-2,), (2, 0, 4)):
            with pytest.raises(ValueError, match="micro_batches"):
                PlanRequest(cluster=tiny_cluster, model=toy_model,
                            global_batch=32, micro_batches=bad)

    def test_nonpositive_memory_limit_rejected(self, tiny_cluster,
                                               toy_model):
        # An infinite limit passed every candidate's memory check, so
        # an over-memory plan was flagged memory_ok.
        for bad in (0, -1.0, float("nan"), float("inf"), np.float64("inf")):
            with pytest.raises(ValueError, match="memory_limit_bytes"):
                PlanRequest(cluster=tiny_cluster, model=toy_model,
                            global_batch=32, memory_limit_bytes=bad)

    def test_integral_values_are_ints_with_one_fingerprint(
            self, tiny_cluster, toy_model, request_a):
        # Regression: 32.0 keyed a second cache entry (and a second
        # search), and np.int64 failed late in the encoder.
        for twin in (32.0, np.int64(32), np.int32(32), np.float64(32)):
            other = PlanRequest(cluster=tiny_cluster, model=toy_model,
                                global_batch=twin)
            assert type(other.global_batch) is int
            assert other.fingerprint() == request_a.fingerprint()
        mixed = PlanRequest(cluster=tiny_cluster, model=toy_model,
                            global_batch=32,
                            micro_batches=[np.int64(4), 2.0, 1])
        assert mixed.micro_batches == (1, 2, 4)
        assert all(type(m) is int for m in mixed.micro_batches)
        assert mixed.fingerprint() == PlanRequest(
            cluster=tiny_cluster, model=toy_model, global_batch=32,
            micro_batches=(1, 2, 4)).fingerprint()

    def test_bools_fractions_and_strings_are_not_integers(self, tiny_cluster,
                                                          toy_model):
        # Regression: True planned for batch 1, [2.5] became (2,) and
        # "16" swept micro-batches 1 and 6.
        bad = [("global_batch", {"global_batch": True}),
               ("global_batch", {"global_batch": np.bool_(True)}),
               ("global_batch", {"global_batch": 32.5}),
               ("global_batch", {"global_batch": "32"}),
               ("micro_batches", {"micro_batches": [2.5]}),
               ("micro_batches", {"micro_batches": [True, 2]}),
               ("micro_batches", {"micro_batches": "16"})]
        for name, kwargs in bad:
            with pytest.raises(ValueError, match=name):
                PlanRequest(**{"cluster": tiny_cluster, "model": toy_model,
                               "global_batch": 32, **kwargs})

    def test_empty_micro_batches_rejected(self, tiny_cluster, toy_model):
        # An empty restriction enumerates zero configurations and
        # would cache a best=None answer.
        with pytest.raises(ValueError, match="micro_batches"):
            PlanRequest(cluster=tiny_cluster, model=toy_model,
                        global_batch=32, micro_batches=())


@dataclass(frozen=True)
class _Point:
    x: float
    tags: tuple = ()


@dataclass(frozen=True)
class _Holder:
    """Frozen, but holding a list: not deeply frozen."""

    items: list


@dataclass
class _Mutable:
    x: float


@dataclass(frozen=True)
class _Keys:
    """Keys that sort before ``"__class__"``, and a cosmetic field."""

    Upper: object
    lower: object = None
    note: str = field(default="", compare=False)


@dataclass(frozen=True)
class _Empty:
    """No compared field: the class tag is the whole object."""

    note: str = field(default="", compare=False)


def _preset_request(**kwargs) -> PlanRequest:
    return PlanRequest(cluster=mid_range_cluster(4),
                       model=get_model("gpt-small"), global_batch=64,
                       **kwargs)


class TestPinnedFingerprints:
    """Fingerprint literals recorded before the fingerprint was memoised.

    A durable store keys its records by these hashes, so a change here
    would orphan every stored plan; the memo must reproduce them.
    """

    PINNED = {
        "defaults": "9733d9312ff5ada524cf0d11",
        "restricted": "b4ec21117e30db25c8c88771",
        "portfolio_k": "45a7ff9d2a91aa2ea0c46be8",
        # Recorded before ``SAOptions`` validated the temperature:
        # refusing bad values must not re-key the good ones.
        "temperature_0.5": "8f5cf06d67df71be985088d7",
        "temperature_0.0": "7e3d33e27543e3a5eef0dc43",
        "temperature_int_2": "fc6a8c7c58e0e5aef3e31311",
    }

    @staticmethod
    def _requests() -> "dict[str, PlanRequest]":
        options = PipetteOptions()
        return {
            "defaults": _preset_request(),
            "restricted": _preset_request(
                micro_batches=(4, 1, 2), schedules=("gpipe", "1f1b"),
                memory_limit_bytes=20 * GIB),
            "portfolio_k": _preset_request(options=replace(
                options, sa=replace(options.sa, portfolio_k=5))),
            **{f"temperature_{label}": _preset_request(options=replace(
                options, sa=replace(options.sa, initial_temperature=value)))
               for label, value in (("0.5", 0.5), ("0.0", 0.0),
                                    ("int_2", 2))},
        }

    def test_literals_cold_and_warm(self):
        for name, request in self._requests().items():
            assert request.fingerprint() == self.PINNED[name], name
            assert request.fingerprint() == self.PINNED[name], name
        # Fresh requests over parts whose memos are now warm.
        for name, request in self._requests().items():
            assert request.fingerprint() == self.PINNED[name], name

    def test_integral_twins_hash_to_the_int_literal(self):
        for twin in (64.0, np.int64(64)):
            request = replace(_preset_request(), global_batch=twin)
            assert request.fingerprint() == self.PINNED["defaults"]

    def test_memory_limit_twins_hash_to_the_int_literal(self):
        restricted = self._requests()["restricted"]
        for twin in (20.0 * GIB, np.int64(20 * GIB), np.float64(20 * GIB)):
            request = replace(restricted, memory_limit_bytes=twin)
            assert type(request.memory_limit_bytes) is int
            assert request.fingerprint() == self.PINNED["restricted"]
        fraction = replace(restricted, memory_limit_bytes=GIB + 0.5)
        assert fraction.memory_limit_bytes == GIB + 0.5
        assert fraction.fingerprint() != self.PINNED["restricted"]

    @pytest.mark.parametrize("bad", [True, False, "21474836480",
                                     float("inf"), float("nan"), 0, -GIB])
    def test_memory_limit_refuses_non_numbers_and_bad_ranges(self, bad):
        with pytest.raises(ValueError, match="memory_limit_bytes"):
            _preset_request(memory_limit_bytes=bad)

    def test_memo_is_per_instance_and_never_splits_a_key(self):
        warm = _preset_request()
        key = warm.fingerprint()
        assert warm.fingerprint() is key  # stored, not recomputed
        # A twin over *different* (cold) part objects agrees.
        assert _preset_request().fingerprint() == key
        assert replace(warm, global_batch=128).fingerprint() != key

    def test_one_sa_field_still_splits_after_both_memos_are_warm(self):
        options = PipetteOptions()
        a = _preset_request(options=options)
        b = _preset_request(options=replace(
            options, sa=replace(options.sa, max_iterations=2999)))
        first = (a.fingerprint(), b.fingerprint())
        assert first[0] != first[1]
        canonical_json(options)
        canonical_json(b.options)
        assert (_preset_request(options=options).fingerprint(),
                _preset_request(options=b.options).fingerprint()) == first


class TestCanonicalMemo:
    def test_json_is_json_dumps_of_the_value(self):
        cases = [
            _preset_request(),
            _Point(-0.0, ("a", None, True, 3)),
            _Point(float("nan"), (float("inf"), -float("inf"), 1e-300)),
            _Point(1, ("\u00e9t\u00e9", "\"quoted\"", "tab\t")),
            _Holder([_Point(2.5), (1, [2])]),
            _Mutable(0.1),
            [(), [], _Point(3.0)],
            "plain", 7, None, False,
        ]
        for obj in cases:
            assert canonical_json(obj) == json.dumps(canonical_value(obj),
                                                     sort_keys=True)

    def test_memo_is_by_identity_not_equality(self):
        # Equal dataclasses may encode differently: 1 == 1.0 and
        # 0.0 == -0.0, so one instance's memo must never answer for
        # another's.
        pairs = [(_Point(1), _Point(1.0)), (_Point(0.0), _Point(-0.0))]
        for a, b in pairs:
            assert a == b
            text_a = canonical_json(a)
            assert canonical_json(b) != text_a
            assert canonical_json(a) == text_a

    def test_only_deeply_frozen_objects_are_memoised(self):
        holder = _Holder([1, 2])
        assert '"items": [1, 2]' in canonical_json(holder)
        holder.items.append(3)  # frozen binding, mutable contents
        assert '"items": [1, 2, 3]' in canonical_json(holder)
        assert "_canonical_memo" not in holder.__dict__
        mutable = _Mutable(1.0)
        canonical_json(mutable)
        mutable.x = 2.0
        assert '"x": 2.0' in canonical_json(mutable)
        point = _Point(1.0, (2, 3))
        assert canonical_json(point) is canonical_json(point)
        assert point.__dict__["_canonical_memo"] == canonical_json(point)


_EDGE_FLOATS = (-0.0, 0.0, 5e-324, 1e16, 1e-7, float("inf"),
                -float("inf"), float("nan"))
_EDGE_CHARS = "\"\\/\x00\x1f\x7f\t\n\u00e9\u2028\u20ac\U0001f600\ud800"

_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2 ** 200), max_value=2 ** 200)
    | st.sampled_from(_EDGE_FLOATS)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(alphabet=st.sampled_from(_EDGE_CHARS) | st.characters(),
              max_size=8)
)


def _extend(children):
    return (st.lists(children, max_size=4)
            | st.lists(children, max_size=4).map(tuple)
            | st.builds(_Point, children, children)
            | st.builds(_Holder, st.lists(children, max_size=3))
            | st.builds(_Mutable, children)
            | st.builds(_Keys, children, children, st.text(max_size=3))
            | st.builds(_Empty, st.text(max_size=3)))


_CANONICAL_VALUES = st.recursive(_LEAVES, _extend, max_leaves=12)


def _oracle_json(obj) -> str:
    return json.dumps(canonical_value(obj), sort_keys=True)


class TestCanonicalDifferential:
    """``canonical_json`` against the unmemoised oracle."""

    @settings(max_examples=300, deadline=None)
    @given(_CANONICAL_VALUES)
    def test_matches_oracle_cold_and_memoised(self, obj):
        expected = _oracle_json(obj)
        assert canonical_json(obj) == expected
        # Warm memos answer for themselves and inside a new container.
        assert canonical_json(obj) == expected
        assert canonical_json((obj, [obj])) == _oracle_json((obj, [obj]))

    @settings(max_examples=100, deadline=None)
    @given(_CANONICAL_VALUES, _CANONICAL_VALUES)
    def test_mutable_parts_re_encode_after_mutation(self, before, after):
        mutable = _Mutable(before)
        holder = _Holder([mutable])
        plain = _Holder([1, "a"])  # frozen, but its list is not
        point = _Point(1, (mutable,))
        parts = (mutable, holder, plain, point)
        for obj in parts:
            assert canonical_json(obj) == _oracle_json(obj)
        mutable.x = after
        holder.items.append(after)
        plain.items.append(after)
        for obj in parts:
            assert canonical_json(obj) == _oracle_json(obj)

    @pytest.mark.parametrize("bad", [{"a": 1}, b"bytes", {1}, np.int64(3)],
                             ids=["dict", "bytes", "set", "int64"])
    def test_non_json_types_raise_on_both_sides(self, bad):
        for obj in (bad, (1, bad), _Point(0.5, ("x", bad)), _Keys(bad)):
            with pytest.raises(TypeError):
                canonical_json(obj)
            with pytest.raises(TypeError):
                canonical_value(obj)


class TestPlanCache:
    def test_miss_then_hit(self, request_a):
        cache = PlanCache()
        key = request_a.fingerprint()
        assert cache.get(key, "epoch-1") is None
        cache.put(key, "epoch-1", _result())
        assert cache.get(key, "epoch-1") is not None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_bandwidth_epoch_mismatch_is_stale(self, request_a):
        cache = PlanCache()
        key = request_a.fingerprint()
        cache.put(key, "epoch-1", _result())
        assert cache.get(key, "epoch-2") is None
        assert cache.stats.stale_drops == 1
        assert key not in cache

    def test_lru_eviction_order(self):
        cache = PlanCache(max_entries=2)
        cache.put("a", "fp", _result())
        cache.put("b", "fp", _result())
        cache.get("a", "fp")           # refresh "a"; "b" is now LRU
        cache.put("c", "fp", _result())
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.stats.evictions == 1

    def test_invalidate_epoch(self):
        cache = PlanCache()
        cache.put("a", "old", _result())
        cache.put("b", "old", _result())
        cache.put("c", "new", _result())
        assert cache.invalidate_epoch("new") == 2
        assert len(cache) == 1 and "c" in cache

    def test_cache_keeps_no_detail_document_after_a_plan_leaves(self):
        # The encoded detail document lives on the result, so evicting,
        # retiring or clearing a plan releases its bytes with it.
        for drop in (lambda c: c.put("other", "fp", _result()),
                     lambda c: c.invalidate_epoch("fp2"),
                     lambda c: c.clear()):
            cache = PlanCache(max_entries=1)
            result = _result()
            assert result.payload_json() == json.dumps(result.to_payload(),
                                                       sort_keys=True)
            cache.put("key", "fp", result)
            ref = weakref.ref(result)
            del result
            drop(cache)
            gc.collect()
            assert ref() is None

    def test_clear_keeps_stats(self):
        cache = PlanCache()
        cache.put("a", "fp", _result())
        cache.get("a", "fp")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            PlanCache(max_entries=0)


class TestStaleLookupRecency:
    """A stale lookup must never count as "recent use".

    Regression guard for the LRU/staleness interaction: an epoch-stale
    entry found by ``get`` leaves the store outright.  If the lookup
    instead refreshed the key's recency (``move_to_end``) on its way
    out — or worse, left the refreshed entry behind — the dead plan
    would displace a *live* sibling at the next capacity eviction.
    """

    def test_stale_lookup_drops_entry_without_touching_siblings(self):
        cache = PlanCache(max_entries=2)
        cache.put("stale", "old-epoch", _result())
        cache.put("live", "epoch", _result())
        assert cache.get("stale", "epoch") is None
        assert "stale" not in cache
        # "live" must still be resident and must survive the next put
        # (capacity 2, one slot now free) — a recency-refreshed ghost
        # of "stale" would have pushed it out instead.
        cache.put("new", "epoch", _result())
        assert "live" in cache and "new" in cache
        assert cache.stats.evictions == 0

    def test_stale_lookup_keeps_lru_order_of_survivors(self):
        cache = PlanCache(max_entries=2)
        cache.put("a", "epoch", _result())
        cache.put("b", "old-epoch", _result())
        cache.get("a", "epoch")                 # real hit: "a" is MRU
        assert cache.get("b", "epoch") is None  # stale drop, no refresh
        cache.put("c", "epoch", _result())      # fills b's slot: [a, c]
        cache.put("d", "epoch", _result())      # evicts the true LRU
        assert "a" not in cache
        assert "c" in cache and "d" in cache
        assert cache.stats.evictions == 1

    def test_stale_lookup_stats_are_exact(self):
        cache = PlanCache()
        cache.put("k", "old-epoch", _result())
        assert cache.get("k", "epoch") is None
        assert cache.stats.hits == 0
        assert cache.stats.misses == 1
        assert cache.stats.stale_drops == 1
        assert cache.stats.evictions == 0
        assert len(cache) == 0
        # Re-planting under the new epoch behaves like any fresh entry.
        cache.put("k", "epoch", _result())
        assert cache.get("k", "epoch") is not None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stale_drops == 1


class TestBandwidthFingerprint:
    def test_identical_matrices_share_fingerprint(self, tiny_network):
        bw = tiny_network.bandwidth
        twin = BandwidthMatrix(matrix=bw.matrix.copy(),
                               alpha=bw.alpha.copy())
        assert bw.fingerprint() == twin.fingerprint()

    def test_changed_link_changes_fingerprint(self, tiny_network):
        bw = tiny_network.bandwidth
        matrix = bw.matrix.copy()
        matrix[0, 5] *= 0.5
        assert bw.fingerprint() != BandwidthMatrix(
            matrix=matrix, alpha=bw.alpha).fingerprint()

    def test_sub_quantum_noise_ignored(self, tiny_network):
        # Start from an exactly-quantized matrix so the added noise is
        # guaranteed to stay within one rounding quantum.
        base = np.round(np.where(np.isfinite(tiny_network.bandwidth.matrix),
                                 tiny_network.bandwidth.matrix, np.inf), 3)
        alpha = tiny_network.bandwidth.alpha
        clean = BandwidthMatrix(matrix=base, alpha=alpha)
        noisy = BandwidthMatrix(matrix=base + 1e-6, alpha=alpha)
        assert clean.fingerprint(decimals=3) == noisy.fingerprint(decimals=3)

    def test_restrict_preserves_pairwise_values(self, tiny_network):
        bw = tiny_network.bandwidth
        keep = [0, 1, 2, 3, 8, 9, 10, 11]
        sub = bw.restrict(keep)
        assert sub.n_gpus == len(keep)
        for i, gi in enumerate(keep):
            for j, gj in enumerate(keep):
                if i != j:
                    assert sub.between(i, j) == bw.between(gi, gj)
                    assert sub.alpha_between(i, j) == bw.alpha_between(gi, gj)

    def test_restrict_validates(self, tiny_network):
        with pytest.raises(ValueError):
            tiny_network.bandwidth.restrict([])
        with pytest.raises(ValueError):
            tiny_network.bandwidth.restrict([0, 0, 1])

    def test_nan_and_inf_hash_differently(self, tiny_network):
        # Regression: NaN (failed measurement) and inf both quantized
        # to -1.0, so a poisoned matrix could impersonate a healthy
        # one whose same entry was infinite.
        bw = tiny_network.bandwidth
        poisoned = bw.matrix.copy()
        poisoned[0, 5] = np.nan
        infinite = bw.matrix.copy()
        infinite[0, 5] = np.inf
        fp_nan = BandwidthMatrix(matrix=poisoned, alpha=bw.alpha).fingerprint()
        fp_inf = BandwidthMatrix(matrix=infinite, alpha=bw.alpha).fingerprint()
        assert fp_nan != fp_inf
        assert fp_nan != bw.fingerprint()
        assert fp_inf != bw.fingerprint()

    def test_nan_alpha_hashes_differently(self, tiny_network):
        bw = tiny_network.bandwidth
        alpha_nan = bw.alpha.copy()
        alpha_nan[0, 5] = np.nan
        alpha_inf = bw.alpha.copy()
        alpha_inf[0, 5] = np.inf
        assert BandwidthMatrix(matrix=bw.matrix,
                               alpha=alpha_nan).fingerprint() \
            != BandwidthMatrix(matrix=bw.matrix,
                               alpha=alpha_inf).fingerprint()


class TestParsePlanPayload:
    def test_defaults_and_nulls(self):
        fields = parse_plan_payload(
            {"model": "gpt-toy", "micro_batches": None, "schedule": None,
             "memory_limit_gib": None, "portfolio_k": None,
             "cluster": None, "client_id": None})
        assert fields == PlanFields(model="gpt-toy", global_batch=64)
        assert fields.search_kwargs() == {}

    def test_sets_are_sorted_and_deduplicated(self):
        fields = parse_plan_payload(
            {"model": "gpt-toy", "micro_batches": [8, 2, 4, 2],
             "schedule": ["gpipe", "1f1b", "gpipe"]})
        assert fields.micro_batches == (2, 4, 8)
        assert fields.schedules == ("1f1b", "gpipe")
        assert parse_plan_payload(
            {"model": "gpt-toy", "schedule": "1f1b"}).schedules == ("1f1b",)

    def test_integral_numbers_are_integers(self):
        fields = parse_plan_payload(
            {"model": "gpt-toy", "global_batch": 32.0,
             "micro_batches": [2.0], "portfolio_k": 3,
             "memory_limit_gib": 12})
        assert fields.global_batch == 32
        assert isinstance(fields.global_batch, int)
        assert fields.micro_batches == (2,)
        assert fields.search_kwargs() == {"micro_batches": (2,),
                                          "memory_limit_bytes": 12 * GIB}

    @pytest.mark.parametrize("field, value", [
        ("micro_batches", "16"),
        ("micro_batches", 5),
        ("micro_batches", [1.5]),
        ("micro_batches", [True]),
        ("micro_batches", ["2"]),
        ("global_batch", True),
        ("global_batch", 32.9),
        ("global_batch", "32"),
        ("global_batch", None),
        ("global_batch", float("inf")),
        ("portfolio_k", "3"),
        ("portfolio_k", False),
        ("memory_limit_gib", "12"),
        ("memory_limit_gib", True),
        ("memory_limit_gib", float("inf")),
        ("memory_limit_gib", float("nan")),
        ("memory_limit_gib", 0),
        ("memory_limit_gib", -1.5),
        ("schedule", 1),
        ("schedule", ["1f1b", 2]),
        ("model", 7),
        ("cluster", 0),
        ("client_id", ["a"]),
        ("detail", "false"),
        ("detail", "yes"),
        ("detail", 1),
        ("detail", 0),
        ("detail", [True]),
    ])
    def test_mistyped_field_is_refused(self, field, value):
        with pytest.raises(ValueError, match=field):
            parse_plan_payload({"model": "gpt-toy", field: value})

    def test_detail_may_be_a_json_bool_or_null(self):
        for value in (True, False, None):
            assert parse_plan_payload({"model": "gpt-toy",
                                       "detail": value}) == \
                PlanFields(model="gpt-toy", global_batch=64)

    def test_model_is_required_and_payload_is_an_object(self):
        with pytest.raises(ValueError, match="model"):
            parse_plan_payload({"global_batch": 32})
        with pytest.raises(ValueError, match="JSON object"):
            parse_plan_payload(["gpt-toy"])

    def test_request_and_parser_share_one_normalization(self, tiny_cluster,
                                                        toy_model):
        fields = parse_plan_payload({"model": "gpt-toy",
                                     "micro_batches": [4, 1, 2, 2]})
        request = PlanRequest(cluster=tiny_cluster, model=toy_model,
                              global_batch=32, micro_batches=[4, 1, 2, 2])
        assert request.micro_batches == fields.micro_batches

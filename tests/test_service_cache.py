"""Request fingerprinting and the LRU plan cache."""

import numpy as np
import pytest

from repro.cluster.fabric import BandwidthMatrix
from repro.core import PipetteOptions, SAOptions
from repro.core.configurator import PipetteResult
from repro.model import get_model
from repro.service.cache import (
    PlanCache,
    PlanFields,
    PlanRequest,
    canonical_value,
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
            canonical_value(object())

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
        for bad in (0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="memory_limit_bytes"):
                PlanRequest(cluster=tiny_cluster, model=toy_model,
                            global_batch=32, memory_limit_bytes=bad)

    def test_empty_micro_batches_rejected(self, tiny_cluster, toy_model):
        # An empty restriction enumerates zero configurations and
        # would cache a best=None answer.
        with pytest.raises(ValueError, match="micro_batches"):
            PlanRequest(cluster=tiny_cluster, model=toy_model,
                        global_batch=32, micro_batches=())


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
        ("schedule", 1),
        ("schedule", ["1f1b", 2]),
        ("model", 7),
        ("cluster", 0),
        ("client_id", ["a"]),
    ])
    def test_mistyped_field_is_refused(self, field, value):
        with pytest.raises(ValueError, match=field):
            parse_plan_payload({"model": "gpt-toy", field: value})

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

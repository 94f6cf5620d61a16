"""The contract every process-wide cache keeps (:class:`repro.utils.cache.LruCache`).

Each row names one of the five cache instances and ``call(i)``, which
enters it the way the library does with the i-th of a family of
distinct keys.  Every cache is then held to the same four behaviours:
least-recently-used eviction at its constant bound, ``clear()``
resetting the counters, concurrent first calls sharing one object, and
misses counting distinct keys.
"""

import sys
import threading

import pytest

from repro.core import plan as soi_plan_mod
from repro.core.plan import soi_plan_for
from repro.dft import cache as dft_cache
from repro.dft import twiddle
from repro.dft.cache import plan_for
from repro.parallel import transpose as six_step
from repro.serve import batcher
from repro.utils import cache as cache_mod
from repro.utils.cache import LruCache

ROWS = [
    pytest.param(dft_cache._PLANS, lambda i: plan_for(i + 1), id="dft.plan_cache"),
    pytest.param(twiddle._TWIDDLES, lambda i: twiddle.twiddles(i + 1), id="dft.twiddles"),
    pytest.param(
        soi_plan_mod._SOI_PLANS,
        lambda i: soi_plan_for(1024 * (i + 1), 4),
        id="core.soi_plan_cache",
    ),
    pytest.param(
        six_step._TABLES,
        lambda i: six_step._twiddle_table(4 * (i + 1), 4, i + 1),
        id="parallel.twiddle_tables",
    ),
    pytest.param(
        batcher._NUFFT_PLANS,
        lambda i: batcher._nufft_plan(64 * (i + 2)),
        id="serve.nufft_plans",
    ),
]


@pytest.fixture
def fresh():
    """Clear the row's cache before and after the test."""
    caches = []

    def use(cache):
        cache.clear()
        caches.append(cache)
        return cache

    yield use
    for cache in caches:
        cache.clear()


@pytest.mark.parametrize("cache, call", ROWS)
class TestEveryCache:
    def test_lru_order_and_eviction_count(self, fresh, cache, call):
        fresh(cache)
        bound = cache.maxsize
        built = [call(i) for i in range(bound)]
        assert call(0) is built[0]  # a hit: key 0 is now the most recent
        call(bound)  # evicts key 1, the least recently used
        call(bound + 1)  # evicts key 2
        info = cache.info()
        assert info == {
            "entries": bound,
            "hits": 1,
            "misses": bound + 2,
            "evictions": 2,
            "maxsize": bound,
        }
        assert call(0) is built[0]
        assert call(1) is not built[1]  # rebuilt after eviction
        info = cache.info()
        assert (info["hits"], info["misses"], info["evictions"]) == (2, bound + 3, 3)

    def test_clear_resets_the_counters(self, fresh, cache, call):
        fresh(cache)
        first = call(0)
        call(0)
        cache.clear()
        assert cache.info() == {
            "entries": 0, "hits": 0, "misses": 0, "evictions": 0,
            "maxsize": cache.maxsize,
        }
        assert call(0) is not first

    def test_concurrent_first_calls_share_one_object(self, fresh, cache, call):
        """More threads than cores race for the same cold keys: each key
        enters the cache once, every caller gets that one object, and no
        counter update is lost."""
        fresh(cache)
        keys, threads, rounds = 3, 8, 20
        start = threading.Barrier(threads)
        seen = [[] for _ in range(threads)]

        def worker(out):
            start.wait(timeout=30.0)
            for _ in range(rounds):
                for i in range(keys):
                    out.append((i, id(call(i))))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=worker, args=(out,)) for out in seen]
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in pool)
        ids = {}
        for i, ident in (pair for out in seen for pair in out):
            ids.setdefault(i, set()).add(ident)
        assert {i: len(v) for i, v in ids.items()} == dict.fromkeys(range(keys), 1)
        info = cache.info()
        assert info["misses"] == keys  # one per distinct key
        assert info["hits"] + info["misses"] == threads * rounds * keys
        assert info["entries"] == keys


class TestBuildRule:
    def test_a_build_holds_no_lock(self):
        """While one key's build is in progress, lookups and builds of
        other keys go through."""
        cache = LruCache("test.slow", 4)
        building, release = threading.Event(), threading.Event()

        def slow():
            building.set()
            release.wait(timeout=30.0)
            return "slow"

        t = threading.Thread(target=cache.get, args=("a", slow))
        t.start()
        try:
            assert building.wait(timeout=30.0)
            assert cache.get("b", lambda: "fast") == "fast"
            assert "b" in cache and "a" not in cache
        finally:
            release.set()
            t.join(timeout=30.0)
        assert not t.is_alive()
        assert cache.get("a", lambda: "other") == "slow"

    def test_first_insert_wins_and_the_loser_counts_a_hit(self):
        cache = LruCache("test.race", 4)
        building, release = threading.Event(), threading.Event()
        got = []

        def late():
            building.set()
            release.wait(timeout=30.0)
            return ["late"]

        t = threading.Thread(target=lambda: got.append(cache.get("k", late)))
        t.start()
        try:
            assert building.wait(timeout=30.0)
            early = cache.get("k", lambda: ["early"])
        finally:
            release.set()
            t.join(timeout=30.0)
        assert not t.is_alive()
        assert got == [early] and got[0] is early
        info = cache.info()
        assert (info["entries"], info["misses"], info["hits"]) == (1, 1, 1)

    def test_every_get_reports_to_the_observer(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cache_mod, "observer", lambda *a: seen.append(a))
        cache = LruCache("test.observed", 2)
        cache.get(1, lambda: "x")
        cache.get(1, lambda: "x")
        assert seen == [("test.observed", "rw", cache.guard)] * 2

"""The one LRU type behind the six caches (``repro.lru``)."""

import sys
import threading

import pytest

from repro.lru import Lru
from repro.obs.metrics import Registry


def test_least_recently_used_goes_first_and_a_get_is_a_use():
    lru = Lru(2)
    lru.put("a", 1)
    lru.put("b", 2)
    assert lru.get("a") == 1
    lru.put("c", 3)
    assert (lru.get("a"), lru.get("b"), lru.get("c")) == (1, None, 3)
    lru.put("a", 10)  # a put of a held key is a use too, and replaces
    lru.put("d", 4)
    assert (lru.get("a"), lru.get("c"), lru.get("d")) == (10, None, 4)
    assert len(lru) == 2


def test_capacity_zero_keeps_nothing_and_still_counts_misses():
    metrics = Registry()
    lru = Lru(0, misses=metrics.counter("misses"))
    lru.put("a", 1)
    assert lru.get("a") is None and len(lru) == 0
    assert metrics.counter("misses").value == 1
    with pytest.raises(ValueError):
        Lru(-1)


def test_the_owners_handles_are_what_is_counted():
    metrics = Registry()
    lru = Lru(
        2,
        hits=metrics.counter("hits"),
        misses=metrics.counter("misses"),
        evicted=metrics.counter("evicted"),
        size=metrics.gauge("size"),
    )
    for key in "abcd":
        lru.put(key, key)
    assert lru.get("a") is None and lru.get("d") == "d"
    assert metrics.snapshot() == {"hits": 1, "misses": 1, "evicted": 2, "size": 2}
    lru.clear()
    assert len(lru) == 0 and metrics.gauge("size").value == 0


def test_concurrent_gets_and_puts_lose_no_count_and_keep_the_bound():
    metrics = Registry()
    hits, misses = metrics.counter("hits"), metrics.counter("misses")
    lru = Lru(8, hits=hits, misses=misses)
    rounds, threads, failures = 2000, 8, []

    def hammer(seed):
        try:
            for i in range(rounds):
                key = (seed * 7 + i) % 24
                if lru.get(key) is None:
                    lru.put(key, key)
                assert len(lru) <= 8
        except Exception as e:  # noqa: BLE001 - reported below
            failures.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=hammer, args=(n,)) for n in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not failures and not any(t.is_alive() for t in workers)
    assert hits.value + misses.value == rounds * threads
    assert all(lru.get(key) in (None, key) for key in range(24))

"""The canonical key hashed straight from the overheads equals the eager one.

:func:`repro.core.canonical.canonicalize` derives ``key`` without building
the canonical instance and defers ``mset``/``network_key`` to first use.
These tests pin it to the frozen eager derivation
(:func:`repro.perf.reference.reference_canonicalize`): byte-identical keys
over the conformance ``quick`` corpus and a Hypothesis sweep of int,
float, mixed and power-of-two-rescaled instances, plus the laziness the
planner's hit path relies on and warm starts of stores written under the
eager derivation.
"""

import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.core.canonical as canonical_module
from repro.api import Planner, PlanRequest
from repro.conformance import generate_corpus
from repro.core.canonical import canonicalize
from repro.core.multicast import MulticastSet
from repro.core.node import Node
from repro.io.serialization import multicast_from_dict, multicast_to_dict
from repro.perf.reference import reference_canonicalize
from repro.service import PlanStore

from tests.strategies import multicast_sets

QUICK_SPECS = generate_corpus("quick")


def _assert_identical(mset: MulticastSet) -> None:
    lazy = canonicalize(mset)
    eager = reference_canonicalize(mset)
    assert lazy.key == eager.key
    assert lazy.network_key == eager.network_key
    assert lazy.scale == eager.scale
    built, expected = lazy.mset, eager.mset
    assert built == expected
    assert built.correlated == expected.correlated
    assert [nd.name for nd in built.nodes] == [nd.name for nd in expected.nodes]
    assert [type(v) for v in built._sends + built._receives] == [
        type(v) for v in expected._sends + expected._receives
    ]
    assert type(built.latency) is type(expected.latency)


def _rebuild(mset: MulticastSet, convert) -> MulticastSet:
    """``mset`` with every overhead and the latency passed through ``convert``."""
    nodes = [
        Node(nd.name, convert(nd.send_overhead), convert(nd.receive_overhead))
        for nd in mset.nodes
    ]
    return MulticastSet(
        nodes[0], nodes[1:], convert(mset.latency), validate_correlation=False
    )


def test_identical_on_quick_corpus():
    for spec in QUICK_SPECS:
        _assert_identical(spec.build())


@given(
    mset=multicast_sets(max_n=12),
    kind=st.sampled_from(["int", "float", "mixed", "rescaled", "fraction"]),
    shift=st.integers(min_value=-40, max_value=40),
    flips=st.lists(st.booleans(), min_size=1, max_size=30),
)
def test_identical_on_number_type_sweep(mset, kind, shift, flips):
    if kind == "int":
        variant = mset
    elif kind == "float":
        variant = _rebuild(mset, float)
    elif kind == "mixed":
        draws = iter(flips * 100)
        variant = _rebuild(mset, lambda v: float(v) if next(draws) else v)
    elif kind == "rescaled":
        variant = _rebuild(mset, lambda v: v * 2.0**shift)
    else:  # arbitrary doubles: rounding, not only exponent shifts
        variant = _rebuild(mset, lambda v: v * 0.1 + 1e-3)
    _assert_identical(variant)


@pytest.mark.parametrize(
    "source,destinations,latency",
    [
        # ints past 2**53 round on conversion: the two destinations'
        # sends collapse to one double, so the canonical order flips ...
        ((2**60 + 1, 7), [(2**60 + 2, 5), (2**60 + 3, 3)], 1),
        # ... or a correlated instance turns uncorrelated
        ((1, 1), [(2**60 + 2, 3), (2**60 + 3, 5)], 1),
        ((2**60 + 1, 7), [(2**60 + 2, 3), (2**60 + 300, 5)], 1),
        # a huge int latency next to small overheads
        ((3, 7), [(2, 3), (2, 5)], 2**70 + 1),
        # shifting would leave the normal range: renaming only
        ((1e-300, 7.0), [(2e300, 3.0), (2.0, 5.0)], 1.0),
    ],
)
def test_identical_on_extreme_instances(source, destinations, latency):
    _assert_identical(
        MulticastSet.from_overheads(
            source, destinations, latency, validate_correlation=False
        )
    )


def _fresh(mset: MulticastSet) -> MulticastSet:
    """An equal instance with no cached canonical form (as a decode makes)."""
    return multicast_from_dict(multicast_to_dict(mset))


class TestLaziness:
    def test_key_alone_builds_neither_field(self, fig1_mset):
        form = canonicalize(fig1_mset)
        assert form._mset is None and form._network_key is None
        assert form.mset is form.mset  # built once, then cached
        assert form.network_key is form.network_key

    @pytest.mark.parametrize("solver", ["greedy", "dp"])
    def test_memory_hit_builds_neither_field(self, fig1_mset, solver):
        planner = Planner()
        planner.plan(_fresh(fig1_mset), solver=solver)
        again = _fresh(fig1_mset)
        result = planner.plan(again, solver=solver)
        assert result.cache_hit
        form = again.canonical_form()
        assert form._mset is None and form._network_key is None

    def test_store_hit_builds_neither_field(self, tmp_path, fig1_mset):
        Planner(cache_tiers=[PlanStore(tmp_path)]).plan(
            _fresh(fig1_mset), solver="greedy"
        )
        planner = Planner(cache_size=0, cache_tiers=[PlanStore(tmp_path)])
        again = _fresh(fig1_mset)
        assert planner.plan(again, solver="greedy").cache_hit
        form = again.canonical_form()
        assert form._mset is None and form._network_key is None


def test_concurrent_first_access_agrees(small_random_msets):
    """Threads racing on the lazy fields all see the eager values."""
    expected = [reference_canonicalize(mset) for mset in small_random_msets]
    forms = [canonicalize(_fresh(mset)) for mset in small_random_msets]
    seen = []
    barrier = threading.Barrier(8)

    def race():
        barrier.wait(timeout=10)
        seen.append([(f.mset, f.network_key) for f in forms])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=race) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(seen) == 8
    for view in seen:
        for (mset, network_key), eager in zip(view, expected):
            assert mset == eager.mset
            assert network_key == eager.network_key


def test_store_written_under_eager_keys_warm_starts(
    tmp_path, monkeypatch, small_random_msets, fig1_mset
):
    """A plan store keyed by the eager derivation serves every key."""
    instances = [fig1_mset, *small_random_msets]
    requests = [
        PlanRequest(instance=_fresh(mset), solver=solver)
        for mset in instances
        for solver in ("greedy", "greedy+reversal", "dp")
    ]
    with monkeypatch.context() as patch:
        patch.setattr(canonical_module, "canonicalize", reference_canonicalize)
        writer = Planner(cache_tiers=[PlanStore(tmp_path)])
        written = [writer.plan(request) for request in requests]
        assert writer.cache_info().misses == len(requests)
    store = PlanStore(tmp_path)
    assert len(store) == len(requests)
    reader = Planner(cache_size=0, cache_tiers=[store])
    for request, expected in zip(requests, written):
        fresh = PlanRequest(instance=_fresh(request.instance), solver=request.solver)
        served = reader.plan(fresh)
        assert served.cache_hit
        assert served.schedule == expected.schedule
        assert served.value == expected.value
    assert reader.cache_info().tier_hits == len(requests)

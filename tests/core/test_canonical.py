"""Canonical instance forms: exactness, key unification, round-trips.

The load-bearing property (satellite of the amortized-batch work): planning
the *canonical* instance and mapping the schedule back must be **byte-equal**
to running ``solve_dp`` directly on the original — values, schedules, timing
vectors, argmin structure — across renames, destination permutations (the
proven ``permutation`` metamorphic invariant) and power-of-two rescalings
(the exactly-invertible subgroup of the proven ``scaling`` invariant).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.canonical import canonical_key, canonicalize, map_schedule
from repro.core.dp import solve_dp
from repro.core.greedy import greedy_schedule
from repro.core.multicast import MulticastSet
from repro.core.node import Node

from tests.strategies import multicast_sets


def _renamed(mset: MulticastSet, prefix: str) -> MulticastSet:
    nodes = [
        Node(f"{prefix}{i}", nd.send_overhead, nd.receive_overhead)
        for i, nd in enumerate(mset.nodes)
    ]
    return MulticastSet(nodes[0], nodes[1:], mset.latency)


def _scaled(mset: MulticastSet, factor: float) -> MulticastSet:
    nodes = [
        Node(nd.name, nd.send_overhead * factor, nd.receive_overhead * factor)
        for nd in mset.nodes
    ]
    return MulticastSet(nodes[0], nodes[1:], mset.latency * factor)


class TestCanonicalForm:
    @given(mset=multicast_sets())
    def test_rescale_is_exact_and_idempotent(self, mset):
        canon = mset.canonical_form()
        # the scale is a power of two and inverts exactly
        mantissa, _exp = math.frexp(canon.scale)
        assert mantissa == 0.5 or canon.scale == 1.0
        for orig, new in zip(mset.nodes, canon.mset.nodes):
            assert new.send_overhead * canon.scale == orig.send_overhead
            assert new.receive_overhead * canon.scale == orig.receive_overhead
        assert canon.mset.latency * canon.scale == mset.latency
        # largest parameter normalized into [1, 2)
        largest = max(
            canon.mset.latency,
            *(nd.send_overhead for nd in canon.mset.nodes),
            *(nd.receive_overhead for nd in canon.mset.nodes),
        )
        assert 1.0 <= largest < 2.0
        # canonicalizing the canonical form is the identity class
        again = canonicalize(canon.mset)
        assert again.scale == 1.0
        assert again.key == canon.key
        assert again.network_key == canon.network_key

    @given(mset=multicast_sets(), shift=st.integers(min_value=-2, max_value=3))
    def test_key_unifies_renames_and_power_of_two_scalings(self, mset, shift):
        variants = [
            _renamed(mset, "node"),
            _scaled(mset, 2.0**shift),
            _renamed(_scaled(mset, 2.0**shift), "w"),
            MulticastSet(
                mset.source, tuple(reversed(mset.destinations)), mset.latency
            ),
        ]
        for variant in variants:
            assert canonical_key(variant) == canonical_key(mset)
            assert (
                variant.canonical_form().network_key
                == mset.canonical_form().network_key
            )

    @given(mset=multicast_sets())
    def test_key_separates_non_power_of_two_scalings(self, mset):
        # a x3 scaling is value-equivalent (the conformance invariant) but
        # not exactly invertible in floats, so it must NOT share the class
        assert canonical_key(_scaled(mset, 3.0)) != canonical_key(mset)

    @given(mset=multicast_sets(max_n=6))
    def test_correlation_flag_preserved(self, mset):
        assert mset.canonical_form().mset.correlated == mset.correlated

    @given(mset=multicast_sets(max_n=6))
    def test_fields_are_read_only(self, mset):
        form = canonicalize(mset)
        for field in ("key", "scale", "mset", "network_key"):
            with pytest.raises(AttributeError):
                setattr(form, field, getattr(form, field))

    @given(mset=multicast_sets())
    def test_equality_is_by_key_and_scale(self, mset):
        form = canonicalize(mset)
        twin = canonicalize(_renamed(mset, "node"))
        assert twin is not form
        assert twin == form and hash(twin) == hash(form)
        assert (twin.mset, twin.network_key) == (form.mset, form.network_key)
        doubled = canonicalize(_scaled(mset, 2.0))
        assert doubled.key == form.key and doubled != form
        assert canonicalize(_scaled(mset, 3.0)) != form


class TestRoundTrip:
    @settings(max_examples=60)
    @given(
        mset=multicast_sets(max_types=3, max_n=7),
        shift=st.integers(min_value=0, max_value=2),
    )
    def test_dp_on_canonical_maps_back_byte_equal(self, mset, shift):
        """Plan the canonical instance, map back, compare against a direct
        ``solve_dp`` on the (renamed/rescaled) original: byte-equal."""
        original = _renamed(_scaled(mset, 2.0**shift), "host")
        canon = original.canonical_form()
        direct = solve_dp(original)
        canonical_solution = solve_dp(canon.mset)
        mapped = map_schedule(canonical_solution.schedule, original)
        assert mapped == direct.schedule
        assert mapped.children == direct.schedule.children
        assert mapped.reception_completion == direct.value
        assert mapped.reception_times == direct.schedule.reception_times
        assert mapped.delivery_times == direct.schedule.delivery_times
        assert canonical_solution.states_computed == direct.states_computed

    @settings(max_examples=60)
    @given(mset=multicast_sets(max_n=10))
    def test_greedy_on_canonical_maps_back_byte_equal(self, mset):
        canon = mset.canonical_form()
        direct = greedy_schedule(mset)
        mapped = map_schedule(greedy_schedule(canon.mset), mset)
        assert mapped == direct
        assert mapped.reception_times == direct.reception_times

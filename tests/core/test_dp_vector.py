"""The slab-vectorized DP backend is bit-identical to the scalar scan.

Engine tests run twice: on the numpy slab engine (skipped when numpy
is unavailable) and with a missing numpy imitated, where every backend
resolves to the scalar scan and the only flat core left is a snapshot
attached as ``memoryview`` planes.  Identity is exact — ``==`` on
values, schedules, argmin splits and state counts, no tolerances —
because the planner, conformance corpus and snapshot codec all rely on
the backends being interchangeable byte for byte.
"""

import json

import pytest

import repro.core.dp_vector as dp_vector
from repro.core.dp import (
    _DPCore,
    TypeSystem,
    estimated_states,
    solve_dp,
)
from repro.core.dp_table import _core_planes, _plane_bytes
from repro.core.dp_vector import (
    AUTO_VECTOR_MIN_STATES,
    DP_BACKENDS,
    _VectorCore,
    core_cls_for,
    numpy_available,
    resolve_backend,
    solve_dp_backend,
    solve_dp_vector,
)
from repro.exceptions import SolverError
from repro.workloads.clusters import limited_type_cluster
from repro.workloads.generator import multicast_from_cluster

#: The E4 type sets, spelled out so this file imports nothing that needs
#: numpy (the experiments package does, through repro.analysis).
TYPE_SETS = {
    1: [(2, 3)],
    2: [(1, 1), (3, 5)],
    3: [(1, 1), (2, 3), (5, 8)],
}


def _instance(k: int, n: int, latency: float = 1):
    base, extra = divmod(n + 1, k)
    counts = [base + (1 if i < extra else 0) for i in range(k)]
    nodes = limited_type_cluster(TYPE_SETS[k], counts)
    return multicast_from_cluster(nodes, latency=latency, source="slowest")


@pytest.fixture(params=["numpy", "no_numpy"])
def engine(request, monkeypatch):
    """Run the test under the numpy slab engine, or with numpy missing."""
    if request.param == "numpy":
        if not numpy_available():
            pytest.skip("numpy engine unavailable")
    else:
        monkeypatch.setattr(dp_vector, "_numpy", lambda: None)
        assert not numpy_available()
    return request.param


@pytest.fixture
def no_numpy(monkeypatch):
    """Imitate a missing numpy through the package's single probe."""
    monkeypatch.setattr(dp_vector, "_numpy", lambda: None)
    assert not numpy_available()


def _flat_core(engine: str, types: TypeSystem, latency, box) -> _VectorCore:
    """A flat core holding ``box`` as the engine has one.

    The numpy engine fills it slab by slab; without numpy it is a scalar
    build attached as ``memoryview`` planes, as a snapshot is.
    """
    if engine == "numpy":
        core = _VectorCore(types, latency)
        core.ensure(box)
        return core
    scalar = _DPCore(types, latency)
    scalar.ensure(box)
    planes = [_core_planes(scalar, s) for s in range(types.k)]
    tau, ell, ysp = ([_plane_bytes(p) for p in group] for group in zip(*planes))
    core = _VectorCore.from_flat(types, latency, box, tau, ell, ysp)
    assert isinstance(core._tau[0], memoryview)
    return core


def assert_cores_identical(scalar: _DPCore, vector: _VectorCore) -> None:
    """Full table equality: tau values and (ell, ysplit) choices."""
    assert scalar._max == vector._max
    assert scalar._strides == vector._strides
    k = scalar.types.k
    size = scalar._size
    for s in range(k):
        assert list(vector._tau[s]) == list(scalar._tau[s])
        for code in range(size):
            choice = scalar._choice[s][code]
            ell = vector._ell[s][code]
            ysp = vector._ysplit[s][code]
            if choice is None:
                assert (ell, ysp) == (-1, 0), (s, code)
            else:
                assert (ell, ysp) == choice, (s, code)


# ----------------------------------------------------------------------
# solve-level parity
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "k,n,latency",
    [(1, 1, 1), (1, 7, 2), (1, 24, 1), (2, 2, 1), (2, 9, 3), (2, 17, 1),
     (3, 3, 1), (3, 8, 2), (3, 14, 1)],
)
def test_solve_parity(engine, k, n, latency):
    mset = _instance(k, n, latency)
    scalar = solve_dp(mset)
    vector = solve_dp_vector(mset)
    assert vector.value == scalar.value
    assert vector.schedule == scalar.schedule
    assert vector.schedule.reception_times == scalar.schedule.reception_times
    assert vector.states_computed == scalar.states_computed


def test_choice_table_identity(engine):
    for k, counts in [(2, (6, 5)), (3, (4, 3, 3))]:
        mset = _instance(k, sum(counts))
        types = TypeSystem.of(mset)
        box = tuple(counts)
        scalar = _DPCore(types, mset.latency)
        scalar.ensure(box)
        assert_cores_identical(scalar, _flat_core(engine, types, mset.latency, box))


def test_incremental_grow_identity(engine):
    """Two-step growth matches a fresh scalar build of the final box."""
    for k, first, second in [
        (2, (4, 3), (7, 6)),
        (3, (2, 2, 2), (4, 3, 5)),
    ]:
        mset = _instance(k, sum(second))
        types = TypeSystem.of(mset)
        vector = _flat_core(engine, types, mset.latency, first)
        grown = vector.extended_to(second)
        fresh = _DPCore(types, mset.latency)
        fresh.ensure(second)
        if engine == "numpy":
            assert_cores_identical(fresh, grown)
        else:  # without numpy the attached core grows through the scalar engine
            assert type(grown) is _DPCore
            assert grown._tau == fresh._tau and grown._choice == fresh._choice
        assert grown.states_filled == fresh.states_filled
        # the original core is untouched (readers stay consistent)
        assert vector._max == first
        # growing in place keeps the core flat and identical
        vector.ensure(second)
        assert_cores_identical(fresh, vector)
        assert vector.states_filled == fresh.states_filled


# ----------------------------------------------------------------------
# backend resolution and the spec surface
# ----------------------------------------------------------------------
def test_backend_names_are_stable():
    assert DP_BACKENDS == ("auto", "scalar", "vector")


def test_resolve_backend_auto_rules():
    big = AUTO_VECTOR_MIN_STATES * 10
    assert resolve_backend("scalar", k=2, states=big) == "scalar"
    # homogeneous instances always take the scalar closed form
    assert resolve_backend("auto", k=1, states=big) == "scalar"
    # small boxes stay scalar: the slab setup cost dominates
    assert resolve_backend("auto", k=2, states=AUTO_VECTOR_MIN_STATES - 1) == "scalar"
    if numpy_available():
        assert resolve_backend("vector", k=1, states=1) == "vector"
        assert resolve_backend("auto", k=2, states=big) == "vector"


def test_resolve_backend_auto_without_numpy(no_numpy):
    big = AUTO_VECTOR_MIN_STATES * 10
    assert resolve_backend("auto", k=2, states=big) == "scalar"
    assert resolve_backend("vector", k=2, states=big) == "scalar"
    assert core_cls_for("vector", k=2, states=big) is _DPCore


def test_vector_plan_without_numpy_matches_scalar_bytes(no_numpy):
    """``dp(backend=vector)`` without numpy serializes exactly as scalar."""
    from repro.api import Planner
    from repro.api.tables import TableCacheConfig
    from repro.io.serialization import plan_result_to_dict

    def payload(backend):
        planner = Planner(cache_size=0, table_config=TableCacheConfig(enabled=False))
        result = planner.plan(_instance(3, 8), solver=f"dp(backend={backend})")
        data = plan_result_to_dict(result)
        data["elapsed_s"] = 0.0
        # the spec names the requested backend; everything else must match
        del data["provenance"]["spec"], data["provenance"]["options"]
        return json.dumps(data, sort_keys=True).encode()

    assert payload("vector") == payload("scalar")


def test_unknown_backend_raises():
    mset = _instance(2, 4)
    with pytest.raises(SolverError, match="unknown dp backend"):
        resolve_backend("bogus")
    with pytest.raises(SolverError, match="unknown dp backend"):
        solve_dp_backend(mset, backend="bogus")
    with pytest.raises(SolverError, match="unknown dp backend"):
        core_cls_for("bogus")


def test_solve_dp_backend_dispatch(engine):
    mset = _instance(2, 8)
    for backend in DP_BACKENDS:
        solution = solve_dp_backend(mset, backend=backend)
        scalar = solve_dp(mset)
        assert solution.value == scalar.value
        assert solution.schedule == scalar.schedule
        assert solution.states_computed == scalar.states_computed


def test_core_cls_for_matches_resolution():
    assert core_cls_for("scalar", k=2, states=10**6) is _DPCore
    if numpy_available():
        assert core_cls_for("vector", k=2, states=1) is _VectorCore
        assert core_cls_for("auto", k=2, states=10**6) is _VectorCore
    assert core_cls_for("auto", k=1, states=10**6) is _DPCore


def test_max_states_guard_applies_to_vector():
    mset = _instance(2, 20)
    with pytest.raises(SolverError, match="max_states"):
        solve_dp_vector(mset, max_states=10)


# ----------------------------------------------------------------------
# the full quick-corpus identity sweep (mirrors test_reference_identity)
# ----------------------------------------------------------------------
MAX_IDENTITY_STATES = 200_000


def test_vector_bit_identical_on_quick_corpus():
    from repro.api.solvers import capable_solvers
    from repro.conformance import generate_corpus

    checked = 0
    for spec in generate_corpus("quick"):
        mset = spec.build()
        if "dp" not in capable_solvers(mset):
            continue
        if estimated_states(mset) > MAX_IDENTITY_STATES:
            continue  # pragma: no cover - quick corpus stays tiny
        scalar = solve_dp(mset)
        vector = solve_dp_vector(mset)
        assert vector.value == scalar.value, spec.key
        assert vector.schedule == scalar.schedule, spec.key
        assert (
            vector.schedule.reception_times == scalar.schedule.reception_times
        ), spec.key
        assert vector.states_computed == scalar.states_computed, spec.key
        checked += 1
    # the corpus must actually exercise the DP, not skip everything
    assert checked > 100

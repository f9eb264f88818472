"""Capability-aware solver registry: every planning strategy behind one name.

The only solver registry of the package.  The ``(MulticastSet) -> Schedule``
schedulers of :mod:`repro.algorithms`, the exact solvers
(:func:`repro.core.dp.solve_dp`, :func:`repro.core.brute_force.solve_exact`)
and the multi-group strategies all register here from one built-in table;
each is a :class:`SolverEntry` carrying *capability metadata* — whether it
is exact, the largest instance it is practical for, how many workstation
types it tolerates, its complexity class — and is resolved from a single
*spec string*::

    "greedy+reversal"                 # bare name
    "exact(max_destinations=12)"      # name with solver options

Lower-bound providers (:mod:`repro.core.bounds`) register here too, so bound
reports are assembled from the same catalogue the planner uses.
"""

from __future__ import annotations

import ast
import re
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.core.multicast import MulticastSet
from repro.core.schedule import Schedule
from repro.exceptions import SolverError

__all__ = [
    "SolverCapabilities",
    "SolverOutput",
    "SolverEntry",
    "register_solver",
    "unregister_solver",
    "get_solver",
    "resolve",
    "parse_spec",
    "available_solvers",
    "solver_items",
    "capable_solvers",
    "register_bound",
    "available_bounds",
    "bound_values",
]

# (MulticastSet, **options) -> SolverOutput
SolverFn = Callable[..., "SolverOutput"]


@dataclass(frozen=True)
class SolverCapabilities:
    """What a solver can do and where it is practical.

    Attributes
    ----------
    exact:
        ``True`` when the solver returns a provably optimal schedule
        (within its supported regime).
    complexity:
        Human-readable complexity class, e.g. ``"O(n log n)"``.
    max_n:
        Largest destination count the solver is practical for, or ``None``
        for no intrinsic limit.  Used by :func:`capable_solvers` to skip
        solvers that cannot handle an instance.
    requires_k_types:
        For solvers whose cost is exponential in the number of distinct
        workstation types (the Section 4 DP): the largest ``k`` the solver
        is practical for, or ``None`` when ``k`` is irrelevant.
    options:
        Names of the keyword options the solver accepts (informational).
    reusable_table:
        ``True`` when the solver's work for one instance can be captured
        in a precomputed per-network table (the Theorem 2 closing note)
        that answers *other* instances over the same ``(send, receive)``
        type system and latency.  The planner exploits this through its
        :class:`~repro.api.tables.OptimalTableCache` fast path.
    multi_group:
        ``True`` for cross-group composition strategies (the ``mg-*``
        entries) that consume a
        :class:`~repro.core.contention.MultiGroupInstance` plus
        already-solved per-group schedules and return a
        :class:`~repro.core.contention.MultiGroupSchedule`.  They are
        capability-gated out of every single-group path:
        :meth:`supports` is ``False`` for a plain
        :class:`~repro.core.multicast.MulticastSet`, so
        :func:`capable_solvers`, the conformance sweep and
        ``Planner.plan`` never feed them single-group instances — use
        :class:`repro.api.MultiGroupPlanner` instead.
    """

    exact: bool = False
    complexity: str = "polynomial"
    max_n: Optional[int] = None
    requires_k_types: Optional[int] = None
    options: Tuple[str, ...] = ()
    reusable_table: bool = False
    multi_group: bool = False

    def supports(self, mset: MulticastSet) -> bool:
        """Whether this solver is practical for ``mset`` (advisory)."""
        if self.multi_group:
            # multi-group strategies never answer single-group instances
            return False
        if self.max_n is not None and mset.n > self.max_n:
            return False
        if self.requires_k_types is not None and mset.num_types > self.requires_k_types:
            return False
        return True


@dataclass(frozen=True)
class SolverOutput:
    """What a unified solver returns: the schedule plus solver statistics."""

    schedule: Schedule
    stats: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class SolverEntry:
    """One registered solver: name, callable, description, capabilities."""

    name: str
    fn: SolverFn
    description: str
    capabilities: SolverCapabilities

    def __call__(self, mset: MulticastSet, **options: Any) -> SolverOutput:
        """Run the solver (delegates to :attr:`fn`)."""
        return self.fn(mset, **options)

    @property
    def display_name(self) -> str:
        """Name annotated with exactness, e.g. ``"dp (optimal)"``."""
        return f"{self.name} (optimal)" if self.capabilities.exact else self.name


_SOLVERS: Dict[str, SolverEntry] = {}
_BOUNDS: Dict[str, Tuple[Callable[[MulticastSet], float], str]] = {}
#: Names the built-in table registered; unregistering one restores it on
#: the next lookup.
_BUILTIN_NAMES: "set[str]" = set()


def register_solver(
    name: str,
    description: str,
    *,
    capabilities: Optional[SolverCapabilities] = None,
) -> Callable[[SolverFn], SolverFn]:
    """Decorator: register a unified solver under ``name``.

    The decorated callable takes ``(MulticastSet, **options)`` and returns a
    :class:`SolverOutput`.  Registering a name twice raises
    :class:`~repro.exceptions.SolverError`.
    """

    def deco(fn: SolverFn) -> SolverFn:
        _ensure_loaded()  # built-in names are taken even before first lookup
        if name in _SOLVERS:
            raise SolverError(f"solver {name!r} registered twice")
        _SOLVERS[name] = SolverEntry(
            name=name,
            fn=fn,
            description=description,
            capabilities=capabilities or SolverCapabilities(),
        )
        return fn

    return deco


def unregister_solver(name: str) -> bool:
    """Remove a solver registered with :func:`register_solver`.

    Returns whether the name was registered.  Intended for tests and
    plugins that install throwaway solvers (the conformance suite injects
    deliberately broken solvers to prove the invariants catch them).
    Built-ins are resilient: every entry of the built-in table — the
    schedulers, the ``dp``/``exact`` oracles, the ``mg-*`` strategies —
    reappears on the next lookup, so only ad-hoc registrations are really
    removable.
    """
    global _LOADED
    removed = _SOLVERS.pop(name, None) is not None
    if removed and name in _BUILTIN_NAMES:
        # built-ins register once behind the _LOADED flag; drop it so the
        # next lookup restores them (losing the oracle for the rest of the
        # process would make oracle invariants pass vacuously)
        with _LOAD_LOCK:
            _LOADED = False
    return removed


def register_bound(
    name: str, description: str
) -> Callable[[Callable[[MulticastSet], float]], Callable[[MulticastSet], float]]:
    """Decorator: register a certified lower-bound provider under ``name``."""

    def deco(fn: Callable[[MulticastSet], float]) -> Callable[[MulticastSet], float]:
        if name in _BOUNDS:
            raise SolverError(f"bound {name!r} registered twice")
        _BOUNDS[name] = (fn, description)
        return fn

    return deco


_SPEC_RE = re.compile(r"^\s*(?P<name>[A-Za-z0-9_+.-]+)\s*(?:\((?P<args>.*)\))?\s*$")


def parse_spec(spec: str) -> Tuple[str, Dict[str, Any]]:
    """Split a solver spec string into ``(name, options)``.

    Specs are a bare solver name, optionally followed by parenthesised
    keyword options whose values are Python literals::

    >>> parse_spec("dp")
    ('dp', {})
    >>> parse_spec("exact(max_destinations=12)")
    ('exact', {'max_destinations': 12})
    """
    if not isinstance(spec, str):
        raise SolverError(f"solver spec must be a string, got {type(spec).__name__}")
    match = _SPEC_RE.match(spec)
    if match is None:
        raise SolverError(f"malformed solver spec {spec!r}")
    name = match.group("name")
    args = match.group("args")
    options: Dict[str, Any] = {}
    if args:
        for part in args.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise SolverError(
                    f"malformed solver spec {spec!r}: option {part!r} is not key=value"
                )
            key, _, raw = part.partition("=")
            key = key.strip()
            try:
                value: Any = ast.literal_eval(raw.strip())
            except (ValueError, SyntaxError):
                value = raw.strip()  # bare words pass through as strings
            options[key] = value
    return name, options


def get_solver(name: str) -> SolverEntry:
    """The :class:`SolverEntry` registered under ``name`` (exact match)."""
    _ensure_loaded()
    try:
        return _SOLVERS[name]
    except KeyError:
        raise SolverError(
            f"unknown solver {name!r}; available: {available_solvers()}"
        ) from None


def resolve(spec: str) -> Tuple[SolverEntry, Dict[str, Any]]:
    """Resolve a spec string to ``(entry, options)``.

    This is the single lookup path for every consumer — the CLI, the
    planner, experiments — so there are no per-solver special cases.
    """
    name, options = parse_spec(spec)
    return get_solver(name), options


def available_solvers() -> List[str]:
    """Sorted names of every registered solver (schedulers + exact)."""
    _ensure_loaded()
    return sorted(_SOLVERS)


def solver_items() -> Iterator[SolverEntry]:
    """Iterate every :class:`SolverEntry` in sorted name order."""
    _ensure_loaded()
    for name in sorted(_SOLVERS):
        yield _SOLVERS[name]


def capable_solvers(mset: MulticastSet) -> List[str]:
    """Names of solvers whose capabilities declare ``mset`` practical."""
    return [e.name for e in solver_items() if e.capabilities.supports(mset)]


def available_bounds() -> List[str]:
    """Sorted names of every registered lower-bound provider."""
    _ensure_loaded()
    return sorted(_BOUNDS)


def bound_values(mset: MulticastSet) -> Dict[str, float]:
    """Evaluate every registered lower bound on ``mset``."""
    _ensure_loaded()
    return {name: _BOUNDS[name][0](mset) for name in sorted(_BOUNDS)}


# ----------------------------------------------------------------------
# built-in registrations
# ----------------------------------------------------------------------
_LOADED = False
_LOAD_LOCK = threading.Lock()


def _scheduler_solver(fn: Callable[[MulticastSet], Schedule]) -> SolverFn:
    """Adapt a plain ``(MulticastSet) -> Schedule`` scheduler to a solver."""

    def run(mset: MulticastSet, **options: Any) -> SolverOutput:
        if options:
            raise SolverError(
                f"scheduler solvers take no options, got {sorted(options)}"
            )
        return SolverOutput(schedule=fn(mset))

    return run


def _builtin_entries() -> List[SolverEntry]:
    """The built-in table: every solver the package ships, registered once."""
    from repro.algorithms import (
        binomial,
        binomial_fastest_first,
        fastest_node_first,
        greedy,
        greedy_reversed,
        linear_chain,
        local_search_schedule,
        postal_tree,
        random_tree,
        sequential_star,
        sequential_star_naive,
    )
    from repro.core.brute_force import solve_exact
    from repro.core.contention import MULTI_GROUP_STRATEGIES
    from repro.core.dp_vector import solve_dp_backend

    # fmt: off
    schedulers = (
        ("greedy", greedy,
         "the paper's O(n log n) greedy (Section 2)", "O(n log n)"),
        ("greedy+reversal", greedy_reversed,
         "greedy followed by the Section 3 leaf reversal", "O(n log n)"),
        ("greedy+ls", local_search_schedule,
         "greedy + reversal + first-improvement local search", "O(n^2) local search"),
        ("fnf", fastest_node_first,
         "fastest-node-first greedy of the node model [2], "
         "evaluated under the receive-send model", "O(n log n)"),
        ("binomial", binomial,
         "classic binomial tree over the canonical node order", "O(n log n)"),
        ("binomial-ff", binomial_fastest_first,
         "binomial tree, explicitly fastest-sender-first placement", "O(n log n)"),
        ("postal", postal_tree,
         "Bar-Noy/Kipnis postal-optimal shape fitted to the instance", "O(n log n)"),
        ("star", sequential_star,
         "source sends everything; slow receivers served first", "O(n log n)"),
        ("star-naive", sequential_star_naive,
         "source sends everything in canonical overhead order", "O(n)"),
        ("chain", linear_chain,
         "linear forwarding pipeline, fastest senders first", "O(n)"),
        ("random", random_tree,
         "seeded uniformly random recruitment tree", "O(n)"),
    )
    # fmt: on
    entries = [
        SolverEntry(
            name=name,
            fn=_scheduler_solver(fn),
            description=description,
            capabilities=SolverCapabilities(complexity=complexity),
        )
        for name, fn, description, complexity in schedulers
    ]

    def run_dp(mset: MulticastSet, **options: Any) -> SolverOutput:
        backend = options.pop("backend", "auto")
        solution = solve_dp_backend(mset, backend=backend, **options)
        return SolverOutput(
            schedule=solution.schedule,
            stats={"states_computed": solution.states_computed},
        )

    def run_exact(mset: MulticastSet, **options: Any) -> SolverOutput:
        solution = solve_exact(mset, **options)
        return SolverOutput(
            schedule=solution.schedule,
            stats={"nodes_expanded": solution.nodes_expanded},
        )

    entries.append(
        SolverEntry(
            name="dp",
            fn=run_dp,
            description="Section 4 dynamic program: optimal for limited heterogeneity",
            capabilities=SolverCapabilities(
                exact=True,
                complexity="O(n^{2k})",
                requires_k_types=4,
                options=("max_states", "backend"),
                reusable_table=True,
            ),
        )
    )
    entries.append(
        SolverEntry(
            name="exact",
            fn=run_exact,
            description="branch-and-bound exhaustive search (validation oracle)",
            capabilities=SolverCapabilities(
                exact=True,
                complexity="exponential",
                max_n=10,
                options=("max_destinations", "node_budget"),
            ),
        )
    )
    for strategy_name, (strategy_fn, strategy_desc) in MULTI_GROUP_STRATEGIES.items():
        mg_name = f"mg-{strategy_name}"
        entries.append(
            SolverEntry(
                name=mg_name,
                fn=_multi_group_solver(mg_name, strategy_fn),
                description=f"multi-group composition: {strategy_desc}",
                capabilities=SolverCapabilities(
                    exact=False,
                    complexity="O(groups^2 * claims)",
                    multi_group=True,
                ),
            )
        )
    return entries


def _multi_group_solver(name: str, strategy: Any) -> SolverFn:
    """Adapt a cross-group composition strategy; refuses single groups."""
    from repro.core.contention import MultiGroupInstance

    def run(instance: Any, **options: Any) -> Any:
        schedules = options.pop("schedules", None)
        if options:
            raise SolverError(
                f"multi-group solver {name!r} takes no options, got {sorted(options)}"
            )
        if not isinstance(instance, MultiGroupInstance) or schedules is None:
            raise SolverError(
                f"solver {name!r} composes multi-group schedules: call it "
                "through repro.api.MultiGroupPlanner with a MultiGroupInstance, "
                "not through single-group planning paths"
            )
        return strategy(instance, schedules)

    return run


def _register_builtins() -> None:
    from repro.core.bounds import first_hop_lower_bound, homogeneous_relaxation_lower_bound

    for entry in _builtin_entries():
        _BUILTIN_NAMES.add(entry.name)
        _SOLVERS.setdefault(entry.name, entry)
    _BOUNDS["first-hop"] = (
        first_hop_lower_bound,
        "o_send(p0) + L + max destination receive overhead",
    )
    _BOUNDS["homogeneous-relaxation"] = (
        homogeneous_relaxation_lower_bound,
        "exact optimum of the all-minimum-overheads relaxation",
    )


def _ensure_loaded() -> None:
    global _LOADED
    if _LOADED:
        return
    # serialized so a parallel first access (plan_batch workers) never sees
    # a half-built registry; _LOADED flips only after registration finishes
    with _LOAD_LOCK:
        if not _LOADED:
            _register_builtins()
            _LOADED = True

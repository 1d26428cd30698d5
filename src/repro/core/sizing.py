"""Minimal queue-size search (the Figure 4 experiment).

Deadlock freedom of the case-study networks is monotone in queue size: a
deadlock that exists with larger queues can be replayed with the same
packet placement when queues shrink only if it still fits, while enlarging
queues only adds slack (the paper's Figure 3 argument: the third slot can
not be occupied and therefore breaks the cycle).  The search exploits this:
exponential climb until a deadlock-free size is found, then binary search
for the boundary.

The sweep runs on one :class:`~repro.core.engine.VerificationSession` with
*parametric* queue capacities: the block/idle encoding, the invariants and
every clause the solver learns are shared across all probed sizes — only
the ``cap[q] == size`` assumptions change per probe.  Set
``incremental=False`` to fall back to one fresh :func:`verify` per size
(the from-scratch baseline measured by ``benchmarks/bench_incremental.py``).
The incremental path assumes ``build(size)`` changes only queue capacities,
never network structure — true of every sweep in this repository (and of
the paper's Figure 4); pass ``incremental=False`` for exotic builders.

``minimal_queue_size`` is deliberately defensive: monotonicity is an
assumption about the *model family*, so the result records every probed
size and its verdict, and ``exhaustive=True`` re-checks every size below
the reported minimum.

:func:`sweep_queue_sizes` is the parallel counterpart for the *curve*
rather than the boundary: probe an explicit list of sizes (Figure 4 plots
one verdict per point) sharded across pool workers.  Each worker holds
one rehydrated parametric session and walks its shard in ascending order,
so every probe warm-starts on the clauses learned by the previous ones —
the same locality the sequential sweep exploits, multiplied by the worker
count.  Per-shard outcomes are aggregated with :meth:`SizingResult.merge`.

Both walks are additionally *phase-seeded*: after a deadlocked probe the
next probe's branching phases are initialised from the previous witness's
blocking shape (``seed_phases_from_witness`` locally, ``phase_hints`` in
the shard workers), so each capacity step starts its search at the model
the last step ended on instead of from scratch.

**Invariant modes.**  Both entry points take ``invariants=`` with two
settings.  ``"eager"`` (the default, equivalent to the old
``use_invariants=True``) conjoins the cross-layer invariants before the
first probe, as the paper does.  ``"none"`` never generates them — plain
block/idle detection, the paper's ablation.  The result records whether
invariants were in force (``invariants_used``) and how many rows were
encoded (``invariants_generated``).

**Timing split.**  Results separate ``build_seconds`` (network
construction, encoding, invariant generation) from ``query_seconds``
(solver time across probes) so experiment aggregation can attribute
wall-clock to the right phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterable, Sequence

from ..xmas import Network
from .engine import VerificationSession
from .proof import verify
from .resilience import Deadline
from .result import VerificationResult

__all__ = [
    "SizingResult",
    "minimal_queue_size",
    "sweep_queue_sizes",
    "resolve_invariants_mode",
]

INVARIANT_MODES = ("eager", "none")


class _DeadlineExpired(Exception):
    """Internal control flow: a probe answered TIMEOUT; abort the walk."""


def resolve_invariants_mode(
    invariants: str | None, use_invariants: bool = True
) -> str:
    """Normalise the ``invariants=`` / legacy ``use_invariants=`` pair.

    ``invariants`` wins when given; otherwise the boolean maps onto
    ``"eager"`` / ``"none"``.
    """
    if invariants is None:
        return "eager" if use_invariants else "none"
    if invariants not in INVARIANT_MODES:
        raise ValueError(
            f"invariants must be one of {INVARIANT_MODES}, got {invariants!r}"
        )
    return invariants


@dataclass
class SizingResult:
    """Outcome of a queue-size search or sweep.

    ``minimal_size`` is ``None`` when no probed size verified — possible
    for shard-level partial results (see :meth:`merge`) and for sweeps
    over a fixed size list that never reaches the boundary.

    ``build_seconds`` / ``query_seconds`` split the wall-clock between the
    build phase (network construction, encoding, invariant generation) and
    the solver queries; ``invariants_used`` and ``invariants_generated``
    (the number of invariant rows encoded) record the invariant-mode
    ablation (see the module docstring).
    """

    minimal_size: int | None
    probes: dict[int, bool] = field(default_factory=dict)  # size -> deadlock-free?
    results: dict[int, VerificationResult] = field(default_factory=dict)
    build_seconds: float = 0.0
    query_seconds: float = 0.0
    invariants_mode: str = "eager"
    invariants_used: bool = True
    invariants_generated: int = 0
    # True when a run budget expired before the search/sweep completed:
    # ``probes`` then holds only the sizes decided in budget (TIMEOUT
    # probes appear in ``results`` but never in ``probes``), and a
    # search's ``minimal_size`` is ``None`` (unconfirmed).
    timed_out: bool = False

    def pretty(self) -> str:
        probed = ", ".join(
            f"{size}:{'free' if free else 'deadlock'}"
            for size, free in sorted(self.probes.items())
        )
        if self.minimal_size is None:
            return f"no deadlock-free queue size probed ({probed})"
        return f"minimal deadlock-free queue size = {self.minimal_size} ({probed})"

    @classmethod
    def merge(cls, parts: Iterable["SizingResult"]) -> "SizingResult":
        """Aggregate shard-level results into one.

        Probe maps are unioned (a size probed by two shards must agree —
        verdicts are semantically determined) and the minimal size is
        recomputed from the union, so partial shards with
        ``minimal_size=None`` merge cleanly.  Timing splits are summed;
        the invariant-mode ablation fields aggregate conservatively
        (``invariants_used`` if any part used them).
        """
        probes: dict[int, bool] = {}
        results: dict[int, VerificationResult] = {}
        build_s = query_s = 0.0
        mode: str | None = None
        used = False
        generated = 0
        timed_out = False
        for part in parts:
            for size, free in part.probes.items():
                if size in probes and probes[size] != free:
                    raise ValueError(
                        f"conflicting verdicts for queue size {size} "
                        "across merged SizingResults"
                    )
                probes[size] = free
            results.update(part.results)
            build_s += part.build_seconds
            query_s += part.query_seconds
            mode = part.invariants_mode if mode is None else mode
            used = used or part.invariants_used
            generated += part.invariants_generated
            timed_out = timed_out or part.timed_out
        free_sizes = [size for size, free in probes.items() if free]
        return cls(
            minimal_size=min(free_sizes) if free_sizes else None,
            probes=probes,
            results=results,
            build_seconds=build_s,
            query_seconds=query_s,
            invariants_mode=mode or "eager",
            invariants_used=used,
            invariants_generated=generated,
            timed_out=timed_out,
        )


class _SplitTimer:
    """Accumulates the build/query wall-clock split."""

    def __init__(self) -> None:
        self.build = 0.0
        self.query = 0.0

    def timed(self, bucket: str, thunk: Callable):
        start = perf_counter()
        try:
            return thunk()
        finally:
            elapsed = perf_counter() - start
            if bucket == "build":
                self.build += elapsed
            else:
                self.query += elapsed


def minimal_queue_size(
    build: Callable[[int], Network],
    low: int = 1,
    max_size: int = 512,
    exhaustive: bool = False,
    incremental: bool = True,
    invariants: str | None = None,
    deadline=None,
    **verify_kwargs,
) -> SizingResult:
    """Smallest uniform queue size for which ``build(size)`` verifies.

    Parameters
    ----------
    build:
        Constructs the network with every queue sized to the argument.
    low:
        Smallest size to consider.
    max_size:
        Upper limit of the exponential climb; exceeded ⇒ ``RuntimeError``.
    exhaustive:
        Verify every size in ``[low, found)`` is deadlocked rather than
        trusting monotonicity.
    incremental:
        Probe all sizes through one shared :class:`VerificationSession`
        (requires ``build`` to vary only queue capacities).  ``False``
        re-verifies each size from scratch.
    invariants:
        ``"eager"`` / ``"none"`` — see the module docstring.  Defaults to
        eager; the legacy ``use_invariants=False`` kwarg still maps to
        ``"none"``.
    deadline:
        Optional :class:`~repro.core.resilience.Deadline` (or bare
        seconds / a wire tuple) bounding the *whole search*.  On expiry
        the walk stops and the partial result comes back with
        ``timed_out=True`` and ``minimal_size=None`` — the sizes decided
        in budget stay in ``probes``, and the TIMEOUT probe itself is
        recorded in ``results`` only.
    verify_kwargs:
        Forwarded to :func:`repro.core.proof.verify` (``use_invariants``,
        ``rotating_precision``, ``max_splits``).
    """
    mode = resolve_invariants_mode(
        invariants, verify_kwargs.pop("use_invariants", True)
    )
    use_invariants = mode == "eager"
    deadline = Deadline.coerce(deadline)
    probes: dict[int, bool] = {}
    results: dict[int, VerificationResult] = {}
    timer = _SplitTimer()
    generated = 0

    def guard_timeout(size: int, result) -> None:
        """Record a TIMEOUT probe and abort the walk (partial result)."""
        if result.timed_out:
            results[size] = result
            raise _DeadlineExpired

    if incremental:
        base_network = timer.timed("build", lambda: build(low))
        base_stats = base_network.stats()
        base_queues = {q.name for q in base_network.queues()}
        session = timer.timed(
            "build",
            lambda: VerificationSession(
                base_network, parametric_queues=True, **verify_kwargs
            ),
        )
        if use_invariants:
            timer.timed("build", session.add_invariants)
            generated = len(session.invariants)

        def probe(size: int) -> bool:
            if size not in probes:
                # Resize to what build(size) *actually* produces: builders
                # may pin some queues (non-uniform capacities).  Guard the
                # capacity-only assumption: primitive/channel counts or the
                # queue-name set changing means the builder varies structure
                # (same-count rewires remain the caller's responsibility).
                built = timer.timed("build", lambda: build(size))
                if (
                    built.stats() != base_stats
                    or {q.name for q in built.queues()} != base_queues
                ):
                    raise ValueError(
                        "build(size) changed network structure, not just "
                        "queue capacities; rerun with incremental=False"
                    )
                session.resize_queues({q.name: q.size for q in built.queues()})
                session.seed_phases_from_witness()
                result = timer.timed(
                    "query", lambda: session.verify(deadline=deadline)
                )
                guard_timeout(size, result)
                probes[size] = result.deadlock_free
                results[size] = result
            return probes[size]

    else:

        def probe(size: int) -> bool:
            if size not in probes:
                network = timer.timed("build", lambda: build(size))
                result = timer.timed(
                    "query",
                    lambda: verify(
                        network,
                        use_invariants=use_invariants,
                        deadline=deadline,
                        **verify_kwargs,
                    ),
                )
                guard_timeout(size, result)
                probes[size] = result.deadlock_free
                results[size] = result
            return probes[size]

    timed_out = False
    minimal: int | None = None
    try:
        # Exponential climb to the first deadlock-free size.
        size = low
        while not probe(size):
            size *= 2
            if size > max_size:
                raise RuntimeError(
                    f"no deadlock-free size found up to {max_size}; "
                    "the deadlock may be size-independent"
                )
        # Binary search in (last deadlocked, first free].
        high = size
        low_bound = max(low, size // 2)
        while low_bound < high:
            middle = (low_bound + high) // 2
            if probe(middle):
                high = middle
            else:
                low_bound = middle + 1
        minimal = high
        if exhaustive:
            for candidate in range(low, minimal):
                if probe(candidate):
                    raise AssertionError(
                        f"monotonicity violated: size {candidate} verifies "
                        f"but binary search reported {minimal}"
                    )
    except _DeadlineExpired:
        # The budget ran out mid-walk: return what was decided in budget
        # as a partial result instead of an answer we cannot stand behind
        # (an unconfirmed minimum from a truncated search would be worse
        # than none).
        timed_out = True
        minimal = None
    if use_invariants and not incremental and results:
        # Each from-scratch probe regenerated the full set; report its size.
        generated = max(len(result.invariants) for result in results.values())
    return SizingResult(
        minimal_size=minimal,
        probes=probes,
        results=results,
        build_seconds=timer.build,
        query_seconds=timer.query,
        invariants_mode=mode,
        invariants_used=use_invariants,
        invariants_generated=generated,
        timed_out=timed_out,
    )


def _capacity_only_assignment(
    built: Network, base_stats: dict, base_queues: set[str]
) -> dict[int, int] | dict[str, int]:
    """The per-queue sizes of ``built``, after guarding the capacity-only
    assumption shared with the incremental ``minimal_queue_size`` path."""
    if (
        built.stats() != base_stats
        or {q.name for q in built.queues()} != base_queues
    ):
        raise ValueError(
            "build(size) changed network structure, not just queue "
            "capacities; sweep the sizes with one session per size instead"
        )
    return {q.name: q.size for q in built.queues()}


def _pool_sweep(
    base_network: Network,
    size_list: Sequence[int],
    assignments: dict[int, dict[str, int]],
    jobs: int,
    backend: str,
    want_witness: bool,
    add_invariants: bool,
    timer: _SplitTimer,
    verify_kwargs: dict,
    deadline=None,
) -> SizingResult:
    """One sharded pass over ``size_list`` (striped shards, warm-start
    ascending order within each shard)."""
    from .parallel import ParallelVerificationSession

    session = timer.timed(
        "build",
        lambda: ParallelVerificationSession(
            base_network,
            jobs=jobs,
            backend=backend,
            parametric_queues=True,
            **verify_kwargs,
        ),
    )
    with session:
        if add_invariants:
            timer.timed("build", session.add_invariants)
        shard_sizes = [size_list[w::jobs] for w in range(jobs)]
        shard_sizes = [shard for shard in shard_sizes if shard]
        shard_results = timer.timed(
            "query",
            lambda: session.probe_shards(
                [[assignments[size] for size in shard] for shard in shard_sizes],
                want_witness=want_witness,
                deadline=deadline,
            ),
        )
        generated_full = len(session.invariants) if add_invariants else 0
    parts = []
    for shard, results_list in zip(shard_sizes, shard_results):
        part = SizingResult(minimal_size=None)
        for size, result in zip(shard, results_list):
            if result.timed_out:
                # The shard's budget expired at this probe: keep the
                # TIMEOUT result but no boolean verdict (the size stays
                # undecided) and mark the part partial.
                part.results[size] = result
                part.timed_out = True
                continue
            part.probes[size] = result.deadlock_free
            part.results[size] = result
        free = [size for size, ok in part.probes.items() if ok]
        part.minimal_size = min(free) if free else None
        parts.append(part)
    merged = SizingResult.merge(parts)
    merged.invariants_used = add_invariants
    merged.invariants_generated = generated_full
    return merged


def sweep_queue_sizes(
    build: Callable[[int], Network],
    sizes: Iterable[int],
    jobs: int = 1,
    use_invariants: bool = True,
    backend: str = "process",
    want_witness: bool = True,
    invariants: str | None = None,
    deadline=None,
    **verify_kwargs,
) -> SizingResult:
    """Verdict per queue size over an explicit size list, sharded.

    The Figure-4 *curve*: every size in ``sizes`` is probed (no binary
    search, no monotonicity assumption) and the result records the full
    verdict map.  With ``jobs > 1`` the points are striped across pool
    workers — worker ``w`` probes sizes ``w, w+jobs, w+2*jobs, ...`` of
    the ascending list, in ascending order, on its own rehydrated
    parametric session (warm-start within the shard).  Per-shard
    :class:`SizingResult`\\ s are aggregated with :meth:`SizingResult.merge`.

    ``build`` must vary only queue capacities (checked), as for the
    incremental ``minimal_queue_size``.  ``verify_kwargs`` forwards
    ``rotating_precision`` / ``max_splits``.

    ``deadline`` bounds the whole sweep; on expiry the undecided sizes
    are simply absent from ``probes`` (their TIMEOUT results stay in
    ``results``) and the merged result carries ``timed_out=True``.
    """
    mode = resolve_invariants_mode(invariants, use_invariants)
    deadline = Deadline.coerce(deadline)
    size_list = sorted(set(sizes))
    if not size_list:
        raise ValueError("sweep_queue_sizes() needs at least one size")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    timer = _SplitTimer()
    base_network = timer.timed("build", lambda: build(size_list[0]))
    base_stats = base_network.stats()
    base_queues = {q.name for q in base_network.queues()}
    assignments = timer.timed(
        "build",
        lambda: {
            size: _capacity_only_assignment(
                build(size), base_stats, base_queues
            )
            if size != size_list[0]
            else {q.name: q.size for q in base_network.queues()}
            for size in size_list
        },
    )

    if jobs == 1:
        session = timer.timed(
            "build",
            lambda: VerificationSession(
                base_network, parametric_queues=True, **verify_kwargs
            ),
        )
        generated = 0
        if mode == "eager":
            timer.timed("build", session.add_invariants)
            generated = len(session.invariants)
        part = SizingResult(minimal_size=None)
        for size in size_list:
            session.resize_queues(assignments[size])
            # Ascending walk: start each probe's search at the previous
            # witness (the shard workers do the same via phase_hints).
            session.seed_phases_from_witness()
            result = timer.timed(
                "query", lambda: session.verify(deadline=deadline)
            )
            if result.timed_out:
                part.results[size] = result
                part.timed_out = True
                break
            if not want_witness:
                # Match the parallel path's payload shape: the session
                # always extracts on SAT, so drop it afterwards.
                result.witness = None
            part.probes[size] = result.deadlock_free
            part.results[size] = result
        merged = SizingResult.merge([part])
        merged.invariants_used = mode == "eager"
        merged.invariants_generated = generated
    else:
        merged = _pool_sweep(
            base_network,
            size_list,
            assignments,
            jobs,
            backend,
            want_witness,
            mode == "eager",
            timer,
            verify_kwargs,
            deadline=deadline,
        )
    merged.invariants_mode = mode
    merged.build_seconds = timer.build
    merged.query_seconds = timer.query
    return merged

"""Workload definitions shared by the harness and its child processes.

Pure data and seeded generators only: this module imports nothing from
``repro``, so the harness (``run.py``) can use it without loading the
verifier into its own process.  Every input a run uses is derived here
from the run's ``--seed``.
"""

from __future__ import annotations

import random

WORKLOADS = ("fig4-boundary", "family-grid", "service-mix")

# -- fig4-boundary ------------------------------------------------------------
# Abstract MI on a 3x2 mesh: a Figure-4 search.  The two directory
# positions are the first and last entries of
# ``MeshTopology(3, 2).probe_positions()`` (the corner and the edge
# centre); the seed picks their order.  One 3x3 search takes 8-11 s, so a
# run held only three or four of them and its median followed the host's
# speed over those few; a 3x2 search takes 2-3 s.
FIG4_MESH = (3, 2)
FIG4_KNOWN_MINIMUM = 5

# -- family-grid --------------------------------------------------------------
# {abstract_mi, mi, msi} x {mesh 2x2, torus 2x2, ring 4}: nine boundary
# sweeps, each probing the known minimum and one size below it (a full
# search grid took over 20 s, one unit per run).  Families are listed
# heaviest first (family -> known minimum).
GRID_FAMILIES = {"msi": 4, "mi": 6, "abstract_mi": 3}
GRID_TOPOLOGIES = (
    ("mesh", {"width": 2, "height": 2}),
    ("torus", {"width": 2, "height": 2}),
    ("ring", {"n_nodes": 4}),
)
GRID_JOBS = 2

# -- service-mix --------------------------------------------------------------
# Small registered specs across the three families, each at a fixed
# queue size (both verdicts occur: some are deadlock-free, some are not).
SERVICE_SPECS = (
    ("abstract_mi_mesh", {"width": 2, "height": 2, "queue_size": 2}),
    ("abstract_mi_mesh", {"width": 2, "height": 2, "queue_size": 3}),
    ("abstract_mi_ring", {"n_nodes": 4, "queue_size": 3}),
    ("mi_mesh", {"width": 2, "height": 2, "queue_size": 6}),
    ("mi_ring", {"n_nodes": 4, "queue_size": 5}),
    ("msi_ring", {"n_nodes": 3, "queue_size": 4}),
)
# verify_channel case indices per spec (every spec has at least 44 cases)
SERVICE_CASES = tuple(range(12))
SERVICE_REQUESTS = 800  # requests in one pass of the stream
# One closed-loop connection.  With two, cold-tier hits queue for the GIL
# behind hot-tier solves running on server threads, and the median
# latency swings between the two modes from run to run.
SERVICE_CONNECTIONS = 1
SERVICE_HOT_CAPACITY = 8  # holds every spec: once promoted, a spec stays hot
# The server's PYTHONHASHSEED, the same in every run: the hot and warm
# tiers' solves follow hash order (see UNIT_HASH_SEEDS below).
SERVICE_HASH_SEED = 1
ZIPF_EXPONENT = 0.5


def hash_seed(seed: int) -> int:
    """The ``PYTHONHASHSEED`` of a traced run and of the service."""
    return seed % 2**32


# The hash seeds of the end-to-end fig4 and grid units.  Each unit runs
# in a fresh interpreter; the solver's search path, and so the work,
# depends on hash order, and a search took up to a third longer under
# one hash seed than under another.  With hash seeds drawn from the
# run's seed, runs of different seeds did different work, and with a
# cycle of hash seeds per run, runs that fitted in different numbers of
# units mixed them differently; both spread the medians.  So each fig4
# position and each grid topology always runs under its own hash seed
# (position or topology i under ``UNIT_HASH_SEEDS[i]``): every run does
# the same searches, in the order its seed sets, over several search
# paths.
UNIT_HASH_SEEDS = (1, 2, 3)


def unit_hash_seed(kind: int) -> int:
    """Hash seed of the units of the ``kind``-th fig4 position (0 = first,
    1 = last probe position) or grid topology (index in GRID_TOPOLOGIES)."""
    return UNIT_HASH_SEEDS[kind]


def second_hash_seed(seed: int) -> int:
    """The hash seed the traced run repeats the first search under."""
    return (hash_seed(seed) + 1) % 2**32


def fig4_kinds(seed: int) -> list[int]:
    """The two Figure-4 positions (0 = first, 1 = last of the probe
    positions) in the seed's order."""
    kinds = [0, 1]
    random.Random(seed).shuffle(kinds)
    return kinds


def fig4_order(seed: int, positions: list) -> list[tuple[int, tuple]]:
    """(kind, position) of the two Figure-4 positions, in the seed's order."""
    ends = [tuple(positions[0]), tuple(positions[-1])]
    return [(kind, ends[kind]) for kind in fig4_kinds(seed)]


def grid_scenarios(seed: int) -> list[tuple[str, dict, int]]:
    """(builder, kwargs, known minimum) for the nine grid points, in the
    order the seed sets: families heaviest first, topologies within each
    family in the seed's order.  A uniformly shuffled grid moved the
    two-worker makespan by up to a quarter, depending only on whether an
    MSI scenario happened to be submitted last."""
    rng = random.Random(seed * 1009)
    points = []
    for family, minimum in GRID_FAMILIES.items():
        topologies = list(GRID_TOPOLOGIES)
        rng.shuffle(topologies)
        points.extend(
            (f"{family}_{topology}", dict(kwargs), minimum)
            for topology, kwargs in topologies
        )
    return points


def grid_kinds(seed: int) -> list[int]:
    """Indices into GRID_TOPOLOGIES in the seed's order."""
    kinds = list(range(len(GRID_TOPOLOGIES)))
    random.Random(seed * 1009).shuffle(kinds)
    return kinds


def grid_unit(kind: int) -> list[tuple[str, dict, int]]:
    """(builder, kwargs, known minimum) of a grid unit: the three
    families, heaviest first, on topology ``kind``.  End-to-end runs
    cycle through the topologies in the seed's order, so three units
    make up the nine-point grid.  (The whole grid took 8-12 s, two or
    three units per run.)"""
    topology, kwargs = GRID_TOPOLOGIES[kind]
    return [
        (f"{family}_{topology}", dict(kwargs), minimum)
        for family, minimum in GRID_FAMILIES.items()
    ]


def service_catalogue() -> list[dict]:
    """Every distinct request the stream can draw."""
    entries = []
    for builder, kwargs in SERVICE_SPECS:
        spec = {"builder": builder, "kwargs": dict(kwargs)}
        entries.append({"op": "verify", "spec": spec})
        entries.append({"op": "witness", "spec": spec})
        for case in SERVICE_CASES:
            entries.append(
                {"op": "verify_channel", "spec": spec, "params": {"case": case}}
            )
    return entries


def service_stream(seed: int, pass_index: int) -> list[dict]:
    """One pass of the request stream: every catalogue entry once, in one
    fixed order, then Zipf-distributed repeats.

    The 84 first-of-their-kind requests are the solves (build, warm or
    hot tier, by their place in the order); the repeats are answered
    from the cold verdict store.  The popularity ranks are fixed too;
    the seed and the pass number draw the repeats.  With one closed-loop
    connection only one request is in flight, so where the repeats fall
    between the solves changes no request's latency; the order of the
    solves does (it decides each query's tier and the state of the
    session that answers it), and so does which entries are popular (a
    cold ``witness`` reply carries the witness).  With the solve order
    drawn by the seed, the pass time moved by 15% between seeds on a
    steady host and the 95th percentile by 24%; with the ranks drawn by
    the seed, the median latency moved by 19-25%.
    """
    first = service_catalogue()
    random.Random(0).shuffle(first)
    ranked = service_catalogue()
    random.Random(1).shuffle(ranked)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(ranked))]
    rng = random.Random(seed * 1009 + pass_index)
    return first + rng.choices(ranked, weights=weights, k=SERVICE_REQUESTS - len(first))


def query_key(request: dict) -> str:
    """Identity of a distinct query (what a verdict is checked under)."""
    spec = request["spec"]
    kwargs = ",".join(f"{k}={v}" for k, v in sorted(spec["kwargs"].items()))
    case = (request.get("params") or {}).get("case")
    suffix = "" if case is None else f"#{case}"
    return f"{request['op']}:{spec['builder']}({kwargs}){suffix}"

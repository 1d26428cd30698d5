"""Pin the exact search trajectory of one Figure-4 boundary search.

The solver's work counters are deterministic for a fixed spec and a fixed
``PYTHONHASHSEED`` (the build still iterates hash-ordered collections, so
the seed is part of the input).  A change that moves any of these counts
changes the search itself; such a change must re-record the expected
values below and explain the move in CHANGES.md.  Representation-only
changes (for example how exact values are stored) must leave them alone.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import json
from repro.core.experiments import ScenarioSpec, run_scenario

spec = ScenarioSpec(
    builder="abstract_mi_mesh",
    kwargs={"width": 2, "height": 2},
    mode="search",
    invariants="eager",
)
result = run_scenario(spec)
totals = result.stats["solver_totals"]
print(json.dumps({
    "minimal_size": result.minimal_size,
    "probes": {str(size): free for size, free in result.probes.items()},
    "counters": [totals[key] for key in
                 ("conflicts", "decisions", "propagations", "pivots")],
}))
"""

PROBES = {"1": False, "2": False, "3": True, "4": True}


@pytest.mark.parametrize(
    "hash_seed, counters",
    [
        # (conflicts, decisions, propagations, pivots)
        (0, [200, 1959, 27358, 281]),
        (5, [276, 2191, 33068, 413]),
    ],
)
def test_abstract_mi_2x2_search_trajectory_is_pinned(hash_seed, counters):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    record = json.loads(completed.stdout)
    assert record["minimal_size"] == 3
    assert record["probes"] == PROBES
    assert record["counters"] == counters

"""The benchmark's own test: which per-layer counters can be cited exactly.

Two traced runs at the same seed and the same ``PYTHONHASHSEED`` must
report identical work counters (``REPEATABLE``); a later change may cite
those as exact counts.  ``NOT_REPEATABLE`` lists the counters that do
not repeat exactly even then, so that no claim rests on one of them.
Times never repeat exactly and are listed in ``TIMES``.

    PYTHONPATH=src python -m pytest perfbench -m slow

The repeat tests are marked ``slow`` (two traced Figure-4 searches and
two service passes, about a minute); the classification test runs in
the default suite.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from run import END_TO_END_UNITS, PER_LAYER_UNITS  # noqa: E402

# Work counters: identical across runs at one seed and hash seed.
REPEATABLE = {
    "theory.calls",
    "sat.conflicts",
    "sat.decisions",
    "sat.propagations",
    "lia.splits",
    "invariants.rows",
    "solver.clauses",
    "engine.queries",
    "sizing.probes",
    "hashseed.sat_match",
    "hashseed.theory_calls_match",
    "hashseed.probes_match",
    "trace.spans",
    # service-mix drives one closed-loop connection, so the order in
    # which requests reach the tiers is fixed by the stream.
    "service.hits.cold",
    "service.hits.hot",
    "service.hits.warm",
    "service.hits.build",
    "service.hit_share",
    "service.coalesced",
    "service.rejected",
    "service.errors",
    "service.evictions",
    "cache.verdict_hits",
    "cache.verdict_misses",
}

# Counters that do not repeat exactly.  Empty at this commit; a workload
# with concurrent connections would list its service tier, coalescing
# and eviction counts here, because which of two overlapping requests
# reaches a spec first decides its tier.
NOT_REPEATABLE: set[str] = set()

TIMES = {
    name
    for name, unit in PER_LAYER_UNITS.items()
    if unit in ("s", "ms")
    or name in ("experiments.idle_share", "trace.overhead_share")
}


def test_every_metric_is_classified_and_declared():
    assert not (REPEATABLE & NOT_REPEATABLE)
    assert REPEATABLE | NOT_REPEATABLE | TIMES == set(PER_LAYER_UNITS)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == PER_LAYER_UNITS
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END_UNITS


def traced_first_search(seed: int, hash_seed: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(hash_seed))
    done = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "fig4", "--seed", str(seed),
         "--trace", "--only-first"],
        env=env,
        input="GO\n",
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    line = next(
        line for line in done.stdout.splitlines() if line.startswith("RESULT ")
    )
    return json.loads(line[len("RESULT "):])


@pytest.mark.slow
def test_work_counters_repeat_at_fixed_seed_and_hash_seed():
    first = traced_first_search(seed=3, hash_seed=3)
    second = traced_first_search(seed=3, hash_seed=3)
    assert first["searches"][0]["minimal_size"] == run.FIG4_KNOWN_MINIMUM
    counters = first["counters"]
    assert {"theory.calls", "sat.conflicts", "sizing.probes", "invariants.rows"} <= set(
        counters
    )
    for name in REPEATABLE & set(counters):
        assert counters[name] == second["counters"][name], name
    assert first["spans"] == second["spans"]


@pytest.mark.slow
def test_service_counters_repeat_with_one_connection():
    harness = run.Harness(argparse.Namespace(seed=5, seconds=0, trace=1))
    try:
        first = run.service_pass(harness, 0, 0)
        second = run.service_pass(harness, 1, 0)
    finally:
        harness.stop_all()
    assert [r[4:] for r in first["records"]] == [r[4:] for r in second["records"]]
    for key in ("hits", "queries", "coalesced", "rejected", "errors", "evictions"):
        assert first["stats"][key] == second["stats"][key], key
    assert first["stats"]["store"] == second["stats"]["store"]

"""Child-process body of the benchmark: one fresh interpreter per call.

    python3 perfbench/worker.py MODE --seed N [--kind K] [--trace]
        [--only-first] [--out PATH]

MODE is ``fig4`` (Figure-4 searches), ``grid`` (the family grid through
the scenario executor) or ``reference`` (fresh sequential eager solves
of the service-mix queries).  The harness pins ``PYTHONHASHSEED`` and
``PYTHONPATH`` in the environment.  The worker prints ``READY`` once its
inputs are built (the end of set-up), waits for a ``GO`` line on
standard input (the harness measures the host's speed in between), runs
its work and prints one ``RESULT <json>`` line.

``--kind K`` runs one unit of an end-to-end run: fig4 searches position
K (0 = first, 1 = last probe position), grid runs the three families on
topology K of ``GRID_TOPOLOGIES``.  Without it, fig4 searches both
positions in the seed's order and grid runs all nine points.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import (  # noqa: E402
    FIG4_MESH,
    GRID_JOBS,
    fig4_order,
    grid_scenarios,
    grid_unit,
    query_key,
    service_catalogue,
)


def ready() -> None:
    print("READY", flush=True)


def emit(payload: dict) -> None:
    print("RESULT " + json.dumps(payload, sort_keys=True), flush=True)


def wait_for_go() -> None:
    if sys.stdin.readline().strip() != "GO":
        sys.exit("perfbench worker: the harness did not say GO")


# -- fig4-boundary -------------------------------------------------------------
def fig4_specs(seed: int):
    """(kind, spec) of the two Figure-4 searches, in the seed's order."""
    from repro.core import ScenarioSpec
    from repro.fabrics import MeshTopology

    positions = MeshTopology(*FIG4_MESH).probe_positions()
    width, height = FIG4_MESH
    return [
        (
            kind,
            ScenarioSpec(
                builder="abstract_mi_mesh",
                kwargs={"width": width, "height": height, "directory_node": pos},
                mode="search",
                invariants="eager",
            ),
        )
        for kind, pos in fig4_order(seed, positions)
    ]


def run_fig4(args) -> dict:
    from repro.core import experiments

    specs = fig4_specs(args.seed)
    if args.kind is not None:
        specs = [pair for pair in specs if pair[0] == args.kind]
    elif args.only_first:
        specs = specs[:1]
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(run_id=f"fig4-boundary/{args.seed}/{os.getpid()}")
        tracer.install()
    ready()
    wait_for_go()
    searches = []
    first_counters = None
    started = perf_counter()
    with tracer.root() if tracer else nullcontext():
        for position, spec in specs:
            t0 = perf_counter()
            result = experiments.run_scenario(spec, query_jobs=1)
            searches.append(
                {
                    "position": position,
                    "seconds": perf_counter() - t0,
                    "minimal_size": result.minimal_size,
                    "failure": result.failure,
                }
            )
            if tracer and first_counters is None:
                first_counters = tracer.snapshot_counters()
    payload = {
        "searches": searches,
        "seconds": sum(s["seconds"] for s in searches),
        "started": started,
        "ended": perf_counter(),
    }
    if tracer:
        tracer.uninstall()
        payload["self_times"] = tracer.self_times()
        payload["trace_wall"] = tracer.wall()
        payload["counters"] = tracer.snapshot_counters()
        payload["first_counters"] = first_counters
        payload["spans"] = len(tracer.spans)
        if args.out:
            tracer.dump(args.out)
    return payload


# -- family-grid ---------------------------------------------------------------
def grid_experiment(points):
    from repro.core import Experiment, ScenarioSpec

    specs = [
        ScenarioSpec(
            builder=builder, kwargs=kwargs, mode="sweep", sizes=(minimum - 1, minimum)
        )
        for builder, kwargs, minimum in points
    ]
    known = {spec.key(): minimum for spec, (_b, _k, minimum) in zip(specs, points)}
    return Experiment("family-grid", specs), known


def run_grid(args) -> dict:
    from repro.core import Experiment, shutdown_scenario_executors

    if args.kind is None:
        points = grid_scenarios(args.seed)
    else:
        points = grid_unit(args.kind)
    experiment, known = grid_experiment(points)
    tracer = None
    if args.trace:
        # Scenario workers are separate processes: only the scheduler
        # call is wrapped here; worker layers come from ScenarioResult.
        from tracer import Tracer

        tracer = Tracer(run_id=f"family-grid/{args.seed}/{os.getpid()}")
        tracer.wrap(Experiment, "run", "experiments")
    ready()
    wait_for_go()
    try:
        t0 = perf_counter()
        with tracer.root() if tracer else nullcontext():
            result = experiment.run(jobs=GRID_JOBS)
        seconds = perf_counter() - t0
    finally:
        shutdown_scenario_executors()
    scenarios = [
        {
            "label": scenario.label,
            "minimal_size": scenario.minimal_size,
            "expected": known[scenario.key],
            "failure": scenario.failure,
            "total_seconds": scenario.total_seconds,
            "build_seconds": scenario.build_seconds,
            "query_seconds": scenario.query_seconds,
            "probes": len(scenario.probes),
            "invariants_generated": scenario.invariants_generated,
            "solver_totals": scenario.stats.get("solver_totals", {}),
        }
        for scenario in result.scenarios
    ]
    payload = {
        "position": args.kind,
        "seconds": seconds,
        "started": t0,
        "ended": t0 + seconds,
        "scenarios": scenarios,
        "jobs": GRID_JOBS,
    }
    if tracer:
        tracer.uninstall()
        payload["self_times"] = tracer.self_times()
        payload["trace_wall"] = tracer.wall()
        payload["spans"] = len(tracer.spans)
        if args.out:
            tracer.dump(args.out)
    return payload


# -- service-mix reference -----------------------------------------------------
def run_reference(args) -> dict:
    """Fresh sequential eager solves of every query the service-mix
    stream can draw: one session per spec, invariants conjoined."""
    from repro.core import ScenarioSpec, VerificationSession

    distinct = {query_key(request): request for request in service_catalogue()}
    ready()
    wait_for_go()
    sessions: dict[str, VerificationSession] = {}
    verdicts = {}
    for key in sorted(distinct):
        request = distinct[key]
        spec = request["spec"]
        skey = json.dumps(spec, sort_keys=True)
        session = sessions.get(skey)
        if session is None:
            scenario = ScenarioSpec(
                builder=spec["builder"], kwargs=tuple(spec["kwargs"].items())
            )
            session_spec = scenario.session_spec(parametric_queues=True)
            session_spec.generate_invariants()
            session = sessions[skey] = VerificationSession(spec=session_spec)
        if request["op"] == "verify_channel":
            case = session.encoding.cases[request["params"]["case"]]
            result = session.verify_case(case)
        else:
            result = session.verify()
        verdicts[key] = result.verdict.value
    return {"verdicts": verdicts}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("fig4", "grid", "reference"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--kind", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--only-first", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    body = {"fig4": run_fig4, "grid": run_grid, "reference": run_reference}
    emit(body[args.mode](args))


if __name__ == "__main__":
    main()

"""The repository's benchmark: three workloads against the public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every verifier process is a fresh
interpreter started from ``src/`` with a pinned ``PYTHONHASHSEED``
(today the solver's search path depends on hash order; see
``workloads.UNIT_HASH_SEEDS``).  With
``--trace 0`` the run measures the end-to-end metrics with tracing off,
in host-speed-corrected seconds (see ``hostspeed.py``); with
``--trace 1`` it runs the workload once untraced and once traced and
reports the per-layer metrics.  Every verdict is checked against a
known answer.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A wrong answer
prints ``"correct": false`` and exits 1; a run that cannot measure
(no ``src/``, a hung or crashed child) exits 2 without a result.

See ``perfbench/README.md`` for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
from pathlib import Path
from time import monotonic, perf_counter, sleep

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"
sys.path.insert(0, str(BENCH))

from tracer import dump_spans, root_seconds, self_times  # noqa: E402
from workloads import (  # noqa: E402
    FIG4_KNOWN_MINIMUM,
    GRID_FAMILIES,
    SERVICE_HASH_SEED,
    SERVICE_HOT_CAPACITY,
    WORKLOADS,
    fig4_kinds,
    grid_kinds,
    hash_seed,
    second_hash_seed,
    unit_hash_seed,
)

RUN_BUDGET_S = 170.0  # every run ends (or fails) within this
SAMPLE_INTERVAL_S = 0.1
TIERS = ("cold", "hot", "warm", "build")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> unit.  A layer that does not run on a workload
# reports 0 there (README.md lists which workload feeds which metric).
PER_LAYER_UNITS = {
    "theory.self_s": "s",
    "theory.calls": "count",
    "sat.self_s": "s",
    "sat.conflicts": "count",
    "sat.decisions": "count",
    "sat.propagations": "count",
    "lia.splits": "count",
    "fabrics.build_s": "s",
    "colors.self_s": "s",
    "deadlock.self_s": "s",
    "invariants.self_s": "s",
    "linalg.self_s": "s",
    "invariants.rows": "count",
    "solver.load_s": "s",
    "solver.clauses": "count",
    "engine.self_s": "s",
    "engine.queries": "count",
    "proof.witness_s": "s",
    "sizing.self_s": "s",
    "sizing.probes": "count",
    "experiments.self_s": "s",
    "experiments.worker_busy_s": "s",
    "experiments.idle_s": "s",
    "experiments.idle_share": "ratio",
    "scenario.build_s": "s",
    "scenario.query_s": "s",
    "scenario.other_s": "s",
    "service.cold_p50_ms": "ms",
    "service.hot_p50_ms": "ms",
    "service.warm_p50_ms": "ms",
    "service.build_p50_ms": "ms",
    "service.cold_s": "s",
    "service.hot_s": "s",
    "service.warm_s": "s",
    "service.build_s": "s",
    "service.hits.cold": "count",
    "service.hits.hot": "count",
    "service.hits.warm": "count",
    "service.hits.build": "count",
    "service.hit_share": "ratio",
    "service.coalesced": "count",
    "service.rejected": "count",
    "service.errors": "count",
    "service.evictions": "count",
    "cache.verdict_hits": "count",
    "cache.verdict_misses": "count",
    "hashseed.sat_match": "bool",
    "hashseed.theory_calls_match": "bool",
    "hashseed.probes_match": "bool",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_share": "ratio",
    "trace.spans": "count",
}

# Tracer layer name -> per-layer self-time metric (single-process runs).
SELF_TIME_METRICS = {
    "theory": "theory.self_s",
    "sat": "sat.self_s",
    "fabrics": "fabrics.build_s",
    "colors": "colors.self_s",
    "deadlock": "deadlock.self_s",
    "invariants": "invariants.self_s",
    "linalg": "linalg.self_s",
    "solver.load": "solver.load_s",
    "engine": "engine.self_s",
    "proof.witness": "proof.witness_s",
    "sizing": "sizing.self_s",
    "experiments": "experiments.self_s",
    "workload": "trace.unattributed_s",
}


class BenchError(RuntimeError):
    """The run could not measure; no result is printed."""


# ---------------------------------------------------------------------------
# Process tree: spawning, line protocol, memory sampling, leak check
# ---------------------------------------------------------------------------


def process_table() -> dict[int, list[int]]:
    children: dict[int, list[int]] = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(b")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry.name))
    return children


def descendants(pid: int) -> list[int]:
    table = process_table()
    found, frontier = [], [pid]
    while frontier:
        kids = table.get(frontier.pop(), [])
        found.extend(kids)
        frontier.extend(kids)
    return found


def rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm", "rb") as handle:
            return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        return 0


class RssSampler(threading.Thread):
    """Peak resident memory of this process's descendants, summed (the
    host monitors excepted)."""

    def __init__(self, harness: "Harness"):
        super().__init__(daemon=True)
        self.harness = harness
        self.peak = 0
        self._stop_event = threading.Event()

    def run(self) -> None:
        me = os.getpid()
        while not self._stop_event.wait(SAMPLE_INTERVAL_S):
            total = sum(
                rss_bytes(pid)
                for pid in descendants(me)
                if pid not in self.harness.unmeasured
            )
            self.peak = max(self.peak, total)

    def stop(self) -> None:
        self._stop_event.set()
        self.join()


class Child:
    """One child interpreter speaking the READY / RESULT line protocol."""

    def __init__(self, harness: "Harness", argv: list[str], hseed: int):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env["PYTHONHASHSEED"] = str(hseed)
        self.harness = harness
        self.launched = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *argv],
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        harness.children.append(self)
        self.lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def expect(self, prefix: str) -> str:
        """Block until a line starting with ``prefix``; return its rest."""
        while True:
            try:
                line = self.lines.get(timeout=self.harness.remaining())
            except queue.Empty:
                raise BenchError(f"timed out waiting for {prefix!r}") from None
            if line is None:
                raise BenchError(
                    f"child {self.proc.args[1:3]} exited before {prefix!r}"
                )
            if line.startswith(prefix):
                return line[len(prefix):].strip()

    def drain(self) -> list[str]:
        """The lines not yet consumed, once the child has exited."""
        lines = []
        while (line := self.lines.get()) is not None:
            lines.append(line)
        return lines

    def go(self) -> None:
        """Let a worker waiting after READY start its work."""
        self.proc.stdin.write("GO\n")
        self.proc.stdin.flush()

    def result(self) -> dict:
        payload = json.loads(self.expect("RESULT"))
        self.wait()
        return payload

    def wait(self) -> None:
        try:
            code = self.proc.wait(timeout=self.harness.remaining())
        except subprocess.TimeoutExpired:
            raise BenchError(f"child {self.proc.args[1:3]} did not exit") from None
        self._reader.join(timeout=5)
        self.proc.stdin.close()
        if code != 0:
            raise BenchError(f"child {self.proc.args[1:3]} exited with {code}")


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

# The median times of the two halves of a ``hostspeed`` burst on an idle
# CPU of the 2-vCPU host the bounds were set on (Xeon at 2.0 GHz,
# CPython 3.11).  Only their constancy matters: a reported time is the
# raw time divided by the slowdown while it ran, the burst's (trimmed)
# mean time then over its reference.  The whole burst corrects solver-bound times;
# the small half alone corrects the service's median latency, which is
# interpreter dispatch on a small working set (see hostspeed.py).
SMALL_REFERENCE_S = 0.0006
WHOLE_REFERENCE_S = 0.001


class HostMonitor:
    """One ``hostspeed.py`` monitor per CPU, running while units run."""

    def __init__(self, harness: "Harness", cpus: set[int]):
        self.children = [
            harness.spawn("hostspeed.py", "--cpu", str(cpu)) for cpu in sorted(cpus)
        ]
        harness.unmeasured.update(child.proc.pid for child in self.children)
        for child in self.children:
            child.expect("READY")
        self.bursts: list[list[tuple[float, float, float]]] = []

    def stop(self) -> None:
        for child in self.children:
            child.proc.stdin.close()
        for child in self.children:
            child.wait()
            bursts = []
            for line in child.drain():
                if line.startswith("BURST "):
                    start, small, large = map(float, line.split()[1:])
                    bursts.append((start, small, small + large))
            self.bursts.append(bursts)

    def slowdown(self, t0: float, t1: float, small: bool = False) -> float:
        """Trimmed mean burst time within [t0, t1] (at least the three
        bursts nearest to it), averaged over the CPUs, over the
        reference: of the small half if ``small``, else of the whole
        burst."""
        if small:
            column, reference = 1, SMALL_REFERENCE_S
        else:
            column, reference = 2, WHOLE_REFERENCE_S
        means = []
        for bursts in self.bursts:
            inside = [burst[column] for burst in bursts if t0 <= burst[0] <= t1]
            if len(inside) < 3:
                middle = (t0 + t1) / 2
                nearest = sorted(bursts, key=lambda burst: abs(burst[0] - middle))
                inside = [burst[column] for burst in nearest[:3]]
            means.append(trimmed_mean(inside))
        return statistics.mean(means) / reference


def trimmed_mean(values: list[float]) -> float:
    """Mean without the highest and lowest tenth.

    The host flips between a fast and a slow state (burst times cluster
    near two values, 0.6-0.75 ms and 0.95-1.1 ms), and the work runs at
    the mix of the two.  A median of burst times jumps between the
    states when they are near even: against the repeated search,
    correction by the median moved single searches by 11%, by this mean
    by 9%.  Trimming drops the rare burst the hypervisor stretched by
    descheduling the CPU, which costs the work the same absolute time,
    not the same share.
    """
    ordered = sorted(values)
    cut = len(ordered) // 10
    return statistics.mean(ordered[cut:len(ordered) - cut])


# The processes of one fig4 unit, and all of service-mix, run pinned to
# this CPU, so the calibration measures the CPU the work ran on.
PINNED_CPUS = {min(os.sched_getaffinity(0))}
ALL_CPUS = set(os.sched_getaffinity(0))


# The harness itself (its reader threads, the RSS sampler) runs on the
# other CPUs, away from the pinned work; ``main`` moves it there.
HARNESS_CPUS = ALL_CPUS - PINNED_CPUS or ALL_CPUS


def pin(child: "Child", cpus: set[int] = PINNED_CPUS) -> None:
    os.sched_setaffinity(child.proc.pid, cpus)


class Harness:
    def __init__(self, args):
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.trace = bool(args.trace)
        self.deadline = monotonic() + RUN_BUDGET_S
        self.children: list[Child] = []
        self.unmeasured: set[int] = set()  # pids the RSS sampler skips

    def remaining(self) -> float:
        left = self.deadline - monotonic()
        if left <= 0:
            raise BenchError("run budget exhausted")
        return left

    def spawn(self, script: str, *args: str, hseed: int | None = None) -> Child:
        hseed = hash_seed(self.seed) if hseed is None else hseed
        return Child(self, [str(BENCH / script), *args], hseed)

    def units(self, run_unit, cpus: set[int], minimum: int = 1) -> list[dict]:
        """Run units of work while the next is expected to end within
        ``--seconds`` (at least ``minimum``), with a host monitor on
        ``cpus``.

        ``run_unit(k)`` returns a dict with the unit's raw ``seconds``
        between its ``started`` and ``ended`` clock readings, and its raw
        ``setup`` between ``setup_started`` and ``setup_ended``.  This
        adds the host's ``slowdown`` and ``setup_slowdown`` over those
        intervals, and keeps the monitor's record as ``self.monitor``.
        """
        self.monitor = monitor = HostMonitor(self, cpus)
        done: list[dict] = []
        try:
            started = perf_counter()
            last = 0.0
            while (
                len(done) < minimum
                or perf_counter() - started + last <= self.seconds
            ):
                t0 = perf_counter()
                done.append(run_unit(len(done)))
                last = perf_counter() - t0
        finally:
            monitor.stop()
        for number, unit in enumerate(done):
            unit["slowdown"] = monitor.slowdown(unit["started"], unit["ended"])
            unit["setup_slowdown"] = monitor.slowdown(
                unit["setup_started"], unit["setup_ended"]
            )
            print(
                f"perfbench: unit {number}: {unit['seconds']:.4f} s raw, "
                f"slowdown {unit['slowdown']:.4f}; set-up {unit['setup']:.4f} s "
                f"raw, slowdown {unit['setup_slowdown']:.4f}",
                file=sys.stderr,
            )
        return done

    def stop_all(self) -> None:
        # The whole tree first: a pool worker whose parent died first
        # would be re-parented away from this process and missed.
        for pid in descendants(os.getpid()):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        for child in self.children:
            try:
                child.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass


# ---------------------------------------------------------------------------
# Statistics helpers
# ---------------------------------------------------------------------------


def p95(samples: list[float]) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=20, method="inclusive")[-1]


def latency_metrics(samples_ms: list[float]) -> dict:
    return {
        "latency_p50_ms": statistics.median(samples_ms),
        "latency_p95_ms": p95(samples_ms),
    }


def relative_overhead(traced: float, untraced: list[float]) -> float:
    return traced / statistics.median(untraced) - 1.0


def by_position(searches: list[dict], key: str) -> list[list[float]]:
    """``key`` of the searches per position, cut to the same count for
    each: the corner search is slower than the edge one, so an extra
    search of either would tilt a median over all of them."""
    groups: dict[int, list[float]] = {}
    for search in searches:
        groups.setdefault(search["position"], []).append(search[key])
    count = min(len(values) for values in groups.values())
    return [values[:count] for values in groups.values()]


def corrected(units: list[dict]) -> None:
    """Add ``seconds_ref`` and ``setup_ref``: the raw times divided by
    the host's slowdown over them."""
    for unit in units:
        unit["seconds_ref"] = unit["seconds"] / unit["slowdown"]
        unit["setup_ref"] = unit["setup"] / unit["setup_slowdown"]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def worker(
    harness: Harness, mode: str, *extra: str, hseed=None, cpus=ALL_CPUS
) -> dict:
    """One worker run, started at once (no host monitor around it)."""
    child = harness.spawn(
        "worker.py", mode, "--seed", str(harness.seed), *extra, hseed=hseed
    )
    pin(child, cpus)
    child.expect("READY")
    child.go()
    return child.result()


def worker_unit(harness: Harness, mode: str, kind: int, cpus: set[int]) -> dict:
    """One end-to-end unit: a fresh worker running unit ``kind`` under
    its hash seed (``workloads.unit_hash_seed``).  ``setup`` is launch
    until READY; ``seconds`` is the work's own time as the worker
    measured it."""
    child = harness.spawn(
        "worker.py", mode, "--seed", str(harness.seed), "--kind", str(kind),
        hseed=unit_hash_seed(kind),
    )
    pin(child, cpus)
    child.expect("READY")
    ready = perf_counter()
    child.go()
    out = child.result()
    out.update(setup=ready - child.launched, setup_started=child.launched,
               setup_ended=ready)
    return out


def trace_path(harness: Harness, workload: str, tag: str = "") -> str:
    OUT.mkdir(parents=True, exist_ok=True)
    return str(OUT / f"trace-{workload}{tag}-{harness.seed}.jsonl.gz")


def check_layer_sum(layers: dict[str, float], capacity: float, what: str) -> None:
    """Layer self times plus unattributed time must equal lanes x wall."""
    total = sum(layers.values())
    if abs(total - capacity) > 1e-6 * max(1.0, capacity):
        raise BenchError(
            f"{what}: layer self times sum to {total:.9f}s, "
            f"expected {capacity:.9f}s"
        )


def fig4_boundary(harness: Harness) -> dict:
    def failures(searches):
        return sum(
            1
            for s in searches
            if s["failure"] or s["minimal_size"] != FIG4_KNOWN_MINIMUM
        )

    if not harness.trace:
        # One search per unit, alternating between the two positions.
        kinds = fig4_kinds(harness.seed)
        units = harness.units(
            lambda k: worker_unit(harness, "fig4", kinds[k % len(kinds)], PINNED_CPUS),
            PINNED_CPUS,
            minimum=len(kinds),
        )
        corrected(units)
        searches = [
            dict(unit["searches"][0], seconds_ref=unit["seconds_ref"]) for unit in units
        ]
        times = by_position(searches, "seconds_ref")
        wall = sum(statistics.median(group) for group in times)
        metrics = {
            "setup_s": statistics.median(unit["setup_ref"] for unit in units),
            # The two searches: per position the median search time, summed.
            "wall_s": wall,
            "requests_per_s": len(times) / wall,
            **latency_metrics([t * 1000.0 for group in times for t in group]),
        }
        return {"attempted": len(searches), "failed": failures(searches),
                "metrics": metrics}

    untraced = worker(harness, "fig4", cpus=PINNED_CPUS)
    traced = worker(
        harness, "fig4", "--trace", "--out", trace_path(harness, "fig4-boundary"),
        cpus=PINNED_CPUS,
    )
    again = worker(
        harness,
        "fig4",
        "--trace",
        "--only-first",
        "--out",
        trace_path(harness, "fig4-boundary", "-hashseed"),
        hseed=second_hash_seed(harness.seed),
        cpus=PINNED_CPUS,
    )
    layers = traced["self_times"]
    wall = traced["trace_wall"]
    check_layer_sum(layers, wall, "fig4-boundary")
    metrics = {SELF_TIME_METRICS[name]: value for name, value in layers.items()}
    metrics.update(traced["counters"])
    first, other = traced["first_counters"], again["counters"]
    metrics.update(
        {
            "hashseed.sat_match": int(
                all(first.get(k) == other.get(k) for k in first if k.startswith("sat."))
            ),
            "hashseed.theory_calls_match": int(
                first.get("theory.calls") == other.get("theory.calls")
            ),
            "hashseed.probes_match": int(
                first.get("sizing.probes") == other.get("sizing.probes")
            ),
            "trace.wall_s": wall,
            "trace.overhead_share": relative_overhead(
                wall, [sum(s["seconds"] for s in untraced["searches"])]
            ),
            "trace.spans": traced["spans"],
        }
    )
    searches = untraced["searches"] + traced["searches"] + again["searches"]
    hashseed_record = {
        "hash_seeds": [hash_seed(harness.seed), second_hash_seed(harness.seed)],
        "first_search": first,
        "second_hash_seed": other,
    }
    (OUT / f"hashseed-{harness.seed}.json").write_text(
        json.dumps(hashseed_record, indent=2, sort_keys=True)
    )
    return {"attempted": len(searches), "failed": failures(searches),
            "metrics": metrics}


def family_grid(harness: Harness) -> dict:
    def failures(scenarios):
        return sum(
            1 for s in scenarios if s["failure"] or s["minimal_size"] != s["expected"]
        )

    if not harness.trace:
        # One topology's three families per unit, cycling, on both CPUs.
        kinds = grid_kinds(harness.seed)
        units = harness.units(
            lambda k: worker_unit(harness, "grid", kinds[k % len(kinds)], ALL_CPUS),
            ALL_CPUS,
            minimum=len(kinds),
        )
        corrected(units)
        times = by_position(units, "seconds_ref")
        wall = sum(statistics.median(group) for group in times)
        scenarios = [s for unit in units for s in unit["scenarios"]]
        metrics = {
            "setup_s": statistics.median(unit["setup_ref"] for unit in units),
            # The nine-point grid: per topology the median unit time, summed.
            "wall_s": wall,
            "requests_per_s": len(GRID_FAMILIES) * len(times) / wall,
            # A request is one scenario: its time in its pool worker,
            # corrected by its unit's slowdown.  Each unit runs one of
            # each family, so a run holds them in equal numbers.  (Over
            # unit times, a run held one or two per topology and the
            # median moved by 21% between runs.)
            **latency_metrics(
                [
                    s["total_seconds"] / unit["slowdown"] * 1000.0
                    for unit in units
                    for s in unit["scenarios"]
                ]
            ),
        }
        return {"attempted": len(scenarios), "failed": failures(scenarios),
                "metrics": metrics}

    untraced = worker(harness, "grid")
    traced = worker(
        harness, "grid", "--trace", "--out", trace_path(harness, "family-grid")
    )
    scenarios = traced["scenarios"]
    jobs = traced["jobs"]
    wall = traced["trace_wall"]
    parent = traced["self_times"]
    run_s = parent["experiments"]  # the scheduler call: no in-process children
    busy = sum(s["total_seconds"] for s in scenarios)
    build = sum(s["build_seconds"] for s in scenarios)
    query = sum(s["query_seconds"] for s in scenarios)
    totals: dict[str, int] = {}
    for s in scenarios:
        for key, value in s["solver_totals"].items():
            totals[key] = totals.get(key, 0) + int(value)
    # Worker-side layers are in worker-seconds: the pool's capacity over
    # the scheduler call is jobs x run_s, and the harness time outside it
    # counts on every lane.
    layers = {
        "scenario.build_s": build,
        "scenario.query_s": query,
        "scenario.other_s": busy - build - query,
        "experiments.idle_s": jobs * run_s - busy,
        "trace.unattributed_s": jobs * parent["workload"],
    }
    check_layer_sum(layers, jobs * wall, "family-grid")
    metrics = dict(layers)
    metrics.update(
        {
            "experiments.worker_busy_s": busy,
            "experiments.idle_share": 1.0 - busy / (jobs * run_s),
            "sat.conflicts": totals.get("conflicts", 0),
            "sat.decisions": totals.get("decisions", 0),
            "sat.propagations": totals.get("propagations", 0),
            "lia.splits": totals.get("splits", 0),
            "invariants.rows": sum(s["invariants_generated"] for s in scenarios),
            "sizing.probes": sum(s["probes"] for s in scenarios),
            "trace.wall_s": wall,
            "trace.overhead_share": relative_overhead(wall, [untraced["seconds"]]),
            "trace.spans": traced["spans"],
        }
    )
    both = untraced["scenarios"] + scenarios
    return {"attempted": len(both), "failed": failures(both), "metrics": metrics}


# -- service-mix ----------------------------------------------------------------


def request(port: int, op: str) -> dict:
    """One request over the service's length-prefixed JSON framing."""
    body = json.dumps({"id": 0, "op": op}).encode()
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(struct.pack(">I", len(body)) + body)
        (length,) = struct.unpack(">I", sock.recv(4, socket.MSG_WAITALL))
        return json.loads(sock.recv(length, socket.MSG_WAITALL))


def ping(port: int) -> bool:
    try:
        return bool(request(port, "ping").get("pong"))
    except (OSError, struct.error, ValueError):
        return False


# The service-mix processes (server, its pool, client) share one CPU
# (``PINNED_CPUS``).  With one connection a single request is in flight
# at a time, so a second CPU adds no parallelism, only cross-CPU
# wake-ups: unpinned, the median latency of a 0.4 ms cold hit moved by a
# third between runs.


def start_server(harness: Harness, number: int) -> tuple[Child, int, Path]:
    """Start the service on a fresh cache directory and wait for ``ping``."""
    cache_dir = OUT / f"service-cache-{harness.seed}-{number}"
    shutil.rmtree(cache_dir, ignore_errors=True)
    server = harness.spawn(
        "serve.py",
        "--port", "0",
        "--cache-dir", str(cache_dir),
        "--jobs", str(len(PINNED_CPUS)),
        "--hot-capacity", str(SERVICE_HOT_CAPACITY),
        hseed=SERVICE_HASH_SEED,
    )
    pin(server)  # before the first miss forks the pool, which inherits it
    address = server.expect("serving on")
    port = int(address.rsplit(":", 1)[1])
    while not ping(port):
        harness.remaining()
        sleep(0.01)
    return server, port, cache_dir


def service_pass(harness: Harness, number: int, stream: int) -> dict:
    """Replay the ``stream``-th request stream against a fresh server;
    the client stops the server through the ``shutdown`` op.  ``setup``
    is the server's launch until it answers ``ping``."""
    server, port, cache_dir = start_server(harness, number)
    ready = perf_counter()
    client = harness.spawn(
        "client.py", "--port", str(port), "--seed", str(harness.seed),
        "--pass", str(stream),
    )
    pin(client)
    out = client.result()
    server.wait()
    shutil.rmtree(cache_dir, ignore_errors=True)
    out.update(setup=ready - server.launched, setup_started=server.launched,
               setup_ended=ready, seconds=out["wall"])
    return out


def judge(passes: list[dict], reference: dict[str, str]) -> int:
    failed = 0
    for out in passes:
        for _lane, _t0, _t1, ok, tier, verdict, witness, error, key in out["records"]:
            want = reference.get(key)
            if (
                not ok
                or error
                or tier not in TIERS
                or verdict != want
                or (key.startswith("witness:") and witness != (want == "deadlock-candidate"))
            ):
                failed += 1
    return failed


def service_mix(harness: Harness) -> dict:
    if harness.trace:
        # One untraced pass for the overhead share, then the traced pass
        # replays its stream.  The client times every request in both,
        # so the overhead share is pass-to-pass noise.
        passes = [service_pass(harness, 0, 0)]
        traced = service_pass(harness, 1, 0)
    else:
        # One pass per unit, each with a new seeded stream.
        passes = harness.units(
            lambda k: service_pass(harness, k, k), PINNED_CPUS
        )
        traced = None
    reference = worker(harness, "reference")["verdicts"]
    everything = passes + ([traced] if traced else [])
    attempted = sum(len(out["records"]) for out in everything)
    failed = judge(everything, reference)
    if not harness.trace:
        # Per-pass figures, then the median over passes.  Pass times are
        # corrected by the pass's slowdown; each request's latency by the
        # slowdown around it (the host's speed changes within a pass):
        # for the median, a cold hit, by the small half of the bursts.
        corrected(passes)
        per_pass = []
        for out in passes:
            slow, at, records = out["slowdown"], out["started"], out["records"]
            slowdown = harness.monitor.slowdown
            hits = [
                (t1 - t0) * 1000.0 / slowdown(at + t0, at + t1, small=True)
                for _lane, t0, t1, *_rest in records
            ]
            solves = [
                (t1 - t0) * 1000.0 / slowdown(at + t0, at + t1)
                for _lane, t0, t1, *_rest in records
            ]
            print(
                "perfbench: pass p50 "
                f"{statistics.median((r[2] - r[1]) * 1000.0 for r in records):.4f}"
                f" ms raw, {statistics.median(hits):.4f} ms corrected",
                file=sys.stderr,
            )
            per_pass.append(
                {
                    "setup_s": out["setup_ref"],
                    "wall_s": out["wall"] / slow,
                    "requests_per_s": len(records) * slow / out["wall"],
                    "latency_p50_ms": statistics.median(hits),
                    "latency_p95_ms": p95(solves),
                }
            )
        metrics = {
            name: statistics.median(figures[name] for figures in per_pass)
            for name in per_pass[0]
        }
        return {"attempted": attempted, "failed": failed, "metrics": metrics}

    # Per-layer: each connection is a lane spanning the whole pass; its
    # requests are child spans named by the tier that answered them.
    lanes, wall = traced["lanes"], traced["wall"]
    spans = [["workload", 0.0, wall, -1] for _ in range(lanes)]
    for lane, t0, t1, _ok, tier, *_rest in traced["records"]:
        spans.append([f"service.{tier}_s", t0, t1, lane])
    dump_spans(trace_path(harness, "service-mix"), f"service-mix/{harness.seed}", spans)
    layers = self_times(spans)
    layers["trace.unattributed_s"] = layers.pop("workload")
    check_layer_sum(layers, root_seconds(spans), "service-mix")
    stats = traced["stats"]
    metrics = {f"service.{tier}_s": layers.get(f"service.{tier}_s", 0.0) for tier in TIERS}
    metrics["trace.unattributed_s"] = layers["trace.unattributed_s"]
    for tier in TIERS:
        samples = [
            (r[2] - r[1]) * 1000.0 for r in traced["records"] if r[4] == tier
        ]
        metrics[f"service.{tier}_p50_ms"] = statistics.median(samples) if samples else 0.0
        metrics[f"service.hits.{tier}"] = stats["hits"][tier]
    metrics.update(
        {
            "service.hit_share": stats["hits"]["cold"] / max(1, stats["queries"]),
            "service.coalesced": stats["coalesced"],
            "service.rejected": stats["rejected"],
            "service.errors": stats["errors"],
            "service.evictions": stats["evictions"],
            "cache.verdict_hits": stats["store"]["verdict_hits"],
            "cache.verdict_misses": stats["store"]["verdict_misses"],
            "trace.wall_s": wall,
            "trace.overhead_share": relative_overhead(wall, [p["wall"] for p in passes]),
            "trace.spans": len(spans),
        }
    )
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


RUNNERS = {
    "fig4-boundary": fig4_boundary,
    "family-grid": family_grid,
    "service-mix": service_mix,
}


def measure(harness: Harness, workload: str) -> dict:
    sampler = RssSampler(harness)
    sampler.start()
    try:
        outcome = RUNNERS[workload](harness)
    finally:
        sampler.stop()
    metrics = outcome["metrics"]
    if harness.trace:
        units = PER_LAYER_UNITS
    else:
        units = END_TO_END_UNITS
        metrics["peak_rss_mb"] = sampler.peak / 2**20
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        raise BenchError(f"metrics missing from the metric table: {unknown}")
    return {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no verifier sources under {SRC}", file=sys.stderr)
        return 2
    os.sched_setaffinity(0, HARNESS_CPUS)  # before any thread starts
    harness = Harness(args)
    try:
        result = measure(harness, args.workload)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        harness.stop_all()
        return 2
    except BaseException:
        harness.stop_all()
        raise
    leaked = descendants(os.getpid())
    if leaked:
        harness.stop_all()
        print(f"perfbench: child processes left behind: {leaked}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

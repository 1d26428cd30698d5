"""Layer spans recorded from outside the verifier.

The traced run wraps public entry points of ``repro`` (by patching the
attribute its callers look up) so that every call into a layer opens a
span.  Spans are kept in memory as ``[name, start, end, parent]`` lists
and written out when the run ends.  A layer's self time is the duration
of its spans minus the time their child spans cover; the root span's
self time is the time no layer claims (``trace.unattributed_s``).

Only the outermost call of a layer opens a span (``verify_channel``
calls ``verify_case``), so a layer never counts the same interval twice.
The theory bridge's methods never call one another, so each of their
calls is one leaf span under the SAT check that made it.

The wrappers exist only in the process that installs them; this module
imports ``repro`` lazily, inside :meth:`Tracer.install`.
"""

from __future__ import annotations

import functools
import gzip
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

ROOT = "workload"

# Per-query solver counters summed into sat.* / lia.* after each check.
SOLVER_COUNTERS = {
    "conflicts": "sat.conflicts",
    "decisions": "sat.decisions",
    "propagations": "sat.propagations",
    "splits": "lia.splits",
}


class Tracer:
    """In-memory span recorder and layer wrapper installer."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._installed: list[tuple] = []

    # -- spans -------------------------------------------------------------
    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self):
        """The root span of one traced pass."""
        index = self.begin(ROOT)
        try:
            yield
        finally:
            self.end(index)

    # -- wrappers ----------------------------------------------------------
    def wrap(self, owner, attr: str, layer: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a span-opening wrapper."""
        original = getattr(owner, attr)
        depth = self._depth
        begin, end = self.begin, self.end

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if depth[layer]:
                return original(*args, **kwargs)
            depth[layer] += 1
            index = begin(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                end(index)
                depth[layer] -= 1
            if on_result is not None:
                on_result(args, result)
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def wrap_leaf(self, owner, attr: str, layer: str) -> None:
        """A cheaper :meth:`wrap` for hot calls that open no child span
        (the theory bridge: ~10^5 calls per search).  Each call is one
        span; the call count is the number of spans."""
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args):
            start = perf_counter()
            try:
                return original(*args)
            finally:
                spans.append([layer, start, perf_counter(), stack[-1]])

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def install(self) -> None:
        """Wrap the single-process layers of a Figure-4 search."""
        from repro.core import engine, experiments, invariants, proof
        from repro.smt import lia, solver

        counters = self.counters

        def probes(_args, result):
            counters["sizing.probes"] += len(result.probes)

        def rows(_args, result):
            counters["invariants.rows"] += len(result)

        def clauses(_args, result):
            # Clauses the encoding was loaded as; the CDCL core only sees
            # them at the first check (Solver.clause_count() is 0 here).
            counters["solver.clauses"] += len(result._cnf.clauses)

        def queries(_args, _result):
            counters["engine.queries"] += 1

        def solver_stats(args, _result):
            stats = args[0].stats
            for key, name in SOLVER_COUNTERS.items():
                counters[name] += int(stats.get(key, 0) or 0)

        self.wrap(experiments, "run_scenario", "experiments")
        self.wrap(experiments, "minimal_queue_size", "sizing", probes)
        self.wrap(experiments.ScenarioSpec, "build", "fabrics")
        self.wrap(engine, "derive_colors", "colors")
        self.wrap(engine, "encode_deadlock", "deadlock")
        self.wrap(engine, "generate_invariants", "invariants", rows)
        self.wrap(invariants, "eliminate_columns", "linalg")
        self.wrap(engine.SessionSpec, "load_solver", "solver.load", clauses)
        for name in (
            "verify",
            "verify_case",
            "verify_channel",
            "verify_source",
            "verify_all_cases",
        ):
            self.wrap(engine.VerificationSession, name, "engine", queries)
        self.wrap(proof, "extract_witness", "proof.witness")
        self.wrap(solver.Solver, "check", "sat", solver_stats)
        for name in ("assert_index", "final_check", "pop_to"):
            self.wrap_leaf(lia.LiaBridge, name, "theory")

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        return self_times(self.spans)

    def snapshot_counters(self) -> dict[str, int]:
        """The counters so far, with ``theory.calls`` taken from the
        theory spans."""
        counts = dict(self.counters)
        counts["theory.calls"] = sum(1 for span in self.spans if span[0] == "theory")
        return counts

    def wall(self) -> float:
        """Summed duration of the root spans."""
        return root_seconds(self.spans)

    def dump(self, path) -> None:
        dump_spans(path, self.run_id, self.spans)


def dump_spans(path, run_id: str, spans) -> None:
    """Write spans as gzipped JSON lines: a header, then one
    ``[name, start, end, parent]`` array per span."""
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        handle.write(json.dumps({"run": run_id}) + "\n")
        for name, start, end, parent in spans:
            handle.write(
                json.dumps([name, round(start, 9), round(end, 9), parent]) + "\n"
            )


def self_times(spans) -> dict[str, float]:
    """Layer name -> summed self time (span time minus child span time)."""
    covered = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _parent) in enumerate(spans):
        totals[name] += (end - start) - covered[index]
    return dict(totals)


def root_seconds(spans) -> float:
    return sum(end - start for _n, start, end, parent in spans if parent < 0)

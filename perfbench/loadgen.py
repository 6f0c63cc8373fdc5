"""The churn workload's own op generator and closed-loop runner.

The benchmark owns its load rather than using ``repro.serve.loadgen``,
so a change to the program cannot change the load it is measured with.
Ops are generated from the seed before timing starts; the loop then runs
``clients`` threads, each sending its next op only after the previous one
returned (a closed loop), until the deadline.

Every ~``sync_every`` ops one ``sync`` journals a pre-generated edit
batch (deletes of existing edges plus inserts of missing ones, valid in
sequence) and calls :meth:`DominationService.sync`, so writes run beside
reads.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

#: Read-op shares among non-sync ops; the rest is ``min_targets``.
SELECT_SHARE = 0.47
METRICS_SHARE = 0.47


@dataclass(frozen=True)
class Op:
    kind: str  # "select" | "metrics" | "coverage" | "min_targets" | "sync"
    arg: object = None


@dataclass
class LoopResult:
    """What one closed-loop run did, per op kind."""

    latencies: dict = field(default_factory=dict)  # kind -> [seconds]
    completions: list = field(default_factory=list)  # perf_counter at op end
    wall_s: float = 0.0
    completed: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    sync_stats: list = field(default_factory=list)  # DynamicUpdateStats

    def kind(self, *kinds: str) -> list:
        return [x for k in kinds for x in self.latencies.get(k, ())]


def _zipf_weights(count: int, exponent: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, count + 1, dtype=float) ** exponent
    return weights / weights.sum()


def make_ops(rng: np.random.Generator, graph, count: int, scale) -> list:
    """A seeded op sequence of length ``count`` for the churn workload.

    ``select`` budgets come from ``scale.budgets`` with Zipf-skewed
    popularity, and ``metrics``/``coverage`` sets from a pool of
    ``scale.set_pool`` fixed ``scale.set_size``-node sets, so repeats
    within one epoch can hit the result cache.  ``min_targets`` fractions
    are drawn from ``scale.fractions`` with ``scale.fraction_weights``.
    """
    n = graph.num_nodes
    pool = [
        tuple(int(v) for v in rng.choice(n, size=scale.set_size, replace=False))
        for _ in range(scale.set_pool)
    ]
    draw = rng.random(count).tolist()
    as_metrics = (rng.random(count) < 0.5).tolist()
    budgets = rng.choice(
        scale.budgets, size=count,
        p=_zipf_weights(len(scale.budgets), scale.budget_skew),
    ).tolist()
    sets = rng.integers(len(pool), size=count).tolist()
    fractions = rng.choice(
        scale.fractions, size=count, p=scale.fraction_weights
    ).tolist()
    edges = list(map(tuple, graph.edge_array().tolist()))
    live = {e: i for i, e in enumerate(edges)}
    ops: list[Op] = []
    for i in range(count):
        if (i + 1) % scale.sync_every == 0:
            ops.append(Op("sync", _edit_batch(rng, n, edges, live, scale)))
        elif draw[i] < SELECT_SHARE:
            ops.append(Op("select", budgets[i]))
        elif draw[i] < SELECT_SHARE + METRICS_SHARE:
            kind = "metrics" if as_metrics[i] else "coverage"
            ops.append(Op(kind, pool[sets[i]]))
        else:
            ops.append(Op("min_targets", fractions[i]))
    return ops


def _edit_batch(rng, n, edges, live, scale) -> tuple:
    """``scale.edits_per_sync // 2`` deletes and as many inserts.

    ``edges``/``live`` mirror the edge set the batches leave behind, so
    every batch is valid against the graph its predecessors produced.
    """
    half = scale.edits_per_sync // 2
    deletes = []
    for _ in range(half):
        j = int(rng.integers(len(edges)))
        edge = edges[j]
        last = edges.pop()
        if j < len(edges):
            edges[j] = last
            live[last] = j
        del live[edge]
        deletes.append(edge)
    inserts = []
    gone = set(deletes)
    while len(inserts) < half:
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        edge = (min(u, v), max(u, v))
        if u == v or edge in live or edge in gone:
            continue
        live[edge] = len(edges)
        edges.append(edge)
        inserts.append(edge)
    return tuple(inserts), tuple(deletes)


class ClosedLoop:
    """Runs ops against one service with ``clients`` threads."""

    def __init__(self, service, dynamic_graph, ops: list, tracer=None):
        self.service = service
        self.dynamic_graph = dynamic_graph
        self.ops = ops
        self.tracer = tracer
        self.cursor = 0
        self._batches = iter([op.arg for op in ops if op.kind == "sync"])
        self._take_lock = threading.Lock()
        self._write_lock = threading.Lock()

    def run(self, seconds: float, clients: int) -> LoopResult:
        result = LoopResult()
        record_lock = threading.Lock()
        started = time.perf_counter()
        deadline = started + seconds

        def client() -> None:
            while True:
                with self._take_lock:
                    if (
                        time.perf_counter() >= deadline
                        or self.cursor >= len(self.ops)
                    ):
                        return
                    index = self.cursor
                    self.cursor += 1
                self._run_op(index, result, record_lock)

        threads = [
            threading.Thread(target=client, name=f"perfbench-client-{c}")
            for c in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        result.wall_s = time.perf_counter() - started
        result.completions.sort()
        return result

    def _run_op(self, index: int, result: LoopResult, record_lock) -> None:
        op = self.ops[index]
        tracer = self.tracer
        opened = tracer.begin(f"op.{op.kind}", request=index) if tracer else None
        stats = None
        ok = True
        try:
            if op.kind == "sync":
                with self._write_lock:
                    # Batches are applied strictly in generation order,
                    # whichever client drew the sync op.
                    inserts, deletes = next(self._batches)
                    self.dynamic_graph.apply_batch(
                        inserts=inserts, deletes=deletes
                    )
                    begun = time.perf_counter()
                    stats = self.service.sync(self.dynamic_graph)
            else:
                begun = time.perf_counter()
                if op.kind == "select":
                    self.service.select(op.arg, objective="f2")
                elif op.kind == "metrics":
                    self.service.metrics(op.arg)
                elif op.kind == "coverage":
                    self.service.coverage(op.arg)
                else:
                    self.service.min_targets(op.arg)
        except Exception as exc:  # a failed op is counted, not fatal
            ok = False
            error = f"op {index} {op.kind}: {type(exc).__name__}: {exc}"
        finished = time.perf_counter()
        if opened is not None:
            tracer.end(opened)
        with record_lock:
            result.completed += 1
            result.completions.append(finished)
            if not ok:
                result.failed += 1
                result.errors.append(error)
                return
            result.latencies.setdefault(op.kind, []).append(finished - begun)
            if stats is not None:
                result.sync_stats.append(stats)

"""The three benchmark workloads: solve-20k, sweep-20k and churn-5k.

Every workload calls the library with its defaults (no engine, gain
backend or archive format is passed), so a change of default shows up
as what users get.  A workload is set up (timed, several times), then
measured for the requested seconds, then its outputs are checked.

Library entry points are always looked up on their modules at call time
(``approx_fast.approx_greedy_fast``, not a local alias), which is what
lets the traced run wrap them.
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

import layers
import loadgen
from tracer import Tracer

from repro.core import approx_fast, coverage
from repro.dynamic.graph import DynamicGraph
from repro.dynamic.index import DynamicWalkIndex
from repro.graphs import generators
from repro.metrics import evaluation
from repro.serve.service import DominationService
from repro.walks import persistence
from repro.walks.index import FlatWalkIndex

#: Setups per untraced run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

# ----------------------------------------------------------------------
# Scales
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OfflineScale:
    nodes: int
    edges: int
    length: int
    replicates: int
    ks: tuple
    #: The graph is fixed; the seed drives the walks.  Run side by side
    #: in one process, ApproxF1 at k=2000 took 0.89-1.02 s and ApproxF2
    #: at k=50 25-30 ms on the graphs of five seeds, a spread from seed
    #: to seed that no code change causes.
    graph_seed: int = 1
    #: ``min_targets`` fraction; 1% is reached by the first pick on
    #: every 20k graph tried, so its latency does not depend on the seed.
    min_targets_fraction: float = 0.01
    #: Largest relative gap allowed between the index F2 estimate (sum
    #: of ApproxF2 gains) and the exact EHN of the same selection.
    #: Measured gaps on the 20k graphs stay within 0.2% at R=100.
    estimate_tolerance: float = 0.01
    #: Budgets of the extra ``select`` samples.  A 2-vCPU VM's speed
    #: flips between two levels 1.7x apart; with one budget every sample
    #: sat at one of two values, and a run's median jumped between them
    #: as its share of slow time crossed one half.  ApproxF2 costs 14 ms
    #: at k=10 and 33 ms at k=100 on the 20k graph, a spread wider than
    #: that gap, so the median moves smoothly with the share.
    select_budgets: tuple = tuple(range(10, 101, 10))
    #: Extra calls per sampling point of each short query kind: after
    #: each exact evaluation for ``metrics``, after each budget for
    #: ``min_targets`` and, per budget of ``select_budgets``, for
    #: ``select``.  Calls of a few ms sampled once per multi-second pass
    #: give percentiles that move 15-25% between runs on a 2-vCPU VM;
    #: the extra calls (left out of ``solve_s``) give each kind at least
    #: 100 samples in a 25 s run, so its p90 has ten beyond it.
    samples: tuple = (("select", 3), ("metrics", 12), ("min_targets", 25))


@dataclass(frozen=True)
class ChurnScale:
    nodes: int
    edges: int
    length: int
    replicates: int
    #: The graph is fixed; the seed drives walks, ops and edits.  A
    #: min_targets query costs one gain sweep per pick, and across graph
    #: seeds the picks needed for 10% coverage range over 3-5.  On this
    #: graph both fractions fall mid-way through a pick's gain (4 and 7
    #: picks), so churn does not tip queries over a pick boundary.
    graph_seed: int = 7
    budgets: tuple = tuple(range(8, 101, 4))
    budget_skew: float = 0.6
    set_pool: int = 32
    set_size: int = 10
    fractions: tuple = (0.1, 0.15)
    fraction_weights: tuple = (0.7, 0.3)
    sync_every: int = 40
    edits_per_sync: int = 20
    clients: int = 2
    #: Ops generated per measured second: about 7x the rate realized on
    #: a 2-vCPU VM, so a much faster service still cannot run out.
    ops_per_second: int = 1000


SCALES = {
    "full": {
        "solve-20k": OfflineScale(20_000, 100_000, 6, 100, ks=(50,)),
        "sweep-20k": OfflineScale(
            20_000, 100_000, 6, 100, ks=(50, 500, 2000),
            # Three sampling points a pass, one after each budget: the
            # host's speed can flip within seconds, and one block of
            # samples a pass caught a single speed.
            samples=(("select", 1), ("metrics", 5), ("min_targets", 8)),
        ),
        "churn-5k": ChurnScale(5_000, 25_000, 6, 100),
    },
    "toy": {
        "solve-20k": OfflineScale(
            400, 2_000, 4, 10, ks=(5,), estimate_tolerance=0.1
        ),
        "sweep-20k": OfflineScale(
            400, 2_000, 4, 10, ks=(5, 10, 40), estimate_tolerance=0.1
        ),
        "churn-5k": ChurnScale(
            300, 1_200, 4, 10, budgets=(2, 4, 6, 8), set_pool=8,
            set_size=4, sync_every=10, edits_per_sync=4,
            ops_per_second=10_000,
        ),
    },
}


def subseed(seed: int, tag: int) -> int:
    """Independent seed material for one random input of a workload."""
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


# ----------------------------------------------------------------------
# Measurement helpers
# ----------------------------------------------------------------------
def reset_peak_rss() -> None:
    """Reset the kernel's RSS high-water mark to the current RSS."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def proc_status_mb(field: str) -> float:
    """A memory field of ``/proc/self/status`` (``VmHWM``, ``VmRSS``)."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"{field} missing from /proc/self/status")


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


@dataclass
class Outcome:
    """One workload run: metrics plus the op and check ledger."""

    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    report: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """Record one output check; a failed one is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


class Ops:
    """Per-kind latency ledger of one measured phase.

    ``timed`` makes one call of the pass and returns its answer.
    ``sample`` makes ``samples[kind]`` extra calls whose only use is
    more latency samples; their time is kept in ``repeat_s`` so that
    pass times can leave it out.
    """

    def __init__(self, samples: "dict | None" = None):
        self.latencies: dict[str, list] = {}
        self.samples = samples or {}
        self.count = 0
        self.repeat_s = 0.0

    def _call(self, kind: str, call):
        started = time.perf_counter()
        value = call()
        elapsed = time.perf_counter() - started
        self.latencies.setdefault(kind, []).append(elapsed)
        return value, elapsed

    def timed(self, kind: str, call):
        self.count += 1
        return self._call(kind, call)[0]

    def sample(self, kind: str, call) -> None:
        for _ in range(self.samples.get(kind, 0)):
            self.repeat_s += self._call(kind, call)[1]


# ----------------------------------------------------------------------
# Offline workloads
# ----------------------------------------------------------------------
class OfflineWorkload:
    """solve-20k (cold: build every pass) and sweep-20k (warm: load)."""

    def __init__(self, name: str, scale: OfflineScale, seed: int,
                 scratch: str):
        self.name = name
        self.scale = scale
        self.warm = name.startswith("sweep")
        self.walk_seed = subseed(seed, 2)
        self.archive_path = os.path.join(scratch, "index.npz")
        self.graph = None
        self.archive = None
        self.fingerprint = None

    def setup(self) -> None:
        s = self.scale
        self.graph = generators.power_law_graph(
            s.nodes, s.edges, seed=s.graph_seed
        )
        if self.warm:
            index = FlatWalkIndex.build(
                self.graph, s.length, s.replicates, seed=self.walk_seed
            )
            self.archive = persistence.save_index(
                index, self.archive_path, graph=self.graph
            )
            self.fingerprint = _index_fingerprint(index)

    def close(self) -> None:
        self.graph = None

    def run_pass(self, ops: Ops) -> dict:
        """One measured pass; returns what the checks need."""
        s, g = self.scale, self.graph
        if self.warm:
            index = ops.timed(
                "sync", lambda: persistence.load_index(self.archive, graph=g)
            )
        else:
            index = ops.timed(
                "sync",
                lambda: FlatWalkIndex.build(
                    g, s.length, s.replicates, seed=self.walk_seed
                ),
            )
        def greedy(k, objective):
            return lambda: approx_fast.approx_greedy_fast(
                g, k, s.length, index=index, objective=objective)

        def evaluate(result):
            return lambda: evaluation.evaluate_selection(
                g, result.selected, s.length)

        def min_targets():
            return coverage.min_targets_for_coverage(
                g, s.min_targets_fraction, s.length, index=index)

        out = {"index": index, "f1": {}, "f2": {}, "aht": {}, "ehn": {}}
        for k in s.ks:
            # Of the pass's budgets only the smallest is ``select``: the
            # others cost 10x and 30x more, and a percentile over all of
            # them sat between the clusters.
            select = "select" if k == s.ks[0] else "solve_f2"
            r1 = ops.timed("solve_f1", greedy(k, "f1"))
            r2 = ops.timed(select, greedy(k, "f2"))
            e1 = ops.timed("metrics", evaluate(r1))
            ops.sample("metrics", evaluate(r1))
            e2 = ops.timed("metrics", evaluate(r2))
            ops.sample("metrics", evaluate(r2))
            out["f1"][k], out["f2"][k] = r1, r2
            out["aht"][k], out["ehn"][k] = e1["aht"], e2["ehn"]
            for budget in s.select_budgets:
                ops.sample("select", greedy(budget, "f2"))
            ops.sample("min_targets", min_targets)
        out["min_targets"] = ops.timed("min_targets", min_targets)
        return out

    def check_pass(self, out: dict, first: "dict | None",
                   outcome: Outcome) -> None:
        ks = self.scale.ks
        top = ks[-1]
        if self.warm:
            outcome.check(_index_fingerprint(out["index"]) == self.fingerprint,
                          "loaded index differs from the saved one")
        for k in ks:
            r2, ehn = out["f2"][k], out["ehn"][k]
            estimate = sum(r2.gains)
            outcome.check(
                abs(estimate - ehn) <= self.scale.estimate_tolerance * ehn,
                f"k={k}: F2 estimate {estimate:.2f} vs exact EHN {ehn:.2f}",
            )
            for obj in ("f1", "f2"):
                outcome.check(
                    len(out[obj][k].selected) == k
                    and out[obj][k].selected == out[obj][top].selected[:k],
                    f"{obj} k={k} is not a prefix of the k={top} selection",
                )
        for lo, hi in zip(ks, ks[1:]):
            outcome.check(out["aht"][hi] < out["aht"][lo],
                          f"AHT does not fall from k={lo} to k={hi}")
            outcome.check(out["ehn"][hi] > out["ehn"][lo],
                          f"EHN does not rise from k={lo} to k={hi}")
        picked = out["min_targets"].selected
        outcome.check(
            picked == out["f2"][top].selected[: len(picked)]
            and out["min_targets"].params["achieved_estimate"]
            >= out["min_targets"].params["threshold"],
            "min_targets is not the covering greedy F2 prefix",
        )
        if first is not None:
            for obj in ("f1", "f2"):
                outcome.check(
                    out[obj][top].selected == first[obj][top].selected,
                    f"{obj} selection differs between passes",
                )

    # ------------------------------------------------------------------
    def measure(self, seconds: float, outcome: Outcome) -> None:
        ops = Ops(dict(self.scale.samples))
        walls: list[float] = []
        first = None
        while True:
            gc.collect()
            repeated = ops.repeat_s
            started = time.perf_counter()
            out = self.run_pass(ops)
            walls.append(
                time.perf_counter() - started - (ops.repeat_s - repeated)
            )
            self.check_pass(out, first, outcome)
            # Keep the answers, not the index, so later passes' peak RSS
            # does not carry the first pass's entry arrays.
            first = first or {key: out[key] for key in ("f1", "f2", "aht", "ehn")}
            del out
            spent = sum(walls) + ops.repeat_s
            if spent + spent / len(walls) > seconds:
                break
        outcome.metrics["peak_rss_mb"] = proc_status_mb("VmHWM")
        top = self.scale.ks[-1]
        lat = ops.latencies
        outcome.attempted += ops.count
        outcome.metrics.update({
            "solve_s": statistics.median(walls),
            "aht": first["aht"][top],
            "ehn": first["ehn"][top],
            "serve_qps": ops.count / sum(walls),
            "select_p50_ms": 1e3 * percentile(lat["select"], 50),
            "select_p90_ms": 1e3 * percentile(lat["select"], 90),
            "metrics_p50_ms": 1e3 * percentile(lat["metrics"], 50),
            "metrics_p90_ms": 1e3 * percentile(lat["metrics"], 90),
            "min_targets_p50_ms": 1e3 * percentile(lat["min_targets"], 50),
            "sync_p50_ms": 1e3 * percentile(lat["sync"], 50),
        })
        outcome.report.append(
            f"{self.name}: {len(walls)} passes, pass time min/median/max "
            f"{min(walls):.3f}/{statistics.median(walls):.3f}/{max(walls):.3f}"
            " s; samples "
            + ", ".join(f"{k}={len(v)}" for k, v in sorted(lat.items()))
        )

    def measure_traced(self, seconds: float, tracer: Tracer,
                       outcome: Outcome) -> dict:
        """Alternating untraced and traced passes; per-layer metrics.

        One untimed warm-up pass comes first, so the first-pass costs
        (lazy imports, first page faults) land in neither series.
        """
        self.run_pass(Ops())
        untraced: list[float] = []
        traced: list[float] = []
        while True:
            gc.collect()
            started = time.perf_counter()
            self.run_pass(Ops())
            untraced.append(time.perf_counter() - started)
            layers.install(tracer)
            tracer.phase = "measured"
            gc.collect()
            started = time.perf_counter()
            out = self.run_pass(Ops())
            traced.append(time.perf_counter() - started)
            tracer.uninstall()
            self.check_pass(out, None, outcome)
            del out
            spent = sum(untraced) + sum(traced)
            if spent + untraced[-1] + traced[-1] > seconds:
                break
        passes = len(traced)
        headline = sum(traced) / passes
        outcome.report.append(
            f"{self.name}: {passes} traced and {passes} untraced passes, "
            f"mean {headline:.3f} s traced, "
            f"{sum(untraced) / passes:.3f} s untraced"
        )
        outcome.report.append(layers.layer_table(tracer, headline, passes))
        return layers.per_layer_metrics(
            tracer, headline, headline / (sum(untraced) / passes),
            passes=passes,
        )


def _index_fingerprint(index) -> tuple:
    """Cheap identity of an index's entries (shape plus checksums)."""
    return (
        index.num_nodes, index.length, index.num_replicates,
        index.total_entries, int(index.indptr.sum()),
        int(index.state.sum(dtype=np.int64)),
        int(index.hop.sum(dtype=np.int64)),
    )


# ----------------------------------------------------------------------
# Churn workload
# ----------------------------------------------------------------------
class ChurnWorkload:
    """churn-5k: a service under 2 closed-loop clients and edge churn."""

    def __init__(self, name: str, scale: ChurnScale, seed: int,
                 seconds: float):
        self.name = name
        self.scale = scale
        self.seconds = seconds
        self.walk_seed = subseed(seed, 2)
        self.op_seed = subseed(seed, 3)
        self.service = None

    def setup(self) -> None:
        s = self.scale
        graph = generators.power_law_graph(s.nodes, s.edges, seed=s.graph_seed)
        self.dynamic = DynamicWalkIndex.build(
            graph, s.length, s.replicates, seed=self.walk_seed
        )
        self.service = DominationService.from_dynamic(self.dynamic)
        self.dynamic_graph = DynamicGraph(graph)
        count = max(400, int(self.seconds * s.ops_per_second))
        self.ops = loadgen.make_ops(
            np.random.default_rng(self.op_seed), graph, count, s
        )
        self.loop = loadgen.ClosedLoop(
            self.service, self.dynamic_graph, self.ops
        )

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    def _service_delta(self, before) -> dict:
        after = self.service.stats
        queries = after.queries - before.queries
        batches = after.select_batches - before.select_batches
        return {
            "cache_hit_ratio": (after.cache_hits - before.cache_hits)
            / max(queries, 1),
            "batch_occupancy": (after.batched_queries - before.batched_queries)
            / max(batches, 1),
            "kernel_passes": after.kernel_passes - before.kernel_passes,
        }

    def _run_loop(self, seconds: float, outcome: Outcome):
        before = self.service.stats
        gc.collect()
        result = self.loop.run(seconds, self.scale.clients)
        outcome.check(result.wall_s >= seconds,
                      "the op sequence ran out before the deadline")
        outcome.attempted += result.completed
        outcome.failed += result.failed
        outcome.problems.extend(result.errors[:5])
        return result, self._service_delta(before)

    def measure(self, seconds: float, outcome: Outcome) -> None:
        result, serve = self._run_loop(seconds, outcome)
        outcome.metrics["peak_rss_mb"] = proc_status_mb("VmHWM")
        self.check(outcome)
        window = self.scale.sync_every
        windows = [
            result.completions[i] - result.completions[i - window]
            for i in range(window, len(result.completions), window)
        ] or [result.wall_s]
        select = result.kind("select")
        metrics = result.kind("metrics", "coverage")
        outcome.metrics.update({
            "solve_s": statistics.median(windows),
            "aht": self.aht,
            "ehn": self.ehn,
            "serve_qps": result.completed / result.wall_s,
            "select_p50_ms": 1e3 * percentile(select, 50),
            "select_p90_ms": 1e3 * percentile(select, 90),
            "metrics_p50_ms": 1e3 * percentile(metrics, 50),
            "metrics_p90_ms": 1e3 * percentile(metrics, 90),
            "min_targets_p50_ms": 1e3 * percentile(
                result.kind("min_targets"), 50),
            "sync_p50_ms": 1e3 * percentile(result.kind("sync"), 50),
        })
        resampled = sum(st.resampled_rows for st in result.sync_stats)
        rows = sum(st.total_rows for st in result.sync_stats) or 1
        outcome.report.append(
            f"{self.name}: {result.completed} ops in {result.wall_s:.2f} s; "
            "samples " + ", ".join(
                f"{k}={len(v)}" for k, v in sorted(result.latencies.items())
            )
            + f"; cache hit ratio {serve['cache_hit_ratio']:.3f}, "
            f"batch occupancy {serve['batch_occupancy']:.3f}, "
            f"kernel passes {serve['kernel_passes']}, "
            f"resampled fraction {resampled / rows:.4f}"
        )

    def measure_traced(self, seconds: float, tracer: Tracer,
                       outcome: Outcome) -> dict:
        half = seconds / 2
        untraced, _ = self._run_loop(half, outcome)
        layers.install(tracer)
        tracer.phase = "measured"
        self.loop.tracer = tracer
        traced, serve = self._run_loop(half, outcome)
        self.loop.tracer = None
        tracer.uninstall()
        self.check(outcome)

        def busy(result):
            return sum(sum(v) for v in result.latencies.values())

        headline = sum(
            s.end - s.start for s in tracer.spans
            if s.phase == "measured" and s.name.startswith("op.")
        )
        serve["select_latency_s"] = sum(traced.kind("select"))
        overhead = (busy(traced) / traced.completed) / (
            busy(untraced) / untraced.completed
        )
        outcome.report.append(layers.layer_table(tracer, headline))
        return layers.per_layer_metrics(tracer, headline, overhead, serve)

    # ------------------------------------------------------------------
    def check(self, outcome: Outcome) -> None:
        """Entry identity after churn, and served == direct answers."""
        s = self.scale
        final = self.dynamic_graph.graph
        fresh = DynamicWalkIndex.build(
            final, s.length, s.replicates, seed=self.walk_seed
        )
        dyn = self.dynamic
        outcome.check(
            dyn.epoch == self.dynamic_graph.epoch
            and np.array_equal(dyn.walks, fresh.walks)
            and np.array_equal(dyn.flat.indptr, fresh.flat.indptr)
            and np.array_equal(dyn.flat.state, fresh.flat.state)
            and np.array_equal(dyn.flat.hop, fresh.flat.hop),
            "synced dynamic index differs from a fresh build",
        )
        del fresh
        snap = self.service.snapshot
        outcome.check(snap.epoch == dyn.epoch and snap.graph is final,
                      "published snapshot is not the final epoch")
        budgets = sorted(s.budgets)
        for k in (budgets[0], budgets[len(budgets) // 2], budgets[-1]):
            served = self.service.select(k, objective="f2")
            direct = approx_fast.approx_greedy_fast(
                snap.graph, k, snap.length, index=snap.index, objective="f2"
            )
            outcome.check(
                served.selected == direct.selected
                and served.gains == direct.gains,
                f"served select k={k} differs from the direct call",
            )
        pool = sorted({op.arg for op in self.ops if op.kind == "metrics"})
        for targets in pool[:3]:
            outcome.check(
                self.service.metrics(targets)
                == snap.index.selection_metrics(targets),
                f"served metrics for {targets} differ from the direct call",
            )
        for frac in s.fractions:
            served = self.service.min_targets(frac)
            direct = coverage.min_targets_for_coverage(
                snap.graph, frac, snap.length, index=snap.index
            )
            outcome.check(
                served.selected == direct.selected,
                f"served min_targets {frac} differs from the direct call",
            )
        top = budgets[-1]
        f1 = approx_fast.approx_greedy_fast(
            snap.graph, top, snap.length, index=snap.index, objective="f1"
        )
        f2 = approx_fast.approx_greedy_fast(
            snap.graph, top, snap.length, index=snap.index, objective="f2"
        )
        self.aht = evaluation.average_hitting_time(
            snap.graph, f1.selected, snap.length
        )
        self.ehn = evaluation.expected_hit_nodes(
            snap.graph, f2.selected, snap.length
        )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
WORKLOADS = ("solve-20k", "sweep-20k", "churn-5k")


def run(name: str, seed: int, seconds: float, trace: bool,
        scale: str, bench_start: float, out_dir: str) -> Outcome:
    """Set up, measure and check one workload; returns its outcome."""
    workload_scale = SCALES[scale][name]
    outcome = Outcome()
    os.makedirs(out_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir)
    try:
        if name.startswith("churn"):
            workload = ChurnWorkload(name, workload_scale, seed, seconds)
        else:
            workload = OfflineWorkload(name, workload_scale, seed, scratch)
        if trace:
            tracer = Tracer()
            layers.install(tracer)
            workload.setup()
            tracer.uninstall()
            outcome.metrics = workload.measure_traced(seconds, tracer, outcome)
            trace_path = os.path.join(
                out_dir, f"trace-{name}-seed{seed}.json"
            )
            tracer.write_chrome_trace(trace_path)
            outcome.report.append(f"chrome trace: {trace_path}")
        else:
            imported = time.perf_counter() - bench_start
            times = []
            for _ in range(SETUP_REPEATS):
                workload.close()
                gc.collect()
                started = time.perf_counter()
                workload.setup()
                times.append(time.perf_counter() - started)
            gc.collect()
            reset_peak_rss()
            baseline = proc_status_mb("VmRSS")
            workload.measure(seconds, outcome)
            outcome.metrics["setup_s"] = imported + statistics.median(times)
            outcome.report.append(
                f"{name}: import {imported:.3f} s, setups "
                + " ".join(f"{t:.3f}" for t in times)
                + f" s, RSS after set-up {baseline:.1f} MiB"
            )
        workload.close()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return outcome

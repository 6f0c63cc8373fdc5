"""Which public callables of ``repro`` the traced run wraps, per layer.

Each layer is measured from outside: :func:`install` patches the names
where callers look them up (``repro.serve.service.approx_greedy_fast``
for the served kernel, the module attributes the benchmark itself calls
for direct solves), and :func:`per_layer_metrics` reduces the recorded
spans to the benchmark's per-layer metrics.
"""

from __future__ import annotations

import os

#: Per-layer self-time metrics: metric name -> span name.
SELF_TIME_METRICS = {
    "graphs.generate_s": "graphs.generate",
    "walks.records_s": "walks.records",
    "build.consume_s": "build.consume",
    "build.sort_s": "build.sort",
    "build.assemble_s": "build.assemble",
    "persistence.save_s": "persistence.save",
    "persistence.load_s": "persistence.load",
    "core.greedy_f1_s": "core.greedy_f1",
    "core.greedy_f2_s": "core.greedy_f2",
    "core.select_kernel_s": "core.select_kernel",
    "core.min_targets_s": "core.min_targets",
    "metrics.exact_eval_s": "metrics.exact_eval",
    "walks.selection_metrics_s": "walks.selection_metrics",
    "dynamic.build_s": "dynamic.build",
    "dynamic.sync_s": "dynamic.sync",
    "serve.publish_s": "serve.sync",
}

def _count_gain_evaluations(tracer, result, args, kwargs) -> None:
    tracer.count("core.gain_evaluations", result.num_gain_evaluations)


def _count_archive_bytes(tracer, result, args, kwargs) -> None:
    tracer.count("persistence.archive_bytes", os.path.getsize(result))


def _count_resampled(tracer, result, args, kwargs) -> None:
    tracer.count("dynamic.resampled_rows", result.resampled_rows)
    tracer.count("dynamic.total_rows", result.total_rows)


def _count_records(tracer, item) -> None:
    tracer.count("walks.entries", int(item[0].size))


def install(tracer) -> None:
    """Patch every layer boundary the benchmark measures."""
    from repro.core import approx_fast, coverage
    from repro.dynamic.index import DynamicWalkIndex
    from repro.graphs import generators
    from repro.metrics import evaluation
    from repro.serve import service
    from repro.walks import backends, build, persistence
    from repro.walks.index import FlatWalkIndex

    tracer.wrap(generators, "power_law_graph", "graphs.generate")
    tracer.wrap(FlatWalkIndex, "build", "walks.build")
    # Whatever engine the library defaults to; its record generator is
    # timed per next(), i.e. over its full drain.
    tracer.wrap(
        type(backends.get_engine(None)), "iter_walk_records", "walks.iter",
        drain="walks.records", on_item=_count_records,
    )
    tracer.wrap(build.ExternalSortSink, "consume", "build.consume")
    # finalize's self time is the sort: the writer calls below are its
    # children and are attributed to the assembly layer.
    tracer.wrap(build.ExternalSortSink, "finalize", "build.sort")
    for method in ("begin", "emit", "finalize"):
        tracer.wrap(build.DenseEntryWriter, method, "build.assemble")
    tracer.wrap(
        persistence, "save_index", "persistence.save",
        on_result=_count_archive_bytes,
    )
    tracer.wrap(persistence, "load_index", "persistence.load")
    tracer.wrap(
        approx_fast, "approx_greedy_fast",
        lambda args, kwargs: "core.greedy_" + kwargs.get("objective", "f1"),
        on_result=_count_gain_evaluations,
    )
    tracer.wrap(
        coverage, "min_targets_for_coverage", "core.min_targets",
        on_result=_count_gain_evaluations,
    )
    tracer.wrap(
        service, "approx_greedy_fast", "core.select_kernel",
        on_result=_count_gain_evaluations,
    )
    tracer.wrap(
        service, "min_targets_for_coverage", "core.min_targets",
        on_result=_count_gain_evaluations,
    )
    tracer.wrap(evaluation, "evaluate_selection", "metrics.exact_eval")
    tracer.wrap(FlatWalkIndex, "selection_metrics", "walks.selection_metrics")
    tracer.wrap(DynamicWalkIndex, "build", "dynamic.build")
    tracer.wrap(
        DynamicWalkIndex, "sync", "dynamic.sync", on_result=_count_resampled
    )
    # sync's self time is absorb-free: the dynamic index's own sync is
    # its child, so what is left is the snapshot publish.
    tracer.wrap(service.DominationService, "sync", "serve.sync")


def per_layer_metrics(tracer, headline_s: float, overhead_x: float,
                      serve: "dict | None" = None, passes: int = 1) -> dict:
    """Reduce the traced run's spans to the per-layer metric set.

    Times and counts are the setup's plus the measured phase's per
    traced pass, so they add up against one pass's ``headline_s``;
    ``overhead_x`` is the traced over the untraced headline.  ``serve``
    carries the
    service-level figures of the churn workload (``select_latency_s``,
    ``batch_occupancy``, ``cache_hit_ratio``, ``kernel_passes``).
    """
    setup = tracer.self_times(phases={"setup"})
    measured = {
        span: {"self": row["self"] / passes}
        for span, row in tracer.self_times(phases={"measured"}).items()
    }
    counters = {
        name: tracer.counters["setup"][name]
        + tracer.counters["measured"][name] / passes
        for name in (*tracer.counters["setup"], *tracer.counters["measured"])
    }
    values = {
        name: setup.get(span, {}).get("self", 0.0)
        + measured.get(span, {}).get("self", 0.0)
        for name, span in SELF_TIME_METRICS.items()
    }
    serve = serve or {}
    select_kernel = measured.get("core.select_kernel", {}).get("self", 0.0)
    select_wait = (
        max(serve["select_latency_s"] - select_kernel, 0.0)
        if "select_latency_s" in serve else 0.0
    )
    total_rows = counters.get("dynamic.total_rows", 0.0)
    values.update({
        "walks.entries": int(counters.get("walks.entries", 0)),
        "persistence.archive_bytes": int(
            counters.get("persistence.archive_bytes", 0)
        ),
        "core.gain_evaluations": int(counters.get("core.gain_evaluations", 0)),
        "dynamic.resampled_fraction": (
            counters.get("dynamic.resampled_rows", 0.0) / total_rows
            if total_rows else 0.0
        ),
        "serve.select_wait_s": select_wait,
        "serve.batch_occupancy": serve.get("batch_occupancy", 0.0),
        "serve.cache_hit_ratio": serve.get("cache_hit_ratio", 0.0),
        "serve.kernel_passes": int(serve.get("kernel_passes", 0)),
    })
    attributed = select_wait + sum(
        measured.get(span, {}).get("self", 0.0)
        for span in SELF_TIME_METRICS.values()
    )
    values["unattributed_s"] = headline_s - attributed
    values["obs.trace_overhead_x"] = overhead_x
    return values


def layer_table(tracer, headline_s: float, passes: int = 1) -> str:
    """The per-layer table of the measured phase, per traced pass:
    span count, self time, total time and self time's share of the
    headline."""
    rows = sorted(
        tracer.self_times(phases={"measured"}).items(),
        key=lambda item: -item[1]["self"],
    )
    lines = [
        f"{'span (per pass)':<26}{'count':>8}{'self_s':>11}"
        f"{'total_s':>11}{'share':>8}"
    ]
    for name, row in rows:
        self_s, total_s = row["self"] / passes, row["total"] / passes
        share = self_s / headline_s if headline_s else 0.0
        lines.append(
            f"{name:<26}{row['count'] / passes:>8.4g}{self_s:>11.4f}"
            f"{total_s:>11.4f}{share:>8.1%}"
        )
    lines.append(f"{'headline':<26}{'':>8}{headline_s:>11.4f}")
    return "\n".join(lines)

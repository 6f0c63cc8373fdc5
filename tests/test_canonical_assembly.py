"""The builders' canonical assembly against an independent oracle.

Every index builder reaches canonical ``(hit, state)`` order the same
way: state-major records, then a stable bucket-by-hit
(:func:`repro.walks.build.canonical_entries`).  Comparing the builders
with each other would miss a fault they share, so each case here checks
them against ``np.argsort(canonical_record_key(...))`` over the records
of :meth:`~repro.walks.backends.WalkEngine.walk_records` — a comparison
sort over the key, blind to record order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dynamic import DynamicGraph, DynamicWalkIndex
from repro.errors import RecordOrderError
from repro.graphs.generators import power_law_graph, ring_graph
from repro.walks import backends, build
from repro.walks.backends import (
    MultiprocWalkEngine,
    NumpyWalkEngine,
    get_engine,
    register_engine,
)
from repro.walks.build import build_index_archive
from repro.walks.index import (
    FlatWalkIndex,
    walker_major_starts,
    walker_major_states,
)
from repro.walks.parallel import canonical_record_key
from repro.walks.persistence import load_index


def oracle(graph, length, reps, seed, chunk_rows, engine="numpy"):
    """``(indptr, state, hop)`` by a comparison sort of the raw records."""
    n = graph.num_nodes
    hits, states, hops = get_engine(engine).walk_records(
        graph, walker_major_starts(n, reps), length,
        walker_major_states(n, reps), seed=seed, chunk_rows=chunk_rows,
    )
    order = np.argsort(canonical_record_key(hits, states, n * reps))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(hits, minlength=n), out=indptr[1:])
    return indptr, states[order], hops[order]


def assert_matches(index, expected) -> None:
    indptr, state, hop = expected
    np.testing.assert_array_equal(index.indptr, indptr)
    np.testing.assert_array_equal(index.state, state)
    np.testing.assert_array_equal(index.hop, hop)


@pytest.fixture(params=["default", "small"])
def buckets(request, monkeypatch):
    """Run each case twice: with the default replicate buckets (one
    bucket at these sizes) and with tiny ones, so the per-hit cursor
    scatter across many buckets is exercised too."""
    if request.param == "small":
        monkeypatch.setattr(build, "_BUCKET_RECORDS", 16)
    return request.param


@pytest.fixture(scope="module")
def sharded_multiproc():
    # Tiny shards and no sequential fallback, so every chunk's records
    # come back from several workers and are joined in the parent.
    engine = MultiprocWalkEngine(num_procs=2, shard_rows=16, min_parallel_rows=1)
    yield engine
    engine.close()


# case -> (graph factory, L, R, chunk_rows, memory_budget)
CASES = {
    # 7 rows per chunk at R=3: walkers' replicates split across chunks.
    "split-replicates": (lambda: power_law_graph(60, 240, seed=3), 5, 3, 7, None),
    "R=1": (lambda: power_law_graph(80, 320, seed=4), 4, 1, 50, None),
    "L=0": (lambda: power_law_graph(40, 160, seed=5), 0, 4, 64, None),
    # 256 bytes is ~25 records: many spilled runs, then a merge.
    "spilling": (lambda: power_law_graph(70, 280, seed=6), 5, 4, 64, 256),
    # n > 2**16 sends the hit bucketing through both 16-bit passes.
    "two-pass": (lambda: ring_graph(70_000), 2, 1, 1 << 15, None),
}


@pytest.mark.parametrize(
    "case,engine",
    [(case, "numpy") for case in CASES]
    + [(case, "multiproc") for case in CASES if case != "two-pass"],
)
def test_flat_build_and_archive_match_oracle(
    case, engine, buckets, sharded_multiproc, tmp_path
):
    make_graph, length, reps, chunk_rows, budget = CASES[case]
    graph = make_graph()
    walk_engine = sharded_multiproc if engine == "multiproc" else engine
    expected = oracle(graph, length, reps, 17, chunk_rows)

    flat = FlatWalkIndex.build(
        graph, length, reps, seed=17, chunk_rows=chunk_rows,
        engine=walk_engine, memory_budget=budget, spill_dir=tmp_path,
    )
    assert_matches(flat, expected)

    for fmt in ("mmap", "compressed"):
        report = build_index_archive(
            graph, length, reps, tmp_path / f"index-{fmt}", format=fmt,
            seed=17, engine=walk_engine, chunk_rows=chunk_rows,
            memory_budget=budget,
        )
        if budget is not None and expected[1].size:
            assert report.num_runs > 1
        assert_matches(load_index(report.path), expected)


def _hub_edit(graph):
    """Delete one edge at the highest-degree node: most walks pass it."""
    hub = int(np.argmax(graph.degrees))
    other = int(graph.neighbors(hub)[0])
    return [], [(min(hub, other), max(hub, other))]


def _leaf_edit(graph):
    """Delete one edge between two lowest-degree nodes with an edge."""
    edges = graph.edge_array()
    degrees = graph.degrees
    cost = degrees[edges[:, 0]] + degrees[edges[:, 1]]
    u, v = (int(x) for x in edges[int(np.argmin(cost))])
    return [], [(u, v)]


@pytest.mark.parametrize(
    "edit,path", [(_hub_edit, "rebuild"), (_leaf_edit, "incremental")]
)
def test_dynamic_build_and_sync_match_oracle(edit, path, buckets):
    graph = power_law_graph(60, 200, seed=8)
    length, reps, seed = 5, 6, 23
    # One chunk covers the batch: the dynamic index's walks are the
    # static stream's (DESIGN.md §9.2).
    whole = graph.num_nodes * reps
    dyn = DynamicWalkIndex.build(graph, length, reps, seed=seed)
    assert_matches(dyn.flat, oracle(graph, length, reps, seed, whole))

    dgraph = DynamicGraph(graph)
    dgraph.apply_batch(*edit(graph))
    stats = dyn.sync(dgraph)
    rebuilt = stats.resampled_rows * 4 > stats.total_rows
    assert rebuilt == (path == "rebuild")
    expected = oracle(dgraph.graph, length, reps, seed, whole)
    assert_matches(dyn.flat, expected)
    hits = np.repeat(np.arange(graph.num_nodes), np.diff(expected[0]))
    np.testing.assert_array_equal(
        dyn.keys, canonical_record_key(hits, expected[1], whole)
    )


class _ReversedChunkEngine(NumpyWalkEngine):
    """Yields each chunk's records back to front: not state-major."""

    name = "_reversed_chunks"

    def iter_walk_records(self, *args, **kwargs):
        for hits, states, hops in super().iter_walk_records(*args, **kwargs):
            yield hits[::-1], states[::-1], hops[::-1]


class _ReversedStreamEngine(NumpyWalkEngine):
    """Yields state-major chunks, last chunk first."""

    name = "_reversed_stream"

    def iter_walk_records(self, *args, **kwargs):
        yield from reversed(list(super().iter_walk_records(*args, **kwargs)))


@pytest.mark.parametrize("stub", [_ReversedChunkEngine, _ReversedStreamEngine])
def test_out_of_order_engine_gets_typed_error(stub, tmp_path, monkeypatch):
    # A private copy of the registry: the stub is gone after the test.
    monkeypatch.setattr(backends, "_FACTORIES", dict(backends._FACTORIES))
    monkeypatch.setattr(backends, "_INSTANCES", dict(backends._INSTANCES))
    register_engine(stub.name, stub)
    graph = power_law_graph(50, 200, seed=9)
    with pytest.raises(RecordOrderError):
        FlatWalkIndex.build(graph, 4, 3, seed=1, chunk_rows=40, engine=stub.name)
    with pytest.raises(RecordOrderError):
        build_index_archive(
            graph, 4, 3, tmp_path / "index", seed=1, chunk_rows=40,
            engine=stub.name,
        )
    assert list(tmp_path.iterdir()) == []

"""The out-of-core build pipeline (repro.walks.build, DESIGN.md §15).

The load-bearing claim is *byte-identity*: for every engine, v3 format,
and memory budget, `build_index_archive` writes the same bytes
`save_index` writes for the in-memory build — so these tests compare
whole files, not decoded arrays, wherever the container allows it
(v3 carries no timestamp; npz members do, so the dense format compares
arrays).  The rest covers the pipeline's edges: the single-run fast
path, run boundaries splitting one hit node's block, empty inputs,
crash-mid-merge atomicity, and temp-file hygiene.
"""

import os

import numpy as np
import pytest

from repro.cli import main
from repro.errors import ParameterError
from repro.graphs.generators import power_law_graph, ring_graph, star_graph
from repro.walks.build import (
    DenseEntryWriter,
    ExternalSortSink,
    build_index_archive,
)
from repro.walks.backends import MultiprocWalkEngine
from repro.walks.index import FlatWalkIndex
from repro.walks.persistence import load_index, save_index


@pytest.fixture(scope="module")
def multiproc_engine():
    """A pool-forced multiproc engine (min_parallel_rows=0 so even the
    small test batches fan out through the worker processes)."""
    engine = MultiprocWalkEngine(
        num_procs=2, shard_rows=128, min_parallel_rows=0
    )
    yield engine
    engine.close()


def _reference_archive(tmp_path, graph, length, reps, fmt, seed, chunk_rows,
                       engine=None, name="ref"):
    index = FlatWalkIndex.build(
        graph, length, reps, seed=seed, engine=engine, chunk_rows=chunk_rows
    )
    path = tmp_path / f"{name}.idx3"
    meta = engine.name if isinstance(engine, MultiprocWalkEngine) else engine
    save_index(index, path, graph=graph, engine=meta, seed=seed, format=fmt)
    return path


class TestByteParity:
    @pytest.mark.parametrize("engine", ["numpy", "csr", "sharded"])
    @pytest.mark.parametrize("fmt", ["mmap", "compressed"])
    def test_every_engine_and_format(self, tmp_path, engine, fmt):
        graph = power_law_graph(120, 700, seed=9)
        ref = _reference_archive(
            tmp_path, graph, 6, 8, fmt, seed=3, chunk_rows=128, engine=engine
        )
        for budget in (None, 4096):
            out = tmp_path / f"oo-{budget}.idx3"
            report = build_index_archive(
                graph, 6, 8, out, format=fmt, seed=3, engine=engine,
                chunk_rows=128, memory_budget=budget,
            )
            assert out.read_bytes() == ref.read_bytes()
            if budget is not None:
                assert report.num_runs > 1
                assert report.spilled_bytes > 0

    def test_multiproc_engine(self, tmp_path, multiproc_engine):
        # Below min_parallel_rows the engine falls back to sequential
        # chunks, which still exercises its iter_walk_records override.
        graph = power_law_graph(100, 500, seed=4)
        ref = _reference_archive(
            tmp_path, graph, 5, 6, "mmap", seed=7, chunk_rows=100,
            engine=multiproc_engine,
        )
        out = tmp_path / "oo.idx3"
        build_index_archive(
            graph, 5, 6, out, format="mmap", seed=7,
            engine=multiproc_engine, chunk_rows=100, memory_budget=2048,
        )
        assert out.read_bytes() == ref.read_bytes()

    def test_dense_format_array_parity(self, tmp_path):
        graph = power_law_graph(90, 400, seed=5)
        index = FlatWalkIndex.build(graph, 5, 6, seed=2, chunk_rows=64)
        out = tmp_path / "oo.npz"
        build_index_archive(
            graph, 5, 6, out, format="dense", seed=2, chunk_rows=64,
            memory_budget=2048,
        )
        back = load_index(out, graph=graph)
        np.testing.assert_array_equal(back.indptr, index.indptr)
        np.testing.assert_array_equal(
            np.asarray(back.state), np.asarray(index.state)
        )
        np.testing.assert_array_equal(
            np.asarray(back.hop), np.asarray(index.hop)
        )
        assert np.asarray(back.state).dtype == np.asarray(index.state).dtype

    def test_in_memory_build_with_budget_identical(self, tmp_path):
        graph = power_law_graph(100, 500, seed=6)
        plain = FlatWalkIndex.build(graph, 6, 8, seed=1, chunk_rows=128)
        budgeted = FlatWalkIndex.build(
            graph, 6, 8, seed=1, chunk_rows=128, memory_budget=1024,
            spill_dir=tmp_path,
        )
        np.testing.assert_array_equal(budgeted.indptr, plain.indptr)
        np.testing.assert_array_equal(
            np.asarray(budgeted.state), np.asarray(plain.state)
        )
        np.testing.assert_array_equal(
            np.asarray(budgeted.hop), np.asarray(plain.hop)
        )
        assert list(tmp_path.iterdir()) == []  # runs cleaned up

    def test_loaded_archive_serves_same_entries(self, tmp_path):
        graph = power_law_graph(80, 400, seed=8)
        index = FlatWalkIndex.build(graph, 5, 10, seed=9, chunk_rows=100)
        out = tmp_path / "oo.idx3"
        build_index_archive(
            graph, 5, 10, out, format="compressed", seed=9, chunk_rows=100,
            memory_budget=4096,
        )
        back = load_index(out, graph=graph)
        for node in range(0, 80, 13):
            s_ref, h_ref = index.entries_for(node)
            s_oo, h_oo = back.entries_for(node)
            np.testing.assert_array_equal(np.asarray(s_oo), np.asarray(s_ref))
            np.testing.assert_array_equal(np.asarray(h_oo), np.asarray(h_ref))


class TestEdgeCases:
    def test_single_run_fast_path(self, tmp_path):
        graph = ring_graph(40)
        out = tmp_path / "oo.idx3"
        report = build_index_archive(
            graph, 4, 3, out, format="mmap", seed=1, memory_budget=1 << 24,
        )
        assert report.num_runs == 1
        assert report.spilled_bytes == 0
        # Nothing but the archive in the directory: no run or staging
        # temps survive the fast path either.
        assert [p.name for p in tmp_path.iterdir()] == ["oo.idx3"]

    def test_zero_length_walks(self, tmp_path):
        # L=0: every walk is just its start, no first visits, no records.
        graph = ring_graph(12)
        for fmt in ("mmap", "compressed"):
            ref = _reference_archive(
                tmp_path, graph, 0, 2, fmt, seed=1, chunk_rows=8,
                name=f"ref-{fmt}",
            )
            out = tmp_path / f"oo-{fmt}.idx3"
            report = build_index_archive(
                graph, 0, 2, out, format=fmt, seed=1, chunk_rows=8,
                memory_budget=64,
            )
            assert report.total_entries == 0
            assert out.read_bytes() == ref.read_bytes()
            back = load_index(out, graph=graph)
            assert back.total_entries == 0

    def test_run_boundary_splits_hub_block(self, tmp_path):
        # A star graph concentrates almost all records on the hub, so a
        # tiny budget is guaranteed to split the hub's block across many
        # runs — the merge and the block grouper must reassemble it.
        graph = star_graph(30)
        ref = _reference_archive(
            tmp_path, graph, 4, 8, "compressed", seed=2, chunk_rows=16
        )
        out = tmp_path / "oo.idx3"
        report = build_index_archive(
            graph, 4, 8, out, format="compressed", seed=2, chunk_rows=16,
            memory_budget=256,
        )
        assert report.num_runs > 2
        assert out.read_bytes() == ref.read_bytes()

    def test_crash_mid_merge_keeps_prior_archive_and_cleans_temps(
        self, tmp_path, monkeypatch
    ):
        graph = power_law_graph(60, 300, seed=3)
        out = tmp_path / "oo.idx3"
        build_index_archive(graph, 5, 4, out, format="mmap", seed=5)
        good = out.read_bytes()

        from repro.walks import build as build_mod

        def boom(self, keys, hops):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(build_mod._MmapArchiveWriter, "emit", boom)
        with pytest.raises(RuntimeError, match="disk on fire"):
            build_index_archive(
                graph, 5, 4, out, format="mmap", seed=5, memory_budget=1024,
            )
        assert out.read_bytes() == good  # prior archive untouched
        assert [p.name for p in tmp_path.iterdir()] == ["oo.idx3"]

    def test_invalid_budget_and_chunk_rows(self, tmp_path):
        graph = ring_graph(8)
        with pytest.raises(ParameterError):
            build_index_archive(
                graph, 3, 2, tmp_path / "x.idx3", memory_budget=0
            )
        with pytest.raises(ParameterError):
            build_index_archive(
                graph, 3, 2, tmp_path / "x.idx3", chunk_rows=0
            )
        with pytest.raises(ParameterError):
            build_index_archive(
                graph, 3, 2, tmp_path / "x.idx3", format="roaring"
            )

    def test_truncated_run_file_fails_loudly(self, tmp_path):
        # A spilled run that lost bytes (torn write, full disk) must
        # raise, not silently build a short archive.
        from repro.errors import GraphFormatError
        from repro.walks.build import _FileRun

        run = tmp_path / "run.tmp"
        run.write_bytes(b"\x00" * 15)  # 1.5 records
        reader = _FileRun(run, total=2)
        with pytest.raises(GraphFormatError, match="truncated"):
            reader.read(2)
        reader.close()


class TestSinkSeam:
    def test_sink_counts_and_dense_writer_roundtrip(self):
        # Chunks arrive state-major (the sink's checked precondition):
        # walkers 0..2, then walker 4, of n=5 nodes and R=2 replicates.
        sink = ExternalSortSink(5, 2)
        sink.consume(
            np.array([1, 3, 0]), np.array([0, 2, 7]), np.array([1, 1, 4])
        )
        sink.consume(np.array([3]), np.array([9]), np.array([2]))
        assert sink.total_records == 4
        assert sink.max_hop == 4
        indptr, state, hop = sink.finalize(DenseEntryWriter(5, 2))
        np.testing.assert_array_equal(indptr, [0, 1, 2, 2, 4, 4])
        np.testing.assert_array_equal(state, [7, 0, 2, 9])
        np.testing.assert_array_equal(hop, [4, 1, 1, 2])
        assert state.dtype == np.int32 and hop.dtype == np.int16

    def test_spill_dir_is_honored(self, tmp_path):
        spills = tmp_path / "spills"
        spills.mkdir()
        seen = []
        real_unlink = os.unlink

        def spy(path, *a, **kw):
            seen.append(str(path))
            return real_unlink(path, *a, **kw)

        sink = ExternalSortSink(50, 2, memory_budget=64, spill_dir=spills)
        rng = np.random.default_rng(0)
        hits = rng.integers(0, 50, size=40)
        states = np.arange(40)
        sink.consume(hits, states, np.ones(40, dtype=np.int64))
        assert sink.spill_runs >= 1
        assert any(p.name.startswith(".rwidx-run-") for p in spills.iterdir())
        sink.close()
        assert list(spills.iterdir()) == []


class TestCli:
    def test_index_with_budget_matches_plain_index(self, tmp_path, capsys):
        ref = tmp_path / "ref.idx3"
        oo = tmp_path / "oo.idx3"
        base = [
            "index", "--synthetic", "80,300", "-L", "4", "-R", "5",
            "--seed", "11", "--index-format", "mmap", "--chunk-rows", "64",
        ]
        assert main(base + ["--out", str(ref)]) == 0
        assert main(
            base + ["--out", str(oo), "--build-memory-budget", "2048"]
        ) == 0
        assert oo.read_bytes() == ref.read_bytes()
        assert "sort runs" in capsys.readouterr().out

    def test_select_consumes_streamed_archive(self, tmp_path, capsys):
        out = tmp_path / "oo.idx3"
        assert main([
            "index", "--synthetic", "80,300", "-L", "4", "-R", "5",
            "--seed", "11", "--index-format", "compressed",
            "--out", str(out), "--build-memory-budget", "4096",
        ]) == 0
        capsys.readouterr()
        assert main([
            "select", "--synthetic", "80,300", "-k", "3", "--seed", "11",
            "--index", str(out),
        ]) == 0
        assert "selected" in capsys.readouterr().out

"""Pluggable walk-engine backends (DESIGN.md §3).

Every consumer of batched random walks — the solvers, the Monte-Carlo
estimators, the application simulators, the CLI — goes through the
:class:`WalkEngine` interface defined here instead of calling a particular
kernel directly.  Engines are looked up by name in a process-wide registry,
so alternative execution strategies (GPU, distributed, cached) can be
slotted in by registering a new backend without touching any solver.

Four backends ship with the package, and **all four are bit-identical
under one seed**: they consume (or slice) the same logical PCG64 stream
— one batch of uniforms per hop — so any engine can replace any other
mid-experiment, mid-index, or mid-serving-epoch without changing a
single answer.  Differential tests (``tests/test_differential.py``)
enforce this across index builds, solvers, dynamic replay, and serving.

``"numpy"``
    The original gather-loop kernels, :func:`repro.walks.engine.batch_walks`
    and :func:`repro.walks.alias.weighted_batch_walks`, unchanged.  This is
    the default and the reference implementation.
``"csr"``
    A tighter CSR formulation: the adjacency is augmented once per graph
    (dangling nodes get a self-loop, realizing the DESIGN.md §5 convention
    without per-hop masking), and each hop is three allocation-free
    ``np.take`` gathers into preallocated scratch buffers — no boolean
    indexing, no copies, no bounds-check passes.  Weighted graphs reuse a
    cached :class:`~repro.walks.alias.AliasSampler` (alias tables are
    built once per graph, not once per call).
``"sharded"``
    Cuts the batch into row shards and computes each shard's *slice of
    the same logical stream* on a thread pool — workers jump to their
    rows' offset inside every per-hop uniform block with ``PCG64.advance``
    (:mod:`repro.walks.parallel`), so the assembled result equals the
    sequential backends bit for bit, independent of ``num_shards`` *and*
    worker count.  The hot kernels are numpy gathers, which release the
    GIL; one in-process address space, no serialization.
``"multiproc"``
    The same stream-sliced shards fanned out to a *process* pool: the
    augmented CSR is placed in :mod:`multiprocessing.shared_memory` once
    per graph, workers attach read-only views and ship back walk slices
    — or, on the index-build path (:meth:`WalkEngine.walk_records`),
    only the extracted first-visit records, so the walk matrices
    themselves never cross a process boundary and peak parent memory
    stays bounded.  This is the true multi-core path (no GIL); see
    DESIGN.md §11 for the layout and teardown rules.

Resolution rules (:func:`get_engine`): ``None`` means the package default
(``"numpy"``), a string is looked up in the registry, and a ready
:class:`WalkEngine` instance passes through unchanged, so every API that
takes ``engine=`` accepts all three forms.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import threading
import time
import weakref
from abc import ABC, abstractmethod
from typing import Callable, Sequence

import numpy as np

from repro import obs
from repro.errors import ParameterError
from repro.graphs.adjacency import Graph
from repro.graphs.weighted import WeightedDiGraph
from repro.walks.alias import AliasSampler, weighted_batch_walks
from repro.walks.engine import batch_first_hits, batch_walks
from repro.walks.parallel import (
    SharedArrayPack,
    first_visit_records,
    interleave_replicates,
    run_task,
    slice_first_hits,
    slice_walks,
    slice_weighted_walks,
)
from repro.walks.rng import advance_stream, resolve_rng, stream_state

__all__ = [
    "WalkEngine",
    "NumpyWalkEngine",
    "CSRWalkEngine",
    "ShardedWalkEngine",
    "MultiprocWalkEngine",
    "DEFAULT_ENGINE",
    "available_engines",
    "get_engine",
    "register_engine",
]

DEFAULT_ENGINE = "numpy"


def _check_walk_args(
    num_nodes: int, starts: np.ndarray, length: int
) -> np.ndarray:
    """Shared argument validation, matching :mod:`repro.walks.engine`."""
    if length < 0:
        raise ParameterError("walk length L must be >= 0")
    starts = np.asarray(starts, dtype=np.int64)
    if starts.size and (starts.min() < 0 or starts.max() >= num_nodes):
        raise ParameterError("start nodes out of range")
    return starts


class WalkEngine(ABC):
    """Backend interface: batched walks and first-hit detection.

    Concrete engines implement the two walk generators; the remaining
    methods have default implementations in terms of them, so a minimal
    backend is two methods.  All engines honor the package seed convention
    (:func:`repro.walks.rng.resolve_rng`) and the dangling-node convention
    (DESIGN.md §5: a walker on a degree-0 node stays put).
    """

    #: Registry name; set by subclasses.
    name: str = "abstract"

    @abstractmethod
    def batch_walks(
        self,
        graph: Graph,
        starts: "Sequence[int] | np.ndarray",
        length: int,
        seed: "int | np.random.Generator | None" = None,
    ) -> np.ndarray:
        """Unweighted L-length walks for a batch of starts, ``(B, L+1)``."""

    @abstractmethod
    def weighted_batch_walks(
        self,
        graph: WeightedDiGraph,
        starts: "Sequence[int] | np.ndarray",
        length: int,
        seed: "int | np.random.Generator | None" = None,
    ) -> np.ndarray:
        """Weight-proportional walks on a directed graph, ``(B, L+1)``."""

    # ------------------------------------------------------------------
    def run_walks(
        self,
        graph: "Graph | WeightedDiGraph",
        starts: "Sequence[int] | np.ndarray",
        length: int,
        seed: "int | np.random.Generator | None" = None,
    ) -> np.ndarray:
        """Dispatch on the graph flavor (the simulators' entry point)."""
        if isinstance(graph, WeightedDiGraph):
            return self.weighted_batch_walks(graph, starts, length, seed=seed)
        return self.batch_walks(graph, starts, length, seed=seed)

    def batch_first_hits(
        self, walks: np.ndarray, target_mask: np.ndarray
    ) -> np.ndarray:
        """First-hit hop per walk row (``-1`` on miss)."""
        return batch_first_hits(walks, target_mask)

    def walk_first_hits(
        self,
        graph: "Graph | WeightedDiGraph",
        starts: "Sequence[int] | np.ndarray",
        length: int,
        target_mask: np.ndarray,
        seed: "int | np.random.Generator | None" = None,
    ) -> np.ndarray:
        """Generate walks and return only their first-hit hops.

        Backends may fuse the two passes (the CSR engine never materializes
        the walk matrix); the default composes :meth:`run_walks` with
        :meth:`batch_first_hits`.  Results are identical either way.
        """
        walks = self.run_walks(graph, starts, length, seed=seed)
        return self.batch_first_hits(walks, target_mask)

    def iter_walk_records(
        self,
        graph: Graph,
        starts: "Sequence[int] | np.ndarray",
        length: int,
        states: np.ndarray,
        seed: "int | np.random.Generator | None" = None,
        chunk_rows: int = 1 << 19,
    ):
        """Per-chunk first-visit ``(hit, state, hop)`` record arrays.

        The streaming spelling of :meth:`walk_records`: yields one record
        triple per ``chunk_rows``-row chunk of the batch, so a consumer
        (the out-of-core builder, :mod:`repro.walks.build`) can reduce
        each chunk before the next one's walks exist — peak memory is one
        chunk's walks plus whatever the consumer retains.  The chunking
        is part of the RNG contract — chunk ``c`` consumes its
        ``len(chunk) * length`` uniforms before chunk ``c + 1`` begins —
        so every backend yields the same per-chunk records for the same
        ``(seed, chunk_rows)``, each chunk in ``(state, hop)`` order
        (:func:`~repro.walks.parallel.first_visit_records`) — the order
        the canonical assembler checks and relies on.  ``states`` must
        follow the builders' ``rep * n + walker`` layout over
        walker-major rows.  Arguments are validated eagerly
        (before the first chunk is computed); the caller's generator is
        only guaranteed to be positioned past the whole batch once the
        iterator is exhausted.
        """
        starts = _check_walk_args(graph.num_nodes, starts, length)
        states = np.asarray(states, dtype=np.int64)
        if states.size != starts.size:
            raise ParameterError("states must align with starts")
        if chunk_rows < 1:
            raise ParameterError("chunk_rows must be >= 1")
        rng = resolve_rng(seed)
        return self._iter_records_sequential(
            graph, starts, length, states, rng, chunk_rows
        )

    def _iter_records_sequential(
        self, graph, starts, length, states, rng, chunk_rows
    ):
        for lo in range(0, starts.size, chunk_rows):
            rows = starts[lo : lo + chunk_rows]
            walks = self.batch_walks(graph, rows, length, seed=rng)
            yield first_visit_records(
                walks, states[lo : lo + chunk_rows], graph.num_nodes
            )

    def walk_records(
        self,
        graph: Graph,
        starts: "Sequence[int] | np.ndarray",
        length: int,
        states: np.ndarray,
        seed: "int | np.random.Generator | None" = None,
        chunk_rows: int = 1 << 19,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """First-visit ``(hit, state, hop)`` record arrays for a batch.

        The index builders' entry point (Algorithm 3's extraction):
        ``states[b]`` is row ``b``'s flattened ``D`` index, carried into
        the records.  Concatenates :meth:`iter_walk_records` — same
        chunking, same RNG contract, same per-chunk ``(state, hop)``
        order — so every backend produces the same records for the same
        ``(seed, chunk_rows)``.  The default generates walks chunk-by-chunk
        via :meth:`batch_walks` and extracts in-process; the multiproc
        backend yields chunks whose records were extracted inside its
        workers.
        """
        hit_parts: list[np.ndarray] = []
        state_parts: list[np.ndarray] = []
        hop_parts: list[np.ndarray] = []
        for hits, row_states, hops in self.iter_walk_records(
            graph, starts, length, states, seed=seed, chunk_rows=chunk_rows
        ):
            if hits.size:
                hit_parts.append(hits)
                state_parts.append(row_states)
                hop_parts.append(hops)
        return _concat_records(hit_parts, state_parts, hop_parts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


def _concat_records(
    hit_parts: list, state_parts: list, hop_parts: list
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if not hit_parts:
        return (
            np.empty(0, dtype=np.int32),
            np.empty(0, dtype=np.int32),
            np.empty(0, dtype=np.int16),
        )
    return (
        np.concatenate(hit_parts),
        np.concatenate(state_parts),
        np.concatenate(hop_parts),
    )


class NumpyWalkEngine(WalkEngine):
    """The original per-hop gather loop — default, reference backend."""

    name = "numpy"

    def batch_walks(self, graph, starts, length, seed=None):
        return batch_walks(graph, starts, length, seed=seed)

    def weighted_batch_walks(self, graph, starts, length, seed=None):
        return weighted_batch_walks(graph, starts, length, seed=seed)


# ----------------------------------------------------------------------
# CSR backend
# ----------------------------------------------------------------------
class _CSRPlan:
    """Per-graph precomputation for the CSR backend (unweighted).

    The adjacency is augmented so every dangling node carries one
    self-loop.  A dangling walker then "moves" along its self-loop —
    landing where it already is — which realizes the stay-put convention
    (DESIGN.md §5) without any per-hop mask, while consuming exactly the
    same uniform draw the numpy backend burns on it.
    """

    __slots__ = ("indptr", "indices", "degrees_f64")

    def __init__(self, graph: Graph):
        degrees = graph.degrees
        dangling = np.flatnonzero(degrees == 0)
        if dangling.size == 0:
            self.indptr = graph.indptr
            self.indices = graph.indices
            self.degrees_f64 = degrees.astype(np.float64)
            return
        n = graph.num_nodes
        aug_deg = degrees.copy()
        aug_deg[dangling] = 1
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(aug_deg, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int32)
        src_rows = np.repeat(np.arange(n, dtype=np.int64), degrees)
        within = np.arange(graph.indices.size, dtype=np.int64) - graph.indptr[src_rows]
        indices[indptr[src_rows] + within] = graph.indices
        indices[indptr[dangling]] = dangling
        self.indptr = indptr
        self.indices = indices
        self.degrees_f64 = aug_deg.astype(np.float64)


class _WeightedPlan:
    """Per-graph precomputation for the CSR backend (weighted)."""

    __slots__ = ("sampler", "indices", "out_degrees_f64", "has_dangling")

    def __init__(self, graph: WeightedDiGraph):
        self.sampler = AliasSampler(graph)
        self.indices = graph.indices.astype(np.int64)
        out_deg = graph.out_degrees
        self.out_degrees_f64 = out_deg.astype(np.float64)
        self.has_dangling = bool((out_deg == 0).any())


class _PlanCache:
    """Bounded FIFO of per-graph plans, keyed by object identity.

    The cache keeps a strong reference to each graph, so an ``id()`` can
    never be recycled while its plan is alive; graphs are immutable, so a
    cached plan never goes stale.  Concurrent builds of the same plan (the
    sharded engine's thread pool) are benign: both threads compute the same
    immutable arrays and one wins the dict slot.
    """

    def __init__(self, maxsize: int = 8):
        self._maxsize = maxsize
        self._data: "dict[int, tuple[object, object]]" = {}

    def get(self, graph: object, build: Callable[[object], object]) -> object:
        key = id(graph)
        hit = self._data.get(key)
        if hit is not None and hit[0] is graph:
            return hit[1]
        plan = build(graph)
        self._data[key] = (graph, plan)
        while len(self._data) > self._maxsize:
            # pop(…, None): two pool threads may race to evict the same
            # oldest entry; losing the race must not raise.
            self._data.pop(next(iter(self._data)), None)
        return plan


class CSRWalkEngine(WalkEngine):
    """Vectorized CSR backend: block uniforms, three gathers per hop.

    Bit-identical to :class:`NumpyWalkEngine` under the same seed (the
    parity tests in ``tests/test_walk_backends.py`` assert it), roughly
    2-3x faster on batched unweighted walks, and much faster on repeated
    weighted calls because alias tables are built once per graph.
    """

    name = "csr"

    def __init__(self, cache_size: int = 8):
        self._plans = _PlanCache(cache_size)
        self._weighted_plans = _PlanCache(cache_size)
        # Hop-loop scratch, reused across calls of the same batch size so
        # steady-state walking performs zero allocations.  Thread-local
        # because the sharded engine drives one CSR engine from a pool.
        self._scratch = threading.local()

    # ------------------------------------------------------------------
    def _plan(self, graph: Graph) -> _CSRPlan:
        return self._plans.get(graph, _CSRPlan)

    def _weighted_plan(self, graph: WeightedDiGraph) -> _WeightedPlan:
        return self._weighted_plans.get(graph, _WeightedPlan)

    def _buffers(self, batch: int) -> "tuple[np.ndarray, ...]":
        """Per-thread ``(u, deg, off, pos, current)`` scratch buffers."""
        cached = getattr(self._scratch, "buffers", None)
        if cached is None or cached[0].size != batch:
            cached = (
                np.empty(batch, dtype=np.float64),
                np.empty(batch, dtype=np.float64),
                np.empty(batch, dtype=np.int64),
                np.empty(batch, dtype=np.int64),
                np.empty(batch, dtype=np.int64),
            )
            self._scratch.buffers = cached
        return cached

    # ------------------------------------------------------------------
    def batch_walks(self, graph, starts, length, seed=None):
        starts = _check_walk_args(graph.num_nodes, starts, length)
        rng = resolve_rng(seed)
        batch = starts.size
        walks = np.empty((length + 1, batch), dtype=np.int32)
        walks[0] = starts
        if length and batch:
            plan = self._plan(graph)
            indptr, indices, degf = plan.indptr, plan.indices, plan.degrees_f64
            # Per-hop scratch buffers are allocated once; every hop is a
            # fixed sequence of allocation-free kernels.  ``mode="clip"``
            # skips numpy's bounds-check pass — positions are valid by
            # construction.  The per-hop ``rng.random`` calls consume the
            # PCG64 stream exactly like the numpy backend's, which is what
            # makes the two backends bit-identical under one seed.
            u, deg, off, pos, current = self._buffers(batch)
            np.copyto(current, starts)  # int64: take() needs intp indices
            for t in range(1, length + 1):
                rng.random(out=u)
                np.take(degf, current, out=deg, mode="clip")
                np.multiply(u, deg, out=u)
                np.copyto(off, u, casting="unsafe")  # trunc == floor: u >= 0
                np.take(indptr, current, out=pos, mode="clip")
                pos += off
                np.take(indices, pos, out=walks[t], mode="clip")
                np.copyto(current, walks[t])
        # (B, L+1) transposed view: column-major hop access, which is how
        # every consumer reads walks, stays contiguous.
        return walks.T

    def weighted_batch_walks(self, graph, starts, length, seed=None):
        starts = _check_walk_args(graph.num_nodes, starts, length)
        rng = resolve_rng(seed)
        batch = starts.size
        plan = self._weighted_plan(graph)
        if plan.has_dangling or not (length and batch):
            # The masked per-hop path of AliasSampler.step draws uniforms
            # for movable walkers only; reuse it so the RNG stream matches
            # the numpy backend exactly.  The cached sampler still skips
            # the per-call alias-table rebuild.
            return weighted_batch_walks(
                graph, starts, length, seed=rng, sampler=plan.sampler
            )
        sampler = plan.sampler
        indptr, indices = graph.indptr, plan.indices
        outdegf = plan.out_degrees_f64
        prob, alias = sampler.prob, sampler.alias
        walks = np.empty((length + 1, batch), dtype=np.int32)
        walks[0] = starts
        current = starts
        for t in range(1, length + 1):
            # Draw order (slots, then coins) matches AliasSampler.step so
            # the stream stays aligned with the numpy backend.
            u_slot = rng.random(batch)
            u_coin = rng.random(batch)
            slots = indptr[current] + (u_slot * outdegf[current]).astype(np.int64)
            chosen = np.where(u_coin >= prob[slots], alias[slots], slots)
            current = indices[chosen]
            walks[t] = current
        return walks.T

    def walk_first_hits(self, graph, starts, length, target_mask, seed=None):
        if isinstance(graph, WeightedDiGraph):
            return super().walk_first_hits(
                graph, starts, length, target_mask, seed=seed
            )
        starts = _check_walk_args(graph.num_nodes, starts, length)
        rng = resolve_rng(seed)
        batch = starts.size
        first = np.where(target_mask[starts], 0, -1).astype(np.int64)
        if length and batch:
            plan = self._plan(graph)
            indptr, indices, degf = plan.indptr, plan.indices, plan.degrees_f64
            u, deg, off, pos, current = self._buffers(batch)
            nxt = np.empty(batch, dtype=np.int32)
            np.copyto(current, starts)
            for t in range(1, length + 1):
                rng.random(out=u)
                np.take(degf, current, out=deg, mode="clip")
                np.multiply(u, deg, out=u)
                np.copyto(off, u, casting="unsafe")
                np.take(indptr, current, out=pos, mode="clip")
                pos += off
                np.take(indices, pos, out=nxt, mode="clip")
                np.copyto(current, nxt)
                newly = (first < 0) & target_mask[current]
                first[newly] = t
        return first


# ----------------------------------------------------------------------
# Shard partitioning (shared by the sharded and multiproc backends)
# ----------------------------------------------------------------------
def _shard_bounds(total: int, shards: int) -> "list[tuple[int, int]]":
    """Contiguous ``[lo, hi)`` row ranges, ``np.array_split`` sizing."""
    shards = max(1, min(shards, total))
    base, rem = divmod(total, shards)
    bounds = []
    lo = 0
    for k in range(shards):
        hi = lo + base + (1 if k < rem else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


# ----------------------------------------------------------------------
# Sharded backend
# ----------------------------------------------------------------------
class ShardedWalkEngine(WalkEngine):
    """Row shards of one logical stream on a thread pool.

    The batch is cut into ``num_shards`` contiguous shards and each shard
    computes its *slice of the same PCG64 stream* the sequential backends
    consume (:func:`repro.walks.parallel.slice_walks`): a worker jumps to
    its rows' offset inside every per-hop uniform block with ``advance``
    and draws only its rows.  The assembled output is therefore
    **bit-identical to the numpy/csr backends under the same seed** —
    independent of ``num_shards``, worker count, and scheduling — and the
    caller's generator is advanced past exactly the draws the batch
    consumed, so a stream threaded through several calls stays aligned.

    Two cases cannot be sliced and fall back to one sequential call on
    the base engine (still bit-identical, just not parallel): seeds whose
    bit generator lacks 64-bit-draw ``advance`` semantics (anything but
    PCG64/PCG64DXSM), and weighted graphs with dangling rows, whose
    masked sampling consumes the stream data-dependently.
    """

    name = "sharded"

    def __init__(
        self,
        base: "str | WalkEngine" = "csr",
        num_shards: int = 8,
        max_workers: "int | None" = None,
    ):
        if num_shards < 1:
            raise ParameterError("num_shards must be >= 1")
        self._base_spec = base
        self.num_shards = num_shards
        self.max_workers = max_workers

    @property
    def base(self) -> WalkEngine:
        """The sequential engine used when a call cannot be sliced."""
        return get_engine(self._base_spec)

    def _csr(self) -> CSRWalkEngine:
        """The plan provider (the base engine when it is a CSR engine, so
        plans are shared with direct csr calls; a registry csr otherwise)."""
        base = self.base
        if isinstance(base, CSRWalkEngine):
            return base
        return get_engine("csr")

    # ------------------------------------------------------------------
    def _map_shards(self, run_shard, bounds) -> list:
        if obs.enabled():
            inner = run_shard

            def run_shard(lo, hi):
                obs.inc(
                    "walk_shard_rows_total", hi - lo,
                    help="Walk rows computed by shard workers.",
                    mode="threaded",
                )
                obs.inc(
                    "walk_shards_total",
                    help="Shard tasks executed.",
                    mode="threaded",
                )
                return inner(lo, hi)
        if len(bounds) == 1:
            return [run_shard(*bounds[0])]
        with concurrent.futures.ThreadPoolExecutor(
            max_workers=self.max_workers
        ) as pool:
            return list(pool.map(lambda b: run_shard(*b), bounds))

    def batch_walks(self, graph, starts, length, seed=None):
        starts = _check_walk_args(graph.num_nodes, starts, length)
        rng = resolve_rng(seed)
        state = stream_state(rng)
        total = starts.size
        if state is None or not (length and total):
            return self.base.batch_walks(graph, starts, length, seed=rng)
        plan = self._csr()._plan(graph)
        parts = self._map_shards(
            lambda lo, hi: slice_walks(
                plan.indptr, plan.indices, plan.degrees_f64,
                starts[lo:hi], length, state, lo, total,
            ),
            _shard_bounds(total, self.num_shards),
        )
        advance_stream(rng, total * length)
        return np.vstack(parts)

    def weighted_batch_walks(self, graph, starts, length, seed=None):
        starts = _check_walk_args(graph.num_nodes, starts, length)
        rng = resolve_rng(seed)
        state = stream_state(rng)
        total = starts.size
        plan = self._csr()._weighted_plan(graph)
        if state is None or plan.has_dangling or not (length and total):
            # The masked AliasSampler path (data-dependent draws) and
            # non-sliceable generators: one sequential call, same stream.
            return weighted_batch_walks(
                graph, starts, length, seed=rng, sampler=plan.sampler
            )
        sampler = plan.sampler
        parts = self._map_shards(
            lambda lo, hi: slice_weighted_walks(
                graph.indptr, plan.indices, plan.out_degrees_f64,
                sampler.prob, sampler.alias,
                starts[lo:hi], length, state, lo, total,
            ),
            _shard_bounds(total, self.num_shards),
        )
        advance_stream(rng, 2 * total * length)
        return np.vstack(parts)

    def walk_first_hits(self, graph, starts, length, target_mask, seed=None):
        if isinstance(graph, WeightedDiGraph):
            return super().walk_first_hits(
                graph, starts, length, target_mask, seed=seed
            )
        starts = _check_walk_args(graph.num_nodes, starts, length)
        rng = resolve_rng(seed)
        state = stream_state(rng)
        total = starts.size
        if state is None or not (length and total):
            return self.base.walk_first_hits(
                graph, starts, length, target_mask, seed=rng
            )
        plan = self._csr()._plan(graph)
        mask = np.asarray(target_mask, dtype=bool)
        parts = self._map_shards(
            lambda lo, hi: slice_first_hits(
                plan.indptr, plan.indices, plan.degrees_f64,
                starts[lo:hi], length, mask, state, lo, total,
            ),
            _shard_bounds(total, self.num_shards),
        )
        advance_stream(rng, total * length)
        return np.concatenate(parts)


# ----------------------------------------------------------------------
# Multiproc backend
# ----------------------------------------------------------------------
def _release_multiproc_resources(resources: dict) -> None:
    """Tear down a multiproc engine's pool and shared-memory segments.

    Module-level so a :func:`weakref.finalize` can run it at engine
    collection or interpreter exit without keeping the engine alive.
    Idempotent: every path that can leave the engine in a doubtful state
    (worker crash, ``KeyboardInterrupt`` mid-shard, pool breakage) calls
    it, so segments are unlinked exactly once and never leaked.
    """
    pool = resources.pop("pool", None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)
    for key in ("packs", "weighted_packs"):
        packs = resources.get(key, {})
        while packs:
            _, (_graph, pack) = packs.popitem()
            pack.close()


class MultiprocWalkEngine(WalkEngine):
    """Stream-sliced shards on a process pool over shared-memory CSR.

    The true multi-core backend: the augmented CSR arrays (and, for
    weighted graphs, the alias tables) are copied into
    :mod:`multiprocessing.shared_memory` once per graph and cached;
    worker processes attach read-only views and run the same slice
    kernels as the sharded backend, so the output is **bit-identical to
    every other backend under one seed** while the hop loops run on as
    many cores as the pool has workers, with no GIL in sight.

    Resource discipline (DESIGN.md §11):

    * The process pool is created lazily and persists across calls (spawn
      context — safe to combine with the serving layer's threads).
    * Per-graph segments live in a small FIFO cache; per-call segments
      (the first-hit target mask) are unlinked in a ``finally``.
    * Any exception escaping a fan-out — a crashed worker, an interrupt
      mid-shard, a broken pool — tears down the pool *and unlinks every
      cached segment* before re-raising; the next call starts fresh.  A
      finalizer covers engine collection and interpreter exit.  Workers
      never unlink anything, so a dying worker cannot orphan a segment.
    * The caller's generator is advanced only after a fan-out completes;
      a failed call leaves the stream position untouched, so the caller
      can retry (or fall back) without losing reproducibility.

    Calls below ``min_parallel_rows`` (and seeds whose bit generator is
    not sliceable, and weighted graphs with dangling rows) run
    sequentially on the csr backend instead — same answer, no IPC tax on
    small batches.

    On the index-build path (:meth:`walk_records`) workers extract
    first-visit records shard-locally and stream back only the record
    arrays — the walk matrices never cross the process boundary, which
    is what keeps peak parent memory bounded on million-node builds.
    """

    name = "multiproc"

    def __init__(
        self,
        num_procs: "int | None" = None,
        shard_rows: int = 1 << 16,
        min_parallel_rows: int = 8192,
        cache_size: int = 4,
        mp_context: str = "spawn",
    ):
        if num_procs is not None and num_procs < 1:
            raise ParameterError("num_procs must be >= 1")
        if shard_rows < 1:
            raise ParameterError("shard_rows must be >= 1")
        if cache_size < 1:
            raise ParameterError("cache_size must be >= 1")
        self.num_procs = (
            int(num_procs)
            if num_procs is not None
            else max(1, min(os.cpu_count() or 1, 8))
        )
        self.shard_rows = int(shard_rows)
        self.min_parallel_rows = int(min_parallel_rows)
        self._cache_size = int(cache_size)
        self._mp_context = mp_context
        self._resources: dict = {"pool": None, "packs": {}, "weighted_packs": {}}
        self._finalizer = weakref.finalize(
            self, _release_multiproc_resources, self._resources
        )

    # ------------------------------------------------------------------
    # Resource management
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down and unlink every shared-memory segment.

        Safe to call repeatedly; the engine remains usable — the next
        call simply recreates the pool and republishes the segments.
        """
        _release_multiproc_resources(self._resources)
        self._resources["pool"] = None

    def _ensure_pool(self):
        pool = self._resources.get("pool")
        if pool is None:
            pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.num_procs,
                mp_context=multiprocessing.get_context(self._mp_context),
            )
            self._resources["pool"] = pool
        return pool

    def _pack_for(self, graph, key: str, build) -> SharedArrayPack:
        """The cached shared-memory pack for ``graph`` (FIFO-bounded)."""
        packs = self._resources[key]
        hit = packs.get(id(graph))
        if hit is not None and hit[0] is graph:
            return hit[1]
        pack = SharedArrayPack(build())
        packs[id(graph)] = (graph, pack)
        while len(packs) > self._cache_size:
            oldest = next(iter(packs))
            if oldest == id(graph):
                break
            _, old_pack = packs.pop(oldest)
            old_pack.close()
        return pack

    def _graph_pack(self, graph: Graph) -> SharedArrayPack:
        plan = get_engine("csr")._plan(graph)
        return self._pack_for(
            graph, "packs",
            lambda: {
                "indptr": plan.indptr,
                "indices": plan.indices,
                "degrees_f64": plan.degrees_f64,
            },
        )

    def _weighted_pack(self, graph: WeightedDiGraph, plan) -> SharedArrayPack:
        return self._pack_for(
            graph, "weighted_packs",
            lambda: {
                "indptr": graph.indptr,
                "indices": plan.indices,
                "out_degrees_f64": plan.out_degrees_f64,
                "prob": plan.sampler.prob,
                "alias": plan.sampler.alias,
            },
        )

    # ------------------------------------------------------------------
    # Fan-out core
    # ------------------------------------------------------------------
    def _scatter(self, tasks: list, collect) -> None:
        """Run ``tasks`` on the pool, streaming results to ``collect``.

        At most ``2 * num_procs`` tasks are in flight, so results stream
        back in bounded memory regardless of the batch size.  Any
        exception — worker crash, interrupt, broken pool — releases the
        pool and unlinks every segment before re-raising (the
        can't-leak-on-crash contract the regression tests pin down).

        With telemetry enabled, tasks carry ``task["telemetry"]`` so
        workers record shard-level metrics into private registries and
        return them alongside the payload (``walks/parallel.py``); this
        loop absorbs each snapshot and times every submit→result round
        trip.  The task dicts, stream slicing, and payloads are unchanged
        either way — results stay bit-identical.
        """
        telemetry = obs.enabled()
        submitted: dict = {}
        try:
            pool = self._ensure_pool()
            window = 2 * self.num_procs
            pending = {}
            queued = iter(enumerate(tasks))
            exhausted = False
            while pending or not exhausted:
                while not exhausted and len(pending) < window:
                    nxt = next(queued, None)
                    if nxt is None:
                        exhausted = True
                        break
                    index, task = nxt
                    if telemetry:
                        task["telemetry"] = True
                    future = pool.submit(run_task, task)
                    pending[future] = index
                    if telemetry:
                        submitted[future] = time.perf_counter()
                if not pending:
                    break
                done, _ = concurrent.futures.wait(
                    pending, return_when=concurrent.futures.FIRST_COMPLETED
                )
                for future in done:
                    result = future.result()
                    if telemetry:
                        obs.observe(
                            "walk_worker_roundtrip_seconds",
                            time.perf_counter() - submitted.pop(future),
                            help="Multiproc shard submit-to-result round trip.",
                        )
                    # The records payload is also a 3-tuple (of arrays),
                    # so the sentinel test must check the type first.
                    if (
                        isinstance(result, tuple)
                        and len(result) == 3
                        and isinstance(result[0], str)
                        and result[0] == "__obs__"
                    ):
                        obs.absorb(result[2])
                        result = result[1]
                    collect(pending.pop(future), result)
        except BaseException:
            self.close()
            raise

    def _sliceable(self, rng, total: int, length: int):
        """The stream state when this call should use the pool, else None."""
        if length == 0 or total < max(1, self.min_parallel_rows):
            return None
        return stream_state(rng)

    # ------------------------------------------------------------------
    # WalkEngine interface
    # ------------------------------------------------------------------
    def batch_walks(self, graph, starts, length, seed=None):
        starts = _check_walk_args(graph.num_nodes, starts, length)
        rng = resolve_rng(seed)
        state = self._sliceable(rng, starts.size, length)
        if state is None:
            return get_engine("csr").batch_walks(graph, starts, length, seed=rng)
        total = starts.size
        specs = self._graph_pack(graph).specs
        walks = np.empty((total, length + 1), dtype=np.int32)
        bounds = _shard_bounds(total, -(-total // self.shard_rows))
        tasks = [
            {
                "mode": "walks", "specs": specs, "starts": starts[lo:hi],
                "length": length, "state": state, "lo": lo, "total": total,
            }
            for lo, hi in bounds
        ]
        self._scatter(
            tasks, lambda i, part: walks.__setitem__(
                slice(bounds[i][0], bounds[i][1]), part
            )
        )
        advance_stream(rng, total * length)
        return walks

    def weighted_batch_walks(self, graph, starts, length, seed=None):
        starts = _check_walk_args(graph.num_nodes, starts, length)
        rng = resolve_rng(seed)
        plan = get_engine("csr")._weighted_plan(graph)
        state = self._sliceable(rng, starts.size, length)
        if state is None or plan.has_dangling:
            return weighted_batch_walks(
                graph, starts, length, seed=rng, sampler=plan.sampler
            )
        total = starts.size
        specs = self._weighted_pack(graph, plan).specs
        walks = np.empty((total, length + 1), dtype=np.int32)
        bounds = _shard_bounds(total, -(-total // self.shard_rows))
        tasks = [
            {
                "mode": "weighted", "specs": specs, "starts": starts[lo:hi],
                "length": length, "state": state, "lo": lo, "total": total,
            }
            for lo, hi in bounds
        ]
        self._scatter(
            tasks, lambda i, part: walks.__setitem__(
                slice(bounds[i][0], bounds[i][1]), part
            )
        )
        advance_stream(rng, 2 * total * length)
        return walks

    def walk_first_hits(self, graph, starts, length, target_mask, seed=None):
        if isinstance(graph, WeightedDiGraph):
            return super().walk_first_hits(
                graph, starts, length, target_mask, seed=seed
            )
        starts = _check_walk_args(graph.num_nodes, starts, length)
        rng = resolve_rng(seed)
        state = self._sliceable(rng, starts.size, length)
        if state is None:
            return get_engine("csr").walk_first_hits(
                graph, starts, length, target_mask, seed=rng
            )
        total = starts.size
        specs = self._graph_pack(graph).specs
        mask = np.ascontiguousarray(
            np.asarray(target_mask, dtype=bool).view(np.uint8)
        )
        mask_pack = SharedArrayPack({"mask": mask})
        try:
            hits = np.empty(total, dtype=np.int64)
            bounds = _shard_bounds(total, -(-total // self.shard_rows))
            tasks = [
                {
                    "mode": "first_hits", "specs": specs,
                    "mask_spec": mask_pack.specs["mask"],
                    "starts": starts[lo:hi], "length": length,
                    "state": state, "lo": lo, "total": total,
                }
                for lo, hi in bounds
            ]
            self._scatter(
                tasks, lambda i, part: hits.__setitem__(
                    slice(bounds[i][0], bounds[i][1]), part
                )
            )
        finally:
            mask_pack.close()
        advance_stream(rng, total * length)
        return hits

    def iter_walk_records(
        self, graph, starts, length, states, seed=None, chunk_rows=1 << 19
    ):
        starts = _check_walk_args(graph.num_nodes, starts, length)
        states = np.asarray(states, dtype=np.int64)
        if states.size != starts.size:
            raise ParameterError("states must align with starts")
        if chunk_rows < 1:
            raise ParameterError("chunk_rows must be >= 1")
        rng = resolve_rng(seed)
        state = self._sliceable(rng, starts.size, length)
        if state is None:
            return self._iter_records_sequential(
                graph, starts, length, states, rng, chunk_rows
            )
        return self._iter_records_parallel(
            graph, starts, length, states, rng, state, chunk_rows
        )

    def _iter_records_parallel(
        self, graph, starts, length, states, rng, state, chunk_rows
    ):
        """One pool fan-out per chunk, records extracted in the workers.

        Stream offsets honor the chunk contract: chunk c's draws occupy
        [offset_c, offset_c + len(chunk) * L); shards subdivide rows
        *within* a chunk, slicing that chunk's segment of the stream.
        Each shard's records come back state-major, and the parent
        joins them replicate by replicate
        (:func:`~repro.walks.parallel.interleave_replicates`), so the
        chunk is in ``(state, hop)`` order like every other engine's.
        The caller's generator is advanced only after the last chunk is
        consumed — an abandoned or failed iteration leaves the stream
        position untouched, same as a failed :meth:`batch_walks` call.
        """
        specs = self._graph_pack(graph).specs
        stream_offset = 0
        for chunk_lo in range(0, starts.size, chunk_rows):
            chunk_size = min(chunk_rows, starts.size - chunk_lo)
            tasks = [
                {
                    "mode": "records", "specs": specs,
                    "starts": starts[chunk_lo + lo : chunk_lo + hi],
                    "states": states[chunk_lo + lo : chunk_lo + hi],
                    "num_nodes": graph.num_nodes,
                    "length": length, "state": state,
                    "lo": stream_offset + lo, "total": chunk_size,
                }
                for lo, hi in _shard_bounds(
                    chunk_size, -(-chunk_size // self.shard_rows)
                )
            ]
            parts: list = [None] * len(tasks)
            self._scatter(tasks, parts.__setitem__)
            stream_offset += chunk_size * length
            yield interleave_replicates(parts, graph.num_nodes)
        advance_stream(rng, starts.size * length)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MultiprocWalkEngine(num_procs={self.num_procs}, "
            f"shard_rows={self.shard_rows})"
        )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_FACTORIES: "dict[str, Callable[[], WalkEngine]]" = {}
_INSTANCES: "dict[str, WalkEngine]" = {}


def register_engine(
    name: str, factory: Callable[[], WalkEngine], replace: bool = False
) -> None:
    """Register a backend factory under ``name``.

    ``factory`` is called lazily, once, on first :func:`get_engine` lookup.
    Re-registering an existing name requires ``replace=True`` (and drops
    any cached instance), so a typo cannot silently shadow a builtin.
    """
    if not name or not isinstance(name, str):
        raise ParameterError("engine name must be a non-empty string")
    if name in _FACTORIES and not replace:
        raise ParameterError(
            f"engine {name!r} is already registered (pass replace=True)"
        )
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def available_engines() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_FACTORIES))


def get_engine(engine: "str | WalkEngine | None" = None) -> WalkEngine:
    """Resolve an ``engine=`` argument to a :class:`WalkEngine` instance.

    ``None`` -> the default backend (``"numpy"``); a string -> the shared
    instance registered under that name; an instance -> itself.
    """
    if engine is None:
        engine = DEFAULT_ENGINE
    if isinstance(engine, WalkEngine):
        return engine
    if not isinstance(engine, str):
        raise ParameterError(
            f"cannot interpret {type(engine).__name__} as a walk engine"
        )
    try:
        instance = _INSTANCES.get(engine)
        if instance is None:
            instance = _INSTANCES[engine] = _FACTORIES[engine]()
        return instance
    except KeyError:
        raise ParameterError(
            f"unknown walk engine {engine!r}; available: "
            f"{', '.join(available_engines())}"
        ) from None


register_engine("numpy", NumpyWalkEngine)
register_engine("csr", CSRWalkEngine)
register_engine("sharded", ShardedWalkEngine)
register_engine("multiproc", MultiprocWalkEngine)

"""Stream-slicing walk kernels and shared-memory plumbing (DESIGN.md §11).

This module is the substrate of the two parallel walk backends in
:mod:`repro.walks.backends`:

* ``"sharded"`` runs the slice kernels on a thread pool over the graph's
  own CSR arrays;
* ``"multiproc"`` runs them in worker *processes* that read the CSR from
  :mod:`multiprocessing.shared_memory` segments and is driven by the
  top-level task entry point :func:`run_task` (spawn-picklable).

The kernels compute **row slices of one logical batch**: a canonical
batch-walk call over ``total`` rows consumes ``rng.random(total)`` once
per hop from a single PCG64 stream (the ``numpy``/``csr`` discipline).
A slice kernel reconstructs that stream from its picklable state
(:func:`repro.walks.rng.generator_at`), jumps to its rows' offset inside
each per-hop block, draws only its rows, and skips the rest with
``advance`` — so the assembled output is *bit-identical* to the
sequential engines, for any partitioning, on any worker count.

Everything here is deliberately import-light (numpy + stdlib + the rng
helpers): spawned worker processes import this module once and nothing
heavier.
"""

from __future__ import annotations

import numpy as np
from multiprocessing import shared_memory

from repro.walks.rng import generator_at

__all__ = [
    "slice_walks",
    "slice_first_hits",
    "slice_weighted_walks",
    "first_visit_records",
    "radix_argsort",
    "replicate_bounds",
    "interleave_replicates",
    "canonical_record_key",
    "SharedArrayPack",
    "run_task",
]


# ----------------------------------------------------------------------
# Slice kernels (thread- and process-agnostic: plain arrays in, arrays out)
# ----------------------------------------------------------------------
def slice_walks(
    indptr: np.ndarray,
    indices: np.ndarray,
    degrees_f64: np.ndarray,
    starts: np.ndarray,
    length: int,
    state: "tuple[str, dict]",
    lo: int,
    total: int,
) -> np.ndarray:
    """Rows ``[lo, lo + len(starts))`` of a ``total``-row batch-walk call.

    ``indptr``/``indices``/``degrees_f64`` are the *augmented* CSR of the
    CSR backend's plan (dangling nodes carry a self-loop), and the hop
    arithmetic mirrors :meth:`~repro.walks.backends.CSRWalkEngine.batch_walks`
    operation for operation, so the slice is bit-identical to the matching
    rows of the sequential call.
    """
    batch = starts.size
    walks = np.empty((length + 1, batch), dtype=np.int32)
    walks[0] = starts
    if length and batch:
        gen = generator_at(state, lo)
        bit_gen = gen.bit_generator
        u = np.empty(batch, dtype=np.float64)
        deg = np.empty(batch, dtype=np.float64)
        off = np.empty(batch, dtype=np.int64)
        pos = np.empty(batch, dtype=np.int64)
        current = np.empty(batch, dtype=np.int64)
        np.copyto(current, starts)
        for t in range(1, length + 1):
            gen.random(out=u)
            np.take(degrees_f64, current, out=deg, mode="clip")
            np.multiply(u, deg, out=u)
            np.copyto(off, u, casting="unsafe")  # trunc == floor: u >= 0
            np.take(indptr, current, out=pos, mode="clip")
            pos += off
            np.take(indices, pos, out=walks[t], mode="clip")
            np.copyto(current, walks[t])
            bit_gen.advance(total - batch)  # skip the other rows' draws
    return np.ascontiguousarray(walks.T)


def slice_first_hits(
    indptr: np.ndarray,
    indices: np.ndarray,
    degrees_f64: np.ndarray,
    starts: np.ndarray,
    length: int,
    target_mask: np.ndarray,
    state: "tuple[str, dict]",
    lo: int,
    total: int,
) -> np.ndarray:
    """Fused first-hit twin of :func:`slice_walks` (no walk matrix)."""
    batch = starts.size
    first = np.where(target_mask[starts], 0, -1).astype(np.int64)
    if length and batch:
        gen = generator_at(state, lo)
        bit_gen = gen.bit_generator
        u = np.empty(batch, dtype=np.float64)
        deg = np.empty(batch, dtype=np.float64)
        off = np.empty(batch, dtype=np.int64)
        pos = np.empty(batch, dtype=np.int64)
        nxt = np.empty(batch, dtype=np.int32)
        current = np.empty(batch, dtype=np.int64)
        np.copyto(current, starts)
        for t in range(1, length + 1):
            gen.random(out=u)
            np.take(degrees_f64, current, out=deg, mode="clip")
            np.multiply(u, deg, out=u)
            np.copyto(off, u, casting="unsafe")
            np.take(indptr, current, out=pos, mode="clip")
            pos += off
            np.take(indices, pos, out=nxt, mode="clip")
            np.copyto(current, nxt)
            newly = (first < 0) & target_mask[current]
            first[newly] = t
            bit_gen.advance(total - batch)
    return first


def slice_weighted_walks(
    indptr: np.ndarray,
    indices: np.ndarray,
    out_degrees_f64: np.ndarray,
    prob: np.ndarray,
    alias: np.ndarray,
    starts: np.ndarray,
    length: int,
    state: "tuple[str, dict]",
    lo: int,
    total: int,
) -> np.ndarray:
    """Row slice of a dangling-free weighted batch-walk call.

    A weighted hop burns two per-hop blocks — ``total`` slot uniforms,
    then ``total`` coin uniforms (the
    :meth:`~repro.walks.backends.CSRWalkEngine.weighted_batch_walks`
    fast-path order) — so the slice jumps twice per hop.  Graphs with
    dangling rows consume the stream data-dependently (the masked
    :meth:`~repro.walks.alias.AliasSampler.step` path) and cannot be
    sliced; the backends fall back to a sequential call for those.
    """
    batch = starts.size
    walks = np.empty((length + 1, batch), dtype=np.int32)
    walks[0] = starts
    if length and batch:
        gen = generator_at(state, lo)
        bit_gen = gen.bit_generator
        current = starts.astype(np.int64)
        for t in range(1, length + 1):
            u_slot = gen.random(batch)
            bit_gen.advance(total - batch)
            u_coin = gen.random(batch)
            bit_gen.advance(total - batch)
            slots = indptr[current] + (
                u_slot * out_degrees_f64[current]
            ).astype(np.int64)
            chosen = np.where(u_coin >= prob[slots], alias[slots], slots)
            current = indices[chosen]
            walks[t] = current
    return np.ascontiguousarray(walks.T)


# ----------------------------------------------------------------------
# First-visit record extraction (shared by every index builder)
# ----------------------------------------------------------------------
_INT32_MAX = np.iinfo(np.int32).max


def radix_argsort(keys: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort of non-negative integer ``keys`` below ``bound``.

    numpy's ``kind="stable"`` on a 16-bit integer type is a radix sort —
    linear, no comparisons — so this sorts one 16-bit digit per pass,
    least significant first: one pass while ``bound <= 2**16``, two
    below ``2**32``.  Stability is the point: records that tie on the
    key keep their input order, which is how the canonical assembler
    (:func:`repro.walks.build.canonical_entries`) turns a state-major
    stream into ``(hit, state)`` order without comparing states.
    """
    # astype(uint16) keeps the low 16 bits: each pass sees one digit.
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    shift = 16
    while (int(bound) - 1) >> shift:
        digit = (keys[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order


def replicate_bounds(
    states: np.ndarray, num_nodes: int, num_replicates: int
) -> np.ndarray:
    """Offsets of each replicate's block in a state-sorted record array.

    States are ``rep * num_nodes + walker``, so in ``(state, hop)``
    order replicate ``r``'s records are the slice
    ``[bounds[r], bounds[r + 1])``.
    """
    edges = np.arange(num_replicates + 1, dtype=np.int64) * num_nodes
    return np.searchsorted(states, edges)


def first_visit_records(
    walks: np.ndarray, states: np.ndarray, num_nodes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First-visit ``(hit, state, hop)`` records of a block of walks.

    The Algorithm-3 extraction shared by the static builder
    (:meth:`~repro.walks.index.FlatWalkIndex.build`), the dynamic builder
    (:mod:`repro.dynamic.index`), the weighted builder and the multiproc
    workers (which run it shard-locally and ship back only the records):
    a position is a record iff its node differs from every earlier
    position of the walk.  ``states`` carries the per-row flattened ``D``
    index ``rep * num_nodes + walker``.

    Records come out **state-major**, in ``(state, hop)`` order, as
    ``int32`` hits, ``int32`` states (``int64`` once a state passes the
    int32 range) and ``int16`` hops.  Rows are walker-sorted within each
    replicate — true of any contiguous run of walker-major rows and of
    any sorted subset of them — so their state order is a stable bucket
    by replicate: one radix pass over ``states // num_nodes``, then the
    fresh mask read row by row.  No comparison sort.
    """
    batch, width = walks.shape
    length = width - 1
    states = np.asarray(states)
    state_dtype = (
        np.int32 if states.size == 0 or int(states.max()) < _INT32_MAX
        else np.int64
    )
    if batch == 0 or length == 0:
        return (
            np.empty(0, dtype=np.int32),
            np.empty(0, dtype=state_dtype),
            np.empty(0, dtype=np.int16),
        )
    reps = states // num_nodes
    order = radix_argsort(reps, int(reps.max()) + 1)
    walks = walks[order]
    row_states = states[order].astype(state_dtype, copy=False)
    fresh = np.empty((length, batch), dtype=bool)
    for hop in range(1, length + 1):
        col = walks[:, hop]
        row = fresh[hop - 1]
        np.not_equal(col, walks[:, 0], out=row)
        for prev in range(1, hop):
            np.logical_and(row, col != walks[:, prev], out=row)
    # Transposed, the mask is (row, hop); boolean indexing reads it in
    # row-major order, i.e. (state, hop).
    mask = fresh.T
    hops = np.broadcast_to(
        np.arange(1, length + 1, dtype=np.int16), mask.shape
    )
    return (
        walks[:, 1:][mask].astype(np.int32, copy=False),
        np.repeat(row_states, fresh.sum(axis=0)),
        hops[mask],
    )


def interleave_replicates(
    parts: "list[tuple[np.ndarray, np.ndarray, np.ndarray]]", num_nodes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Join state-major record parts of consecutive walker ranges.

    Each part is one row shard's :func:`first_visit_records` output, and
    each shard's walkers follow the previous shard's.  Within a
    replicate the parts' states therefore increase part by part, so the
    joined ``(state, hop)`` order is every part's replicate-0 block in
    part order, then every replicate-1 block, and so on — one
    concatenation, no sort.
    """
    parts = [part for part in parts if part[0].size]
    if len(parts) == 1:
        return parts[0]
    if not parts:
        return (
            np.empty(0, dtype=np.int32),
            np.empty(0, dtype=np.int32),
            np.empty(0, dtype=np.int16),
        )
    num_reps = max(int(part[1][-1]) for part in parts) // num_nodes + 1
    bounds = [replicate_bounds(part[1], num_nodes, num_reps) for part in parts]
    pieces = [
        (part, b[r], b[r + 1])
        for r in range(num_reps)
        for part, b in zip(parts, bounds)
        if b[r + 1] > b[r]
    ]
    return tuple(
        np.concatenate([part[i][lo:hi] for part, lo, hi in pieces])
        for i in range(3)
    )


def canonical_record_key(
    hits: np.ndarray, states: np.ndarray, num_states: int
) -> np.ndarray:
    """The canonical ``hit * num_states + state`` sort key, as ``int64``.

    States are unique within one hit node's records (first-visit dedup),
    so the key is a strict total order over any record set.  It is the
    order every builder produces — by a stable bucket-by-hit of the
    state-major record stream (:func:`repro.walks.build.canonical_entries`)
    — and the order the argsort oracle
    (``FlatWalkIndex._from_records``) sorts arbitrary record sets into.
    Spilled external-sort runs store it (with the hop) per record, and
    the dynamic index keeps it to merge edits.  Both operands are forced
    to ``int64`` *before* the multiply: under NEP 50 (numpy >= 2) and
    under 1.x value-based casting alike, ``int32_array * python_int``
    stays ``int32`` whenever the scalar fits, so int32 inputs would wrap
    silently once ``hit * n * R`` crosses 2^31 — reordering entries
    instead of crashing.  Keys are decodable: ``hit = key // num_states``
    and ``state = key % num_states`` (states are ``< num_states`` by
    construction).
    """
    return (
        hits.astype(np.int64, copy=False) * np.int64(num_states)
        + states.astype(np.int64, copy=False)
    )


# ----------------------------------------------------------------------
# Shared-memory transport
# ----------------------------------------------------------------------
class SharedArrayPack:
    """A named bundle of numpy arrays copied into shared-memory segments.

    The parent creates the pack once (per graph, or per call for
    transient inputs like a target mask), hands workers the picklable
    ``specs`` dict, and remains the *sole owner* of the segments:
    :meth:`close` both closes and unlinks every one.  Workers only ever
    attach read-only views (:func:`attach_array`) and never unlink — so
    a crashed worker cannot leak a segment; leaks are impossible as long
    as the parent's ``close`` runs, which the multiproc engine guarantees
    on every exception path (and via a finalizer on interpreter exit).
    """

    def __init__(self, arrays: "dict[str, np.ndarray]"):
        self.specs: "dict[str, tuple[str, tuple, str]]" = {}
        self._segments: "list[shared_memory.SharedMemory]" = []
        try:
            for name, array in arrays.items():
                array = np.ascontiguousarray(array)
                segment = shared_memory.SharedMemory(
                    create=True, size=max(1, array.nbytes)
                )
                self._segments.append(segment)
                view = np.ndarray(
                    array.shape, dtype=array.dtype, buffer=segment.buf
                )
                view[...] = array
                self.specs[name] = (
                    segment.name, array.shape, array.dtype.str
                )
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Close and unlink every segment (idempotent, exception-safe)."""
        segments, self._segments = self._segments, []
        self.specs = {}
        for segment in segments:
            try:
                segment.close()
            except OSError:  # pragma: no cover - best-effort teardown
                pass
            try:
                segment.unlink()
            except FileNotFoundError:
                pass  # already unlinked (double-close is legal)

    @property
    def segment_names(self) -> "tuple[str, ...]":
        """Kernel names of the live segments (diagnostics and tests)."""
        return tuple(segment.name for segment in self._segments)


#: Worker-side attach cache: segment name -> (SharedMemory, base array),
#: LRU-bounded.  Keeping mappings open across tasks amortizes attach
#: cost, but an open mapping also keeps an *unlinked* segment's physical
#: memory alive — so when the parent cycles through many graphs (its own
#: pack cache evicts and unlinks), workers must drop stale mappings too
#: or the freed packs never actually free.  The cap comfortably exceeds
#: the handful of arrays any single task touches, so a task can never
#: evict a segment it is about to read.
_ATTACH_CACHE_SIZE = 16
_ATTACHED: "dict[str, tuple[shared_memory.SharedMemory, np.ndarray]]" = {}


def attach_array(spec: "tuple[str, tuple, str]") -> np.ndarray:
    """A read-only view of a shared array, attached and LRU-cached per
    worker.

    Pool workers share the parent's resource-tracker process, and the
    tracker's registry is a per-name set — the attach-side ``register``
    the stdlib performs is therefore idempotent with the parent's, and
    the parent's single ``unlink`` retires the name exactly once.
    Workers must never unregister (or unlink) themselves: that would
    retire the parent's registration early and double-free the name.
    Evicted mappings are merely *closed*, which is what releases the
    segment's memory once the parent has unlinked it.
    """
    name, shape, dtype = spec
    cached = _ATTACHED.pop(name, None)
    if cached is None:
        segment = shared_memory.SharedMemory(name=name)
        base = np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf)
        base.flags.writeable = False
        cached = (segment, base)
    _ATTACHED[name] = cached  # re-insert at the MRU end (dicts keep order)
    while len(_ATTACHED) > _ATTACH_CACHE_SIZE:
        oldest = next(iter(_ATTACHED))  # front of the dict == LRU
        stale_segment, _stale_base = _ATTACHED.pop(oldest)
        stale_segment.close()
    return cached[1]


# ----------------------------------------------------------------------
# Process-pool task entry point
# ----------------------------------------------------------------------
def run_task(task: dict):
    """Execute one multiproc shard task (top-level: spawn-picklable).

    ``task["mode"]`` selects the kernel:

    * ``"walks"`` → the ``(rows, L+1)`` walk slice;
    * ``"first_hits"`` → the per-row first-hit hops (mask from shared
      memory);
    * ``"records"`` → the slice's first-visit ``(hit, state, hop)``
      arrays — the streaming index-build path that never ships a walk
      matrix back to the parent;
    * ``"weighted"`` → the weighted walk slice.

    Workers are stateless between tasks apart from the read-only attach
    cache: the slice generator is rebuilt from the pickled stream state
    every time, so a task that dies mid-shard (worker crash, interrupt)
    leaves nothing to tear down worker-side — recovery is entirely the
    parent's unlink-and-raise path.

    When the parent sets ``task["telemetry"]`` (it does so only while its
    own telemetry is enabled) the payload comes back as
    ``("__obs__", payload, snapshot_dict)``: shard-level metrics recorded
    into a private worker registry and shipped through the same
    record-streaming return path, for the parent to ``obs.absorb``.
    """
    if task.get("telemetry"):
        return _run_task_telemetry(task)
    return _run_task_kernel(task)


def _run_task_kernel(task: dict):
    mode = task["mode"]
    specs = task["specs"]
    starts = task["starts"]
    length = task["length"]
    state = task["state"]
    lo = task["lo"]
    total = task["total"]
    if mode == "weighted":
        return slice_weighted_walks(
            attach_array(specs["indptr"]),
            attach_array(specs["indices"]),
            attach_array(specs["out_degrees_f64"]),
            attach_array(specs["prob"]),
            attach_array(specs["alias"]),
            starts, length, state, lo, total,
        )
    indptr = attach_array(specs["indptr"])
    indices = attach_array(specs["indices"])
    degrees = attach_array(specs["degrees_f64"])
    if mode == "walks":
        return slice_walks(
            indptr, indices, degrees, starts, length, state, lo, total
        )
    if mode == "first_hits":
        mask = attach_array(task["mask_spec"]).view(bool)
        return slice_first_hits(
            indptr, indices, degrees, starts, length, mask, state, lo, total
        )
    if mode == "records":
        walks = slice_walks(
            indptr, indices, degrees, starts, length, state, lo, total
        )
        return first_visit_records(walks, task["states"], task["num_nodes"])
    raise ValueError(f"unknown multiproc task mode {mode!r}")


def _run_task_telemetry(task: dict):
    # Imported lazily: this module stays numpy+stdlib on the default path,
    # and workers only pay the import when the parent opted in.
    import time

    from repro.obs.registry import MetricsRegistry

    registry = MetricsRegistry()
    mode = task["mode"]
    started = time.perf_counter()
    payload = _run_task_kernel(task)
    elapsed = time.perf_counter() - started
    rows = int(np.asarray(task["starts"]).size)
    registry.counter(
        "walk_shard_rows_total", {"mode": mode},
        help="Walk rows computed by multiproc shard workers.",
    ).inc(rows)
    registry.counter(
        "walk_shards_total", {"mode": mode},
        help="Multiproc shard tasks executed.",
    ).inc()
    registry.histogram(
        "walk_shard_kernel_seconds", {"mode": mode},
        help="In-worker shard kernel wall time.",
    ).observe(elapsed)
    if mode == "records":
        registry.counter(
            "walk_shard_records_total",
            help="First-visit records extracted in workers.",
        ).inc(int(payload[0].size))
    return "__obs__", payload, registry.snapshot().to_dict()

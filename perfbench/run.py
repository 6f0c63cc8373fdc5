"""Benchmark of the repro library: one command, three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload solve-20k --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Workloads, metrics and layers are described in ``perfbench/README.md``.
"""

import time

# setup_s counts from here, so the library's import time is part of it.
BENCH_START = time.perf_counter()

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"


def _load_library() -> None:
    """Put the checkout's ``src/`` first on the path and import repro.

    Exits non-zero when the checkout holds no library sources, so the
    benchmark can never measure some other copy of ``repro``.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library sources at {SRC}/repro")
    # The load comes from at most two client threads; keep numeric
    # libraries from starting pools of their own.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    # numpy asks for transparent huge pages on large arrays.  Whether a
    # run gets them depends on the machine's memory fragmentation at that
    # moment: on a 2-vCPU VM it moved random-access calls (greedy, exact
    # evaluation) by +-17% between runs, against +-2% with 4 KiB pages.
    os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")


def metric_units(trace: bool) -> dict:
    """Metric name -> unit for one mode, as ``BENCHMARK.json`` lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        m["name"]: m["unit"]
        for m in spec["per_layer" if trace else "end_to_end"]
    }


def result_line(outcome, names_units: dict) -> str:
    missing = [name for name in names_units if name not in outcome.metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in names_units.items()
        },
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy runs every workload at a tiny size")
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload at toy scale, both modes")
    args = parser.parse_args(argv)
    _load_library()
    import workloads

    if args.self_test:
        import selftest

        return selftest.main(ROOT, {0: metric_units(False),
                                    1: metric_units(True)})
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    outcome = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        args.scale, BENCH_START, str(OUT_DIR),
    )
    for line in outcome.report:
        print(line)
    for problem in outcome.problems:
        print(f"FAILED: {problem}")
    units = metric_units(bool(args.trace))
    for name, unit in units.items():
        print(f"  {name:<28} {outcome.metrics[name]:>16.6g} {unit}")
    print(result_line(outcome, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())

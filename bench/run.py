"""ringsolve benchmark: one workload per process, one JSON result line.

    python3 bench/run.py --workload warm_solve --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout; without it the command exits 2 and prints no result.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``; the
same object, with per-op details, is written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "latency_s.p50": "s",
    "latency_s.p90": "s",
    "throughput_ops": "1/s",
    "peak_rss_mb": "MiB",
}

# seconds per op unless the unit says otherwise
PER_LAYER = {
    "ring.build_s": "s",
    "ring.units_s": "s",
    "structure.decompose_local_s": "s",
    "structure.chain_data_s": "s",
    "structure.min_generators_s": "s",
    "structure.default_order_s": "s",
    "structure.galois_representation_s": "s/setup",
    "reductions.project_to_local_s": "s",
    "reductions.ring_to_cyclic_s": "s",
    "reductions.twosided_to_numerical_s": "s",
    "reductions.chain_rows": "count",
    "reductions.chain_cols": "count",
    "reductions.trace_items": "count",
    "linsys.solve_chain_s": "s",
    "linsys.solve_group_s": "s",
    "linsys.solve_numerical_s": "s",
    "linsys.backmap_s": "s",
    "linsys.verify_s": "s",
    "matalg.inverse_s": "s",
    "matalg.determinant_s": "s",
    "matalg.charpoly_s": "s",
    "oracle.brute_force_s": "s",
    "oracle.assignments": "count",
    "oracle.assignments_per_s": "1/s",
    "sysio.parse_system_s": "s",
    "sysio.write_certificate_s": "s",
    "cli.rest_s": "s",
    "trace.residual_s": "s",
    "trace.overhead_s": "s",
}


def import_program():
    """Import ringsolve from this checkout's src/, or None when it is absent."""
    src = ROOT / "src"
    if not (src / "ringsolve" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import ringsolve

    if Path(ringsolve.__file__).resolve().parent != (src / "ringsolve").resolve():
        return None
    return ringsolve


def run_ops(ops: list) -> tuple[list, list, int, float]:
    """Every op once, in order: (outputs, latencies, failed, wall seconds).

    A collection before each op, outside its latency, starts every op from
    the same collector state.
    """
    outputs, latencies, failed = [], [], 0
    start = time.perf_counter()
    for op in ops:
        gc.collect()
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception:  # an op that raises is counted and the run goes on
            traceback.print_exc()
            out, failed = None, failed + 1
        latencies.append(time.perf_counter() - t0)
        outputs.append(out)
    return outputs, latencies, failed, time.perf_counter() - start


def measure(wl, seed: int, seconds: float, work: Path) -> dict:
    from workloads import Tracer

    setups, ops = [], None
    for _ in range(SETUP_REPEATS):
        ops = None
        gc.collect()
        t0 = time.perf_counter()
        ops = wl.setup(random.Random(seed), wl.rounds(seconds), work, Tracer())
        setups.append(time.perf_counter() - t0)
    gc.collect()
    gc.freeze()
    outputs, lat, failed, wall = run_ops(ops)
    ok = all(out is None or op.check(out) for op, out in zip(ops, outputs))
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_s.p50": statistics.median(lat),
        "latency_s.p90": statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0],
        "throughput_ops": len(ops) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {"correct": ok, "attempted": len(ops), "failed": failed, "metrics": metrics,
            "detail": {"setup_runs": setups, "latencies": lat}}


def measure_traced(wl, seed: int, seconds: float, work: Path) -> dict:
    from workloads import Tracer, chain_probe

    setup_t = Tracer()
    ops = wl.setup(random.Random(seed), max(1, wl.rounds(seconds) // 2), work, setup_t)
    gc.collect()
    gc.freeze()
    total = Tracer()
    residual, overhead, failed, ok = [], [], 0, True
    for op in ops:
        t = Tracer()
        gc.collect()
        try:
            t0 = time.perf_counter()
            plain = op.run()
            t1 = time.perf_counter()
            with chain_probe(t):
                traced = op.trace(t)
            t2 = time.perf_counter()
        except Exception:  # as in run_ops
            traceback.print_exc()
            failed += 1
            continue
        ok = ok and op.check(plain) and op.same(plain, traced)
        residual.append((t1 - t0) - t.covered())
        overhead.append((t2 - t1) - (t1 - t0))
        total.merge(t)
    n = max(1, len(ops) - failed)
    values = {name: total.times.get(name, 0.0) / n for name, unit in PER_LAYER.items() if unit == "s"}
    values.update({name: total.counts.get(name, 0) / n for name, unit in PER_LAYER.items() if unit == "count"})
    values["structure.galois_representation_s"] = setup_t.times.get("structure.galois_representation_s", 0.0)
    brute = total.times.get("oracle.brute_force_s", 0.0)
    values["oracle.assignments_per_s"] = total.counts.get("oracle.assignments", 0) / brute if brute else 0.0
    values["trace.residual_s"] = statistics.mean(residual) if residual else 0.0
    values["trace.overhead_s"] = statistics.mean(overhead) if overhead else 0.0
    values["cli.rest_s"] = values["trace.residual_s"] if wl.name == "oracle_check" else 0.0
    return {"correct": ok, "attempted": len(ops), "failed": failed, "metrics": values,
            "detail": {"residual_s": residual, "overhead_s": overhead}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if import_program() is None:
        print("error: ringsolve sources not found under src/ of this checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{wl.name}-", dir=OUT))
    try:
        if args.trace:
            result = measure_traced(wl, args.seed, args.seconds, work)
        else:
            result = measure(wl, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    line = {
        "correct": bool(result["correct"]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }
    record = dict(line, workload=wl.name, seed=args.seed, seconds=args.seconds, detail=result["detail"])
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

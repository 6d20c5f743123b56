"""Training benchmark: end-to-end metrics, or a traced per-layer breakdown.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root (the program is imported from ``src/``).
Workloads, parameters and metrics are defined in ``perfbench/spec.py``.

``--trace 0`` sets up ``SETUP_REPEATS`` times (median reported as
``setup_s``), then trains from a fresh replica for at least ``S`` seconds
and at least the workload's fixed epoch budget, whose test accuracy is
reported.  ``--trace 1`` runs the same units untraced for ``S/2`` seconds,
then again traced, checks that both give bitwise-identical losses, and
prints the per-layer metrics; the spans go to
``.perfbench/<workload>.trace.json`` (Chrome trace-event format).

Every metric is printed by name and unit, ``null`` where undefined.  The
last line is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``).  The exit code is 1 when a check failed and 2 when the
program cannot be found.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")


def bootstrap(rank_threads: int) -> dict:
    """Fix the process's thread budget and make ``repro`` and ``perfbench``
    importable.  Must run before NumPy loads.  Measured on a shared 2-core
    host:

    * one CPU: the simulated ranks are threads serialized by the GIL, and
      handing it across two cores made cluster steps depend on the second
      core's load (p90 step spread over 10 runs: 48% of its median on two
      cores, 6% in 10 later runs on one);
    * one BLAS thread: a second gained nothing on these GEMM shapes and made
      steps 3-6x slower whenever another process held a core.
    """
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        raise FileNotFoundError(f"no repro package under {os.path.join(ROOT, 'src')}")
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:1])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    return {"nproc": len(cpus), "cpus_used": 1, "rank_threads": rank_threads,
            "blas_threads": 1}


def _fmt(value) -> str:
    return "null" if value is None else repr(value)


def end_to_end(phase, setup_s: float) -> dict:
    steps = sorted(phase.step_s)
    return {
        "setup_s": setup_s,
        "samples_per_s": phase.samples / sum(steps),
        "step_p50_s": statistics.median(steps),
        "step_p90_s": statistics.quantiles(steps, n=10)[8],
        "test_top1": phase.info.get("test_top1"),
        "peak_rss_mb": phase.info.get("peak_rss_mb"),
        "final_train_loss": phase.info.get("final_train_loss"),
        "sim_step_s": phase.info.get("sim_step_s"),
        "failed_step_frac": phase.failed / phase.attempted,
    }


def gemm_peak_gflops(n: int = 512, reps: int = 9) -> float:
    """fp64 GFLOP/s of one fixed-shape matmul (median of ``reps``)."""
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    out = np.empty((n, n))
    np.matmul(a, b, out=out)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.matmul(a, b, out=out)
        times.append(time.perf_counter() - t0)
    return 2.0 * n**3 / statistics.median(times) / 1e9


def run_untraced(w, seconds: float, import_s: float):
    from perfbench.spec import SETUP_REPEATS

    setup_s = import_s + statistics.median(w.setup() for _ in range(SETUP_REPEATS))
    phase = w.run(seconds=seconds, budget=True)
    metrics = end_to_end(phase, setup_s)
    floor = w.spec["top1_floor"]
    top1 = metrics["test_top1"]
    if top1 is None or not top1 >= floor:
        phase.fail(f"test_top1 {top1} below the floor {floor}")
    return phase, metrics


def run_traced(w, seconds: float, trace_path: str):
    from perfbench.tracing import SpanRecorder, layer_metrics
    from perfbench.workloads import differences
    from repro.cli import main as repro_main

    w.setup()
    plain = w.run(seconds=seconds / 2)
    peak = gemm_peak_gflops()
    rec = SpanRecorder()
    traced = w.run(units=plain.units, rec=rec)
    for diff in differences(plain, traced):
        traced.fail(f"traced and untraced runs: {diff}", steps=traced.attempted)
    metrics, violations = layer_metrics(rec, w.name, plain, traced, peak)
    if violations:
        traced.fail(f"{len(violations)} span accounting violations, e.g. {violations[0]}",
                    steps=len(violations))
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    rec.export_chrome(trace_path)
    if repro_main(["-q", "trace", "validate", trace_path]) != 0:
        traced.fail(f"repro trace validate rejected {trace_path}")
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    traced.errors[:0] = plain.errors
    return traced, metrics


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, ROOT)
    from perfbench.spec import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="check that tracing changes no result, on every workload")
    args = ap.parse_args(argv)

    if args.selftest:
        bootstrap(rank_threads=max(w["rank_threads"] for w in WORKLOADS.values()))
        from perfbench.selftest import selftest

        return selftest()
    if args.workload is None:
        ap.error("--workload is required")
    spec = WORKLOADS[args.workload]
    try:
        threads = bootstrap(spec["rank_threads"])
    except FileNotFoundError as exc:
        print(f"error: {exc}; run from the repository root", file=sys.stderr)
        return 2
    from perfbench import workloads

    import_s = time.perf_counter() - _T0
    w = workloads.make(args.workload, args.seed)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"threads {json.dumps(threads)}")
    print(f"params {json.dumps(spec['params'])}")
    print(f"why: {spec['why']}")
    print(f"layers: {spec['layers']}")
    if args.trace == 0:
        phase, values = run_untraced(w, args.seconds, import_s)
        rows = [(n, u, on_line, f"(n={len(phase.step_s)} steps)" if "step_p" in n else "")
                for n, u, _b, on_line in END_TO_END]
    else:
        trace_path = os.path.join(OUT_DIR, f"{args.workload}.trace.json")
        phase, values = run_traced(w, args.seconds, trace_path)
        print(f"trace {os.path.relpath(trace_path, ROOT)}  (traced {len(phase.step_s)} steps)")
        rows = [(n, u, on_line, f"moves {moves} on {wl}")
                for n, u, _b, moves, wl, on_line in PER_LAYER]
    for name, unit, _on_line, note in rows:
        print(f"  {name:<40} {_fmt(values.get(name)):>24} {unit:<9} {note}")
    for err in phase.errors:
        print(f"check failed: {err}")
    correct = not phase.errors
    phase.failed = min(phase.failed, phase.attempted)
    print(f"checks {'passed' if correct else 'FAILED'}: {phase.attempted} steps attempted, "
          f"{phase.failed} failed")
    result = {
        "correct": correct,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {n: {"value": values.get(n), "unit": u}
                    for n, u, on_line, _ in rows if on_line},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

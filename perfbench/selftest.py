"""Self-test: tracing changes no result.

For every workload, eager and with static memory, a few units run
untraced and then traced from fresh replicas of the same seed; the losses,
the cluster's final weights and the arena accounting must be identical,
and the traced run must pass its span accounting checks.  It also checks that
``BENCHMARK.json`` matches ``perfbench/spec.py``.  Run it with
``python3 perfbench/run.py --selftest``.
"""

from __future__ import annotations

import json
import os

from perfbench.spec import WORKLOADS, benchmark_json
from perfbench.tracing import SpanRecorder, layer_metrics
from perfbench.workloads import differences, make

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: units per phase: steps, fit epochs, cluster runs
UNITS = {"serial-resnet-b256": 3, "serial-alexnet-b8": 1, "cluster-alexnet-bn-p2": 1}


def selftest(seed: int = 1) -> int:
    failures = 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        if json.load(fh) != benchmark_json():
            print("BENCHMARK.json FAIL: differs from perfbench/spec.py")
            failures += 1
    for name in WORKLOADS:
        for static_memory in (False, True):
            w = make(name, seed, static_memory=static_memory)
            w.ds = w._dataset()
            plain = w.run(units=UNITS[name])
            rec = SpanRecorder()
            traced = w.run(units=UNITS[name], rec=rec)
            _, violations = layer_metrics(rec, name, plain, traced, gemm_peak=1.0)
            problems = plain.errors + traced.errors + violations[:1] + differences(plain, traced)
            mode = "planned" if static_memory else "eager"
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{name:<24} {mode:<8} {len(plain.losses):>4} losses  {status}")
            failures += bool(problems)
    print("selftest", "passed" if not failures else f"FAILED ({failures})")
    return 1 if failures else 0

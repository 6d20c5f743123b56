"""What the benchmark runs and what it reports.

Pure data, importable before NumPy (``run.py`` reads the thread pinning
from here before the first NumPy import).  ``BENCHMARK.json`` at the
repository root lists the workload names and the metrics the last output
line carries; this module adds what that file's fixed schema has no room
for: each workload's parameters, rank threads and accuracy floor, and for
each per-layer metric the end-to-end metric and workload it should move.
"""

from __future__ import annotations

#: Chance is 1/8 on every workload (8 classes).
WORKLOADS: dict[str, dict] = {
    "serial-resnet-b256": {
        "why": (
            "large im2col GEMMs in Conv2D/BatchNorm dominate (~0.5 s/step), "
            "the arena is at its largest and augmentation has a visible share"
        ),
        "layers": "nn, nn.memory and data do most of the work; optimizer and dispatch little",
        "rank_threads": 1,
        "top1_floor": 0.5,
        "params": {
            "entry": "Trainer.train_step over BatchLoader(augment='heavy', reuse_buffers=True)",
            "model": "micro_resnet", "width": 8, "num_classes": 8,
            "image_size": 16, "train_size": 2048, "test_size": 512, "noise": 0.6,
            "batch": 256, "paper_batch": 16384, "epochs": 6,
            "optimizer": "LARS", "peak_lr": 1.0, "trust_coefficient": 0.01,
            "warmup_epochs": 1, "poly_power": 2.0, "static_memory": True,
        },
    },
    "serial-alexnet-b8": {
        "why": (
            "Table-5 regime: ~6 ms steps dominated by per-layer Python dispatch, "
            "LRN, the LARS step and eager allocation; tiny GEMMs, no data layer"
        ),
        "layers": "uses nn the opposite way from serial-resnet-b256: per-call cost, not GEMM rate",
        "rank_threads": 1,
        "top1_floor": 0.5,
        "params": {
            "entry": "Trainer.fit (eager slicing path of run_proxy)",
            "model": "micro_alexnet", "norm": "lrn", "width": 8, "hidden": 64,
            "num_classes": 8, "image_size": 16, "train_size": 1024,
            "test_size": 512, "noise": 1.0, "batch": 8, "paper_batch": 512,
            "epochs": 3, "optimizer": "LARS", "peak_lr": 0.05,
            "trust_coefficient": 0.01, "warmup_epochs": 0, "poly_power": 2.0,
            "static_memory": False,
        },
    },
    "cluster-alexnet-bn-p2": {
        "why": (
            "the only workload that touches cluster and comm: overlapped ring "
            "allreduce in ~4 KiB buckets on a simulated 10GbE clock"
        ),
        "layers": "cluster (BucketedExchange), comm (iallreduce), perfmodel fidelity",
        "rank_threads": 2,
        "top1_floor": 0.5,
        "params": {
            "entry": "train_sync_sgd",
            "model": "micro_alexnet", "norm": "bn", "width": 8, "hidden": 64,
            "num_classes": 8, "image_size": 16, "train_size": 1024,
            "test_size": 512, "noise": 1.0, "batch": 64, "paper_batch": 4096,
            "epochs": 4, "optimizer": "LARS", "peak_lr": 0.4,
            "trust_coefficient": 0.01, "warmup_epochs": 1, "poly_power": 2.0,
            "world": 2, "algorithm": "ring", "overlap": True,
            "bucket_bytes": 4096, "network": "10gbe",
            "compute_s_per_example": 1e-5, "static_memory": False,
            "eval": "end only",
        },
    },
}

#: Seconds one run measures (``--seconds``): longer than the resnet
#: workload's fixed budget of 48 steps at ~0.45 s each.
RUN_SECONDS = 30

#: Share of the parent's median by which a metric may worsen.
BOUNDS = {
    "setup_s": 0.25,
    "samples_per_s": 0.25,
    "step_p90_s": 0.25,
    "test_top1": 0.1,
    "peak_rss_mb": 0.1,
}

#: Training steps run on a throw-away replica before timing starts, so lazy
#: caches fill and first-call costs land in ``setup_s``.
WARMUP_STEPS = 2
#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3

#: (name, unit, better, printed on the last output line).  Every metric is
#: printed in the report above that line; the ones left off it are
#: undefined on some workload, never vary, or spread too widely to bound.
END_TO_END = [
    ("setup_s", "s", "lower", True),
    ("samples_per_s", "1/s", "higher", True),
    ("step_p90_s", "s", "lower", True),
    ("test_top1", "fraction", "higher", True),
    ("peak_rss_mb", "MB", "lower", True),
    # On a shared 2-core host the same code runs in a fast and a ~45% slower
    # mode for stretches of 5-20 s, and a run's median step lands in either.
    # In a noisy stretch its spread over runs reached 22-34% of its median,
    # near or past the widest bound allowed, while p90 (nearly always in the
    # slow mode) and samples_per_s stayed at 10-20%.
    ("step_p50_s", "s", "lower", False),
    # spread across seeds is 30-90% of its median: too wide to bound
    ("final_train_loss", "nats", "lower", False),
    # simulated, so exact and seed-independent; undefined on serial workloads
    ("sim_step_s", "s", "lower", False),
    # 0 on a healthy run; also carried as ``failed``/``attempted``
    ("failed_step_frac", "fraction", "lower", False),
]

RESNET, ALEXNET, CLUSTER = "serial-resnet-b256", "serial-alexnet-b8", "cluster-alexnet-bn-p2"

#: Leaf layer classes of the three models, plus the loss.
LAYER_CLASSES = [
    "Conv2D", "BatchNorm", "LocalResponseNorm", "ReLU", "MaxPool2D",
    "GlobalAvgPool2D", "Dense", "Flatten", "SoftmaxCrossEntropy",
]
_LAYER_WORKLOAD = {
    "Conv2D": RESNET, "BatchNorm": RESNET, "GlobalAvgPool2D": RESNET,
    "LocalResponseNorm": ALEXNET, "Dense": ALEXNET, "Flatten": ALEXNET,
    "MaxPool2D": ALEXNET, "ReLU": RESNET, "SoftmaxCrossEntropy": ALEXNET,
}


def _layer_metrics() -> list[tuple]:
    rows = []
    for cls in LAYER_CLASSES:
        w = _LAYER_WORKLOAD[cls]
        rows += [
            (f"nn.{cls}.fwd_s", "s", "lower", "samples_per_s", w, True),
            (f"nn.{cls}.bwd_s", "s", "lower", "samples_per_s", w, True),
            (f"nn.{cls}.calls", "count", "lower", "samples_per_s", w, True),
        ]
    return rows


#: (name, unit, better, end-to-end metric it should move, workload, on the
#: last output line).  Times are wall seconds per step (self time, rank 0),
#: counts are per step.  A layer a workload does not use reads 0 there.
PER_LAYER = _layer_metrics() + [
    ("nn.Conv2D.gflops", "GFLOP/s", "higher", "samples_per_s", RESNET, True),
    ("nn.Dense.gflops", "GFLOP/s", "higher", "samples_per_s", RESNET, True),
    ("nn.gemm_peak_gflops", "GFLOP/s", "higher", "samples_per_s", RESNET, True),
    ("data.fetch_s", "s", "lower", "samples_per_s", RESNET, True),
    ("data.wait_frac", "fraction", "lower", "samples_per_s", RESNET, True),
    ("core.optimizer.step_s", "s", "lower", "samples_per_s", ALEXNET, True),
    ("core.trainer_other_s", "s", "lower", "samples_per_s", ALEXNET, True),
    ("cluster.exchange.begin_step_s", "s", "lower", "samples_per_s", CLUSTER, True),
    ("cluster.exchange.finish_step_s", "s", "lower", "samples_per_s", CLUSTER, True),
    ("cluster.rank_skew_s", "s", "lower", "step_p90_s", CLUSTER, True),
    ("cluster.buckets", "count", "lower", "sim_step_s", CLUSTER, True),
    ("comm.messages_per_step", "count", "lower", "sim_step_s", CLUSTER, True),
    ("comm.bytes_per_step", "B", "lower", "sim_step_s", CLUSTER, True),
    ("comm.iallreduce_s", "s", "lower", "samples_per_s", CLUSTER, True),
    ("comm.iallreduce.calls", "count", "lower", "samples_per_s", CLUSTER, True),
    ("comm.allreduce_s", "s", "lower", "samples_per_s", CLUSTER, True),
    ("obs.trace_overhead_frac", "fraction", "lower", "none", "all", True),
    # undefined on some workload (null there), so report-only
    ("nn.memory.arena_peak_bytes", "B", "lower", "peak_rss_mb", RESNET, False),
    ("nn.memory.pool_bytes", "B", "lower", "peak_rss_mb", RESNET, False),
    ("nn.memory.bytes_allocated_per_step", "B", "lower", "step_p90_s", RESNET, False),
    ("cluster.fwd_s", "s", "lower", "samples_per_s", CLUSTER, False),
    ("cluster.bwd_s", "s", "lower", "samples_per_s", CLUSTER, False),
    ("cluster.exposed_comm_s", "s", "lower", "sim_step_s", CLUSTER, False),
    ("cluster.comm_busy_s", "s", "lower", "sim_step_s", CLUSTER, False),
    ("cluster.overlap_efficiency", "fraction", "higher", "sim_step_s", CLUSTER, False),
    ("perfmodel.sim_over_predicted", "ratio", "lower", "sim_step_s", CLUSTER, False),
]


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` payload this spec implies."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w["why"]} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": BOUNDS[n]}
            for n, u, b, on_line in END_TO_END if on_line
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b}
            for n, u, b, _moves, _w, on_line in PER_LAYER if on_line
        ],
    }


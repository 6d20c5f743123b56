"""Span recording from outside the program, and the per-layer breakdown.

The traced run wraps the public entry points of each layer -- leaf module
classes and the loss (``repro.nn``), the optimizer (``repro.core``), batch
iteration (``repro.data``), ``BucketedExchange`` (``repro.cluster``) and the
``Communicator`` collectives (``repro.comm``) -- with recorders that live
here.  Nothing under ``src/`` changes.  A span holds name, start, end,
parent, rank and step id; spans stay in per-thread lists in memory and are
written out once, as Chrome trace-event JSON, when the run ends.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from contextlib import contextmanager

_now = time.perf_counter_ns

# span record layout (a list, filled in place: cheaper than an object)
NAME, START, END, PARENT, STEP, PAYLOAD = range(6)


class _ThreadSpans:
    __slots__ = ("rank", "spans", "stack", "step")

    def __init__(self, rank: int):
        self.rank = rank
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.step = 0


def thread_rank() -> int:
    """Rank of the calling thread: ``run_cluster`` names rank threads
    ``rank-N``; any other thread is a serial run's rank 0."""
    name = threading.current_thread().name
    return int(name[5:]) if name.startswith("rank-") else 0


class SpanRecorder:
    """Collects spans per thread."""

    def __init__(self):
        self.origin_ns = _now()
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads: list[_ThreadSpans] = []

    def thread(self) -> _ThreadSpans:
        t = getattr(self._local, "t", None)
        if t is None:
            t = _ThreadSpans(thread_rank())
            self._local.t = t
            with self._lock:
                self.threads.append(t)
        return t

    def wrap(self, fn, name: str, payload=None, new_step: bool = False):
        """``fn`` recording one span per call.  ``payload(*args)`` (optional)
        stores call details with the span; ``new_step`` advances the
        thread's step id first.  Arguments pass through as given, keywords
        (``out=``) included."""
        thread = self.thread  # bound once; per-call cost is the body below

        def wrapped(*args, **kwargs):
            t = thread()
            if new_step:
                t.step += 1
            stack = t.stack
            rec = [name, 0, 0, stack[-1] if stack else -1, t.step,
                   payload(*args) if payload is not None else None]
            stack.append(len(t.spans))
            t.spans.append(rec)
            rec[START] = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = _now()
                stack.pop()

        return wrapped

    def rank_spans(self, rank: int) -> list[list]:
        """Every span recorded on ``rank``'s threads, as one parent-indexed
        list (threads of successive cluster runs are concatenated)."""
        out: list[list] = []
        for t in self.threads:
            if t.rank != rank:
                continue
            base = len(out)
            for rec in t.spans:
                rec = list(rec)
                if rec[PARENT] >= 0:
                    rec[PARENT] += base
                out.append(rec)
        return out

    def to_chrome(self) -> dict:
        """Chrome trace-event object: one ``X`` event per span, one track
        per rank."""
        events = []
        ranks = sorted({t.rank for t in self.threads})
        for r in ranks:
            events.append({"ph": "M", "pid": 0, "tid": r, "name": "thread_name",
                           "args": {"name": f"rank-{r}"}})
        for r in ranks:
            spans = self.rank_spans(r)
            for rec in spans:
                parent = spans[rec[PARENT]][NAME] if rec[PARENT] >= 0 else None
                events.append({
                    "ph": "X", "pid": 0, "tid": r, "name": rec[NAME],
                    "cat": rec[NAME].split(".", 1)[0],
                    "ts": (rec[START] - self.origin_ns) / 1e3,
                    "dur": (rec[END] - rec[START]) / 1e3,
                    "args": {"step": rec[STEP], "parent": parent},
                })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def export_chrome(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_chrome(), fh, separators=(",", ":"))
            fh.write("\n")


# ---------------------------------------------------------------------------
# Installing the wrappers
# ---------------------------------------------------------------------------

def leaf_classes(model) -> list[type]:
    """Classes of the modules with no submodules, found by recursing
    through the containers (``Sequential``, ``Residual``)."""
    seen: list[type] = []
    for m in model.modules():
        if next(m.children(), None) is None and type(m) not in seen:
            seen.append(type(m))
    return seen


def _first_shape(_mod, x, *_rest, **_kw):
    return (_mod, x.shape)


@contextmanager
def patched(targets: list[tuple[type, str, str, object]]):
    """Replace ``cls.attr`` by a recording wrapper for the duration.

    Class-level, so every instance is covered, including the replicas a
    simulated cluster builds inside its rank threads and the gradient-ready
    hooks that capture ``type(module).backward``.
    """
    saved = []
    try:
        for cls, attr, span_name, wrapper_of in targets:
            saved.append((cls, attr, cls.__dict__.get(attr)))
            setattr(cls, attr, wrapper_of(getattr(cls, attr), span_name))
        yield
    finally:
        for cls, attr, original in reversed(saved):
            if original is None:
                delattr(cls, attr)
            else:
                setattr(cls, attr, original)


def layer_targets(rec: SpanRecorder, classes: list[type]) -> list[tuple]:
    """Wrappers for every leaf class's forward/backward and the loss's.
    Leaf forwards keep (module, input shape) to count flops afterwards."""
    from repro.nn.losses import SoftmaxCrossEntropy

    def fwd(fn, span_name):
        return rec.wrap(fn, span_name, payload=_first_shape)

    def plain(fn, span_name):
        return rec.wrap(fn, span_name)

    targets = []
    for cls in classes:
        targets.append((cls, "forward", f"nn.{cls.__name__}.fwd", fwd))
        targets.append((cls, "backward", f"nn.{cls.__name__}.bwd", plain))
    targets.append((SoftmaxCrossEntropy, "forward", "nn.SoftmaxCrossEntropy.fwd", plain))
    targets.append((SoftmaxCrossEntropy, "backward", "nn.SoftmaxCrossEntropy.bwd", plain))
    return targets


def cluster_targets(rec: SpanRecorder) -> list[tuple]:
    """Wrappers for the exchange's step lifecycle and the collectives."""
    from repro.cluster.bucketing import BucketedExchange
    from repro.comm import Communicator

    def begin(fn, span_name):  # step ids count begin_step calls per rank
        return rec.wrap(fn, span_name, new_step=True)

    def plain(fn, span_name):
        return rec.wrap(fn, span_name)

    return [
        (BucketedExchange, "begin_step", "cluster.exchange.begin_step", begin),
        (BucketedExchange, "finish_step", "cluster.exchange.finish_step", plain),
        (Communicator, "iallreduce", "comm.iallreduce", plain),
        (Communicator, "allreduce", "comm.allreduce", plain),
    ]


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def add_step_spans(spans: list[list], ends_ns: list[int], name: str = "step") -> None:
    """Insert synthetic step spans (``ends_ns[k-1]``, ``ends_ns[k]``] and
    re-parent the top-level spans that end inside each.

    Used where no single call delimits a step (the cluster: a step is the
    interval between rank 0's successive ``optimizer.step`` returns).
    """
    bounds = list(zip(ends_ns, ends_ns[1:]))
    top = sorted((rec[END], i) for i, rec in enumerate(spans) if rec[PARENT] < 0)
    j = 0
    for k, (lo, hi) in enumerate(bounds):
        idx = len(spans)
        spans.append([name, lo, hi, -1, k + 1, None])
        while j < len(top) and top[j][0] <= lo:
            j += 1
        while j < len(top) and top[j][0] <= hi:
            spans[top[j][1]][PARENT] = idx
            j += 1


def analyze(spans: list[list], step_name: str = "step") -> dict:
    """Per-step self-time accounting over one rank's spans.

    Checks, per step, that every span lies inside its parent and that
    siblings do not overlap.  Those two make the self times a partition of
    the step: the time the spans cover plus the uncovered remainder
    (``core.trainer_other_s``, the step span's own self time) equals the
    step's wall time, and the remainder is checked to be non-negative.
    Returns totals over all steps keyed by span name, the number of steps
    and the violations found.
    """
    children: dict[int, list[int]] = {}
    for i, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            children.setdefault(rec[PARENT], []).append(i)
    steps = [i for i, rec in enumerate(spans) if rec[NAME] == step_name]
    self_ns: dict[str, int] = {}
    incl_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    flops: dict[str, float] = {}
    flop_cache: dict[tuple, int] = {}
    violations: list[str] = []
    step_ns = 0
    other_ns = 0
    for s in steps:
        pending = [s]
        while pending:
            i = pending.pop()
            rec = spans[i]
            kids = sorted(children.get(i, ()), key=lambda c: spans[c][START])
            prev_end = rec[START]
            kid_ns = 0
            for c in kids:
                kr = spans[c]
                if kr[START] < prev_end or kr[END] > rec[END] or kr[END] < kr[START]:
                    violations.append(f"{kr[NAME]} escapes {rec[NAME]} or overlaps a sibling")
                prev_end = max(prev_end, kr[END])
                kid_ns += kr[END] - kr[START]
            own = rec[END] - rec[START] - kid_ns
            if i == s:
                other = own
            else:
                name = rec[NAME]
                self_ns[name] = self_ns.get(name, 0) + own
                incl_ns[name] = incl_ns.get(name, 0) + rec[END] - rec[START]
                calls[name] = calls.get(name, 0) + 1
                if rec[PAYLOAD] is not None:
                    mod, shape = rec[PAYLOAD]
                    key = (id(mod), shape)
                    if key not in flop_cache:
                        flop_cache[key] = mod.flops_per_example(tuple(shape[1:])) * shape[0]
                    flops[name] = flops.get(name, 0) + flop_cache[key]
            pending.extend(kids)
        if other < 0:
            violations.append(f"step {spans[s][STEP]}: children cover more than the step")
        step_ns += spans[s][END] - spans[s][START]
        other_ns += other
    return {
        "steps": len(steps), "step_ns": step_ns, "other_ns": other_ns,
        "self_ns": self_ns, "incl_ns": incl_ns, "calls": calls, "flops": flops,
        "violations": violations,
    }


def rank_skew_s(recorder: SpanRecorder, span_name: str) -> float:
    """Mean over steps of the spread (max - min) across ranks of the wall
    time each rank entered ``span_name``; 0 on one rank.  A rank's k-th
    thread belongs to the k-th cluster run."""
    entered: dict[tuple[int, int], list[int]] = {}
    runs: dict[int, int] = {}
    for t in recorder.threads:
        run = runs[t.rank] = runs.get(t.rank, -1) + 1
        for rec in t.spans:
            if rec[NAME] == span_name:
                entered.setdefault((run, rec[STEP]), []).append(rec[START])
    spreads = [max(v) - min(v) for v in entered.values() if len(v) > 1]
    return sum(spreads) / len(spreads) * 1e-9 if spreads else 0.0


def _merge(into: dict, part: dict) -> None:
    for key, value in part.items():
        if isinstance(value, list):
            into.setdefault(key, []).extend(value)
        elif isinstance(value, dict):
            bucket = into.setdefault(key, {})
            for k, v in value.items():
                bucket[k] = bucket.get(k, 0) + v
        else:
            into[key] = into.get(key, 0) + value


def layer_metrics(rec: SpanRecorder, workload: str, plain, traced, gemm_peak: float):
    """Every per-layer metric of ``spec.PER_LAYER`` (``None`` = undefined)
    from rank 0's spans, plus the accounting violations found.

    Times are self times per step (totals over the traced steps divided by
    their number), so the layer times and ``core.trainer_other_s`` add up to
    the mean step time.  ``cluster.fwd_s``/``bwd_s`` are the replica's
    inclusive forward/backward times.
    """
    from perfbench.spec import LAYER_CLASSES

    cluster = workload.startswith("cluster")
    acc: dict = {}
    for t in rec.threads:
        if t.rank != 0:
            continue
        spans = [list(r) for r in t.spans]
        if cluster:
            add_step_spans(spans, [r[END] for r in spans
                                   if r[NAME] == "core.optimizer.step" and r[PARENT] < 0])
        _merge(acc, analyze(spans))
    n = acc.get("steps", 0)
    if n == 0:
        return {}, ["no traced steps"]
    self_ns, calls, flops = acc["self_ns"], acc["calls"], acc["flops"]

    def per_step(span_name: str) -> float:
        return self_ns.get(span_name, 0) / n * 1e-9

    def gflops(span_name: str):
        busy = self_ns.get(span_name, 0)
        return flops.get(span_name, 0) / busy if busy else None  # flop/ns = GFLOP/s

    m: dict = {}
    for cls in LAYER_CLASSES:
        m[f"nn.{cls}.fwd_s"] = per_step(f"nn.{cls}.fwd")
        m[f"nn.{cls}.bwd_s"] = per_step(f"nn.{cls}.bwd")
        m[f"nn.{cls}.calls"] = calls.get(f"nn.{cls}.fwd", 0) / n
    m["nn.Conv2D.gflops"] = gflops("nn.Conv2D.fwd")
    m["nn.Dense.gflops"] = gflops("nn.Dense.fwd")
    m["nn.gemm_peak_gflops"] = gemm_peak
    m["data.fetch_s"] = per_step("data.fetch")
    m["data.wait_frac"] = self_ns.get("data.fetch", 0) / acc["step_ns"]
    m["core.optimizer.step_s"] = per_step("core.optimizer.step")
    m["core.trainer_other_s"] = acc["other_ns"] / n * 1e-9
    m["cluster.exchange.begin_step_s"] = per_step("cluster.exchange.begin_step")
    m["cluster.exchange.finish_step_s"] = per_step("cluster.exchange.finish_step")
    m["cluster.rank_skew_s"] = rank_skew_s(rec, "cluster.exchange.finish_step")
    m["comm.iallreduce_s"] = per_step("comm.iallreduce")
    m["comm.iallreduce.calls"] = calls.get("comm.iallreduce", 0) / n
    m["comm.allreduce_s"] = per_step("comm.allreduce")
    for key in ("cluster.buckets", "comm.messages_per_step", "comm.bytes_per_step"):
        m[key] = traced.info.get(key, 0)  # no cluster: nothing sent
    for key in ("nn.memory.arena_peak_bytes", "nn.memory.pool_bytes",
                "nn.memory.bytes_allocated_per_step", "cluster.exposed_comm_s",
                "cluster.comm_busy_s", "cluster.overlap_efficiency",
                "perfmodel.sim_over_predicted"):
        m[key] = traced.info.get(key)
    incl = acc["incl_ns"]
    m["cluster.fwd_s"] = incl.get("cluster.fwd", 0) / n * 1e-9 if cluster else None
    m["cluster.bwd_s"] = incl.get("cluster.bwd", 0) / n * 1e-9 if cluster else None
    m["obs.trace_overhead_frac"] = (
        statistics.median(traced.step_s) / statistics.median(plain.step_s) - 1.0
    )
    return m, acc["violations"]

"""End-to-end benchmark of the bounded-simulation engine.

Usage, from the repository root::

    python3 perfbench/run.py --workload stream_mixed_1k --seed 1 --seconds 45 --trace 0

Runs one workload (see ``perfbench/workloads.py`` and ``perfbench/README.md``)
in this process: builds its inputs from ``--seed``, then runs segments -- each
a few timed set-ups of fresh graph objects followed by the workload's fixed
steps -- for ``--seconds`` seconds, checks the answers and prints one JSON
object as the last line of standard output.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` patches spans around each layer's public
functions, runs a fixed number of segments instead of a fixed time (so its
counts repeat exactly) and reports the per-layer metrics.  A human-readable
report goes to standard error; the traced run also writes its spans under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------


def _proc_kb(pid, path: str, fields) -> Dict[str, int]:
    values = {}
    with open(f"/proc/{pid}/{path}") as handle:
        for line in handle:
            key, _, rest = line.partition(":")
            if key in fields:
                values[key] = int(rest.split()[0])
    return values


def reset_peak_rss() -> None:
    """Restart this process's high-water mark at its current RSS."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass  # the peak then also covers input generation


def peak_rss_mb(pid="self") -> float:
    return _proc_kb(pid, "status", ("VmHWM",))["VmHWM"] / 1024.0


def private_mb(pid) -> float:
    """Resident memory the process does not share (copy-on-write pages it wrote)."""
    kb = _proc_kb(pid, "smaps_rollup", ("Private_Clean", "Private_Dirty"))
    return sum(kb.values()) / 1024.0


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------


class Loop:
    """Records what each step of the closed loop cost.

    ``session_start``/``session_done`` bracket each engine session a segment
    uses, to collect its counter deltas; ``sample_workers`` reads the pool
    workers' memory before a session shuts its pool down.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies: List[float] = []
        self.queries = 0
        self.counters: Dict[str, float] = {}
        #: Summed private memory of the pool workers, one entry per sample.
        self.worker_private_mb: List[float] = []
        self.worker_peak_mb = 0.0
        self._baseline: Dict[str, float] = {}

    @contextmanager
    def step(self, *, queries: int):
        with self.tracer.span("step") if self.tracer else nullcontext():
            start = time.perf_counter()
            yield
            self.latencies.append(time.perf_counter() - start)
        self.queries += queries

    @staticmethod
    def _flat_stats(handle) -> Dict[str, float]:
        stats = handle.stats()
        pool = stats["pool"] or {}
        return {
            "cache_hits": stats["cache_hits"],
            "cache_misses": stats["cache_misses"],
            "cache_evictions": stats["cache_evictions"],
            "workers_spawned": pool.get("workers_spawned", 0),
            "serial_fallbacks": pool.get("serial_fallbacks", 0),
            "retries": stats["reliability"].get("retries", 0),
        }

    def session_start(self, handle) -> None:
        self._baseline = self._flat_stats(handle)

    def session_done(self, handle) -> None:
        for key, value in self._flat_stats(handle).items():
            self.counters[key] = self.counters.get(key, 0) + value - self._baseline.get(key, 0)

    def sample_workers(self) -> None:
        """Read the live pool workers' memory (after a step, before the pool shuts down)."""
        private = 0.0
        for child in multiprocessing.active_children():
            try:
                private += private_mb(child.pid)
                self.worker_peak_mb = max(self.worker_peak_mb, peak_rss_mb(child.pid))
            except OSError:
                continue  # the worker exited between listing and reading
        self.worker_private_mb.append(private)


# ----------------------------------------------------------------------
# machine speed
# ----------------------------------------------------------------------

#: Timings are reported as if the machine ran ``reference_loop`` in exactly
#: this many seconds (see README.md, "Why the figures hold still").
REFERENCE_S = 0.1


def reference_loop() -> float:
    """Seconds this machine takes, right now, for a fixed pure-Python loop.

    The loop runs as five slices of 200,000 iterations; the reading is five
    times the median slice, so a stall in one slice does not count.
    """
    slices = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        slices.append(time.perf_counter() - start)
    return 5 * statistics.median(slices)


def _p90(values: List[float]) -> float:
    return statistics.quantiles(values, n=10)[-1]


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------


def run(workload_name: str, seed: int, seconds: float, trace: bool, *,
        scale: str = "full", corrupt: bool = False) -> dict:
    """Run one workload and return the result object (metrics included).

    The run is a sequence of segments (see ``workloads.py``): each times
    ``setups_per_segment`` set-ups on fresh graph objects and then takes the
    workload's fixed steps on the last one's state.  Untraced runs start
    segments while one more still fits in ``seconds`` (at least one); traced
    runs take exactly ``trace_segments``.
    """
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](seed, scale)
    tracer = Tracer() if trace else None
    loop = Loop(tracer)
    setup_times: List[float] = []
    reference_times: List[float] = []
    # Timings scaled to the reference speed, segment by segment.
    setup_scaled: List[float] = []
    steps_scaled: List[float] = []
    setup_layers: List[Dict[str, float]] = []
    loop_layers: Dict[str, float] = defaultdict(float)
    parent_peak = None
    errors = 0
    gc.collect()
    reset_peak_rss()
    if tracer:
        tracer.install()
    try:
        start = time.perf_counter()
        segments = 0
        while True:
            elapsed = time.perf_counter() - start
            if trace and segments == workload.trace_segments:
                break
            if not trace and segments and elapsed * (segments + 1) / segments > seconds:
                break
            if workload.exhausted():
                break
            state = None
            first_setup, first_step = len(setup_times), len(loop.latencies)
            segment_refs = []
            try:
                for _ in range(workload.setups_per_segment):
                    if state is not None:
                        workload.close(state)
                        state = None
                    graph = workload.fresh_graph()
                    gc.collect()
                    segment_refs.append(reference_loop())
                    before = tracer.snapshot() if tracer else {}
                    with tracer.span("setup") if tracer else nullcontext():
                        began = time.perf_counter()
                        state = workload.set_up(graph)
                        setup_times.append(time.perf_counter() - began)
                    if tracer:
                        after = tracer.snapshot()
                        setup_layers.append({k: after[k] - before.get(k, 0) for k in after})
                    del graph
                before = tracer.snapshot() if tracer else {}
                workload.run_segment(state, loop)
                segment_refs.append(reference_loop())
                reference_times.extend(segment_refs)
                scale_to_reference = REFERENCE_S / statistics.median(segment_refs)
                setup_scaled.extend(t * scale_to_reference for t in setup_times[first_setup:])
                steps_scaled.extend(t * scale_to_reference for t in loop.latencies[first_step:])
                if tracer:
                    for key, value in tracer.snapshot().items():
                        loop_layers[key] += value - before.get(key, 0)
                if parent_peak is None:
                    # The first segment's set-ups and steps: the same work in
                    # every run, however fast the machine is.
                    parent_peak = peak_rss_mb()
            except Exception as error:  # the run stops; the answers so far are checked
                errors += 1
                print(f"request failed: {error!r}", file=sys.stderr)
                break
            finally:
                if state is not None:
                    workload.close(state)
            segments += 1
    finally:
        if tracer:
            tracer.uninstall()
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5)

    checked, wrong = workload.check(corrupt)
    attempted = len(loop.latencies) + errors
    failed = wrong + errors
    success_rate = (checked - wrong) / (checked + errors) if checked + errors else 0.0
    # Typical pool footprint: a worker's private memory rises and falls with
    # the task it is running, so one reading is not representative.
    worker_mb = statistics.median(loop.worker_private_mb) if loop.worker_private_mb else 0.0
    if parent_peak is None:
        parent_peak = peak_rss_mb()
    # The machine's speed drifts by a third over minutes: every timing is
    # scaled by the reference-loop time read beside it, in its segment.
    busy = sum(steps_scaled)
    end_to_end = {
        "setup_s": (statistics.median(setup_scaled) if setup_scaled else 0.0, "s"),
        "step_p50_ms": (statistics.median(steps_scaled) * 1e3 if steps_scaled else 0.0, "ms"),
        "queries_per_s": (loop.queries / busy if busy else 0.0, "1/s"),
        "peak_rss_mb": (parent_peak + worker_mb, "MB"),
        "success_rate": (success_rate, "ratio"),
    }
    report = {
        "workload": workload_name,
        "seed": seed,
        "trace": int(trace),
        "segments": segments,
        "steps": len(loop.latencies),
        "queries": loop.queries,
        "reference_loop_s": reference_times,
        "raw_setup_s": statistics.median(setup_times) if setup_times else 0.0,
        "raw_step_p50_ms": statistics.median(loop.latencies) * 1e3 if loop.latencies else 0.0,
        "raw_queries_per_s": loop.queries / sum(loop.latencies) if loop.latencies else 0.0,
        "setup_samples_s": setup_times,
        "check": workload.check_note,
        "parent_peak_rss_mb": parent_peak,
        "worker_private_mb": loop.worker_private_mb,
    }
    if len(steps_scaled) >= 100:
        report["step_p90_ms"] = _p90(steps_scaled) * 1e3
    # The stream's split into update and read, raw.
    for label in ("update_ms", "read_ms"):
        samples = getattr(workload, label, None)
        if samples:
            report[f"raw_{label[:-3]}_p50_ms"] = statistics.median(samples)
            if len(samples) >= 100:
                report[f"raw_{label[:-3]}_p90_ms"] = _p90(samples)
    if trace:
        metrics = per_layer_metrics(setup_layers, loop_layers, loop, end_to_end, tracer)
        tracer.write(OUT_DIR, f"{workload_name}-seed{seed}")
    else:
        metrics = end_to_end
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "report": report,
    }


def per_layer_metrics(setup_layers, loop_layers, loop, end_to_end, tracer) -> dict:
    """The traced run's per-layer metrics (see README.md for the layer map)."""

    def per_setup(key: str) -> float:
        return statistics.median(layer.get(key, 0.0) for layer in setup_layers)

    def total(key: str) -> float:
        return loop_layers.get(key, 0.0)

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    counters = loop.counters
    cache_lookups = counters.get("cache_hits", 0) + counters.get("cache_misses", 0)
    requests = total("distance.ball_requests")
    computed = total("distance.balls_computed")
    return {
        "graph.compile_s": (per_setup("graph.compile_s"), "s"),
        "graph.candidate_bits_s": (total("graph.candidate_bits_s"), "s"),
        "graph.decode_s": (total("graph.decode_s"), "s"),
        "graph.decoded_nodes": (total("graph.decoded_nodes"), "count"),
        "graph.patch_s": (total("graph.patch_s"), "s"),
        "graph.patches": (total("graph.patches"), "count"),
        "api.parse_s": (total("api.parse_s"), "s"),
        "api.view_s": (total("api.view_s"), "s"),
        "planner.plan_s": (total("planner.plan_s"), "s"),
        "planner.plans": (total("planner.plans"), "count"),
        "planner.ordered_share": (share(total("planner.ordered_plans"), total("planner.plans")), "ratio"),
        "cache.result_hit_rate": (share(counters.get("cache_hits", 0), cache_lookups), "ratio"),
        "cache.evictions": (counters.get("cache_evictions", 0), "count"),
        "fixpoint.s": (total("fixpoint_s"), "s"),
        "fixpoint.calls": (total("fixpoint.calls"), "count"),
        "fixpoint.removed": (total("fixpoint.removed"), "count"),
        "distance.ball_requests": (requests, "count"),
        "distance.balls_computed": (computed, "count"),
        "distance.ball_s": (total("distance.ball_s"), "s"),
        "distance.ball_hit_rate": (max(0.0, 1.0 - share(computed, requests)) if requests else 0.0, "ratio"),
        "pool.run_s": (total("pool.run_s"), "s"),
        "pool.tasks": (total("pool.tasks"), "count"),
        "pool.workers_spawned": (counters.get("workers_spawned", 0), "count"),
        "pool.retries": (counters.get("retries", 0), "count"),
        "pool.serial_fallbacks": (counters.get("serial_fallbacks", 0), "count"),
        "pool.worker_peak_rss_mb": (loop.worker_peak_mb, "MB"),
        "incremental.apply_s": (total("incremental.apply_s"), "s"),
        "incremental.updates": (total("incremental.updates"), "count"),
        "incremental.aff1_pairs": (total("incremental.aff1_pairs"), "count"),
        "incremental.aff2_size": (total("incremental.aff2_size"), "count"),
        "incremental.store_repair_s": (total("incremental.store_repair_s"), "s"),
        "incremental.matrix_refresh_s": (per_setup("incremental.matrix_refresh_s"), "s"),
        "incremental.matrix_refreshes": (
            per_setup("incremental.matrix_refresh.calls") + total("incremental.matrix_refresh.calls"),
            "count",
        ),
        "incremental.store_convert_s": (per_setup("incremental.store_convert_s"), "s"),
        "trace.setup_s": (end_to_end["setup_s"][0], "s"),
        "trace.step_p50_ms": (end_to_end["step_p50_ms"][0], "ms"),
        "trace.spans": (len(tracer.spans), "count"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy sizes for the self-test")
    parser.add_argument("--corrupt", action="store_true",
                        help="corrupt one answer before checking (self-test)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 scale=args.scale, corrupt=args.corrupt)
    report = result.pop("report")
    print(json.dumps(report, indent=1), file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

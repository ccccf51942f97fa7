"""Spans and counters around the calls into each layer of ``repro``.

The traced run installs wrappers by replacing module and class attributes of
the package for the duration of the run (:meth:`Tracer.install` /
:meth:`Tracer.uninstall`); no file of the package changes.  Every wrapped
call records one span ``(id, parent id, request id, name, start ns, end ns)``
in memory, plus whatever counts its hook derives from the arguments and the
result.  :meth:`Tracer.write` dumps the spans and a per-name summary (count,
inclusive and self time) when the run ends.

Functions the engine imported by name are patched in the importing module
(``repro.engine.session.plan_query``), because that is where the call looks
them up.  Pool workers inherit the wrappers when they fork, but their spans
die with them; the pool layer is measured at ``WorkerPool.run_units`` in the
parent and through ``stats()["pool"]``.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

Hook = Callable[["Tracer", tuple, object], None]


def _count(name: str, measure: Callable[[tuple, object], float]) -> Hook:
    def hook(tracer: "Tracer", args: tuple, result: object) -> None:
        tracer.counts[name] += measure(args, result)

    return hook


def _plan_hook(tracer: "Tracer", args: tuple, plan) -> None:
    tracer.counts["planner.plans"] += 1
    if plan.order_digest != "seed":
        tracer.counts["planner.ordered_plans"] += 1


def _apply_hook(tracer: "Tracer", args: tuple, area) -> None:
    tracer.counts["incremental.updates"] += len(args[1])
    tracer.counts["incremental.aff1_pairs"] += len(area.distance_changes)
    tracer.counts["incremental.aff2_size"] += len(area.removed_matches) + len(
        area.added_matches
    )


def _ball_nodes_hook(tracer: "Tracer", args: tuple, ball) -> None:
    # ``None`` means the sparse walk gave up past its cutoff; the dense
    # ``ball_bits`` call that follows is the one that delivers the ball.
    if ball is not None:
        tracer.counts["distance.balls_computed"] += 1


def _targets() -> List[Tuple[object, str, str, bool, Optional[Hook]]]:
    """``(owner, attribute, span name, timed, hook)`` for every traced call.

    Untimed entries are only counted: the ball-memo lookups run once per
    candidate and a span each would swamp the spans that matter.
    """
    import repro.api.dsl as dsl
    import repro.engine.session as session
    import repro.matching.incremental as incremental
    from repro.api.results import ResultView
    from repro.distance.compiled import CompiledDistanceMatrix, FlatBFSKernel
    from repro.distance.matrix import DistanceMatrix, InternedDistanceStore
    from repro.engine.parallel import WorkerPool
    from repro.graph.compiled import CompiledGraph
    from repro.matching.incremental import IncrementalMatcher

    request = _count("distance.ball_requests", lambda args, result: 1)
    return [
        (CompiledGraph, "from_graph", "graph.compile", True, None),
        (CompiledGraph, "candidate_bits", "graph.candidate_bits", True, None),
        (
            CompiledGraph,
            "decode",
            "graph.decode",
            True,
            _count("graph.decoded_nodes", lambda args, result: len(result)),
        ),
        (
            CompiledGraph,
            "patch_edge_insert",
            "graph.patch",
            True,
            _count("graph.patches", lambda args, result: 1),
        ),
        (
            CompiledGraph,
            "patch_edge_delete",
            "graph.patch",
            True,
            _count("graph.patches", lambda args, result: 1),
        ),
        (dsl, "parse_query", "api.parse", True, None),
        (ResultView, "to_mapping", "api.view", True, None),
        (session, "plan_query", "planner.plan", True, _plan_hook),
        (
            session,
            "refine_bits_to_fixpoint",
            "fixpoint",
            True,
            _count("fixpoint.removed", lambda args, result: len(result)),
        ),
        (
            incremental,
            "refine_bits_to_fixpoint",
            "fixpoint",
            True,
            _count("fixpoint.removed", lambda args, result: len(result)),
        ),
        (CompiledDistanceMatrix, "descendants_compact", "distance.request", False, request),
        (CompiledDistanceMatrix, "descendants_within_bits", "distance.request", False, request),
        (CompiledDistanceMatrix, "ancestors_within_bits", "distance.request", False, request),
        (FlatBFSKernel, "ball_nodes", "distance.ball", True, _ball_nodes_hook),
        (
            FlatBFSKernel,
            "ball_bits",
            "distance.ball",
            True,
            _count("distance.balls_computed", lambda args, result: 1),
        ),
        (
            WorkerPool,
            "run_units",
            "pool.run",
            True,
            _count("pool.tasks", lambda args, result: len(args[1])),
        ),
        (IncrementalMatcher, "apply", "incremental.apply", True, _apply_hook),
        (incremental, "update_store_insert", "incremental.store_repair", True, None),
        (incremental, "update_store_delete", "incremental.store_repair", True, None),
        (DistanceMatrix, "refresh", "incremental.matrix_refresh", True, None),
        (InternedDistanceStore, "from_matrix", "incremental.store_convert", True, None),
    ]


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, int, str, int, int]] = []
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.request = 0
        self._stack: List[int] = [0]
        self._next_id = 1
        self._saved: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _timed(self, name: str, func: Callable, hook: Optional[Hook]) -> Callable:
        clock = time.perf_counter_ns
        stack = self._stack
        spans = self.spans
        seconds = self.seconds
        calls = self.calls

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, self.request, name, start, end))
                seconds[name] += (end - start) / 1e9
                calls[name] += 1
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def _counted(self, name: str, func: Callable, hook: Hook) -> Callable:
        calls = self.calls

        def counted(*args, **kwargs):
            result = func(*args, **kwargs)
            calls[name] += 1
            hook(self, args, result)
            return result

        return counted

    @contextmanager
    def span(self, name: str):
        """A benchmark-side root span (one set-up or one loop step)."""
        self.request += 1
        span_id = self._next_id
        self._next_id += 1
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((span_id, 0, self.request, name, start, end))

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        """Replace every traced attribute with its wrapper."""
        for owner, attr, name, timed, hook in _targets():
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            is_classmethod = isinstance(raw, classmethod)
            func = raw.__func__ if is_classmethod else raw
            wrapped = self._timed(name, func, hook) if timed else self._counted(name, func, hook)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute (idempotent)."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- reading --------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """Flat copy of every time (``<name>_s``), call and count so far."""
        flat: Dict[str, float] = {f"{k}_s": v for k, v in self.seconds.items()}
        flat.update({f"{k}.calls": v for k, v in self.calls.items()})
        flat.update(self.counts)
        return flat

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the time its direct children
        cover (children never overlap: one thread, strictly nested calls).
        """
        child_ns: Dict[int, int] = defaultdict(int)
        for _, parent, _, _, start, end in self.spans:
            child_ns[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for span_id, _, _, name, start, end in self.spans:
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - child_ns.get(span_id, 0)) / 1e9
        return out

    def write(self, directory: str, stem: str) -> None:
        """Write ``<stem>-spans.jsonl`` and ``<stem>-summary.json``."""
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, f"{stem}-spans.jsonl"), "w") as handle:
            for span_id, parent, request, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "request": request,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                        }
                    )
                    + "\n"
                )
        with open(os.path.join(directory, f"{stem}-summary.json"), "w") as handle:
            json.dump(self.summary(), handle, indent=1, sort_keys=True)

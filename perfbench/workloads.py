"""The benchmark workloads: inputs, set-up, one segment of the loop, check.

Every workload builds all of its inputs from the seed in ``__init__``, before
any timer starts, and keeps the data graph as a pickle so each set-up can
start from a fresh :class:`~repro.graph.datagraph.DataGraph` object
(``compile_graph`` caches one snapshot per graph object).

A run is a sequence of *segments*.  Each segment sets up fresh state on a
fresh graph object and then takes a fixed number of steps, so every segment
does the same amount of work and the run's set-up samples are spread through
it, beside the steps.  One client issues requests in a closed loop: the next request goes out
when the previous answer has been consumed.  Answers are reduced to digests
inside the loop (outside the request timer) and checked against
:func:`repro.matching.bounded.naive_match` after the loop.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import random
import time
from typing import Dict, List, Tuple

from repro.api import to_dsl, wrap
from repro.graph.generators import DEFAULT_LABEL_COUNT, random_data_graph, skewed_label_graph
from repro.graph.pattern import Pattern
from repro.graph.pattern_generator import PatternGenerator
from repro.matching.bounded import naive_match


def digest(mapping: Dict[str, List[str]]) -> str:
    """Stable digest of a ``ResultView.to_mapping()``-shaped answer."""
    text = json.dumps(mapping, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def reference_digest(pattern, graph) -> str:
    """Digest of the paper's literal fixpoint, in ``to_mapping`` form."""
    result = naive_match(pattern, graph)
    return digest(
        {
            str(u): sorted(str(v) for v in result.matches(u))
            for u in result.pattern_nodes()
            if result.matches(u)
        }
    )


class Workload:
    """Shared shape; subclasses fill in set-up, segment and check."""

    name = ""
    #: Timed set-ups per segment; the last one's state runs the segment.
    setups_per_segment = 1
    #: Segments of the traced run (a fixed count, so its counts repeat).
    trace_segments = 3
    #: Scale knobs per ``scale`` name ("full" is what the benchmark runs).
    scales: Dict[str, Dict[str, int]] = {}

    def __init__(self, seed: int, scale: str) -> None:
        self.seed = seed
        self.size = self.scales[scale]
        #: ``(request key, answer digest)`` per answer, in loop order.
        self.answers: List[Tuple[object, object]] = []
        #: Human-readable account of what the check covered.
        self.check_note = ""

    def fresh_graph(self):
        return pickle.loads(self._blob)

    def set_up(self, graph):
        """The timed part of a set-up; returns the client state."""
        return wrap(graph)

    def close(self, state) -> None:
        state.close()

    def run_segment(self, state, loop) -> None:
        """Take the segment's fixed steps through ``loop.step``."""
        raise NotImplementedError

    def exhausted(self) -> bool:
        """True when the inputs cannot feed one more segment."""
        return False

    def check(self, corrupt: bool) -> Tuple[int, int]:
        """``(answers judged, answers wrong)``.

        An answer is judged against ``naive_match``; a request whose repeats
        disagree is judged once, as wrong.  Answers that were neither checked
        nor found inconsistent count in neither figure.
        """
        raise NotImplementedError


def chain_star(chain: Tuple[str, str, str], leaves: Tuple[str, str]) -> Pattern:
    """The ``skewed_chain_workload`` shape: chain ``u0 -> u1 -> u2``, star of two leaves, bound 2."""
    pattern = Pattern(name=f"chain-{'-'.join(chain)}-star-{'-'.join(leaves)}")
    for index, label in enumerate(chain):
        pattern.add_node(f"u{index}", {"label": label})
        if index:
            pattern.add_edge(f"u{index - 1}", f"u{index}", 2)
    for index, label in enumerate(leaves):
        pattern.add_node(f"leaf{index}", {"label": label})
        pattern.add_edge("u2", f"leaf{index}", 2)
    return pattern


class BatchSkewed(Workload):
    """``match_many`` batches of chain+star patterns over a Zipf-labelled 100k graph."""

    name = "batch_skewed_100k"
    setups_per_segment = 2
    trace_segments = 2
    scales = {
        "full": {"nodes": 100_000, "edges": 300_000},
        "toy": {"nodes": 3_000, "edges": 9_000},
    }

    def __init__(self, seed: int, scale: str) -> None:
        super().__init__(seed, scale)
        size = self.size
        graph = skewed_label_graph(size["nodes"], size["edges"], seed=seed)
        # The catalogue: every chain/star label combination over the two most
        # common and the two rarest labels, 8 chains x 4 leaf pairs.
        # skewed_label_graph draws label L<i> with weight 1/(i+1)^1.2, so L0,
        # L1 are the common ones and the last two the rarest, for every seed.
        common = ("L0", "L1")
        rare = (f"L{DEFAULT_LABEL_COUNT - 2}", f"L{DEFAULT_LABEL_COUNT - 1}")
        chains = [(common[c >> 2], common[(c >> 1) & 1], common[c & 1]) for c in range(8)]
        pairs = [(rare[l >> 1], rare[l & 1]) for l in range(4)]
        self.catalogue = {(c, l): chain_star(chains[c], pairs[l]) for c in range(8) for l in range(4)}
        # The schedule: batch b brings the 4 new patterns (chain (b + 3l) mod
        # 8, leaf pair l) -- one of each leaf pair, which decide most of a
        # pattern's cost -- plus the 4 of batch b - 1 again, so every batch
        # costs about the same and popular queries recur as result-cache
        # hits.  The first batch repeats its own patterns.
        self.batches = []
        for b in range(8):
            new = [self.catalogue[(b + 3 * l) % 8, l] for l in range(4)]
            self.batches.append(new + (self.batches[-1][:4] if self.batches else new))
        self._blob = pickle.dumps(graph, protocol=pickle.HIGHEST_PROTOCOL)

    def run_segment(self, handle, loop) -> None:
        # One segment = one fresh session serving the 8-batch schedule; its
        # pool starts on the first batch and shuts down with the session.
        loop.session_start(handle)
        for patterns in self.batches:
            with loop.step(queries=len(patterns)):
                mappings = [view.to_mapping() for view in handle.match_many(patterns)]
            for pattern, mapping in zip(patterns, mappings):
                self.answers.append((pattern.fingerprint(), digest(mapping)))
            loop.sample_workers()
        loop.session_done(handle)

    def check(self, corrupt: bool) -> Tuple[int, int]:
        # naive_match costs ~3 s per pattern at 100k, so one seed-chosen
        # pattern per leaf pair is checked: every answer given for it must be
        # the reference.  Every other pattern's answers (repeats within a
        # batch, through the result cache, across segments) must agree with
        # each other; a pattern whose answers disagree counts as one wrong.
        rng = random.Random(self.seed + 3)
        sample = [self.catalogue[rng.randrange(8), l] for l in range(4)]
        by_fingerprint: Dict[str, List[str]] = {}
        for fingerprint, observed in self.answers:
            by_fingerprint.setdefault(fingerprint, []).append(observed)
        if corrupt and self.answers:
            by_fingerprint[sample[0].fingerprint()][0] = "corrupted"
        graph = self.fresh_graph()
        checked = wrong = 0
        for pattern in sample:
            expected = reference_digest(pattern, graph)
            observed = by_fingerprint.pop(pattern.fingerprint(), [])
            checked += len(observed)
            wrong += sum(answer != expected for answer in observed)
        inconsistent = sum(len(set(answers)) > 1 for answers in by_fingerprint.values())
        self.check_note = (
            f"naive_match on {[p.name for p in sample]}: {checked} answers; "
            f"{len(by_fingerprint)} other patterns agree across repeats"
        )
        return checked + inconsistent, wrong + inconsistent


def apply_updates(graph, updates) -> None:
    for kind, source, target in updates:
        if kind == "insert":
            graph.add_edge(source, target)
        else:
            graph.remove_edge(source, target)


class StreamMixed(Workload):
    """One standing DAG query kept current under 50/50 update batches, plus reads."""

    name = "stream_mixed_1k"
    # One set-up swings by +-25 % within a run, so each segment takes two.
    setups_per_segment = 2
    scales = {
        "full": {"nodes": 1_000, "edges": 3_000, "steps": 15, "batches": 900, "batch": 10,
                 "reads": 8},
        "toy": {"nodes": 200, "edges": 600, "steps": 6, "batches": 600, "batch": 6, "reads": 4},
    }

    def __init__(self, seed: int, scale: str) -> None:
        super().__init__(seed, scale)
        size = self.size
        graph = random_data_graph(size["nodes"], size["edges"], seed=seed)
        # The standing query has a fixed DAG shape and bound; only its labels
        # come from the seed (redrawn until the graph matches, so IncMatch has
        # a non-trivial match to maintain).  Its maintenance cost then varies
        # little from seed to seed.
        rng = random.Random(seed + 1)
        labels = sorted({graph.attributes(node)["label"] for node in graph.nodes()})
        for _ in range(50):
            standing = Pattern(name="standing")
            for node in range(4):
                standing.add_node(node, {"label": rng.choice(labels)})
            for source, target in ((0, 1), (1, 2), (2, 3), (0, 2)):
                standing.add_edge(source, target, 3)
            if naive_match(standing, graph):
                break
        self.standing = standing
        generator = PatternGenerator(graph, seed=seed + 1)
        self.standing_dsl = to_dsl(standing)
        self.reads = [generator.generate_dag(4, 4, 3) for _ in range(size["reads"])]
        self.read_dsl = [to_dsl(pattern) for pattern in self.reads]
        self.updates = self._update_batches(graph, random.Random(seed + 2))
        self._blob = pickle.dumps(graph, protocol=pickle.HIGHEST_PROTOCOL)
        #: Update batches streamed so far; the next segment starts here.
        self.streamed = 0
        self.update_ms: List[float] = []
        self.read_ms: List[float] = []

    def _update_batches(self, graph, rng) -> List[List[Tuple[str, int, int]]]:
        """Batches of half deletions of live edges, half insertions of new ones."""
        size = self.size
        edges = sorted(graph.edges())
        live = set(edges)
        half = size["batch"] // 2
        batches = []
        for _ in range(size["batches"]):
            batch = []
            for _ in range(half):
                index = rng.randrange(len(edges))
                source, target = edges[index]
                edges[index] = edges[-1]
                edges.pop()
                live.discard((source, target))
                batch.append(("delete", source, target))
            while len(batch) < 2 * half:
                source = rng.randrange(size["nodes"])
                target = rng.randrange(size["nodes"])
                if source != target and (source, target) not in live:
                    live.add((source, target))
                    edges.append((source, target))
                    batch.append(("insert", source, target))
            batches.append(batch)
        return batches

    def fresh_graph(self):
        # The graph as the stream left it: the batches earlier segments
        # streamed are applied here, before the timed set-up.
        graph = super().fresh_graph()
        for updates in self.updates[: self.streamed]:
            apply_updates(graph, updates)
        return graph

    def exhausted(self) -> bool:
        return self.streamed + self.size["steps"] > len(self.updates)

    def set_up(self, graph):
        # Opening the session and the standing query's IncMatch state (full
        # distance matrix, interned store, initial fixpoint).
        handle = wrap(graph)
        query = handle.query(self.standing_dsl)
        query.stream([])
        return handle, query

    def close(self, state) -> None:
        state[0].close()

    def run_segment(self, state, loop) -> None:
        # The segment streams the next update batches, each followed by one
        # read whose cache entry the batch invalidated.
        handle, query = state
        loop.session_start(handle)
        clock = time.perf_counter
        first = self.streamed
        for index in range(first, first + self.size["steps"]):
            updates = self.updates[index]
            read = self.read_dsl[index % len(self.read_dsl)]
            with loop.step(queries=2):
                start = clock()
                maintained = query.stream(updates).to_mapping()
                middle = clock()
                answer = handle.match(read).to_mapping()
                end = clock()
            self.update_ms.append((middle - start) * 1e3)
            self.read_ms.append((end - middle) * 1e3)
            self.answers.append((index, (digest(maintained), digest(answer))))
            self.streamed = index + 1
        loop.session_done(handle)

    def check(self, corrupt: bool) -> Tuple[int, int]:
        # Replay the streamed batches on a fresh copy of the pristine graph
        # and check both answers of every step against naive_match.
        graph = pickle.loads(self._blob)
        wrong = 0
        for index, (maintained, answer) in self.answers:
            apply_updates(graph, self.updates[index])
            if corrupt and index == 0:
                answer = "corrupted"
            wrong += maintained != reference_digest(self.standing, graph)
            wrong += answer != reference_digest(self.reads[index % len(self.reads)], graph)
        self.check_note = f"naive_match on both answers of all {len(self.answers)} steps"
        return 2 * len(self.answers), wrong


WORKLOADS = {cls.name: cls for cls in (BatchSkewed, StreamMixed)}

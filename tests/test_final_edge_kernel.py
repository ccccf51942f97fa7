"""The final-edge kernel: one multi-source reverse search per final edge.

Two layers are pinned here:

* ``ancestors_of_set_bits`` — on every oracle (the paper's matrix, BFS and
  2-hop oracles through the default, the compiled oracle's kernel, the
  spawn workers' ``AttachedExecutor`` and the bound-1 adjacency oracle) it
  equals the OR of the per-node ancestor balls and the literal
  ``DataGraph.ancestors_within`` definition: nonempty paths, so a source is
  included only when it reaches a source (itself through a cycle, or
  another one) within the bound;
* the ordered fixpoint that uses it — planner order equals seed order
  equals ``naive_match`` on Zipf-labelled graphs, through both final-edge
  branches (child set smaller: reverse search; parent set smaller:
  forward existence tests), the spawn executor and the simulation
  strategy.
"""

from __future__ import annotations

import random

import pytest

from repro.distance.bfs import BFSDistanceOracle
from repro.distance.compiled import CompiledDistanceMatrix
from repro.distance.matrix import DistanceMatrix
from repro.distance.twohop import TwoHopOracle
from repro.engine import MatchSession
from repro.engine.parallel import AttachedExecutor
from repro.engine.planner import STRATEGY_BOUNDED, STRATEGY_SIMULATION, plan_query
from repro.graph.compiled import CompiledGraph, bits_to_indices, compile_graph, indices_to_bits
from repro.graph.datagraph import DataGraph
from repro.graph.generators import random_data_graph, skewed_label_graph
from repro.graph.pattern import Pattern
from repro.matching.bounded import candidate_bits, naive_match, refine_bits_to_fixpoint
from repro.matching.simulation import ADJACENCY_ORACLE

BOUNDS = [1, 2, 3, None]
ORACLES = [DistanceMatrix, BFSDistanceOracle, TwoHopOracle, CompiledDistanceMatrix]


def cyclic_graph(seed: int) -> DataGraph:
    """A random digraph with self-loops and 2-cycles (the nonempty-path cases)."""
    graph = random_data_graph(30, 70, seed=seed)
    rng = random.Random(seed)
    nodes = list(graph.nodes())
    for node in rng.sample(nodes, 4):
        graph.add_edge(node, node, strict=False)
    for _ in range(4):
        a, b = rng.sample(nodes, 2)
        graph.add_edge(a, b, strict=False)
        graph.add_edge(b, a, strict=False)
    return graph


def source_sets(graph: DataGraph, compiled: CompiledGraph, seed: int):
    """Empty, single, self-looped, cycle-through-sources, random and full sets."""
    rng = random.Random(seed)
    nodes = list(graph.nodes())
    looped = [n for n in nodes if graph.has_edge(n, n)]
    two_cycle = next(
        (a, b) for a in nodes for b in graph.successors(a)
        if a != b and graph.has_edge(b, a)
    )
    sets = [[], [nodes[0]], looped[:1], list(two_cycle), rng.sample(nodes, 8), nodes]
    return [compiled.encode(chosen) for chosen in sets]


def literal(graph: DataGraph, compiled: CompiledGraph, sources: int, bound) -> int:
    """The definition: OR of ``DataGraph.ancestors_within`` over the sources."""
    result = set()
    for index in bits_to_indices(sources):
        result |= graph.ancestors_within(compiled.node_of(index), bound)
    return compiled.encode(result)


def or_of_balls(oracle, compiled: CompiledGraph, sources: int, bound) -> int:
    result = 0
    for index in bits_to_indices(sources):
        result |= oracle.ancestors_within_bits(compiled, index, bound)
    return result


class TestIndicesToBits:
    @pytest.mark.parametrize("count", [0, 1, 5, 40, 300, 1000])
    def test_round_trips_through_both_packings(self, count):
        # 1000 slots: fewer than 32 indices take the byte-buffer packing,
        # more take the digit-string packing.
        rng = random.Random(count)
        indices = sorted(rng.sample(range(1000), count))
        expected = sum(1 << i for i in indices)
        assert indices_to_bits(indices, 1000) == expected
        flags = bytearray(1000)
        for i in indices:
            flags[i] = 1
        assert indices_to_bits(indices, 1000, flags) == expected
        assert bits_to_indices(indices_to_bits(indices, 1000)) == indices

    def test_top_index_and_empty_size(self):
        assert indices_to_bits([999], 1000) == 1 << 999
        assert indices_to_bits(list(range(1000)), 1000) == (1 << 1000) - 1
        assert indices_to_bits([], 0) == 0


class TestAncestorsOfSet:
    @pytest.mark.parametrize("seed", [3, 8])
    @pytest.mark.parametrize("oracle_cls", ORACLES)
    def test_every_oracle_equals_or_of_balls(self, seed, oracle_cls):
        graph = cyclic_graph(seed)
        oracle = oracle_cls(graph)
        compiled = oracle.snapshot if oracle_cls is CompiledDistanceMatrix else compile_graph(graph)
        for sources in source_sets(graph, compiled, seed):
            for bound in BOUNDS:
                got = oracle.ancestors_of_set_bits(compiled, sources, bound)
                assert got == or_of_balls(oracle, compiled, sources, bound), bound
                assert got == literal(graph, compiled, sources, bound), bound

    def test_empty_sources_and_nonpositive_bound(self):
        graph = cyclic_graph(5)
        oracle = CompiledDistanceMatrix(graph)
        compiled = oracle.snapshot
        assert oracle.ancestors_of_set_bits(compiled, 0, 2) == 0
        assert oracle.ancestors_of_set_bits(compiled, 0, None) == 0
        assert compiled.flat_kernel().ancestors_of_set_bits(compiled.all_bits, 0) == 0

    def test_sources_are_included_only_through_a_nonempty_path(self):
        # a -> b -> c, c -> c: from {b, c} at bound 1, b is an ancestor of c
        # (a source reaching another source) and c of itself (self-loop); a
        # reaches b.  At bound 1 from {b} alone, b is not its own ancestor.
        graph = DataGraph()
        for node in "abcd":
            graph.add_node(node)
        graph.add_edge("a", "b")
        graph.add_edge("b", "c")
        graph.add_edge("c", "c")
        oracle = CompiledDistanceMatrix(graph)
        compiled = oracle.snapshot
        got = oracle.ancestors_of_set_bits(compiled, compiled.encode("bc"), 1)
        assert compiled.decode(got) == {"a", "b", "c"}
        got = oracle.ancestors_of_set_bits(compiled, compiled.encode("b"), 1)
        assert compiled.decode(got) == {"a"}
        got = oracle.ancestors_of_set_bits(compiled, compiled.encode("d"), None)
        assert got == 0

    def test_attached_executor(self):
        graph = cyclic_graph(6)
        compiled = compile_graph(graph)
        with compiled.export_shared() as handle:
            attached = CompiledGraph.attach_shared(handle.descriptor)
            try:
                executor = AttachedExecutor(attached)
                for sources in source_sets(graph, compiled, 6):
                    for bound in BOUNDS:
                        got = executor.ancestors_of_set_bits(attached, sources, bound)
                        assert got == literal(graph, compiled, sources, bound), bound
            finally:
                attached.shared_handle.close()

    def test_adjacency_oracle_is_bound_one(self):
        graph = cyclic_graph(7)
        compiled = compile_graph(graph)
        for sources in source_sets(graph, compiled, 7):
            expected = literal(graph, compiled, sources, 1)
            for bound in BOUNDS:
                got = ADJACENCY_ORACLE.ancestors_of_set_bits(compiled, sources, bound)
                assert got == expected

    def test_patched_snapshot(self):
        graph = cyclic_graph(9)
        oracle = CompiledDistanceMatrix(graph)
        compiled = oracle.snapshot
        kernel = compiled.flat_kernel()
        sources = compiled.encode(list(graph.nodes())[:5])
        kernel.ancestors_of_set_bits(sources, 2)  # decode the CSR before patching
        rng = random.Random(9)
        nodes = list(graph.nodes())
        for _ in range(6):
            a, b = rng.sample(nodes, 2)
            if graph.has_edge(a, b):
                graph.remove_edge(a, b)
                compiled.patch_edge_delete(a, b)
            else:
                graph.add_edge(a, b)
                compiled.patch_edge_insert(a, b)
            assert oracle.snapshot is compiled
            for bound in BOUNDS:
                got = oracle.ancestors_of_set_bits(compiled, sources, bound)
                assert got == literal(graph, compiled, sources, bound), bound
                assert got == or_of_balls(oracle, compiled, sources, bound), bound

    @pytest.mark.parametrize("foreign", ["same-graph", "stale", "other-graph"])
    def test_foreign_snapshot_takes_the_fallback(self, foreign, monkeypatch):
        graph = cyclic_graph(10)
        oracle = CompiledDistanceMatrix(graph)
        source_graph = graph
        if foreign == "other-graph":
            source_graph = cyclic_graph(11)
        snapshot = CompiledGraph.from_graph(source_graph)
        assert snapshot is not oracle.snapshot
        if foreign == "stale":
            graph.add_node("late")
            graph.add_edge("late", list(graph.nodes())[0])

        def kernel_must_not_run(self, sources, bound):
            raise AssertionError("a foreign snapshot must take the per-node fallback")

        kernel_cls = type(oracle.snapshot.flat_kernel())
        monkeypatch.setattr(kernel_cls, "ancestors_of_set_bits", kernel_must_not_run)
        sources = snapshot.encode(list(source_graph.nodes())[:6])
        for bound in BOUNDS:
            got = oracle.ancestors_of_set_bits(snapshot, sources, bound)
            assert got == or_of_balls(oracle, snapshot, sources, bound), bound


# ----------------------------------------------------------------------
# the ordered fixpoint
# ----------------------------------------------------------------------


def pattern_of(name, labels, edges) -> Pattern:
    pattern = Pattern(name=name)
    for node, label in labels.items():
        pattern.add_node(node, {"label": label})
    for source, target, bound in edges:
        pattern.add_edge(source, target, bound)
    return pattern


#: name -> (pattern, which final-edge branch its ordered run must take).
#: L0/L1 are the common labels of a Zipf graph, L6/L7 the rare ones.
PATTERNS = {
    # Rare leaves under common parents: the child side is smaller, so the
    # final edges run the multi-source reverse search.
    "chain-star": (
        pattern_of(
            "chain-star",
            {"u0": "L0", "u1": "L1", "u2": "L0", "a": "L6", "b": "L7"},
            [("u0", "u1", 2), ("u1", "u2", 2), ("u2", "a", 2), ("u2", "b", 2)],
        ),
        "reverse",
    ),
    # A rare parent over a common leaf: the parent side is smaller, so the
    # final edge runs one forward existence test per parent.
    "rare-over-common": (
        pattern_of(
            "rare-over-common",
            {"r": "L7", "c": "L0", "d": "L1"},
            [("r", "c", 3), ("r", "d", None)],
        ),
        "forward",
    ),
    # A pattern cycle below a rare leaf: counting path plus final edges.
    "cycle-leaf": (
        pattern_of(
            "cycle-leaf",
            {"x": "L0", "y": "L1", "z": "L6"},
            [("x", "y", 2), ("y", "x", 1), ("y", "z", None)],
        ),
        None,
    ),
    # All bounds 1: the engine plans the simulation strategy.
    "simulation": (
        pattern_of(
            "simulation",
            {"p": "L0", "q": "L1", "s": "L5"},
            [("p", "q", 1), ("q", "s", 1), ("p", "s", 1)],
        ),
        None,
    ),
}


@pytest.fixture(scope="module")
def skewed():
    return skewed_label_graph(900, 2700, num_labels=8, skew=1.3, seed=4)


@pytest.fixture(scope="module")
def reference(skewed):
    return {name: naive_match(p, skewed).as_dict() for name, (p, _) in PATTERNS.items()}


def decoded(compiled: CompiledGraph, mat_bits) -> dict:
    if any(not bits for bits in mat_bits.values()):
        return {}
    return {u: compiled.decode(bits) for u, bits in mat_bits.items()}


class TestOrderedFixpoint:
    @pytest.mark.parametrize("name", sorted(PATTERNS))
    def test_planner_order_equals_seed_order_and_naive(
        self, name, skewed, reference, monkeypatch
    ):
        pattern, branch = PATTERNS[name]
        oracle = CompiledDistanceMatrix(skewed)
        compiled = oracle.snapshot
        plan = plan_query(pattern, snapshot_version=compiled.version, compiled=compiled)
        assert plan.edge_order, "the planner must order this pattern"
        reverse_calls = []
        real = oracle.ancestors_of_set_bits

        def counting(snapshot, sources, bound):
            reverse_calls.append(bound)
            return real(snapshot, sources, bound)

        monkeypatch.setattr(oracle, "ancestors_of_set_bits", counting)
        seed_bits = candidate_bits(pattern, compiled)
        removed = refine_bits_to_fixpoint(pattern, oracle, compiled, seed_bits)
        assert not reverse_calls  # seed order never has a final edge
        ordered_bits = candidate_bits(pattern, compiled)
        initial = dict(ordered_bits)
        ordered_removed = refine_bits_to_fixpoint(
            pattern, oracle, compiled, ordered_bits, edge_order=plan.edge_order
        )
        assert ordered_bits == seed_bits
        assert decoded(compiled, ordered_bits) == reference[name]
        expected_removed = {
            (u, v) for u in initial for v in bits_to_indices(initial[u] & ~ordered_bits[u])
        }
        assert ordered_removed == expected_removed == removed
        if branch == "reverse":
            assert reverse_calls
        elif branch == "forward":
            assert not reverse_calls

    def test_sessions_executor_and_spawn_pool_agree(self, skewed, reference):
        from repro.engine.parallel import WorkerPool

        patterns = {name: p for name, (p, _) in PATTERNS.items()}
        compiled = compile_graph(skewed)
        with MatchSession(skewed) as ordered, MatchSession(
            skewed, selectivity_order=False
        ) as seed:
            plans = {name: ordered.plan(p) for name, p in patterns.items()}
            assert {plan.strategy for plan in plans.values()} == {
                STRATEGY_BOUNDED,
                STRATEGY_SIMULATION,
            }
            for name, pattern in patterns.items():
                assert ordered.match(pattern).as_dict() == reference[name], name
                assert seed.match(pattern).as_dict() == reference[name], name
            with compiled.export_shared() as handle:
                attached = CompiledGraph.attach_shared(handle.descriptor)
                try:
                    executor = AttachedExecutor(attached)
                    for name, pattern in patterns.items():
                        got = executor.execute(pattern, plans[name]).as_dict()
                        assert got == reference[name], name
                finally:
                    attached.shared_handle.close()
            units = [(patterns[name], plans[name]) for name in patterns]
            with WorkerPool(ordered, max_workers=2, start_method="spawn") as pool:
                results = pool.run_units(units)
                assert pool.stats()["serial_fallbacks"] == 0
            for name, result in zip(patterns, results):
                assert result.as_dict() == reference[name], name

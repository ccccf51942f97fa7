"""Plain graph simulation (Henzinger, Henzinger & Kopke, FOCS 1995).

Graph simulation is the special case of bounded simulation where every
pattern edge carries bound 1 (edge-to-edge mapping) — Remark (2) of
Section 2.2.  It is implemented here directly on the adjacency, both as a
baseline and as an independent reference the tests compare the bounded
algorithm against on traditional patterns.

The implementation is the standard counting refinement: for every pattern
edge ``(u, u')`` and every candidate ``v`` of ``u`` it maintains how many
successors of ``v`` currently match ``u'``; when the count drops to zero,
``v`` is removed and the removal is propagated to its predecessors.  The
running time is ``O((|V| + |V_p|)(|E| + |E_p|))`` as cited in the paper.

By default the refinement runs over the compiled snapshot of the graph
(:mod:`repro.graph.compiled`): candidate sets are bitsets over interned
integer ids and the fixpoint is the shared edge-worklist refinement of
:func:`repro.matching.bounded.refine_bits_to_fixpoint`, driven by a
"distance oracle" whose balls are simply the CSR adjacency rows — graph
simulation *is* bounded simulation with every ball truncated at one hop, so
the two algorithms share one engine.  The original set-based implementation
is retained under ``use_compiled=False`` as a cross-checking reference and
for old-vs-new benchmarking; both produce identical relations.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.graph.compiled import CompiledGraph
from repro.graph.datagraph import DataGraph, NodeId
from repro.graph.pattern import Pattern, PatternNodeId
from repro.matching.match_result import MatchResult

__all__ = ["graph_simulation", "simulates", "ADJACENCY_ORACLE"]


class _AdjacencyOracle:
    """The default oracle of plain simulation: balls are the direct adjacency.

    Graph simulation maps pattern edges to single data edges, so the
    "descendants within the bound" of a candidate are exactly its direct
    successors (a node's own bit appears iff it carries a self-loop — the
    one-hop case of the cycle rule).  Bounds on the pattern are ignored by
    design: this oracle *defines* the edge-to-edge semantics.
    """

    __slots__ = ()

    @staticmethod
    def descendants_within_bits(
        compiled: CompiledGraph, source: int, bound: Optional[int]
    ) -> int:
        return compiled.successors_bits(source)

    @staticmethod
    def ancestors_of_set_bits(
        compiled: CompiledGraph, sources: int, bound: Optional[int]
    ) -> int:
        return compiled.flat_kernel().ancestors_of_set_bits(sources, 1)

    # Adjacency rows are already materialised as cached bitsets on the
    # snapshot, so the "compact" form is the dense row itself.
    @staticmethod
    def descendants_compact(
        compiled: CompiledGraph, source: int, bound: Optional[int]
    ) -> int:
        return compiled.successors_bits(source)


#: The shared bound-1 "oracle" instance (stateless).  The engine layer
#: (:mod:`repro.engine`) reuses it for its simulation execution strategy.
ADJACENCY_ORACLE = _AdjacencyOracle()


def graph_simulation(
    pattern: Pattern, graph: DataGraph, *, use_compiled: bool = True
) -> MatchResult:
    """Compute the maximum graph-simulation relation of *pattern* by *graph*.

    A data node ``v`` simulates a pattern node ``u`` when ``v`` satisfies the
    predicate of ``u`` and, for every pattern edge ``(u, u')``, some direct
    successor of ``v`` simulates ``u'``.  The returned relation is empty when
    some pattern node has no simulating data node.
    """
    if not use_compiled:
        return _graph_simulation_sets(pattern, graph)
    # A throwaway engine session: the compiled snapshot still comes from the
    # shared compile cache, and callers serving many patterns should hold a
    # MatchSession themselves to also share ball memos and cached results.
    from repro.engine.session import MatchSession

    return MatchSession(graph).simulate(pattern)


def _graph_simulation_sets(pattern: Pattern, graph: DataGraph) -> MatchResult:
    """The original set-based counting refinement (legacy reference path)."""
    candidates: Dict[PatternNodeId, Set[NodeId]] = {}
    for u in pattern.nodes():
        predicate = pattern.predicate(u)
        candidates[u] = {
            v for v in graph.nodes() if predicate.evaluate(graph.attributes(v))
        }
        if not candidates[u]:
            return MatchResult.empty(pattern.node_list())

    # support_count[(u, u')][v]: number of successors of v in candidates[u'].
    support_count: Dict[Tuple[PatternNodeId, PatternNodeId], Dict[NodeId, int]] = {}
    removal_list: List[Tuple[PatternNodeId, NodeId]] = []
    removed: Set[Tuple[PatternNodeId, NodeId]] = set()

    for u, u_child in pattern.edges():
        counts: Dict[NodeId, int] = {}
        child_candidates = candidates[u_child]
        for v in candidates[u]:
            count = sum(1 for w in graph.successors(v) if w in child_candidates)
            counts[v] = count
            if count == 0 and (u, v) not in removed:
                removed.add((u, v))
                removal_list.append((u, v))
        support_count[(u, u_child)] = counts

    # Propagate removals until the relation stabilises.
    index = 0
    while index < len(removal_list):
        u, v = removal_list[index]
        index += 1
        candidates[u].discard(v)
        if not candidates[u]:
            return MatchResult.empty(pattern.node_list())
        # v no longer matches u: every predecessor w of v loses one unit of
        # support for every pattern edge (u_parent, u).
        for u_parent in pattern.predecessors(u):
            counts = support_count.get((u_parent, u))
            if counts is None:
                continue
            for w in graph.predecessors(v):
                if w not in counts:
                    continue
                counts[w] -= 1
                if counts[w] == 0 and (u_parent, w) not in removed:
                    removed.add((u_parent, w))
                    removal_list.append((u_parent, w))

    return MatchResult(candidates, pattern_nodes=pattern.node_list())


def simulates(pattern: Pattern, graph: DataGraph) -> bool:
    """``True`` when *graph* simulates *pattern* (every pattern node has a match)."""
    return bool(graph_simulation(pattern, graph))

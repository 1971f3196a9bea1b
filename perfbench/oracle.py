"""Reference answers for graph queries, computed with networkx from the
generated edge list, independently of the engine.

Path counting follows the engine's ``G.Paths`` semantics (see
``repro.graph.traversal``): a path is simple — no vertex twice — except
that its last edge may close a cycle back to the start vertex, provided
that edge is not already on the path. Parallel edges give distinct
paths; an edge whose far endpoint is not a vertex of the view is
skipped. In an undirected view every edge can be walked both ways.
"""

from __future__ import annotations

from typing import Any, Hashable

import networkx as nx


def count_paths(graph: nx.MultiGraph, start: Hashable, length: int) -> int:
    """Number of ``G.Paths`` rows with ``StartVertex.Id = start`` and
    ``Length = length`` (works for ``MultiGraph`` and ``MultiDiGraph``)."""
    if start not in graph:
        return 0
    on_path = {start}
    used = []

    def walk(vertex: Any, depth: int) -> int:
        if depth == length:
            return 1
        total = 0
        for neighbor, keyed in graph.adj[vertex].items():
            for key in keyed:
                if neighbor in on_path:
                    if (neighbor == start and depth >= 1
                            and depth + 1 == length and key not in used):
                        total += 1
                    continue
                on_path.add(neighbor)
                used.append(key)
                total += walk(neighbor, depth + 1)
                used.pop()
                on_path.discard(neighbor)
        return total

    return walk(start, 0)


def reachable(graph: nx.MultiGraph, source: Hashable, target: Hashable,
              esel_below: int) -> bool:
    """Is ``target`` reachable from ``source`` over edges whose ``esel``
    is below ``esel_below``?"""
    view = nx.subgraph_view(
        graph,
        filter_edge=lambda u, v, k: graph.edges[u, v, k]["esel"] < esel_below,
    )
    return nx.has_path(view, source, target)


def shortest_cost(graph: nx.MultiGraph, source: Hashable,
                  target: Hashable) -> float:
    """Least total ``w`` over paths from ``source`` to ``target``."""
    return nx.dijkstra_path_length(graph, source, target, weight="w")

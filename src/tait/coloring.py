"""Tait-coloring count and the small-graph enumeration oracle.

A Tait coloring assigns one of three colors to every edge so that the
three edges at each vertex get three different colors.  Free loops are
unconstrained and contribute a factor of 3 each; a vertex self-loop
meets its vertex twice and kills every coloring.

Both functions use only the abstract incidence structure: the rotation
data of the map is ignored, and non-planar maps are accepted.  The
count contracts a tensor network of one 3x3x3 table per vertex along a
tree (bucket elimination; Dechter, AIJ 1999), so its cost grows with
the edges the largest merge touches, not with the number of colorings.
Enumeration is exact backtracking over the edges, for small graphs.
"""

from __future__ import annotations

import heapq
from itertools import count, permutations

import numpy as np

from .planar import CombinatorialMap

__all__ = ["count_tait", "enumerate_tait"]


def _incidences(cmap: CombinatorialMap):
    at_vertex = [cmap.vertex_edges(v) for v in range(cmap.n_vertices)]
    endpoints = [cmap.edge_endpoints(e) for e in range(cmap.n_paired_edges)]
    return at_vertex, endpoints


# A connected cluster of k vertices with the colors of its open edges
# fixed has at most 6 * 2**(k-1) = 3 * 2**k colorings: in a BFS order of
# the cluster the first vertex has at most 6 ways and every later vertex,
# one of whose edges is already colored, at most 2.  Every entry of a
# merged table, and every partial sum that builds it, is bounded by that,
# so int64 tables are exact while the merged cluster has at most 60
# vertices (3 * 2**60 < 2**63); larger clusters use Python ints.
_INT64_VERTICES = 60

_DISTINCT = np.zeros((3, 3, 3), dtype=np.int64)
_DISTINCT[tuple(zip(*permutations(range(3))))] = 1


def count_tait(cmap: CombinatorialMap) -> int:
    """Number of Tait colorings of the map's underlying multigraph.

    Every vertex starts as a cluster whose table, indexed by the colors of
    its three edges, is 1 where the colors differ.  The two adjacent
    clusters whose merge leaves the fewest open edges, ties going to the
    smaller pair of ids, are merged by summing over the colors of the
    edges they share, until each connected component is one number.
    Each table entry counts the colorings of its cluster, over the actual
    colors, that give its open edges the colors of the entry's index.
    """
    if cmap.has_self_loop:
        return 0
    at_vertex, endpoints = _incidences(cmap)

    # cluster id -> (open edges, table with one axis per open edge, vertices)
    clusters = {v: (edges, _DISTINCT, 1) for v, edges in enumerate(at_vertex)}
    ends = [list(pair) for pair in endpoints]  # the clusters at each edge's two ends
    fresh = count(len(at_vertex))  # so a merged cluster's id is above every live one

    def key(a: int, b: int) -> tuple[int, int, int]:
        return (len(set(clusters[a][0]).symmetric_difference(clusters[b][0])), a, b)

    heap = sorted({key(min(pair), max(pair)) for pair in endpoints})  # sorted is a heap
    total = 3**cmap.free_loops
    while heap:
        _, a, b = heapq.heappop(heap)
        if a not in clusters or b not in clusters:
            continue
        (edges_a, table_a, size_a), (edges_b, table_b, size_b) = clusters.pop(a), clusters.pop(b)
        if size_a + size_b > _INT64_VERTICES:
            table_a, table_b = table_a.astype(object), table_b.astype(object)
        shared = [e for e in edges_a if e in edges_b]
        axes = ([edges_a.index(e) for e in shared], [edges_b.index(e) for e in shared])
        table = np.tensordot(table_a, table_b, axes)
        edges = tuple([e for e in edges_a + edges_b if e not in shared])
        if not edges:
            total *= int(table)
            continue
        c = next(fresh)
        clusters[c] = (edges, table, size_a + size_b)
        for e in edges:
            ends[e] = [c if x in (a, b) else x for x in ends[e]]
        for d in {x for e in edges for x in ends[e]} - {c}:
            heapq.heappush(heap, key(d, c))
    return total


def enumerate_tait(cmap: CombinatorialMap, limit: int) -> list[tuple[int, ...]]:
    """First ``limit`` Tait colorings in lexicographic edge-color order.

    A coloring is a tuple indexed by edge id, paired edges first and
    free-loop edges last.  A ``limit`` that is a bool or not an int
    raises ``ValueError``; one of zero or less gives no colorings.
    """
    if isinstance(limit, bool) or not isinstance(limit, int):
        raise ValueError(f"limit must be an int, got {limit!r}")
    if limit <= 0 or cmap.has_self_loop:
        return []
    n_edges = cmap.n_paired_edges
    n_total = cmap.n_edges
    at_vertex, endpoints = _incidences(cmap)

    color = [0] * n_total
    found: list[tuple[int, ...]] = []

    def admits(e: int, c: int) -> bool:
        for v in endpoints[e]:
            for other in at_vertex[v]:
                if other != e and color[other] == c:
                    return False
        return True

    # depth-first over the edges with an explicit cursor: edges before
    # ``e`` hold their current colors 1-3, and ``color[e]`` is the last
    # color tried at ``e`` (0 when none yet)
    e = 0
    while e >= 0:
        if e == n_total:
            found.append(tuple(color))
            if len(found) >= limit:
                break
            e -= 1
            continue
        c = color[e] + 1
        while c <= 3 and e < n_edges and not admits(e, c):
            c += 1
        if c <= 3:
            color[e] = c
            e += 1
        else:
            color[e] = 0
            e -= 1
    return found

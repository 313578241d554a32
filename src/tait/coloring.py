"""Tait-coloring count, random draw and the small-graph enumeration oracle.

A Tait coloring assigns one of three colors to every edge so that the
three edges at each vertex get three different colors.  Free loops are
unconstrained and contribute a factor of 3 each; a vertex self-loop
meets its vertex twice and kills every coloring.

Every function here uses only the abstract incidence structure, read
from the map (``vertex_edges``, ``_endpoints``, ``_merge_plan``): the
rotation order is ignored, and non-planar maps are accepted.
The count contracts a tensor network of one 3x3x3 table per vertex
along a tree (bucket elimination; Dechter, AIJ 1999), so its cost grows
with the edges the largest merge touches, not with the number of
colorings.
The order of the merges depends only on the map, so the map derives it
once, on the first count or draw, and keeps it as one flat tuple
(``CombinatorialMap._merge_plan``); each count replays it with the
arithmetic alone, one matrix product per merge.  The same merges,
walked back from the last, draw a uniformly random coloring at the cost
of the count's arithmetic.  Enumeration is exact backtracking over the
edges, for small graphs.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate, permutations

import numpy as np

from .planar import CombinatorialMap

__all__ = ["count_tait", "enumerate_tait"]


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


def _merges(cmap: CombinatorialMap):
    """The merges that contract the map's vertex tables, in order.

    Replays the map's merge schedule, ``cmap._merge_plan`` (derived on the
    first count or draw and kept with the map), with the arithmetic alone.
    Every vertex starts as a cluster whose table, indexed by the colors of
    its three edges (the map's ``vertex_edges``), is 1 where the colors
    differ; each merge sums over the colors of the edges its two clusters
    share, until each connected component is one number.
    Each table entry counts the colorings of its cluster, over the actual
    colors, that give its open edges the colors of the entry's index.
    A merge moves the shared axes of the two tables to meet, flattens each
    to a matrix and multiplies them with one ``np.dot``.

    Yields each merge as ``(keep_a, shared, keep_b, a, b)``: the open
    edges each side keeps, the edges the two share, and the operands,
    ``a`` with a row per coloring of ``keep_a`` and a column per coloring
    of ``shared``, ``b`` with a row per coloring of ``shared`` and a
    column per coloring of ``keep_b`` (base-3 indices, first edge most
    significant).  The merged table is ``a @ b``; a merge that keeps no
    edge closes a component, whose one entry the caller computes.  The
    map must have no vertex self-loop.
    """
    plan = cmap._merge_plan
    # per cluster id: table with one axis per open edge (None once merged
    # away) and vertices
    tables = [_DISTINCT] * cmap.n_vertices
    sizes = [1] * cmap.n_vertices
    i = 0
    while i < len(plan):
        a, b, ka, ns, kb = plan[i : i + 5]
        # where the merge's kept, shared and kept edges and its axis orders start
        keep_a, shared, keep_b, axes = i + 5, i + 5 + ka, i + 5 + ka + ns, i + 5 + ka + ns + kb
        i = axes + ka + 2 * ns + kb
        table_a, table_b = tables[a], tables[b]
        tables[a] = tables[b] = None
        size = sizes[a] + sizes[b]
        if size > _INT64_VERTICES:
            table_a, table_b = table_a.astype(object), table_b.astype(object)
        # np.tensordot's arithmetic without its wrapper, which costs more
        # than the product on these small tables: shared axes last in a's
        # table and first in b's, then one matrix product
        matrix_a = table_a.transpose(plan[axes : axes + ka + ns]).reshape(3**ka, -1)
        matrix_b = table_b.transpose(plan[axes + ka + ns : i]).reshape(3**ns, -1)
        yield plan[keep_a:shared], plan[shared:keep_b], plan[keep_b:axes], matrix_a, matrix_b
        if ka + kb:
            tables.append(np.dot(matrix_a, matrix_b).reshape((3,) * (ka + kb)))
            sizes.append(size)


def count_tait(cmap: CombinatorialMap) -> int:
    """Number of Tait colorings of the map's underlying multigraph.

    The product, over the merges of :func:`_merges` that close a
    component, of each closed component's count, times 3 per free loop.
    """
    if cmap.has_self_loop:
        return 0
    total = 3**cmap.free_loops
    for keep_a, _, keep_b, a, b in _merges(cmap):
        if not keep_a and not keep_b:
            total *= int(np.dot(a, b)[0, 0])
    return total


def _index(color: list[int], edges: list[int]) -> int:
    """Base-3 index of the colors of ``edges``, the first most significant."""
    i = 0
    for e in edges:
        i = 3 * i + color[e]
    return i


def _random_coloring(cmap: CombinatorialMap, rng: np.random.Generator) -> list[int] | None:
    """A uniformly random Tait coloring, or ``None`` when the map has none.

    The coloring gives each paired edge, by id, a color 0, 1 or 2; free
    loops get none.  The merges of :func:`_merges` are walked last-first,
    so the edges a merge keeps already have their colors when it is
    reached.  At each merge the colors of its shared edges are drawn with
    weight ``a[row, s] * b[s, col]``, the row and column being the colors
    of the kept edges: the number of colorings of the two clusters that
    agree with every color fixed so far.  The weights are exact ints and
    each draw is one ``randrange`` over their sum, from a ``random.Random``
    seeded from ``rng``, so every coloring has probability 1 / count and
    no draw reaches a dead end.
    """
    if cmap.has_self_loop:
        return None
    randrange = random.Random(int(rng.integers(2**63))).randrange
    color = [0] * cmap.n_paired_edges
    for keep_a, shared, keep_b, a, b in reversed(list(_merges(cmap))):
        row, col = a[_index(color, keep_a)].tolist(), b[:, _index(color, keep_b)].tolist()
        cumulative = list(accumulate(x * y for x, y in zip(row, col)))
        if not cumulative[-1]:  # only a closing merge can meet a zero total
            return None
        s = bisect_right(cumulative, randrange(cumulative[-1]))
        for e in reversed(shared):
            s, color[e] = divmod(s, 3)
    return color


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
    at_vertex = [cmap.vertex_edges(v) for v in range(cmap.n_vertices)]
    endpoints = cmap._endpoints()

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

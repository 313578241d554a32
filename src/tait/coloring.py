"""Tait-coloring count and the small-graph enumeration oracle.

A Tait coloring assigns one of three colors to every edge so that the
three edges at each vertex get three different colors.  Free loops are
unconstrained and contribute a factor of 3 each; a vertex self-loop
meets its vertex twice and kills every coloring.

Both functions use only the abstract incidence structure: the rotation
data of the map is ignored, and non-planar maps are accepted.  The
count is a frontier transfer-matrix DP over the vertices (frontier-based
search, Knuth TAOCP 4A section 7.1.4), so its cost grows with the width
of the frontier rather than with the number of colorings.  Enumeration
is exact backtracking over the edges, for small graphs.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from itertools import permutations

from .planar import CombinatorialMap

__all__ = ["count_tait", "enumerate_tait"]

# The ways to color a vertex's new edges with colors 0, 1, 2, keyed by
# the colors its open edges already carry; a repeated color has no key.
_FILLS = {
    used: list(permutations([c for c in range(3) if c not in used]))
    for size in range(4)
    for used in permutations(range(3), size)
}


def _incidences(cmap: CombinatorialMap):
    at_vertex = [cmap.vertex_edges(v) for v in range(cmap.n_vertices)]
    endpoints = [cmap.edge_endpoints(e) for e in range(cmap.n_paired_edges)]
    return at_vertex, endpoints


def _has_self_loop(at_vertex) -> bool:
    return any(len(set(tri)) < 3 for tri in at_vertex)


def _canonical(key: tuple[int, ...]) -> tuple[int, ...]:
    """``key`` with its colors renamed 0, 1, 2 in order of first appearance."""
    rename: dict[int, int] = {}
    return tuple([rename.setdefault(c, len(rename)) for c in key])


def _greedy_order(neighbours, start: int, bound):
    """(order, cost) of a greedy run from ``start``, or None once cost >= ``bound``.

    The next vertex is the one with the most placed neighbours, which
    closes the most open edges; ties go to the vertex that reached that
    number first.  When no unplaced vertex has a placed neighbour, the
    run goes on from the smallest unplaced vertex.
    """
    n = len(neighbours)
    placed = [False] * n
    links = [0] * n
    # unplaced vertices by number of placed neighbours, in arrival order;
    # a vertex stays behind in lower queues and is skipped once placed
    ready = [deque([start, *range(n)]), deque(), deque(), deque()]
    order = []
    width = cost = 0
    for _ in range(n):
        for queue in reversed(ready):
            while queue and placed[queue[0]]:
                queue.popleft()
            if queue:
                v = queue.popleft()
                break
        placed[v] = True
        order.append(v)
        width += 3 - 2 * links[v]
        cost += 3**width
        if cost >= bound:
            return None
        for u in neighbours[v]:
            if not placed[u]:
                links[u] += 1
                ready[links[u]].append(u)
    return order, cost


def _elimination_order(at_vertex, endpoints) -> list[int]:
    """Vertex order that keeps the frontier of :func:`count_tait` narrow.

    A greedy run is made from every start vertex, and the order with the
    least sum of 3^width over its steps wins, width being the number of
    open edges after the step; the first such order is kept on a tie.
    Each run is O(V), so the search is O(V^2).
    """
    neighbours = [
        [u for e in edges for u in endpoints[e] if u != v]
        for v, edges in enumerate(at_vertex)
    ]
    best, best_cost = [], math.inf
    for start in range(len(at_vertex)):
        run = _greedy_order(neighbours, start, best_cost)
        if run is not None:
            best, best_cost = run
    return best


def count_tait(cmap: CombinatorialMap) -> int:
    """Number of Tait colorings of the map's underlying multigraph.

    Vertices are placed one at a time in :func:`_elimination_order`.  An
    edge is open while exactly one of its endpoints is placed.
    ``states`` maps the colors on the open edges, in ``frontier`` order,
    to the number of colorings of the placed vertices' edges that show
    them.  Keys are renamed by :func:`_canonical`, so each key stands for
    its orbit under the six color permutations and its count is the sum
    over that orbit; the counts stay exact.
    """
    loop_factor = 3**cmap.free_loops
    if cmap.n_paired_edges == 0:
        return loop_factor
    at_vertex, endpoints = _incidences(cmap)
    if _has_self_loop(at_vertex):
        return 0

    states = {(): 1}
    frontier: list[int] = []
    for v in _elimination_order(at_vertex, endpoints):
        edges = at_vertex[v]
        slot = {e: i for i, e in enumerate(frontier)}
        closing = [slot[e] for e in edges if e in slot]
        keep = [i for i, e in enumerate(frontier) if e not in edges]
        frontier = [frontier[i] for i in keep] + [e for e in edges if e not in slot]
        successors: defaultdict[tuple[int, ...], int] = defaultdict(int)
        for key, count in states.items():
            fills = _FILLS.get(tuple([key[i] for i in closing]))
            if fills is None:
                continue
            rest = tuple([key[i] for i in keep])
            for fill in fills:
                successors[_canonical(rest + fill)] += count
        if not successors:
            return 0
        states = successors
    return states[()] * loop_factor


def enumerate_tait(cmap: CombinatorialMap, limit: int) -> list[tuple[int, ...]]:
    """First ``limit`` Tait colorings in lexicographic edge-color order.

    A coloring is a tuple indexed by edge id, paired edges first and
    free-loop edges last.
    """
    if limit <= 0:
        return []
    n_edges = cmap.n_paired_edges
    n_total = cmap.n_edges
    at_vertex, endpoints = _incidences(cmap)
    if _has_self_loop(at_vertex):
        return []

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

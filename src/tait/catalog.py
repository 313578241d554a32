"""Stock trivalent maps used throughout the tests and demos.

Every builder returns a fresh :class:`~tait.planar.CombinatorialMap`
with dense ids.  Rotations are counterclockwise in a standard drawing:
ring-shaped graphs list (forward along the ring, toward the center,
backward), so Euler's formula pins each embedding to the sphere.  The
Petersen graph has no such embedding: its map has ``is_planar`` false.
"""

from __future__ import annotations

from .planar import CombinatorialMap, build_map


def circle(n: int = 1) -> CombinatorialMap:
    """``n`` disjoint vertexless circles, each a single free-loop edge."""
    if n < 0:
        raise ValueError("circle count must be non-negative")
    return CombinatorialMap((), (), n)


def theta() -> CombinatorialMap:
    """Two vertices joined by three parallel edges; faces are bigons."""
    return build_map(
        [(0, (0, 1, 2)), (1, (5, 4, 3))],
        [(0, 3), (1, 4), (2, 5)],
    )


def k4() -> CombinatorialMap:
    """Complete graph on four vertices, drawn with vertex 3 in the middle."""
    # half-edge 3v+s points from v to its s-th neighbor below
    neighbor_order = {0: (1, 3, 2), 1: (2, 3, 0), 2: (0, 3, 1), 3: (0, 1, 2)}
    rotations = [(v, (3 * v, 3 * v + 1, 3 * v + 2)) for v in neighbor_order]
    slot = {
        (v, w): 3 * v + s for v, order in neighbor_order.items() for s, w in enumerate(order)
    }
    pairs = [(slot[v, w], slot[w, v]) for v in range(4) for w in range(v + 1, 4)]
    return build_map(rotations, pairs)


def prism(n: int) -> CombinatorialMap:
    """Two concentric ``n``-cycles joined by rungs; ``prism(4)`` is the cube.

    ``prism(2)`` is the smallest case: a 4-cycle with doubled opposite
    sides, six edges in all.
    """
    if n < 2:
        raise ValueError("prism needs rings of at least 2 vertices")
    rotations = []
    pairs = []
    for i in range(n):
        j = (i + 1) % n
        # outer vertex u_i: ids 6i+0 forward, 6i+1 rung, 6i+2 backward
        rotations.append((2 * i, (6 * i, 6 * i + 1, 6 * i + 2)))
        # inner vertex w_i: ids 6i+3 rung, 6i+4 forward, 6i+5 backward
        rotations.append((2 * i + 1, (6 * i + 3, 6 * i + 4, 6 * i + 5)))
        pairs.append((6 * i, 6 * j + 2))
        pairs.append((6 * i + 1, 6 * i + 3))
        pairs.append((6 * i + 4, 6 * j + 5))
    return build_map(rotations, pairs)


def cube() -> CombinatorialMap:
    """Graph of the 3-cube; all six faces are squares."""
    return prism(4)


def dodecahedron() -> CombinatorialMap:
    """Graph of the regular dodecahedron; all twelve faces are pentagons.

    Vertices come in four rings of five: outer ring ``a``, upper middle
    ``b``, lower middle ``c``, inner ring ``d``.
    """
    rotations = []
    pairs = []
    for i in range(5):
        j = (i + 1) % 5
        a, b, c, d = 3 * i, 15 + 3 * i, 30 + 3 * i, 45 + 3 * i
        rotations.append((i, (a, a + 1, a + 2)))  # a_i: a_{i+1}, b_i, a_{i-1}
        rotations.append((5 + i, (b, b + 1, b + 2)))  # b_i: a_i, c_i, c_{i-1}
        rotations.append((10 + i, (c, c + 1, c + 2)))  # c_i: b_{i+1}, d_i, b_i
        rotations.append((15 + i, (d, d + 1, d + 2)))  # d_i: c_i, d_{i+1}, d_{i-1}
        pairs.append((a, 3 * j + 2))  # outer ring
        pairs.append((a + 1, b))  # a-b spoke
        pairs.append((b + 1, c + 2))  # b_i to c_i
        pairs.append((c, 15 + 3 * j + 2))  # c_i to b_{i+1}
        pairs.append((c + 1, d))  # c-d spoke
        pairs.append((d + 1, 45 + 3 * j + 2))  # inner ring
    return build_map(rotations, pairs)


def petersen() -> CombinatorialMap:
    """Petersen graph with a pentagram rotation system; not planar."""
    rotations = []
    pairs = []
    for i in range(5):
        p, q = 3 * i, 15 + 3 * i
        rotations.append((i, (p, p + 1, p + 2)))  # p_i: p_{i+1}, q_i, p_{i-1}
        rotations.append((5 + i, (q, q + 1, q + 2)))  # q_i: p_i, q_{i+2}, q_{i-2}
        pairs.append((p, 3 * ((i + 1) % 5) + 2))  # outer ring
        pairs.append((p + 1, q))  # spoke
        pairs.append((q + 1, 15 + 3 * ((i + 2) % 5) + 2))  # pentagram chord
    return build_map(rotations, pairs)


def necklace(k: int) -> CombinatorialMap:
    """Cycle of ``2k`` vertices with every other edge doubled into a bigon.

    ``necklace(1)`` is the theta graph; larger ``k`` gives the smallest
    family mixing bigon and square faces.
    """
    if k < 1:
        raise ValueError("necklace needs at least one bead")
    rotations = []
    pairs = []
    m = 6 * k
    for i in range(k):
        # even vertex: two strands forward to 2i+1, single edge backward
        rotations.append((2 * i, (6 * i, 6 * i + 1, 6 * i + 2)))
        # odd vertex: single edge forward, strands backward to 2i
        rotations.append((2 * i + 1, (6 * i + 3, 6 * i + 4, 6 * i + 5)))
        pairs.append((6 * i, 6 * i + 5))  # outer strand
        pairs.append((6 * i + 1, 6 * i + 4))  # inner strand
        pairs.append((6 * i + 3, (6 * i + 8) % m))  # single edge
    return build_map(rotations, pairs)


GENERATORS = {
    make.__name__: make
    for make in (circle, theta, k4, prism, cube, dodecahedron, petersen, necklace)
}

__all__ = [*GENERATORS, "GENERATORS"]

"""Seeded random planar cubic maps, written in tait's map text format.

The benchmark keeps its own generator so that a generator added to the
library later cannot change the benchmark's inputs.  Maps are grown from
a small seed map by operations that keep the rotation system planar by
construction, so no Euler check is needed:

* ``chord``: pick a face uniformly, then two of its half-edges
  (possibly the same one twice), subdivide those edges and join the two
  new vertices across the face.  Adds two vertices.
* ``bigon``: subdivide one edge twice and double the middle segment.
  Adds two vertices and keeps every face length's parity.
* ``ladder``: subdivide two edges of one face twice each, at positions
  an even distance apart, and join the four new vertices by two nested
  chords.  Adds four vertices and keeps every face even.

Only ``chord`` is used for general maps; bipartite maps (every face
even) mix ``bigon`` and ``ladder``.

A map is held as three lists over half-edge ids: ``twin`` pairs the
halves of an edge, ``sigma`` is the counterclockwise successor at the
vertex, and faces are the orbits of ``h -> sigma[twin[h]]``, as in
``tait.planar``.  Half-edges ``3v, 3v+1, 3v+2`` belong to vertex ``v``.
"""

from __future__ import annotations

import random


class _Map:
    def __init__(self, twin, sigma):
        self.twin = list(twin)
        self.sigma = list(sigma)

    @classmethod
    def theta(cls):
        # vertex 0: 0 1 2, vertex 1: 3 4 5 counterclockwise; edges 0-5, 1-4, 2-3
        return cls([5, 4, 3, 2, 1, 0], [1, 2, 0, 4, 5, 3])

    @classmethod
    def cube(cls):
        # two 4-rings joined by rungs, rotations (forward, rung, backward)
        twin = [0] * 24
        for i in range(4):
            j = (i + 1) % 4
            outer, inner = 6 * i, 6 * i + 3
            for a, b in ((outer, 6 * j + 2), (outer + 1, inner), (inner + 1, 6 * j + 5)):
                twin[a], twin[b] = b, a
        sigma = [h - 2 if h % 3 == 2 else h + 1 for h in range(24)]
        return cls(twin, sigma)

    def faces(self):
        seen = [False] * len(self.twin)
        out = []
        for h0 in range(len(self.twin)):
            if seen[h0]:
                continue
            orbit = []
            h = h0
            while not seen[h]:
                seen[h] = True
                orbit.append(h)
                h = self.sigma[self.twin[h]]
            out.append(orbit)
        return out

    def subdivide(self, x):
        """Put a new vertex on the edge of ``x``; return its free stub.

        The stub lies in the face that walks along ``x``.
        """
        y = self.twin[x]
        a = len(self.twin)
        b, c = a + 1, a + 2
        self.twin += [x, y, -1]
        self.sigma += [c, a, b]
        self.twin[x] = a
        self.twin[y] = b
        return c

    def join(self, c1, c2):
        self.twin[c1] = c2
        self.twin[c2] = c1

    def chord(self, rng):
        face = rng.choice(self.faces())
        i = rng.randrange(len(face))
        j = rng.randrange(len(face))
        h = face[i]
        c1 = self.subdivide(h)
        # subdividing the same half-edge again puts the vertex between
        # its tail and the first new vertex, inside the same face
        c2 = self.subdivide(face[j] if j != i else h)
        self.join(c1, c2)

    def bigon(self, rng):
        h = rng.randrange(len(self.twin))
        c1 = self.subdivide(h)
        c2 = self.subdivide(h)
        self.join(c1, c2)

    def ladder(self, rng):
        faces = [f for f in self.faces() if len(f) >= 4]
        face = rng.choice(faces)
        d = len(face)
        i = rng.randrange(d)
        j = (i + 2 * rng.randrange(1, d // 2)) % d
        hi, hj = face[i], face[j]
        # along the face: tail(hi) .. w1 w2 .. head(hi) ... tail(hj) .. w3 w4 ..
        c2 = self.subdivide(hi)
        c1 = self.subdivide(hi)
        c4 = self.subdivide(hj)
        c3 = self.subdivide(hj)
        self.join(c2, c3)
        self.join(c1, c4)

    @property
    def n_vertices(self):
        return len(self.twin) // 3

    def text(self):
        s = self.sigma
        lines = [
            f"vertex {v}: {3 * v} {s[3 * v]} {s[s[3 * v]]}" for v in range(self.n_vertices)
        ]
        pairs = [(h, t) for h, t in enumerate(self.twin) if h < t]
        lines += [f"edge {e}: {a} {b}" for e, (a, b) in enumerate(pairs)]
        return "\n".join(lines) + "\n"


def random_planar(n_vertices: int, seed) -> str:
    """Map text of a random planar cubic map with ``n_vertices`` vertices."""
    if n_vertices < 2 or n_vertices % 2:
        raise ValueError("a cubic map has an even number of vertices, at least 2")
    rng = random.Random(seed)
    m = _Map.theta()
    while m.n_vertices < n_vertices:
        m.chord(rng)
    return m.text()


def random_bipartite(n_vertices: int, seed) -> str:
    """Map text of a random bipartite planar cubic map.

    ``n_vertices`` must be a multiple of 2 and at least 8; steps that add
    four vertices are only taken while at least four remain to be added.
    """
    if n_vertices < 8 or n_vertices % 2:
        raise ValueError("bipartite maps start from the cube: need an even count >= 8")
    rng = random.Random(seed)
    m = _Map.cube()
    while m.n_vertices < n_vertices:
        if n_vertices - m.n_vertices >= 4 and rng.random() < 0.5:
            m.ladder(rng)
        else:
            m.bigon(rng)
    return m.text()

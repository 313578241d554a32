"""Reference values, computed without the code paths the benchmark times.

* Closed forms for catalog families: ``necklace(k)`` has ``3 * 2**k``
  colorings and quantum polynomial ``[2]**k * [3]``; ``prism(n)`` is
  counted with a 9-state transfer matrix around its ring.
* Everything else is reduced with a seeded random choice among the
  highest-priority moves (the timed path always takes the one with the
  smallest half-edge), on an explicit stack.  The value is a sum over
  leaves of ``loop**a * bigon**b``, so one traversal gives both the count
  (3, 2) and the quantum polynomial ([3], [2]).  A run that strands is
  retried with another seed; the reference is the first that finishes.
* Decorations are re-checked with numpy against the map text alone.

Polynomials are dicts from exponent to coefficient; :func:`parse_poly`
reads the program's text form and :func:`poly_digest` hashes one.
"""

from __future__ import annotations

import hashlib
import random
import re
from collections import Counter
from itertools import product

import numpy as np

PRIORITY = {"loop": 0, "bigon": 1, "triangle": 2, "square": 3}
ORDER_TRIES = 16


# ----------------------------------------------------------------------
# Laurent polynomials as {exponent: coefficient}


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def poly_pow(a: dict, n: int) -> dict:
    out = {0: 1}
    for _ in range(n):
        out = poly_mul(out, a)
    return out


def quantum(n: int) -> dict:
    """[n] = q^(n-1) + q^(n-3) + ... + q^(1-n)."""
    return {n - 1 - 2 * i: 1 for i in range(n)}


_TERM = re.compile(r"\s*([+-])?\s*(?:(\d+)\*?)?(q(?:\^(-?\d+))?)?\s*")


def parse_poly(text: str) -> dict:
    """Coefficients of the program's polynomial text, e.g. ``q^3 - 2*q + 1``."""
    text = text.strip()
    if text == "0":
        return {}
    out: dict = {}
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m is None or m.end() == pos or not (m.group(2) or m.group(3)):
            raise ValueError(f"not a Laurent polynomial at {text[pos:pos + 20]!r}")
        coef = int(m.group(2)) if m.group(2) else 1
        if m.group(1) == "-":
            coef = -coef
        if m.group(3):
            exp = int(m.group(4)) if m.group(4) else 1
        else:
            exp = 0
        out[exp] = out.get(exp, 0) + coef
        pos = m.end()
    return {e: c for e, c in out.items() if c}


def poly_digest(poly: dict) -> str:
    text = ",".join(f"{e}:{c}" for e, c in sorted(poly.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# closed forms


def necklace_count(k: int) -> int:
    return 3 * 2**k


def necklace_p3(k: int) -> dict:
    return poly_mul(poly_pow(quantum(2), k), quantum(3))


def prism_count(n: int) -> int:
    """Tait colorings of ``prism(n)``: trace of the rung transfer matrix.

    The state is the color pair (outer, inner) of the ring edges entering
    a rung; the rung takes a third color different from both, and each
    ring continues with the color its vertex still lacks.
    """
    total = 0
    for start in product(range(3), repeat=2):
        vec = {start: 1}
        for _ in range(n):
            nxt: dict = {}
            for (a, b), c in vec.items():
                for r in range(3):
                    if r != a and r != b:
                        key = (3 - a - r, 3 - b - r)
                        nxt[key] = nxt.get(key, 0) + c
            vec = nxt
        total += vec.get(start, 0)
    return total


# ----------------------------------------------------------------------
# randomized-order reduction through the public move functions


def leaf_exponents(cmap, reduction, rng) -> Counter:
    """Multiset of (loops, bigons) over the leaves of one reduction tree.

    Moves are picked at random among the highest-priority class.  Raises
    ``reduction.IrreducibleError`` when no move matches.
    """
    leaves: Counter = Counter()
    stack = [(cmap, 0, 0)]
    while stack:
        graph, loops, bigons = stack.pop()
        if graph.n_half_edges == 0 and graph.free_loops == 0:
            leaves[loops, bigons] += 1
            continue
        moves = reduction.available_moves(graph)
        if not moves:
            raise reduction.IrreducibleError(graph)
        top = min(PRIORITY[m.kind.value] for m in moves)
        move = rng.choice([m for m in moves if PRIORITY[m.kind.value] == top])
        dl = move.kind.value == "loop"
        db = move.kind.value == "bigon"
        for child in reduction.apply_move(graph, move):
            stack.append((child, loops + dl, bigons + db))
    return leaves


def random_order_leaves(cmap, reduction, seed: str) -> Counter | None:
    """Leaves of the first of several seeded orders that finishes, or None."""
    for attempt in range(ORDER_TRIES):
        try:
            return leaf_exponents(cmap, reduction, random.Random(f"{seed}/{attempt}"))
        except reduction.IrreducibleError:
            continue
    return None


def leaves_count(leaves: Counter) -> int:
    return sum(c * 3**a * 2**b for (a, b), c in leaves.items())


def leaves_p3(leaves: Counter) -> dict:
    total: dict = {}
    for (a, b), c in leaves.items():
        term = poly_mul(poly_pow(quantum(3), a), poly_pow(quantum(2), b))
        for e, x in term.items():
            total[e] = total.get(e, 0) + c * x
    return {e: x for e, x in total.items() if x}


# ----------------------------------------------------------------------
# decorations


def incidence(text: str) -> np.ndarray:
    """Edge ids at each vertex, in rotation order, numbered as tait does.

    Half-edge and vertex ids are relabeled densely in sorted order and
    edges are numbered by their smaller half-edge, like ``build_map``.
    """
    rotations = []
    pairs = []
    for line in text.splitlines():
        tokens = line.split("#", 1)[0].split()
        if tokens and tokens[0] == "vertex":
            rotations.append((int(tokens[1].rstrip(":")), [int(t) for t in tokens[2:]]))
        elif tokens and tokens[0] == "edge":
            pairs.append((int(tokens[2]), int(tokens[3])))
    hid = {h: i for i, h in enumerate(sorted(h for _, rot in rotations for h in rot))}
    dense = sorted(tuple(sorted((hid[a], hid[b]))) for a, b in pairs)
    edge_of = {}
    for e, (a, b) in enumerate(dense):
        edge_of[a] = edge_of[b] = e
    return np.array(
        [[edge_of[hid[h]] for h in rot] for _, rot in sorted(rotations)], dtype=int
    ).reshape(-1, 3)


def decoration_defect(inc: np.ndarray, lines, matrices, recovered) -> float:
    """Largest violation of the decoration roundtrip, 0 up to rounding.

    Checks unit lines, pairwise orthogonality at each vertex, that each
    matrix is unitary, squares to I and fixes its line, that the three
    matrices at each vertex multiply to I, and that the recovered lines
    equal the sampled ones.
    """
    L = np.asarray(lines, dtype=complex)
    M = np.asarray(matrices, dtype=complex)
    R = np.asarray(recovered, dtype=complex)
    eye = np.eye(3)
    worst = [np.abs(np.linalg.norm(L, axis=1) - 1).max()]
    at = L[inc]  # vertex, slot, component
    gram = np.abs(np.einsum("vik,vjk->vij", at.conj(), at))
    worst.append(np.abs(gram - eye).max())
    worst.append(np.abs(M @ np.swapaxes(M.conj(), 1, 2) - eye).max())
    worst.append(np.abs(M @ M - eye).max())
    worst.append(np.abs(np.einsum("eij,ej->ei", M, L) - L).max())
    prod = M[inc[:, 0]] @ M[inc[:, 1]] @ M[inc[:, 2]]
    worst.append(np.abs(prod - eye).max())
    worst.append(np.abs(1 - np.abs(np.einsum("ek,ek->e", L.conj(), R))).max())
    return float(max(worst))

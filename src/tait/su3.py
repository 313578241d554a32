"""Edge decorations by complex lines and their order-2 unitary images.

A decoration assigns to every edge a line in C^3 (stored as a unit
vector; only the span matters, so lines compare by |<u, w>|).  It is
admissible when the three lines at each vertex are pairwise orthogonal.
Sending a line to the special unitary involution that fixes it and
negates its orthogonal complement turns an admissible decoration into a
family of order-2 matrices whose product around every vertex is the
identity, and the 1-eigenspace recovers the line; both directions are
implemented and numerically inverse to each other.  Decorations are
sampled from Tait colorings: a coloring's basis lines are admissible, and
rotating each of its Kempe cycles within the plane of its two colors
keeps them so.

Whole decorations are held as stacked arrays: a decoration is one
(E, 3) array, a representation one (E, 3, 3) array, and the vertex
triples, the map's own table of edge ids at each vertex, one (V, 3)
index array, so every check and conversion is one numpy expression over
all edges or vertices.  The scalar functions (``is_order_two``,
``reflection_from_line``, ``axis_of``, ``line_overlap``) are the same
kernels applied to a stack of one.
Every check runs on every edge; when some fail, the error names the
first failing edge in index order and that edge's first failing
check (shape, then special unitary, then order two).

Every check uses one absolute tolerance, ``_TOL = 1e-9``: it leaves
three orders of magnitude of headroom over double-precision arithmetic
on 3x3 products, so no caller has a reason to set another.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coloring import _random_coloring
from .planar import CombinatorialMap

__all__ = [
    "STANDARD_INVOLUTION",
    "InadmissibleDecorationError",
    "RetriesExhaustedError",
    "is_order_two",
    "reflection_from_line",
    "axis_of",
    "line_overlap",
    "random_line",
    "random_special_unitary",
    "OrderTwoProductReport",
    "check_order_two_product",
    "admissibility_deviation",
    "decoration_to_representation",
    "representation_to_decoration",
    "vertex_product_deviation",
    "sample_admissible_decoration",
]

STANDARD_INVOLUTION = np.diag([1.0, -1.0, -1.0]).astype(complex)

_I3 = np.eye(3, dtype=complex)

_TOL = 1e-9


class InadmissibleDecorationError(ValueError):
    """Raised when incident lines are not pairwise orthogonal."""


class RetriesExhaustedError(RuntimeError):
    """Raised when a map has no Tait coloring for decoration sampling to start from.

    Named for an earlier sampler that retried; callers catch it by this name."""


_NOT_SPECIAL_UNITARY = "matrix is not special unitary within tolerance"
_NOT_ORDER_TWO = "matrix is not an order-2 special unitary within tolerance"

# the three incident pairs at a vertex, as positions in its edge triple
_PAIR_FIRST, _PAIR_SECOND = [0, 0, 1], [1, 2, 2]


def _as_matrix(M) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {M.shape}")
    return M


def _as_vector(v) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape(3)


def _stack(items, convert, shape: tuple[int, ...]):
    """``convert`` applied to every item, as one array of ``(n,) + shape``.

    Returns the stack and ``None``, or, when ``convert`` rejects an
    item, the stack of the items before it and the error it raised, so
    that callers can check those first and report faults in index order.
    """
    try:
        stack = np.asarray(items, dtype=complex)
        if stack.shape[1:] == shape:
            return stack, None
    except (TypeError, ValueError):
        pass
    done, error = [], None
    for item in items:
        try:
            done.append(convert(item))
        except (TypeError, ValueError) as exc:
            error = exc
            break
    return np.array(done, dtype=complex).reshape((-1,) + shape), error


def _norm(x: np.ndarray, axis) -> np.ndarray:
    """Euclidean norm over ``axis``: of vectors at -1, of matrices (Frobenius) at (-2, -1)."""
    return np.sqrt((x.conj() * x).real.sum(axis=axis))


def _require_unit(lines: np.ndarray) -> None:
    """Raise for the first row of an (n, 3) stack whose norm is not 1 within tolerance."""
    norms = _norm(lines, -1)
    bad = ~(np.abs(norms - 1.0) <= _TOL)  # a NaN norm too
    if bad.any():
        # the norm of that one vector, whatever else the stack holds
        norm = float(np.linalg.norm(lines[np.argmax(bad)]))
        raise ValueError(f"line representative must be a unit vector, |v| = {norm}")


def _special_unitary(M: np.ndarray) -> np.ndarray:
    """Per matrix of a stack: ||M*M - I|| <= _TOL and |det M - 1| <= _TOL."""
    gram = M.conj().swapaxes(-1, -2) @ M
    with np.errstate(invalid="ignore"):  # a NaN entry fails the check, without a warning
        det = np.linalg.det(M)
    return (_norm(gram - _I3, (-2, -1)) <= _TOL) & (abs(det - 1.0) <= _TOL)


def _order_two(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per matrix of a stack: whether it squares to I without being I, and ||M^2 - I||."""
    defect = _norm(M @ M - _I3, (-2, -1))
    return (defect <= _TOL) & (_norm(M - _I3, (-2, -1)) > _TOL), defect


def _first_fault(M: np.ndarray) -> tuple[int, str] | None:
    """First matrix of a stack that is not an order-2 special unitary, and why."""
    special = _special_unitary(M)
    good = special & _order_two(M)[0]
    if good.all():
        return None
    k = int(np.argmin(good))
    return k, _NOT_ORDER_TWO if special[k] else _NOT_SPECIAL_UNITARY


def _reflections(lines: np.ndarray) -> np.ndarray:
    """2 v v* - I for every row of an (n, 3) stack."""
    return 2.0 * (lines[:, :, None] * lines.conj()[:, None, :]) - _I3


def _axes(M: np.ndarray) -> np.ndarray:
    """Fixed lines of a stack of order-2 matrices, as :func:`axis_of` describes."""
    rows = np.arange(len(M))
    proj = (M + _I3) / 2.0
    v = proj[rows, :, _norm(proj, -2).argmax(axis=-1)]
    v = v / _norm(v, -1)[:, None]
    top = v[rows, abs(v).argmax(axis=-1)]
    return v * (top.conj() / abs(top))[:, None]


def _inner(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """<u, w> along the last axis, conjugate-linear in ``u``."""
    return (u.conj() * w).sum(axis=-1)


def _line_overlaps(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """|<u, w>| along the last axis."""
    return abs(_inner(u, w))


def is_order_two(M) -> bool:
    """Whether a special unitary matrix squares to I without being I.

    Equivalently, whether it is conjugate to the standard involution
    diag(1, -1, -1): order 2 in SU(3) forces eigenvalues (1, -1, -1).
    Raises if the input is not special unitary within tolerance.
    """
    M = _as_matrix(M)[None]
    if not _special_unitary(M)[0]:
        raise ValueError(_NOT_SPECIAL_UNITARY)
    order_two, _ = _order_two(M)
    return bool(order_two[0])


def reflection_from_line(v) -> np.ndarray:
    """The order-2 special unitary fixing the line of ``v``.

    Returns 2 v v* - I, which negates the orthogonal complement; the
    result only depends on the line, not the phase of ``v``.
    """
    lines = _as_vector(v)[None]
    _require_unit(lines)
    return _reflections(lines)[0]


def axis_of(M) -> np.ndarray:
    """Unit vector spanning the 1-eigenspace of an order-2 matrix.

    (M + I)/2 projects onto that eigenspace; its largest column is a
    stable representative.  The phase is canonicalized so the largest
    component is real positive.
    """
    M = _as_matrix(M)[None]
    fault = _first_fault(M)
    if fault is not None:
        raise ValueError(fault[1])
    return _axes(M)[0]


def line_overlap(u, w) -> float:
    """|<u, w>| for unit vectors: 0 for orthogonal lines, 1 for equal ones."""
    return float(_line_overlaps(_as_vector(u), _as_vector(w)))


def random_line(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    return v / np.linalg.norm(v)


def random_special_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-style random SU(3): Gaussian matrix, QR, phase fixes."""
    z = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    det = np.linalg.det(q)
    return q * np.exp(-1j * np.angle(det) / 3.0)


@dataclass(frozen=True)
class OrderTwoProductReport:
    """Numerical record for the product of two order-2 matrices.

    The headline fact: the product is again order 2 exactly when the
    two fixed lines ("axes") are orthogonal, in which case its own axis
    is orthogonal to both.  ``biconditional_holds`` reports whether the
    two sides of that equivalence agreed within tolerance.
    """

    axis_inner: complex
    axes_orthogonal: bool
    product_order_two: bool
    involution_defect: float
    product_axis_overlaps: tuple[float, float] | None
    biconditional_holds: bool

    @property
    def axis_overlap(self) -> float:
        return abs(self.axis_inner)

    @property
    def orthogonal_case_deviation(self) -> float:
        """Largest quantity that should vanish when the axes are orthogonal."""
        if not self.axes_orthogonal:
            return 0.0
        worst = max(self.axis_overlap, self.involution_defect)
        if self.product_axis_overlaps is not None:
            worst = max(worst, *self.product_axis_overlaps)
        return worst


def _check_order_two_products(S: np.ndarray, T: np.ndarray) -> list[OrderTwoProductReport]:
    """:func:`check_order_two_product` on each pair ``(S[i], T[i])``, unchecked.

    The caller vouches that both stacks hold order-2 special unitaries.
    """
    a, b = _axes(S), _axes(T)
    product = S @ T
    order_two, defect = _order_two(product)
    c = _axes(product[order_two])
    # overlaps of each order-2 product's axis with both input axes, in pair order
    overlaps = zip(
        _line_overlaps(c, a[order_two]).tolist(), _line_overlaps(c, b[order_two]).tolist()
    )
    reports = []
    for inner, two, d in zip(_inner(a, b).tolist(), order_two.tolist(), defect.tolist()):
        orthogonal = abs(inner) <= _TOL
        reports.append(
            OrderTwoProductReport(
                axis_inner=inner,
                axes_orthogonal=orthogonal,
                product_order_two=two,
                involution_defect=d,
                product_axis_overlaps=next(overlaps) if two else None,
                biconditional_holds=two == orthogonal,
            )
        )
    return reports


def check_order_two_product(S, T) -> OrderTwoProductReport:
    """Measure the order-2-product criterion on a pair of involutions.

    Both arguments must be order-2 special unitaries; an error names the
    first that is not, and why.  The report pairs the overlap of their axes
    with the involution defect ||(ST)^2 - I|| of the product, and, when the
    product is again order 2, the overlap of its axis with each input axis.
    """
    pair = np.stack((_as_matrix(S), _as_matrix(T)))
    fault = _first_fault(pair)
    if fault is not None:
        raise ValueError(f"{'ST'[fault[0]]}: {fault[1]}")
    return _check_order_two_products(pair[:1], pair[1:])[0]


# ----------------------------------------------------------------------
# decorations on a map


def _require_one_per_edge(cmap: CombinatorialMap, items, kind: str, unit: str) -> None:
    """Raise ``ValueError`` unless ``items`` has one entry per edge, free loops included."""
    if len(items) != cmap.n_edges:
        raise ValueError(f"{kind} has {len(items)} {unit}, map has {cmap.n_edges} edges")


def _vertex_triples(cmap: CombinatorialMap) -> np.ndarray:
    """The map's edge ids at every vertex, in rotation order, as a (V, 3) array."""
    return np.array(cmap._vertex_edges, dtype=np.intp).reshape(-1, 3)


def _worst_overlap(cmap: CombinatorialMap, triples: np.ndarray, lines: np.ndarray) -> float:
    """Worst overlap of incident lines over the map's vertex triples; 1 at a self-loop."""
    if cmap.has_self_loop:
        return 1.0
    overlaps = _line_overlaps(lines[triples[:, _PAIR_FIRST]], lines[triples[:, _PAIR_SECOND]])
    # max, unlike fmax, lets a NaN overlap through
    return float(np.max(overlaps, initial=0.0))


def admissibility_deviation(cmap: CombinatorialMap, decoration) -> float:
    """Worst pairwise overlap of incident lines over all vertices.

    Zero (up to rounding) means admissible; a vertex self-loop makes
    the same line incident to itself, so the deviation is 1.  A NaN
    overlap makes it NaN, which no tolerance admits.
    """
    _require_one_per_edge(cmap, decoration, "decoration", "lines")
    lines, error = _stack(decoration, _as_vector, (3,))
    if error is not None:
        raise error
    return _worst_overlap(cmap, _vertex_triples(cmap), lines)


def decoration_to_representation(cmap: CombinatorialMap, decoration) -> np.ndarray:
    """Order-2 matrices of an admissible decoration, as one (E, 3, 3) stack by edge.

    Raises :class:`InadmissibleDecorationError` when incident lines are
    not pairwise orthogonal within tolerance.  Around every vertex the
    three matrices multiply to the identity (in any order: reflections
    in pairwise-orthogonal lines commute).
    """
    _require_one_per_edge(cmap, decoration, "decoration", "lines")
    lines, error = _stack(decoration, _as_vector, (3,))
    _require_unit(lines)
    if error is not None:
        raise error
    deviation = _worst_overlap(cmap, _vertex_triples(cmap), lines)
    if not deviation <= _TOL:
        raise InadmissibleDecorationError(
            f"incident lines overlap by {deviation:.3e} (tolerance {_TOL:.1e})"
        )
    return _reflections(lines)


def representation_to_decoration(matrices) -> np.ndarray:
    """Fixed lines of order-2 matrices, as one (E, 3) stack indexed like the input.

    Raises ``ValueError`` naming the edge if some matrix is not an
    order-2 special unitary within tolerance.
    """
    M, error = _stack(matrices, _as_matrix, (3, 3))
    fault = _first_fault(M)
    if fault is None and error is not None:
        if not isinstance(error, ValueError):
            raise error
        fault = len(M), str(error)
    if fault is not None:
        raise ValueError(f"edge {fault[0]}: {fault[1]}")
    return _axes(M)


def vertex_product_deviation(cmap: CombinatorialMap, matrices) -> float:
    """Worst ||M1 M2 M3 - I|| over vertices, factors in rotation order; NaN if any is.

    Raises ``ValueError`` naming the first edge whose matrix is not 3x3,
    before any product, where broadcasting would have hidden it.
    """
    _require_one_per_edge(cmap, matrices, "representation", "matrices")
    M, error = _stack(matrices, _as_matrix, (3, 3))
    if error is not None:
        if not isinstance(error, ValueError):
            raise error
        raise ValueError(f"edge {len(M)}: {error}")
    triples = _vertex_triples(cmap)
    if not len(triples):
        return 0.0
    products = M[triples[:, 0]] @ M[triples[:, 1]] @ M[triples[:, 2]]
    return float(np.max(_norm(products - _I3, (-2, -1)), initial=0.0))


def _kempe_cycles(triples: np.ndarray, color: np.ndarray) -> tuple[int, np.ndarray]:
    """The (0, 1) Kempe cycles of a Tait coloring: how many, and each edge's.

    At every vertex two edges are colored 0 or 1, and they are consecutive
    on one cycle.  Returns the number of cycles and, per paired edge, its
    cycle's index, or -1 for an edge colored 2.
    """
    along: list[list[int]] = [[] for _ in color]
    for e, f in triples[color[triples] < 2].reshape(-1, 2).tolist():
        along[e].append(f)
        along[f].append(e)
    cycle = [-1] * len(color)
    n = 0
    for start in np.flatnonzero(color < 2).tolist():
        if cycle[start] >= 0:
            continue
        stack = [start]
        while stack:
            e = stack.pop()
            if cycle[e] < 0:
                cycle[e] = n
                stack += along[e]
        n += 1
    return n, np.array(cycle, dtype=np.intp)


def sample_admissible_decoration(cmap: CombinatorialMap, rng=None) -> np.ndarray:
    """Random admissible decoration on a uniformly random Tait coloring.

    A Tait coloring c, drawn uniformly, gives the admissible decoration
    u_e = e_c(e), a fixed point of the diagonal torus of SU(3).  The edges
    colored 0 or 1 form disjoint Kempe cycles; each cycle's lines are
    moved by its own Haar-random unitary of span(e_0, e_1), which keeps
    the two cycle lines at each of its vertices orthogonal to each other
    and to the third line, e_2.  One Haar-random special unitary then
    rotates every line, and each free loop gets a random line.  Every step
    is exact up to rounding, so the result is admissible whenever the map
    has a Tait coloring.  The (E, 3) stack lists paired edges by id, then free loops.

    ``rng`` is anything ``numpy.random.default_rng`` accepts; a Generator
    passed in is advanced by the sample's draws.  Raises
    :class:`RetriesExhaustedError` when the map has no Tait coloring: at
    a vertex self-loop, which admits no decoration at all, and where the
    count is 0, as on the Petersen graph, which says nothing about
    whether admissible decorations exist.
    """
    rng = np.random.default_rng(rng)
    if cmap.has_self_loop:
        raise RetriesExhaustedError("a vertex self-loop admits no admissible decoration")
    color = _random_coloring(cmap, rng)
    if color is None:
        raise RetriesExhaustedError("the map has no Tait coloring to decorate")
    color = np.array(color, dtype=np.intp)
    n, cycle = _kempe_cycles(_vertex_triples(cmap), color)
    # per cycle, the Haar-random SU(2) matrix with columns (a, b) and
    # (-conj b, conj a), for a uniform unit vector (a, b); a phase, the rest
    # of U(2), would move no line
    z = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    a, b = (z / _norm(z, -1)[:, None]).T
    turns = np.array([[a, -b.conj()], [b, a.conj()]]).transpose(2, 0, 1)
    on = color < 2
    lines = np.zeros((len(color), 3), dtype=complex)
    lines[on, :2] = turns[cycle[on], :, color[on]]
    lines[~on, 2] = 1
    lines = lines @ random_special_unitary(rng).T
    return np.vstack([lines, *(random_line(rng) for _ in range(cmap.free_loops))])

"""Planar trivalent multigraphs as combinatorial maps.

A map is a pair of permutations acting on half-edge indices ``0..n-1``:
``twin`` swaps the two halves of every edge, and ``next_at_vertex``
rotates the half-edges counterclockwise around the vertex carrying
them.  Faces are the orbits of ``h -> next_at_vertex[twin[h]]``.  A
rotation system describes an embedding in the sphere exactly when every
connected component satisfies Euler's formula V - E + F = 2; every map
reports whether it does as ``is_planar``, and is built either way.

A vertex is a 3-cycle of ``next_at_vertex``, so the two permutations
are the whole map: vertices are numbered in order of their smallest
half-edge, and no vertex table is stored.  The constructor keeps the
two permutations and runs every structural check, each comparing whole
tables built by C-level gathers (``itemgetter``) instead of stepping
through the half-edges one at a time.  A map built from outside
(``CombinatorialMap(...)``, :func:`build_map`, :func:`parse_map`,
:func:`disjoint_union`) always goes through it.  The one exception is a
map a reduction makes: each move checks the half-edges it rewrote, and
the private ``CombinatorialMap._spliced`` stores the tables as they are,
since the rest was checked before the move.  That holds for a move's
child, and for the map where a reduction's trunk ends, made by a run of
such moves on one working copy of the root's tables.  Everything
derived from the two permutations is a
:func:`functools.cached_property`, built on first read and kept:
``_rotations``, ``vertex_of``, ``edges``, ``_vertex_edges``,
``has_self_loop``, ``_merge_plan``, ``_merge_tables`` and ``_faces``.
``_rotations`` and ``_vertex_edges`` are flat: vertex v's half-edges
and edge ids, in rotation order, sit at 3v..3v + 2 (a self-loop repeats
its edge).  The vertex queries, :mod:`tait.coloring` and
:mod:`tait.su3` read them, and edge endpoints are derived per call, not
kept.  ``_merge_plan`` is the order in which :mod:`tait.coloring`
contracts the vertex tables, one flat tuple derived from the incidence
alone on the first count or draw, so every later count or draw of the
map replays it.  ``_merge_tables`` holds the operands of that
contraction, three flat arrays (the operands and their offsets) that
:mod:`tait.coloring` builds on a map's first draw (a count keeps none),
so every later draw only walks them back.  ``_faces`` is one pass: it
traces the face orbits as tuples of half-edge ids, noting the face of
each half-edge, and runs the Euler count, which finds components by
walking from face to face across ``twin``; ``face_orbits``,
``is_planar`` and ``parse_map(check_planar=True)`` read it.  So a map
that is only searched for moves and rewritten, as in a reduction, or
tested for bipartiteness never builds the vertex and edge tables, the
merge plan or its operands, and a map that is only counted, printed or
decorated never traces its faces.  Nor does a map searched for moves:
``find_move`` and ``available_moves`` share one search that walks the
face permutation built from the two permutations, and a move
keeps a planar map planar, so a reduction traces only its root.

Map text is read in bulk when it is canonical, exactly what
:func:`serialize_map` writes (as ``tait gen`` and a stuck map on stderr
do): one split, C-level ``int`` over slices, a comparison with the
canonical text of the ids read, and the constructor with every check.
Any other text is read line by line.  Both readers give the same map,
or the same error.

Circle components carrying no vertex ("free loops") cannot be encoded
with half-edges, so they live in a separate counter.  Each free loop is
one edge of the graph, so the total edge count is ``n/2 + free_loops``.

Vertices, half-edges, edges and faces all use dense integer ids.
Vertices, edges and faces are listed in order of their smallest
half-edge, which keeps every query deterministic under rebuilds.
"""

from __future__ import annotations

from functools import cached_property
from heapq import heappop, heappush
from itertools import chain
from operator import eq, itemgetter
from typing import Iterable, Sequence

__all__ = [
    "MapError",
    "NonPlanarError",
    "ParseError",
    "CombinatorialMap",
    "build_map",
    "disjoint_union",
    "parse_map",
    "serialize_map",
]


def _gather(table: Sequence, ids: Sequence[int]) -> tuple:
    """``tuple(table[i] for i in ids)`` as one C-level call.

    ``itemgetter`` wants at least one id and returns a bare item for one,
    so shorter id lists take the loop.
    """
    if len(ids) > 1:
        return itemgetter(*ids)(table)
    return tuple([table[i] for i in ids])


def _in_range(i: int, n: int, name: str, plural: str) -> int:
    """``i``, once checked to be one of ``n`` ids; a negative one is not."""
    if not 0 <= i < n:
        raise IndexError(f"{name} {i} out of range for a map with {n} {plural}")
    return i


class MapError(ValueError):
    """Raised when half-edge data does not describe a valid trivalent map."""


class NonPlanarError(MapError):
    """Raised when a rotation system fails the Euler test V - E + F = 2."""


class ParseError(MapError):
    """Raised on malformed graph text."""


class CombinatorialMap:
    """Immutable validated rotation system plus a free-loop counter.

    Construct through :func:`build_map` (which accepts arbitrary integer
    ids and relabels them densely) unless you already hold the two dense
    permutations.
    The constructor runs every structural check, each as a comparison
    of whole tables; only a reduction move's child, checked where the
    move rewrote it, skips them (:meth:`_spliced`).  Faces, planarity,
    the self-loop test, the vertex, edge and rotation tables, the
    coloring count's merge plan and the draw's contraction operands are
    cached properties, built on first read.
    """

    def __init__(
        self,
        twin: Sequence[int],
        next_at_vertex: Sequence[int],
        free_loops: int = 0,
    ):
        twin = tuple(twin)
        sigma = tuple(next_at_vertex)
        n = len(twin)
        if len(sigma) != n:
            raise MapError("half-edge tables have inconsistent lengths")
        if isinstance(free_loops, bool) or not isinstance(free_loops, int) or free_loops < 0:
            raise MapError("free_loops must be a non-negative integer")

        # Each check compares whole tables at once, as C-level gathers;
        # only a failed comparison scans for the first offending index, so
        # the error raised is the one the per-index loops below report.
        halves = tuple(range(n))
        try:
            twin_ok = _gather(twin, twin) == halves and not any(map(eq, twin, halves))
        except (IndexError, TypeError):
            twin_ok = False
        if not twin_ok:
            for h in range(n):
                t = twin[h]
                try:
                    involution = 0 <= t < n and twin[t] == h
                except TypeError:
                    involution = False
                if not involution:
                    raise MapError(f"twin is not an involution at half-edge {h}")
                if t == h:
                    raise MapError(f"twin fixes half-edge {h}")
        # sigma^3 = 1 with no fixed point leaves only 3-cycles: the vertices.
        # It also makes sigma a permutation, with no sort: the entries of
        # sigma^3 are entries of sigma, so if they are 0..n-1 then the n
        # entries of sigma are too (an index read as n - 1 from -1, say,
        # cannot pass).  The sort only picks the message on failure.
        try:
            sigma_ok = _gather(sigma, _gather(sigma, sigma)) == halves and not any(
                map(eq, sigma, halves)
            )
        except (IndexError, TypeError):
            sigma_ok = False
        if not sigma_ok:
            try:
                sigma2 = [sigma[s] for s in sigma] if sorted(sigma) == list(halves) else None
            except TypeError:
                sigma2 = None
            if sigma2 is None:
                raise MapError("next_at_vertex is not a permutation of the half-edges")
            for h in range(n):
                if sigma[h] == h or sigma[sigma2[h]] != h:
                    raise MapError(f"rotation at half-edge {h} is not a single 3-cycle")

        self._twin = twin
        self._sigma = sigma
        self._free_loops = free_loops

    @classmethod
    def _spliced(
        cls, twin: tuple[int, ...], sigma: tuple[int, ...], free_loops: int
    ) -> CombinatorialMap:
        """A map holding ``twin``, ``sigma`` and ``free_loops`` as they are, with no check.

        For a map a reduction makes only: the map before each move was
        checked, and the move checks every half-edge it rewrote, so the
        whole-table checks of the constructor would find nothing.  The
        caller passes tuples.
        """
        cmap = cls.__new__(cls)
        cmap._twin = twin
        cmap._sigma = sigma
        cmap._free_loops = free_loops
        return cmap

    @cached_property
    def _faces(self) -> tuple[tuple[tuple[int, ...], ...], str | None]:
        """Face orbits by smallest half-edge, and ``None`` for a planar map
        or else the Euler count of its first non-planar component.

        Each component's V - E + F is counted as the component is found,
        and the first one that is not 2 ends the search."""
        phi = _gather(self._sigma, self._twin)
        face_of = [-1] * len(phi)
        orbits = []
        for h0, h in enumerate(phi):
            if face_of[h0] >= 0:
                continue
            f = face_of[h0] = len(orbits)
            orbit = [h0]
            while h != h0:
                face_of[h] = f
                orbit.append(h)
                h = phi[h]
            orbits.append(tuple(orbit))

        # connected components as sets of faces, reached a whole frontier
        # at a time across twin: <phi, twin> = <sigma, twin>, so these are
        # the components of the map.  Faces go by smallest half-edge, so a
        # component's first face holds its smallest half-edge, and
        # components are numbered by it.
        across = _gather(face_of, self._twin)
        seen: set[int] = set()
        c = 0  # components found so far
        for f0 in range(len(orbits)):
            if f0 in seen:
                continue
            comp, frontier = set(), {f0}
            while frontier:
                comp |= frontier
                sides = chain.from_iterable(map(orbits.__getitem__, frontier))
                frontier = set(map(across.__getitem__, sides)) - comp
            # V - E + F = n/3 - n/2 + F on a component with n half-edges
            chi = len(comp) - sum([len(orbits[f]) for f in comp]) // 6
            if chi != 2:
                return tuple(orbits), (
                    f"component {c}: V - E + F = {chi}, expected 2 "
                    "(rotation system is not planar)"
                )
            seen |= comp
            c += 1
        return tuple(orbits), None

    # ------------------------------------------------------------------
    # basic queries

    @property
    def twin(self) -> tuple[int, ...]:
        return self._twin

    @property
    def next_at_vertex(self) -> tuple[int, ...]:
        return self._sigma

    @cached_property
    def _rotations(self) -> tuple[int, ...]:
        # each vertex's 3-cycle from its smallest half-edge, vertex v's at 3v..3v + 2
        sigma = self._sigma
        cycles = ((h, s, sigma[s]) for h, s in enumerate(sigma) if h < s and h < sigma[s])
        return tuple(chain.from_iterable(cycles))

    @cached_property
    def vertex_of(self) -> tuple[int, ...]:
        """Vertex of each half-edge; vertices go by smallest half-edge."""
        vertex_of = [0] * len(self._sigma)
        for i, h in enumerate(self._rotations):
            vertex_of[h] = i // 3
        return tuple(vertex_of)

    @property
    def free_loops(self) -> int:
        return self._free_loops

    @property
    def n_half_edges(self) -> int:
        return len(self._twin)

    @property
    def n_vertices(self) -> int:
        return len(self._twin) // 3

    @property
    def n_paired_edges(self) -> int:
        return len(self._twin) // 2

    @property
    def n_edges(self) -> int:
        """Total edge count; free loops included."""
        return len(self._twin) // 2 + self._free_loops

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Half-edge pairs of the non-loop edges, indexed by edge id."""
        return tuple((h, t) for h, t in enumerate(self._twin) if h < t)

    @cached_property
    def _vertex_edges(self) -> tuple[int, ...]:
        # edge ids in rotation order, vertex v's at 3v, 3v + 1 and 3v + 2
        edge_of = [0] * len(self._twin)
        for e, (a, b) in enumerate(self.edges):
            edge_of[a] = edge_of[b] = e
        return _gather(edge_of, self._rotations)

    @cached_property
    def _merge_plan(self) -> tuple[int, ...]:
        """The order in which :mod:`tait.coloring` contracts the vertex
        tables, as one flat tuple; the map must have no vertex self-loop.

        Every vertex starts as a cluster whose open edges are its three
        edges (``_vertex_edges``).  The two adjacent clusters whose merge
        leaves the fewest open edges, ties going to the smaller pair of
        ids, are merged, until each connected component is one cluster
        with no open edge.  A merge that leaves open edges makes a new
        cluster, whose id is the next after every cluster so far and whose
        open edges are those ``a`` keeps, then those ``b`` keeps.

        A pair's key is the open edge count of its merge, ``len(Ea) +
        len(Eb) - 2 * shared``, read from each cluster's map of neighbour
        to shared edge count; a merge adds the two maps and pushes one key
        per neighbour of the new cluster.  Entries for a cluster already
        merged away stay in the heap and are skipped when popped.

        Each merge adds ``a, b, ka, ns, kb``: the two cluster ids and how
        many edges ``a`` keeps, the two share and ``b`` keeps; then those
        edge ids, ``a``'s kept edges, the shared ones and ``b``'s kept
        ones; then the axis order of ``a``'s table with its kept edges
        first and the shared ones last (ka + ns positions in ``a``'s open
        edges), and that of ``b``'s with the shared ones first (ns + kb).
        """
        ve = self._vertex_edges
        # per cluster id: open edges (None once merged away) and each
        # neighbouring cluster -> the number of open edges the two share
        edges: list = [ve[i : i + 3] for i in range(0, len(ve), 3)]
        links: list[dict[int, int]] = [{} for _ in edges]
        endpoints = self._endpoints()
        for u, v in endpoints:
            links[u][v] = links[u].get(v, 0) + 1
            links[v][u] = links[v].get(u, 0) + 1

        # a cluster's open edges are distinct, so a key equals the size of the
        # symmetric difference of the two clusters' open edges; sorted is a heap
        heap = sorted({(6 - 2 * links[u][v], min(u, v), max(u, v)) for u, v in endpoints})
        plan: list[int] = []
        while heap:
            _, a, b = heappop(heap)
            edges_a, edges_b = edges[a], edges[b]
            if edges_a is None or edges_b is None:
                continue
            edges[a] = edges[b] = None
            shared = [e for e in edges_a if e in edges_b]
            keep_a = [e for e in edges_a if e not in shared]
            keep_b = [e for e in edges_b if e not in shared]
            plan += (a, b, len(keep_a), len(shared), len(keep_b), *keep_a, *shared, *keep_b)
            plan += map(edges_a.index, keep_a + shared)
            plan += map(edges_b.index, shared + keep_b)
            open_edges = keep_a + keep_b
            if not open_edges:
                continue
            c = len(edges)  # above every live id
            link = links[a]
            del link[b]
            for d, k in links[b].items():
                if d != a:
                    link[d] = link.get(d, 0) + k
            for d, k in link.items():
                other = links[d]
                other.pop(a, None)
                other.pop(b, None)
                other[c] = k
                heappush(heap, (len(open_edges) + len(edges[d]) - 2 * k, d, c))
            edges.append(open_edges)
            links.append(link)
        return tuple(plan)

    @cached_property
    def _merge_tables(self) -> tuple:
        """The operands of the contraction that ``_merge_plan`` schedules,
        kept for the draws of :mod:`tait.coloring`: three flat read-only
        arrays, the operands and their offsets, built on the first draw
        (``tait.coloring._keep_tables``); the map must have no vertex
        self-loop."""
        from .coloring import _keep_tables  # coloring imports this module

        return _keep_tables(self)

    def _endpoints(self) -> list[tuple[int, int]]:
        """The two vertices of every paired edge, by edge id; built anew on each call."""
        vertex_of = self.vertex_of
        return [(vertex_of[a], vertex_of[b]) for a, b in self.edges]

    @property
    def is_planar(self) -> bool:
        return self._faces[1] is None

    @cached_property
    def has_self_loop(self) -> bool:
        """Whether some edge joins a vertex to itself: its two halves follow
        each other in the vertex's rotation, so some twin is the next half-edge."""
        return any(map(eq, self._twin, self._sigma))

    # The id queries raise IndexError unless the id is in range: a
    # negative id would otherwise index the tables from the end.

    def edge_of(self, h: int) -> int:
        """Edge id of half-edge ``h``."""
        i = 3 * self.vertex_of[_in_range(h, len(self._twin), "half-edge", "half-edges")]
        return self._vertex_edges[self._rotations.index(h, i, i + 3)]

    def rotation(self, v: int) -> tuple[int, int, int]:
        """Counterclockwise half-edge rotation at ``v``, smallest first."""
        i = 3 * _in_range(v, len(self._twin) // 3, "vertex", "vertices")
        return self._rotations[i : i + 3]

    def vertex_edges(self, v: int) -> tuple[int, int, int]:
        """Edge ids incident to ``v`` in rotation order (a self-loop repeats)."""
        i = 3 * _in_range(v, len(self._twin) // 3, "vertex", "vertices")
        return self._vertex_edges[i : i + 3]

    def edge_endpoints(self, e: int) -> tuple[int, int] | None:
        """Vertices of edge ``e``; ``None`` for a free-loop edge."""
        if _in_range(e, self.n_edges, "edge", "edges") >= len(self.edges):
            return None
        a, b = self.edges[e]
        return (self.vertex_of[a], self.vertex_of[b])

    def face_orbits(self) -> tuple[tuple[int, ...], ...]:
        """Half-edge cycle of every face, by smallest half-edge, which comes first."""
        return self._faces[0]

    def is_bipartite(self) -> bool:
        """Whether the vertices 2-color with no monochromatic edge.

        Reads only the two permutations: each 3-cycle of the rotation
        takes one color and the twins of its half-edges the other.  Free
        loops impose no constraint; a vertex self-loop, whose twin sits
        on its own vertex, makes the graph non-bipartite.
        """
        twin, sigma = self._twin, self._sigma
        side = [-1] * len(twin)
        for h0 in range(len(twin)):
            if side[h0] >= 0:
                continue
            stack = [(h0, 0)]
            while stack:
                h, color = stack.pop()
                if side[h] < 0:
                    s = sigma[h]
                    t = sigma[s]
                    side[h] = side[s] = side[t] = color
                    stack += ((twin[h], 1 - color), (twin[s], 1 - color), (twin[t], 1 - color))
                elif side[h] != color:
                    return False
        return True

    def __eq__(self, other) -> bool:
        if not isinstance(other, CombinatorialMap):
            return NotImplemented
        return (
            self._twin == other._twin
            and self._sigma == other._sigma
            and self._free_loops == other._free_loops
        )

    def __hash__(self) -> int:
        return hash((self._twin, self._sigma, self._free_loops))

    def __repr__(self) -> str:
        return (
            f"CombinatorialMap(vertices={self.n_vertices}, "
            f"edges={self.n_edges}, free_loops={self._free_loops})"
        )


def build_map(
    vertex_rotations: Iterable[tuple[int, Sequence[int]]],
    edge_pairs: Iterable[tuple[int, int]],
    free_loops: int = 0,
) -> CombinatorialMap:
    """Build a validated map from rotations and pairings with arbitrary ids.

    ``vertex_rotations`` lists ``(vertex, (h1, h2, h3))`` with the three
    half-edges in counterclockwise order; ``edge_pairs`` matches the same
    half-edge ids two by two.  Ids may be any non-negative integers.
    Half-edges are relabeled densely in sorted order; vertex ids only
    have to be distinct, and vertices are renumbered by smallest
    half-edge, as every map numbers them.  A non-planar rotation system
    is built too, with ``is_planar`` false.
    """
    rotations = list(vertex_rotations)
    pairs = list(edge_pairs)

    vids = [v for v, _ in rotations]
    if len(set(vids)) != len(vids):
        raise MapError("duplicate vertex id")
    rows: list[tuple[int, ...]] = []
    for v, rot in rotations:
        rot = tuple(rot)
        if len(rot) != 3:
            raise MapError(f"vertex {v} lists {len(rot)} half-edges, expected 3")
        rows.append(rot)
    known = set(chain.from_iterable(rows))
    if len(known) != 3 * len(rows):
        raise MapError("half-edge used twice in vertex rotations")

    used = set()
    for a, b in pairs:
        if a == b:
            raise MapError(f"edge pairs half-edge {a} with itself")
        for h in (a, b):
            if h not in known:
                raise MapError(f"half-edge {h} appears in an edge pair but in no rotation")
            if h in used:
                raise MapError(f"half-edge {h} used twice in edge pairs")
            used.add(h)
    unmatched = known - used
    if unmatched:
        raise MapError(f"unmatched half-edge {min(unmatched)} (no edge pair)")

    hid = {h: i for i, h in enumerate(sorted(known))}.__getitem__
    n = len(known)
    sigma = _cycle_table([[hid(rot[i]) for rot in rows] for i in range(3)], n)
    twin = _cycle_table([[hid(a) for a, _ in pairs], [hid(b) for _, b in pairs]], n)
    return CombinatorialMap(twin, sigma, free_loops)


def disjoint_union(a: CombinatorialMap, b: CombinatorialMap) -> CombinatorialMap:
    """Side-by-side copy of two maps, ``b``'s half-edges after ``a``'s; free loops add up."""
    dh = a.n_half_edges
    twin = a.twin + tuple(t + dh for t in b.twin)
    sigma = a.next_at_vertex + tuple(s + dh for s in b.next_at_vertex)
    return CombinatorialMap(twin, sigma, a.free_loops + b.free_loops)


# ----------------------------------------------------------------------
# text format


def _parse_id(token: str, lineno: int, *, strip_colon: bool = False) -> int:
    if strip_colon and token.endswith(":"):
        token = token[:-1]
    if not token.isascii() or not token.isdigit():
        raise ParseError(f"line {lineno}: expected a non-negative integer, got {token!r}")
    try:
        return int(token)
    except ValueError:  # the interpreter's digit limit, kept against quadratic-time parsing
        raise ParseError(f"line {lineno}: integer of {len(token)} digits is too long") from None


def _cycle_table(columns: list[list[int]], n: int) -> tuple[int, ...] | None:
    """The table sending each id to the next in its row across ``columns``,
    the last to the first, or ``None`` unless the ids are ``0..n-1`` once each.

    A row is a vertex's rotation or an edge's two halves, so this builds
    ``next_at_vertex`` and ``twin`` for :func:`build_map`, after it
    relabels the ids, and for the canonical reader, as it reads them.
    """
    if len(columns[0]) * len(columns) != n:
        return None
    table = dict(zip(chain.from_iterable(columns), chain(*columns[1:], columns[0])))
    if len(table) != n:
        return None
    try:
        return _gather(table, range(n))
    except KeyError:
        return None


def _parse_canonical(text: str) -> CombinatorialMap | None:
    """The map of text exactly as :func:`serialize_map` writes it, or ``None``.

    The ids are read from one split of the whole text by C-level ``int``
    over slices, as if it were canonical; the text :func:`serialize_map`
    writes for those ids must then equal ``text``, which rules out every
    other spacing, order, numbering, comment or spelling of an integer,
    and a ``loops 0`` line.  Its rotations and its edges must list the half-edges
    ``0..n-1`` once.  Then the half-edge ids are the dense ones
    :func:`build_map` would assign, every check it runs before the
    constructor passes, and the tables are those it would build.  They
    go to :class:`CombinatorialMap`, whose checks still run and cannot
    fail: the rotations are 3-cycles and the edges pair distinct
    half-edges.  Any other text gets ``None``, and :func:`parse_map`
    reads it line by line.  (A single regular expression over the whole
    text would check it too, but its backtracking state took more peak
    memory than the line loop's whole parse.)
    """
    tokens = text.split()
    v, e = text.count("vertex"), text.count("edge")
    mid, end = 5 * v, 5 * v + 4 * e
    try:
        a, b, c = (list(map(int, tokens[i:mid:5])) for i in (2, 3, 4))
        x, y = (list(map(int, tokens[i:end:4])) for i in (mid + 2, mid + 3))
        loops = int(tokens[-1]) if len(tokens) > end else 0
    except ValueError:  # not an int, or one past the interpreter's digit limit
        return None
    del tokens  # the strings are most of the peak memory of a large text
    if _canonical_text(zip(a, b, c), zip(x, y), loops) != text:
        return None
    sigma, twin = _cycle_table([a, b, c], 3 * v), _cycle_table([x, y], 3 * v)
    if sigma is None or twin is None:
        return None
    return CombinatorialMap(twin, sigma, loops)


def parse_map(text: str, *, check_planar: bool = False) -> CombinatorialMap:
    """Parse the plain-text graph format.

    Lines are ``vertex <id>: <h> <h> <h>``, ``edge <id>: <h> <h>`` and
    ``loops <n>`` (default 0); ``#`` starts a comment.  Structure is
    validated.  A non-planar map is read too, unless ``check_planar``
    asks for :class:`NonPlanarError`, naming its first failing component.

    Canonical text, as :func:`serialize_map` writes it, is read in bulk;
    any other text line by line, with the same results and errors.
    """
    cmap = _parse_canonical(text)
    if cmap is None:
        cmap = _parse_lines(text)
    if check_planar and not cmap.is_planar:
        raise NonPlanarError(cmap._faces[1])
    return cmap


def _parse_lines(text: str) -> CombinatorialMap:
    """The map of any text in the format, read line by line, or the first error in it."""
    rotations: list[tuple[int, tuple[int, int, int]]] = []
    pairs: list[tuple[int, int]] = []
    loops = 0
    seen_vertex: set[int] = set()
    seen_edge: set[int] = set()
    loops_line = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword = tokens[0]
        if keyword == "vertex":
            if len(tokens) != 5:
                raise ParseError(f"line {lineno}: expected 'vertex <id>: <h> <h> <h>'")
            v = _parse_id(tokens[1], lineno, strip_colon=True)
            if v in seen_vertex:
                raise ParseError(f"line {lineno}: duplicate vertex id {v}")
            seen_vertex.add(v)
            h = tuple(_parse_id(t, lineno) for t in tokens[2:])
            rotations.append((v, h))
        elif keyword == "edge":
            if len(tokens) != 4:
                raise ParseError(f"line {lineno}: expected 'edge <id>: <h> <h>'")
            e = _parse_id(tokens[1], lineno, strip_colon=True)
            if e in seen_edge:
                raise ParseError(f"line {lineno}: duplicate edge id {e}")
            seen_edge.add(e)
            a = _parse_id(tokens[2], lineno)
            b = _parse_id(tokens[3], lineno)
            pairs.append((a, b))
        elif keyword == "loops":
            if len(tokens) != 2:
                raise ParseError(f"line {lineno}: expected 'loops <n>'")
            if loops_line:
                raise ParseError(f"line {lineno}: duplicate loops line")
            loops_line = True
            loops = _parse_id(tokens[1], lineno)
        else:
            raise ParseError(f"line {lineno}: unknown directive {keyword!r}")
    try:
        return build_map(rotations, pairs, loops)
    except MapError as exc:
        raise ParseError(str(exc)) from exc


def _canonical_text(
    rotations: Iterable[tuple[int, int, int]], edges: Iterable[tuple[int, int]], free_loops: int
) -> str:
    """The canonical text of rotations and edges, each numbered from 0 in order, and free loops."""
    text = "".join([f"vertex {v}: {a} {b} {c}\n" for v, (a, b, c) in enumerate(rotations)])
    text += "".join([f"edge {e}: {a} {b}\n" for e, (a, b) in enumerate(edges)])
    return text + (f"loops {free_loops}\n" if free_loops else "")


def serialize_map(cmap: CombinatorialMap) -> str:
    """Canonical text for a map; ``parse_map`` inverts it exactly."""
    rot = cmap._rotations
    return _canonical_text(zip(rot[::3], rot[1::3], rot[2::3]), cmap.edges, cmap.free_loops)

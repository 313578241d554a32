"""Face-collapse reduction of planar trivalent maps.

Four local moves rewrite a map into strictly smaller ones:

* ``loop``     removes a free loop and multiplies the result by a weight;
* ``bigon``    deletes a 2-gon face, welding the two outer edges, and
  multiplies by a weight;
* ``triangle`` collapses a 3-gon face to a single vertex;
* ``square``   deletes a 4-gon face together with its four outer
  half-edges and branches into the two ways of rejoining the stubs,
  adding the results.

A move only matches a face whose vertices and edges are pairwise
distinct.  In a cubic map a face that meets one vertex at two corners
runs along the edge between them on both sides, so distinct edges imply
distinct vertices: the matcher compares edges only, and the reduction
reads no vertex data.  Applying moves until every branch reaches the
empty map builds a tree whose value, with weights ``loop=3, bigon=2``,
counts the Tait colorings of the starting map; other weight systems
reuse the same tree.  Two branches often reach identical maps, which
are reduced once: the trace is a DAG whose shared nodes stand for
identical maps, and it prints as the unfolded tree and has its value.  Maps
whose faces all have five or more sides (the dodecahedron is the
smallest) admit no move and raise :class:`IrreducibleError`.
"""

from __future__ import annotations

import enum
import operator
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import compress
from typing import Generic, Iterable, Iterator, Sequence, TypeVar

from .planar import CombinatorialMap, MapError, NonPlanarError, _gather
from .planar import build_map  # noqa: F401  (bench/tracer.py patches it here)

__all__ = [
    "MoveKind",
    "Move",
    "RelationWeights",
    "EULER_WEIGHTS",
    "TraceNode",
    "InvalidMoveError",
    "IrreducibleError",
    "available_moves",
    "find_move",
    "apply_move",
    "reduce_map",
    "euler_characteristic",
    "format_trace",
]

W = TypeVar("W")


class MoveKind(enum.Enum):
    LOOP = "loop"
    BIGON = "bigon"
    TRIANGLE = "triangle"
    SQUARE = "square"


@dataclass(frozen=True)
class Move:
    """A matched move site: the face's half-edge cycle, empty for a loop."""

    kind: MoveKind
    half_edges: tuple[int, ...] = ()


@dataclass(frozen=True)
class RelationWeights(Generic[W]):
    """Multipliers of the loop and bigon moves; triangles, squares and empty maps carry ``one``."""

    loop: W
    bigon: W

    @cached_property
    def one(self) -> W:  # the unit of the weights' ring, derived once
        return self.loop**0


EULER_WEIGHTS = RelationWeights(loop=3, bigon=2)


class InvalidMoveError(MapError):
    """Raised when a move is applied to a site that does not match it."""


class IrreducibleError(Exception):
    """Raised when a non-empty map admits none of the four moves.

    The message gives the smallest face degree and how many faces of
    degree at most 4 are degenerate; the stuck map is kept on ``graph``,
    and ``path`` holds the ``(move, child index)`` steps that reach it
    from the root map: ``apply_move(g, move)[index]`` for each in turn.
    """

    def __init__(self, graph: CombinatorialMap, path: tuple[tuple[Move, int], ...] = ()):
        small = [orbit for orbit in graph.face_orbits() if len(orbit) <= 4]
        smallest = min(map(len, graph.face_orbits()), default=0)
        reason = f"every face has five or more sides (smallest face degree {smallest})"
        if small:
            degenerate = sum(_orbit_kind(graph.twin, orbit) is None for orbit in small)
            reason = (
                f"smallest face degree {smallest}, and {degenerate} faces of degree "
                "at most 4 are degenerate (a monogon, or a repeated vertex or edge)"
            )
        super().__init__(f"no reducible face in {graph!r}; {reason}")
        self.graph = graph
        self.path = path


@dataclass(frozen=True, eq=False, repr=False)
class TraceNode(Generic[W]):
    """One evaluation step: the move taken and its factor.

    Leaves stand for empty maps and carry the unit multiplier and no
    move.  The node's value is ``multiplier * sum(child values)``, or just
    ``multiplier`` at a leaf.  Nodes keep no maps: replaying
    :func:`apply_move` from the root map along the moves rebuilds them.
    A node made by :func:`reduce_map` may be the child of several nodes,
    or twice of one, when their maps are identical.  A node is an
    identity: it equals only itself, hashes by identity and prints as
    ``object`` does, so none of these walks its children.
    :func:`format_trace` is the one walk that unfolds a trace into its
    tree, and :meth:`value` gives the unfolded tree's value but evaluates
    each distinct node once.
    """

    move: Move | None
    multiplier: W
    children: tuple["TraceNode[W]", ...]

    def value(self) -> W:
        """The node's value, each distinct node evaluated once.

        Nodes are told apart by identity.  One walk lists the distinct
        nodes in post-order and counts the parent slots naming each,
        repeats included; a node's value is then kept only until its
        last parent slot has read it.
        """
        order: list[TraceNode[W]] = []
        unread: dict[TraceNode[W], int] = {}  # parent slots not yet read
        begun: set[TraceNode[W]] = set()
        stack = [(self, False)]
        while stack:
            node, ready = stack.pop()
            if ready:
                order.append(node)
            elif node not in begun:
                begun.add(node)
                stack.append((node, True))
                for child in node.children:
                    unread[child] = unread.get(child, 0) + 1
                    stack.append((child, False))
        values: dict[TraceNode[W], W] = {}
        for node in order:
            total = None
            for child in node.children:
                unread[child] -= 1
                v = values[child] if unread[child] else values.pop(child)
                total = v if total is None else total + v
            values[node] = node.multiplier if total is None else node.multiplier * total
        return values[self]


def _orbit_kind(twin: Sequence[int], orbit: tuple[int, ...]) -> MoveKind | None:
    """The move matching the face with half-edge cycle ``orbit`` under ``twin``, or ``None``.

    Distinct edges suffice.  Any two of the three half-edges at a vertex
    are neighbours in its rotation, so a face with two corners at one
    vertex leaves it along some half-edge ``h`` at one corner and comes
    back along ``h``'s edge at the other: it holds both halves of an edge.
    """
    degree = len(orbit)
    if not 2 <= degree <= 4:
        return None
    # an edge is named by its smaller half-edge, as in the edge table
    if len({min(h, twin[h]) for h in orbit}) != degree:
        return None
    return MoveKind.BIGON if degree == 2 else MoveKind.TRIANGLE if degree == 3 else MoveKind.SQUARE


def _site(twin: Sequence[int], sigma: Sequence[int], h: int, sides: int) -> Move | None:
    """The move at the face of ``sides`` sides whose smallest half-edge is ``h``, or ``None``.

    The walk follows the face permutation ``sigma[twin[x]]`` from ``h``
    and stops at the first half-edge not above ``h``: the whole face if
    ``h`` is its smallest half-edge, less otherwise.  A face so found
    with ``sides`` sides takes the move :func:`_orbit_kind` gives it.
    Both move searches ask this of each candidate: :func:`_moves` of
    each fixed point of ``phi^d``, :func:`_trunk` of each heap entry.
    """
    orbit, x = [h], sigma[twin[h]]
    while x > h:
        orbit.append(x)
        x = sigma[twin[x]]
    kind = _orbit_kind(twin, orbit) if x == h and len(orbit) == sides else None
    return None if kind is None else Move(kind, tuple(orbit))


def _moves(cmap: CombinatorialMap) -> Iterator[Move]:
    """Every matching move: a loop, then faces of 2, 3 and 4 sides, each by smallest half-edge.

    No face is traced.  With the face permutation ``phi = sigma . twin``,
    a half-edge on a face of ``d`` sides is a fixed point of ``phi^d``.
    For ``d = 2, 3, 4`` one gather takes ``phi^d`` from ``phi^(d-1)``, and
    :func:`_site` walks its fixed points in increasing order, each walk
    dropped at a smaller half-edge, so a face is met once, where its
    orbit starts.  The gathers are lazy: the first move of the first
    square child of ``prism(60)`` (116 vertices; a bigon) takes about
    8 us, against about 48 us to trace its faces and count components
    (Python 3.11.7, Xeon).
    """
    if cmap.free_loops > 0:
        yield Move(MoveKind.LOOP)
    twin, sigma = cmap.twin, cmap.next_at_vertex
    halves = range(cmap.n_half_edges)
    phi = _gather(sigma, twin)
    power = phi
    for degree in (2, 3, 4):
        power = _gather(phi, power)
        # a fixed point of phi^d lies on a face whose sides divide d
        for h in compress(halves, map(operator.eq, power, halves)):
            move = _site(twin, sigma, h, degree)
            if move is not None:
                yield move


def available_moves(cmap: CombinatorialMap) -> list[Move]:
    """Every matching move, loop first, then faces by smallest half-edge.

    :func:`_moves` finds them from the two permutations; no face is traced.
    """
    return sorted(_moves(cmap), key=operator.attrgetter("half_edges"))


def find_move(cmap: CombinatorialMap) -> Move | None:
    """Highest-priority move: loop, then bigon, triangle, square, ties by smallest half-edge.

    The first of :func:`_moves`, found from the two permutations; no face is traced.
    """
    return next(_moves(cmap), None)


def _checked_face(
    cmap: CombinatorialMap, half_edges: Iterable[int], kind: MoveKind
) -> tuple[int, ...]:
    """``half_edges`` as ints, once checked to be a face cycle from its smallest half-edge.

    Unlike the move search, this reads the traced faces, which
    :func:`apply_move`'s planarity check has already traced.  A site
    that is not iterable, or ids that are not integers
    (``operator.index`` refuses them), name no face.
    """
    try:
        half_edges = tuple(half_edges)
        site = tuple(map(operator.index, half_edges))
    except TypeError:
        site = None
    if site not in cmap.face_orbits():
        raise InvalidMoveError(f"no face with half-edge cycle {half_edges}")
    if _orbit_kind(cmap.twin, site) is not kind:
        raise InvalidMoveError(f"face {half_edges} does not match a {kind.value} move")
    return site


def _splice(
    twin: list[int],
    sigma: list[int],
    dead_half: set[int],
    welds: Iterable[tuple[int, int]] = (),
    patch: tuple[tuple[int, int], ...] = (),
) -> tuple[int, list[int]]:
    """Rewrite ``twin`` and ``sigma`` in place for a move; return ``(new_loops, survivors)``.

    ``new_loops`` counts the free loops the move closes, and ``survivors``
    lists, in increasing order, the surviving half-edges it checked.

    Each weld ``(a, b)`` joins ``twin[a]`` with ``twin[b]``, in any order:
    a run of welds joins the half-edges at its two ends, and a weld whose
    stubs are already twins closes a circle, a free loop.  Each ``(h, s)``
    in ``patch`` sets ``sigma[h] = s``, as a collapsed triangle puts its
    outer half-edges on one new vertex.

    Only what the move touched is checked: the twin and the
    rotation-predecessor of each dead half-edge, both halves and both
    stubs of each weld, and each patched half-edge with the two others of
    its old vertex.  Each survivor among them needs a surviving twin that
    is an involution partner and not itself, and a surviving 3-cycle;
    otherwise :class:`MapError` names it.  Every other survivor kept its
    twin and its vertex, both valid before the move, so the tables hold a
    valid map again: the cost is O(face), not O(n).  The check reads only
    this move's ``dead_half``, which is exact for tables holding ids that
    earlier moves removed: no survivor points at those.
    """
    touched = set()
    for d in dead_half:
        touched.add(twin[d])
        touched.add(sigma[sigma[d]])
    for h, _ in patch:
        touched.update((h, sigma[h], sigma[sigma[h]]))
    new_loops = 0
    for a, b in welds:
        ta, tb = twin[a], twin[b]
        touched.update((a, b, ta, tb))
        if ta == b:
            new_loops += 1
        else:
            twin[ta], twin[tb] = tb, ta
    for h, s in patch:
        sigma[h] = s
    survivors = sorted(touched - dead_half)
    for h in survivors:
        t = twin[h]
        if t in dead_half or t == h or twin[t] != h:
            raise MapError(f"half-edge {h} has no surviving twin after the move")
        s = sigma[h]
        if s == h or s in dead_half or sigma[s] in dead_half or sigma[sigma[s]] != h:
            raise MapError(f"half-edge {h} is not on a surviving 3-cycle after the move")
    return new_loops, survivors


def _relabel(
    twin: list[int], sigma: list[int], dead: list[int], free_loops: int
) -> CombinatorialMap:
    """The map of the survivors of ``twin`` and ``sigma``, relabelled densely.

    ``dead`` lists the removed ids in increasing order, and no survivor
    points at one of them.  Survivors keep their relative order, and
    vertices are numbered by smallest half-edge.  The survivors between
    two dead ids form a run, and the j-th run moves down by j: the new-id
    table is ``0..m-1`` with ``-1`` inserted at each dead id, in
    increasing order.  Deleting the dead entries from ``twin`` and
    ``sigma``, highest first, leaves the survivors' entries, and one
    gather through the table maps both, so no ``-1`` is read.  The
    tables are checked already, so ``CombinatorialMap._spliced`` stores
    them as they are.
    """
    m = len(twin) - len(dead)
    new_id = list(range(m))
    for d in dead:
        new_id.insert(d, -1)
    for d in reversed(dead):
        del twin[d], sigma[d]
    # one gather maps both tables, so they share new_id's int objects
    tables = _gather(new_id, twin + sigma)
    return CombinatorialMap._spliced(tables[:m], tables[m:], free_loops)


def _rebuild(
    cmap: CombinatorialMap,
    dead_half: set[int],
    welds: Iterable[tuple[int, int]] = (),
    patch: tuple[tuple[int, int], ...] = (),
) -> CombinatorialMap:
    """The child of ``cmap`` that :func:`_splice` makes, relabelled by :func:`_relabel`.

    The splice rewrites copies of both tables and checks the half-edges
    it touched, so the child costs one copy and one relabel of the
    parent's tables on top of O(face).
    """
    twin, sigma = list(cmap.twin), list(cmap.next_at_vertex)
    new_loops, _ = _splice(twin, sigma, dead_half, welds, patch)
    return _relabel(twin, sigma, sorted(dead_half), cmap.free_loops + new_loops)


def _rewrite(
    twin: Sequence[int], sigma: Sequence[int], kind: MoveKind, face: Sequence[int]
) -> tuple[set[int], tuple[tuple, ...], tuple[tuple[int, int], ...]]:
    """``(dead, ways, patch)`` of a ``kind`` face move at ``face``: what :func:`_splice` takes.

    The move cuts out the face's edges; ``x[i] = sigma(k[i])`` is the
    outer half-edge at its corner ``k[i]``.  A triangle's ``patch`` puts
    ``x`` on one new vertex.  A bigon or square also cuts the spokes
    through ``x`` and welds the stubs left behind in pairs, one weld list
    per child in ``ways``: a bigon ``x[0]`` to ``x[1]``, a square its four
    in both planar ways.
    """
    x = [sigma[k] for k in face]
    dead = {*face, *[twin[k] for k in face]}
    if kind is MoveKind.TRIANGLE:
        # x on one vertex in reversed face order keeps the rotation planar
        return dead, ((),), ((x[0], x[2]), (x[2], x[1]), (x[1], x[0]))
    dead.update(x)
    # a square rejoins both planar ways: x, and x turned by one
    ways = (x,) if kind is MoveKind.BIGON else (x, x[1:] + x[:1])
    return dead, tuple([tuple(zip(y[::2], y[1::2])) for y in ways]), ()


def apply_move(
    cmap: CombinatorialMap, move: Move
) -> tuple[CombinatorialMap, ...]:
    """Children produced by ``move``: two for a square, one otherwise.

    Raises :class:`NonPlanarError` for a map that does not embed in the
    sphere, whatever the move, and :class:`InvalidMoveError` unless the
    kind is a :class:`MoveKind` and the site is a face matching it, or
    ``()`` for a loop; then :func:`_apply` makes the children.
    """
    if not cmap.is_planar:
        raise NonPlanarError("reduction moves are only valid for planar maps")
    kind = move.kind
    if not isinstance(kind, MoveKind):
        raise InvalidMoveError(f"unknown move kind {kind!r}")
    if kind is MoveKind.LOOP:
        if not isinstance(move.half_edges, tuple) or move.half_edges:
            raise InvalidMoveError(f"a loop move has the empty site (), not {move.half_edges!r}")
        if cmap.free_loops == 0:
            raise InvalidMoveError("no free loop to remove")
        return _apply(cmap, kind, ())
    return _apply(cmap, kind, _checked_face(cmap, move.half_edges, kind))


def _apply(
    cmap: CombinatorialMap, kind: MoveKind, face: tuple[int, ...]
) -> tuple[CombinatorialMap, ...]:
    """The children of a ``kind`` move at ``face``, a site already known to match it.

    A loop move drops one free loop.  A face move makes one child per
    way of :func:`_rewrite`, each by :func:`_rebuild`.  Each move
    rewrites the closed disk of one face, so the children of a planar
    map are planar.
    """
    if kind is MoveKind.LOOP:
        # the tables are the parent's, already checked
        return (CombinatorialMap._spliced(cmap.twin, cmap.next_at_vertex, cmap.free_loops - 1),)
    dead, ways, patch = _rewrite(cmap.twin, cmap.next_at_vertex, kind, face)
    return tuple([_rebuild(cmap, dead, welds, patch) for welds in ways])


def _multiplier(move: Move, weights: RelationWeights[W]) -> W:
    if move.kind is MoveKind.LOOP:
        return weights.loop
    if move.kind is MoveKind.BIGON:
        return weights.bigon
    return weights.one


def _trunk(cmap: CombinatorialMap) -> tuple[tuple[Move, ...], CombinatorialMap]:
    """The moves :func:`find_move` takes from planar ``cmap`` up to a square, and the map there.

    Until a square branches, each map has one child and none is met
    twice, so these moves rewrite one working copy of the tables in
    place, in ``cmap``'s ids, through :func:`_rewrite` and
    :func:`_splice`.  ``live`` marks the surviving half-edges and
    ``dead`` lists the removed ones in increasing order; a survivor's id
    in the current map is ``h - bisect_left(dead, h)``, as relabelling
    keeps the survivors' order, so each move prints as in
    :func:`find_move`.

    The next face comes from a heap of ``(sides, smallest half-edge)``,
    which orders bigons before triangles and ties by smallest half-edge,
    as :func:`_moves` does.  The heap starts with ``cmap``'s faces of two
    and three sides, and after each move it takes the faces of at most
    three sides through each survivor that :func:`_splice` checked.
    Every face the move changed runs through one: a bigon's two weld
    stubs, and a triangle's three outer half-edges, each of which comes
    right after a half-edge ``twin[x]`` whose face successor changed.
    Every other face kept its cycle, and a changed face keeps a subset of
    its old one, so every current face of two or three sides has an
    entry; an entry is used only if its half-edge is live and
    :func:`_site` finds a move there.

    Free loops come first, the root's and each one a weld closes, as in
    :func:`find_move`.  The trunk ends when no bigon or triangle is left:
    at a square, the empty map, or a stuck map.  That map is relabelled
    once by :func:`_relabel`; with no move, it is ``cmap`` itself.
    """
    twin, sigma = list(cmap.twin), list(cmap.next_at_vertex)
    live = bytearray(b"\x01") * len(twin)
    dead: list[int] = []
    heap = [(len(orbit), orbit[0]) for orbit in cmap.face_orbits() if 2 <= len(orbit) <= 3]
    heapify(heap)
    moves = [Move(MoveKind.LOOP)] * cmap.free_loops
    while heap:
        sides, h = heappop(heap)
        move = _site(twin, sigma, h, sides) if live[h] else None
        if move is None:
            continue
        moves.append(Move(move.kind, tuple([k - bisect_left(dead, k) for k in move.half_edges])))
        dead_half, (welds,), patch = _rewrite(twin, sigma, move.kind, move.half_edges)
        new_loops, survivors = _splice(twin, sigma, dead_half, welds, patch)
        # a free loop the weld closes is the next move
        moves += [Move(MoveKind.LOOP)] * new_loops
        for d in dead_half:
            live[d] = 0
            insort(dead, d)
        for c in survivors:
            orbit, x = [c], sigma[twin[c]]
            while x != c and len(orbit) < 3:
                orbit.append(x)
                x = sigma[twin[x]]
            if x == c and len(orbit) >= 2:
                heappush(heap, (len(orbit), min(orbit)))
    if not moves:
        return (), cmap
    return tuple(moves), _relabel(twin, sigma, dead, 0)


def reduce_map(
    cmap: CombinatorialMap, weights: RelationWeights[W] = EULER_WEIGHTS
) -> TraceNode[W]:
    """Reduce to the empty map, recording every move in a trace.

    Every map takes its :func:`find_move`.  Runs that finish agree on the
    value whatever the order of moves, but any order can strand on a
    zero-count intermediate map (a vertex self-loop blocks every move):
    priority order strands on 14-16% of random planar cubic maps with
    60-100 vertices.  See ROADMAP.md, item 1.

    The root's trunk, its moves up to the first square, has one child
    per map, so :func:`_trunk` applies those moves to one working copy of
    the root's tables and relabels once, where the trunk ends; a long
    run of bigons costs O(face) per move, not O(n).  The trunk's moves
    go on the stack as exit frames of one child each, under the map
    where it ends, and the loop below takes over from there.

    One loop over an explicit stack visits the maps depth first, children
    in order, and drops each map once its move has been applied: no
    depth meets the recursion limit, and only maps still waiting on the
    stack are held.  A node is built once its children are, in post-order.

    Each distinct map is reduced once.  A map expanded while another
    waits on the stack is recorded in a memo, keyed by its own tables
    ``(twin, next_at_vertex, free_loops)``, with its finished node; a
    later map with the same tables takes that node as it is, so the
    trace is a DAG.  This is exact: the move and children depend on the
    tables alone, a move shrinks the map, so no map meets a copy of
    itself below it, and depth first finishes a subtree before any later
    branch is begun.  The memo holds nodes and the keys' tables, not the
    maps, and lives until the call returns.  The first stuck map in
    depth-first order is the one an unshared walk would meet, and
    :class:`IrreducibleError` gives the move path from the root to it.

    Only the root is checked to embed in the sphere, and so only the
    root's faces are traced: each move rewrites one face's closed disk,
    so every map a move makes from a planar map is planar, the trunk
    starts from the root's faces, and :func:`find_move` finds moves
    without tracing faces.  Raises
    :class:`NonPlanarError` for a root that does not embed, and
    :class:`IrreducibleError` when no move matches.
    """
    if not cmap.is_planar:
        raise NonPlanarError("reduction moves are only valid for planar maps")
    # a map waiting to be expanded, or the exit frame (move, multiplier,
    # number of children, memo key or None) of a map whose children are
    # above it; the exit frames on the stack are the current map's ancestors
    trunk, end = _trunk(cmap)
    stack: list[CombinatorialMap | tuple] = [
        (move, _multiplier(move, weights), 1, None) for move in trunk
    ]
    stack.append(end)
    waiting = 1  # maps on the stack, exit frames not counted
    memo: dict[tuple, TraceNode[W]] = {}
    done: list[TraceNode[W]] = []  # finished nodes whose parent is not finished yet
    while stack:
        entry = stack.pop()
        if type(entry) is tuple:
            move, multiplier, n_children, key = entry
            node = TraceNode(move, multiplier, tuple(done[-n_children:]))
            del done[-n_children:]
        else:
            graph, waiting = entry, waiting - 1
            key = (graph.twin, graph.next_at_vertex, graph.free_loops)
            node = memo.get(key) if memo else None
            if node is not None:
                done.append(node)
                continue
            # only a branch still waiting on the stack can meet this map again
            key = key if waiting else None
            if graph.n_half_edges == 0 and graph.free_loops == 0:
                node = TraceNode(None, weights.one, ())
            else:
                move = find_move(graph)
                if move is None:
                    raise IrreducibleError(graph, _path(stack))
                children = _apply(graph, move.kind, move.half_edges)
                stack.append((move, _multiplier(move, weights), len(children), key))
                stack.extend(reversed(children))
                waiting += len(children)
                continue
        if key is not None:
            memo[key] = node
        done.append(node)
    return done[0]


def _path(stack: list) -> tuple[tuple[Move, int], ...]:
    """``(move, child index)`` from the root to the map just popped off ``stack``.

    Each exit frame on the stack is an ancestor, and the maps above it
    up to the next frame are its children not yet begun; children are
    pushed last first, so ``k`` of them left means child ``n - 1 - k``.
    """
    path: list[tuple[Move, int]] = []
    for entry in stack:
        if type(entry) is tuple:
            path.append((entry[0], entry[2] - 1))
        else:
            move, index = path[-1]
            path[-1] = (move, index - 1)
    return tuple(path)


def euler_characteristic(cmap: CombinatorialMap) -> int:
    """Value of the reduction under weights ``loop=3, bigon=2``.

    Equals the Tait coloring count whenever the reduction terminates.
    """
    return reduce_map(cmap, EULER_WEIGHTS).value()


def format_trace(root: TraceNode) -> str:
    """Indented one-line-per-node rendering of a trace unfolded into its tree, in pre-order."""
    lines: list[str] = []
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        pad = "  " * depth
        if node.move is None:
            lines.append(f"{pad}{depth} empty {node.multiplier}")
            continue
        site = ",".join(str(h) for h in node.move.half_edges) or "-"
        lines.append(f"{pad}{depth} {node.move.kind.value} {site} {node.multiplier}")
        stack.extend((child, depth + 1) for child in reversed(node.children))
    return "\n".join(lines)

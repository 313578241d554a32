"""Reduction moves, traces, and the loop/bigon-weighted evaluation."""

import dataclasses
import inspect
import operator
import random
import re
import sys
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tait import reduction
from tait.catalog import circle, cube, dodecahedron, k4, necklace, petersen, prism, theta
from tait.coloring import count_tait
from tait.laurent import P3_WEIGHTS, LaurentPoly, p3
from tait.planar import (
    CombinatorialMap,
    MapError,
    NonPlanarError,
    disjoint_union,
    serialize_map,
)
from tait.reduction import (
    EULER_WEIGHTS,
    InvalidMoveError,
    IrreducibleError,
    Move,
    MoveKind,
    RelationWeights,
    TraceNode,
    _checked_face,
    _orbit_kind,
    apply_move,
    available_moves,
    euler_characteristic,
    find_move,
    format_trace,
    reduce_map,
)
from tait.verify import frontier_conservation
from test_coloring import CATALOG_MAPS, UNIONS, dumbbell, random_planar_cubic


def kinds(g: CombinatorialMap) -> set:
    return {_orbit_kind(g.twin, orbit) for orbit in g.face_orbits()}


def test_classify_face_by_degree():
    assert kinds(theta()) == {MoveKind.BIGON}
    assert kinds(k4()) == {MoveKind.TRIANGLE}
    assert kinds(cube()) == {MoveKind.SQUARE}
    assert kinds(dodecahedron()) == {None}


def test_classify_face_rejects_degenerate_faces():
    # A self-loop makes a monogon and a square that revisits its vertices.
    g = dumbbell()
    degrees = sorted(map(len, g.face_orbits()))
    assert degrees == [1, 1, 4]
    assert kinds(g) == {None}


def test_available_moves_order():
    assert available_moves(circle()) == [Move(MoveKind.LOOP)]
    assert [m.kind for m in available_moves(theta())] == [MoveKind.BIGON] * 3
    both = available_moves(disjoint_union(circle(), theta()))
    assert both[0] == Move(MoveKind.LOOP)
    assert len(both) == 4
    assert available_moves(dumbbell()) == []
    assert [(m.kind.value, m.half_edges) for m in available_moves(necklace(2))] == [
        ("square", (0, 3, 6, 9)),
        ("bigon", (1, 5)),
        ("square", (2, 10, 8, 4)),
        ("bigon", (7, 11)),
    ]


def test_find_move_priority():
    assert find_move(disjoint_union(circle(), theta())).kind is MoveKind.LOOP
    assert find_move(theta()) == Move(MoveKind.BIGON, (0, 5))
    assert find_move(k4()) == Move(MoveKind.TRIANGLE, (0, 3, 6))
    assert find_move(cube()) == Move(MoveKind.SQUARE, (0, 6, 12, 18))
    # bigon beats the square that starts at a smaller half-edge
    assert find_move(necklace(2)) == Move(MoveKind.BIGON, (1, 5))
    assert find_move(dumbbell()) is None
    assert find_move(CombinatorialMap((), (), 0)) is None


def test_apply_loop():
    (g,) = apply_move(circle(), Move(MoveKind.LOOP))
    assert (g.n_half_edges, g.free_loops) == (0, 0)
    with pytest.raises(InvalidMoveError, match="no free loop"):
        apply_move(theta(), Move(MoveKind.LOOP))
    # a loop's site is empty: a face cycle or any other value is refused
    g = disjoint_union(theta(), circle())
    for site, shown in (((0, 5), r"\(0, 5\)"), ("garbage", "'garbage'"), ([], r"\[\]")):
        with pytest.raises(
            InvalidMoveError, match=f"^a loop move has the empty site \\(\\), not {shown}$"
        ):
            apply_move(g, Move(MoveKind.LOOP, site))


def test_apply_bigon_on_theta():
    (g,) = apply_move(theta(), Move(MoveKind.BIGON, (0, 5)))
    assert (g.n_vertices, g.n_half_edges, g.free_loops) == (0, 0, 1)
    assert count_tait(g) == 3
    # any of the three bigons leaves one free loop
    for orbit in theta().face_orbits():
        (child,) = apply_move(theta(), Move(MoveKind.BIGON, orbit))
        assert child.free_loops == 1


def test_apply_bigon_rejects_bad_sites():
    with pytest.raises(InvalidMoveError, match=r"^no face with half-edge cycle \(0, 1\)$"):
        apply_move(theta(), Move(MoveKind.BIGON, [0, 1]))
    with pytest.raises(InvalidMoveError, match="^no face with half-edge cycle 5$"):
        apply_move(theta(), Move(MoveKind.BIGON, 5))
    with pytest.raises(InvalidMoveError, match="does not match a bigon"):
        apply_move(k4(), Move(MoveKind.BIGON, (0, 3, 6)))


@pytest.mark.parametrize(
    "cmap, cycle, kind",
    [
        pytest.param(theta(), (), MoveKind.BIGON, id="empty"),
        pytest.param(theta(), (6, 7), MoveKind.BIGON, id="past-last-half-edge"),
        pytest.param(theta(), (-1, 0), MoveKind.BIGON, id="negative"),
        pytest.param(theta(), (0, 99), MoveKind.BIGON, id="later-id-out-of-range"),
        pytest.param(theta(), (5, 0), MoveKind.BIGON, id="bigon-not-from-smallest"),
        pytest.param(k4(), (3, 6, 0), MoveKind.TRIANGLE, id="triangle-rotated-once"),
        pytest.param(k4(), (6, 0, 3), MoveKind.TRIANGLE, id="triangle-rotated-twice"),
        pytest.param(cube(), (6, 12, 18, 0), MoveKind.SQUARE, id="square-rotated"),
        pytest.param(k4(), (0, 3), MoveKind.BIGON, id="prefix-of-a-face"),
        pytest.param(theta(), (0, 5, 0), MoveKind.TRIANGLE, id="face-walked-past-its-end"),
        pytest.param(theta(), ("0", 5), MoveKind.BIGON, id="not-an-id"),
        pytest.param(theta(), (0.0, 5), MoveKind.BIGON, id="float-equal-to-an-id"),
        pytest.param(theta(), (np.array([0, 5]), 5), MoveKind.BIGON, id="array-as-id"),
        pytest.param(theta(), 5, MoveKind.BIGON, id="int-site"),
        pytest.param(theta(), None, MoveKind.BIGON, id="none-site"),
        pytest.param(theta(), 1.5, MoveKind.BIGON, id="float-site"),
    ],
)
def test_moves_reject_cycles_that_are_not_faces(cmap, cycle, kind):
    with pytest.raises(InvalidMoveError, match="no face with half-edge cycle"):
        apply_move(cmap, Move(kind, cycle))


@pytest.mark.parametrize("kind", ["bigon", None, 2])
def test_apply_move_rejects_a_kind_that_is_not_a_move_kind(kind):
    with pytest.raises(InvalidMoveError, match=re.escape(f"unknown move kind {kind!r}")):
        apply_move(theta(), Move(kind, (0, 5)))


def test_apply_triangle_collapses_k4_to_theta():
    (g,) = apply_move(k4(), Move(MoveKind.TRIANGLE, (0, 3, 6)))
    assert (g.n_vertices, g.n_edges) == (2, 3)
    assert sorted(map(len, g.face_orbits())) == [2, 2, 2]
    assert g.is_planar
    assert count_tait(g) == count_tait(k4()) == 6


def test_apply_square_splits_count():
    a, b = apply_move(cube(), Move(MoveKind.SQUARE, (0, 6, 12, 18)))
    assert count_tait(a) + count_tait(b) == count_tait(cube())
    assert (count_tait(a), count_tait(b)) == (12, 12)
    a2, b2 = apply_move(necklace(2), Move(MoveKind.SQUARE, (0, 3, 6, 9)))
    assert {count_tait(a2), count_tait(b2)} == {9, 3}
    assert euler_characteristic(a2) + euler_characteristic(b2) == 12


def test_apply_move_dispatch():
    assert len(apply_move(circle(), Move(MoveKind.LOOP))) == 1
    assert len(apply_move(cube(), find_move(cube()))) == 2
    with pytest.raises(InvalidMoveError):
        apply_move(theta(), Move(MoveKind.TRIANGLE, (0, 5)))


def test_moves_shrink_edge_count():
    # traces keep no maps: replay each node's move on its map
    for g in (theta(), k4(), cube(), necklace(3), prism(3)):
        todo = [(g, reduce_map(g))]
        while todo:
            graph, node = todo.pop()
            if node.move is None:
                continue
            children = apply_move(graph, node.move)
            assert len(children) == len(node.children)
            for child, child_node in zip(children, node.children):
                assert child.n_edges < graph.n_edges
                todo.append((child, child_node))


def test_long_necklace_reduces_without_recursion():
    # 400 vertices, far deeper than the 100 frames left above this test
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        assert euler_characteristic(necklace(200)) == 3 * 2**200
        assert p3(necklace(200))(1) == 3 * 2**200
    finally:
        sys.setrecursionlimit(limit)


def test_theta_trace_is_frozen():
    trace = reduce_map(theta())
    assert trace.value() == 6
    assert format_trace(trace) == "0 bigon 0,5 2\n  1 loop - 3\n    2 empty 1"


def test_trace_first_lines():
    assert format_trace(reduce_map(k4())).splitlines()[0] == "0 triangle 0,3,6 1"
    assert format_trace(reduce_map(cube())).splitlines()[0] == "0 square 0,6,12,18 1"


# Whole traces print the half-edge ids of every move site, so they pin
# how a rebuilt child numbers its half-edges.
GOLDEN_TRACES = {
    "k4": (
        k4,
        """\
0 triangle 0,3,6 1
  1 bigon 0,4 2
    2 loop - 3
      3 empty 1""",
    ),
    "cube": (
        cube,
        """\
0 square 0,6,12,18 1
  1 bigon 1,3 2
    2 bigon 0,4 2
      3 loop - 3
        4 empty 1
  1 bigon 0,10 2
    2 bigon 0,4 2
      3 loop - 3
        4 empty 1""",
    ),
    "necklace(3)": (
        lambda: necklace(3),
        """\
0 bigon 1,5 2
  1 bigon 1,5 2
    2 bigon 0,3 2
      3 loop - 3
        4 empty 1""",
    ),
    "prism(5)": (
        lambda: prism(5),
        """\
0 square 1,4,9,8 1
  1 bigon 2,3 2
    2 bigon 2,3 2
      3 bigon 0,5 2
        4 loop - 3
          5 empty 1
  1 triangle 0,6,12 1
    2 triangle 0,2,5 1
      3 bigon 0,5 2
        4 loop - 3
          5 empty 1""",
    ),
    "necklace(2) + k4": (
        lambda: disjoint_union(necklace(2), k4()),
        """\
0 bigon 1,5 2
  1 bigon 0,3 2
    2 loop - 3
      3 triangle 0,3,6 1
        4 bigon 0,4 2
          5 loop - 3
            6 empty 1""",
    ),
}


@pytest.mark.parametrize("name", GOLDEN_TRACES)
def test_golden_traces(name):
    make, expected = GOLDEN_TRACES[name]
    assert format_trace(reduce_map(make())) == expected


def children_text(cmap, kind, cycle=()):
    return [serialize_map(child) for child in apply_move(cmap, Move(kind, cycle))]


def test_rebuilt_child_ids():
    # survivors keep their relative order, and vertices go by smallest half-edge,
    # so a collapsed triangle's vertex takes the place of its smallest one
    assert children_text(necklace(2), MoveKind.BIGON, (1, 5)) == [
        "vertex 0: 0 1 2\nvertex 1: 3 4 5\nedge 0: 0 5\nedge 1: 1 4\nedge 2: 2 3\n"
    ]
    assert children_text(prism(3), MoveKind.TRIANGLE, (0, 6, 12)) == [
        "vertex 0: 0 8 4\nvertex 1: 1 2 3\nvertex 2: 5 6 7\nvertex 3: 9 10 11\n"
        "edge 0: 0 1\nedge 1: 2 7\nedge 2: 3 10\nedge 3: 4 5\nedge 4: 6 11\nedge 5: 8 9\n"
    ]
    # the square's first child pairs its stubs x0-x1, x2-x3, the second x1-x2, x3-x0
    assert children_text(cube(), MoveKind.SQUARE, (0, 6, 12, 18)) == [
        "vertex 0: 0 1 2\nvertex 1: 3 4 5\nvertex 2: 6 7 8\nvertex 3: 9 10 11\n"
        "edge 0: 0 3\nedge 1: 1 5\nedge 2: 2 10\nedge 3: 4 8\nedge 4: 6 9\nedge 5: 7 11\n",
        "vertex 0: 0 1 2\nvertex 1: 3 4 5\nvertex 2: 6 7 8\nvertex 3: 9 10 11\n"
        "edge 0: 0 9\nedge 1: 1 5\nedge 2: 2 10\nedge 3: 3 6\nedge 4: 4 8\nedge 5: 7 11\n",
    ]
    assert children_text(necklace(2), MoveKind.SQUARE, (0, 3, 6, 9)) == ["loops 2\n", "loops 1\n"]
    # a loop move keeps every table and drops one free loop
    assert children_text(disjoint_union(theta(), circle()), MoveKind.LOOP) == [
        "vertex 0: 0 1 2\nvertex 1: 3 5 4\nedge 0: 0 3\nedge 1: 1 4\nedge 2: 2 5\n"
    ]


def test_reduce_empty_map():
    trace = reduce_map(CombinatorialMap((), (), 0))
    assert trace.move is None and trace.children == ()
    assert trace.value() == 1
    assert format_trace(trace) == "0 empty 1"


def test_evaluation_matches_count():
    for g in (
        circle(),
        theta(),
        k4(),
        prism(2),
        prism(3),
        cube(),
        prism(6),
        necklace(2),
        necklace(3),
        disjoint_union(theta(), circle()),
        disjoint_union(theta(), theta()),
    ):
        assert euler_characteristic(g) == count_tait(g)


def test_evaluation_matches_count_on_large_random_maps():
    finished = 0
    for v in range(60, 101, 10):
        for seed in range(4):
            g = random_planar_cubic(v, seed=100 * v + seed)
            try:
                value = euler_characteristic(g)
            except IrreducibleError:
                continue
            assert value == count_tait(g), (v, seed)
            finished += 1
    assert finished >= 10


def test_custom_weights_change_only_multipliers():
    # theta takes a bigon and then a loop, whatever their weights
    trace = reduce_map(theta(), RelationWeights(loop=5, bigon=7))
    assert format_trace(trace) == "0 bigon 0,5 7\n  1 loop - 5\n    2 empty 1"
    assert trace.value() == 35


def test_nonplanar_is_rejected():
    # only the root is checked: theta's bigon beside Petersen is refused too
    for cmap in (petersen(), disjoint_union(petersen(), theta())):
        with pytest.raises(NonPlanarError) as info:
            reduce_map(cmap)
        assert str(info.value) == "reduction moves are only valid for planar maps"


def test_every_move_is_refused_on_a_nonplanar_map():
    # the planar theta and circle offer moves, but the map as a whole does not embed
    g = disjoint_union(disjoint_union(petersen(), theta()), circle())
    moves = available_moves(g)
    assert {m.kind for m in moves} == {MoveKind.LOOP, MoveKind.BIGON}
    for move in moves:
        with pytest.raises(NonPlanarError) as info:
            apply_move(g, move)
        assert str(info.value) == "reduction moves are only valid for planar maps"


def test_frontier_conservation_counts_a_wrong_multiplier():
    trace = reduce_map(cube())
    assert frontier_conservation(cube(), trace) == (7, 0)
    # a doubled root multiplier breaks the frontier sum at every expansion
    assert frontier_conservation(cube(), dataclasses.replace(trace, multiplier=2)) == (7, 7)


def test_dodecahedron_is_irreducible():
    with pytest.raises(IrreducibleError) as info:
        reduce_map(dodecahedron())
    assert info.value.graph == dodecahedron()
    assert "five or more" in str(info.value)
    assert str(info.value).endswith("(smallest face degree 5)")


def test_dumbbell_is_irreducible_with_zero_count():
    with pytest.raises(IrreducibleError) as info:
        reduce_map(dumbbell())
    assert count_tait(info.value.graph) == 0
    message = str(info.value)
    assert "five or more" not in message
    assert "smallest face degree 1, and 3 faces of degree at most 4 are degenerate" in message


# the dumbbell is stuck at the root, beside a theta after two moves, and
# in the random map below one second child (index 1)
STUCK_MAPS = [
    ("dumbbell", dumbbell()),
    ("dumbbell+theta", disjoint_union(dumbbell(), theta())),
    ("random40-4002", random_planar_cubic(40, seed=4002)),
]


def test_irreducible_error_path_replays_to_the_stuck_map():
    for _, g in STUCK_MAPS:
        with pytest.raises(IrreducibleError) as info:
            reduce_map(g)
        graph = g
        for move, index in info.value.path:
            graph = apply_move(graph, move)[index]
        assert graph == info.value.graph
    assert [i for _, i in info.value.path].count(1) == 1
    with pytest.raises(IrreducibleError) as info:
        reduce_map(dodecahedron())
    assert info.value.path == ()
    # the path is not part of the message
    assert str(IrreducibleError(dumbbell(), ((Move(MoveKind.LOOP), 0),))) == str(
        IrreducibleError(dumbbell())
    )


def unshared_trace(cmap: CombinatorialMap) -> TraceNode:
    """The Euler trace as a tree, every map reduced afresh by find_move and apply_move: no memo."""
    if cmap.n_half_edges == 0 and cmap.free_loops == 0:
        return TraceNode(None, 1, ())
    move = find_move(cmap)
    if move is None:
        raise IrreducibleError(cmap)
    factor = {MoveKind.LOOP: 3, MoveKind.BIGON: 2}.get(move.kind, 1)
    return TraceNode(move, factor, tuple(unshared_trace(c) for c in apply_move(cmap, move)))


SHARING_MAPS = [
    cube(),
    *[prism(n) for n in range(3, 11)],
    *[necklace(k) for k in range(2, 7)],
    disjoint_union(prism(5), necklace(3)),
    *[random_planar_cubic(v, seed=v + s) for v in (20, 30, 40) for s in range(3)],
    random_planar_cubic(40, seed=4002),  # strands
]


@pytest.mark.parametrize("cmap", SHARING_MAPS)
def test_shared_trace_prints_as_the_unshared_tree(cmap):
    try:
        expected = unshared_trace(cmap)
    except IrreducibleError as exc:
        with pytest.raises(IrreducibleError) as info:
            reduce_map(cmap)
        assert info.value.graph == exc.graph
        return
    trace = reduce_map(cmap)
    assert format_trace(trace) == format_trace(expected)
    assert trace.value() == expected.value() == count_tait(cmap)


def unfolded_value(root: TraceNode):
    """The value of a trace unfolded into its tree: each child slot summed afresh, bottom-up."""
    order, stack = [], [root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(reversed(node.children))
    values: list = []
    for node in reversed(order):
        if not node.children:
            values.append(node.multiplier)
            continue
        total = values.pop()
        for _ in node.children[1:]:
            total = total + values.pop()
        values.append(node.multiplier * total)
    return values[0]


@pytest.mark.parametrize("weights", [EULER_WEIGHTS, P3_WEIGHTS], ids=["euler", "p3"])
def test_value_of_a_shared_trace_is_the_unfolded_trees(weights):
    for cmap in SHARING_MAPS:
        if weights is P3_WEIGHTS and not cmap.is_bipartite():
            continue
        try:
            trace = reduce_map(cmap, weights)
        except IrreducibleError:
            continue
        assert trace.value() == unfolded_value(trace)


SQUARE = Move(MoveKind.SQUARE, (0, 1, 2, 3))


def test_value_evaluates_each_distinct_node_once():
    node = TraceNode(None, 1, ())
    for _ in range(200):
        node = TraceNode(SQUARE, 1, (node, node))
    # the unfolded tree has 2^200 leaves
    assert node.value() == 2**200


@given(
    st.lists(
        st.tuples(st.integers(-3, 3), st.lists(st.integers(0, 99), max_size=3)),
        min_size=1,
        max_size=8,
    )
)
def test_value_matches_the_unfolded_walk_on_any_dag(spec):
    # each node's children are earlier nodes, repeats allowed, so a node
    # may sit below its parent at several depths
    nodes: list[TraceNode] = []
    for multiplier, picks in spec:
        children = tuple(nodes[p % len(nodes)] for p in picks) if nodes else ()
        nodes.append(TraceNode(SQUARE if children else None, multiplier, children))
    assert nodes[-1].value() == unfolded_value(nodes[-1])


def test_value_drops_each_value_once_its_parents_have_read_it():
    node = TraceNode(None, 1, ())
    for _ in range(1000):
        node = TraceNode(Move(MoveKind.BIGON, (0, 1)), 2**64, (node,))
    expected = 2 ** (64 * 1000)
    tracemalloc.start()
    try:
        value = node.value()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == expected
    # every value kept would hold 1,000 ints of up to 8,000 bytes: about 4 MB
    assert peak < 1_000_000


def test_a_node_equals_only_itself():
    # object's == and hash: neither reads the children
    assert TraceNode.__eq__ is object.__eq__ and TraceNode.__hash__ is object.__hash__
    first, second = reduce_map(cube()), reduce_map(cube())
    assert first == first and hash(first) == hash(first)
    # built apart, they print alike but are two traces
    assert format_trace(first) == format_trace(second)
    assert first != second
    assert dataclasses.replace(first, multiplier=1) != first


def test_a_long_trace_prints_hashes_and_compares_without_recursion():
    trace = reduce_map(necklace(3000))
    assert repr(trace) == object.__repr__(trace)
    assert hash(trace) == hash(trace)
    assert trace == trace
    assert trace != reduce_map(necklace(3000))


def test_a_shared_dag_hashes_and_compares_at_once():
    # checked first, so a generated hash or == fails here instead of
    # unfolding the 2^200 leaves below
    assert TraceNode.__eq__ is object.__eq__ and TraceNode.__hash__ is object.__hash__
    dags = []
    for _ in range(2):
        node = TraceNode(None, 1, ())
        for _ in range(200):
            node = TraceNode(SQUARE, 1, (node, node))
        dags.append(node)
    first, second = dags
    assert first == first and first != second
    assert len({first, second, first}) == 2
    assert repr(first) == object.__repr__(first)


def test_identical_maps_share_one_subtree():
    # both square branches of the cube reach the same map after one bigon
    trace = reduce_map(cube())
    first, second = (child.children[0] for child in trace.children)
    assert first.move == second.move == Move(MoveKind.BIGON, (0, 4))
    assert first is second


def test_maps_that_differ_only_in_free_loops_are_not_shared(monkeypatch):
    # necklace(2)'s square rejoins its stubs into two loops one way and one
    # the other: both children have empty tables, and only the loops differ
    square = Move(MoveKind.SQUARE, (0, 3, 6, 9))
    # the trunk would take the root's bigons without asking find_move
    monkeypatch.setattr(reduction, "_trunk", lambda g: ((), g))
    monkeypatch.setattr(reduction, "find_move", lambda g: square if g == necklace(2) else find_move(g))
    trace = reduce_map(necklace(2))
    assert format_trace(trace).splitlines() == [
        "0 square 0,3,6,9 1",
        "  1 loop - 3",
        "    2 loop - 3",
        "      3 empty 1",
        "  1 loop - 3",
        "    2 empty 1",
    ]
    assert trace.value() == count_tait(necklace(2)) == 12


@pytest.mark.parametrize(
    "cmap, unshared, shared",
    [(cube(), 7, 5), (prism(8), 21, 13), (prism(12), 43, 19), (necklace(6), 7, 7)],
)
def test_each_distinct_map_is_reduced_once(monkeypatch, cmap, unshared, shared):
    calls = []
    apply, trunk = reduction._apply, reduction._trunk

    def counted(g, kind, face):
        calls.append((kind, face))
        return apply(g, kind, face)

    def counted_trunk(g):
        moves, end = trunk(g)
        calls.extend(moves)
        return moves, end

    # every applied move counts, the trunk's in-place moves included
    monkeypatch.setattr(reduction, "_apply", counted)
    monkeypatch.setattr(reduction, "_trunk", counted_trunk)
    trace = reduce_map(cmap)
    assert len(calls) == shared
    # the trace still prints one line per move of the unshared tree
    lines = format_trace(trace).splitlines()
    assert sum(" empty " not in line for line in lines) == unshared


def random_order_value(cmap, rng):
    """Euler value of one reduction that picks every move uniformly among all matches.

    Maps are visited depth first, children in order, as in ``reduce_map``;
    raises :class:`IrreducibleError` when no move matches.
    """
    factor_of = {MoveKind.LOOP: 3, MoveKind.BIGON: 2}
    total, stack = 0, [(cmap, 1)]
    while stack:
        graph, factor = stack.pop()
        if graph.n_half_edges == 0 and graph.free_loops == 0:
            total += factor
            continue
        moves = available_moves(graph)
        if not moves:
            raise IrreducibleError(graph)
        move = rng.choice(moves)
        factor *= factor_of.get(move.kind, 1)
        stack.extend((child, factor) for child in reversed(apply_move(graph, move)))
    return total


def test_randomized_order_agrees_on_bipartite_maps():
    for g in (theta(), prism(2), cube(), necklace(2), necklace(3)):
        expected = count_tait(g)
        for seed in range(8):
            assert random_order_value(g, random.Random(seed)) == expected


def test_randomized_order_on_nonbipartite_maps():
    # a random order may strand, but only on maps with no colorings
    for g in (k4(), prism(3)):
        expected = count_tait(g)
        for seed in range(30):
            try:
                value = random_order_value(g, random.Random(seed))
            except IrreducibleError as exc:
                assert count_tait(exc.graph) == 0
            else:
                assert value == expected


def test_euler_weights_constant():
    assert EULER_WEIGHTS == RelationWeights(loop=3, bigon=2)
    # the unit is the ring's own: an int here, a LaurentPoly for P3_WEIGHTS
    assert EULER_WEIGHTS.one == 1 and type(EULER_WEIGHTS.one) is int
    assert P3_WEIGHTS.one == LaurentPoly({0: 1}) and type(P3_WEIGHTS.one) is LaurentPoly
    with pytest.raises(TypeError):
        RelationWeights(loop=3, bigon=2, one=1)


# ----------------------------------------------------------------------
# the one-pass move search against its eager definition

PRIORITY = {MoveKind.LOOP: 0, MoveKind.BIGON: 1, MoveKind.TRIANGLE: 2, MoveKind.SQUARE: 3}


def eager_faces(g: CombinatorialMap) -> tuple[tuple[int, ...], ...]:
    """Every face orbit, traced from each unseen half-edge in order."""
    seen, faces = set(), []
    for h0 in range(g.n_half_edges):
        orbit, h = [], h0
        while h not in seen:
            seen.add(h)
            orbit.append(h)
            h = g.next_at_vertex[g.twin[h]]
        if orbit:
            faces.append(tuple(orbit))
    return tuple(faces)


EAGER_KINDS = {2: MoveKind.BIGON, 3: MoveKind.TRIANGLE, 4: MoveKind.SQUARE}


def eager_kind(g: CombinatorialMap, orbit: tuple[int, ...]) -> MoveKind | None:
    """A face of degree 2-4 matches when its vertices and its edges are distinct.

    ``_orbit_kind`` compares edges only; this keeps both checks, so the
    search tests below also guard that a repeated vertex repeats an edge.
    """
    vertices = {g.vertex_of[h] for h in orbit}
    edges = {e for e, pair in enumerate(g.edges) for h in pair if h in orbit}
    if len(vertices) == len(edges) == len(orbit):
        return EAGER_KINDS.get(len(orbit))
    return None


def eager_moves(g: CombinatorialMap) -> list[Move]:
    moves = [Move(MoveKind.LOOP)] if g.free_loops > 0 else []
    for orbit in eager_faces(g):
        kind = eager_kind(g, orbit)
        if kind is not None:
            moves.append(Move(kind, orbit))
    return moves


def priority_path_maps(g: CombinatorialMap, limit: int = 400) -> list[CombinatorialMap]:
    """``g`` and the maps of its priority reduction, up to any strand."""
    todo, seen = [g], []
    while todo and len(seen) < limit:
        x = todo.pop()
        seen.append(x)
        move = find_move(x)
        if move is not None and x.is_planar:
            todo.extend(apply_move(x, move))
    return seen


SEARCH_MAPS = CATALOG_MAPS + UNIONS + [
    (f"random{v}", random_planar_cubic(v, seed=1000 + v)) for v in range(8, 61, 4)
]


@pytest.mark.parametrize(
    "cmap", [g for _, g in SEARCH_MAPS], ids=[name for name, _ in SEARCH_MAPS]
)
def test_move_search_matches_eager_definition(cmap):
    for g in priority_path_maps(cmap):
        # a fresh copy, so the search sees only what the constructor built
        fresh = CombinatorialMap(g.twin, g.next_at_vertex, g.free_loops)
        moves = available_moves(fresh)
        best = min(moves, key=lambda m: (PRIORITY[m.kind], m.half_edges), default=None)
        assert find_move(fresh) == best
        assert moves == eager_moves(g)
        assert fresh.face_orbits() == eager_faces(g)
        assert fresh.face_orbits() is fresh.face_orbits()


def reduction_tree_maps(g: CombinatorialMap) -> list[CombinatorialMap]:
    """Every distinct map of ``g``'s priority reduction tree, up to any strand."""
    todo, seen = [g], {}
    while todo:
        x = todo.pop()
        key = (x.twin, x.next_at_vertex, x.free_loops)
        if key in seen:
            continue
        seen[key] = x
        move = find_move(x)
        if move is not None and x.is_planar:
            todo.extend(apply_move(x, move))
    return list(seen.values())


TREE_MAPS = (
    [
        (f"random{v}-{s}", random_planar_cubic(v, seed=5000 + 100 * s + v))
        for v in range(60, 101, 5)
        for s in range(3)
    ]
    + [("necklace50", necklace(50)), ("prism24", prism(24))]
    + UNIONS
)


def traced_moves(g: CombinatorialMap) -> list[Move]:
    """Reference ``available_moves``: the loop, then each matching face of the face table."""
    moves = [Move(MoveKind.LOOP)] if g.free_loops > 0 else []
    for orbit in g.face_orbits():
        kind = _orbit_kind(g.twin, orbit)
        if kind is not None:
            moves.append(Move(kind, orbit))
    return moves


@pytest.mark.parametrize("cmap", [g for _, g in TREE_MAPS], ids=[name for name, _ in TREE_MAPS])
def test_move_search_matches_available_moves_over_reduction_trees(cmap):
    for g in reduction_tree_maps(cmap):
        fresh = CombinatorialMap(g.twin, g.next_at_vertex, g.free_loops)
        # the constructor's whole-table checks accept every spliced child
        assert fresh == g
        move = find_move(fresh)
        moves = available_moves(fresh)
        # both queries read the two permutations only; they trace no face
        assert "_faces" not in vars(fresh)
        assert moves == traced_moves(g)
        assert move == min(moves, key=lambda m: (PRIORITY[m.kind], m.half_edges), default=None)


def replayed_trunk(g: CombinatorialMap) -> tuple[list[Move], CombinatorialMap]:
    """``find_move`` and ``apply_move`` from ``g`` up to the first square, stuck or empty map."""
    moves = []
    while True:
        move = find_move(g)
        if move is None or move.kind is MoveKind.SQUARE:
            return moves, g
        moves.append(move)
        (g,) = apply_move(g, move)


TRUNK_ROOTS = dict(SEARCH_MAPS + TREE_MAPS + [("necklace200", necklace(200))] + STUCK_MAPS)
TRUNK_MAPS = [(name, g) for name, g in TRUNK_ROOTS.items() if g.is_planar]


@pytest.mark.parametrize("cmap", [g for _, g in TRUNK_MAPS], ids=[name for name, _ in TRUNK_MAPS])
def test_trunk_replays_find_move_up_to_the_first_square(cmap):
    moves, end = replayed_trunk(cmap)
    trunk, trunk_end = reduction._trunk(cmap)
    assert list(trunk) == moves
    assert trunk_end == end
    # the constructor's whole-table checks accept the in-place end map
    assert trunk_end == CombinatorialMap(end.twin, end.next_at_vertex, end.free_loops)


def test_trunk_runs_loops_bigons_and_triangles_and_stops_at_a_square():
    kinds = {move.kind for _, g in TRUNK_MAPS for move in reduction._trunk(g)[0]}
    assert kinds == {MoveKind.LOOP, MoveKind.BIGON, MoveKind.TRIANGLE}
    # a root whose first move is a square, or none, is its own trunk end
    for g in (cube(), dodecahedron(), dumbbell()):
        moves, end = reduction._trunk(g)
        assert moves == () and end is g
    # a necklace's trunk runs down to the empty map; k4's first collapses a triangle
    moves, end = reduction._trunk(necklace(6))
    assert len(moves) == 7 and end == CombinatorialMap((), (), 0)
    assert reduction._trunk(k4())[0][0] == Move(MoveKind.TRIANGLE, (0, 3, 6))


def test_a_long_trunk_relabels_once(monkeypatch):
    relabelled = []
    relabel = reduction._relabel

    def counted(twin, sigma, dead, free_loops):
        relabelled.append(len(twin))
        return relabel(twin, sigma, dead, free_loops)

    monkeypatch.setattr(reduction, "_relabel", counted)
    for k in (1, 6, 200):
        relabelled.clear()
        assert reduce_map(necklace(k)).value() == 3 * 2**k
        # one dense relabel, at the trunk's end, of the root's 6k half-edges
        assert relabelled == [6 * k]


def spliced_faces(twin: list, sigma: list, dead: set) -> list[tuple[int, ...]]:
    """The face cycles of the live half-edges of spliced tables, each from its smallest."""
    seen, faces = set(dead), []
    for h0 in range(len(twin)):
        orbit, h = [], h0
        while h not in seen:
            seen.add(h)
            orbit.append(h)
            h = sigma[twin[h]]
        if orbit:
            faces.append(tuple(orbit))
    return faces


def test_every_face_a_move_changes_runs_through_a_survivor_it_touched():
    # the invariant the trunk's heap refresh relies on, in the parent's ids
    seen = dict.fromkeys(MoveKind, 0)
    for _, cmap in SEARCH_MAPS:
        for g in priority_path_maps(cmap):
            if not g.is_planar:
                continue
            old = set(g.face_orbits())
            for move in available_moves(g):
                if move.kind is MoveKind.LOOP:
                    continue
                dead, ways, patch = reduction._rewrite(
                    g.twin, g.next_at_vertex, move.kind, move.half_edges
                )
                for welds in ways:
                    twin, sigma = list(g.twin), list(g.next_at_vertex)
                    _, survivors = reduction._splice(twin, sigma, dead, welds, patch)
                    assert survivors == sorted(set(survivors) - dead)
                    for face in spliced_faces(twin, sigma, dead):
                        if face not in old:
                            assert set(face) & set(survivors), (move, face)
                    seen[move.kind] += 1
    assert all(seen[kind] for kind in (MoveKind.BIGON, MoveKind.TRIANGLE, MoveKind.SQUARE)), seen


def built_tables(g: CombinatorialMap) -> list[str]:
    """The lazily built tables that ``g`` holds, read without building any."""
    names = "edges _rotations vertex_of _vertex_edges _merge_plan _merge_tables".split()
    return [name for name in names if name in vars(g)]


@pytest.mark.parametrize(
    "cmap", [g for _, g in SEARCH_MAPS], ids=[name for name, _ in SEARCH_MAPS]
)
def test_reduction_builds_no_edge_or_rotation_table(cmap):
    root = CombinatorialMap(cmap.twin, cmap.next_at_vertex, cmap.free_loops)
    for g in priority_path_maps(root):
        assert built_tables(g) == []
    # the probe sees a table once something asks for it
    assert len(root.edges) == root.n_paired_edges
    assert built_tables(root) == ["edges"]
    assert len(root.vertex_of) == root.n_half_edges
    assert built_tables(root) == ["edges", "_rotations", "vertex_of"]
    assert len(root._vertex_edges) == root.n_half_edges
    assert built_tables(root) == ["edges", "_rotations", "vertex_of", "_vertex_edges"]


@pytest.mark.parametrize(
    "cmap", [g for _, g in SEARCH_MAPS], ids=[name for name, _ in SEARCH_MAPS]
)
def test_repeated_vertex_repeats_an_edge(cmap):
    # the fact that lets ``_orbit_kind`` skip the vertex check, on every face
    for g in priority_path_maps(cmap):
        for orbit in g.face_orbits():
            if len({g.vertex_of[h] for h in orbit}) < len(orbit):
                assert len({g.edge_of(h) for h in orbit}) < len(orbit), orbit


# ----------------------------------------------------------------------
# move sites looked up in the face table, against a face walker


def walked_face(cmap: CombinatorialMap, half_edges: tuple, kind: MoveKind) -> tuple:
    """Reference ``_checked_face``: walk from ``half_edges[0]``, one step past its length.

    Ids pass through ``operator.index`` first, so a float never names a face.
    """
    try:
        site = tuple(map(operator.index, half_edges))
        start = range(cmap.n_half_edges).index(site[0])
    except (IndexError, TypeError, ValueError):
        orbit = []
    else:
        twin, sigma = cmap.twin, cmap.next_at_vertex
        orbit = [start]
        h = sigma[twin[start]]
        while h != start and len(orbit) <= len(site):
            orbit.append(h)
            h = sigma[twin[h]]
    if not orbit or tuple(orbit) != site or min(orbit) != orbit[0]:
        raise InvalidMoveError(f"no face with half-edge cycle {half_edges}")
    if _orbit_kind(cmap.twin, site) is not kind:
        raise InvalidMoveError(f"face {half_edges} does not match a {kind.value} move")
    return site


def site_outcome(check, cmap, half_edges, kind):
    try:
        return check(cmap, half_edges, kind)
    except Exception as exc:
        return type(exc), str(exc)


JUNK_IDS = (None, "a", 1.5, 2.0, True, -1)
FACE_KINDS = (MoveKind.BIGON, MoveKind.TRIANGLE, MoveKind.SQUARE)


def face_sites(cmap: CombinatorialMap):
    """Every face's rotations, prefixes and extensions, and faces with one id made junk."""
    ids = range(-1, cmap.n_half_edges + 2)
    for orbit in cmap.face_orbits():
        for i in range(len(orbit)):
            yield orbit[i:] + orbit[:i]
            yield orbit[:i]
            for junk in JUNK_IDS:
                yield orbit[:i] + (junk,) + orbit[i + 1 :]
        yield orbit + orbit[:1]
        for h in (*ids, *JUNK_IDS):
            yield orbit + (h,)


@pytest.mark.parametrize(
    "cmap",
    [
        theta(), k4(), cube(), prism(5), necklace(3), dumbbell(), circle(2),
        disjoint_union(k4(), theta()), dodecahedron(),
    ],
    ids=[
        "theta", "k4", "cube", "prism5", "necklace3", "dumbbell", "circle2", "k4+theta",
        "dodecahedron",
    ],
)
def test_checked_face_matches_face_walker(cmap):
    for site in face_sites(cmap):
        for kind in FACE_KINDS:
            want = site_outcome(walked_face, cmap, site, kind)
            assert site_outcome(_checked_face, cmap, site, kind) == want, (site, kind)
    ids = (*range(-1, cmap.n_half_edges + 2), *JUNK_IDS)
    for length in range(4):
        kind = FACE_KINDS[max(length - 2, 0)]
        for site in product(ids, repeat=length):
            want = site_outcome(walked_face, cmap, site, kind)
            assert site_outcome(_checked_face, cmap, site, kind) == want, (site, kind)


# ----------------------------------------------------------------------
# welds spliced into twin, against the chain-walking rebuild


def chain_rebuild(cmap, sigma, dead_half, glue):
    """Reference ``_rebuild``: follow each weld chain from a survivor, then sweep circles."""
    twin = cmap.twin
    survivors = [h for h in range(cmap.n_half_edges) if h not in dead_half]
    hid = {h: i for i, h in enumerate(survivors)}
    new_sigma = [hid[sigma[h]] for h in survivors]
    new_twin = [hid.get(twin[h], -1) for h in survivors]
    used_stubs = set()
    for stub in glue:
        h = twin[stub]
        if h in dead_half or new_twin[hid[h]] >= 0:
            continue
        z = stub
        hops = 0
        while z in dead_half:
            used_stubs.update((z, glue[z]))
            z = twin[glue[z]]
            hops += 1
            assert hops <= len(glue) + 1, "weld chain failed to terminate"
        new_twin[hid[h]] = hid[z]
        new_twin[hid[z]] = hid[h]
    new_loops = 0
    remaining = set(glue) - used_stubs
    while remaining:
        z = start = remaining.pop()
        while True:
            remaining.discard(z)
            remaining.discard(glue[z])
            z = twin[glue[z]]
            if z == start:
                break
        new_loops += 1
    return CombinatorialMap(new_twin, new_sigma, cmap.free_loops + new_loops)


def chain_apply_move(cmap, move):
    """Reference ``apply_move`` on a valid site, welding through ``chain_rebuild``."""
    kind = move.kind
    if kind is MoveKind.LOOP:
        loops = cmap.free_loops - 1
        return (CombinatorialMap(cmap.twin, cmap.next_at_vertex, loops),)
    face = _checked_face(cmap, tuple(move.half_edges), kind)
    sigma, twin = cmap.next_at_vertex, cmap.twin
    x = [sigma[k] for k in face]
    dead = {*face, *[twin[k] for k in face]}
    if kind is MoveKind.TRIANGLE:
        sigma = list(sigma)
        sigma[x[0]], sigma[x[2]], sigma[x[1]] = x[2], x[1], x[0]
        return (chain_rebuild(cmap, sigma, dead, {}),)
    dead.update(x)
    if kind is MoveKind.BIGON:
        return (chain_rebuild(cmap, sigma, dead, {x[0]: x[1], x[1]: x[0]}),)
    ways = (x, x[1:] + x[:1])
    return tuple(
        [chain_rebuild(cmap, sigma, dead, {y[i]: y[i ^ 1] for i in range(4)}) for y in ways]
    )


WELD_MAPS = CATALOG_MAPS + [
    ("k4+theta", disjoint_union(k4(), theta())),
    ("dumbbell", dumbbell()),
    *[(f"random{v}", random_planar_cubic(v, seed=2000 + v)) for v in range(4, 41, 2)],
]


def test_spliced_welds_match_chain_walker():
    welds = circles = chains = 0
    for _, cmap in WELD_MAPS:
        for g in priority_path_maps(cmap):
            for move in available_moves(g):
                got, want = apply_move(g, move), chain_apply_move(g, move)
                assert [(c.twin, c.next_at_vertex, c.free_loops) for c in got] == [
                    (c.twin, c.next_at_vertex, c.free_loops) for c in want
                ], move
                if move.kind not in (MoveKind.BIGON, MoveKind.SQUARE):
                    continue
                x = [g.next_at_vertex[k] for k in move.half_edges]
                for y, child in zip((x, x[1:] + x[:1]), got):
                    partner = {**dict(zip(y[::2], y[1::2])), **dict(zip(y[1::2], y[::2]))}
                    welds += len(y) // 2
                    circles += child.free_loops - g.free_loops
                    # a stub twinned to a stub of another weld chains the two welds
                    chains += sum(g.twin[s] in partner and g.twin[s] != partner[s] for s in y)
    assert welds > 0 and circles > 0 and chains > 0, (welds, circles, chains)


# ----------------------------------------------------------------------
# survivors relabelled by runs, against the dict relabel


def dict_rebuild(cmap, dead_half, welds=(), patch=()):
    """Reference ``_rebuild``: splice the welds, then relabel survivors through a dict."""
    twin = list(cmap.twin)
    sigma = list(cmap.next_at_vertex)
    for h, s in patch:
        sigma[h] = s
    new_loops = 0
    for a, b in welds:
        ta, tb = twin[a], twin[b]
        if ta == b:
            new_loops += 1
        else:
            twin[ta], twin[tb] = tb, ta
    survivors = [h for h in range(cmap.n_half_edges) if h not in dead_half]
    hid = {h: i for i, h in enumerate(survivors)}
    new_twin = [hid[twin[h]] for h in survivors]
    new_sigma = [hid[sigma[h]] for h in survivors]
    return CombinatorialMap(new_twin, new_sigma, cmap.free_loops + new_loops)


def test_a_bad_splice_is_refused():
    # the splice checks each half-edge the move touched, and names the first bad one
    g = k4()
    twin, sigma = g.twin, g.next_at_vertex
    # removing vertex 0 alone leaves its three neighbours' twins dangling
    vertex = set(g.rotation(0))
    first = min(twin[h] for h in vertex)
    with pytest.raises(MapError, match=rf"^half-edge {first} has no surviving twin"):
        reduction._rebuild(g, vertex)
    face = next(orbit for orbit in g.face_orbits() if 0 not in orbit)
    x = [sigma[k] for k in face]
    dead = {*face, *[twin[k] for k in face]}
    good = ((x[0], x[2]), (x[2], x[1]), (x[1], x[0]))
    child = apply_move(g, Move(MoveKind.TRIANGLE, face))[0]
    assert reduction._rebuild(g, dead, patch=good) == child
    # x[0] and x[1] swapped onto each other leave x[2] pointing at a removed corner
    bad = ((x[0], x[1]), (x[1], x[0]))
    with pytest.raises(MapError, match=rf"^half-edge {min(x)} is not on a surviving 3-cycle"):
        reduction._rebuild(g, dead, patch=bad)


RELABEL_MAPS = [g for _, g in SEARCH_MAPS] + [
    random_planar_cubic(v, seed=3000 + v) for v in range(4, 81, 4)
]


def test_every_child_of_a_planar_map_is_planar():
    # the invariant that lets reduce_map check only its root: a move
    # rewrites one face's closed disk; RELABEL_MAPS holds SEARCH_MAPS too
    branches = {kind: 0 for kind in MoveKind}
    for cmap in RELABEL_MAPS:
        for g in priority_path_maps(cmap):
            if not g.is_planar:
                continue
            for move in available_moves(g):
                children = apply_move(g, move)
                assert len(children) == (2 if move.kind is MoveKind.SQUARE else 1)
                for child in children:
                    assert child.is_planar, move
                    # the constructor's whole-table checks accept the spliced child
                    assert child == CombinatorialMap(
                        child.twin, child.next_at_vertex, child.free_loops
                    ), move
                    branches[move.kind] += 1
    assert all(branches.values()), branches


def test_run_relabel_matches_dict_relabel(monkeypatch):
    def tables(c):
        return c.twin, c.next_at_vertex, c.free_loops, c.face_orbits()

    cases, refused = [], []
    for cmap in RELABEL_MAPS:
        for g in priority_path_maps(cmap):
            for move in available_moves(g):
                if g.is_planar:
                    cases.append((g, move, [tables(c) for c in apply_move(g, move)]))
                    continue
                with pytest.raises(NonPlanarError, match="only valid for planar maps"):
                    apply_move(g, move)
                refused.append(move.kind)
    # petersen+circle: its free loop is the one move a non-planar map offers
    assert refused == [MoveKind.LOOP]
    monkeypatch.setattr(reduction, "_rebuild", dict_rebuild)
    kinds = set()
    for g, move, got in cases:
        assert got == [tables(c) for c in apply_move(g, move)], move
        kinds.add(move.kind)
    assert kinds == set(MoveKind)

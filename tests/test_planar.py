import random
import re
import sys
from collections import deque
from functools import cached_property
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tait import planar, reduction
from tait.catalog import (
    GENERATORS,
    circle,
    cube,
    dodecahedron,
    k4,
    necklace,
    petersen,
    prism,
    theta,
)
from tait.coloring import count_tait, enumerate_tait
from tait.planar import (
    CombinatorialMap,
    MapError,
    NonPlanarError,
    ParseError,
    build_map,
    disjoint_union,
    parse_map,
    serialize_map,
)
from tait.reduction import apply_move, available_moves, find_move, reduce_map
from tait.su3 import decoration_to_representation, sample_admissible_decoration
from test_coloring import CATALOG_MAPS, UNIONS, dumbbell, random_planar_cubic
from test_reduction import SEARCH_MAPS, built_tables, priority_path_maps

THETA_ROTATIONS = [(0, (0, 1, 2)), (1, (5, 4, 3))]
THETA_PAIRS = [(0, 3), (1, 4), (2, 5)]


def test_theta_structure():
    g = build_map(THETA_ROTATIONS, THETA_PAIRS)
    assert g.n_vertices == 2
    assert g.n_half_edges == 6
    assert g.n_paired_edges == 3
    assert g.n_edges == 3
    assert g.free_loops == 0
    assert g.edges == ((0, 3), (1, 4), (2, 5))
    assert g.edge_of(4) == 1
    assert g.vertex_of == (0, 0, 0, 1, 1, 1)
    assert g.rotation(0) == (0, 1, 2)
    assert g.rotation(1) == (3, 5, 4)  # canonical start, same cyclic order
    assert g.is_planar


def test_theta_faces_are_bigons():
    g = theta()
    orbits = g.face_orbits()
    assert orbits == ((0, 5), (1, 3), (2, 4))
    for orbit in orbits:
        assert len(orbit) == 2
        assert tuple(g.vertex_of[h] for h in orbit) == (0, 1)
        assert len({g.edge_of(h) for h in orbit}) == 2


def test_face_tables_are_consistent():
    g = cube()
    phi = [g.next_at_vertex[g.twin[h]] for h in range(g.n_half_edges)]
    assert sorted(h for orbit in g.face_orbits() for h in orbit) == list(range(g.n_half_edges))
    for orbit in g.face_orbits():
        assert orbit[0] == min(orbit)
        assert [phi[h] for h in orbit] == [*orbit[1:], orbit[0]]


def test_empty_map():
    g = CombinatorialMap((), (), 0)
    assert g.n_vertices == 0
    assert g.n_edges == 0
    assert g.face_orbits() == ()
    assert g.is_planar
    assert g.is_bipartite()


def test_free_loop_counter():
    g = circle(4)
    assert g.n_edges == 4
    assert g.n_paired_edges == 0
    assert g.edge_endpoints(0) is None


def test_vertex_edges_and_endpoints():
    g = theta()
    assert g.vertex_edges(0) == (0, 1, 2)
    assert g.edge_endpoints(2) == (0, 1)
    d = dumbbell()  # each vertex meets its self-loop twice
    assert [d.vertex_edges(v) for v in range(2)] == [(0, 0, 1), (1, 2, 2)]


def test_edge_endpoints_rejects_ids_that_name_no_edge():
    g = disjoint_union(theta(), circle())  # edges 0-2 paired, edge 3 a free loop
    assert [g.edge_endpoints(e) for e in range(g.n_edges)] == [(0, 1)] * 3 + [None]
    for e in (-1, -4, 4, 99):
        with pytest.raises(IndexError, match=f"edge {e} out of range"):
            g.edge_endpoints(e)


def test_vertex_and_half_edge_queries_reject_ids_out_of_range():
    g = disjoint_union(theta(), circle())  # 2 vertices, 6 half-edges
    assert [g.rotation(v) for v in range(2)] == [(0, 1, 2), (3, 5, 4)]
    assert [g.vertex_edges(v) for v in range(2)] == [(0, 1, 2), (0, 2, 1)]
    assert [g.edge_of(h) for h in range(6)] == [0, 1, 2, 0, 1, 2]
    for query, n, name in (
        (g.rotation, 2, "vertex"), (g.vertex_edges, 2, "vertex"), (g.edge_of, 6, "half-edge")
    ):
        plural = "vertices" if name == "vertex" else "half-edges"
        for i in (-1, -n, n, 99):
            with pytest.raises(IndexError) as info:
                query(i)
            assert str(info.value) == f"{name} {i} out of range for a map with {n} {plural}"


@pytest.mark.parametrize(
    "rotations,pairs,message",
    [
        ([(0, (0, 1, 2)), (0, (3, 4, 5))], THETA_PAIRS, "duplicate vertex"),
        ([(0, (0, 1)), (1, (5, 4, 3))], THETA_PAIRS, "expected 3"),
        ([(0, (0, 1, 1)), (1, (5, 4, 3))], THETA_PAIRS, "used twice"),
        (THETA_ROTATIONS, [(0, 0), (1, 4), (2, 5)], "with itself"),
        (THETA_ROTATIONS, [(0, 9), (1, 4), (2, 5)], "no rotation"),
        (THETA_ROTATIONS, [(0, 3), (0, 4), (2, 5)], "used twice"),
        (THETA_ROTATIONS, [(0, 3), (1, 4)], "unmatched"),
    ],
)
def test_build_map_rejects_bad_data(rotations, pairs, message):
    with pytest.raises(MapError, match=message):
        build_map(rotations, pairs)


def test_constructor_rejects_bad_tables():
    with pytest.raises(MapError, match="^half-edge tables have inconsistent lengths$"):
        CombinatorialMap((1, 0), (0,))
    with pytest.raises(MapError, match="involution"):
        CombinatorialMap((1, 2, 0, 4, 3, 5), (1, 2, 0, 4, 5, 3))
    with pytest.raises(MapError, match="fixes"):
        CombinatorialMap((0, 1), (1, 0))
    with pytest.raises(MapError, match="rotation at half-edge 0 is not a single 3-cycle"):
        CombinatorialMap((3, 4, 5, 0, 1, 2), (0, 1, 2, 3, 4, 5))
    # one 6-cycle, two vertices run together: neither sigma nor sigma^2 has a fixed point
    with pytest.raises(MapError, match="rotation at half-edge 0 is not a single 3-cycle"):
        CombinatorialMap((3, 4, 5, 0, 1, 2), (1, 2, 3, 4, 5, 0))
    # an entry that is no integer id is a bad table, not a TypeError
    twin, sigma = theta().twin, theta().next_at_vertex
    for bad in (3.0, None, "3"):
        with pytest.raises(MapError) as info:
            CombinatorialMap((bad,) + twin[1:], sigma)
        assert str(info.value) == "twin is not an involution at half-edge 0"
    for bad in (1.0, None, "1"):
        with pytest.raises(MapError) as info:
            CombinatorialMap(twin, (bad,) + sigma[1:])
        assert str(info.value) == "next_at_vertex is not a permutation of the half-edges"


def test_free_loops_must_be_non_negative():
    # a bool would serialize as "loops True", which parse_map rejects
    for loops in (-1, True, False, 1.0, "1"):
        with pytest.raises(MapError) as info:
            CombinatorialMap((), (), loops)
        assert str(info.value) == "free_loops must be a non-negative integer"


def test_sparse_ids_relabel_densely():
    g = build_map(
        [(10, (100, 200, 300)), (20, (601, 501, 401))],
        [(100, 401), (200, 501), (300, 601)],
    )
    assert g == theta()


def test_non_planar_rotation_built_then_refused_on_parse():
    p = petersen()
    g = build_map([(v, p.rotation(v)) for v in range(p.n_vertices)], list(p.edges))
    assert not g.is_planar
    with pytest.raises(NonPlanarError):
        parse_map(serialize_map(g), check_planar=True)


def test_bipartiteness():
    assert theta().is_bipartite()
    assert prism(2).is_bipartite()
    assert cube().is_bipartite()
    assert not prism(3).is_bipartite()
    assert not k4().is_bipartite()
    assert not petersen().is_bipartite()
    assert not dodecahedron().is_bipartite()
    assert not dumbbell().is_bipartite()
    assert circle(2).is_bipartite()


def test_disjoint_union_adds_components():
    g = disjoint_union(theta(), circle())
    assert g.n_vertices == 2
    assert g.n_edges == 4
    assert g.free_loops == 1
    gg = disjoint_union(theta(), k4())
    assert gg.n_vertices == 6
    assert gg.n_paired_edges == 9
    assert gg.is_planar
    assert len(gg.face_orbits()) == len(theta().face_orbits()) + len(k4().face_orbits())


def test_equality_and_hash():
    assert theta() == theta()
    assert hash(theta()) == hash(theta())
    assert theta() != necklace(1)
    assert theta() != disjoint_union(theta(), circle())
    assert (theta() == "theta") is False


def test_serialize_parse_roundtrip_on_catalog():
    graphs = [
        circle(),
        theta(),
        k4(),
        prism(2),
        prism(5),
        cube(),
        dodecahedron(),
        petersen(),
        necklace(3),
        disjoint_union(theta(), circle()),
    ]
    for g in graphs:
        assert parse_map(serialize_map(g)) == g


def test_serialize_format():
    assert serialize_map(circle()) == "loops 1\n"
    text = serialize_map(theta())
    assert text.splitlines()[0] == "vertex 0: 0 1 2"
    assert "edge 0: 0 3" in text


def test_parse_comments_whitespace_and_default_loops():
    text = """
    # a theta graph
    vertex 0: 0 1 2
    vertex 1: 5 4 3   # rotation is counterclockwise

    edge 0: 0 3
    edge 1: 1 4
    edge 2: 2 5
    """
    g = parse_map(text)
    assert g == theta()
    assert g.free_loops == 0


@pytest.mark.parametrize(
    "text,message",
    [
        ("vertex 0: 0 1", "expected 'vertex"),
        ("edge 0: 1 2 3", "expected 'edge"),
        ("loops", "expected 'loops"),
        ("loops 1\nloops 2", "duplicate loops"),
        ("vertex 0: 0 1 2\nvertex 0: 3 4 5", "duplicate vertex"),
        # canonical but for the leading zero, so the line loop reads it
        (
            serialize_map(theta()).replace("vertex 1:", "vertex 00:"),
            "^line 2: duplicate vertex id 0$",
        ),
        ("edge 0: 0 1\nedge 0: 2 3", "duplicate edge"),
        ("vertex x: 0 1 2", "non-negative integer"),
        ("vertex 0: 0 1 two", "non-negative integer"),
        ("loops -1", "non-negative integer"),
        ("thing 1 2", "unknown directive"),
        ("vertex 0: 0 1 2", "unmatched"),
        pytest.param(
            "vertex 0: 0 1 " + "9" * 5000,
            "^line 1: integer of 5000 digits is too long$",
            id="over-long id",
            marks=pytest.mark.skipif(
                not getattr(sys, "get_int_max_str_digits", int)(),
                reason="the interpreter has no digit limit",
            ),
        ),
    ],
)
def test_parse_errors(text, message):
    with pytest.raises(ParseError, match=message):
        parse_map(text)


def test_parse_checks_planarity_only_on_request():
    text = serialize_map(petersen())
    assert parse_map(text) == petersen()
    with pytest.raises(NonPlanarError):
        parse_map(text, check_planar=True)


# ----------------------------------------------------------------------
# the bulk reader of canonical text against the line loop


def read_outcome(text: str, check_planar: bool):
    """``parse_map``'s tables for ``text``, or its error's type and text."""
    try:
        cmap = parse_map(text, check_planar=check_planar)
    except MapError as exc:
        return type(exc), str(exc)
    return cmap.twin, cmap.next_at_vertex, cmap.free_loops


def assert_readers_agree(text: str) -> None:
    for check_planar in (False, True):
        bulk = read_outcome(text, check_planar)
        with mock.patch.object(planar, "_parse_canonical", return_value=None):
            assert bulk == read_outcome(text, check_planar), text


READER_MAPS = [
    *(g for _, g in CATALOG_MAPS),
    circle(0),
    disjoint_union(theta(), circle(2)),
    disjoint_union(necklace(3), k4()),
    *[random_planar_cubic(v, seed=s) for v in (10, 16, 24) for s in range(2)],
]


def _id_tokens(lines: list[str], rnd: random.Random) -> tuple[list[str], int, int]:
    """The tokens of a random line, its index, and the index of a random id token in it
    (of its only token, when a tab has joined them)."""
    i = rnd.randrange(len(lines))
    tokens = lines[i].split(" ")
    return tokens, i, rnd.randrange(1, len(tokens)) if len(tokens) > 1 else 0


def _replace_id(lines, rnd, token):
    tokens, i, j = _id_tokens(lines, rnd)
    tokens[j] = token(tokens[j])
    lines[i] = " ".join(tokens)


def _repeated_half_edge(lines, rnd):
    halves = [t for line in lines if not line.startswith("loops") for t in line.split(" ")[2:]]
    _replace_id(lines, rnd, lambda t: t if t.endswith(":") or not halves else rnd.choice(halves))


def _swapped_half_edges(lines, rnd):
    (a, i, j), (b, k, m) = _id_tokens(lines, rnd), _id_tokens(lines, rnd)
    if i != k and not a[j].endswith(":") and not b[m].endswith(":"):
        a[j], b[m] = b[m], a[j]
        lines[i], lines[k] = " ".join(a), " ".join(b)


def _vertex_renamed_00(lines, rnd):
    vertices = [i for i, line in enumerate(lines) if line.startswith("vertex")]
    if vertices:
        i = rnd.choice(vertices)
        lines.insert(i + 1, lines[i].replace("vertex ", "vertex 0", 1))


def _duplicate_edge_id(lines, rnd):
    edges = [i for i, line in enumerate(lines) if line.startswith("edge")]
    if edges:
        i, j = rnd.choice(edges), rnd.choice(edges)
        lines[j] = " ".join(lines[i].split(" ")[:2] + lines[j].split(" ")[2:])


def _shifted_ids(lines, rnd):
    k = rnd.randrange(1, 20)

    def shift(match):
        return str(int(match[0]) + k)

    # ids of up to 9 digits, which leaves an over-long one as it is
    lines[:] = [
        line if line.startswith("loops") else re.sub(r"\b\d{1,9}\b", shift, line)
        for line in lines
    ]


def _extra_edge(lines, rnd):
    # two half-edges that another edge or no rotation holds
    n = 3 * sum(line.startswith("vertex") for line in lines)
    edges = sum(line.startswith("edge") for line in lines)
    a, b = rnd.sample(range(n + 2), 2)
    lines.append(f"edge {edges}: {a} {b}")


def _dropped_line(lines, rnd):
    if lines:
        del lines[rnd.randrange(len(lines))]


# each rewrites a text's lines in place and returns None, or returns the new text
TEXT_MUTATIONS = {
    "leading zero": lambda lines, rnd: _replace_id(lines, rnd, lambda t: "0" + t),
    "vertex 00 after vertex 0": _vertex_renamed_00,
    "duplicate edge id": _duplicate_edge_id,
    "repeated half-edge": _repeated_half_edge,
    "swapped half-edges": _swapped_half_edges,
    "shifted ids": _shifted_ids,
    "extra edge": _extra_edge,
    "dropped line": _dropped_line,
    "shuffled lines": lambda lines, rnd: rnd.shuffle(lines),
    "comment line": lambda lines, rnd: lines.insert(rnd.randrange(len(lines) + 1), "# note"),
    "trailing comment": lambda lines, rnd: lines.__setitem__(-1, lines[-1] + " # x"),
    "loops line": lambda lines, rnd: lines.append(f"loops {rnd.randrange(3)}"),
    "over-long id": lambda lines, rnd: _replace_id(
        lines, rnd, lambda t: "9" * 5000 + t[len(t.rstrip(":")) :]
    ),
    "tab": lambda lines, rnd: lines.__setitem__(0, lines[0].replace(" ", "\t", 1)),
    "no final newline": lambda lines, rnd: "\n".join(lines),
    "crlf": lambda lines, rnd: "".join(line + "\r\n" for line in lines),
}


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(READER_MAPS),
    st.lists(st.sampled_from(sorted(TEXT_MUTATIONS)), max_size=2),
    st.randoms(use_true_random=False),
)
def test_bulk_reader_and_line_loop_agree(cmap, mutations, rnd):
    text = serialize_map(cmap)
    if not mutations:
        # canonical text takes the bulk reader
        assert planar._parse_canonical(text) == cmap
    for name in mutations:
        lines = text.splitlines() or ["loops 0"]  # the empty map, as a line to rewrite
        rewritten = TEXT_MUTATIONS[name](lines, rnd)
        text = rewritten if isinstance(rewritten, str) else "".join(f"{line}\n" for line in lines)
    assert_readers_agree(text)


def test_ids_with_a_gap_fall_back_to_the_line_loop():
    # theta's canonical layout with id 5 written as 6: n distinct ids, so
    # only looking up 5 in the cycle table finds the gap
    good = serialize_map(theta()).replace(" 5", " 6")
    # the same in the rotation only: the line loop refuses it
    bad = serialize_map(theta()).replace(" 5 ", " 6 ")
    assert good != bad
    for text in (good, bad):
        assert planar._parse_canonical(text) is None
        assert_readers_agree(text)
    assert parse_map(good) == theta()
    with pytest.raises(ParseError, match="half-edge 5 appears in an edge pair but in no rotation"):
        parse_map(bad)


def test_build_map_inverts_a_maps_tables():
    for g in (theta(), k4(), necklace(2), disjoint_union(theta(), circle(2))):
        rotations = [(v, g.rotation(v)) for v in range(g.n_vertices)]
        assert build_map(rotations, g.edges, g.free_loops) == g


# ----------------------------------------------------------------------
# the one incidence table, which the coloring and SU(3) modules read

INCIDENCE_MAPS = (
    CATALOG_MAPS
    + UNIONS  # the dumbbell among them: each triple repeats its self-loop
    + [
        (f"random{v}-{seed}", random_planar_cubic(v, seed))
        for v in range(8, 61, 2)
        for seed in range(3)
    ]
)


def eager_incidence(g: CombinatorialMap):
    """Reference: edge ids at each vertex and each edge's endpoints, from
    ``rotation(v)``, ``edges`` and ``vertex_of``."""
    edge_of = {h: e for e, pair in enumerate(g.edges) for h in pair}
    triples = [tuple(edge_of[h] for h in g.rotation(v)) for v in range(g.n_vertices)]
    endpoints = [(g.vertex_of[a], g.vertex_of[b]) for a, b in g.edges]
    return triples, endpoints


@pytest.mark.parametrize(
    "cmap", [g for _, g in INCIDENCE_MAPS], ids=[name for name, _ in INCIDENCE_MAPS]
)
def test_incidence_tables_match_eager_derivation(cmap):
    triples, endpoints = eager_incidence(cmap)
    g = CombinatorialMap(cmap.twin, cmap.next_at_vertex, cmap.free_loops)
    assert [g.vertex_edges(v) for v in range(g.n_vertices)] == triples
    # the cached table lists the triples in vertex order, three ids each
    assert g._vertex_edges == sum(triples, ())
    assert g._endpoints() == endpoints
    # the endpoints are derived on each call: the map keeps no table for them
    tables = ["edges", "_rotations", "vertex_of", "_vertex_edges"]
    assert built_tables(g) == tables
    assert set(vars(g)) == {"_twin", "_sigma", "_free_loops", *tables}


@pytest.mark.parametrize(
    "cmap", [g for _, g in INCIDENCE_MAPS], ids=[name for name, _ in INCIDENCE_MAPS]
)
def test_build_map_from_shuffled_scaled_rows(cmap):
    # ids scaled by 7, rows and pairs in a shuffled order, each rotation
    # started at a shuffled half-edge and each pair's halves swapped at random
    rng = random.Random(cmap.n_half_edges)
    rotations = [(v, cmap.rotation(v)) for v in range(cmap.n_vertices)]
    assert build_map(rotations, cmap.edges, cmap.free_loops) == cmap
    scaled = []
    for v, rot in rotations:
        k = rng.randrange(3)
        scaled.append((7 * v, tuple(7 * h for h in rot[k:] + rot[:k])))
    pairs = [(7 * a, 7 * b) if rng.random() < 0.5 else (7 * b, 7 * a) for a, b in cmap.edges]
    rng.shuffle(scaled)
    rng.shuffle(pairs)
    assert build_map(scaled, pairs, cmap.free_loops) == cmap


# ----------------------------------------------------------------------
# the constructor's table comparisons against per-index loops


def reference_validate(twin, sigma):
    """The constructor's checks written as one loop per check.

    Returns ``(exception type, message)`` for the first structural fault,
    ``(NonPlanarError, message)`` naming the first component that fails
    Euler's formula, or ``None`` when the tables describe a planar map.
    """
    n = len(twin)
    try:
        for h in range(n):
            t = twin[h]
            if not (0 <= t < n) or twin[t] != h:
                raise MapError(f"twin is not an involution at half-edge {h}")
            if t == h:
                raise MapError(f"twin fixes half-edge {h}")
        if sorted(sigma) != list(range(n)):
            raise MapError("next_at_vertex is not a permutation of the half-edges")
        for h in range(n):
            if len({h, sigma[h], sigma[sigma[h]]}) != 3 or sigma[sigma[sigma[h]]] != h:
                raise MapError(f"rotation at half-edge {h} is not a single 3-cycle")
        # components of the half-edges under twin and sigma, by smallest half-edge
        comp = [-1] * n
        n_comps = 0
        for h0 in range(n):
            if comp[h0] < 0:
                comp[h0] = n_comps
                todo = [h0]
                while todo:
                    h = todo.pop()
                    for g in (twin[h], sigma[h]):
                        if comp[g] < 0:
                            comp[g] = n_comps
                            todo.append(g)
                n_comps += 1
        chi = [0] * n_comps
        seen = [False] * n
        for h0 in range(n):
            if not seen[h0]:
                chi[comp[h0]] += 1  # one face
                h = h0
                while not seen[h]:
                    seen[h] = True
                    h = sigma[twin[h]]
        for c in range(n_comps):
            # a vertex is a 3-cycle of sigma, named by its smallest half-edge
            halves = [h for h in range(n) if comp[h] == c]
            vertices = {min(h, sigma[h], sigma[sigma[h]]) for h in halves}
            chi[c] += len(vertices) - len(halves) // 2
            if chi[c] != 2:
                raise NonPlanarError(
                    f"component {c}: V - E + F = {chi[c]}, expected 2 "
                    "(rotation system is not planar)"
                )
    except MapError as exc:
        return type(exc), str(exc)
    return None


def constructor_outcome(twin, sigma):
    """The constructor's verdict in :func:`reference_validate`'s terms.

    A structural fault raises; a non-planar map is built, and its
    recorded component text is the message.
    """
    try:
        g = CombinatorialMap(twin, sigma)
    except MapError as exc:
        return type(exc), str(exc)
    return None if g.is_planar else (NonPlanarError, g._faces[1])


def corrupt(cmap, rng):
    """Tables of ``cmap`` with one to three seeded faults of the kinds below."""
    twin, sigma = list(cmap.twin), list(cmap.next_at_vertex)
    n = len(twin)
    for _ in range(rng.randint(1, 3)):
        i, j = rng.randrange(n), rng.randrange(n)
        kind = rng.choice(
            [
                "twin-entry", "twin-fixed", "twin-repair",
                "sigma-entry", "sigma-duplicate", "sigma-two-cycle", "sigma-swap",
            ]
        )
        if kind == "twin-entry":
            twin[i] = rng.randint(-2, n + 2)
        elif kind == "sigma-entry":
            sigma[i] = rng.randint(-2, n + 2)
        elif kind == "twin-fixed":
            twin[i] = i
        elif kind == "twin-repair":
            # rejoin two edges crosswise: still an involution, maybe not planar
            a, b = i, twin[i]
            c, d = j, twin[j]
            if len({a, b, c, d}) == 4 and 0 <= b < n and 0 <= d < n:
                twin[a], twin[c], twin[b], twin[d] = c, a, d, b
        elif kind == "sigma-duplicate":
            sigma[i] = sigma[j]
        elif kind == "sigma-two-cycle":
            k = sigma[i]
            if 0 <= k < n:
                sigma[i], sigma[k], sigma[sigma[k]] = k, i, sigma[k]
        else:
            # across two vertices this splices their 3-cycles into one 6-cycle
            sigma[i], sigma[j] = sigma[j], sigma[i]
    return twin, sigma


@pytest.mark.parametrize(
    "cmap",
    [
        theta(), k4(), cube(), prism(5), necklace(3), dumbbell(),
        disjoint_union(k4(), theta()), disjoint_union(theta(), cube()),
    ],
    ids=["theta", "k4", "cube", "prism5", "necklace3", "dumbbell", "k4+theta", "theta+cube"],
)
def test_constructor_matches_loop_reference(cmap):
    rng = random.Random(cmap.n_half_edges)
    outcomes = set()
    for _ in range(400):
        twin, sigma = corrupt(cmap, rng)
        expected = reference_validate(twin, sigma)
        assert constructor_outcome(twin, sigma) == expected
        # each message with its numbers blanked out names one kind of fault
        outcomes.add(None if expected is None else re.sub(r"-?\d+", "#", expected[1]))
    assert None in outcomes and len(outcomes) >= 5


def test_constructor_reports_first_fault():
    t = list(theta().twin)
    s = theta().next_at_vertex
    fixed_then_bad = [0] + t[1:4] + [9] + t[5:]
    bad_then_fixed = t[:1] + [9] + t[2:4] + [4] + t[5:]
    assert constructor_outcome(fixed_then_bad, s) == (MapError, "twin fixes half-edge 0")
    assert constructor_outcome(bad_then_fixed, s) == (
        MapError,
        "twin is not an involution at half-edge 1",
    )
    for twin in (fixed_then_bad, bad_then_fixed):
        assert constructor_outcome(twin, s) == reference_validate(twin, s)


def test_wrapped_and_boolean_entries_match_loop_reference():
    # an entry of -1 reads as the last half-edge, so it can agree with the
    # table wherever it is read; the gathers must still reject it
    g = cube()
    twin, sigma = list(g.twin), list(g.next_at_vertex)
    n = len(twin)

    def variants(table):
        for i in range(n):
            for value in (-1, -n, True, False):
                bad = table.copy()
                bad[i] = value
                yield bad
        # -1 exactly where n - 1 was, so every read of it gives the old entry
        yield [-1 if h == n - 1 else h for h in table]

    cases = [(t, sigma) for t in variants(twin)] + [(twin, s) for s in variants(sigma)]
    outcomes = set()
    for t, s in cases:
        expected = reference_validate(t, s)
        assert constructor_outcome(t, s) == expected
        outcomes.add(expected)
    # True in place of 1, or False in place of 0, leaves a valid map
    assert None in outcomes and len(outcomes) > 4


def test_float_entries_name_the_same_fault():
    twin, sigma = list(cube().twin), list(cube().next_at_vertex)
    for i in (0, 7, len(twin) - 1):
        t = twin.copy()
        t[i] = float(t[i])
        assert constructor_outcome(t, sigma) == (
            MapError,
            f"twin is not an involution at half-edge {i}",
        )
        s = sigma.copy()
        s[i] = float(s[i])
        assert constructor_outcome(twin, s) == (
            MapError,
            "next_at_vertex is not a permutation of the half-edges",
        )


@pytest.mark.parametrize(
    "parts, component",
    [
        ((petersen(), theta()), 0),
        ((cube(), petersen(), theta()), 1),
        ((k4(), theta(), petersen()), 2),
    ],
    ids=["petersen+theta", "cube+petersen+theta", "k4+theta+petersen"],
)
def test_non_planar_component_matches_loop_reference(parts, component):
    u = parts[0]
    for part in parts[1:]:
        u = disjoint_union(u, part)
    outcome = constructor_outcome(u.twin, u.next_at_vertex)
    assert outcome == reference_validate(u.twin, u.next_at_vertex)
    assert outcome == (
        NonPlanarError,
        f"component {component}: V - E + F = -2, expected 2 (rotation system is not planar)",
    )


def test_non_planar_component_is_named():
    u = disjoint_union(theta(), petersen())
    with pytest.raises(NonPlanarError) as info:
        parse_map(serialize_map(u), check_planar=True)
    assert str(info.value) == "component 1: V - E + F = -2, expected 2 (rotation system is not planar)"
    assert reference_validate(u.twin, u.next_at_vertex) == (NonPlanarError, str(info.value))


# ----------------------------------------------------------------------
# the vertex, edge and rotation tables, built on first use, against an eager build


def eager_tables(g):
    """Every vertex, edge and rotation query of ``g``, computed from its two permutations."""
    twin, sigma = g.twin, g.next_at_vertex
    edges = tuple((h, twin[h]) for h in range(g.n_half_edges) if h < twin[h])
    edge_of = {h: e for e, pair in enumerate(edges) for h in pair}
    # a vertex is a 3-cycle of sigma, counted in order of its smallest half-edge
    smallest = [min(h, sigma[h], sigma[sigma[h]]) for h in range(g.n_half_edges)]
    firsts = sorted(set(smallest))
    vof = [firsts.index(m) for m in smallest]
    rotations = [(h, sigma[h], sigma[sigma[h]]) for h in firsts]
    return {
        "vertex_of": tuple(vof),
        "edges": edges,
        "edge_of": [edge_of[h] for h in range(g.n_half_edges)],
        "rotation": rotations,
        "vertex_edges": [tuple(edge_of[h] for h in rot) for rot in rotations],
        "edge_endpoints": [(vof[a], vof[b]) for a, b in edges] + [None] * g.free_loops,
    }


QUERIES = {
    "vertex_of": lambda g: g.vertex_of,
    "edges": lambda g: g.edges,
    "edge_of": lambda g: [g.edge_of(h) for h in range(g.n_half_edges)],
    "rotation": lambda g: [g.rotation(v) for v in range(g.n_vertices)],
    "vertex_edges": lambda g: [g.vertex_edges(v) for v in range(g.n_vertices)],
    "edge_endpoints": lambda g: [g.edge_endpoints(e) for e in range(g.n_edges)],
}


def lazy_table_maps():
    maps = [
        (f"{name}/{i}", g)
        for name, root in SEARCH_MAPS
        for i, g in enumerate(priority_path_maps(root))
    ]
    pairs = zip(CATALOG_MAPS, CATALOG_MAPS[1:] + CATALOG_MAPS[:1])
    maps += [(f"{a}+{b}", disjoint_union(g, h)) for (a, g), (b, h) in pairs]
    return maps


def test_lazy_tables_match_eager_build():
    for name, g in lazy_table_maps():
        expected = eager_tables(g)
        assert g.n_paired_edges == len(expected["edges"]), name
        assert g.n_edges == len(expected["edges"]) + g.free_loops, name
        for first in QUERIES:
            # a fresh copy, so ``first`` is the query that builds its table
            fresh = CombinatorialMap(g.twin, g.next_at_vertex, g.free_loops)
            answers = {first: QUERIES[first](fresh)}
            answers.update((q, ask(fresh)) for q, ask in QUERIES.items() if q != first)
            assert answers == expected, (name, first)


# ----------------------------------------------------------------------
# bipartiteness from the two permutations, against a vertex search


def vertex_bfs_bipartite(g: CombinatorialMap) -> bool:
    """Reference: breadth-first 2-coloring over the vertex and edge tables."""
    side = [-1] * g.n_vertices
    for start in range(g.n_vertices):
        if side[start] >= 0:
            continue
        side[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for e in g.vertex_edges(v):
                u, w = g.edge_endpoints(e)
                other = w if v == u else u
                if other == v:
                    return False
                if side[other] < 0:
                    side[other] = 1 - side[v]
                    queue.append(other)
                elif side[other] == side[v]:
                    return False
    return True


def with_random_bigons(g: CombinatorialMap, count: int, seed: int) -> CombinatorialMap:
    """``g`` with ``count`` bigons put on random edges, which keeps it bipartite or not."""
    rng = random.Random(seed)
    for _ in range(count):
        rotations = [(v, g.rotation(v)) for v in range(g.n_vertices)]
        pairs, loops = list(g.edges), g.free_loops
        n, v = g.n_half_edges, g.n_vertices
        x, y = pairs.pop(rng.randrange(len(pairs)))
        pairs += [(x, n), (n + 1, n + 5), (n + 2, n + 4), (n + 3, y)]
        rotations += [(v, (n, n + 1, n + 2)), (v + 1, (n + 3, n + 4, n + 5))]
        g = build_map(rotations, pairs, loops)
    return g


def bipartite_test_maps():
    maps = lazy_table_maps()
    maps += [
        (f"random{v}-{seed}", random_planar_cubic(v, seed))
        for v in (8, 14, 20)
        for seed in range(8)
    ]
    starts = [
        ("theta", theta()), ("cube", cube()), ("prism6", prism(6)), ("k4", k4()),
        ("dumbbell", dumbbell()),
    ]
    maps += [
        (f"{name}+{k}bigons-{seed}", with_random_bigons(g, k, seed))
        for name, g in starts
        for k in (1, 3, 8)
        for seed in range(4)
    ]
    return maps


def test_is_bipartite_matches_vertex_search():
    answers = set()
    for name, g in bipartite_test_maps():
        fresh = CombinatorialMap(g.twin, g.next_at_vertex, g.free_loops)
        answer = fresh.is_bipartite()
        # the two permutations answer it: no vertex, edge or rotation table is built
        assert built_tables(fresh) == [], name
        assert answer == vertex_bfs_bipartite(g), name
        answers.add(answer)
    assert answers == {True, False}


# ----------------------------------------------------------------------
# faces, planarity and self-loops, derived on first read


def holds_faces(g: CombinatorialMap) -> bool:
    """Whether ``g`` has traced its faces, read without tracing them."""
    return "_faces" in vars(g)


def test_maps_hold_no_face_data_until_read():
    sizes = {"circle": (2,), "prism": (5,), "necklace": (3,)}
    made = [make(*sizes.get(name, ())) for name, make in GENERATORS.items()]
    made += [
        CombinatorialMap(theta().twin, theta().next_at_vertex, 1),
        build_map(THETA_ROTATIONS, THETA_PAIRS),
        parse_map(serialize_map(petersen())),
        parse_map(serialize_map(disjoint_union(k4(), circle(2)))),
        disjoint_union(necklace(2), cube()),
    ]
    for g in made:
        assert not holds_faces(g), g
        enumerate_tait(g, 3)
        serialize_map(g)
        # every map with a coloring, the dodecahedron included, is decorated
        if count_tait(g):
            decoration_to_representation(g, sample_admissible_decoration(g, rng=0))
        # both move queries work from the two permutations
        find_move(g)
        available_moves(g)
        assert not holds_faces(g), g
        # the first read traces them, and every later read shares that pass
        faces = g.face_orbits()
        assert holds_faces(g)
        assert g.is_planar == (g != petersen())
        assert g.face_orbits() is faces


def test_reduction_traces_only_its_root(monkeypatch):
    made, ends = [], []
    apply, trunk = reduction._apply, reduction._trunk

    def recording(cmap, kind, face):
        children = apply(cmap, kind, face)
        made.extend(children)
        return children

    def recording_trunk(cmap):
        moves, end = trunk(cmap)
        if moves:
            ends.append(end)
            made.append(end)
        return moves, end

    monkeypatch.setattr(reduction, "_apply", recording)
    monkeypatch.setattr(reduction, "_trunk", recording_trunk)
    shared = 0
    for cmap in [prism(12), necklace(6), *[random_planar_cubic(v, 7) for v in (30, 40, 50)]]:
        root = CombinatorialMap(cmap.twin, cmap.next_at_vertex, cmap.free_loops)
        made.clear()
        reduce_map(root)
        # the root's planarity check traces its faces; no map a move makes is traced
        assert holds_faces(root)
        assert not any(map(holds_faces, made))
        keys = [(g.twin, g.next_at_vertex, g.free_loops) for g in made]
        shared += len(keys) - len(set(keys))
    # later copies of a map still take the finished node from the memo
    assert shared > 0
    # the trunk's end map, made in place from the root's tables, is not traced either
    assert len(ends) >= 2


def test_reduce_map_traces_faces_once(monkeypatch):
    traced = []
    trace_faces = CombinatorialMap._faces.func

    def counted(g):
        traced.append(g)
        return trace_faces(g)

    faces = cached_property(counted)
    faces.__set_name__(CombinatorialMap, "_faces")
    monkeypatch.setattr(CombinatorialMap, "_faces", faces)
    root = necklace(50)
    assert reduce_map(root).value() == 3 * 2**50
    assert traced == [root]


def self_loop_by_incidence(g: CombinatorialMap) -> bool:
    """Reference: some vertex meets one edge twice."""
    return any(len(set(g.vertex_edges(v))) < 3 for v in range(g.n_vertices))


def test_has_self_loop_matches_incidence():
    maps = [g for _, g in bipartite_test_maps()]
    maps += [
        child
        for g in list(maps)
        if g.is_planar
        for move in available_moves(g)
        for child in apply_move(g, move)
    ]
    answers = [g.has_self_loop for g in maps]
    assert answers == [self_loop_by_incidence(g) for g in maps]
    assert 0 < sum(answers) < len(answers)

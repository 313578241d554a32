"""Tait-coloring counts against an independent exhaustive oracle."""

import heapq
import random
import re
from bisect import bisect_right
from collections import Counter
from itertools import accumulate, count, permutations, product

import numpy as np
import pytest

from tait.catalog import (
    circle,
    cube,
    dodecahedron,
    k4,
    necklace,
    petersen,
    prism,
    theta,
)
from tait import coloring
from tait.coloring import _merges, _random_coloring, count_tait, enumerate_tait
from tait.planar import CombinatorialMap, build_map, disjoint_union, serialize_map
from tait.su3 import RetriesExhaustedError, sample_admissible_decoration


def dumbbell() -> CombinatorialMap:
    """Two vertices, each wearing a self-loop, joined by one edge."""
    return build_map([(0, (0, 1, 2)), (1, (3, 4, 5))], [(0, 1), (2, 3), (4, 5)])


def oracle_count(cmap: CombinatorialMap) -> int:
    """Score all 3^E assignments at once; usable up to 12 paired edges."""
    n = cmap.n_paired_edges
    assert n <= 12, "oracle is exhaustive, keep it small"
    idx = np.arange(3**n)
    digits = (idx[:, None] // 3 ** np.arange(n)[None, :]) % 3
    mask = np.ones(len(idx), dtype=bool)
    for v in range(cmap.n_vertices):
        a, b, c = cmap.vertex_edges(v)
        mask &= digits[:, a] != digits[:, b]
        mask &= digits[:, b] != digits[:, c]
        mask &= digits[:, a] != digits[:, c]
    return int(mask.sum()) * 3**cmap.free_loops


ORACLE_GRAPHS = [
    circle(),
    circle(3),
    theta(),
    k4(),
    prism(2),
    prism(3),
    cube(),
    necklace(1),
    necklace(2),
    necklace(3),
    dumbbell(),
    disjoint_union(theta(), circle()),
    disjoint_union(theta(), theta()),
    disjoint_union(prism(2), circle()),
]


@pytest.mark.parametrize("cmap", ORACLE_GRAPHS, ids=lambda g: f"V{g.n_vertices}E{g.n_edges}")
def test_count_matches_exhaustive_oracle(cmap):
    assert count_tait(cmap) == oracle_count(cmap)


def test_frozen_counts():
    assert count_tait(circle()) == 3
    assert count_tait(theta()) == 6
    assert count_tait(k4()) == 6
    assert count_tait(prism(2)) == 12
    assert count_tait(prism(3)) == 6
    assert count_tait(cube()) == 24
    assert count_tait(prism(6)) == 72
    assert count_tait(necklace(2)) == 12
    assert count_tait(necklace(3)) == 24
    assert count_tait(petersen()) == 0


def test_count_multiplies_over_components():
    assert count_tait(disjoint_union(theta(), theta())) == 36
    assert count_tait(disjoint_union(theta(), circle())) == 18
    assert count_tait(disjoint_union(prism(2), circle())) == 36


@pytest.mark.parametrize("k", range(4))
def test_empty_map_counts_one(k):
    # no vertices: each free loop takes any of the 3 colors
    assert count_tait(circle(k)) == 3**k


def test_self_loop_kills_count():
    assert count_tait(dumbbell()) == 0
    assert enumerate_tait(dumbbell(), 10) == []


def test_enumerate_theta_is_lexicographic():
    got = enumerate_tait(theta(), 10)
    assert got == [
        (1, 2, 3),
        (1, 3, 2),
        (2, 1, 3),
        (2, 3, 1),
        (3, 1, 2),
        (3, 2, 1),
    ]


def test_enumerate_limit_and_prefix():
    assert enumerate_tait(cube(), 0) == []
    assert enumerate_tait(cube(), -2) == []
    assert len(enumerate_tait(cube(), 5)) == 5
    assert enumerate_tait(cube(), 3) == enumerate_tait(cube(), 10)[:3]
    for bad in (2.5, True, False, "3", 3.0, None):
        with pytest.raises(ValueError, match=re.escape(f"limit must be an int, got {bad!r}")):
            enumerate_tait(theta(), bad)


@pytest.mark.parametrize(
    "cmap",
    [theta(), k4(), prism(2), necklace(2), circle(2)],
    ids=["theta", "k4", "prism2", "necklace2", "circle2"],
)
def test_enumerate_exhausts_to_count(cmap):
    total = count_tait(cmap)
    colorings = enumerate_tait(cmap, total + 10)
    assert len(colorings) == total
    assert len(set(colorings)) == total
    assert colorings == sorted(colorings)
    for coloring in colorings:
        assert len(coloring) == cmap.n_edges
        assert set(coloring) <= {1, 2, 3}
        for v in range(cmap.n_vertices):
            seen = [coloring[e] for e in cmap.vertex_edges(v)]
            assert sorted(seen) == [1, 2, 3]


def test_enumerate_free_loops_are_unconstrained():
    assert enumerate_tait(circle(), 5) == [(1,), (2,), (3,)]
    got = enumerate_tait(disjoint_union(theta(), circle()), 4)
    assert got == [
        (1, 2, 3, 1),
        (1, 2, 3, 2),
        (1, 2, 3, 3),
        (1, 3, 2, 1),
    ]


# ----------------------------------------------------------------------
# the tensor-contraction count against the backtracking enumerator


def random_planar_cubic(n_vertices: int, seed: int) -> CombinatorialMap:
    """Planar cubic map grown from ``theta`` by chords across random faces.

    Each step picks a face uniformly, then two of its half-edges,
    subdivides their edges (one edge twice if both picks fall on it) and
    joins the two new vertices.  Of the four rotation choices for the new
    vertices, the first that passes the Euler check is kept.
    """
    rng = random.Random(seed)
    g = theta()
    while g.n_vertices < n_vertices:
        face = rng.choice(g.face_orbits())
        x, y = rng.choice(face), rng.choice(face)
        rotations = [(v, g.rotation(v)) for v in range(g.n_vertices)]
        pairs = list(g.edges)
        n, v = g.n_half_edges, g.n_vertices
        p, q = (n, n + 1, n + 2), (n + 3, n + 4, n + 5)
        tx, ty = g.twin[x], g.twin[y]
        pairs = [pr for pr in pairs if not {x, y} & set(pr)]
        if y in (x, tx):
            pairs += [(x, p[0]), (p[1], q[0]), (q[1], tx)]
        else:
            pairs += [(x, p[0]), (p[1], tx), (y, q[0]), (q[1], ty)]
        pairs.append((p[2], q[2]))
        for rp, rq in product((p, (p[0], p[2], p[1])), (q, (q[0], q[2], q[1]))):
            g = build_map(rotations + [(v, rp), (v + 1, rq)], pairs)
            if g.is_planar:
                break
    return g


def backtrack_count(cmap: CombinatorialMap) -> int:
    """Count by the enumerating backtracker, for maps small enough to list."""
    bound = 10**6
    colorings = enumerate_tait(cmap, bound)
    assert len(colorings) < bound
    return len(colorings)


CATALOG_MAPS = [
    ("circle", circle()),
    ("circle3", circle(3)),
    ("theta", theta()),
    ("k4", k4()),
    ("cube", cube()),
    ("dodecahedron", dodecahedron()),
    ("petersen", petersen()),
    *[(f"prism{n}", prism(n)) for n in range(2, 10)],
    *[(f"necklace{k}", necklace(k)) for k in range(1, 8)],
]

UNIONS = [
    ("theta+circle2", disjoint_union(theta(), circle(2))),
    ("k4+necklace2+circle", disjoint_union(disjoint_union(k4(), necklace(2)), circle())),
    ("petersen+circle", disjoint_union(petersen(), circle())),
    ("prism3+cube", disjoint_union(prism(3), cube())),
    ("dumbbell", dumbbell()),
    ("dumbbell+theta", disjoint_union(dumbbell(), theta())),
]


@pytest.mark.parametrize(
    "cmap", [g for _, g in CATALOG_MAPS + UNIONS], ids=[n for n, _ in CATALOG_MAPS + UNIONS]
)
def test_count_matches_backtracker_and_oracle(cmap):
    count = count_tait(cmap)
    assert count == backtrack_count(cmap)
    if cmap.n_paired_edges <= 9:  # ORACLE_GRAPHS covers up to 12 edges
        assert count == oracle_count(cmap)


@pytest.mark.parametrize("n_vertices", range(4, 31, 2))
def test_count_matches_backtracker_on_random_maps(n_vertices):
    cmap = random_planar_cubic(n_vertices, seed=n_vertices)
    assert cmap.is_planar
    count = count_tait(cmap)
    assert count == backtrack_count(cmap)
    if cmap.n_paired_edges <= 9:
        assert count == oracle_count(cmap)


def test_random_planar_cubic_is_seeded():
    a, b = random_planar_cubic(20, 7), random_planar_cubic(20, 7)
    assert serialize_map(a) == serialize_map(b)
    assert a.n_vertices == 20


@pytest.mark.parametrize("sizes", [(40, 120), (60, 100), (80, 80), (120, 40)])
def test_count_multiplies_over_large_random_components(sizes):
    a, b = (random_planar_cubic(v, seed=4000 + v) for v in sizes)
    assert count_tait(disjoint_union(a, b)) == count_tait(a) * count_tait(b)
    assert count_tait(disjoint_union(b, a)) == count_tait(a) * count_tait(b)


# ----------------------------------------------------------------------
# the count against a reference that keeps clusters in a dict, keys a
# pair by the symmetric difference of its open edges and merges with
# np.tensordot


def rekeying_count(cmap: CombinatorialMap) -> int:
    """Reference: re-key every neighbour from its edge sets at each merge."""
    if cmap.has_self_loop:
        return 0
    distinct = np.zeros((3, 3, 3), dtype=np.int64)
    distinct[tuple(zip(*permutations(range(3))))] = 1
    at_vertex = [cmap.vertex_edges(v) for v in range(cmap.n_vertices)]
    endpoints = [cmap.edge_endpoints(e) for e in range(cmap.n_paired_edges)]
    clusters = {v: (edges, distinct, 1) for v, edges in enumerate(at_vertex)}
    ends = [list(pair) for pair in endpoints]
    fresh = count(len(at_vertex))

    def key(a, b):
        return (len(set(clusters[a][0]).symmetric_difference(clusters[b][0])), a, b)

    heap = sorted({key(min(pair), max(pair)) for pair in endpoints})
    total = 3**cmap.free_loops
    while heap:
        _, a, b = heapq.heappop(heap)
        if a not in clusters or b not in clusters:
            continue
        (edges_a, table_a, size_a), (edges_b, table_b, size_b) = clusters.pop(a), clusters.pop(b)
        if size_a + size_b > 60:
            table_a, table_b = table_a.astype(object), table_b.astype(object)
        shared = [e for e in edges_a if e in edges_b]
        axes = ([edges_a.index(e) for e in shared], [edges_b.index(e) for e in shared])
        table = np.tensordot(table_a, table_b, axes)
        edges = tuple([e for e in edges_a + edges_b if e not in shared])
        if not edges:
            total *= int(table)
            continue
        c = next(fresh)
        clusters[c] = (edges, table, size_a + size_b)
        for e in edges:
            ends[e] = [c if x in (a, b) else x for x in ends[e]]
        for d in {x for e in edges for x in ends[e]} - {c}:
            heapq.heappush(heap, key(d, c))
    return total


# random maps past the backtracker's reach, across the 60-vertex switch
# from int64 to Python-int tables, long chains, and the unions with free
# loops and a self-loop
REKEYING_MAPS = [
    *[(f"random{v}", random_planar_cubic(v, seed=7000 + v)) for v in range(60, 201, 10)],
    *[(f"prism{n}", prism(n)) for n in range(29, 32)],
    *[(f"necklace{k}", necklace(k)) for k in range(29, 32)],
    *UNIONS,
]


@pytest.mark.parametrize(
    "cmap", [g for _, g in REKEYING_MAPS], ids=[n for n, _ in REKEYING_MAPS]
)
def test_count_matches_rekeying_reference(cmap):
    assert count_tait(cmap) == rekeying_count(cmap)


def test_count_has_no_depth_limit():
    assert count_tait(necklace(400)) == 3 * 2**400
    assert count_tait(prism(60)) == 2**60 + 8


def test_enumerate_has_no_depth_limit():
    g = necklace(400)
    (coloring,) = enumerate_tait(g, 1)
    assert len(coloring) == g.n_edges
    for v in range(g.n_vertices):
        assert sorted(coloring[e] for e in g.vertex_edges(v)) == [1, 2, 3]


# ----------------------------------------------------------------------
# colorings drawn from the count's merges


def is_coloring(cmap: CombinatorialMap, color: list[int]) -> bool:
    """Whether ``color`` gives the paired edges colors 0-2, three distinct at each vertex."""
    return len(color) == cmap.n_paired_edges and all(
        sorted(color[e] for e in cmap.vertex_edges(v)) == [0, 1, 2]
        for v in range(cmap.n_vertices)
    )


def test_random_coloring_past_int64():
    g = necklace(70)
    assert count_tait(g) > 2**63  # its merges switch to Python-int tables
    for seed in range(3):
        assert is_coloring(g, _random_coloring(g, np.random.default_rng(seed)))
    _, objects, _ = g._merge_tables
    assert objects.dtype == object and objects.size


@pytest.mark.parametrize(
    "cmap", [g for _, g in CATALOG_MAPS + UNIONS], ids=[n for n, _ in CATALOG_MAPS + UNIONS]
)
def test_random_coloring_exists_exactly_where_the_count_is_not_zero(cmap):
    color = _random_coloring(cmap, np.random.default_rng(0))
    if count_tait(cmap):
        assert is_coloring(cmap, color)
    else:
        assert color is None


@pytest.mark.parametrize(
    "cmap", [cube(), prism(5), random_planar_cubic(14, 0)], ids=["cube", "prism5", "random14-0"]
)
def test_random_colorings_are_uniform(cmap):
    # 100 draws per coloring; the chi-squared statistic stays below its
    # 0.999 quantile (Wilson-Hilferty) and every coloring is drawn
    colorings = [tuple(c - 1 for c in x) for x in enumerate_tait(cmap, 10**6)]
    rng, per = np.random.default_rng(2024), 100
    seen = Counter(tuple(_random_coloring(cmap, rng)) for _ in range(per * len(colorings)))
    assert set(seen) == set(colorings)
    chi2 = sum((seen[x] - per) ** 2 / per for x in colorings)
    df = len(colorings) - 1
    assert chi2 < df * (1 - 2 / (9 * df) + 3.09 * (2 / (9 * df)) ** 0.5) ** 3


# ----------------------------------------------------------------------
# one merge schedule per map, shared by the count and the draw


def fresh(cmap: CombinatorialMap) -> CombinatorialMap:
    """A copy of ``cmap`` that has built none of its cached tables."""
    return CombinatorialMap(cmap.twin, cmap.next_at_vertex, cmap.free_loops)


PLAN_MAPS = [
    *[(name, g) for name, g in CATALOG_MAPS + UNIONS if not g.has_self_loop],
    *[(f"random{v}-{s}", random_planar_cubic(v, s)) for v in range(8, 61, 4) for s in range(3)],
]


@pytest.mark.parametrize("cmap", [g for _, g in PLAN_MAPS], ids=[n for n, _ in PLAN_MAPS])
def test_count_builds_the_plan_a_draw_reads(cmap):
    g = fresh(cmap)
    assert "_merge_plan" not in vars(g)
    count = count_tait(g)
    plan = vars(g)["_merge_plan"]
    # one flat tuple of ints per map, not a container per merge
    assert type(plan) is tuple and all(type(x) is int for x in plan)
    if count:
        sample_admissible_decoration(g, 0)
    else:
        with pytest.raises(RetriesExhaustedError):
            sample_admissible_decoration(g, 0)
    assert g._merge_plan is plan
    # a draw on a map never counted builds the same schedule
    h = fresh(cmap)
    _random_coloring(h, np.random.default_rng(0))
    assert vars(h)["_merge_plan"] == plan


def test_plan_of_theta_and_k4():
    # per merge: cluster ids a, b; how many edges a keeps, they share, b
    # keeps; those edges; then a's axes (kept, shared) and b's (shared, kept)
    assert theta()._merge_plan == (0, 1, 0, 3, 0, 0, 1, 2, 0, 1, 2, 0, 2, 1)
    g = k4()
    assert [g.vertex_edges(v) for v in range(4)] == [(0, 1, 2), (3, 4, 0), (2, 5, 3), (1, 4, 5)]
    # every pair of vertices shares one edge, so the smallest ids merge
    # first into cluster 4 with open edges 1, 2, 3, 4; vertices 2 and 3 tie
    # at three open edges with it, and 2 goes first, into cluster 5 with
    # open edges 5, 1, 4, which closes with vertex 3
    assert g._merge_plan == (
        *(0, 1, 2, 1, 2, 1, 2, 0, 3, 4, 1, 2, 0, 2, 0, 1),
        *(2, 4, 1, 2, 2, 5, 2, 3, 1, 4, 1, 0, 2, 1, 2, 0, 3),
        *(3, 5, 0, 3, 0, 1, 4, 5, 0, 1, 2, 1, 2, 0),
    )


@pytest.mark.parametrize("cmap", [g for _, g in PLAN_MAPS], ids=[n for n, _ in PLAN_MAPS])
def test_counted_map_draws_what_a_fresh_map_draws(cmap):
    counted = fresh(cmap)
    count_tait(counted)
    for seed in range(3):
        got = _random_coloring(counted, np.random.default_rng(seed))
        assert got == _random_coloring(fresh(cmap), np.random.default_rng(seed))


@pytest.mark.parametrize(
    "cmap", [dumbbell(), disjoint_union(dumbbell(), theta())], ids=["dumbbell", "dumbbell+theta"]
)
def test_self_loop_builds_no_plan(cmap):
    g = fresh(cmap)
    assert count_tait(g) == 0
    assert _random_coloring(g, np.random.default_rng(0)) is None
    with pytest.raises(RetriesExhaustedError):
        sample_admissible_decoration(g, 0)
    assert "_merge_plan" not in vars(g)
    assert "_merge_tables" not in vars(g)


# ----------------------------------------------------------------------
# the operands the first draw keeps, against a draw that contracts anew


def contracting_coloring(cmap: CombinatorialMap, rng: np.random.Generator) -> list[int] | None:
    """Reference: runs every merge of ``_merges`` on each draw and walks them back."""
    if cmap.has_self_loop:
        return None
    randrange = random.Random(int(rng.integers(2**63))).randrange
    plan = cmap._merge_plan
    color = [0] * cmap.n_paired_edges

    def index(edges):
        i = 0
        for e in edges:
            i = 3 * i + color[e]
        return i

    for i, a, b in reversed(list(_merges(cmap))):
        ka, ns, kb = plan[i + 2 : i + 5]
        keep_a = plan[i + 5 : i + 5 + ka]
        shared = plan[i + 5 + ka : i + 5 + ka + ns]
        keep_b = plan[i + 5 + ka + ns : i + 5 + ka + ns + kb]
        row, col = a[index(keep_a)].tolist(), b[:, index(keep_b)].tolist()
        cumulative = list(accumulate(x * y for x, y in zip(row, col)))
        if not cumulative[-1]:
            return None
        s = bisect_right(cumulative, randrange(cumulative[-1]))
        for e in reversed(shared):
            s, color[e] = divmod(s, 3)
    return color


# necklace(70) keeps object tables: its merges pass 60 vertices
KEPT_MAPS = [*PLAN_MAPS, ("necklace70", necklace(70))]


@pytest.mark.parametrize("cmap", [g for _, g in KEPT_MAPS], ids=[n for n, _ in KEPT_MAPS])
def test_kept_draw_equals_the_contracting_draw(cmap):
    drawn = fresh(cmap)
    for seed in range(3):
        expected = contracting_coloring(fresh(cmap), np.random.default_rng(seed))
        # a map's first draw, and one on a map that has drawn before
        assert _random_coloring(fresh(cmap), np.random.default_rng(seed)) == expected
        assert _random_coloring(drawn, np.random.default_rng(seed)) == expected


@pytest.mark.parametrize("cmap", [g for _, g in KEPT_MAPS], ids=[n for n, _ in KEPT_MAPS])
def test_first_draw_keeps_the_tables_every_draw_reads(cmap, monkeypatch):
    g = fresh(cmap)
    count_tait(g)
    assert "_merge_tables" not in vars(g)  # a count keeps no operand
    first = _random_coloring(g, np.random.default_rng(0))
    tables = vars(g)["_merge_tables"]
    # three flat read-only arrays, not a container per merge
    assert type(tables) is tuple
    ints, objects, marks = tables
    assert ints.dtype.kind == "u" and objects.dtype == object and marks.dtype == np.int64
    for table in tables:
        assert table.ndim == 1 and not table.flags.writeable
    # every operand but the vertex tables, each once
    merges = [(i, a, b) for i, a, b in _merges(g)]
    assert len(marks) == 4 * len(merges)
    n, plan = g.n_vertices, g._merge_plan
    kept = sum(a.size * (plan[i] >= n) + b.size * (plan[i + 1] >= n) for i, a, b in merges)
    assert ints.size + objects.size == kept

    def contract(*args):
        raise AssertionError("a repeated draw ran the contraction")

    monkeypatch.setattr(coloring, "_merges", contract)
    monkeypatch.setattr(np, "dot", contract)
    assert _random_coloring(g, np.random.default_rng(0)) == first
    assert g._merge_tables is tables

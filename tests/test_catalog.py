"""Shape checks for the built-in graph families."""

import pytest

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
from tait.planar import parse_map, serialize_map


def face_degrees(cmap):
    return sorted(map(len, cmap.face_orbits()))


def test_circle():
    for n in range(4):
        g = circle(n)
        assert (g.n_vertices, g.n_half_edges, g.free_loops, g.n_edges) == (0, 0, n, n)
    assert circle().free_loops == 1


def test_theta():
    g = theta()
    assert (g.n_vertices, g.n_edges) == (2, 3)
    assert face_degrees(g) == [2, 2, 2]
    assert g.is_planar and g.is_bipartite()


def test_k4():
    g = k4()
    assert (g.n_vertices, g.n_edges) == (4, 6)
    assert face_degrees(g) == [3, 3, 3, 3]
    assert g.is_planar and not g.is_bipartite()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_prism(n):
    g = prism(n)
    assert (g.n_vertices, g.n_edges) == (2 * n, 3 * n)
    assert face_degrees(g) == sorted([n, n] + [4] * n)
    assert g.is_planar
    assert g.is_bipartite() == (n % 2 == 0)


def test_cube_is_four_prism():
    assert cube() == prism(4)
    assert face_degrees(cube()) == [4] * 6


def test_dodecahedron():
    g = dodecahedron()
    assert (g.n_vertices, g.n_edges) == (20, 30)
    assert face_degrees(g) == [5] * 12
    assert g.is_planar and not g.is_bipartite()


def test_petersen_is_not_planar():
    g = petersen()
    assert (g.n_vertices, g.n_edges) == (10, 15)
    assert not g.is_planar
    # its rotation system closes up on a higher-genus surface
    assert g.n_vertices - g.n_edges + len(g.face_orbits()) != 2


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_necklace(k):
    g = necklace(k)
    assert (g.n_vertices, g.n_edges) == (2 * k, 3 * k)
    if k == 1:
        assert face_degrees(g) == [2, 2, 2]
    else:
        assert face_degrees(g) == sorted([2] * k + [2 * k] * 2)
    assert g.is_planar and g.is_bipartite()


def test_necklace_one_has_theta_counts():
    a, b = necklace(1), theta()
    assert (a.n_vertices, a.n_edges) == (b.n_vertices, b.n_edges)
    assert face_degrees(a) == face_degrees(b)


def test_generator_table():
    assert set(GENERATORS) == {
        "circle",
        "theta",
        "k4",
        "prism",
        "cube",
        "dodecahedron",
        "petersen",
        "necklace",
    }
    assert GENERATORS["cube"]() == cube()


@pytest.mark.parametrize(
    "bad",
    [lambda: circle(-1), lambda: prism(1), lambda: prism(0), lambda: necklace(0)],
    ids=["circle-1", "prism1", "prism0", "necklace0"],
)
def test_constructor_validation(bad):
    with pytest.raises(ValueError):
        bad()


@pytest.mark.parametrize(
    "g",
    [circle(2), theta(), k4(), prism(3), cube(), dodecahedron(), petersen(), necklace(3)],
    ids=["circle2", "theta", "k4", "prism3", "cube", "dodecahedron", "petersen", "necklace3"],
)
def test_serialize_roundtrip(g):
    assert parse_map(serialize_map(g), check_planar=False) == g

"""Tests of the benchmark itself: ``python3 -m pytest bench/tests``."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gen  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import self_times  # noqa: E402

from tait import catalog, planar, reduction, su3  # noqa: E402
from tait.coloring import count_tait  # noqa: E402
from tait.laurent import p3  # noqa: E402


# -- generator ----------------------------------------------------------


@pytest.mark.parametrize("n", [2, 4, 24, 60, 100])
def test_random_planar_is_deterministic_and_valid(n):
    text = gen.random_planar(n, "7:x")
    assert gen.random_planar(n, "7:x") == text
    if n >= 24:
        assert gen.random_planar(n, "8:x") != text
    cmap = planar.parse_map(text, check_planar=True)
    assert cmap.n_vertices == n
    assert planar.serialize_map(cmap) == text


@pytest.mark.parametrize("n", [8, 10, 12, 16, 40])
def test_random_bipartite_is_deterministic_valid_and_bipartite(n):
    text = gen.random_bipartite(n, 3)
    assert gen.random_bipartite(n, 3) == text
    cmap = planar.parse_map(text, check_planar=True)
    assert cmap.n_vertices == n
    assert cmap.is_bipartite()


def test_generator_rejects_odd_sizes():
    with pytest.raises(ValueError):
        gen.random_planar(7, 0)
    with pytest.raises(ValueError):
        gen.random_bipartite(6, 0)


def test_corpora_are_deterministic_per_seed():
    tait = run.import_tait()
    for workload in wl.WORKLOADS.values():
        a = run.corpus_hash(workload.corpus(tait, 5))
        assert a == run.corpus_hash(workload.corpus(tait, 5))
        assert a != run.corpus_hash(workload.corpus(tait, 6))


# -- percentile rule ----------------------------------------------------


@pytest.mark.parametrize(
    "n, p",
    [(5, 50), (19, 50), (20, 50), (39, 50), (40, 75), (99, 75), (100, 90),
     (199, 90), (200, 95), (999, 95), (1000, 99), (9999, 99), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, p):
    assert run.tail_percentile(n) == p


def test_percentile_interpolates():
    assert run.percentile([4, 1, 3, 2], 50) == 2.5
    assert run.percentile(list(range(101)), 95) == 95


# -- self time ----------------------------------------------------------


def test_self_times_subtract_merged_children():
    spans = [
        (0, "cli", 0.0, 10.0, -1),
        (0, "parse", 1.0, 3.0, 0),
        (0, "reduce", 4.0, 9.0, 0),
        (0, "find", 5.0, 6.0, 2),
        (0, "find", 5.5, 7.0, 2),  # overlaps its sibling: 5.0-7.0 counts once
        (0, "build", 8.0, 12.0, 2),  # sticks out of its parent: clipped at 9.0
        (1, "cli", 20.0, 21.0, -1),
    ]
    got = self_times(spans)
    assert got == pytest.approx(
        {"cli": (10 - 2 - 5) + 1, "parse": 2, "reduce": 5 - 2 - 1, "find": 1 + 1.5, "build": 4}
    )


# -- references and checks ----------------------------------------------


@pytest.mark.parametrize("n", range(2, 11))
def test_prism_count_matches_the_counter(n):
    assert ref.prism_count(n) == count_tait(catalog.prism(n))


@pytest.mark.parametrize("k", [1, 2, 5])
def test_necklace_closed_forms(k):
    cmap = catalog.necklace(k)
    assert ref.necklace_count(k) == count_tait(cmap)
    assert ref.parse_poly(str(p3(cmap))) == ref.necklace_p3(k)


def test_random_order_reference_matches_the_program():
    cmap = planar.parse_map(gen.random_bipartite(24, 1), check_planar=True)
    leaves = ref.random_order_leaves(cmap, reduction, "t")
    assert ref.leaves_count(leaves) == count_tait(cmap)
    assert ref.leaves_p3(leaves) == ref.parse_poly(str(p3(cmap)))


def test_parse_poly_reads_signs_and_powers():
    assert ref.parse_poly("-7*q^4 + q^3 - 2*q + 7 - q^-3") == {4: -7, 3: 1, 1: -2, 0: 7, -3: -1}
    assert ref.parse_poly("0") == {}
    with pytest.raises(ValueError):
        ref.parse_poly("q^ + 1")


def _item(text, recipe=("random",)):
    return wl.Item("t", text, recipe)


def test_count_check_rejects_a_wrong_value():
    item = _item("")
    good = {"count": "24", "source": "test"}
    assert wl.check_counts(item, (0, "24\n"), good) is None
    assert wl.check_counts(item, (0, "25\n"), good)
    assert wl.check_counts(item, ((0, "24\n"), (0, "25\n")), {"count": None, "source": "t"})
    assert wl.check_counts(item, ((0, "24\n"), (2, "")), good) is None


def test_p3_check_rejects_a_wrong_polynomial():
    k = 3
    good = {"count": str(ref.necklace_count(k)), "p3": ref.poly_digest(ref.necklace_p3(k))}
    poly = str(p3(catalog.necklace(k)))
    tree = f"0 bigon 0,5 2\nvalue {ref.necklace_count(k)}\n"
    item = _item("", ("necklace", k))
    assert wl.check_p3(item, ((0, poly), (0, tree)), good) is None
    assert wl.check_p3(item, ((0, poly.replace("q^5", "q^7", 1)), (0, tree)), good)
    assert wl.check_p3(item, ((0, poly), (0, tree.replace("value 24", "value 25"))), good)


def test_decoration_check_rejects_a_bent_line():
    cmap = catalog.prism(5)
    text = planar.serialize_map(cmap)
    lines = su3.sample_admissible_decoration(cmap, np.random.default_rng(0))
    matrices = su3.decoration_to_representation(cmap, lines)
    recovered = su3.representation_to_decoration(matrices)
    item = _item(text, ("su3",))
    assert wl.check_su3(item, (lines, matrices, recovered), {}) is None
    bent = list(lines)
    v = bent[3] + 1e-4 * np.array([1, 1j, 0])
    bent[3] = v / np.linalg.norm(v)
    assert wl.check_su3(item, (bent, matrices, recovered), {})


def test_incidence_numbers_edges_like_tait():
    cmap = planar.parse_map(gen.random_planar(30, "incidence"))
    inc = ref.incidence(planar.serialize_map(cmap))
    assert [tuple(row) for row in inc] == [cmap.vertex_edges(v) for v in range(cmap.n_vertices)]

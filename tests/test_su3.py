"""Order-2 special unitaries, the product criterion, and map decorations."""

from collections import deque

import numpy as np
import pytest

from tait.catalog import circle, cube, dodecahedron, k4, necklace, prism, theta
from tait.planar import disjoint_union
from tait.su3 import (
    STANDARD_INVOLUTION,
    InadmissibleDecorationError,
    RetriesExhaustedError,
    admissibility_deviation,
    axis_of,
    check_order_two_product,
    decoration_to_representation,
    is_admissible,
    is_order_two,
    is_special_unitary,
    line_overlap,
    random_line,
    random_special_unitary,
    reflection_from_line,
    representation_to_decoration,
    same_line,
    sample_admissible_decoration,
    vertex_product_deviation,
)
from tait.su3 import _edge_bfs_order, _edge_neighbors
from test_coloring import dumbbell, random_planar_cubic

E = np.eye(3, dtype=complex)


def test_standard_involution():
    assert is_special_unitary(STANDARD_INVOLUTION)
    assert is_order_two(STANDARD_INVOLUTION)
    assert same_line(axis_of(STANDARD_INVOLUTION), E[0])
    assert np.allclose(reflection_from_line(E[0]), STANDARD_INVOLUTION)


def test_basis_reflections_are_sign_matrices():
    for i in range(3):
        R = reflection_from_line(E[i])
        want = -np.eye(3)
        want[i, i] = 1.0
        assert np.allclose(R, want)
        assert is_order_two(R)


def test_reflection_ignores_phase_and_needs_unit_norm():
    rng = np.random.default_rng(7)
    v = random_line(rng)
    R1 = reflection_from_line(v)
    R2 = reflection_from_line(np.exp(0.73j) * v)
    assert np.linalg.norm(R1 - R2) < 1e-14
    with pytest.raises(ValueError, match="unit vector"):
        reflection_from_line(2.0 * v)


@pytest.mark.parametrize("seed", range(6))
def test_axis_recovery(seed):
    rng = np.random.default_rng(seed)
    v = random_line(rng)
    R = reflection_from_line(v)
    assert is_special_unitary(R)
    assert is_order_two(R)
    assert line_overlap(axis_of(R), v) >= 1.0 - 1e-12


def test_is_order_two_branches():
    assert not is_order_two(E)
    assert is_order_two(STANDARD_INVOLUTION)
    # special unitary of order 4
    assert not is_order_two(np.diag([1j, 1j, -1.0]))
    with pytest.raises(ValueError, match="special unitary"):
        is_order_two(2.0 * E)
    with pytest.raises(ValueError, match="special unitary"):
        is_order_two(np.diag([1.0, 1.0, -1.0]))


def test_axis_of_rejects_non_involutions():
    with pytest.raises(ValueError, match="order-2"):
        axis_of(E)


@pytest.mark.parametrize("seed", range(4))
def test_random_special_unitary(seed):
    U = random_special_unitary(np.random.default_rng(seed))
    assert is_special_unitary(U)
    assert abs(np.linalg.det(U) - 1.0) < 1e-12


def test_product_of_orthogonal_reflections():
    report = check_order_two_product(reflection_from_line(E[0]), reflection_from_line(E[1]))
    assert report.axes_orthogonal
    assert report.product_order_two
    assert report.biconditional_holds
    assert report.orthogonal_case_deviation <= 1e-12
    assert max(report.product_axis_overlaps) <= 1e-12
    # the product fixes the third basis line
    product = reflection_from_line(E[0]) @ reflection_from_line(E[1])
    assert same_line(axis_of(product), E[2])


def test_product_of_equal_reflections_is_identity():
    S = reflection_from_line(E[0])
    report = check_order_two_product(S, S)
    assert not report.axes_orthogonal
    assert report.axis_overlap == pytest.approx(1.0)
    assert not report.product_order_two
    assert report.involution_defect <= 1e-12
    assert report.product_axis_overlaps is None
    assert report.biconditional_holds
    assert report.orthogonal_case_deviation == 0.0


def test_product_of_slanted_reflections():
    v = E[0]
    w = 0.5 * E[0] + (np.sqrt(3) / 2) * E[1]
    report = check_order_two_product(reflection_from_line(v), reflection_from_line(w))
    assert report.axis_overlap == pytest.approx(0.5)
    assert not report.axes_orthogonal
    assert not report.product_order_two
    assert report.involution_defect > 1.0
    assert report.biconditional_holds


@pytest.mark.parametrize("seed", range(10))
def test_product_criterion_both_branches(seed):
    rng = np.random.default_rng(seed)
    v = random_line(rng)
    w = random_line(rng)
    # orthogonal partner via Gram-Schmidt
    u = w - np.vdot(v, w) * v
    u = u / np.linalg.norm(u)
    ortho = check_order_two_product(reflection_from_line(v), reflection_from_line(u))
    assert ortho.axes_orthogonal and ortho.product_order_two
    assert ortho.biconditional_holds
    assert ortho.orthogonal_case_deviation <= 1e-9
    slant = check_order_two_product(reflection_from_line(v), reflection_from_line(w))
    assert slant.biconditional_holds


def test_product_check_rejects_non_involutions():
    with pytest.raises(ValueError, match="S is not"):
        check_order_two_product(E, STANDARD_INVOLUTION)
    with pytest.raises(ValueError, match="T is not"):
        check_order_two_product(STANDARD_INVOLUTION, E)


def test_theta_standard_basis_decoration():
    g = theta()
    decoration = [E[0], E[1], E[2]]
    assert is_admissible(g, decoration)
    assert admissibility_deviation(g, decoration) <= 1e-15
    mats = decoration_to_representation(g, decoration)
    assert vertex_product_deviation(g, mats) <= 1e-12
    back = representation_to_decoration(mats)
    for a, b in zip(back, decoration):
        assert same_line(a, b)


def test_inadmissible_decoration_is_rejected():
    g = theta()
    with pytest.raises(InadmissibleDecorationError, match="overlap"):
        decoration_to_representation(g, [E[0], E[0], E[1]])
    assert not is_admissible(g, [E[0], E[0], E[1]])


def test_decoration_shape_errors():
    g = theta()
    with pytest.raises(ValueError, match="map has 3 edges"):
        decoration_to_representation(g, [E[0], E[1]])
    with pytest.raises(ValueError, match="unit vector"):
        decoration_to_representation(g, [E[0], E[1], 2 * E[2]])


def test_representation_to_decoration_names_bad_edge():
    with pytest.raises(ValueError, match="edge 1:"):
        representation_to_decoration([STANDARD_INVOLUTION, np.eye(3)])


def test_self_loop_decoration_deviation_is_one():
    assert admissibility_deviation(dumbbell(), [E[0], E[1], E[2]]) == 1.0


def test_edge_bfs_order_is_permutation_and_deterministic():
    for g in (theta(), k4(), cube(), necklace(3), disjoint_union(theta(), cube())):
        order = _edge_bfs_order(_edge_neighbors(g))
        assert sorted(order) == list(range(g.n_paired_edges))
        assert order == _edge_bfs_order(_edge_neighbors(g))


@pytest.mark.parametrize(
    "g", [theta(), k4(), prism(3), cube()], ids=["theta", "k4", "prism3", "cube"]
)
def test_sampler_produces_admissible_decorations(g):
    lines = sample_admissible_decoration(g, rng=0)
    assert len(lines) == g.n_edges
    assert is_admissible(g, lines)
    mats = decoration_to_representation(g, lines)
    assert vertex_product_deviation(g, mats) <= 1e-9
    back = representation_to_decoration(mats)
    for a, b in zip(back, lines):
        assert line_overlap(a, b) >= 1.0 - 1e-9


def test_sampler_is_deterministic_per_seed():
    a = sample_admissible_decoration(cube(), rng=42)
    b = sample_admissible_decoration(cube(), rng=42)
    c = sample_admissible_decoration(cube(), rng=43)
    assert all(np.allclose(x, y) for x, y in zip(a, b))
    assert not all(line_overlap(x, y) >= 1 - 1e-9 for x, y in zip(a, c))


def test_sampler_handles_free_loops():
    lines = sample_admissible_decoration(circle(2), rng=1)
    assert len(lines) == 2
    for v in lines:
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_sampler_rejects_self_loops_immediately():
    with pytest.raises(RetriesExhaustedError) as info:
        sample_admissible_decoration(dumbbell(), rng=0)
    assert info.value.retries == 0


def test_sampler_retry_budget_is_reported():
    with pytest.raises(RetriesExhaustedError) as info:
        sample_admissible_decoration(dodecahedron(), rng=0, max_retries=3)
    assert info.value.retries == 3


@pytest.mark.parametrize("max_retries", [0, -2])
def test_sampler_rejects_bad_retry_budget(max_retries):
    with pytest.raises(ValueError, match="max_retries"):
        sample_admissible_decoration(theta(), rng=0, max_retries=max_retries)


@pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
def test_sampler_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tol"):
        sample_admissible_decoration(theta(), rng=0, tol=tol)


def rescanning_sampler(cmap, rng, tol=1e-9, max_retries=100):
    """Reference: the sampler that rescans every unfixed edge at every step."""
    rng = np.random.default_rng(rng)
    triples = [cmap.vertex_edges(v) for v in range(cmap.n_vertices)]
    if any(len(set(t)) < 3 for t in triples):
        raise RetriesExhaustedError(
            "a vertex self-loop admits no admissible decoration", retries=0
        )
    n_paired = cmap.n_paired_edges
    endpoints = [cmap.edge_endpoints(e) for e in range(n_paired)]
    neighbors = [set() for _ in range(n_paired)]
    for tri in triples:
        for e in tri:
            neighbors[e].update(x for x in tri if x != e)
    order, seen = [], [False] * n_paired
    for e0 in range(n_paired):
        if seen[e0]:
            continue
        seen[e0] = True
        queue = deque([e0])
        while queue:
            e = queue.popleft()
            order.append(e)
            for x in sorted(neighbors[e]):
                if not seen[x]:
                    seen[x] = True
                    queue.append(x)
    bfs_rank = {e: i for i, e in enumerate(order)}

    def fixed_neighbors(e, lines):
        return [
            lines[other]
            for v in endpoints[e]
            for other in triples[v]
            if other != e and lines[other] is not None
        ]

    for _ in range(max_retries):
        lines = [None] * n_paired
        conflict = False
        unfixed = set(range(n_paired))
        while unfixed and not conflict:
            best = None
            for e in unfixed:
                fixed = fixed_neighbors(e, lines)
                if fixed:
                    s = np.linalg.svd(np.conj(np.array(fixed)), compute_uv=False)
                    rank = int(np.count_nonzero(s > s[0] * 1e-8))
                else:
                    rank = 0
                key = (-rank, bfs_rank[e])
                if best is None or key < best[0]:
                    best = (key, e, rank)
            _, e, rank = best
            if rank >= 3:
                conflict = True
                break
            fixed = fixed_neighbors(e, lines)
            if fixed:
                _, _, vh = np.linalg.svd(np.conj(np.array(fixed)))
                null_basis = np.conj(vh[rank:])
            else:
                null_basis = np.eye(3, dtype=complex)
            if rank == 2:
                x = null_basis[0]
            else:
                coef = rng.standard_normal(len(null_basis)) + 1j * rng.standard_normal(
                    len(null_basis)
                )
                x = coef @ null_basis
            lines[e] = x / np.linalg.norm(x)
            unfixed.discard(e)
        if conflict:
            continue
        if admissibility_deviation(cmap, lines) <= tol:
            lines.extend(random_line(rng) for _ in range(cmap.free_loops))
            return lines
    raise RetriesExhaustedError(
        f"no admissible decoration found in {max_retries} attempts",
        retries=max_retries,
    )


def sampler_outcome(sampler, g, seed, max_retries):
    """The lines a sampler returns, or the text and budget of its exhaustion."""
    try:
        return sampler(g, seed, max_retries=max_retries)
    except RetriesExhaustedError as exc:
        return str(exc), exc.retries


REFERENCE_MAPS = (
    [("theta", theta(), 100), ("k4", k4(), 100), ("cube", cube(), 100)]
    + [(f"prism{n}", prism(n), 100) for n in range(3, 9)]
    + [(f"necklace{k}", necklace(k), 100) for k in range(1, 7)]
    + [("necklace2+circle2", disjoint_union(necklace(2), circle(2)), 100)]
    # seed 3 samples at every size; seed 2 exhausts from V=12 on
    + [
        (f"random{v}-{seed}", random_planar_cubic(v, seed), 10)
        for v in range(8, 23, 2)
        for seed in (2, 3)
    ]
    + [("dodecahedron", dodecahedron(), 3), ("dumbbell", dumbbell(), 100)]
)


@pytest.mark.parametrize(
    "g, max_retries",
    [(g, r) for _, g, r in REFERENCE_MAPS],
    ids=[n for n, _, _ in REFERENCE_MAPS],
)
def test_sampler_matches_rescanning_reference(g, max_retries):
    for seed in range(5):
        want = sampler_outcome(rescanning_sampler, g, seed, max_retries)
        got = sampler_outcome(sample_admissible_decoration, g, seed, max_retries)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

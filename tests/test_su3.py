"""Order-2 special unitaries, the product criterion, and map decorations."""

import dataclasses
import inspect
import re

import numpy as np
import pytest

from tait import su3, verify
from tait.catalog import circle, cube, dodecahedron, k4, necklace, petersen, prism, theta
from tait.coloring import _random_coloring, count_tait
from tait.planar import CombinatorialMap, disjoint_union
from tait.su3 import (
    STANDARD_INVOLUTION,
    InadmissibleDecorationError,
    RetriesExhaustedError,
    admissibility_deviation,
    axis_of,
    check_order_two_product,
    decoration_to_representation,
    is_order_two,
    line_overlap,
    random_line,
    random_special_unitary,
    reflection_from_line,
    representation_to_decoration,
    sample_admissible_decoration,
    vertex_product_deviation,
)
from tait.verify import roundtrip_corpus
from test_coloring import dumbbell, random_planar_cubic

E = np.eye(3, dtype=complex)


def special_unitary(M) -> bool:
    """``su3``'s special-unitary kernel on one matrix, after its shape check."""
    return bool(su3._special_unitary(su3._as_matrix(M)[None])[0])


def test_standard_involution():
    assert special_unitary(STANDARD_INVOLUTION)
    assert is_order_two(STANDARD_INVOLUTION)
    assert line_overlap(axis_of(STANDARD_INVOLUTION), E[0]) >= 1 - 1e-9
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
    assert special_unitary(R)
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
    assert special_unitary(U)
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
    assert line_overlap(axis_of(product), E[2]) >= 1 - 1e-9


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
    # the error names the argument at fault, and why
    not_order_two = "matrix is not an order-2 special unitary within tolerance"
    not_special = "matrix is not special unitary within tolerance"
    for S, T, message in (
        (E, STANDARD_INVOLUTION, f"S: {not_order_two}"),
        (STANDARD_INVOLUTION, E, f"T: {not_order_two}"),
        (2 * E, STANDARD_INVOLUTION, f"S: {not_special}"),
        (STANDARD_INVOLUTION, 2 * E, f"T: {not_special}"),
        (2 * E, E, f"S: {not_special}"),
    ):
        with pytest.raises(ValueError) as info:
            check_order_two_product(S, T)
        assert str(info.value) == message


def test_theta_standard_basis_decoration():
    g = theta()
    decoration = [E[0], E[1], E[2]]
    assert admissibility_deviation(g, decoration) <= 1e-9
    assert admissibility_deviation(g, decoration) <= 1e-15
    mats = decoration_to_representation(g, decoration)
    assert vertex_product_deviation(g, mats) <= 1e-12
    back = representation_to_decoration(mats)
    for a, b in zip(back, decoration):
        assert line_overlap(a, b) >= 1 - 1e-9


def test_inadmissible_decoration_is_rejected():
    g = theta()
    with pytest.raises(InadmissibleDecorationError, match="overlap"):
        decoration_to_representation(g, [E[0], E[0], E[1]])
    assert not admissibility_deviation(g, [E[0], E[0], E[1]]) <= 1e-9


def test_decoration_shape_errors():
    g = theta()
    with pytest.raises(ValueError, match="map has 3 edges"):
        decoration_to_representation(g, [E[0], E[1]])
    with pytest.raises(ValueError, match="unit vector"):
        decoration_to_representation(g, [E[0], E[1], 2 * E[2]])


def test_representation_to_decoration_names_bad_edge():
    with pytest.raises(ValueError, match="edge 1:"):
        representation_to_decoration([STANDARD_INVOLUTION, np.eye(3)])


def test_conversion_errors_pass_through_unchanged():
    # a line that will not reshape to 3 entries raises numpy's own ValueError
    with pytest.raises(ValueError) as expected:
        np.ones(4).reshape(3)
    with pytest.raises(ValueError) as info:
        admissibility_deviation(theta(), [np.ones(4)] * 3)
    assert str(info.value) == str(expected.value)
    # an entry that is no number raises numpy's TypeError, not one naming an edge
    with pytest.raises(TypeError) as expected:
        np.asarray(object(), dtype=complex)
    S = STANDARD_INVOLUTION
    with pytest.raises(TypeError) as info:
        representation_to_decoration([S, object()])
    assert str(info.value) == str(expected.value)
    with pytest.raises(TypeError) as info:
        vertex_product_deviation(theta(), [S, object(), S])
    assert str(info.value) == str(expected.value)


def test_self_loop_decoration_deviation_is_one():
    assert admissibility_deviation(dumbbell(), [E[0], E[1], E[2]]) == 1.0


NAN_LINE = [np.nan] * 3
NAN_MATRIX = np.full((3, 3), np.nan)


def test_nan_line_fails_every_line_check():
    g = theta()
    with pytest.raises(ValueError, match="unit vector"):
        reflection_from_line(NAN_LINE)
    with pytest.raises(ValueError, match="unit vector"):
        decoration_to_representation(g, [E[0], E[1], NAN_LINE])
    assert np.isnan(admissibility_deviation(g, [E[0], E[1], NAN_LINE]))
    assert not admissibility_deviation(g, [E[0], E[1], NAN_LINE]) <= 1e-9
    assert np.isnan(line_overlap(E[0], NAN_LINE))


def test_nan_matrix_fails_every_matrix_check():
    g = theta()
    S = [reflection_from_line(v) for v in E]
    assert not special_unitary(NAN_MATRIX)
    with pytest.raises(ValueError, match="not special unitary"):
        is_order_two(NAN_MATRIX)
    with pytest.raises(ValueError, match="not special unitary"):
        axis_of(NAN_MATRIX)
    with pytest.raises(ValueError, match="not special unitary"):
        check_order_two_product(S[0], NAN_MATRIX)
    with pytest.raises(ValueError, match="^edge 2: matrix is not special unitary"):
        representation_to_decoration([S[0], S[1], NAN_MATRIX])
    assert vertex_product_deviation(g, S) <= 1e-12
    assert np.isnan(vertex_product_deviation(g, [S[0], S[1], NAN_MATRIX]))


def test_roundtrip_counts_a_nan_deviation_as_a_failure(monkeypatch):
    monkeypatch.setattr(verify, "vertex_product_deviation", lambda cmap, matrices: np.nan)
    report = verify.run_roundtrip(trials=3, seed=0)
    assert report.failures == 3
    assert np.isnan(report.max_deviation)
    assert not report.passed


@pytest.mark.parametrize(
    "g", [theta(), k4(), prism(3), cube()], ids=["theta", "k4", "prism3", "cube"]
)
def test_sampler_produces_admissible_decorations(g):
    lines = sample_admissible_decoration(g, rng=0)
    assert len(lines) == g.n_edges
    assert admissibility_deviation(g, lines) <= 1e-9
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
    with pytest.raises(
        RetriesExhaustedError, match="^a vertex self-loop admits no admissible decoration$"
    ):
        sample_admissible_decoration(dumbbell(), rng=0)


@pytest.mark.parametrize("g", [petersen(), disjoint_union(petersen(), theta())])
def test_sampler_raises_where_the_count_is_zero(g):
    gen = np.random.default_rng(0)
    with pytest.raises(RetriesExhaustedError, match="^the map has no Tait coloring to decorate$"):
        sample_admissible_decoration(g, gen)


def test_one_tolerance_and_no_tolerance_parameter():
    assert su3._TOL == 1e-9
    functions = [getattr(su3, name) for name in su3.__all__] + [*verify.SUITES.values()]
    for f in filter(inspect.isfunction, functions):
        assert "tol" not in inspect.signature(f).parameters, f.__name__


RIGID_MAPS = (
    [(f"prism{n}", prism(n)) for n in range(2, 21)]
    + [(f"necklace{k}", necklace(k)) for k in range(1, 21)]
    + [("theta", theta()), ("k4", k4())]
    + [("necklace3+prism5", disjoint_union(necklace(3), prism(5)))]
)


@pytest.mark.parametrize("g", [g for _, g in RIGID_MAPS], ids=[name for name, _ in RIGID_MAPS])
def test_sampler_succeeds_on_rigid_maps_at_the_first_attempt(g):
    for rng in range(3):
        lines = sample_admissible_decoration(g, rng=rng)
        assert admissibility_deviation(g, lines) <= 1e-9


# every catalog family but the Petersen graph, whose count is 0
COLORABLE_MAPS = (
    [("circle3", circle(3)), ("theta", theta()), ("k4", k4()), ("cube", cube())]
    + [("dodecahedron", dodecahedron())]
    + [(f"prism{n}", prism(n)) for n in (2, 5, 9)]
    + [(f"necklace{k}", necklace(k)) for k in (1, 4, 70)]
    + [("cube+necklace2+circle", disjoint_union(disjoint_union(cube(), necklace(2)), circle()))]
    + [
        (f"random{v}-{seed}", random_planar_cubic(v, seed))
        for v in range(14, 61, 2)
        for seed in range(5)
    ]
)


@pytest.mark.parametrize(
    "g", [g for _, g in COLORABLE_MAPS], ids=[name for name, _ in COLORABLE_MAPS]
)
def test_sampler_decorates_every_colorable_map(g):
    # the sampler fails only where the count is 0
    assert count_tait(g)
    for seed in range(2):
        lines = sample_admissible_decoration(g, rng=seed)
        assert len(lines) == g.n_edges
        assert admissibility_deviation(g, lines) <= 1e-9
        mats = decoration_to_representation(g, lines)
        assert vertex_product_deviation(g, mats) <= 1e-9
        for a, b in zip(representation_to_decoration(mats), lines):
            assert line_overlap(a, b) >= 1.0 - 1e-9


def test_kempe_cycles_of_a_drawn_coloring():
    # the (0, 1) edges at each vertex share a cycle, and each cycle alternates
    # its two colors around a closed walk, so it has as many 0s as 1s
    for seed in range(5):
        g = random_planar_cubic(40, seed)
        color = np.array(_random_coloring(g, np.random.default_rng(seed)))
        triples = su3._vertex_triples(g)
        n, cycle = su3._kempe_cycles(triples, color)
        assert (cycle[color == 2] == -1).all()
        assert sorted(set(cycle[color < 2].tolist())) == list(range(n))
        for tri in triples:
            assert len({cycle[e] for e in tri if color[e] < 2}) == 1
        for k in range(n):
            assert np.count_nonzero(color[cycle == k] == 0) == np.count_nonzero(
                color[cycle == k] == 1
            )


# ----------------------------------------------------------------------
# stacked decoration functions against a per-edge reference


def ref_as_matrix(M):
    M = np.asarray(M, dtype=complex)
    if M.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {M.shape}")
    return M


def ref_as_unit_vector(v, tol):
    v = np.asarray(v, dtype=complex).reshape(3)
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > tol:
        raise ValueError(f"line representative must be a unit vector, |v| = {norm}")
    return v


def ref_is_special_unitary(M, tol=1e-9):
    M = ref_as_matrix(M)
    return (
        float(np.linalg.norm(M.conj().T @ M - E)) <= tol
        and abs(np.linalg.det(M) - 1.0) <= tol
    )


def ref_is_order_two(M, tol=1e-9):
    M = ref_as_matrix(M)
    if not ref_is_special_unitary(M, tol):
        raise ValueError("matrix is not special unitary within tolerance")
    return float(np.linalg.norm(M @ M - E)) <= tol and float(np.linalg.norm(M - E)) > tol


def ref_reflection_from_line(v, tol=1e-9):
    v = ref_as_unit_vector(v, tol)
    return 2.0 * np.outer(v, v.conj()) - E


def ref_axis_of(M, tol=1e-9):
    M = ref_as_matrix(M)
    if not ref_is_order_two(M, tol):
        raise ValueError("matrix is not an order-2 special unitary within tolerance")
    proj = (M + E) / 2.0
    v = proj[:, int(np.argmax(np.linalg.norm(proj, axis=0)))]
    v = v / np.linalg.norm(v)
    k = int(np.argmax(np.abs(v)))
    return v * (v[k].conj() / abs(v[k]))


def ref_line_overlap(u, w):
    u = np.asarray(u, dtype=complex).reshape(3)
    w = np.asarray(w, dtype=complex).reshape(3)
    return float(abs(np.vdot(u, w)))


def ref_check_order_two_product(S, T, tol=1e-9):
    """The fields of the product report, by name."""
    S, T = ref_as_matrix(S), ref_as_matrix(T)
    for name, M in (("S", S), ("T", T)):
        try:
            order_two = ref_is_order_two(M, tol)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
        if not order_two:
            raise ValueError(f"{name}: matrix is not an order-2 special unitary within tolerance")
    a, b = ref_axis_of(S, tol), ref_axis_of(T, tol)
    inner = complex(np.vdot(a, b))
    product = S @ T
    defect = float(np.linalg.norm(product @ product - E))
    order_two = defect <= tol and float(np.linalg.norm(product - E)) > tol
    overlaps = None
    if order_two:
        c = ref_axis_of(product, tol)
        overlaps = (ref_line_overlap(c, a), ref_line_overlap(c, b))
    return {
        "axis_inner": inner,
        "axes_orthogonal": abs(inner) <= tol,
        "product_order_two": order_two,
        "involution_defect": defect,
        "product_axis_overlaps": overlaps,
        "biconditional_holds": order_two == (abs(inner) <= tol),
    }


def ref_admissibility_deviation(cmap, decoration):
    worst = 0.0
    for v in range(cmap.n_vertices):
        triple = cmap.vertex_edges(v)
        for i in range(3):
            for j in range(i + 1, 3):
                e, f = triple[i], triple[j]
                if e == f:
                    return 1.0
                worst = max(worst, ref_line_overlap(decoration[e], decoration[f]))
    return worst


def ref_decoration_to_representation(cmap, decoration, tol=1e-9):
    if len(decoration) != cmap.n_edges:
        raise ValueError(
            f"decoration has {len(decoration)} lines, map has {cmap.n_edges} edges"
        )
    lines = [ref_as_unit_vector(v, tol) for v in decoration]
    deviation = ref_admissibility_deviation(cmap, lines)
    if deviation > tol:
        raise InadmissibleDecorationError(
            f"incident lines overlap by {deviation:.3e} (tolerance {tol:.1e})"
        )
    return [ref_reflection_from_line(v, tol) for v in lines]


def ref_representation_to_decoration(matrices, tol=1e-9):
    lines = []
    for e, M in enumerate(matrices):
        try:
            lines.append(ref_axis_of(M, tol))
        except ValueError as exc:
            raise ValueError(f"edge {e}: {exc}") from exc
    return lines


def ref_vertex_product_deviation(cmap, matrices):
    worst = 0.0
    for v in range(cmap.n_vertices):
        e1, e2, e3 = cmap.vertex_edges(v)
        product = np.asarray(matrices[e1]) @ matrices[e2] @ matrices[e3]
        worst = max(worst, float(np.linalg.norm(product - E)))
    return worst


def call_outcome(f, *args):
    """What a call returns, or the type and text of the error it raises."""
    try:
        return f(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def assert_same_outcome(got, want):
    """Equal errors, or results equal within 1e-14 entry by entry."""
    if isinstance(want, tuple):
        assert got == want
    elif isinstance(want, list):
        # the reference builds a list of rows, the stacked functions one array of them
        assert isinstance(got, np.ndarray) and len(got) == len(want)
        for a, b in zip(got, want):
            assert a.shape == b.shape and np.abs(a - b).max() <= 1e-14
    else:
        assert isinstance(got, float) and abs(got - want) <= 1e-14


CONVERSION_MAPS = (
    [(name, g) for name, g in roundtrip_corpus()]
    + [(f"circle{k}", circle(k)) for k in (0, 1, 3)]
    + [(f"prism{n}", prism(n)) for n in (2, 5, 8)]
    + [(f"necklace{k}", necklace(k)) for k in (1, 2, 5)]
    + [("dodecahedron", dodecahedron()), ("petersen", petersen())]
    + [("necklace2+circle2", disjoint_union(necklace(2), circle(2)))]
    + [("dumbbell", dumbbell())]
)


def decorations_of(g, seed):
    """Random lines, and a sampled decoration when the map has a Tait coloring."""
    rng = np.random.default_rng(seed)
    out = [[random_line(rng) for _ in range(g.n_edges)]]
    try:
        out.append(sample_admissible_decoration(g, rng))
    except RetriesExhaustedError:
        pass
    return out


@pytest.mark.parametrize(
    "g", [g for _, g in CONVERSION_MAPS], ids=[n for n, _ in CONVERSION_MAPS]
)
def test_stacked_functions_match_per_edge_reference(g):
    for seed in range(4):
        for lines in decorations_of(g, seed):
            # reflections of any unit lines are order 2, admissible or not
            mats = [ref_reflection_from_line(v) for v in lines]
            for got, want in (
                (admissibility_deviation, ref_admissibility_deviation),
                (decoration_to_representation, ref_decoration_to_representation),
            ):
                assert_same_outcome(call_outcome(got, g, lines), call_outcome(want, g, lines))
            assert_same_outcome(
                representation_to_decoration(mats), ref_representation_to_decoration(mats)
            )
            assert_same_outcome(
                vertex_product_deviation(g, mats), ref_vertex_product_deviation(g, mats)
            )


# the maps the sampler decorates; necklace2+circle2 has paired edges and free loops
STACK_MAPS = [(name, g) for name, g in CONVERSION_MAPS if count_tait(g)]


@pytest.mark.parametrize("g", [g for _, g in STACK_MAPS], ids=[n for n, _ in STACK_MAPS])
def test_decoration_functions_return_one_stack(g):
    n = g.n_edges
    lines = sample_admissible_decoration(g, rng=3)
    mats = decoration_to_representation(g, lines)
    back = representation_to_decoration(mats)
    for got, shape in ((lines, (n, 3)), (mats, (n, 3, 3)), (back, (n, 3))):
        assert isinstance(got, np.ndarray) and got.dtype == complex and got.shape == shape
    # the paired edges by id, then one random line per free loop, drawn after them
    rng = np.random.default_rng(3)
    paired = sample_admissible_decoration(CombinatorialMap(g.twin, g.next_at_vertex), rng)
    loops = [random_line(rng) for _ in range(g.free_loops)]
    assert lines.tobytes() == np.vstack([paired, *loops]).tobytes()
    # rows in, the same stack out
    assert decoration_to_representation(g, list(lines)).tobytes() == mats.tobytes()
    assert representation_to_decoration(list(mats)).tobytes() == back.tobytes()


def test_maps_without_paired_edges():
    rng = np.random.default_rng(5)
    assert decoration_to_representation(circle(0), []).shape == (0, 3, 3)
    assert representation_to_decoration([]).shape == (0, 3)
    assert admissibility_deviation(circle(0), []) == 0.0
    assert vertex_product_deviation(circle(0), []) == 0.0
    lines = [random_line(rng) for _ in range(3)]
    mats = decoration_to_representation(circle(3), lines)
    assert admissibility_deviation(circle(3), lines) == 0.0
    assert vertex_product_deviation(circle(3), mats) == 0.0
    for a, b in zip(representation_to_decoration(mats), lines):
        assert line_overlap(a, b) >= 1 - 1e-9
    with pytest.raises(ValueError, match="^decoration has 2 lines, map has 3 edges$"):
        decoration_to_representation(circle(3), lines[:2])


@pytest.mark.parametrize(
    "g", [theta(), disjoint_union(theta(), circle())], ids=["theta", "theta+circle"]
)
@pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
def test_decoration_checks_reject_a_wrong_length(g, extra):
    # one line per edge, free loops included
    full = [E[e % 3] for e in range(g.n_edges)]
    assert admissibility_deviation(g, full) <= 1e-9
    lines = full[:extra] if extra < 0 else full + full[:extra]
    mats = [reflection_from_line(v) for v in lines]
    n, m = len(lines), g.n_edges
    checks = [
        (admissibility_deviation, lines, f"decoration has {n} lines"),
        (decoration_to_representation, lines, f"decoration has {n} lines"),
        (vertex_product_deviation, mats, f"representation has {n} matrices"),
    ]
    for check, arg, start in checks:
        with pytest.raises(ValueError, match=f"^{start}, map has {m} edges$"):
            check(g, arg)


@pytest.mark.parametrize(
    "bad", [[[1]], np.eye(2), np.ones(3)], ids=["1x1", "2x2", "vector"]
)
def test_vertex_product_deviation_rejects_a_matrix_that_is_not_3x3(bad):
    # broadcasting used to turn 1x1 matrices into a number and the others
    # into numpy's own shape errors; now the first bad edge is named
    g = theta()
    shape = re.escape(str(np.shape(bad)))
    with pytest.raises(ValueError, match=rf"^edge 0: expected a 3x3 matrix, got shape {shape}$"):
        vertex_product_deviation(g, [bad] * 3)
    for e in range(3):
        mats = [np.eye(3)] * 3
        mats[e] = bad
        with pytest.raises(ValueError, match=rf"^edge {e}: expected a 3x3 matrix"):
            vertex_product_deviation(g, mats)


def matrix_faults(rng):
    """Matrices that are not order-2 special unitaries, by kind."""
    return {
        "shape": np.eye(2),
        "vector": np.ones(3),
        "non-unitary": 2.0 * reflection_from_line(random_line(rng)),
        "determinant": -reflection_from_line(random_line(rng)),
        "order four": np.diag([1j, 1j, -1.0]),
        "random unitary": random_special_unitary(rng),
        "identity": np.eye(3),
    }


def line_faults(rng):
    """Line representatives that are not unit 3-vectors, by kind."""
    return {
        "long": 2.0 * random_line(rng),
        "short": 0.5 * random_line(rng),
        "slightly long": (1 + 3e-9) * random_line(rng),
        "size 4": np.ones(4),
        "long column": (2.0 * random_line(rng)).reshape(3, 1),
    }


@pytest.mark.parametrize("kind", list(matrix_faults(np.random.default_rng(0))))
def test_matrix_faults_are_reported_like_the_reference(kind):
    g = cube()
    rng = np.random.default_rng(11)
    good = decoration_to_representation(g, sample_admissible_decoration(g, rng))
    faults = matrix_faults(rng)
    fault = faults[kind]
    for f, ref in (
        (special_unitary, ref_is_special_unitary),
        (is_order_two, ref_is_order_two),
        (axis_of, ref_axis_of),
    ):
        assert call_outcome(f, fault) == call_outcome(ref, fault)
    for k in (0, 5, g.n_edges - 1):
        mats = list(good)
        mats[k] = fault
        want = call_outcome(ref_representation_to_decoration, mats)
        assert isinstance(want, tuple) and want[1].startswith(f"edge {k}: ")
        assert call_outcome(representation_to_decoration, mats) == want
        # a second fault of every other kind, before and after this one
        for other in faults.values():
            for j in (k - 2, k + 3):
                if 0 <= j < g.n_edges:
                    both = list(mats)
                    both[j] = other
                    assert call_outcome(representation_to_decoration, both) == call_outcome(
                        ref_representation_to_decoration, both
                    )


@pytest.mark.parametrize("kind", list(line_faults(np.random.default_rng(0))))
def test_line_faults_are_reported_like_the_reference(kind):
    g = cube()
    rng = np.random.default_rng(12)
    good = sample_admissible_decoration(g, rng)
    faults = line_faults(rng)
    fault = faults[kind]
    assert call_outcome(reflection_from_line, fault) == call_outcome(
        ref_reflection_from_line, fault
    )
    for k in (0, 5, g.n_edges - 1):
        lines = list(good)
        lines[k] = fault
        want = call_outcome(ref_decoration_to_representation, g, lines)
        assert isinstance(want, tuple)
        assert call_outcome(decoration_to_representation, g, lines) == want
        for other in faults.values():
            for j in (k - 2, k + 3):
                if 0 <= j < g.n_edges:
                    both = list(lines)
                    both[j] = other
                    assert call_outcome(decoration_to_representation, g, both) == call_outcome(
                        ref_decoration_to_representation, g, both
                    )


def per_pair_lemma5(trials, seed):
    """(failures, max deviation, lines) of lemma5, checking one pair at a time."""
    rng = np.random.default_rng(seed)
    n_orth = trials // 2
    failures, worst, min_slant_overlap = 0, 0.0, 1.0
    for _ in range(n_orth):
        a, raw = random_line(rng), random_line(rng)
        b = raw - np.vdot(a, raw) * a
        b = b / np.linalg.norm(b)
        report = check_order_two_product(reflection_from_line(a), reflection_from_line(b))
        deviation = report.orthogonal_case_deviation
        worst = max(worst, deviation)
        good = report.biconditional_holds and report.product_order_two and deviation < 1e-9
        failures += not good
    for _ in range(trials - n_orth):
        while True:
            a, b = random_line(rng), random_line(rng)
            if line_overlap(a, b) >= 1e-3:
                break
        report = check_order_two_product(reflection_from_line(a), reflection_from_line(b))
        min_slant_overlap = min(min_slant_overlap, report.axis_overlap)
        failures += not (report.biconditional_holds and not report.product_order_two)
    lines = (
        f"orthogonal pairs: {n_orth}, worst vanishing quantity {worst:.3e}",
        f"non-orthogonal pairs: {trials - n_orth}, smallest axis overlap {min_slant_overlap:.3e}",
    )
    return failures, worst, lines


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("trials", [1, 2, 3, 10, 101])
def test_lemma5_checks_its_stack_as_pairs_one_at_a_time(trials, seed):
    # one pair has no orthogonal half, so the stacked check also runs on empty stacks
    report = verify.run_lemma5(trials, seed)
    assert (report.failures, report.max_deviation, report.lines) == per_pair_lemma5(trials, seed)


@pytest.mark.parametrize("seed", range(20))
def test_product_report_matches_the_reference(seed):
    rng = np.random.default_rng(seed)
    a, raw = random_line(rng), random_line(rng)
    b = raw - np.vdot(a, raw) * a
    b = b / np.linalg.norm(b)
    for v, w in ((a, b), (a, raw), (a, a)):
        S, T = reflection_from_line(v), reflection_from_line(w)
        got = dataclasses.asdict(check_order_two_product(S, T))
        want = ref_check_order_two_product(S, T)
        for key in ("axes_orthogonal", "product_order_two", "biconditional_holds"):
            assert got[key] == want[key]
        for key in ("axis_inner", "involution_defect"):
            assert abs(got[key] - want[key]) <= 1e-14
        got, want = got["product_axis_overlaps"], want["product_axis_overlaps"]
        assert (got is None) == (want is None)
        if want is not None:
            assert np.abs(np.subtract(got, want)).max() <= 1e-14
    for fault in matrix_faults(rng).values():
        for pair in ((fault, S), (S, fault)):
            assert call_outcome(check_order_two_product, *pair) == call_outcome(
                ref_check_order_two_product, *pair
            )

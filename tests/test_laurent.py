"""Laurent ring arithmetic, quantum integers, and the coloring polynomial."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tait.catalog import circle, cube, k4, necklace, prism, theta
from tait.coloring import count_tait
from tait.laurent import (
    LaurentPoly,
    NotBipartiteError,
    P3_WEIGHTS,
    p3,
    quantum_integer,
)
from tait.planar import NonPlanarError, disjoint_union
from tait.reduction import format_trace, reduce_map


laurents = st.dictionaries(
    st.integers(-6, 6), st.integers(-9, 9), max_size=6
).map(LaurentPoly)

rationals = st.builds(
    Fraction, st.integers(-20, 20), st.integers(1, 12)
)


def test_frozen_quantum_integers():
    assert quantum_integer(0) == LaurentPoly()
    assert quantum_integer(1) == LaurentPoly({0: 1})
    assert str(quantum_integer(2)) == "q + q^-1"
    assert str(quantum_integer(3)) == "q^2 + 1 + q^-2"
    assert str(quantum_integer(5)) == "q^4 + q^2 + 1 + q^-2 + q^-4"
    with pytest.raises(ValueError, match="non-negative"):
        quantum_integer(-1)


@pytest.mark.parametrize("n", range(1, 11))
def test_quantum_integer_recurrence(n):
    two = quantum_integer(2)
    assert two * quantum_integer(n) == quantum_integer(n + 1) + quantum_integer(n - 1)


def test_quantum_integer_counts_at_one():
    for n in range(8):
        assert quantum_integer(n)(1) == n
        assert quantum_integer(n).reciprocal() == quantum_integer(n)


@given(laurents, laurents, laurents)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + LaurentPoly() == a
    assert a * LaurentPoly({0: 1}) == a
    assert a * LaurentPoly() == LaurentPoly()
    assert (a - b) + b == a
    assert a + (-a) == LaurentPoly()


# ``laurents`` spans exponents -6..6, so a's values at 13 distinct
# non-zero points determine it
POINTS = [Fraction(k, 2) for k in range(-6, 8) if k]


@given(laurents)
def test_str_evaluates_to_the_polynomial(a):
    # ``tait p3`` prints str(a); read as Python with ^ as **, it is a again
    text = str(a)
    for q in POINTS:
        assert eval(text.replace("^", "**"), {"__builtins__": {}}, {"q": q}) == a(q), text


@given(laurents, laurents, rationals)
def test_evaluation_is_a_homomorphism(a, b, q):
    if q == 0:
        q = Fraction(1, 3)
    assert (a + b)(q) == a(q) + b(q)
    assert (a * b)(q) == a(q) * b(q)
    assert isinstance(a(q), Fraction)


@given(laurents, laurents)
def test_reciprocal_is_a_ring_map(a, b):
    assert (a + b).reciprocal() == a.reciprocal() + b.reciprocal()
    assert (a * b).reciprocal() == a.reciprocal() * b.reciprocal()
    assert a.reciprocal().reciprocal() == a


def test_int_mixing():
    p = quantum_integer(2)
    assert 2 + p == p + 2 == p + LaurentPoly({0: 2})
    assert 3 * p == p * 3
    assert 1 - p == -(p - 1)
    assert p != 7
    assert LaurentPoly({0: 7}) == 7
    assert (p == "q") is False
    for op in (lambda: p + 1.5, lambda: p - 1.5, lambda: 1.5 - p, lambda: p * 1.5):
        with pytest.raises(TypeError):
            op()


@pytest.mark.parametrize("c", [0, 1, 3, -5, 2**70])
def test_constants_hash_as_their_int(c):
    # equal objects must hash equal, or a set keeps both
    assert LaurentPoly({0: c}) == c
    assert hash(LaurentPoly({0: c})) == hash(c)
    assert len({LaurentPoly({0: c}), c}) == 1
    assert {c: "int"}[LaurentPoly({0: c})] == "int"


def test_equal_polynomials_hash_equal():
    p = LaurentPoly({-2: 1, 0: 2, 2: 1})
    q = quantum_integer(2) * quantum_integer(2)
    assert p == q and p is not q
    assert hash(p) == hash(q)
    assert len({p, q}) == 1


def test_pow():
    p = quantum_integer(2)
    assert p**0 == LaurentPoly({0: 1})
    assert p**3 == p * p * p
    with pytest.raises(ValueError, match="non-negative"):
        p**-1


def test_queries():
    p = LaurentPoly({3: 1, 0: -2, -4: 5})
    assert p.coefficient(3) == 1
    assert p.coefficient(2) == 0
    assert list(p.items()) == [(3, 1), (0, -2), (-4, 5)]


def test_constructor_drops_zeros_and_rejects_nonints():
    assert LaurentPoly({2: 0, 1: 1}) == LaurentPoly({1: 1})
    assert repr(LaurentPoly({2: 0, 1: 1})) == "LaurentPoly({1: 1})"
    with pytest.raises(TypeError):
        LaurentPoly({0: 1.5})
    with pytest.raises(TypeError):
        LaurentPoly({0.5: 1})


@pytest.mark.parametrize("terms", [{True: 1}, {0: True}, {True: True}, {1: False}])
def test_constructor_rejects_bools(terms):
    with pytest.raises(TypeError, match="must be ints"):
        LaurentPoly(terms)


def test_bool_operands_count_as_ints():
    assert repr(LaurentPoly() + True) == "LaurentPoly({0: 1})"
    assert quantum_integer(2) * True == quantum_integer(2)
    assert quantum_integer(2) - False == quantum_integer(2)


def nonzero(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c}


def sparse_sum(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return nonzero(out)


def sparse_product(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return nonzero(out)


def assert_terms(poly: LaurentPoly, terms: dict) -> None:
    """``poly`` is the polynomial of ``terms``, read through every query."""
    terms = nonzero(terms)
    ordered = sorted(terms.items(), reverse=True)
    assert list(poly.items()) == ordered
    assert repr(poly) == f"LaurentPoly({dict(ordered)})"
    assert all(poly.coefficient(e) == terms.get(e, 0) for e in range(-70, 71))
    built = LaurentPoly(terms)
    assert poly == built and hash(poly) == hash(built) and str(poly) == str(built)
    if terms.keys() <= {0}:
        assert poly == terms.get(0, 0) and hash(poly) == hash(terms.get(0, 0))


# small coefficients over a wide range of exponents, so sums cancel often,
# at either end and in between
sparse_terms = st.dictionaries(st.integers(-30, 30), st.integers(-2, 2), max_size=8)


@given(sparse_terms, sparse_terms, st.integers(-3, 3))
def test_dense_arithmetic_matches_a_sparse_reference(a, b, k):
    pa, pb = LaurentPoly(a), LaurentPoly(b)
    assert_terms(pa, a)
    assert_terms(pa + pb, sparse_sum(a, b))
    assert_terms(pa - pb, sparse_sum(a, {e: -c for e, c in b.items()}))
    assert_terms(pa * pb, sparse_product(a, b))
    assert_terms(k - pa, sparse_sum({0: k}, {e: -c for e, c in a.items()}))
    assert_terms(pa * k, sparse_product(a, {0: k}))
    assert_terms(pa.reciprocal(), {-e: c for e, c in a.items()})
    assert_terms(pa + (-pa), {})
    assert_terms((pa + k) - pa, {0: k})


def test_sums_drop_the_zeros_a_cancellation_leaves():
    p = LaurentPoly({3: 1, 1: 2, -2: 5})
    ends = p - LaurentPoly({3: 1}) - LaurentPoly({-2: 5})
    assert repr(ends) == "LaurentPoly({1: 2})" and ends == LaurentPoly({1: 2})
    zero = p - p
    assert (repr(zero), str(zero), list(zero.items())) == ("LaurentPoly({})", "0", [])
    assert zero == 0 and hash(zero) == hash(0) and zero == LaurentPoly()
    # q + q^-1 squared, less its outer terms, is the constant 2
    two = quantum_integer(2) * quantum_integer(2) - LaurentPoly({2: 1, -2: 1})
    assert two == 2 and hash(two) == hash(2) and str(two) == "2"
    # the gaps inside [3] hold no terms
    assert list(quantum_integer(3).items()) == [(2, 1), (0, 1), (-2, 1)]


def test_printing_edge_cases():
    assert str(LaurentPoly()) == "0"
    assert str(LaurentPoly({0: 1})) == "1"
    assert str(LaurentPoly({0: -3})) == "-3"
    assert str(LaurentPoly({1: -1, -1: 1})) == "-q + q^-1"
    assert str(LaurentPoly({2: -4, 0: 1, -3: -1})) == "-4*q^2 + 1 - q^-3"
    assert repr(LaurentPoly({-1: 1, 2: 3})) == "LaurentPoly({2: 3, -1: 1})"


def test_evaluation_at_zero():
    assert LaurentPoly({2: 5, 0: 7})(0) == 7
    assert LaurentPoly({2: 5})(0) == 0
    # any negative exponent diverges at zero
    with pytest.raises(ZeroDivisionError):
        quantum_integer(2)(0)
    with pytest.raises(ZeroDivisionError):
        quantum_integer(3)(0)


def test_p3_weights():
    assert P3_WEIGHTS.loop == quantum_integer(3)
    assert P3_WEIGHTS.bigon == quantum_integer(2)
    assert P3_WEIGHTS.one == LaurentPoly({0: 1})


def test_p3_frozen_values():
    assert str(p3(circle())) == "q^2 + 1 + q^-2"
    assert str(p3(theta())) == "q^3 + 2*q + 2*q^-1 + q^-3"
    assert str(p3(cube())) == "2*q^4 + 6*q^2 + 8 + 6*q^-2 + 2*q^-4"
    assert str(p3(necklace(3))) == "q^5 + 4*q^3 + 7*q + 7*q^-1 + 4*q^-3 + q^-5"
    assert p3(theta()) == quantum_integer(2) * quantum_integer(3)
    assert p3(theta())(Fraction(1, 2)) == Fraction(105, 8)


def test_p3_at_one_counts_colorings():
    for g in (
        circle(),
        circle(2),
        theta(),
        prism(2),
        cube(),
        prism(6),
        necklace(2),
        necklace(3),
        disjoint_union(theta(), circle()),
        disjoint_union(theta(), theta()),
    ):
        assert p3(g)(1) == count_tait(g)


def test_p3_is_reciprocal_symmetric():
    for g in (theta(), cube(), necklace(3)):
        assert p3(g).reciprocal() == p3(g)


def test_p3_multiplies_over_components():
    assert p3(disjoint_union(theta(), circle())) == p3(theta()) * p3(circle())


def test_p3_rejects_nonbipartite_and_nonplanar():
    with pytest.raises(NotBipartiteError):
        p3(k4())
    with pytest.raises(NotBipartiteError):
        p3(prism(3))
    from tait.catalog import petersen

    with pytest.raises((NotBipartiteError, NonPlanarError)):
        p3(petersen())


def test_p3_trace_matches_euler_trace_shape():
    trace = reduce_map(theta(), P3_WEIGHTS)
    assert format_trace(trace) == (
        "0 bigon 0,5 q + q^-1\n  1 loop - q^2 + 1 + q^-2\n    2 empty 1"
    )
    assert trace.value() == p3(theta())

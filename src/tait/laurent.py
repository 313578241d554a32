"""Integer Laurent polynomials in q, and the quantum coloring polynomial.

The reduction calculus only needs a commutative ring with the loop and
bigon weights in it.  Over the integers those weights are 3 and 2 and
the value counts Tait colorings; replacing them with the quantum
integers [3] and [2] refines the count to a Laurent polynomial that
still reports the count at q = 1.  The refinement is defined for
bipartite maps, where the reduction can never get stuck.  Its trace is
``reduce_map(cmap, P3_WEIGHTS)``, as the integer one is ``reduce_map(cmap)``.

>>> from tait.catalog import theta
>>> str(p3(theta()))
'q^3 + 2*q + 2*q^-1 + q^-3'
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping

from .planar import CombinatorialMap
from .reduction import RelationWeights, reduce_map

__all__ = [
    "LaurentPoly",
    "NotBipartiteError",
    "quantum_integer",
    "P3_WEIGHTS",
    "p3",
]


class NotBipartiteError(ValueError):
    """Raised when the quantum polynomial is asked for a non-bipartite map."""


class LaurentPoly:
    """Immutable Laurent polynomial with int coefficients, keyed by exponent.

    Supports ring arithmetic with other polynomials and with plain ints,
    powers by non-negative ints, and exact evaluation over fractions.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        clean = {}
        if coeffs:
            for e, c in coeffs.items():
                if not isinstance(e, int) or not isinstance(c, int):
                    raise TypeError("exponents and coefficients must be ints")
                if c:
                    clean[e] = c
        self._coeffs = clean

    # construction helpers

    @classmethod
    def _coerce(cls, other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return cls({0: other})
        return None

    # queries

    def coefficient(self, e: int) -> int:
        return self._coeffs.get(e, 0)

    def items(self) -> Iterator[tuple[int, int]]:
        """(exponent, coefficient) pairs, highest exponent first."""
        return iter(sorted(self._coeffs.items(), reverse=True))

    # ring structure

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        coeffs = dict(self._coeffs)
        for e, c in other._coeffs.items():
            coeffs[e] = coeffs.get(e, 0) + c
        return LaurentPoly(coeffs)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        coeffs: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                coeffs[e] = coeffs.get(e, 0) + c1 * c2
        return LaurentPoly(coeffs)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        result = LaurentPoly({0: 1})
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        # a constant equals its int, so it must hash as that int
        if self._coeffs.keys() <= {0}:
            return hash(self.coefficient(0))
        return hash(frozenset(self._coeffs.items()))

    def reciprocal(self) -> "LaurentPoly":
        """The polynomial with q replaced by q^-1."""
        return LaurentPoly({-e: c for e, c in self._coeffs.items()})

    def __call__(self, q) -> Fraction:
        """Exact value at a rational q; q = 0 needs no negative exponents."""
        q = Fraction(q)
        total = Fraction(0)
        for e, c in self._coeffs.items():
            total += c * q**e
        return total

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for e, c in self.items():
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "q" if e == 1 else f"q^{e}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        ordered = dict(sorted(self._coeffs.items(), reverse=True))
        return f"LaurentPoly({ordered})"


def quantum_integer(n: int) -> LaurentPoly:
    """[n] = q^(n-1) + q^(n-3) + ... + q^(1-n); [0] is zero.

    >>> str(quantum_integer(3))
    'q^2 + 1 + q^-2'
    """
    if n < 0:
        raise ValueError("quantum integers are indexed by non-negative n")
    return LaurentPoly({e: 1 for e in range(n - 1, -n, -2)})


P3_WEIGHTS = RelationWeights(loop=quantum_integer(3), bigon=quantum_integer(2))


def p3(cmap: CombinatorialMap) -> LaurentPoly:
    """Quantum coloring polynomial, ``reduce_map(cmap, P3_WEIGHTS).value()``.

    At q = 1 it is the Tait count.  Raises :class:`NotBipartiteError` off
    the bipartite domain, and otherwise what :func:`reduce_map` raises.
    """
    if not cmap.is_bipartite():
        raise NotBipartiteError(
            "the quantum coloring polynomial is defined for bipartite maps"
        )
    return reduce_map(cmap, P3_WEIGHTS).value()

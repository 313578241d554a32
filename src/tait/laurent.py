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
from operator import add, neg
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


def _sized(terms: Iterator[int]) -> tuple[int, ...]:
    """``tuple(terms)``, through a list, so that the tuple is made at its final size.

    ``tuple`` of an iterator of unknown length starts with 10 slots and
    resizes, and the resized tuple is freed to the interpreter's free
    list of its final size, which only exact-size allocations draw
    from.  Built that way, ring results filled those lists for every
    odd length up to 19 (2,000 tuples each), about 2 MB of peak memory
    on a ``p3-bipartite`` benchmark run.
    """
    return tuple(list(terms))


class LaurentPoly:
    """Immutable Laurent polynomial with int coefficients.

    Supports ring arithmetic with other polynomials and with plain ints,
    powers by non-negative ints, and exact evaluation over fractions.

    Stored dense: the lowest exponent and the coefficients from it up to
    the highest, with no zero at either end (the zero polynomial is an
    empty tuple).  Memory holds one slot per exponent from the lowest to
    the highest, zeros between included.  Sums and products add whole
    rows of coefficients at a time, and their results skip the
    constructor's type checks (:meth:`_dense`).
    """

    __slots__ = ("_low", "_coeffs")

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        terms = {}
        for e, c in (coeffs or {}).items():
            if not all(isinstance(x, int) and not isinstance(x, bool) for x in (e, c)):
                raise TypeError("exponents and coefficients must be ints")
            if c:
                terms[e] = c
        low = min(terms, default=0)
        dense = [0] * (max(terms, default=-1) - low + 1)
        for e, c in terms.items():
            dense[e - low] = c
        self._low = low
        self._coeffs = tuple(dense)

    @classmethod
    def _dense(cls, low: int, coeffs: tuple[int, ...]) -> "LaurentPoly":
        """The polynomial ``sum(c * q**(low + i))``, stored as it is, with no check.

        For ring results and int constants only: the caller passes a tuple of
        ints with no zero at either end, or the empty tuple with ``low`` 0.
        """
        poly = cls.__new__(cls)
        poly._low = low
        poly._coeffs = coeffs
        return poly

    @classmethod
    def _coerce(cls, other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):  # a bool operand acts as its int
            return cls._dense(0, (int(other),) if other else ())
        return None

    # queries

    def coefficient(self, e: int) -> int:
        i = e - self._low
        return self._coeffs[i] if 0 <= i < len(self._coeffs) else 0

    def items(self) -> Iterator[tuple[int, int]]:
        """(exponent, coefficient) pairs of the non-zero terms, highest exponent first."""
        low, coeffs = self._low, self._coeffs
        return ((low + i, coeffs[i]) for i in range(len(coeffs) - 1, -1, -1) if coeffs[i])

    # ring structure

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other._coeffs:
            return self
        if not self._coeffs:
            return other
        # both rows padded to the exponents low..end-1 of either, added,
        # and the zeros a cancellation leaves at either end dropped
        low = min(self._low, other._low)
        end = max(self._low + len(self._coeffs), other._low + len(other._coeffs))
        rows = [
            (0,) * (p._low - low) + p._coeffs + (0,) * (end - p._low - len(p._coeffs))
            for p in (self, other)
        ]
        coeffs = _sized(map(add, *rows))
        start, stop = 0, len(coeffs)
        while stop and not coeffs[stop - 1]:
            stop -= 1
        while start < stop and not coeffs[start]:
            start += 1
        return LaurentPoly._dense(low + start if stop else 0, coeffs[start:stop])

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._dense(self._low, _sized(map(neg, self._coeffs)))

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
        a, b = (self, other) if len(self._coeffs) <= len(other._coeffs) else (other, self)
        ac, bc = a._coeffs, b._coeffs
        if ac == (1,) and a._low == 0:
            return b
        if not ac:
            return a
        # one row of b per term of a, padded to the product's width at that
        # term's offset and added in; over the integers the ends multiply
        # to non-zero ends, so nothing trims
        total = ()
        last = len(ac) - 1
        for i, c in enumerate(ac):
            if c:
                row = (0,) * i + (bc if c == 1 else _sized(map(c.__mul__, bc))) + (0,) * (last - i)
                total = _sized(map(add, total, row)) if total else row
        return LaurentPoly._dense(a._low + b._low, total)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        result = LaurentPoly._dense(0, (1,))
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._coeffs == other._coeffs and self._low == other._low

    def __hash__(self) -> int:
        # a constant equals its int, so it must hash as that int
        if self._low == 0 and len(self._coeffs) <= 1:
            return hash(self.coefficient(0))
        return hash((self._low, self._coeffs))

    def reciprocal(self) -> "LaurentPoly":
        """The polynomial with q replaced by q^-1."""
        if not self._coeffs:
            return self
        return LaurentPoly._dense(1 - self._low - len(self._coeffs), self._coeffs[::-1])

    def __call__(self, q) -> Fraction:
        """Exact value at a rational q; q = 0 needs no negative exponents."""
        q = Fraction(q)
        total = Fraction(0)
        for e, c in self.items():
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
        return f"LaurentPoly({dict(self.items())})"


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

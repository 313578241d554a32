"""
The quantum coloring polynomial
===============================

Replacing the loop factor 3 by the quantum integer [3] and the bigon
factor 2 by [2] turns the reduction value into a Laurent polynomial in
q.  At q = 1 it collapses back to the Tait count; away from 1 it
carries more of the graph.
"""

from fractions import Fraction

from tait import count_tait, p3, quantum_integer
from tait.catalog import circle, cube, k4, necklace, theta
from tait.laurent import NotBipartiteError

# Quantum integers are symmetric Laurent polynomials: [n] has n terms
# stepping down from q^(n-1) to q^(1-n).
for n in range(5):
    print(f"[{n}] =", quantum_integer(n))

# They satisfy the same recurrence as the Chebyshev polynomials.
lhs = quantum_integer(2) * quantum_integer(4)
rhs = quantum_integer(5) + quantum_integer(3)
print("[2]*[4] == [5] + [3]:", lhs == rhs)

# The polynomial is defined for bipartite planar maps.  For the circle
# it is [3], for theta [2]*[3].
print("\np3(circle) =", p3(circle()))
print("p3(theta)  =", p3(theta()))
print("p3(cube)   =", p3(cube()))

# Evaluation is exact over the rationals.
poly = p3(theta())
print("\np3(theta) at q=1  :", poly(1), " (count:", count_tait(theta()), ")")
print("p3(theta) at q=1/2:", poly(Fraction(1, 2)))

# The polynomial is palindromic: swapping q and 1/q fixes it.
print("palindromic:", poly.reciprocal() == poly)

# The string form is what `tait p3` prints: terms by falling exponent.
print("\np3(necklace(3)) =", p3(necklace(3)))

# Odd cycles break bipartiteness and the polynomial refuses them.
try:
    p3(k4())
except NotBipartiteError as exc:
    print("\nk4:", exc)

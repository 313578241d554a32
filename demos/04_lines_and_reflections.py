"""
Decorations by complex lines
============================

An admissible decoration assigns a line in C^3 to every edge so that
the three lines at each vertex are pairwise orthogonal.  Reflecting in
a line gives an order-2 special unitary matrix, and the vertex
condition turns a decoration into a representation whose matrices
multiply to the identity around every vertex.
"""

from collections import Counter

import numpy as np

from tait import (
    axis_of,
    check_order_two_product,
    decoration_to_representation,
    line_overlap,
    reflection_from_line,
    representation_to_decoration,
    sample_admissible_decoration,
    vertex_product_deviation,
)
from tait.catalog import cube, necklace
from tait.su3 import STANDARD_INVOLUTION, random_line

rng = np.random.default_rng(2024)

# Reflecting in the first basis vector gives diag(1, -1, -1); its
# fixed line comes back out of axis_of.
e0 = np.array([1.0, 0.0, 0.0])
print("reflection in e0 is the standard involution:")
print(np.round(reflection_from_line(e0).real, 10))
print("recovered axis:", np.round(axis_of(STANDARD_INVOLUTION).real, 10))

# The product of two reflections has order 2 exactly when the lines
# are orthogonal.  Both branches, measured numerically:
a = random_line(rng)
raw = random_line(rng)
b = raw - np.vdot(a, raw) * a
b = b / np.linalg.norm(b)
ortho = check_order_two_product(reflection_from_line(a), reflection_from_line(b))
slant = check_order_two_product(reflection_from_line(a), reflection_from_line(raw))
print("\north. axes -> product order 2:", ortho.product_order_two,
      " defect:", f"{ortho.involution_defect:.2e}")
print("slanted axes -> product order 2:", slant.product_order_two,
      " defect:", f"{slant.involution_defect:.2e}")

# Sample a decoration of the cube and convert it to matrices; around
# every vertex the three reflections compose to the identity.
g = cube()
lines = sample_admissible_decoration(g, rng)
mats = decoration_to_representation(g, lines)
print("\ncube decoration sampled; worst vertex product deviation:",
      f"{vertex_product_deviation(g, mats):.2e}")

# Going back from matrices to lines recovers the same points of CP^2.
recovered = representation_to_decoration(mats)
worst = min(line_overlap(u, w) for u, w in zip(lines, recovered))
print("roundtrip smallest overlap:", f"{worst:.12f}")

# A bigon forces its two outer edges to carry the same line, while the
# two parallel edges are free to sweep the CP^1 of lines orthogonal to
# it.  The 2-bead necklace shows both effects: its two single edges
# flank bigons on both sides.
g = necklace(2)
by_endpoints = Counter(
    tuple(sorted(g.edge_endpoints(e))) for e in range(g.n_paired_edges)
)
single = [e for e in range(g.n_paired_edges)
          if by_endpoints[tuple(sorted(g.edge_endpoints(e)))] == 1]
parallel = [e for e in range(g.n_paired_edges) if e not in single]
print("\nnecklace(2) single edges:", single, " bigon edges:", parallel)

# The sampler turns only the (0, 1) Kempe cycles of a drawn coloring,
# then the whole decoration by one Haar-random rotation.  Within one
# sample, the overlap of the two beads' bigon lines (edges 0 and 4) is
# blind to that global turn.  It stays 0 or 1, the relative position of
# a torus-fixed point, unless each bigon is a (0, 1) cycle of its own,
# which happens when the coloring puts 2 on the two single edges.
outer_agreement = []
bead_overlap = []
for _ in range(200):
    d = sample_admissible_decoration(g, rng)
    outer_agreement.append(line_overlap(d[single[0]], d[single[1]]))
    bead_overlap.append(line_overlap(d[0], d[4]))
fixed = [x <= 1e-9 or x >= 1 - 1e-9 for x in bead_overlap]

print("outer lines agree in every sample:",
      f"min overlap {min(outer_agreement):.12f}")
print("bead bigon lines (edges 0 and 4), overlap within a sample:",
      f"{min(bead_overlap):.3f}..{max(bead_overlap):.3f}")
print("torus-fixed (overlap 0 or 1 within 1e-9) in",
      f"{sum(fixed) / len(fixed):.1%} of {len(fixed)} samples")

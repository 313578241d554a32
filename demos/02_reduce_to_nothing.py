"""
Reduction by local moves
========================

Free loops, bigons, triangles, and squares can each be removed from a
planar trivalent map.  Loops contribute a factor 3, bigons a factor 2,
triangles collapse in place, and squares branch into two smaller maps.
Reducing all the way to the empty map evaluates the graph to a number,
and that number is the Tait coloring count.
"""

import random

from tait import count_tait, format_trace, reduce_map
from tait.catalog import cube, dodecahedron, k4, theta
from tait.reduction import IrreducibleError, euler_characteristic

# The theta graph reduces in two steps: a bigon (factor 2) leaves one
# free loop (factor 3).  The trace below prints depth, move kind, the
# half-edge cycle of the face, and the multiplier.
trace = reduce_map(theta())
print("theta reduction:")
print(format_trace(trace))
print("value:", trace.value(), "  count:", count_tait(theta()))

# K4 starts with a triangle collapse; the cube has only squares, so
# its trace branches.  Either way the value matches the count.
print("\nk4  :", euler_characteristic(k4()), "==", count_tait(k4()))
print("cube:", euler_characteristic(cube()), "==", count_tait(cube()))

# The order of moves is free.  Picking moves at random gives the same
# value whenever the run finishes.
values = set()
for seed in range(5):
    values.add(reduce_map(cube(), rng=random.Random(seed)).value())
print("\nrandomized cube runs all give:", values)

# A map with no loop, bigon, triangle, or square is irreducible and
# the engine reports it rather than guessing.  The dodecahedron is the
# smallest catalog example: every face is a pentagon.
try:
    reduce_map(dodecahedron())
except IrreducibleError as exc:
    degrees = sorted(map(len, exc.graph.face_orbits()))
    print("\ndodecahedron is irreducible; face degrees:", degrees)

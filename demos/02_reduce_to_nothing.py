"""
Reduction by local moves
========================

Free loops, bigons, triangles, and squares can each be removed from a
planar trivalent map.  Loops contribute a factor 3, bigons a factor 2,
triangles collapse in place, and squares branch into two smaller maps.
Reducing all the way to the empty map evaluates the graph to a number,
and that number is the Tait coloring count.
"""

from tait import apply_move, available_moves, count_tait, format_trace, reduce_map
from tait.catalog import cube, dodecahedron, k4, theta
from tait.reduction import EULER_WEIGHTS, IrreducibleError, euler_characteristic

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

# The order of moves is free.  Start the cube with any of its six
# squares, not only the first: the move's multiplier (1 for a square)
# times the values of the two children it leaves is 24 every time.
print("\ncube, by first move:")
for move in available_moves(cube()):
    children = apply_move(cube(), move)
    value = EULER_WEIGHTS.one * sum(reduce_map(child).value() for child in children)
    print(f"  {move.kind.value} {move.half_edges}: {value}")

# A map with no loop, bigon, triangle, or square is irreducible and
# the engine reports it rather than guessing.  The dodecahedron is the
# smallest catalog example: every face is a pentagon.
try:
    reduce_map(dodecahedron())
except IrreducibleError as exc:
    degrees = sorted(map(len, exc.graph.face_orbits()))
    print("\ndodecahedron is irreducible; face degrees:", degrees)

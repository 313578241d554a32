"""
Counting Tait colorings
=======================

A Tait coloring paints every edge of a trivalent graph with one of
three colors so that each vertex sees all three.  This script counts
and lists them for the built-in graph families.
"""

from tait import build_map, count_tait, disjoint_union, enumerate_tait
from tait.catalog import circle, cube, petersen, prism, theta

# The theta graph: two vertices joined by three parallel edges.  Every
# coloring uses each color once, so the count is the number of ways to
# order three colors.
g = theta()
print("theta graph:", g.n_vertices, "vertices,", g.n_edges, "edges")
print("colorings:", count_tait(g))
for coloring in enumerate_tait(g, limit=10):
    print("  edge colors:", coloring)

# The cube has 24 colorings; listing all of them would be noise, so
# just take the first three in lexicographic order.
print("\ncube colorings:", count_tait(cube()))
for coloring in enumerate_tait(cube(), limit=3):
    print("  ", coloring)

# A free loop (a circle with no vertex) is unconstrained and triples
# the count; disjoint graphs color independently, so counts multiply.
print("\ncircle:", count_tait(circle()))
print("theta + circle:", count_tait(disjoint_union(theta(), circle())))
print("theta + theta:", count_tait(disjoint_union(theta(), theta())))

# A vertex self-loop meets its vertex twice, so no coloring can put
# three distinct colors there.  This dumbbell has none.
dumbbell = build_map(
    [(0, (0, 1, 2)), (1, (3, 4, 5))],
    [(0, 1), (2, 3), (4, 5)],
)
print("\ndumbbell (two self-loops):", count_tait(dumbbell))

# The Petersen graph is the classic snark: trivalent, bridgeless, and
# yet not 3-edge-colorable.
print("petersen:", count_tait(petersen()))

# Prisms alternate: even rings are bipartite and color richly, odd
# rings are leaner.
for n in range(2, 7):
    print(f"prism({n}):", count_tait(prism(n)))

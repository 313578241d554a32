"""The package's public names."""

import dataclasses
import inspect

import tait

PUBLIC_NAMES = {
    "__version__",
    # planar
    "CombinatorialMap", "MapError", "NonPlanarError", "ParseError",
    "build_map", "disjoint_union", "parse_map", "serialize_map",
    # catalog
    "GENERATORS", "circle", "cube", "dodecahedron", "k4", "necklace", "petersen",
    "prism", "theta",
    # coloring
    "count_tait", "enumerate_tait",
    # reduction
    "EULER_WEIGHTS", "InvalidMoveError", "IrreducibleError", "Move", "MoveKind",
    "RelationWeights", "TraceNode", "apply_move", "available_moves",
    "euler_characteristic", "find_move", "format_trace", "reduce_map",
    # laurent
    "LaurentPoly", "NotBipartiteError", "P3_WEIGHTS", "p3", "quantum_integer",
    # su3
    "InadmissibleDecorationError", "OrderTwoProductReport", "RetriesExhaustedError",
    "STANDARD_INVOLUTION", "admissibility_deviation", "axis_of",
    "check_order_two_product", "decoration_to_representation",
    "is_order_two", "line_overlap", "random_line", "random_special_unitary",
    "reflection_from_line", "representation_to_decoration",
    "sample_admissible_decoration", "vertex_product_deviation",
    # verify
    "SUITES", "SuiteReport",
}


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 56
    assert len(tait.__all__) == len(set(tait.__all__))
    assert set(tait.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in tait.__all__:
        assert hasattr(tait, name), name


def test_reduction_and_sampler_take_no_settings():
    # move order and the retry budget are fixed: priority order, 100 attempts;
    # the move queries take the map alone, and a move its map and site; a map
    # is checked whole unless a move spliced it, which no option can ask for
    for f, params in (
        (tait.CombinatorialMap.__init__, ["self", "twin", "next_at_vertex", "free_loops"]),
        (tait.CombinatorialMap._spliced, ["twin", "sigma", "free_loops"]),
        (tait.reduce_map, ["cmap", "weights"]),
        (tait.find_move, ["cmap"]),
        (tait.available_moves, ["cmap"]),
        (tait.apply_move, ["cmap", "move"]),
        (tait.sample_admissible_decoration, ["cmap", "rng"]),
    ):
        assert [*inspect.signature(f).parameters] == params


def test_maps_build_without_a_planarity_setting():
    # a non-planar map is built and says so; only parse_map takes check_planar
    for f, params in (
        (tait.CombinatorialMap, ["twin", "next_at_vertex", "free_loops"]),
        (tait.build_map, ["vertex_rotations", "edge_pairs", "free_loops"]),
    ):
        assert [*inspect.signature(f).parameters] == params


def test_weights_are_the_loop_and_bigon_multipliers():
    # the ring's unit is derived from them, not a third setting
    assert [f.name for f in dataclasses.fields(tait.RelationWeights)] == ["loop", "bigon"]

"""Acceptance gate: one test and one printed PASS/FAIL line per criterion."""

import time
from fractions import Fraction
from pathlib import Path

import pytest

from tait.catalog import dodecahedron, k4, petersen, theta
from tait.cli import EXIT_IRREDUCIBLE, EXIT_NOT_BIPARTITE, main
from tait.coloring import count_tait
from tait.laurent import NotBipartiteError, p3, quantum_integer
from tait.reduction import IrreducibleError, euler_characteristic, reduce_map
from tait.verify import (
    bipartite_corpus,
    conservation_corpus,
    run_conservation,
    run_lemma5,
    run_roundtrip,
)


def report(n: int, ok: bool, detail: str) -> None:
    print(f"acceptance c{n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_c1_reduction_equals_count_on_bipartite_corpus():
    start = time.perf_counter()
    mismatches = [
        name
        for name, g in bipartite_corpus()
        if euler_characteristic(g) != count_tait(g)
    ]
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 1.0
    report(
        1,
        ok,
        f"euler == count on {len(bipartite_corpus())} bipartite fixtures "
        f"in {elapsed:.3f}s (mismatches: {mismatches or 'none'})",
    )


def test_c2_p3_consistency():
    corpus = bipartite_corpus()
    mismatches = [name for name, g in corpus if p3(g)(1) != count_tait(g)]
    from tait.catalog import circle

    frozen = (
        p3(circle()) == quantum_integer(3)
        and str(p3(theta())) == "q^3 + 2*q + 2*q^-1 + q^-3"
        and p3(theta())(Fraction(1, 2)) == Fraction(105, 8)
    )
    ok = not mismatches and frozen
    report(
        2,
        ok,
        f"p3(G)(1) == count on {len(corpus)} fixtures, frozen p3(U) and "
        f"p3(theta) exact (mismatches: {mismatches or 'none'})",
    )


def test_c3_frontier_conservation():
    sizes = [g.n_edges for _, g in conservation_corpus()]
    result = run_conservation()
    ok = result.passed and max(sizes) <= 12
    report(
        3,
        ok,
        f"frontier sum preserved across {result.lines[-1].split(': ')[1]} "
        f"expansions on {result.trials} catalog fixtures of <= {max(sizes)} edges",
    )


def test_c4_order_two_product_campaign():
    result = run_lemma5(trials=1000, seed=0)
    ok = result.passed and result.failures == 0 and result.max_deviation < 1e-9
    report(
        4,
        ok,
        f"{result.trials} seeded pairs (both branches), max deviation "
        f"{result.max_deviation:.3e} < 1e-9, {result.failures} failures",
    )


def test_c5_decoration_roundtrip():
    result = run_roundtrip(trials=100, seed=0)
    per_graph = [line for line in result.lines]
    ok = (
        result.passed
        and result.failures == 0
        and result.max_deviation < 1e-9
        and all(line.endswith("25 decorations") for line in per_graph)
    )
    report(
        5,
        ok,
        f"100 sampled decorations (25 per fixture) with line recovery and "
        f"vertex products within {result.max_deviation:.3e}",
    )


def test_c6_negative_controls(tmp_path, capsys):
    petersen_count = count_tait(petersen())

    try:
        reduce_map(dodecahedron())
        raised_irreducible = False
    except IrreducibleError:
        raised_irreducible = True

    try:
        p3(k4())
        raised_bipartite = False
    except NotBipartiteError:
        raised_bipartite = True

    from tait.planar import serialize_map

    dodeca = tmp_path / "dodecahedron.txt"
    dodeca.write_text(serialize_map(dodecahedron()))
    k4_file = tmp_path / "k4.txt"
    k4_file.write_text(serialize_map(k4()))
    code_irreducible = main(["euler", str(dodeca)])
    code_bipartite = main(["p3", str(k4_file)])
    capsys.readouterr()

    ok = (
        petersen_count == 0
        and raised_irreducible
        and raised_bipartite
        and code_irreducible == EXIT_IRREDUCIBLE
        and code_bipartite == EXIT_NOT_BIPARTITE
    )
    report(
        6,
        ok,
        f"count(petersen) = {petersen_count}, dodecahedron irreducible "
        f"(exit {code_irreducible}), K4 not bipartite (exit {code_bipartite})",
    )


def test_c7_untested_claims_are_documented():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    ok = readme.is_file()
    text = readme.read_text(encoding="utf-8") if ok else ""
    anchors = ["homeomorphism", "homology", "irreducible non-bipartite"]
    missing = [a for a in anchors if a not in text]
    ok = ok and not missing
    report(
        7,
        ok,
        "README names the untested full-scale claims "
        f"(missing anchors: {missing or 'none'})",
    )

"""Property campaigns run by the tests and the ``tait verify`` command.

Each suite pits two independent computations against each other: the
reduction value against the tensor-contraction count, the quantum polynomial
at q = 1 against the same count, the order-2-product criterion against
raw matrix arithmetic, and the decoration roundtrip against sampled
inputs.  Suites report deterministic fixed-format text (and a dict for
JSON) so verification logs are diffable; randomized suites take a seed
and default it, printing it in the report.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .catalog import circle, cube, k4, necklace, prism, theta
from .coloring import count_tait
from .planar import CombinatorialMap, disjoint_union
from .reduction import EULER_WEIGHTS, TraceNode, apply_move, euler_characteristic, reduce_map
from .su3 import (
    _TOL,
    RetriesExhaustedError,
    _check_order_two_products,
    _line_overlaps,
    _reflections,
    decoration_to_representation,
    line_overlap,
    random_line,
    representation_to_decoration,
    sample_admissible_decoration,
    vertex_product_deviation,
)

__all__ = ["SUITES", "SuiteReport"]


@dataclass
class SuiteReport:
    """Outcome of one campaign, printable as text or as a JSON dict."""

    suite: str
    passed: bool
    trials: int
    failures: int
    seed: int | None = None
    tol: float | None = None
    max_deviation: float | None = None
    lines: tuple[str, ...] = field(default_factory=tuple)

    def as_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["lines"] = list(self.lines)
        return out

    def format_text(self) -> str:
        out = [f"suite: {self.suite}"]
        if self.seed is not None:
            out.append(f"seed: {self.seed}")
        if self.tol is not None:
            out.append(f"tol: {self.tol:g}")
        out.append(f"trials: {self.trials}")
        out.extend(f"  {line}" for line in self.lines)
        if self.max_deviation is not None:
            out.append(f"max deviation: {self.max_deviation:.3e}")
        out.append(f"failures: {self.failures}")
        out.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(out)


# ----------------------------------------------------------------------
# fixture corpora


def bipartite_corpus() -> list[tuple[str, CombinatorialMap]]:
    """Bipartite fixtures for the count-equality suites."""
    return [
        ("circle", circle()),
        ("theta", theta()),
        ("prism(2)", prism(2)),
        ("cube", cube()),
        ("prism(6)", prism(6)),
        ("necklace(2)", necklace(2)),
        ("necklace(3)", necklace(3)),
        ("theta+theta", disjoint_union(theta(), theta())),
        ("theta+circle", disjoint_union(theta(), circle())),
        ("prism(2)+circle", disjoint_union(prism(2), circle())),
    ]


def conservation_corpus() -> list[tuple[str, CombinatorialMap]]:
    """Planar fixtures of at most 12 edges, small enough to count at every step."""
    return [
        ("circle", circle()),
        ("theta", theta()),
        ("k4", k4()),
        ("prism(2)", prism(2)),
        ("prism(3)", prism(3)),
        ("cube", cube()),
        ("necklace(1)", necklace(1)),
        ("necklace(2)", necklace(2)),
        ("necklace(3)", necklace(3)),
        ("necklace(4)", necklace(4)),
        ("theta+circle", disjoint_union(theta(), circle())),
        ("theta+theta", disjoint_union(theta(), theta())),
    ]


def roundtrip_corpus() -> list[tuple[str, CombinatorialMap]]:
    return [
        ("theta", theta()),
        ("k4", k4()),
        ("prism(3)", prism(3)),
        ("cube", cube()),
    ]


# ----------------------------------------------------------------------
# suites


def _check_campaign(trials: int, seed: int) -> None:
    """Reject a bool or non-int, a trial count under which no check can fail, a negative seed."""
    for name, value in (("trials", trials), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an int, got {value!r}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


def run_theorem1() -> SuiteReport:
    """Reduction value equals the tensor-contraction count on bipartite fixtures."""
    lines = []
    failures = 0
    corpus = bipartite_corpus()
    for name, graph in corpus:
        chi = euler_characteristic(graph)
        count = count_tait(graph)
        ok = chi == count
        failures += not ok
        lines.append(f"{name}: euler {chi}, count {count}{'' if ok else '  MISMATCH'}")
    return SuiteReport(
        suite="theorem1",
        passed=failures == 0,
        trials=len(corpus),
        failures=failures,
        lines=tuple(lines),
    )


def frontier_conservation(cmap: CombinatorialMap, root: TraceNode[int]) -> tuple[int, int]:
    """(checks, failures) of the frontier-sum invariant on the trace of ``cmap``.

    The frontier starts as the root with coefficient 1; expanding a
    node replaces it by its children, each carrying the accumulated
    coefficient times the node's multiplier.  After every expansion the
    sum of coefficient * count over the frontier must still equal the
    root count.  Trace nodes keep no maps, so each expansion replays the
    node's move on its map to get the children's.
    """
    target = count_tait(cmap)
    frontier: list[tuple[int, TraceNode[int], CombinatorialMap]] = [(1, root, cmap)]
    checks = failures = 0
    while True:
        idx = next((i for i, (_, n, _) in enumerate(frontier) if n.children), None)
        if idx is None:
            return checks, failures
        acc, node, graph = frontier.pop(idx)
        children = zip(node.children, apply_move(graph, node.move), strict=True)
        frontier[idx:idx] = [(acc * node.multiplier, c, g) for c, g in children]
        checks += 1
        if sum(a * count_tait(g) for a, _, g in frontier) != target:
            failures += 1


def run_conservation() -> SuiteReport:
    """Frontier-sum invariance at every step of every fixture reduction."""
    lines = []
    failures = 0
    total_checks = 0
    corpus = conservation_corpus()
    for name, graph in corpus:
        checks, bad = frontier_conservation(graph, reduce_map(graph, EULER_WEIGHTS))
        total_checks += checks
        failures += bad
        lines.append(
            f"{name}: {checks} expansions{'' if not bad else f', {bad} BROKEN'}"
        )
    lines.append(f"total expansions checked: {total_checks}")
    return SuiteReport(
        suite="conservation",
        passed=failures == 0,
        trials=len(corpus),
        failures=failures,
        lines=tuple(lines),
    )


def run_lemma5(trials: int = 1000, seed: int = 0) -> SuiteReport:
    """Order-2 product criterion on random pairs, both branches.

    Half the pairs come from orthogonal lines (product must again be
    order 2, with its axis orthogonal to both inputs), half from lines
    with overlap at least 0.001 (product must not be order 2).  The
    biconditional must hold on every pair.  The pairs are drawn one by
    one and checked together, as one stack of reflections.  Raises
    ``ValueError`` for ``trials < 1``, ``seed < 0``, or either one not
    an int.
    """
    _check_campaign(trials, seed)
    rng = np.random.default_rng(seed)
    n_orth = trials // 2
    n_slant = trials - n_orth
    pairs = []
    for _ in range(n_orth):
        a = random_line(rng)
        raw = random_line(rng)
        b = raw - np.vdot(a, raw) * a
        pairs.append((a, b / np.linalg.norm(b)))
    for _ in range(n_slant):
        while True:
            a = random_line(rng)
            b = random_line(rng)
            if line_overlap(a, b) >= 1e-3:
                break
        pairs.append((a, b))
    first, second = np.array(pairs).swapaxes(0, 1)
    reports = _check_order_two_products(_reflections(first), _reflections(second))

    failures = 0
    worst = 0.0
    for report in reports[:n_orth]:
        deviation = report.orthogonal_case_deviation
        worst = max(worst, deviation)
        if not (
            report.biconditional_holds
            and report.product_order_two
            and deviation < _TOL
        ):
            failures += 1

    min_slant_overlap = 1.0
    for report in reports[n_orth:]:
        min_slant_overlap = min(min_slant_overlap, report.axis_overlap)
        if not (report.biconditional_holds and not report.product_order_two):
            failures += 1

    lines = (
        f"orthogonal pairs: {n_orth}, worst vanishing quantity {worst:.3e}",
        f"non-orthogonal pairs: {n_slant}, smallest axis overlap {min_slant_overlap:.3e}",
    )
    return SuiteReport(
        suite="lemma5",
        passed=failures == 0 and worst < _TOL,
        trials=trials,
        failures=failures,
        seed=seed,
        tol=_TOL,
        max_deviation=worst,
        lines=lines,
    )


def run_roundtrip(trials: int = 100, seed: int = 0) -> SuiteReport:
    """Decoration -> matrices -> decoration is the identity on lines.

    Trials rotate through the roundtrip fixtures; each samples a fresh
    admissible decoration, converts it both ways, and measures the line
    recovery defect 1 - |<v, v'>| per edge plus the vertex products.  A
    trial whose one sampling attempt fails (``RetriesExhaustedError``)
    fails, and the report counts such trials per fixture as exhausted.
    All trials draw from one Generator, so a failed attempt shifts the
    draws of the trials after it by that attempt's draws alone.  Raises
    ``ValueError`` as :func:`run_lemma5` does.
    """
    _check_campaign(trials, seed)
    rng = np.random.default_rng(seed)
    corpus = roundtrip_corpus()
    per_graph = {name: 0 for name, _ in corpus}
    exhausted = dict.fromkeys(per_graph, 0)
    failures = 0
    worst = 0.0

    for i in range(trials):
        name, graph = corpus[i % len(corpus)]
        try:
            decoration = sample_admissible_decoration(graph, rng)
        except RetriesExhaustedError:
            exhausted[name] += 1
            failures += 1
            continue
        per_graph[name] += 1
        matrices = decoration_to_representation(graph, decoration)
        recovered = representation_to_decoration(matrices)
        overlaps = _line_overlaps(np.array(decoration), np.array(recovered))
        vertex_dev = vertex_product_deviation(graph, matrices)
        # np.max, unlike max, lets a NaN through, and a NaN deviation fails
        deviation = float(np.max(1.0 - overlaps, initial=vertex_dev))
        worst = float(np.max([worst, deviation]))
        if not deviation < _TOL:
            failures += 1

    lines = tuple(f"{name}: {n} decorations" for name, n in per_graph.items()) + tuple(
        f"{name}: {n} exhausted" for name, n in exhausted.items() if n
    )
    return SuiteReport(
        suite="roundtrip",
        passed=failures == 0 and worst < _TOL,
        trials=trials,
        failures=failures,
        seed=seed,
        tol=_TOL,
        max_deviation=worst,
        lines=lines,
    )


SUITES = {
    "theorem1": run_theorem1,
    "conservation": run_conservation,
    "lemma5": run_lemma5,
    "roundtrip": run_roundtrip,
}

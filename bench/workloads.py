"""The four workloads: their seeded inputs, operations, references and checks.

An operation is everything a workload does with one input: one or two
``tait.cli.main`` calls on a map file (the second only if the first
succeeded), or one decoration roundtrip through ``tait.su3``.  It
returns ``(failure, output)``: ``failure`` is None or the kind of known
failure (``strand``, ``depth``, ``exhausted``, or the name of an
unexpected exception or exit code), and ``output`` is what the program
produced, checked against the reference after the timed phase.

Why each workload exists is in ``BENCHMARK.json`` and ``LAYERS.md``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass, field

import numpy as np

import gen
import reference as ref


@dataclass
class Item:
    """One input.  ``recipe`` says how the reference for it is found;
    ``seeded`` inputs change with the seed, the others are fixed."""

    name: str
    text: str
    recipe: tuple
    expect_exit: int = 0
    seeded: bool = False
    cmap: object = field(default=None, repr=False)  # parsed map, su3 only

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()[:16]


KNOWN_COUNTS = {"k4": 6, "cube": 24, "dodecahedron": 60, "petersen": 0}


def _catalog(tait, family, *args):
    cmap = tait.catalog.GENERATORS[family](*args)
    return tait.planar.serialize_map(cmap)


def _shuffled(items, seed, workload):
    random.Random(f"{seed}:{workload}:order").shuffle(items)
    return items


# ----------------------------------------------------------------------
# corpora
#
# Every corpus is mostly fixed inputs (catalog maps and random maps from
# fixed generator seeds) plus 10 to 15 seeded random maps.
# Per-map costs are heavy-tailed: on 36 maps with V 24-40 drawn wholly
# from the seed, count_tait took from 1.7 s to 7.8 s depending on the
# seed.  The fixed part keeps that out of the run-to-run spread, and the
# tail percentiles, while the seeded part still gives each seed inputs no
# earlier run has seen.


def _random_maps(workload, seed, count, sizes, make=gen.random_planar, prefix="rand"):
    """``count`` generated maps cycling through ``sizes``; seed None means fixed."""
    tag = "base" if seed is None else str(seed)
    items = []
    for i in range(count):
        v = sizes[i % len(sizes)]
        text = make(v, f"{tag}:{workload}:{i}")
        name = f"{prefix}-v{v}-{'b' if seed is None else 's'}{i}"
        items.append(Item(name, text, ("random",), seeded=seed is not None))
    return items


def corpus_reduce_random(tait, seed):
    sizes = range(60, 101, 2)
    items = _random_maps("reduce-random", None, 85, sizes)
    items += _random_maps("reduce-random", seed, 15, sizes)
    return _shuffled(items, seed, "reduce-random")


def corpus_count_crosscheck(tait, seed):
    items = [Item(f"prism-{n}", _catalog(tait, "prism", n), ("prism", n)) for n in range(2, 15)]
    items += [
        Item(f"necklace-{k}", _catalog(tait, "necklace", k), ("necklace", k)) for k in range(1, 15)
    ]
    items += [
        Item("k4", _catalog(tait, "k4"), ("known", "k4")),
        Item("cube", _catalog(tait, "cube"), ("known", "cube")),
        Item("dodecahedron", _catalog(tait, "dodecahedron"), ("known", "dodecahedron"), 2),
        Item("petersen", _catalog(tait, "petersen"), ("known", "petersen"), 1),
    ]
    items += _random_maps("count-crosscheck", None, 54, range(24, 41, 2))
    items += _random_maps("count-crosscheck", seed, 15, range(24, 33, 2))
    return _shuffled(items, seed, "count-crosscheck")


def corpus_p3_bipartite(tait, seed):
    items = [
        Item(f"necklace-{k}", _catalog(tait, "necklace", k), ("necklace", k))
        for k in (25, 50, 100, 200, 400, 500)
    ]
    items += [
        Item(f"prism-{n}", _catalog(tait, "prism", n), ("prism", n)) for n in (12, 24, 36, 60)
    ]
    for k, n in ((10, 4), (25, 8), (40, 12), (60, 20)):
        union = tait.planar.disjoint_union(tait.catalog.necklace(k), tait.catalog.prism(n))
        text = tait.planar.serialize_map(union)
        items.append(Item(f"union-necklace-{k}-prism-{n}", text, ("random",)))
    sizes = range(16, 41, 4)
    items += _random_maps("p3-bipartite", None, 76, sizes, gen.random_bipartite, "bip")
    items += _random_maps("p3-bipartite", seed, 10, sizes, gen.random_bipartite, "bip")
    return _shuffled(items, seed, "p3-bipartite")


def corpus_su3_roundtrip(tait, seed):
    items = [Item(f"prism-{n}", _catalog(tait, "prism", n), ("su3",)) for n in range(3, 67)]
    items += [Item(f"necklace-{k}", _catalog(tait, "necklace", k), ("su3",)) for k in range(1, 67)]
    items.append(Item("dodecahedron", _catalog(tait, "dodecahedron"), ("su3",)))
    items += _random_maps("su3-roundtrip", None, 4, (10, 14, 18, 22))
    items += _random_maps("su3-roundtrip", seed, 2, (8, 12))
    for i, suite in enumerate(("lemma5", "roundtrip")):
        items.append(Item(f"verify-{suite}", "", ("verify", suite, 2 * seed + i), seeded=True))
    for item in items:
        if item.recipe[0] == "random":
            item.recipe = ("su3",)
        if item.text:
            item.cmap = tait.planar.parse_map(item.text)
    return _shuffled(items, seed, "su3-roundtrip")


# ----------------------------------------------------------------------
# operations


def cli(tait, argv):
    """``tait.cli.main(argv)`` with output captured: (exit code or exception name, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = tait.cli.main(argv)
        except Exception as exc:  # a traceback through cli.main is a measured failure
            code = type(exc).__name__
    return code, out.getvalue()


def failure(code, expect):
    if code == expect:
        return None
    if code == "RecursionError":
        return "depth"
    if code == 2:
        return "strand"
    return f"exit {code}"


def op_euler(tait, item, path, seed):
    code, out = cli(tait, ["euler", path])
    return failure(code, item.expect_exit), (code, out)


def _calls(tait, calls):
    """Run CLI calls in turn, stopping at the first that fails."""
    results = []
    for argv, expect in calls:
        code, out = cli(tait, argv)
        results.append((code, out))
        fail = failure(code, expect)
        if fail:
            return fail, tuple(results)
    return None, tuple(results)


def op_crosscheck(tait, item, path, seed):
    return _calls(tait, ((["count", path], 0), (["euler", path], item.expect_exit)))


def op_p3_reduce(tait, item, path, seed):
    return _calls(tait, ((["p3", path], 0), (["reduce", path], 0)))


def op_su3(tait, item, path, seed):
    if item.recipe[0] == "verify":
        _, suite, suite_seed = item.recipe
        code, out = cli(tait, ["verify", suite, "--seed", str(suite_seed)])
        return failure(code, 0), (code, out)
    name_key = int(hashlib.sha256(item.name.encode()).hexdigest()[:8], 16)
    rng = np.random.default_rng([seed, name_key])
    su3 = tait.su3
    try:
        lines = su3.sample_admissible_decoration(item.cmap, rng)
    except su3.RetriesExhaustedError:
        return "exhausted", None
    matrices = su3.decoration_to_representation(item.cmap, lines)
    recovered = su3.representation_to_decoration(matrices)
    return None, (lines, matrices, recovered)


def output_digest(output) -> str:
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, (tuple, list)):
            h.update(b"(")
            for y in x:
                feed(y)
            h.update(b")")
        elif isinstance(x, np.ndarray):
            h.update(x.tobytes())
        else:
            h.update(repr(x).encode())

    feed(output)
    return h.hexdigest()


# ----------------------------------------------------------------------
# references and checks


def make_reference(tait, item) -> dict:
    """Reference for one input, from a path the benchmark does not time."""
    kind = item.recipe[0]
    if kind in ("su3", "verify"):
        return {"source": "invariants"}
    if kind == "necklace":
        k = item.recipe[1]
        p3 = ref.poly_digest(ref.necklace_p3(k))
        return {"count": str(ref.necklace_count(k)), "p3": p3, "source": "closed form"}
    if kind == "known":
        return {"count": str(KNOWN_COUNTS[item.recipe[1]]), "source": "known count"}
    cmap = tait.planar.parse_map(item.text, check_planar=True)
    leaves = ref.random_order_leaves(cmap, tait.reduction, item.digest)
    out = {"count": None, "source": "random order"}
    if leaves is not None:
        out["count"] = str(ref.leaves_count(leaves))
        if cmap.is_bipartite():
            out["p3"] = ref.poly_digest(ref.leaves_p3(leaves))
    if kind == "prism":
        closed = str(ref.prism_count(item.recipe[1]))
        if out["count"] not in (None, closed):
            raise AssertionError(
                f"{item.name}: random order {out['count']} != closed form {closed}"
            )
        out["count"] = closed
        out["source"] = "closed form count, random order p3"
    return out


def check_counts(item, output, reference):
    """Every call that exited 0 printed the reference count (and the same one)."""
    calls = output if isinstance(output[0], tuple) else (output,)
    values = {text.strip() for code, text in calls if code == 0}
    if len(values) > 1:
        return f"calls disagree: {sorted(values)}"
    count = reference.get("count")
    if values and count is not None and values != {count}:
        return f"printed {values.pop()}, reference {count}"
    return None


def check_p3(item, output, reference):
    (_, poly_text), (_, tree_text) = output
    poly = ref.parse_poly(poly_text)
    if ref.poly_digest(poly) != reference["p3"]:
        return "p3 differs from the reference polynomial"
    count = int(reference["count"])
    if sum(poly.values()) != count:
        return f"p3 at q=1 is {sum(poly.values())}, reference count {count}"
    last = tree_text.strip().splitlines()[-1]
    if last != f"value {count}":
        return f"reduce printed {last!r}, reference count {count}"
    return None


def check_su3(item, output, reference):
    if item.recipe[0] == "verify":
        _, suite, suite_seed = item.recipe
        lines = output[1].splitlines()
        for want in (f"suite: {suite}", f"seed: {suite_seed}", "failures: 0", "result: PASS"):
            if want not in lines:
                return f"verify output lacks {want!r}"
        return None
    defect = ref.decoration_defect(ref.incidence(item.text), *output)
    return None if defect <= 1e-8 else f"decoration defect {defect:.3e}"


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: object
    op: object
    check: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload("reduce-random", corpus_reduce_random, op_euler, check_counts),
        Workload("count-crosscheck", corpus_count_crosscheck, op_crosscheck, check_counts),
        Workload("p3-bipartite", corpus_p3_bipartite, op_p3_reduce, check_p3),
        Workload("su3-roundtrip", corpus_su3_roundtrip, op_su3, check_su3),
    )
}

"""Spans around the public functions of each ``tait`` layer, from outside.

The tracer replaces module attributes with wrappers at the places their
callers look them up (``tait.cli.parse_map``, ``tait.reduction.find_move``
and so on), records one span per call (operation id, name, start, end,
parent) in memory, and restores the originals on :meth:`Tracer.uninstall`.
No private name is wrapped: time spent in ``_rebuild`` shows up as
``reduction.apply_move`` self time, and if a later version stops calling
``build_map`` from the reduction, that time moves there too.

A span's self time is its duration minus the part of it covered by its
child spans; :func:`self_times` computes it for any span tree.
"""

from __future__ import annotations

import gzip
import json
from collections import Counter, defaultdict
from time import perf_counter

PER_LAYER = (
    ("planar.build_map.calls", "count"),
    ("planar.build_map.self_s", "s"),
    ("planar.build_map.half_edges", "count"),
    ("planar.parse_map.calls", "count"),
    ("planar.parse_map.self_s", "s"),
    ("reduction.reduce_map.self_s", "s"),
    ("reduction.find_move.calls", "count"),
    ("reduction.find_move.self_s", "s"),
    ("reduction.apply_move.calls", "count"),
    ("reduction.apply_move.self_s", "s"),
    ("reduction.nodes", "count"),
    ("reduction.max_depth", "count"),
    ("reduction.moves.loop", "count"),
    ("reduction.moves.bigon", "count"),
    ("reduction.moves.triangle", "count"),
    ("reduction.moves.square", "count"),
    ("reduction.strands", "count"),
    ("reduction.depth_errors", "count"),
    ("reduction.value.self_s", "s"),
    ("reduction.format_trace.self_s", "s"),
    ("laurent.p3.self_s", "s"),
    ("laurent.value.self_s", "s"),
    ("laurent.terms_max", "count"),
    ("coloring.count_tait.calls", "count"),
    ("coloring.count_tait.self_s", "s"),
    ("coloring.count_tait.colorings", "count"),
    ("su3.sample.calls", "count"),
    ("su3.sample.self_s", "s"),
    ("su3.sample.exhausted", "count"),
    ("su3.to_representation.self_s", "s"),
    ("su3.to_decoration.self_s", "s"),
    ("verify.suite.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_share", "ratio"),
)

# counts that are maxima over the run rather than sums over passes
MAXIMA = {"reduction.max_depth", "laurent.terms_max"}


def self_times(spans) -> dict:
    """Total self time per span name.

    ``spans`` are ``(op, name, start, end, parent)`` rows whose ``parent``
    is the index of the enclosing span or -1.  Child intervals are
    clipped to the parent and merged before they are subtracted, so
    overlapping children are not counted twice.
    """
    children = defaultdict(list)
    for i, row in enumerate(spans):
        if row[4] >= 0:
            children[row[4]].append(i)
    totals: dict = defaultdict(float)
    for i, (_, name, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for a, b in sorted((spans[c][2], spans[c][3]) for c in children[i]):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        totals[name] += (end - start) - covered
    return dict(totals)


def _assign(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.maxima: dict = {}
        self.op = -1
        self._stack: list = []
        self._undo: list = []
        self._depth: dict = {}
        self._errors: set = set()

    # -- recording ------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self._depth.clear()
        self._errors.clear()

    def end_op(self) -> None:
        for kind in self._errors:
            self.counts[kind] += 1

    def _maximum(self, name, value) -> None:
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    def wrap(self, fn, name, on_result=None):
        """``fn`` recording a span per call; ``name`` may be a function of the args."""

        def traced(*args, **kwargs):
            idx = len(self.spans)
            label = name(args) if callable(name) else name
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except RecursionError:
                self._errors.add("reduction.depth_errors")
                raise
            except Exception as exc:
                kind = type(exc).__name__
                if kind == "IrreducibleError":
                    self._errors.add("reduction.strands")
                elif kind == "RetriesExhaustedError":
                    self.counts["su3.sample.exhausted"] += 1
                raise
            finally:
                self.spans[idx] = (self.op, label, start, perf_counter(), parent)
                self._stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def patch(self, owner, attr, name, **hooks) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) by a wrapper."""
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        _assign(owner, attr, self.wrap(original, name, **hooks))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            _assign(owner, attr, original)

    # -- the tait layers ------------------------------------------------

    def install(self, tait) -> None:
        cli, red, su3, verify = tait.cli, tait.reduction, tait.su3, tait.verify
        self.patch(cli, "main", "cli.main")
        self.patch(cli, "parse_map", "planar.parse_map")
        self.patch(
            cli,
            "count_tait",
            "coloring.count_tait",
            on_result=lambda a, r: self.counts.update({"coloring.count_tait.colorings": r}),
        )
        self.patch(cli, "reduce_map", "reduction.reduce_map")
        self.patch(
            cli,
            "p3",
            "laurent.p3",
            on_result=lambda a, r: self._maximum("laurent.terms_max", len(list(r.items()))),
        )
        self.patch(cli, "format_trace", "reduction.format_trace")
        self.patch(red, "find_move", "reduction.find_move", on_result=self._found)
        self.patch(red, "apply_move", "reduction.apply_move", on_result=self._applied)
        self.patch(
            red,
            "build_map",
            "planar.build_map",
            on_result=lambda a, r: self.counts.update(
                {"planar.build_map.half_edges": r.n_half_edges}
            ),
        )
        for module in (su3, verify):
            for attr, name in (
                ("sample_admissible_decoration", "su3.sample"),
                ("decoration_to_representation", "su3.to_representation"),
                ("representation_to_decoration", "su3.to_decoration"),
            ):
                self.patch(module, attr, name)
        for suite in list(verify.SUITES):
            self.patch(verify.SUITES, suite, "verify.suite")
        self._patch_value(red.TraceNode)

    def _found(self, args, move) -> None:
        depth = self._depth.get(id(args[0]), 0)
        self._maximum("reduction.max_depth", depth)
        if depth == 0:
            self.counts["reduction.nodes"] += 1
        if move is not None:
            self.counts[f"reduction.moves.{move.kind.value}"] += 1

    def _applied(self, args, children) -> None:
        depth = self._depth.get(id(args[0]), 0) + 1
        for child in children:
            self._depth[id(child)] = depth
        self.counts["reduction.nodes"] += len(children)

    def _patch_value(self, node_class) -> None:
        """Wrap ``TraceNode.value`` for its outermost call only.

        While the outermost call runs, the class attribute is the original
        method again, so the recursion inside it adds no wrapper frames
        and hits the interpreter's depth limit exactly where it would
        untraced.
        """
        original = node_class.value

        def name(args):
            return "reduction.value" if isinstance(args[0].multiplier, int) else "laurent.value"

        traced = self.wrap(original, name)

        def outermost(node):
            node_class.value = original
            try:
                return traced(node)
            finally:
                node_class.value = outermost

        self._undo.append((node_class, "value", original))
        node_class.value = outermost

    # -- results --------------------------------------------------------

    def metrics(self, passes: int, overhead_share: float, speed: float) -> dict:
        """Per-layer metrics per corpus pass; maxima are over the whole run.

        Self times are multiplied by ``speed``, the run's reference probe
        time over its median probe time.
        """
        per_pass = Counter(self.counts)
        selfs = self_times(self.spans)
        calls = Counter(row[1] for row in self.spans)
        out = {}
        for metric, unit in PER_LAYER:
            if metric == "trace.overhead_share":
                value = overhead_share
            elif metric in MAXIMA:
                value = self.maxima.get(metric, 0)
            elif metric.endswith(".self_s"):
                value = selfs.get(metric[: -len(".self_s")], 0.0) * speed / passes
            elif metric.endswith(".calls"):
                value = calls[metric[: -len(".calls")]] / passes
            else:
                value = per_pass[metric] / passes
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: op, name, start, end, parent."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for row in self.spans:
                fh.write(json.dumps(row) + "\n")

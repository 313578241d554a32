"""Seeded benchmark of the ``tait`` command line and SU(3) layer.

    python3 bench/run.py --workload reduce-random --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1

Each workload runs in its own process as a single-client closed loop:
one operation at a time, in whole passes over a seeded corpus, until
``--seconds`` have passed.  Operations call ``tait.cli.main`` on map
files written during set-up, or the ``tait.su3`` functions, in-process.
A speed probe (see :func:`probe`) runs after every operation, and times
are reported at the probe's reference speed.
After the timed phase every output is checked against a reference from
``refs/<workload>.json`` or, for inputs not listed there, one computed
on the spot by the same untimed path.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
public function of each layer (see ``tracer.py``), reports per-layer
metrics per corpus pass, then runs each input once more traced and once
untraced to measure the tracing overhead and to check that both print
the same bytes.
The last line of standard output is one JSON object; the lines before
it name every metric with its unit and sample count.  Its ``attempted``
and ``failed`` count each input of the corpus once: every pass repeats
the same operations, and a pass that ends one of them differently from
the first is an error, so the counts depend on the seed alone, not on
how many passes fit in ``--seconds``.  The exit code is
0 when every output is correct, 1 when one is wrong and 2 when the
benchmark cannot run (for example, no ``src/tait`` next to it).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import gen  # noqa: E402  (bench/ is sys.path[0] when run as a script)
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

MIN_PASSES = 2
PROBE_REF_S = 3e-4
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
TAIL_BEYOND = 10
MODULES = ("catalog", "cli", "coloring", "laurent", "planar", "reduction", "su3", "verify")


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten of ``n`` samples beyond it.

    Falls back to the median when ``n`` is too small for any of them.
    """
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n * (100 - p) / 100 >= TAIL_BEYOND - 1e-9:
            best = p
    return best


def percentile(samples, p: float) -> float:
    """Linear-interpolated percentile of ``samples``."""
    xs = sorted(samples)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def corpus_hash(items) -> str:
    h = hashlib.sha256()
    for item in sorted(items, key=lambda i: i.name):
        h.update(f"{item.name}\n{item.text}\n".encode())
    return h.hexdigest()


def import_tait():
    """Fresh import of every ``tait`` module from ``src/``."""
    for name in [m for m in sys.modules if m == "tait" or m.startswith("tait.")]:
        del sys.modules[name]
    tait = types.SimpleNamespace(
        **{m: importlib.import_module(f"tait.{m}") for m in MODULES}
    )
    if Path(tait.cli.__file__).resolve().parent != SRC / "tait":
        raise ImportError(f"imported tait from {tait.cli.__file__}, not from {SRC}")
    return tait


def probe() -> float:
    """Seconds a fixed piece of pure-Python work takes right now.

    The machine this benchmark was built on ran one fixed reduction in
    12 ms or in 25 ms depending on the second, for tens of seconds at a
    time, so raw times mostly measure the machine.  This probe slows down
    with it (the reduction's time over the probe's varied by 4% where the
    raw time varied by 15%), and times reported as ``raw * PROBE_REF_S /
    probe`` are the times at a speed where the probe takes PROBE_REF_S.
    The work is the benchmark's own generator, not ``tait``.  It runs
    twice with the cyclic collector off and only the second run is timed,
    so the probe does not depend on what the program left in the caches
    or on the size of its heap.
    """
    gc.disable()
    try:
        gen.random_planar(40, "probe")
        start = perf_counter()
        gen.random_planar(40, "probe")
        return perf_counter() - start
    finally:
        gc.enable()


def local_probe(probes, i):
    """Probe time around operation ``i``, which ran between probes i and i+1."""
    return statistics.median(probes[max(0, i - 1): i + 3])


def run_op(op, tait, item, paths, seed):
    """(failure, output) of one operation; an exception is a failure."""
    try:
        return op(tait, item, paths.get(item.name), seed)
    except Exception as exc:  # measured, not fatal: the loop keeps running
        return type(exc).__name__, None


class Run:
    """One workload in one process: set-up, timed passes, checks."""

    def __init__(self, workload, seed, seconds, trace):
        self.w = wl.WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.recorded = json.loads((BENCH / "refs" / f"{workload}.json").read_text())

    # -- set-up ---------------------------------------------------------

    def set_up(self, work):
        """Import ``tait`` afresh, build the corpus, write map files, warm up.

        Returns the time it took at the probe's reference speed, and the
        (tait, items, paths) it made.
        """
        probes = [probe() for _ in range(3)]
        start = perf_counter()
        tait = import_tait()
        items = self.w.corpus(tait, self.seed)
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        paths = {}
        for item in items:
            if item.text:
                path = work / f"{item.name}.map"
                path.write_text(item.text, encoding="utf-8")
                paths[item.name] = str(path)
        smallest = min((i for i in items if i.text), key=lambda i: len(i.text))
        run_op(self.w.op, tait, smallest, paths, self.seed)
        took = perf_counter() - start
        probes += [probe() for _ in range(3)]
        return took * PROBE_REF_S / statistics.median(probes), (tait, items, paths)

    def execute(self, item):
        return run_op(self.w.op, self.tait, item, self.paths, self.seed)

    # -- timed phase ----------------------------------------------------

    def one_pass(self, tracer=None):
        """Run every input once, probing after each.

        Returns raw latencies, local probe times, failures and outputs, in
        corpus order.
        """
        latencies, failures, outputs = [], [], []
        probes = [probe()]
        for index, item in enumerate(self.items):
            if tracer is not None:
                tracer.begin_op(index)
            start = perf_counter()
            fail, output = self.execute(item)
            latencies.append(perf_counter() - start)
            if tracer is not None:
                tracer.end_op()
            probes.append(probe())
            failures.append(fail)
            outputs.append(output)
        local = [local_probe(probes, i) for i in range(len(latencies))]
        return latencies, local, failures, outputs

    def timed(self, tracer=None):
        """At least ``MIN_PASSES`` whole passes, and on until ``seconds`` have passed.

        Returns per-pass raw latencies, local probe times and failures, the
        first pass's outputs, and each input's output digest (None where
        passes disagreed).  Untraced runs set up once more after every
        pass, only to time it, so that set-up is timed at several moments.
        """
        latencies, probes, failures = [], [], []
        outputs = None
        digests = {}
        start = perf_counter()
        while len(latencies) < MIN_PASSES or perf_counter() - start < self.seconds:
            lat, local, fails, outs = self.one_pass(tracer)
            latencies.append(lat)
            probes.append(local)
            failures.append(fails)
            outputs = outputs or outs
            for item, out in zip(self.items, outs):
                d = wl.output_digest(out)
                if digests.setdefault(item.name, d) != d:
                    digests[item.name] = None
            if tracer is None:
                self.setup_times.append(self.set_up(self.work / "extra")[0])
        return latencies, probes, failures, outputs, digests

    def tracing_overhead(self, traced_outputs):
        """Traced over untraced time of one more pass, minus 1, and mismatches.

        Each input runs once untraced and once traced, alternating which
        goes first, so the machine's drifting speed stays out of the
        ratio.  Both outputs must equal the one the traced passes printed.
        """
        times = {False: 0.0, True: 0.0}
        differ = []
        for index, item in enumerate(self.items):
            digests = {wl.output_digest(traced_outputs[index])}
            for traced in (True, False) if index % 2 else (False, True):
                tracer = Tracer()
                if traced:
                    tracer.install(self.tait)
                try:
                    start = perf_counter()
                    output = self.execute(item)[1]
                    times[traced] += perf_counter() - start
                finally:
                    tracer.uninstall()
                digests.add(wl.output_digest(output))
            if len(digests) > 1:
                differ.append(item.name)
        return times[True] / times[False] - 1, differ

    # -- checks ---------------------------------------------------------

    def check_outputs(self, failures, outputs):
        """Check each input's output; returns (errors, reference sources)."""
        committed = self.recorded["references"]
        errors, sources = [], Counter()
        for item, fail, output in zip(self.items, failures, outputs):
            if fail is not None:
                continue
            reference = committed.get(item.digest)
            where = "committed"
            if reference is None:
                reference = wl.make_reference(self.tait, item)
                where = "live"
            sources[f"{where} {reference['source']}"] += 1
            if reference.get("count", "") is None:
                sources["unverified"] += 1
            problem = self.w.check(item, output, reference)
            if problem:
                errors.append(f"{item.name}: {problem}")
        return errors, sources

    def verify_corpus(self):
        """Compare corpus hashes with the committed ones; returns the full hash."""
        full = corpus_hash(self.items)
        fixed = corpus_hash([i for i in self.items if not i.seeded])
        if self.recorded["fixed_sha256"] != fixed:
            raise SystemExit(f"{self.w.name}: the seed-independent inputs changed ({fixed})")
        want = self.recorded["corpus_sha256"].get(str(self.seed))
        if want is not None and want != full:
            raise SystemExit(f"{self.w.name} seed {self.seed}: corpus hash {full} != {want}")
        return full

    # -- the whole run --------------------------------------------------

    def main(self) -> int:
        try:
            took, (self.tait, self.items, self.paths) = self.set_up(self.work)
            self.setup_times = [took]
            full_hash = self.verify_corpus()
            tracer = None
            if self.trace:
                tracer = Tracer()
                tracer.install(self.tait)
            try:
                latencies, probes, failures, outputs, digests = self.timed(tracer)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            errors = [
                f"{name}: output differs between passes"
                for name, d in digests.items()
                if d is None
            ]
            errors += [
                f"{item.name}: pass {k} failed with {fails[i]}, pass 0 with {failures[0][i]}"
                for k, fails in enumerate(failures)
                for i, item in enumerate(self.items)
                if fails[i] != failures[0][i]
            ]
            overhead = None
            if tracer is not None:
                overhead, differ = self.tracing_overhead(outputs)
                errors += [f"{name}: traced output differs from untraced" for name in differ]
            problems, sources = self.check_outputs(failures[0], outputs)
            errors += problems
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

        n = len(self.items)
        passes = len(latencies)
        operations = n * passes
        flat = [f for f in failures[0] if f is not None]
        attempted, failed = n, len(flat)
        raw = [x for lat in latencies for x in lat]
        local = [x for loc in probes for x in loc]
        scaled = [x * PROBE_REF_S / p for x, p in zip(raw, local)]
        print(f"workload {self.w.name} seed {self.seed} trace {self.trace}: "
              f"{operations} operations in {passes} passes over {n} inputs, {sum(raw):.2f} s")
        print(f"  corpus sha256 {full_hash}")
        print(f"  references: {dict(sources)}")
        print(
            f"  failed_share {failed / attempted:.4f} ratio "
            f"({failed} of {attempted} inputs, each pass; {dict(Counter(flat))})"
        )
        q = statistics.quantiles(local, n=4)
        print(
            f"  probe {1e6 * q[1]:.1f} us median, {1e6 * q[0]:.1f}-{1e6 * q[2]:.1f} quartiles; "
            f"raw: {operations / sum(raw):.4f} operations/s, "
            f"p50 {1000 * statistics.median(raw):.4f} ms"
        )
        if tracer is None:
            p = tail_percentile(n)
            metrics = {
                "ops_per_s": (operations / sum(scaled), "1/s", f"{operations} operations"),
                "latency_p50_ms": (1000 * statistics.median(scaled), "ms", f"N={operations}"),
                "latency_tail_ms": (
                    1000 * percentile(scaled, p),
                    "ms",
                    f"p{p:g}, N={operations}, {n} inputs per pass",
                ),
                "setup_s": (
                    statistics.median(self.setup_times),
                    "s",
                    f"median of {len(self.setup_times)} set-ups, before and after each pass",
                ),
                "peak_rss_mb": (rss_mb, "MB", "peak resident set of this process"),
            }
            for name, (value, unit, note) in metrics.items():
                print(f"  {name:<16} {value:12.4f} {unit:<4} ({note})")
            result = {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}
        else:
            result = tracer.metrics(passes, overhead, PROBE_REF_S / statistics.median(local))
            for name, m in result.items():
                print(f"  {name:<32} {m['value']:14.4f} {m['unit']}")
            out = ROOT / ".bench_out"
            out.mkdir(exist_ok=True)
            spans = out / f"spans-{self.w.name}-{self.seed}.jsonl.gz"
            tracer.write(spans)
            print(f"  {len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
        for e in errors[:20]:
            print(f"  WRONG {e}")
        print(json.dumps({
            "correct": not errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": result,
        }))
        return 0 if not errors else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    worst = 0
    for name in wl.WORKLOADS:
        argv = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(argv, check=False).returncode)
    return worst


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tait" / "__init__.py").is_file():
        print(f"bench: no tait sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return Run(args.workload, args.seed, args.seconds, args.trace).main()


if __name__ == "__main__":
    sys.exit(main())

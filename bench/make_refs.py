"""Write ``refs/<workload>.json``: corpus hashes and reference outputs.

    python3 bench/make_refs.py [--seeds 0-19] [WORKLOAD ...]

For each workload and seed this builds the corpus exactly as a run does,
records its hash, and stores the reference for every input that has one
(keyed by the first 16 hex digits of the SHA-256 of the map text).  The
seed-independent inputs get a hash of their own, which every run checks
whatever its seed.  Runs with seeds not listed here compute the missing
references themselves, after the timed phase.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads as wl


def build(name: str, seeds) -> dict:
    workload = wl.WORKLOADS[name]
    tait = run.import_tait()
    references: dict = {}
    hashes = {}
    fixed = None
    for seed in seeds:
        items = workload.corpus(tait, seed)
        hashes[str(seed)] = run.corpus_hash(items)
        fixed_now = run.corpus_hash([i for i in items if not i.seeded])
        if fixed not in (None, fixed_now):
            raise AssertionError("seed-independent inputs depend on the seed")
        fixed = fixed_now
        for item in items:
            if item.text and item.digest not in references:
                entry = wl.make_reference(tait, item)
                if "count" in entry:
                    references[item.digest] = entry
        print(f"{name} seed {seed}: {len(items)} inputs, {len(references)} references so far")
    return {
        "workload": name,
        "fixed_sha256": fixed,
        "corpus_sha256": hashes,
        "references": dict(sorted(references.items())),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=list(wl.WORKLOADS))
    parser.add_argument("--seeds", default="0-19", help="inclusive range, e.g. 0-19")
    args = parser.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    sys.path.insert(0, str(run.SRC))
    out = run.BENCH / "refs"
    out.mkdir(exist_ok=True)
    for name in args.workloads:
        data = build(name, seeds)
        (out / f"{name}.json").write_text(json.dumps(data, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The golden certificate corpus, and the script that regenerates its file.

tests/golden_certificates.json maps the label of each instance below to the
SHA-256 of its certificate_to_json text; tests/test_golden.py solves every
instance and compares.  A change that means to change certificates rewrites
the file with

    PYTHONPATH=src python tests/golden.py

and says in CHANGES.md which certificates changed and why.  The file keeps
hashes only, since the texts run to megabytes; given labels, the script
prints their certificate texts instead, so that run at the commit that
wrote the file it shows the text a hash pins:

    PYTHONPATH=src python tests/golden.py "path n=50 all seed=0 k=1 d=3 plain"

The corpus is the benchmark's seed-1 matrix (generator seeds 3, 4 and 5),
its spider_ladder and grid_window rungs, rebuilt here with make_instance,
every family, policy, k <= 3 and mode at n = 10,000, and a k = 1 slice with
d up to 34 at n = 50.  An off-by-one in the far-pair search's sweep bounds
changes no certificate of the rest of the corpus, but some of that slice.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Iterator

from pathpack import A_POLICIES, FAMILIES, Graph, SolveParams, make_instance, solve
from pathpack.fileio import certificate_to_json

GOLDEN = Path(__file__).with_name("golden_certificates.json")

Case = tuple[str, Graph, frozenset[int], SolveParams]


def _cases(label: str, g: Graph, a: frozenset[int], ks, ds) -> Iterator[Case]:
    for k in ks:
        for d in ds:
            for coarse in (False, True):
                mode = "coarse" if coarse else "plain"
                yield (f"{label} k={k} d={d} {mode}", g, a,
                       SolveParams(k, d, coarse))


def corpus() -> Iterator[Case]:
    """Every golden instance as (label, graph, terminals, parameters); a
    label names the family, n, terminal policy, generator seed, k, d and
    mode."""
    for seed in (3, 4, 5):
        for n in (40, 80, 160):
            for family in FAMILIES:
                for policy in A_POLICIES:
                    g, a = make_instance(family, n, seed, policy)
                    yield from _cases(f"{family} n={n} {policy} seed={seed}",
                                      g, a, (1, 2, 3), (1, 2, 3))
    # the 10,000 rung is the n = 10,000 slice's spider endpoints instance
    for n in (5_000, 20_000):
        g, a = make_instance("spider", n, 1, "endpoints")
        yield (f"spider n={n} endpoints seed=1 k=2 d=1 plain", g, a,
               SolveParams(2, 1))
    for side in (46, 66):
        g, a = make_instance("grid", side * side, 1, "random_p")
        a |= {0, side - 1, side * (side - 1), side * side - 1}
        yield from _cases(f"grid n={side * side} random_p+corners seed=1",
                          g, a, (2,), (1,))
    for family in FAMILIES:
        for policy in A_POLICIES:
            g, a = make_instance(family, 10_000, 1, policy)
            yield from _cases(f"{family} n=10000 {policy} seed=1", g, a,
                              (1, 2, 3), (1,))
    for family in FAMILIES:
        for policy in A_POLICIES:
            g, a = make_instance(family, 50, 0, policy)
            yield from _cases(f"{family} n=50 {policy} seed=0", g, a, (1,),
                              range(1, 35))


def certificate_text(g: Graph, a: frozenset[int], params: SolveParams) -> str:
    return certificate_to_json(solve(g, a, params), params)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv: list[str]) -> int:
    """Rewrite the golden file, or with labels given, print the
    certificate text of each, the text whose hash the file pins when run
    at the commit that wrote it."""
    if argv:
        texts = {label: certificate_text(g, a, params)
                 for label, g, a, params in corpus() if label in argv}
        for label in argv:
            sys.stdout.write(texts.get(label, f"no instance {label!r}\n"))
        return 0
    hashes = {label: digest(certificate_text(g, a, params))
              for label, g, a, params in corpus()}
    GOLDEN.write_text(json.dumps(hashes, indent=1) + "\n")
    print(f"{GOLDEN}: {len(hashes)} certificates", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Differential fuzz target: every nonempty terminal set of small seeded
random graphs, solved with every check on, for k, d in {1, 2, 3} and both
modes.  No solve may raise, and the oracle's verifiers, which share no
logic with the solver, must accept every certificate."""

import random
from itertools import combinations

import pytest

from pathpack import (Graph, HittingCertificate, PackingCertificate,
                      SolveParams, components, solve, verify_hitting,
                      verify_packing)

# Among these hosts, seeds 36, 43 and 47 fall apart into two or more
# components of at least two vertices, so a round sees several candidates.
SEEDS = range(36, 48)
N = 8


def fuzz_graph(seed: int) -> Graph:
    """Eight vertices, each pair joined with one probability in [0.2, 0.5],
    so that some hosts fall apart into several components."""
    rng = random.Random(seed)
    p = rng.uniform(0.2, 0.5)
    return Graph(N, [e for e in combinations(range(N), 2) if rng.random() < p])


def test_fuzz_hosts_include_several_candidate_components():
    sizes = [[len(c) for c in components(fuzz_graph(s), range(N))] for s in SEEDS]
    assert sum(sum(x >= 2 for x in row) >= 2 for row in sizes) >= 3
    assert sum(row == [N] for row in sizes) >= 3


@pytest.mark.parametrize("seed", SEEDS)
def test_every_terminal_set_solves_and_verifies(seed):
    g = fuzz_graph(seed)
    params = [SolveParams(k, d, coarse=coarse)
              for k in (1, 2, 3) for d in (1, 2, 3) for coarse in (False, True)]
    kinds = set()
    for mask in range(1, 2 ** N):
        a = frozenset(v for v in range(N) if mask >> v & 1)
        for p in params:
            cert = solve(g, a, p, validate=True)
            kinds.add(type(cert))
            if isinstance(cert, PackingCertificate):
                ok = verify_packing(g, a, cert.paths, p.k, p.d, p.coarse)
            else:
                assert isinstance(cert, HittingCertificate)
                ok = verify_hitting(g, a, cert.x, cert.radius, p.bound_f,
                                    cert.coarse_threshold)
            assert ok, (sorted(a), p, cert)
    assert kinds == {PackingCertificate, HittingCertificate}

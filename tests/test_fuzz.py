"""Differential fuzz targets.

Every nonempty terminal set of small seeded random graphs is solved with
every check on, for k, d in {1, 2, 3} and both modes.  No solve may raise,
and the oracle's verifiers, which share no logic with the solver, must
accept every certificate.

Single rounds are fuzzed at scales where the guarded balls leave part of
the host uncovered, which the solver's own schedule never reaches on small
hosts, and each round's choice is compared with a plain reference.
"""

import random
from collections import Counter
from itertools import combinations

import pytest

from pathpack import (FatModel, Frame, Graph, HittingCertificate,
                      PackingCertificate, PatternGraph, SolveParams, ball,
                      components, distance_map, empty_frame, extend_or_hit,
                      far_pair, hitting_violations, part_vertices,
                      radius_center, solve, st_path, validate_frame,
                      verify_hitting, verify_packing)

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


ROUND_HOSTS = range(400)


def subdivided_host(seed: int) -> tuple[Graph, frozenset[int]]:
    """A random graph on 4-14 vertices (a random tree that mostly grows
    along a path, plus each other pair with one probability in [0, 0.1])
    whose edges are subdivided 0-70 times, and up to four isolated paths of
    1-20 vertices, so that some components hold at most 16 vertices.  Each
    vertex is a terminal with one probability in [0.03, 0.3]."""
    rng = random.Random(seed)
    n = rng.randint(4, 14)
    p = rng.uniform(0, 0.1)
    base = [(v - 1 if rng.random() < 0.75 else rng.randrange(v), v)
            for v in range(1, n)]
    base += [e for e in combinations(range(n), 2)
             if e not in base and rng.random() < p]
    edges: list[tuple[int, int]] = []
    for u, v in base:
        chain = [u, *range(n, n + rng.randint(0, 70)), v]
        n += len(chain) - 2
        edges += zip(chain, chain[1:])
    for _ in range(rng.randint(0, 4)):
        chain = list(range(n, n + rng.randint(1, 20)))
        n += len(chain)
        edges += zip(chain, chain[1:])
    q = rng.uniform(0.03, 0.3)
    a = frozenset(v for v in range(n) if rng.random() < q)
    return Graph(n, edges), a


def k2_frame(g: Graph, a: frozenset[int], coarse: bool):
    """A K2 frame at scale 256 with r = 64 on a geodesic between two
    terminals at least 256 apart, found by a double sweep from the least
    terminal of each component, or None when the sweeps find none."""
    for comp in components(g, range(g.n)):
        if len(a & comp) < 2:
            continue
        dm = distance_map(g, {min(a & comp)})
        u = max(sorted(a & comp), key=dm.get)
        dm = distance_map(g, {u})
        v = max(sorted(a & comp), key=dm.get)
        if dm[v] >= 256:
            pat = PatternGraph.from_parts([0, 1], {0: (0, 1)})
            m = FatModel(pat, {0: frozenset({u}), 1: frozenset({v})},
                         {0: st_path(g, {u}, {v})})
            fr = Frame(m, 1, 256, 64, coarse, a)
            assert validate_frame(g, fr) == []
            return fr
    return None


def check_round(g: Graph, fr: Frame, out, seen: Counter) -> None:
    """Compare one extend_or_hit round with a plain reference: the guard
    is the (r + 8*ell)-ball around the branch sets' centers, the candidates
    are the components of the rest holding two or more terminals, in order
    of their least terminal, and each gets oracle.far_pair."""
    ell = fr.ell // 16
    a = fr.a_set
    centers = {radius_center(g, part_vertices(fr.model.branch_sets[x]))[0]
               for x in fr.pattern.vertex_ids()}
    guard = ball(g, centers, fr.r + 8 * ell)
    comps = [c for c in components(g, set(range(g.n)) - guard) if len(a & c) > 1]
    cands = sorted(sorted(a & c) for c in comps)
    ref = next((p for p in (far_pair(g, t, ell) for t in cands) if p), None)
    if guard and cands:
        seen["guarded"] += 1
        seen["guarded small candidates"] += sum(len(c) <= ell for c in comps)
    if isinstance(out, frozenset):
        seen["hit"] += 1
        assert out == frozenset(centers)
        assert not cands or (fr.coarse and ref is None)
        threshold = ell if fr.coarse else None
        assert hitting_violations(g, a, out, fr.r + 8 * ell, len(out),
                                  threshold) == []
        return
    new = sorted(set(out.pattern.vertex_ids()) - set(fr.pattern.vertex_ids()))
    sets = out.model.branch_sets
    if len(new) == 2 and all(out.pattern.neighbors(h) == [o]
                             for h, o in (new, new[::-1])):
        seen["new k2"] += 1
        assert ref is not None
        assert (sets[new[0]], sets[new[1]]) == tuple(frozenset({v}) for v in ref)
        path = out.model.branch_parts[out.pattern.edge_between(*new)]
        assert guard.isdisjoint(path)
    elif len(new) == 1 and out.pattern.degree(new[0]) == 0:
        seen["close pair"] += 1
        assert ref is None
        link = sets[new[0]]
        assert (link[0], link[-1]) == tuple(cands[0][:2])
        assert len(link) - 1 == distance_map(g, {link[0]})[link[-1]] < ell
    else:
        seen["absorb"] += 1
        assert cands


@pytest.mark.parametrize("coarse", [False, True])
def test_rounds_with_a_partial_guard_match_the_reference(coarse):
    seen: Counter = Counter()
    for seed in ROUND_HOSTS:
        g, a = subdivided_host(seed)
        starts = [empty_frame(a, 256, 64, coarse), k2_frame(g, a, coarse)]
        for fr in filter(None, starts):
            while fr.ell % 16 == 0:
                out = extend_or_hit(g, fr)
                check_round(g, fr, out, seen)
                if isinstance(out, frozenset):
                    break
                fr = out
    assert seen["guarded"] >= 300 and seen["guarded small candidates"] >= 20
    assert seen["new k2"] >= 500 and seen["hit"] >= 50 and seen["absorb"] >= 20
    assert coarse or seen["close pair"] >= 15

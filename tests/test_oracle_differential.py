"""The verifiers against a reference built on graph.py's public searches.

The reference below is the verifiers' earlier form: it splits the whole
graph outside the balls into components with graph.components and tests
far pairs with graph.distance_map, where the oracle now searches with its
own kernels and enters only the components that hold a terminal.  Both
must give the same violation lists, in the same order, on every family
and terminal policy.
"""

import random

import pytest

from pathpack import (A_POLICIES, FAMILIES, UNREACHABLE, Graph,
                      PreconditionError, ball, components, dist, distance_map,
                      is_path, make_instance, st_path)
from pathpack.oracle import hitting_violations, packing_violations


def ref_far_pair(g, averts, threshold):
    averts = sorted(averts)
    for idx, src in enumerate(averts):
        if idx == 0:
            dm = distance_map(g, {src})
            if any(b not in dm for b in averts):
                raise PreconditionError("different components")
            far = [b for b in averts if b != src and dm[b] >= threshold]
            if far:
                return src, min(far)
            if 2 * max(dm[b] for b in averts) < threshold:
                return None
        else:
            dm = distance_map(g, {src}, cutoff=threshold - 1)
            far = [b for b in averts if b != src and b not in dm]
            if far:
                return src, min(far)
    return None


def ref_packing_violations(g, a, paths, k, d, coarse=False):
    out = []
    if len(paths) < k:
        out.append(f"only {len(paths)} paths, need {k}")
    for idx, p in enumerate(paths):
        if g.foreign(p):
            out.append(f"path {idx} has a vertex outside the graph")
            return out
    for idx, p in enumerate(paths):
        if len(p) < 2:
            out.append(f"path {idx} has fewer than two vertices")
            continue
        if not is_path(g, p):
            out.append(f"path {idx} is not a path in the graph")
            continue
        if p[0] not in a or p[-1] not in a:
            out.append(f"path {idx} does not join two terminals")
        if coarse and dist(g, {p[0]}, {p[-1]}, cutoff=d - 1) is not UNREACHABLE:
            out.append(f"path {idx} has endpoints closer than {d}")
    for i in range(len(paths)):
        for j in range(i + 1, len(paths)):
            dd = dist(g, paths[i], paths[j], cutoff=d - 1)
            if dd is not UNREACHABLE:
                out.append(f"paths {i} and {j} come within {dd} < {d}")
    return out


def ref_hitting_violations(g, a, x, radius, size_bound, coarse_threshold=None):
    out = []
    if len(x) > size_bound:
        out.append(f"hitting set has {len(x)} vertices, bound is {size_bound}")
    bad = g.foreign(x)
    if bad:
        out.append(f"hitting set vertex {min(bad, key=Graph.id_order)!r} "
                   f"is not in the graph")
        return out
    if radius < 0:
        out.append(f"ball radius {radius} is negative")
        return out
    avoid = frozenset(range(g.n)) - ball(g, x, radius)
    for comp in components(g, avoid):
        averts = sorted(a & comp)
        if len(averts) < 2:
            continue
        if coarse_threshold is None:
            out.append(f"unhit terminal path between {averts[0]} and {averts[1]}")
        else:
            pair = ref_far_pair(g, averts, coarse_threshold)
            if pair is not None:
                out.append(f"unhit coarse terminal path between "
                           f"{pair[0]} and {pair[1]}")
    return out


def instances():
    """Every family and terminal policy at three small sizes and two
    generator seeds."""
    for family in FAMILIES:
        for policy in A_POLICIES:
            for n in (12, 30, 60):
                for seed in (0, 1):
                    yield make_instance(family, n, seed, policy)


def random_paths(g, a, rng):
    """Terminal paths, with broken, short, too-close and non-terminal ones
    mixed in."""
    terms = sorted(a)
    paths = []
    for _ in range(rng.randrange(0, 6)):
        kind = rng.random()
        if kind < 0.5 and len(terms) > 1:
            s, t = rng.sample(terms, 2)
            p = st_path(g, {s}, {t})
            if p is not None:
                paths.append(p)
        elif kind < 0.65:
            paths.append(tuple(rng.sample(range(g.n), rng.randrange(0, 4))))
        elif kind < 0.8:
            v = rng.randrange(g.n)
            paths.append((v,) + tuple(g.adj[v][:1]))
        elif kind < 0.9 and any(paths):
            # an earlier path's tail: too close to it
            p = rng.choice([p for p in paths if p])
            paths.append(p[rng.randrange(len(p)):])
        else:
            v = rng.randrange(g.n)
            paths.append((v,))
    if rng.random() < 0.05:
        paths.append((0, -1))
    return paths


def test_hitting_violations_match_the_reference():
    rng = random.Random(20261022)
    cases = found = several = 0
    for g, a in instances():
        for _ in range(40):
            x = frozenset(rng.sample(range(g.n), rng.randrange(0, 7)))
            if rng.random() < 0.03:
                x |= {g.n}
            radius = rng.randrange(-1, 6)
            threshold = rng.choice([None, rng.randrange(1, 101),
                                    rng.randrange(1, 8)])
            bound = rng.randrange(0, 5)
            aa = a | {-1, g.n, "x"} if rng.random() < 0.1 else a
            got = hitting_violations(g, aa, x, radius, bound, threshold)
            want = ref_hitting_violations(g, aa, x, radius, bound, threshold)
            assert got == want, (g.n, sorted(a), sorted(x, key=Graph.id_order),
                                 radius, threshold)
            cases += 1
            witnesses = sum("unhit" in v for v in want)
            found += witnesses > 0
            several += witnesses > 1
    assert cases >= 4000
    # the lists compared hold witnesses, and their order is tested too
    assert found >= 1000
    assert several >= 300


def test_packing_violations_match_the_reference():
    rng = random.Random(20261023)
    cases = found = close = 0
    for g, a in instances():
        for _ in range(20):
            paths = random_paths(g, a, rng)
            k = rng.randrange(0, 5)
            d = rng.randrange(0, 8)
            coarse = rng.random() < 0.5
            got = packing_violations(g, a, paths, k, d, coarse)
            want = ref_packing_violations(g, a, paths, k, d, coarse)
            assert got == want, (g.n, sorted(a), paths, k, d, coarse)
            cases += 1
            found += bool(want)
            close += any(v.startswith("paths ") for v in want)
    assert cases >= 2000
    assert found >= 1500
    assert close >= 800


@pytest.mark.parametrize("d", [-1, 0, 1, 3])
def test_packing_distance_cutoff_matches_dist_at_small_d(d):
    """dist reports 0 for overlapping paths even below cutoff 0; the
    oracle's cut maps keep their sources, so they do too."""
    g = Graph(6, [(i, i + 1) for i in range(5)])
    paths = [(0, 1, 2), (2, 3), (4, 5)]
    a = frozenset(range(6))
    assert (packing_violations(g, a, paths, 3, d, True)
            == ref_packing_violations(g, a, paths, 3, d, True))

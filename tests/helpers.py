"""Shared instance builders for the test suite."""

from __future__ import annotations

import random

from pathpack import FatModel, Graph, PatternGraph, ball

# One summary line per acceptance criterion; echoed by conftest at the
# end of the run.
ACCEPTANCE_LINES: list[str] = []


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def grid_graph(side: int) -> Graph:
    edges = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                edges.append((v, v + 1))
            if r + 1 < side:
                edges.append((v, v + side))
    return Graph(side * side, edges)


def bfs_dists(g: Graph, src: int) -> dict[int, int]:
    """Plain reference BFS, independent of the library's pruning logic."""
    out = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for w in g.adj[u]:
                if w not in out:
                    out[w] = out[u] + 1
                    nxt.append(w)
        frontier = nxt
    return out


def k2_path_model(n: int) -> tuple[Graph, FatModel]:
    """Single-edge pattern modelled on a path host of n vertices."""
    g = path_graph(n)
    pat = PatternGraph.from_parts([0, 1], {0: (0, 1)})
    m = FatModel(pat, {0: frozenset({0}), 1: frozenset({n - 1})},
                 {0: tuple(range(n))})
    return g, m


def p3_path_model(ell: int, n: int = 401) -> tuple[Graph, FatModel]:
    """Three-vertex path pattern on a path host; the middle branch set is a
    segment wide enough to keep the two branch paths 10*ell apart."""
    g = path_graph(n)
    mid = n // 2
    gap = 5 * ell
    pat = PatternGraph.from_parts([0, 1, 2], {0: (0, 1), 1: (1, 2)})
    m = FatModel(
        pat,
        {0: frozenset({0}), 1: frozenset(range(mid - gap, mid + gap + 1)),
         2: frozenset({n - 1})},
        {0: tuple(range(mid - gap + 1)), 1: tuple(range(mid + gap, n))})
    return g, m


def star_grid_model(ell: int, extra: int = 0) -> tuple[Graph, FatModel]:
    """Three-leaf star on a grid host.  The center set is a plus shape on
    the top row and middle column; the arms leave gaps of 4*ell so the
    model is 8*ell-fat.  extra pads the grid without moving the arms
    relative to the middle column."""
    s = 26 * ell + 2 + extra
    g = grid_graph(s)
    mid = s // 2
    pat = PatternGraph.from_parts([0, 1, 2, 3],
                                  {0: (0, 1), 1: (0, 2), 2: (0, 3)})
    center = {c for c in range(mid - 4 * ell, mid + 4 * ell + 1)}
    center |= {r * s + mid for r in range(4 * ell + 1)}
    w0, e0 = mid - 12 * ell, mid + 12 * ell
    west = tuple(range(w0, mid - 4 * ell + 1))
    east = tuple(range(mid + 4 * ell, e0 + 1))
    south = tuple(r * s + mid for r in range(4 * ell, 12 * ell + 1))
    m = FatModel(
        pat,
        {0: frozenset(center), 1: frozenset({w0}), 2: frozenset({e0}),
         3: frozenset({12 * ell * s + mid})},
        {0: west, 1: east, 2: south})
    return g, m


def c6_grid_model(ell: int, extra: int = 0) -> tuple[Graph, FatModel]:
    """Six-cycle pattern along the ring of a 24*ell sub-square of a grid
    host; six fat sets alternate with six arcs, all gaps 4*ell wide.
    extra rows and columns outside the ring only add longer detours."""
    big = 24 * ell
    s = big + 1 + extra
    g = grid_graph(s)
    ring = [(0, c) for c in range(big)]
    ring += [(r, big) for r in range(big)]
    ring += [(big, c) for c in range(big, 0, -1)]
    ring += [(r, 0) for r in range(big, 0, -1)]
    ids = [r * s + c for r, c in ring]
    total = len(ids)
    sector = 16 * ell
    pat = PatternGraph.from_parts(range(6), {j: (j, (j + 1) % 6) for j in range(6)})
    sets = {}
    parts = {}
    for j in range(6):
        at = j * sector
        sets[j] = frozenset(ids[(at + k) % total]
                            for k in range(-4 * ell, 4 * ell + 1))
        parts[j] = tuple(ids[(at + k) % total]
                         for k in range(4 * ell, 12 * ell + 1))
    return g, FatModel(pat, sets, parts)


def check_forest_paths(f: PatternGraph, z: frozenset[int],
                       paths: list[tuple[int, ...]]) -> None:
    """Assert the extracted paths end in z, are simple, follow edges of
    f, and are pairwise vertex-disjoint."""
    seen: set[int] = set()
    for p in paths:
        assert len(p) >= 2
        assert p[0] in z and p[-1] in z
        assert len(set(p)) == len(p)
        for u, v in zip(p, p[1:]):
            assert f.edge_between(u, v) is not None
        assert not (seen & set(p))
        seen |= set(p)


def random_subcubic_forest(n: int, rng: random.Random) -> PatternGraph:
    """Forest built by attaching each new vertex to a random vertex of
    degree at most 2, or starting a fresh tree."""
    pat = PatternGraph()
    open_slots: list[int] = []
    for _ in range(n):
        if open_slots and rng.random() < 0.8:
            at = rng.choice(open_slots)
            v, _ = pat.add_leaf(at)
        else:
            v = pat.add_vertex()
        open_slots = [u for u in pat.vertex_ids() if pat.degree(u) < 3]
    return pat


def spider_tripod_instance(rng: random.Random):
    """Three equal legs from a central blob; tips exactly d from the core."""
    ell = rng.randint(1, 8)
    d = rng.randint(ell, 4 * ell)
    rho = rng.randint(0, 2)
    edges = []
    nxt = 1
    tips = []
    for _ in range(3):
        prev = 0
        for _ in range(rho + d):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        tips.append(prev)
    g = Graph(nxt, edges)
    q = frozenset(ball(g, {0}, rho))
    return g, tuple(tips), q, ell, d


def decorated_path_tripod_instance(rng: random.Random):
    """Long path core with tips hung at the ends and middle, plus pendant
    twigs that leave every hypothesis intact."""
    ell = rng.randint(1, 8)
    d = rng.randint(ell, 4 * ell)
    length = 4 * d + rng.randint(0, 2 * d)
    edges = [(i, i + 1) for i in range(length)]
    q = frozenset(range(length + 1))
    nxt = length + 1
    tips = []
    for at in (0, length // 2, length):
        delta = rng.randint(ell, d)
        prev = at
        for _ in range(delta):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        tips.append(prev)
    for _ in range(rng.randint(0, 5)):
        prev = rng.randrange(length + 1)
        for _ in range(rng.randint(1, 3)):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    g = Graph(nxt, edges)
    return g, tuple(tips), q, ell, d


def generated_tripod_instances(count: int = 200):
    """The three-leg instances of acceptance criterion 5: odd seeds build
    spiders, even seeds decorated paths."""
    for seed in range(count):
        rng = random.Random(seed)
        build = (spider_tripod_instance if seed % 2
                 else decorated_path_tripod_instance)
        yield build(rng)

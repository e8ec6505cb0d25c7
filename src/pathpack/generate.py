"""Seeded instance families for tests and benchmarks."""

from __future__ import annotations

import math
import random

from .errors import InputError, ParameterRangeError
from .graph import MAX_VERTICES, Graph

FAMILIES = ("path", "cycle", "spider", "disjoint_paths", "grid", "random")
A_POLICIES = ("endpoints", "all", "random_p")

RANDOM_A_PROB = 0.3


def make_instance(family: str, n: int, seed: int = 0,
                  a_policy: str = "endpoints") -> tuple[Graph, frozenset[int]]:
    """Deterministic (graph, terminal set) instance.

    n is a size target; structured families round it to their natural
    shape (spider legs of equal length, square grid side).  No family
    builds more than n vertices, so n above graph.MAX_VERTICES is refused
    before any edge is built.
    """
    if family not in FAMILIES:
        raise InputError(f"unknown family {family!r}, expected one of {FAMILIES}")
    if a_policy not in A_POLICIES:
        raise InputError(f"unknown terminal policy {a_policy!r}, "
                         f"expected one of {A_POLICIES}")
    if n < 1:
        raise InputError(f"size must be positive, got {n}")
    if n > MAX_VERTICES:
        raise ParameterRangeError(
            f"size {n} exceeds the vertex limit {MAX_VERTICES}")
    rng = random.Random(seed)

    if family == "path":
        g = Graph(n, [(i, i + 1) for i in range(n - 1)])
        ends = {0, n - 1}
    elif family == "cycle":
        if n < 3:
            raise InputError("cycles need at least 3 vertices")
        g = Graph(n, [(i, (i + 1) % n) for i in range(n)])
        ends = {0, n // 2}
    elif family == "spider":
        leg = max(1, (n - 1) // 4)
        nv = 4 * leg + 1
        edges = []
        for j in range(4):
            base = 1 + j * leg
            edges.append((0, base))
            edges.extend((base + t, base + t + 1) for t in range(leg - 1))
        g = Graph(nv, edges)
        ends = {j * leg + leg for j in range(4)}
    elif family == "disjoint_paths":
        if n < 3:
            raise InputError("disjoint_paths needs at least 3 vertices")
        chain = n // 3
        nv = 3 * chain
        edges = []
        for c in range(3):
            base = c * chain
            edges.extend((base + t, base + t + 1) for t in range(chain - 1))
        g = Graph(nv, edges)
        ends = {c * chain for c in range(3)} | {c * chain + chain - 1
                                               for c in range(3)}
    elif family == "grid":
        side = max(1, math.isqrt(n))
        nv = side * side
        edges = []
        for row in range(side):
            for col in range(side):
                v = row * side + col
                if col + 1 < side:
                    edges.append((v, v + 1))
                if row + 1 < side:
                    edges.append((v, v + side))
        g = Graph(nv, edges)
        ends = {0, side - 1, side * (side - 1), side * side - 1}
    else:
        target = int(n * rng.uniform(0.7, 1.8))
        edges = set()
        limit = n * (n - 1) // 2
        while len(edges) < min(target, limit):
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        g = Graph(n, sorted(edges))
        ends = {0, n - 1} if n > 1 else {0}

    if a_policy == "endpoints":
        a = frozenset(ends)
    elif a_policy == "all":
        a = frozenset(range(g.n))
    else:
        a = frozenset(v for v in range(g.n) if rng.random() < RANDOM_A_PROB)
        if not a:
            a = frozenset({0})
    return g, a

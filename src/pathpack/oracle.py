"""Independent certificate checkers and a small brute-force cross-check.

The checks decide their own conditions, and the construction calls
nothing here; only solve(validate=True) hands its final certificate to the
verifiers.  They still share graph.py's kernels ball, components, dist,
distance_map and is_path with the solver, so a kernel bug could hide in
both the construction and the check, until the oracle gets its own plain
breadth-first search (ROADMAP.md, "A verifier with its own kernel").
Which ids are vertices is Graph.foreign's one decision, as for every
public entry.  far_pair is also the reference that the solver's
graph.least_far_pair is tested against.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import PreconditionError
from .graph import Graph, UNREACHABLE, ball, components, dist, distance_map, is_path


def far_pair(g: Graph, averts: Sequence[int],
             threshold: int) -> Optional[tuple[int, int]]:
    """Lexicographically least pair of the given vertices at distance at
    least threshold, or None.  The vertices must lie in one component;
    raises InputError for an id outside g, and PreconditionError when one
    is unreachable from the least."""
    g.check_vertex_set(averts)
    averts = sorted(averts)
    for idx, src in enumerate(averts):
        if idx == 0:
            dm = distance_map(g, {src})
            if any(b not in dm for b in averts):
                raise PreconditionError(
                    "far_pair vertices lie in different components")
            far = [b for b in averts if b != src and dm[b] >= threshold]
            if far:
                return src, min(far)
            # all pairs sit within twice the worst distance from src
            worst = max(dm[b] for b in averts)
            if 2 * worst < threshold:
                return None
        else:
            dm = distance_map(g, {src}, cutoff=threshold - 1)
            far = [b for b in averts if b != src and b not in dm]
            if far:
                return src, min(far)
    return None


def packing_violations(g: Graph, a: frozenset[int],
                       paths: Sequence[tuple[int, ...]], k: int, d: int,
                       coarse: bool = False) -> list[str]:
    """All reasons the given paths fail to be a k-packing at distance d."""
    out: list[str] = []
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


def verify_packing(g: Graph, a: frozenset[int],
                   paths: Sequence[tuple[int, ...]], k: int, d: int,
                   coarse: bool = False) -> bool:
    return not packing_violations(g, a, paths, k, d, coarse)


def hitting_violations(g: Graph, a: frozenset[int], x: frozenset[int],
                       radius: int, size_bound: int,
                       coarse_threshold: Optional[int] = None) -> list[str]:
    """All reasons x fails to hit, within the given ball radius, every
    terminal path (every coarse one when coarse_threshold is set).

    A component of the graph minus the balls witnesses a miss when it
    holds two terminals, at distance >= coarse_threshold in coarse mode.
    """
    out: list[str] = []
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
            pair = far_pair(g, averts, coarse_threshold)
            if pair is not None:
                out.append(f"unhit coarse terminal path between "
                           f"{pair[0]} and {pair[1]}")
    return out


def verify_hitting(g: Graph, a: frozenset[int], x: frozenset[int],
                   radius: int, size_bound: int,
                   coarse_threshold: Optional[int] = None) -> bool:
    return not hitting_violations(g, a, x, radius, size_bound, coarse_threshold)


def _spend(budget: list[int]) -> None:
    budget[0] -= 1
    if budget[0] < 0:
        raise PreconditionError("brute-force work budget exhausted")


def _all_terminal_paths(g: Graph, a: frozenset[int], coarse: bool, d: int,
                        budget: list[int]) -> list[tuple[int, ...]]:
    """Every path from a terminal to a larger terminal, in depth-first
    order from each terminal, one budget unit per vertex visit.  The
    search keeps its own stack, so long paths stay within the recursion
    limit."""
    found: list[tuple[int, ...]] = []
    for start in sorted(a):
        _spend(budget)
        path = [start]
        seen = {start}
        stack = [iter(g.adj[start])]
        while stack:
            u = next(stack[-1], None)
            if u is None:
                stack.pop()
                seen.discard(path.pop())
            elif u not in seen:
                _spend(budget)
                path.append(u)
                seen.add(u)
                if u in a and u > start:
                    found.append(tuple(path))
                stack.append(iter(g.adj[u]))
    if coarse:
        found = [p for p in found
                 if dist(g, {p[0]}, {p[-1]}, cutoff=d - 1) is UNREACHABLE]
    return found


def brute_force_packing_exists(g: Graph, a: frozenset[int], k: int, d: int,
                               coarse: bool = False,
                               max_steps: int = 2_000_000) -> bool:
    """Exhaustively decide whether k terminal paths pairwise at distance
    at least d exist.  Only sensible for small graphs; raises once the
    step budget runs out, and raises InputError for an id outside g."""
    a = g.check_vertex_set(a)
    if k <= 0:
        return True
    budget = [max_steps]
    paths = _all_terminal_paths(g, a, coarse, d, budget)
    if k == 1:
        return bool(paths)
    vsets = [frozenset(p) for p in paths]
    compat: dict[tuple[int, int], bool] = {}

    def ok(i: int, j: int) -> bool:
        key = (i, j) if i < j else (j, i)
        if key not in compat:
            compat[key] = dist(g, vsets[key[0]], vsets[key[1]],
                               cutoff=d - 1) is UNREACHABLE
        return compat[key]

    def search(start: int, chosen: list[int], need: int) -> bool:
        if need == 0:
            return True
        for nxt in range(start, len(paths)):
            _spend(budget)
            if all(ok(nxt, c) for c in chosen):
                chosen.append(nxt)
                if search(nxt + 1, chosen, need - 1):
                    return True
                chosen.pop()
        return False

    return search(0, [], k)

"""Independent certificate checkers and a small brute-force cross-check.

The checks decide their own conditions, and the construction calls
nothing here; only solve(validate=True) hands its final certificate to the
verifiers.  They search the host with this module's own two plain
breadth-first kernels, _mark and _depths, and take nothing from graph.py
but the Graph type, so a bug in the solver's searches cannot hide in the
check as well.  Which ids are vertices is Graph.foreign's one decision, as
for every public entry, and no kernel here is handed an id that decision
has not passed: a negative id would index the marks from the end.
far_pair is also the reference that the solver's graph.least_far_pair is
tested against.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import PreconditionError
from .graph import Graph


def _mark(adj, marks: bytearray, seeds: Sequence[int],
          levels: int | float) -> tuple[list[int], int]:
    """Mark seeds, then every unmarked vertex up to levels steps beyond
    them through unmarked vertices.  Returns the vertices marked, seeds
    first, in search order, and how many steps from the seeds the last of
    them lies.  A marked vertex is never entered, so the marks of earlier
    calls block later ones."""
    queue = list(seeds)
    for v in queue:
        marks[v] = 1
    end, depth = 0, -1
    for i, u in enumerate(queue):
        if i == end:
            # u opens the level depth + 1 steps from the seeds
            depth += 1
            if depth >= levels:
                break
            end = len(queue)
        for v in adj[u]:
            if not marks[v]:
                marks[v] = 1
                queue.append(v)
    return queue, depth


def _depths(adj, src: Sequence[int],
            cutoff: Optional[int] = None) -> dict[int, int]:
    """Distance from src to every vertex within cutoff steps of it, or to
    every vertex it reaches when cutoff is None.  src itself is always in
    the map, at distance 0, even for a negative cutoff."""
    dmap = dict.fromkeys(src, 0)
    frontier = list(dmap)
    depth = 0
    while frontier and (cutoff is None or depth < cutoff):
        depth += 1
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dmap:
                    dmap[v] = depth
                    nxt.append(v)
        frontier = nxt
    return dmap


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
            dm = _depths(g.adj, (src,))
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
            dm = _depths(g.adj, (src,), threshold - 1)
            far = [b for b in averts if b != src and b not in dm]
            if far:
                return src, min(far)
    return None


def _is_path(g: Graph, p: tuple[int, ...]) -> bool:
    """Whether the vertices of p are distinct and each is adjacent to the
    next; p's ids are vertices."""
    return (len(set(p)) == len(p)
            and all(v in g.adj[u] for u, v in zip(p, p[1:])))


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
        if not _is_path(g, p):
            out.append(f"path {idx} is not a path in the graph")
            continue
        if p[0] not in a or p[-1] not in a:
            out.append(f"path {idx} does not join two terminals")
        if coarse and p[-1] in _depths(g.adj, (p[0],), d - 1):
            out.append(f"path {idx} has endpoints closer than {d}")
    # one map a path, read against every later path: the nearest vertex
    # of path j within d - 1 of path i gives their distance
    for i in range(len(paths) - 1):
        near = _depths(g.adj, paths[i], d - 1)
        for j in range(i + 1, len(paths)):
            dd = min((near[v] for v in paths[j] if v in near), default=None)
            if dd is not None:
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
    Only the components that hold a terminal are searched, each once,
    from its least terminal; the ids in a that are not vertices are
    ignored.  In coarse mode a component whose size or depth from that
    terminal rules out a far pair gets no far_pair test.  Witnesses are
    listed by their component's least vertex.
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
    marks = bytearray(g.n)
    _mark(g.adj, marks, list(x), radius)
    terms = set(a).difference(g.foreign(a))
    found: list[tuple[int, str]] = []
    for t in sorted(terms):
        if marks[t]:
            continue
        # n levels: more than any search runs, so the whole component
        comp, ecc = _mark(g.adj, marks, (t,), g.n)
        # a component of s vertices is at most s - 1 across, and t reaches
        # all of it within ecc steps, so it is at most 2 ecc across; both
        # bounds hold in g too, where paths may also cross the balls
        if (coarse_threshold is not None
                and min(len(comp) - 1, 2 * ecc) < coarse_threshold):
            continue
        averts = sorted(terms.intersection(comp))
        if len(averts) < 2:
            continue
        if coarse_threshold is None:
            found.append((min(comp), f"unhit terminal path between "
                                      f"{averts[0]} and {averts[1]}"))
        else:
            pair = far_pair(g, averts, coarse_threshold)
            if pair is not None:
                found.append((min(comp), f"unhit coarse terminal path "
                                          f"between {pair[0]} and {pair[1]}"))
    found.sort()
    out.extend(msg for _, msg in found)
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
    order from each terminal, one budget unit per vertex visit; in coarse
    mode only those whose ends lie at least d apart.  The search keeps its
    own stack, so long paths stay within the recursion limit."""
    found: list[tuple[int, ...]] = []
    for start in sorted(a):
        _spend(budget)
        close = _depths(g.adj, (start,), d - 1) if coarse else {}
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
                if u in a and u > start and u not in close:
                    found.append(tuple(path))
                stack.append(iter(g.adj[u]))
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
    # each path's vertices within d - 1 of it, mapped on first use
    near: dict[int, dict[int, int]] = {}

    def ok(i: int, j: int) -> bool:
        if i not in near:
            near[i] = _depths(g.adj, paths[i], d - 1)
        return near[i].keys().isdisjoint(paths[j])

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

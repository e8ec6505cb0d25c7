"""Host graph representation and metric primitives.

Vertices are the integers 0..n-1.  All distance queries are breadth-first
searches; ties anywhere in the package are broken by ascending vertex id, so
every operation here is deterministic.
"""

from __future__ import annotations

import heapq
from itertools import count
from math import inf
from typing import Iterable, Optional

from .errors import InputError, ParameterRangeError, PreconditionError

# Distance value used for "no path": compares greater than every int.
UNREACHABLE = inf

# Largest vertex count a Graph accepts, checked before the adjacency lists
# are allocated, so that a huge header fails at once and not after
# exhausting memory.
MAX_VERTICES = 10**7


class Graph:
    """Finite undirected simple graph with sorted adjacency lists."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        """The graph on 0..n-1 with the given edges.  An edge listed more
        than once, in either order, is kept once; an out-of-range edge or a
        loop raises InputError, naming the first one in the edges' order,
        and so does a bool endpoint.

        Edges in the form graph_to_text writes, u < v < n in each and the
        pairs strictly increasing, are appended as they come: each adj[v]
        receives its smaller neighbours in increasing order and then its
        larger ones, so the lists come out sorted and free of repeats.  Only
        after a pair out of that form are the lists sorted and deduplicated.
        """
        if n < 0:
            raise InputError(f"vertex count must be nonnegative, got {n}")
        if n > MAX_VERTICES:
            raise ParameterRangeError(
                f"vertex count {n} exceeds the limit {MAX_VERTICES}")
        adj: list[list[int]] = [[] for _ in range(n)]
        # each key exceeds the last, which starts at -1: with v < n this
        # makes u >= 0, and then u*n + v orders the pairs as tuples do
        last = -1
        ordered = True
        for u, v in edges:
            if u < v < n and (key := u * n + v) > last:
                last = key
            else:
                if not (0 <= u < n and 0 <= v < n):
                    raise InputError(f"edge ({u}, {v}) out of range for n={n}")
                if u == v:
                    raise InputError(f"loop at vertex {u} not allowed")
                ordered = False
            adj[u].append(v)
            adj[v].append(u)
        if not ordered:
            adj = [sorted(set(lst)) for lst in adj]
        # True and False pass the checks above as 1 and 0, so a bool can
        # only sit in the list of a neighbour of 0 or 1; scanning those
        # spares the gen-form loop a type test per pair
        for w in (adj[0] + adj[1] if n > 1 else ()):
            for x in adj[w]:
                if type(x) is not int:
                    raise InputError(f"edge endpoint {x!r} is not an int")
        self.n = n
        self.adj = adj

    @property
    def edge_count(self) -> int:
        return sum(len(lst) for lst in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted."""
        out = []
        for u, lst in enumerate(self.adj):
            for v in lst:
                if u < v:
                    out.append((u, v))
        return out

    def vertices(self) -> range:
        return range(self.n)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def check_vertex(self, v: int) -> None:
        if not (type(v) is int and 0 <= v < self.n):
            raise InputError(f"vertex {v!r} out of range for n={self.n}")

    def check_vertex_set(self, vs: Iterable[int]) -> frozenset[int]:
        out = frozenset(vs)
        if out and not (set(map(type, out)) == {int}
                        and min(out) >= 0 and max(out) < self.n):
            # only to raise: name the first bad vertex in the set's order
            for v in out:
                self.check_vertex(v)
        return out


def dist(g: Graph, s: Iterable[int], t: Iterable[int], *,
         cutoff: Optional[int] = None) -> int | float:
    """Shortest-path distance between vertex sets s and t.

    Returns UNREACHABLE when no path exists, when either set is empty, or
    when the distance exceeds `cutoff`.  A set or frozenset t is searched
    for as it is, not copied, so a caller can pass a large target it
    already holds.

    Args:
        g: host graph.
        s, t: vertex sets (any iterables of ids).
        cutoff: if given, give up beyond this many steps.

    Returns:
        An int distance, or UNREACHABLE.
    """
    ss = set(s)
    tt = t if isinstance(t, (set, frozenset)) else set(t)
    if not ss or not tt:
        return UNREACHABLE
    if not ss.isdisjoint(tt):
        return 0
    if len(tt) < len(ss):
        ss, tt = set(tt), ss
    # the depth found does not depend on the order a level is searched in
    adj = g.adj
    seen = ss
    frontier = list(ss)
    depth = 0
    while frontier:
        depth += 1
        if cutoff is not None and depth > cutoff:
            return UNREACHABLE
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v in seen:
                    continue
                if v in tt:
                    return depth
                seen.add(v)
                nxt.append(v)
        frontier = nxt
    return UNREACHABLE


def ball(g: Graph, x: Iterable[int], r: int | float) -> frozenset[int]:
    """All vertices at distance at most r from the set x.

    A negative radius gives the empty set; radius 0 gives x itself.
    """
    seen = set(x)
    if r < 0 or not seen:
        return frozenset()
    # not frozenset(_levels(...)), which fills a distance map and copies
    # it: measured slower on spider_ladder and matrix (see ROADMAP)
    adj = g.adj
    frontier = list(seen)
    depth = 0
    while frontier and depth < r:
        depth += 1
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return frozenset(seen)


def st_path(g: Graph, s: Iterable[int], t: Iterable[int], *,
            cutoff: Optional[int] = None,
            within: Optional[frozenset[int]] = None) -> Optional[tuple[int, ...]]:
    """A shortest s-t path: first vertex in s, last in t, no internal vertex
    in s or t.

    Deterministic: sources are seeded in ascending id and neighbors explored
    in ascending id.  When s and t intersect the path is the single lowest
    common vertex.  Returns None when no such path exists, or none of length
    at most `cutoff`.  `within` restricts the whole search, endpoints
    included, to the induced subgraph on that vertex set; without it, a set
    or frozenset t is searched for as it is, not copied.
    """
    ss = set(s)
    tt = t if isinstance(t, (set, frozenset)) else set(t)
    if within is not None:
        ss &= within
        tt = tt & within
    if not ss or not tt:
        return None
    if not ss.isdisjoint(tt):
        return (min(ss & tt),)
    adj = g.adj
    parent = dict.fromkeys(ss)
    # one level at a time, in the order a FIFO queue would visit them
    frontier = sorted(ss)
    for _ in count() if cutoff is None else range(cutoff):
        nxt = []
        for u in frontier:
            # a vertex outside within is seen, but is no target nor searched
            if within is not None and u not in within:
                continue
            for v in adj[u]:
                if v in parent:
                    continue
                parent[v] = u
                if v in tt:
                    path = [v]
                    while path[-1] not in ss:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return tuple(path)
                nxt.append(v)
        if not nxt:
            break
        frontier = nxt
    return None


def distance_map(g: Graph, src: Iterable[int], *,
                 cutoff: Optional[int | float] = None) -> dict[int, int]:
    """BFS distance from a vertex set to every vertex within cutoff."""
    return _levels(g.adj, src, cutoff)


def _levels(adj, src: Iterable[int], cutoff: Optional[int | float]) -> dict[int, int]:
    """distance_map over adj[u] lists: the host's, or an induced subgraph's."""
    dmap = {v: 0 for v in src}
    frontier = sorted(dmap)
    depth = 0
    while frontier:
        depth += 1
        if cutoff is not None and depth > cutoff:
            break
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dmap:
                    dmap[v] = depth
                    nxt.append(v)
        frontier = nxt
    return dmap


# Full searches run by _sweeps beyond the one it is given.
_SWEEPS = 4


def _sweeps(g: Graph, first: dict[int, int]) -> list[dict[int, int]]:
    """Distance maps from the vertex farthest from first's source, the one
    farthest from both, the one farthest from that, and finally from the
    vertex whose largest distance to all four sources is least: a central
    vertex, whose eccentricity is about half the diameter.  Ties go to the
    lowest id."""
    maps = [first]
    for pick in (lambda v: maps[0][v],
                 lambda v: min(maps[0][v], maps[1][v]),
                 lambda v: maps[2][v]):
        maps.append(distance_map(g, {max(first, key=lambda v: (pick(v), -v))}))
    center = min(first, key=lambda v: (max(m[v] for m in maps), v))
    maps.append(distance_map(g, {center}))
    return maps[1:]


def least_far_pair(g: Graph, averts: Iterable[int],
                   threshold: int) -> Optional[tuple[int, int]]:
    """Lexicographically least pair of the given vertices at distance at
    least threshold, or None.

    Same answer as the verifiers' plain oracle.far_pair, with fewer
    searches.  When the search from the least vertex cannot decide, a few
    full sweeps bound every vertex's eccentricity within the set:
    ecc(v) <= d(s, v) + ecc(s) for every swept source s (Takes and Kosters,
    CIKM 2011).  Only vertices whose bound reaches threshold get a search
    of their own.  Raises PreconditionError when some vertex is unreachable
    from the least one.
    """
    averts = sorted(set(averts))
    if not averts:
        return None
    dm = distance_map(g, {averts[0]})
    if any(b not in dm for b in averts):
        raise PreconditionError("far-pair vertices lie in different components")
    rest = averts[1:]
    far = next((b for b in rest if dm[b] >= threshold), None)
    if far is not None:
        return averts[0], far
    # all pairs sit within twice the worst distance from the least vertex
    worst = max(dm[b] for b in averts)
    if 2 * worst < threshold:
        return None
    bound = [dm[v] + worst for v in rest]
    # with at most four vertices left the sweeps cannot save what they cost
    if len(rest) > _SWEEPS:
        for sweep in _sweeps(g, dm):
            ecc = max(sweep[b] for b in averts)
            bound = [min(ub, sweep[v] + ecc) for ub, v in zip(bound, rest)]
    for v, ub in zip(rest, bound):
        if ub < threshold:
            continue
        near = distance_map(g, {v}, cutoff=threshold - 1)
        far = next((b for b in averts if b not in near), None)
        if far is not None:
            return v, far
    return None


def is_path(g: Graph, seq: tuple[int, ...]) -> bool:
    """True iff seq is a path in g: distinct vertices, consecutive adjacent."""
    if len(seq) == 0 or min(seq) < 0 or max(seq) >= g.n:
        return False
    if len(set(seq)) != len(seq):
        return False
    for u, v in zip(seq, seq[1:]):
        if not g.has_edge(u, v):
            return False
    return True


def components(g: Graph, sub: Iterable[int]) -> list[frozenset[int]]:
    """Connected components of the induced subgraph g[sub].

    Returned in ascending order of least vertex id.
    """
    remaining = set(sub)
    adj = g.adj
    out: list[frozenset[int]] = []
    for start in sorted(remaining):
        if start not in remaining:
            continue
        comp = {start}
        remaining.discard(start)
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v in remaining:
                        remaining.discard(v)
                        comp.add(v)
                        nxt.append(v)
            frontier = nxt
        out.append(frozenset(comp))
    return out


def _take_component(adj, v: int, rest: set[int]) -> list[int]:
    """Remove from rest every vertex that v reaches through rest, and return
    them, v first; v itself need not be in rest.  adj maps a vertex to its
    neighbours: the host's adj lists, or a pattern's."""
    rest.discard(v)
    out = [v]
    for u in out:
        for w in adj[u]:
            if w in rest:
                rest.remove(w)
                out.append(w)
    return out


def _connected(g: Graph, sub: Iterable[int]) -> bool:
    """len(components(g, sub)) == 1 in one search: True iff g[sub] is
    nonempty and connected."""
    rest = set(sub)
    if not rest:
        return False
    _take_component(g.adj, rest.pop(), rest)
    return not rest


def _component_avoiding(g: Graph, v: int, blocked: frozenset[int]) -> set[int]:
    """Vertex set of v's component in g minus blocked; v is not blocked."""
    # not _take_component: its rest set, set(range(n)) - blocked, costs
    # O(n) a round, where this search sees only v's component and its
    # border (measured slower on every workload, see ROADMAP)
    adj = g.adj
    seen = {v}
    stack = [v]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen and w not in blocked:
                seen.add(w)
                stack.append(w)
    return seen


def _nonempty_vertex_set(g: Graph, sub: Iterable[int], what: str) -> frozenset[int]:
    subset = frozenset(sub)
    if not subset:
        raise PreconditionError(f"{what} of empty set")
    return g.check_vertex_set(subset)


def _least_eccentricity(g: Graph, sub: Iterable[int], what: str,
                        r: int | float = UNREACHABLE) -> tuple[int, int | float]:
    """A vertex of least eccentricity in the induced subgraph g[sub] and
    that eccentricity, ties broken by lowest id.

    Exact scan with eccentricity lower bounds for pruning: a search from v
    shows ecc(u) >= max(d(v, u), ecc(v) - d(v, u)).  With a finite r only
    eccentricities at most r are sought: the scan skips every vertex whose
    bound exceeds r and returns at the first vertex found within r, so the
    eccentricity returned exceeds r when there is none.  Raises on an empty,
    out-of-range or disconnected sub, naming the caller's `what`.
    """
    subset = _nonempty_vertex_set(g, sub, what)
    if len(subset) == 1:
        (v,) = subset
        return v, 0
    adj = {u: [v for v in g.adj[u] if v in subset] for u in subset}
    n = len(subset)
    lb = dict.fromkeys(subset, 0)
    heap: list[tuple[int, int]] = [(0, v) for v in sorted(subset)]
    best_ecc: int | float = UNREACHABLE
    best_v = -1
    while heap:
        bound, v = heapq.heappop(heap)
        if bound != lb[v] or bound > min(best_ecc, r) or (bound == best_ecc and v > best_v):
            continue
        dv = _levels(adj, (v,), None)
        if len(dv) != n:
            raise PreconditionError(f"{what} of disconnected set")
        ecc = max(dv.values())
        if ecc < best_ecc or (ecc == best_ecc and v < best_v):
            best_ecc, best_v = ecc, v
        if ecc <= r < UNREACHABLE:
            break
        limit = min(best_ecc, r)
        for u in subset:
            new = max(dv[u], ecc - dv[u])
            if new > lb[u]:
                lb[u] = new
                if new <= limit:
                    heapq.heappush(heap, (new, u))
    return best_v, best_ecc


def radius_center(g: Graph, sub: Iterable[int]) -> tuple[int, int]:
    """Center and radius of the induced subgraph g[sub].

    The center is the vertex of minimum eccentricity within g[sub], ties
    broken by lowest id.  A singleton has radius 0.  Raises on an empty or
    disconnected sub.
    """
    center, radius = _least_eccentricity(g, sub, "radius_center")
    return center, int(radius)


def has_radius_at_most(g: Graph, sub: Iterable[int], r: int) -> bool:
    """Decide radius(g[sub]) <= r without always computing an exact center:
    the scan stops at the first vertex seen to have eccentricity at most r,
    and a connected set of s vertices needs no scan when r >= s - 1, since
    its radius is at most s - 1.  Raises on an empty or out-of-range sub,
    and on a disconnected one when r >= 0; a negative r is False without a
    search.
    """
    subset = frozenset(sub)
    if r < len(subset) - 1:
        return _least_eccentricity(g, subset, "radius check", r)[1] <= r
    if not _connected(g, _nonempty_vertex_set(g, subset, "radius check")):
        raise PreconditionError("radius check of disconnected set")
    return True

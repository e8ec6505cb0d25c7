"""Host graph representation and metric primitives.

Vertices are the integers 0..n-1.  All distance queries are breadth-first
searches; ties anywhere in the package are broken by ascending vertex id, so
every operation here is deterministic.
"""

from __future__ import annotations

import heapq
from itertools import count
from math import inf
from typing import AbstractSet, Iterable, Iterator, Optional

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
        and so does a bool or other non-int endpoint, an edge that is not a
        pair and a vertex count that is not an int.

        Edges in the form graph_to_text writes, u < v < n in each and the
        pairs strictly increasing, are appended as they come: each adj[v]
        receives its smaller neighbours in increasing order and then its
        larger ones, so the lists come out sorted and free of repeats.  Only
        after a pair out of that form are the lists sorted and deduplicated.
        """
        if type(n) is not int:
            raise InputError(f"vertex count must be an int, got {n!r}")
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
        # a non-int id other than a bool fails a comparison or an index, and
        # a non-pair fails to unpack: one try spares the loop a type test
        try:
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
        except (TypeError, ValueError) as exc:
            raise InputError("an edge is not a pair, or an endpoint is not an int: "
                             f"{exc}") from None
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

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def foreign(self, ids: Iterable) -> list:
        """The members of ids that are not vertices, in the order ids yields
        them.  A vertex is an int in 0..n-1, so a bool is foreign too, and
        ids need not be hashable.  Every public entry that takes ids screens
        them here; the search kernels trust theirs."""
        n = self.n
        return [v for v in ids if type(v) is not int or not 0 <= v < n]

    @staticmethod
    def id_order(v) -> tuple:
        """Sort key for ids of any type: ints by value, then every other id
        by its repr, so that foreign ids of mixed types sort."""
        return (False, v) if type(v) is int else (True, repr(v))

    def check_vertex(self, v: int) -> None:
        if self.foreign((v,)):
            raise InputError(f"vertex {v!r} out of range for n={self.n}")

    def check_vertex_set(self, vs: Iterable[int]) -> frozenset[int]:
        """vs as a frozenset; InputError names its first foreign id."""
        # any other iterable is listed, so that it can be screened and kept
        ids = vs if isinstance(vs, (frozenset, set, list, tuple)) else list(vs)
        bad = self.foreign(ids)
        if bad:
            raise InputError(f"vertex {bad[0]!r} out of range for n={self.n}")
        return frozenset(ids)


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
    # not frozenset(_levels(...)), which fills a distance map and copies
    # it: measured slower on spider_ladder and matrix (see ROADMAP)
    return frozenset(_reach(g, x, r)[0])


def _reach(g: Graph, x: Iterable[int], r: int | float) -> tuple[set[int], bool]:
    """ball(g, x, r) as a set, and whether its search ended before r
    levels.  When it did, no vertex of the set has a neighbour outside it,
    so the set is a union of whole components of g; an empty ball counts
    as ended, and a search with r >= n always ends."""
    seen = set(x)
    if r < 0 or not seen:
        return set(), True
    return seen, not _grow(g.adj, seen, list(seen), r)


def _two_balls(g: Graph, x: Iterable[int], r: int,
               s: int) -> tuple[frozenset[int], frozenset[int]]:
    """ball(g, x, r) and ball(g, x, s) by one search, which grows the
    larger ball on from the last level of the smaller.  The junction
    construction's output check reads q's ell- and (2*ell - 1)-balls."""
    lo, hi = sorted((r, s))
    seen = set(x) if hi >= 0 else set()
    last = _grow(g.adj, seen, list(seen), lo)
    small = frozenset(seen) if lo >= 0 else frozenset()
    _grow(g.adj, seen, last, hi - max(lo, 0))
    big = frozenset(seen)
    return (small, big) if r <= s else (big, small)


def _grow(adj, seen: set[int], frontier: list[int], r: int | float) -> list[int]:
    """Add to seen every vertex up to r levels beyond frontier, a search's
    last level whose earlier levels seen holds, and return the last level
    grown: those exactly r levels beyond, empty when the search ends
    sooner.  A vertex in seen is never entered, so a caller blocks a set
    by putting it in seen.  _reach grows x's ball with it, and the junction
    construction its sphere chains (see tripod._rounds)."""
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
    return frontier


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
    # every source is a root, with parent None
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
                    return _tree_path(parent, v)
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


def _tree_levels(tree: dict[int, Optional[int]],
                 cutoff: Optional[int | float]) -> dict[int, int]:
    """_levels(g.adj, (root,), cutoff) read off a _search_tree of the root's
    whole component in g, with no search: the same keys, values and key
    order, and always the root.  Its cost is the map it returns."""
    items = iter(tree.items())
    root, _ = next(items)
    dmap = {root: 0}
    limit = UNREACHABLE if cutoff is None else cutoff
    # the tree lists its vertices in the order the search reached them,
    # level by level, so the first one beyond the cut ends the map
    for v, u in items:
        depth = dmap[u] + 1
        if depth > limit:
            break
        dmap[v] = depth
    return dmap


def _farthest(dmap: dict[int, int]) -> int:
    """max(dmap, key=lambda v: (dmap[v], -v)) for a level-ordered map, one
    from _levels or _tree_levels: the least id in its last level, read
    backward from the end."""
    items = reversed(dmap.items())
    best, last = next(items)
    for v, depth in items:
        if depth != last:
            break
        if v < best:
            best = v
    return best


# Most full searches _sweeps runs beyond the one it is given.
_SWEEPS = 4


def _sweeps(g: Graph, first: dict[int, int]) -> Iterator[dict[int, int]]:
    """Yield distance maps from the vertex farthest from first's source, the
    one farthest from both, the one farthest from that, and finally from the
    vertex whose largest distance to all four sources is least: a central
    vertex, whose eccentricity is about half the diameter.  Ties go to the
    lowest id.  first is a level-ordered map, so the first and third sources
    are the least ids in the last level of first and of the second map; the
    second source and the center are found by a scan of every vertex.  Each
    source is picked, and its search run, only when the caller asks for the
    next map."""
    maps = [first]
    for i in range(3):
        src = (max(first, key=lambda v: (min(first[v], maps[1][v]), -v))
               if i == 1 else _farthest(maps[i]))
        maps.append(distance_map(g, {src}))
        yield maps[-1]
    center = min(first, key=lambda v: (max(m[v] for m in maps), v))
    yield distance_map(g, {center})


def least_far_pair(g: Graph, averts: Iterable[int],
                   threshold: int) -> Optional[tuple[int, int]]:
    """Lexicographically least pair of the given vertices at distance at
    least threshold, or None.

    Same answer as the verifiers' plain oracle.far_pair, with fewer
    searches.  When the search from the least vertex cannot decide, up to
    four full sweeps bound every vertex's eccentricity within the set:
    ecc(v) <= d(s, v) + ecc(s) for every swept source s (Takes and Kosters,
    CIKM 2011).  The sweeps stop as soon as no bound reaches threshold, and
    only vertices whose bound still reaches it get a search of their own.
    The search that checks every vertex lies in the least one's component
    is also the one the first distance map is read from.  Raises InputError
    for an id outside g, and PreconditionError when some vertex is
    unreachable from the least one.
    """
    averts = sorted(g.check_vertex_set(averts))
    if not averts:
        return None
    tree = _search_tree(g, averts[0], frozenset())
    if any(b not in tree for b in averts):
        raise PreconditionError("far-pair vertices lie in different components")
    return _least_far_pair(g, averts, threshold, tree)


def _least_far_pair(g: Graph, averts: list[int], threshold: int,
                    tree: Optional[dict[int, Optional[int]]] = None
                    ) -> Optional[tuple[int, int]]:
    """least_far_pair of sorted distinct ids that lie in one component of
    g, without its id screen and component check.

    tree is the _search_tree of averts[0]'s whole component in g, when the
    caller holds one: the distance maps from averts[0] are then read off it
    by _tree_levels, with no search, and otherwise searched by _levels.  The
    first map stops at threshold - 1: a vertex beyond the cut is at least
    threshold away, since it is reachable.  The sweeps need the whole map,
    which the cut map is when its deepest level lies below the cutoff; only
    otherwise is the whole map taken as well.
    """
    a = averts[0]

    def levels(cutoff):
        if tree is None:
            return _levels(g.adj, (a,), cutoff)
        return _tree_levels(tree, cutoff)

    dm = levels(threshold - 1)
    rest = averts[1:]
    far = next((b for b in rest if dm.get(b, threshold) >= threshold), None)
    if far is not None:
        return a, far
    # all pairs sit within twice the worst distance from the least vertex
    worst = max(dm[b] for b in averts)
    if 2 * worst < threshold:
        return None
    bound = [dm[v] + worst for v in rest]
    # with at most four vertices left the sweeps cannot save what they cost
    if len(rest) > _SWEEPS:
        # a level-ordered map's deepest level is its last
        if next(reversed(dm.values())) >= threshold - 1:
            dm = levels(None)
        for sweep in _sweeps(g, dm):
            ecc = max(sweep[b] for b in averts)
            bound = [min(ub, sweep[v] + ecc) for ub, v in zip(bound, rest)]
            # later sweeps only lower bounds that already skip every search
            if max(bound) < threshold:
                break
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
    if not seq or g.foreign(seq) or len(set(seq)) != len(seq):
        return False
    for u, v in zip(seq, seq[1:]):
        if not g.has_edge(u, v):
            return False
    return True


def components(g: Graph, sub: Iterable[int]) -> list[frozenset[int]]:
    """Connected components of the induced subgraph g[sub].

    Returned in ascending order of least vertex id.
    """
    return _components(g.adj, sub)


def _components(adj, sub: Iterable[int]) -> list[frozenset[int]]:
    """Components of the subgraph that adj induces on sub, ordered by least
    vertex id.  adj maps a vertex to its neighbours, as in _take_component."""
    rest = set(sub)
    return [frozenset(_take_component(adj, v, rest))
            for v in sorted(rest) if v in rest]


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


def _search_tree(g: Graph, v: int,
                 blocked: AbstractSet[int]) -> dict[int, Optional[int]]:
    """Parent of each vertex of v's component in g minus blocked, in the
    order a FIFO search from v discovers them, neighbours in ascending id;
    v is not blocked and is its own root, with parent None.  These are the
    parents st_path(g, {v}, t, within=component) assigns, so _tree_path
    reads off the path it returns."""
    # not _take_component: its rest set, set(range(n)) - blocked, costs
    # O(n) a round, where this search sees only v's component and its
    # border (measured slower on every workload, see ROADMAP)
    adj = g.adj
    parent: dict[int, Optional[int]] = {v: None}
    queue = [v]
    for u in queue:
        for w in adj[u]:
            if w not in parent and w not in blocked:
                parent[w] = u
                queue.append(w)
    return parent


def _tree_path(parent: dict[int, Optional[int]], b: int) -> tuple[int, ...]:
    """The path to b from its root in a parent map, where a root has parent
    None: a _search_tree, or st_path's map."""
    path = [b]
    while (u := parent[path[-1]]) is not None:
        path.append(u)
    path.reverse()
    return tuple(path)


def _nonempty_vertex_set(g: Graph, sub: Iterable[int], what: str) -> frozenset[int]:
    subset = g.check_vertex_set(sub)
    if not subset:
        raise PreconditionError(f"{what} of empty set")
    return subset


def _least_eccentricity(g: Graph, subset: frozenset[int], what: str,
                        r: int | float = UNREACHABLE) -> tuple[int, int | float]:
    """A vertex of least eccentricity in the induced subgraph g[subset],
    which _nonempty_vertex_set has screened, and that eccentricity, ties
    broken by lowest id.

    Exact scan with eccentricity lower bounds for pruning: a search from v
    shows ecc(u) >= max(d(v, u), ecc(v) - d(v, u)).  With a finite r only
    eccentricities at most r are sought: the scan skips every vertex whose
    bound exceeds r and returns at the first vertex found within r, so the
    eccentricity returned exceeds r when there is none.  Raises on a
    disconnected subset, naming the caller's `what`.
    """
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
    center, radius = _least_eccentricity(
        g, _nonempty_vertex_set(g, sub, "radius_center"), "radius_center")
    return center, int(radius)


def has_radius_at_most(g: Graph, sub: Iterable[int], r: int) -> bool:
    """Decide radius(g[sub]) <= r without always computing an exact center:
    the scan stops at the first vertex seen to have eccentricity at most r,
    and a connected set of s vertices needs no scan when r >= s - 1, since
    its radius is at most s - 1.  Raises on an empty or out-of-range sub,
    and on a disconnected one when r >= 0; a negative r is False without a
    search.
    """
    subset = _nonempty_vertex_set(g, sub, "radius check")
    if r < len(subset) - 1:
        return _least_eccentricity(g, subset, "radius check", r)[1] <= r
    if not _connected(g, subset):
        raise PreconditionError("radius check of disconnected set")
    return True

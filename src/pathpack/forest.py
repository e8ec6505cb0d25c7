"""Degree bookkeeping and path extraction in subcubic forests.

The extraction routine finds many vertex-disjoint paths whose endpoints lie
in a marked set z of vertices of degree at most 2.  It works one tree at a
time, repeatedly discarding unmarked leaves, suppressing unmarked degree-2
vertices behind virtual edges, peeling off marked leaf pairs, and splitting
at the deepest branching vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError, require
from .graph import _levels
from .model import PatternGraph


@dataclass(frozen=True)
class DegreeClasses:
    """Vertices split by degree; m counts components with >= 2 vertices,
    m_total counts all components."""
    v0: frozenset[int]
    v1: frozenset[int]
    v2: frozenset[int]
    v3: frozenset[int]
    m: int
    m_total: int


def _check_forest(f: PatternGraph) -> list[frozenset[int]]:
    comps = f.components()
    n_edges = f.n_edges
    if n_edges != f.n_vertices - len(comps):
        raise PreconditionError("pattern contains a cycle, forest required")
    return comps


def degree_classes(f: PatternGraph) -> DegreeClasses:
    """Partition the vertices of a subcubic forest by degree."""
    comps = _check_forest(f)
    buckets: list[set[int]] = [set(), set(), set(), set()]
    for v in f.vertex_ids():
        buckets[f.degree(v)].add(v)
    big = sum(1 for c in comps if len(c) >= 2)
    return DegreeClasses(v0=frozenset(buckets[0]), v1=frozenset(buckets[1]),
                         v2=frozenset(buckets[2]), v3=frozenset(buckets[3]),
                         m=big, m_total=len(comps))


def check_branch_bound(f: PatternGraph) -> bool:
    """Leaves outnumber branching vertices: |V3| <= |V1| - 2m."""
    return _leaf_bound(degree_classes(f))


def _leaf_bound(dc: DegreeClasses) -> bool:
    """check_branch_bound of a forest whose degree classes are dc."""
    return len(dc.v3) <= len(dc.v1) - 2 * dc.m


class _Tree:
    """Mutable working copy of one tree with virtual-edge chains.

    chains maps an unordered current edge to the suppressed original
    vertices between its endpoints, stored together with the endpoint the
    chain starts from.
    """

    def __init__(self, f: PatternGraph, vertices: frozenset[int]):
        self.adj: dict[int, set[int]] = {
            v: set(u for u in f.neighbors(v) if u in vertices) for v in vertices}
        self.chains: dict[frozenset[int], tuple[int, list[int]]] = {}

    def expand(self, u: int, v: int) -> list[int]:
        """Original-vertex walk realizing the current edge uv."""
        key = frozenset((u, v))
        if key not in self.chains:
            return [u, v]
        start, interior = self.chains[key]
        if start == u:
            return [u, *interior, v]
        return [u, *reversed(interior), v]

    def drop_vertex(self, v: int) -> None:
        for u in self.adj.pop(v):
            self.adj[u].discard(v)
            self.chains.pop(frozenset((u, v)), None)

    def suppress(self, v: int) -> None:
        """Remove a degree-2 vertex, merging its two edges into one."""
        u, w = sorted(self.adj[v])
        walk = self.expand(u, v)[:-1] + self.expand(v, w)
        require(w not in self.adj[u],
                f"suppressing {v} would create a parallel edge, cycle present")
        self.drop_vertex(v)
        self.adj[u].add(w)
        self.adj[w].add(u)
        self.chains[frozenset((u, w))] = (u, walk[1:-1])


def _tree_paths(tree: _Tree, z: set[int]) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    while True:
        verts = tree.adj
        if len(verts) <= 1:
            break
        degs = {v: len(ns) for v, ns in verts.items()}

        unmarked_leaf = min((v for v, dg in degs.items()
                             if dg <= 1 and v not in z), default=None)
        if unmarked_leaf is not None:
            tree.drop_vertex(unmarked_leaf)
            continue

        unmarked_mid = min((v for v, dg in degs.items()
                            if dg == 2 and v not in z), default=None)
        if unmarked_mid is not None:
            tree.suppress(unmarked_mid)
            continue

        # every degree <= 2 vertex is marked now
        pair = None
        for u in sorted(verts):
            if degs[u] != 1:
                continue
            (v,) = verts[u]
            if degs[v] <= 2:
                pair = (u, v)
                break
        if pair is not None:
            u, v = pair
            require(u in z and v in z, "leaf pair escaped the marking")
            out.append(tuple(tree.expand(u, v)))
            tree.drop_vertex(u)
            tree.drop_vertex(v)
            continue

        # all leaves hang on branching vertices; split at the deepest one
        root = min(verts)
        depth = _levels(verts, (root,), None)
        branch = [v for v, dg in degs.items() if dg == 3]
        require(bool(branch), "no branching vertex in unfinished tree")
        u = min(branch, key=lambda v: (-depth[v], v))
        leaf_nbrs = sorted(v for v in verts[u] if degs[v] == 1)
        require(len(leaf_nbrs) >= 2,
                f"deepest branching vertex {u} lacks two pendant leaves")
        v, w = leaf_nbrs[0], leaf_nbrs[1]
        require(v in z and w in z, "pendant leaves escaped the marking")
        walk = list(reversed(tree.expand(u, v)))[:-1] + tree.expand(u, w)
        out.append(tuple(walk))
        tree.drop_vertex(v)
        tree.drop_vertex(w)
        tree.drop_vertex(u)
    return out


def extract_z_paths(f: PatternGraph, z: frozenset[int]) -> list[tuple[int, ...]]:
    """Vertex-disjoint paths in f with both endpoints in z.

    Requires a subcubic forest and z free of degree-3 vertices.  Returns at
    least floor(|z in T| / 2) paths per tree T, hence at least
    ceil((|z| - m_total) / 2) in total.
    """
    comps = _check_forest(f)
    for v in z:
        if not f.has_vertex(v):
            raise PreconditionError(f"marked vertex {v} is not in the forest")
        if f.degree(v) >= 3:
            raise PreconditionError(
                f"marked vertex {v} has degree 3, only degree <= 2 allowed")
    paths: list[tuple[int, ...]] = []
    for comp in comps:
        marked = set(z & comp)
        got = _tree_paths(_Tree(f, comp), marked)
        require(len(got) >= len(marked) // 2,
                f"extracted {len(got)} paths from a tree with {len(marked)} "
                "marked vertices")
        paths.extend(got)
    return paths

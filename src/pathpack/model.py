"""Pattern graphs and fat models.

A fat model maps every vertex x of a small pattern graph to a connected
branch set M_x in the host and every pattern edge uv to a connected branch
part M_uv linking M_u with M_v.  Branch parts start out as plain vertex sets
and are turned into explicit paths by fat_to_clean; a tuple-valued part is an
ordered path, a frozenset-valued part is an unordered connected set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import floor, inf
from typing import Iterable, Optional, Union

from .errors import InputError, PreconditionError, require
from .graph import (Graph, UNREACHABLE, _components, _connected, ball, dist,
                    distance_map, is_path, st_path)

# A branch part: ordered path (tuple) or unordered connected set (frozenset).
Part = Union[tuple, frozenset]


def part_vertices(part: Part) -> frozenset[int]:
    """Vertex set of a branch part regardless of representation."""
    if isinstance(part, tuple):
        return frozenset(part)
    return part


class PatternGraph:
    """Mutable simple graph with stable vertex and edge ids.

    Mutations never reuse or renumber ids, so model dictionaries keyed by id
    stay valid across subdivisions.  Maximum degree 3 is enforced.
    """

    MAX_DEGREE = 3

    def __init__(self) -> None:
        self._adj: dict[int, dict[int, int]] = {}  # vertex -> {neighbor: edge id}
        self._edges: dict[int, tuple[int, int]] = {}
        self._next_vertex = 0
        self._next_edge = 0

    @classmethod
    def from_parts(cls, vertices: Iterable[int],
                   edges: dict[int, tuple[int, int]]) -> "PatternGraph":
        """Build a pattern with explicit vertex and edge ids."""
        out = cls()
        # type(v) is int, not isinstance, refuses a bool id, as
        # Graph.check_vertex does
        for v in sorted(set(vertices)):
            if not (type(v) is int and v >= 0):
                raise InputError(f"vertex ids must be nonnegative ints, got {v!r}")
            out._adj[v] = {}
        out._next_vertex = max(out._adj, default=-1) + 1
        for eid in sorted(edges):
            if not (type(eid) is int and eid >= 0):
                raise InputError(f"edge ids must be nonnegative ints, got {eid!r}")
            out._next_edge = eid
            out.add_edge(*edges[eid])
        return out

    # -- queries ---------------------------------------------------------

    def vertex_ids(self) -> list[int]:
        return sorted(self._adj)

    def edge_ids(self) -> list[int]:
        return sorted(self._edges)

    @property
    def n_vertices(self) -> int:
        return len(self._adj)

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def neighbors(self, v: int) -> list[int]:
        return sorted(self._adj[v])

    def incident_edges(self, v: int) -> list[int]:
        return sorted(self._adj[v].values())

    def endpoints(self, eid: int) -> tuple[int, int]:
        return self._edges[eid]

    def edge_between(self, u: int, v: int) -> Optional[int]:
        return self._adj[u].get(v)

    def is_incident(self, v: int, eid: int) -> bool:
        return v in self._edges[eid]

    def components(self) -> list[frozenset[int]]:
        """Connected components, ordered by least vertex id."""
        return _components(self._adj, self._adj)

    # -- mutations -------------------------------------------------------

    def add_vertex(self) -> int:
        v = self._next_vertex
        self._next_vertex += 1
        self._adj[v] = {}
        return v

    def add_edge(self, u: int, v: int) -> int:
        if not (type(u) is int and type(v) is int
                and u in self._adj and v in self._adj):
            raise InputError(f"edge endpoints {u!r},{v!r} must be existing int ids")
        if u == v:
            raise InputError("loops not allowed in pattern graphs")
        if v in self._adj[u]:
            raise InputError(f"parallel edge {u},{v} not allowed")
        if len(self._adj[u]) >= self.MAX_DEGREE or len(self._adj[v]) >= self.MAX_DEGREE:
            raise PreconditionError(f"adding edge {u},{v} would exceed degree 3")
        eid = self._next_edge
        self._next_edge += 1
        self._edges[eid] = (u, v)
        self._adj[u][v] = eid
        self._adj[v][u] = eid
        return eid

    def add_leaf(self, at: int) -> tuple[int, int]:
        """New vertex pendant at `at`; returns (vertex, edge)."""
        if at not in self._adj:
            raise InputError(f"no vertex {at}")
        v = self.add_vertex()
        e = self.add_edge(at, v)
        return v, e

    def add_k2(self) -> tuple[int, int, int]:
        """Two new vertices joined by an edge; returns (u, v, edge)."""
        u = self.add_vertex()
        v = self.add_vertex()
        e = self.add_edge(u, v)
        return u, v, e

    def subdivide(self, eid: int) -> tuple[int, int, int]:
        """Replace edge uv by a new mid vertex w and edges uw, wv.

        Returns (w, edge to u, edge to v) where (u, v) are the stored
        endpoints of the old edge.  All other ids are untouched.
        """
        if eid not in self._edges:
            raise InputError(f"no edge {eid}")
        u, v = self._edges.pop(eid)
        del self._adj[u][v]
        del self._adj[v][u]
        w = self.add_vertex()
        e_u = self.add_edge(u, w)
        e_v = self.add_edge(w, v)
        return w, e_u, e_v

    def copy(self) -> "PatternGraph":
        out = PatternGraph()
        out._adj = {v: dict(nbrs) for v, nbrs in self._adj.items()}
        out._edges = dict(self._edges)
        out._next_vertex = self._next_vertex
        out._next_edge = self._next_edge
        return out


@dataclass
class FatModel:
    """A model of `pattern` inside a host graph.

    branch_sets is keyed by pattern vertex id, branch_parts by pattern edge
    id.  Values are Parts (tuple path or frozenset).
    """

    pattern: PatternGraph
    branch_sets: dict[int, Part] = field(default_factory=dict)
    branch_parts: dict[int, Part] = field(default_factory=dict)

    def all_elements(self) -> list[tuple[str, int, frozenset[int]]]:
        """Every model element as (kind, id, vertex set), deterministic order."""
        out = [("v", x, part_vertices(self.branch_sets[x]))
               for x in self.pattern.vertex_ids()]
        out += [("e", e, part_vertices(self.branch_parts[e]))
                for e in self.pattern.edge_ids()]
        return out

    def vertex_union(self) -> frozenset[int]:
        out: set[int] = set()
        for x in self.branch_sets:
            out |= part_vertices(self.branch_sets[x])
        return frozenset(out)

    def part_union(self) -> frozenset[int]:
        out: set[int] = set()
        for e in self.branch_parts:
            out |= part_vertices(self.branch_parts[e])
        return frozenset(out)


def _check_keys(m: FatModel) -> None:
    verts = set(m.pattern.vertex_ids())
    edges = set(m.pattern.edge_ids())
    if set(m.branch_sets) != verts:
        raise InputError(
            f"branch_sets keys {sorted(m.branch_sets)} do not match "
            f"pattern vertices {sorted(verts)}")
    if set(m.branch_parts) != edges:
        raise InputError(
            f"branch_parts keys {sorted(m.branch_parts)} do not match "
            f"pattern edges {sorted(edges)}")


def validate_model(g: Graph, m: FatModel) -> list[str]:
    """All structural violations of the model conditions, empty when valid.
    Runs no distance search: see _check_model."""
    return _check_model(g, m, 0)[0]


def _check_model(g: Graph, m: FatModel,
                 bound: int | float) -> tuple[list[str], int | float]:
    """validate_model's violations, and the fatness floored at bound.

    The screen pass checks each branch set and part alone: nonempty, ids
    in range, connected, and a tuple part a real path.  It screens a raw
    part before building its vertex set, so any id, unhashable ones too,
    is reported; if one is not a vertex of g, only the screen pass's
    violations come back.  Otherwise one pass over element pairs, in
    all_elements order, decides each pair by one rule: a vertex and an
    incident edge (the pairs _exempt names) must meet, two edges sharing
    a vertex z may meet only inside M_z, and all other pairs are disjoint.

    The second value is the exact fatness below bound and bound otherwise,
    so a valid m is q-fat iff its value at bound q reaches q.  Each element
    runs one search to the union of the later elements it forms no exempt
    pair with, cut one below the least value so far, which starts at
    bound.  None runs once a violation is found or the value is 0, so
    bound 0 runs none; for an invalid model the value means nothing.
    """
    _check_keys(m)
    violations: list[str] = []
    foreign = False
    for kind, parts in (("vertex", m.branch_sets), ("edge", m.branch_parts)):
        for i in sorted(parts):
            raw = parts[i]
            name = f"{kind} {i}"
            if not raw:
                violations.append(f"branch part of {name} is empty")
                continue
            is_tuple = isinstance(raw, tuple)
            # is_path answers False for a foreign id, so a path is screened once
            if is_tuple and is_path(g, raw):
                continue  # a path is connected
            bad = g.foreign(raw)
            if bad:
                foreign = True
                violations.append(f"branch part of {name} has out-of-range ids "
                                  f"{sorted(bad, key=Graph.id_order)}")
                continue
            if not _connected(g, part_vertices(raw)):
                violations.append(f"branch part of {name} is not connected")
            if is_tuple:
                violations.append(f"branch part of {name} is marked as a path but is not one")
    if foreign:
        return violations, bound

    elements = m.all_elements()
    best = bound
    for idx, (ka, ia, va) in enumerate(elements):
        paired: list[frozenset[int]] = []
        for kb, ib, vb in elements[idx + 1:]:
            if _exempt(m, (ka, ia), (kb, ib)):
                if va.isdisjoint(vb):
                    violations.append(
                        f"branch part of edge {ib} misses the branch set of vertex {ia}")
                continue
            paired.append(vb)
            shared = (set(m.pattern.endpoints(ia)) & set(m.pattern.endpoints(ib))
                      if ka == kb == "e" else None)
            if shared:
                # two edges of a simple pattern share one vertex at most
                (z,) = shared
                if (va & vb) - part_vertices(m.branch_sets[z]):
                    violations.append(
                        f"branch parts of edges {ia} and {ib} meet outside the "
                        f"branch set of their shared vertex {z}")
            elif not va.isdisjoint(vb):
                violations.append(
                    f"branch parts of non-incident elements {(ka, ia)} and "
                    f"{(kb, ib)} intersect")
        if paired and best > 0 and not violations:
            # the least distance to the paired elements is the distance to
            # their union, and one search that stops below best finds it
            best = min(best, dist(g, va, set().union(*paired),
                                  cutoff=None if best is inf else best - 1))
    return violations, best


def _exempt(m: FatModel, a: tuple[str, int], b: tuple[str, int]) -> bool:
    """A vertex and an incident edge, a before b in all_elements order: the
    pairs validate_model requires to meet and fatness skips."""
    return a[0] == "v" and b[0] == "e" and m.pattern.is_incident(a[1], b[1])


def fatness(g: Graph, m: FatModel) -> int | float:
    """Minimum host distance over non-exempt element pairs.

    Exempt pairs are exactly the incident vertex-edge pairs; every other
    pair counts, including edges sharing a pattern vertex.  Returns inf when
    no pair counts.  Raises PreconditionError if the model is invalid.
    """
    bad, measured = _check_model(g, m, inf)
    if bad:
        raise PreconditionError(f"fatness of invalid model: {bad[0]}")
    return measured


def _refuse_thin(g: Graph, m: FatModel, q: int, what: str) -> None:
    """Raise the PreconditionError of step `what`, which needs a valid
    q-fat model: fatness's for an invalid m, and one naming q and the
    exact fatness below it for a valid m that is not q-fat."""
    bad, measured = _check_model(g, m, q)
    if bad:
        raise PreconditionError(f"fatness of invalid model: {bad[0]}")
    if measured < q:
        raise PreconditionError(
            f"{what} needs fatness at least {q}, measured fatness {measured}")


def _require_fat(g: Graph, m: FatModel, q: int, what: str) -> None:
    """Output check of a model a step has built: valid and q-fat."""
    bad, post = _check_model(g, m, q)
    require(not bad, f"{what} invalid: " + "; ".join(bad))
    require(post >= q, f"{what} fatness {post} below {q}")


def is_simple(g: Graph, m: FatModel) -> list[str]:
    """Violations of simplicity: every branch part must be a path from the
    branch set of one endpoint to the branch set of the other, internally
    disjoint from both."""
    return validate_model(g, m) or _simplicity_violations(m)


def _simplicity_violations(m: FatModel) -> list[str]:
    """is_simple of a model the caller has just validated."""
    out: list[str] = []
    for e in m.pattern.edge_ids():
        raw = m.branch_parts[e]
        name = f"branch part of edge {e}"
        if not isinstance(raw, tuple):
            out.append(f"{name} is not path-valued")
            continue
        u, v = m.pattern.endpoints(e)
        su = part_vertices(m.branch_sets[u])
        sv = part_vertices(m.branch_sets[v])
        ok_fwd = raw[0] in su and raw[-1] in sv
        ok_rev = raw[0] in sv and raw[-1] in su
        if not (ok_fwd or ok_rev):
            out.append(
                f"{name} does not run between the branch sets of vertices {u} and {v}")
            continue
        hit = [x for x in raw[1:-1] if x in su or x in sv]
        if hit:
            out.append(f"{name} re-enters a branch set at vertex {hit[0]}")
    return out


def is_clean(g: Graph, m: FatModel, ell: int) -> bool:
    """Layer condition: for each incident vertex x and edge e, the branch
    part of e has exactly one vertex at each distance 0..ell from M_x.

    Requires a simple model; ell = 0 holds for every simple model.
    """
    if ell < 0:
        raise PreconditionError(f"ell must be nonnegative, got {ell}")
    bad = is_simple(g, m)
    if bad:
        raise PreconditionError(f"is_clean needs a simple model: {bad[0]}")
    return _layered(g, m, ell)


def _layered(g: Graph, m: FatModel, ell: int) -> bool:
    """is_clean of a model the caller has just found simple: each branch
    set is mapped once, to depth ell, for all its incident branch parts."""
    for x in m.pattern.vertex_ids():
        edges = m.pattern.incident_edges(x)
        if not edges:
            continue
        dmap = distance_map(g, part_vertices(m.branch_sets[x]), cutoff=ell)
        for e in edges:
            counts = [0] * (ell + 1)
            for v in part_vertices(m.branch_parts[e]):
                dv = dmap.get(v)
                if dv is not None:
                    counts[dv] += 1
            if any(c != 1 for c in counts):
                return False
    return True


def fat_to_clean(g: Graph, m: FatModel, q: int, ell: int) -> FatModel:
    """Reroute every branch part so the model becomes q-fat and ell-clean.

    Requires a (q + 2*ell)-fat model with q >= ell >= 1.  Branch sets are
    kept identical; each new branch part is the concatenation of a shortest
    attachment geodesic of length ell on each side with a middle piece routed
    inside the old part outside both ell-balls.
    """
    if not (q >= ell >= 1):
        raise PreconditionError(f"need q >= ell >= 1, got q={q}, ell={ell}")
    _refuse_thin(g, m, q + 2 * ell, "fat_to_clean")
    return _fat_to_clean(g, m, q, ell)


def _fat_to_clean(g: Graph, m: FatModel, q: int, ell: int) -> FatModel:
    """fat_to_clean of a model the caller has found (q + 2*ell)-fat.

    Checks its output once: valid, q-fat and ell-clean, which is also all
    that augment needs of its input when q = 8*ell' and ell = 4*ell'.
    An edgeless model comes back with its branch sets and no check: nothing
    is rerouted, so the output is the input, which the caller has found
    valid and at least q-fat, and it is simple and clean with no edges.
    """
    if not m.pattern.n_edges:
        return FatModel(m.pattern, dict(m.branch_sets), {})
    new_parts: dict[int, Part] = {}
    for e in m.pattern.edge_ids():
        u, v = m.pattern.endpoints(e)
        mu = part_vertices(m.branch_sets[u])
        mv = part_vertices(m.branch_sets[v])
        pe = part_vertices(m.branch_parts[e])
        bu = ball(g, mu, ell)
        bv = ball(g, mv, ell)
        middle = st_path(g, bu & pe, bv & pe, within=pe)
        if middle is None:
            raise PreconditionError(
                f"branch part of edge {e} does not link the ell-balls of its endpoints")
        u_end, v_end = middle[0], middle[-1]
        west = st_path(g, mu, {u_end})
        east = st_path(g, mv, {v_end})
        require(west is not None and east is not None,
                f"edge {e}: no path from a branch set to its end of the middle")
        if len(west) - 1 != ell or len(east) - 1 != ell:
            raise PreconditionError(
                f"attachment geodesics of edge {e} have lengths "
                f"{len(west) - 1},{len(east) - 1}, expected {ell}")
        # the ell-balls of a (q + 2*ell)-fat model's sets are disjoint and
        # the middle's inner vertices lie outside both, so this is a path
        new_parts[e] = west + middle[1:] + tuple(reversed(east))[1:]
    out = FatModel(m.pattern, dict(m.branch_sets), new_parts)
    _require_fat(g, out, q, "fat_to_clean output")
    require(not _simplicity_violations(out) and _layered(g, out, ell),
            "fat_to_clean output is not clean")
    return out

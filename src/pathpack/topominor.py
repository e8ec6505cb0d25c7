"""Compression of a fat model into a topological one.

Every branch set of the output has small radius, so the pattern appears
not just as a minor but as a subdivision drawn with fat, short-linked
pieces.  Degree-three hubs are built with the three-leg junction routine,
lower degrees by direct geodesic surgery.
"""

from __future__ import annotations

from .errors import InternalInvariantError, PreconditionError, require
from .graph import Graph, ball, dist, has_radius_at_most, st_path
from .model import FatModel, _refuse_thin, _require_fat, part_vertices
from .tripod import tripod


def make_topological(g: Graph, m: FatModel, ell: int) -> FatModel:
    """Rebuild a 7*ell-fat model of a subcubic pattern so that every new
    branch set has radius at most floor(1.5*ell), keeping the pattern and
    ell-fatness.

    Every new branch set stays within distance 2*ell of the old one.
    """
    if ell < 1:
        raise PreconditionError(f"scale must be positive, got {ell}")
    _refuse_thin(g, m, 7 * ell, "make_topological")

    pattern = m.pattern
    # middle stretch of every branch path, ending exactly 2*ell from
    # either incident branch set
    gates: dict[tuple[int, int], int] = {}
    middles: dict[int, tuple[int, ...]] = {}
    for e in pattern.edge_ids():
        u, v = pattern.endpoints(e)
        pe = frozenset(part_vertices(m.branch_parts[e]))
        bu = part_vertices(m.branch_sets[u])
        bv = part_vertices(m.branch_sets[v])
        near_u = ball(g, bu, 2 * ell) & pe
        near_v = ball(g, bv, 2 * ell) & pe
        require(near_u and near_v and not (near_u & near_v),
                f"the 2*ell-balls of the branch sets of edge {e} miss its "
                "branch path or overlap on it")
        mid = st_path(g, near_u, near_v, within=pe)
        require(mid is not None,
                f"branch path of edge {e} is not connected between its ends")
        gates[(e, u)] = mid[0]
        gates[(e, v)] = mid[-1]
        middles[e] = mid
        require(dist(g, bu, {mid[0]}, cutoff=2 * ell) == 2 * ell
                and dist(g, bv, {mid[-1]}, cutoff=2 * ell) == 2 * ell,
                f"middle of edge {e} does not start and end 2*ell from its branch sets")

    sets2: dict[int, frozenset[int]] = {}
    legs: dict[tuple[int, int], frozenset[int]] = {}
    for x in pattern.vertex_ids():
        bx = frozenset(part_vertices(m.branch_sets[x]))
        inc = pattern.incident_edges(x)
        if not inc:
            sets2[x] = frozenset({min(bx)})
        elif len(inc) == 1:
            e = inc[0]
            leg = st_path(g, {gates[(e, x)]}, bx)
            require(leg is not None, f"no leg from the gate of edge {e} to vertex {x}")
            sets2[x] = frozenset({leg[-1]})
            legs[(e, x)] = frozenset(leg)
        elif len(inc) == 2:
            e1, e2 = inc
            q1 = st_path(g, {gates[(e1, x)]}, bx)
            q2 = st_path(g, {gates[(e2, x)]}, bx)
            require(q1 is not None and q2 is not None,
                    f"no legs from the gates of vertex {x} to its branch set")
            sets2[x] = frozenset(q1)
            legs[(e1, x)] = frozenset({gates[(e1, x)]})
            legs[(e2, x)] = bx | frozenset(q2)
        else:
            tips = tuple(gates[(e, x)] for e in inc)
            try:
                junction = tripod(g, tips, bx, ell, 2 * ell)
            except PreconditionError as exc:
                raise InternalInvariantError(
                    f"hub of vertex {x} violates the junction "
                    f"hypotheses: {exc}") from exc
            sets2[x] = junction.z
            for e, part in zip(inc, junction.p):
                legs[(e, x)] = part

    parts2: dict[int, frozenset[int]] = {}
    for e in pattern.edge_ids():
        u, v = pattern.endpoints(e)
        parts2[e] = legs[(e, u)] | frozenset(middles[e]) | legs[(e, v)]

    out = FatModel(pattern, sets2, parts2)
    _require_fat(g, out, ell, "compressed model")
    limit = (3 * ell) // 2
    for x in pattern.vertex_ids():
        require(has_radius_at_most(g, sets2[x], limit),
                f"compressed branch set of vertex {x} exceeds radius {limit}")
        require(sets2[x] <= ball(g, part_vertices(m.branch_sets[x]), 2 * ell),
                f"compressed branch set of vertex {x} strays over 2*ell from the old one")
    return out

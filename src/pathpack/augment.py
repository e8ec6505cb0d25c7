"""Growing a clean model along an approaching path.

Input: a clean fat model, one of its branch paths M_yz, and a path p from a
vertex a into the 4*ell-ball around M_yz that stays far from the rest of the
model.  Output: a model of a larger pattern, either with the edge yz
subdivided (mid vertex absorbs the approach) or additionally with a pendant
vertex whose branch set is {a}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InternalInvariantError, PreconditionError, require
from .graph import (Graph, UNREACHABLE, ball, dist, distance_map,
                    has_radius_at_most, is_path, st_path)
from .model import (FatModel, Part, PatternGraph, _fatness, _layered,
                    _refuse_invalid, _require_fat, _simplicity_violations,
                    part_vertices)
from .tripod import tripod


@dataclass(frozen=True)
class AugmentResult:
    """New pattern and model; attached tells whether a pendant vertex was
    added on top of the subdivision."""
    attached: bool
    pattern: PatternGraph
    model: FatModel
    sub_vertex: int
    pendant_vertex: Optional[int] = None


def _first_at_exact(walk: tuple[int, ...], dmap: dict[int, int],
                    target: int) -> int:
    """Index of the first walk vertex at mapped distance exactly target,
    checking that all earlier vertices are farther."""
    for idx, v in enumerate(walk):
        dv = dmap.get(v, UNREACHABLE)
        if dv <= target:
            require(dv == target, f"walk drops below distance {target} at index "
                    f"{idx} without passing through it")
            return idx
    raise InternalInvariantError(f"walk never reaches distance {target}")


def augment(g: Graph, m: FatModel, a: int, yz: int, p: tuple[int, ...],
            ell: int) -> AugmentResult:
    """Extend a clean model by absorbing the approach path p.

    Preconditions, all checked here: m is 8*ell-fat and 4*ell-clean, p
    runs from a to the 4*ell-ball around the branch path of yz with no
    earlier vertex inside that ball, p keeps distance at least 8*ell from
    every branch set and at least 4*ell from every other branch path.

    The output model is ell-fat, its new mid branch set has radius at most
    4*ell, and every element other than yz keeps its old branch part.
    """
    if ell < 1:
        raise PreconditionError(f"ell must be at least 1, got {ell}")
    if yz not in m.branch_parts:
        raise PreconditionError(f"no pattern edge {yz}")
    if not isinstance(m.branch_parts[yz], tuple):
        raise PreconditionError("augment needs a path-valued branch part; "
                                "normalize the model first")
    if not (isinstance(p, tuple) and is_path(g, p)):
        raise PreconditionError("p must be a path in the host graph")
    if p[0] != a:
        raise PreconditionError(f"p must start at {a}, starts at {p[0]}")

    _refuse_invalid(g, m)
    measured = _fatness(g, m, 8 * ell)
    if measured < 8 * ell:
        raise PreconditionError(
            f"augment needs an {8 * ell}-fat model, measured fatness {measured}")
    # m is valid, so simplicity and layers are all that is left
    if _simplicity_violations(m) or not _layered(g, m, 4 * ell):
        raise PreconditionError(f"augment needs a {4 * ell}-clean model")

    approach_ball = ball(g, m.branch_parts[yz], 4 * ell)
    if p[-1] not in approach_ball:
        raise PreconditionError("p does not end inside the approach ball")
    early = [v for v in p[:-1] if v in approach_ball]
    if early:
        raise PreconditionError(
            f"p enters the approach ball early at vertex {early[0]}")
    if dist(g, p, m.vertex_union(), cutoff=8 * ell - 1) is not UNREACHABLE:
        raise PreconditionError(
            f"p comes closer than {8 * ell} to a branch set")
    other_parts: set[int] = set()
    for e in m.pattern.edge_ids():
        if e != yz:
            other_parts |= part_vertices(m.branch_parts[e])
    if dist(g, p, other_parts, cutoff=4 * ell - 1) is not UNREACHABLE:
        raise PreconditionError(
            f"p comes closer than {4 * ell} to another branch path")

    result = _augment(g, m, a, yz, p, ell)
    _require_fat(g, result.model, ell, "augment output")
    return result


def _augment(g: Graph, m: FatModel, a: int, yz: int, p: tuple[int, ...],
             ell: int) -> AugmentResult:
    """augment of a model the caller has found 8*ell-fat and 4*ell-clean,
    along a path p from a whose shape the caller has checked: augment()
    checks it for a public caller, and a solver round builds p to have it,
    so this runs no search on p, and maps no cleanness layers.  Each fact
    is searched once: a cut-off st_path both decides whether the stubs are
    close and finds their link, and likewise for the fold.

    Checks only the output facts of this step: the mid branch set has
    radius at most 4*ell and every other branch set and part is unchanged.
    Whether the output is a valid ell-fat model is left to the caller.
    """
    myz: tuple[int, ...] = m.branch_parts[yz]
    w = p[-1]
    y, z = m.pattern.endpoints(yz)
    set_y = part_vertices(m.branch_sets[y])
    set_z = part_vertices(m.branch_sets[z])
    if myz[0] in set_y:
        walk_y = myz
    else:
        walk_y = tuple(reversed(myz))
    walk_z = tuple(reversed(walk_y))
    v_y, v_z = walk_y[0], walk_z[0]
    require(v_y in set_y and v_z in set_z,
            "branch path of yz does not run between its branch sets")

    # nothing below reads a distance beyond 8*ell
    dmap_w = distance_map(g, {w}, cutoff=8 * ell)
    require(dmap_w.get(v_y, UNREACHABLE) >= 8 * ell
            and dmap_w.get(v_z, UNREACHABLE) >= 8 * ell,
            f"end of p is closer than {8 * ell} to an end of the branch path")

    i_y = _first_at_exact(walk_y, dmap_w, 4 * ell)
    i_z = _first_at_exact(walk_z, dmap_w, 4 * ell)
    q_y, q_z = walk_y[i_y], walk_z[i_z]
    path_q_y = walk_y[:i_y + 1]
    path_q_z = walk_z[:i_z + 1]
    set_q_y = frozenset(path_q_y)
    set_q_z = frozenset(path_q_z)

    # the trimmed stubs stay far from both branch sets
    require(dist(g, {q_y, q_z}, set_y | set_z, cutoff=4 * ell - 1) is UNREACHABLE
            and dist(g, set_q_y, set_z, cutoff=4 * ell - 1) is UNREACHABLE
            and dist(g, set_q_z, set_y, cutoff=4 * ell - 1) is UNREACHABLE,
            f"trimmed stubs come closer than {4 * ell} to a branch set")
    require(dist(g, p, set_q_y | set_q_z, cutoff=4 * ell - 1) is UNREACHABLE,
            f"p comes closer than {4 * ell} to a trimmed stub")

    link = st_path(g, set_q_y, set_q_z, cutoff=ell - 1)

    pattern2 = m.pattern.copy()
    h, e_y, e_z = pattern2.subdivide(yz)
    sets2 = dict(m.branch_sets)
    parts2 = dict(m.branch_parts)
    del parts2[yz]

    pendant: Optional[Part] = None
    if link is None:
        w_y = st_path(g, {w}, {q_y})
        w_z = st_path(g, {w}, {q_z})
        require(w_y is not None and len(w_y) - 1 == 4 * ell
                and w_z is not None and len(w_z) - 1 == 4 * ell,
                f"end of p is not at distance exactly {4 * ell} from both stub ends")
        mid = frozenset(w_y) | frozenset(w_z)
        fold = st_path(g, {a}, {w}, cutoff=2 * ell - 1)
        if fold is not None:
            # fold the approach into the subdivision vertex
            mid |= frozenset(fold)
        else:
            # hang a on a pendant vertex, linked by p itself
            pendant = p
        sets2[h] = mid
        parts2[e_y] = path_q_y
        parts2[e_z] = path_q_z
    else:
        # the two stubs nearly meet: rebuild the junction around them.
        # _first_at_exact put w at exactly 4*ell from q_y and q_z.  m is a
        # simple 4*ell-clean model, so walk[i] is the only vertex of the
        # branch path at distance i from its end's branch set, for every
        # i <= 4*ell (walk[i+1] must take layer i+1, since layers i-1 and
        # i are used): the trim starts at walk[3*ell]
        trim_y = walk_y[3 * ell: i_y + 1]
        trim_z = walk_z[3 * ell: i_z + 1]
        region = frozenset(trim_y) | frozenset(trim_z) | frozenset(link)
        require(dist(g, link, set_y | set_z, cutoff=3 * ell) is UNREACHABLE,
                f"stub link comes within {3 * ell} of a branch set")
        require(dist(g, region, set_y | set_z, cutoff=3 * ell - 1) is UNREACHABLE,
                f"junction region comes closer than {3 * ell} to a branch set")
        require(dist(g, p, region, cutoff=3 * ell) is UNREACHABLE,
                f"p comes within {3 * ell} of the junction region")
        try:
            junction = tripod(g, (v_y, v_z, w), region, ell, 4 * ell)
        except PreconditionError as exc:
            raise InternalInvariantError(
                f"junction hypotheses failed inside augment: {exc}") from exc
        sets2[h] = junction.z
        parts2[e_y] = junction.p[0]
        parts2[e_z] = junction.p[1]
        pendant = junction.p[2] | frozenset(p)

    h2 = None
    if pendant is not None:
        h2, e_p = pattern2.add_leaf(h)
        sets2[h2] = frozenset({a})
        parts2[e_p] = pendant
    result = AugmentResult(attached=h2 is not None, pattern=pattern2,
                           model=FatModel(pattern2, sets2, parts2),
                           sub_vertex=h, pendant_vertex=h2)

    out = result.model
    require(has_radius_at_most(g, out.branch_sets[result.sub_vertex], 4 * ell),
            f"mid branch set radius exceeds {4 * ell}")
    for x, part in m.branch_sets.items():
        require(out.branch_sets.get(x) == part, f"branch set of vertex {x} changed")
    for e, part in m.branch_parts.items():
        require(e == yz or out.branch_parts.get(e) == part,
                f"branch part of edge {e} changed")
    return result

"""Induction frames and the top-level solver.

A frame is a fat model whose pieces each carry a terminal vertex, plus the
counter i that measures how much structure has been accumulated.  One round
of extend_or_hit either absorbs a terminal path that avoids the current
guarded region, raising i by one at the cost of dividing the fatness scale
by 16, or returns the branch-set centers as a hitting set.  After 2k-1
successful rounds the frame is unwound into k far-apart terminal paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .augment import _augment
from .errors import InputError, ParameterRangeError, PreconditionError, require
from .forest import _leaf_bound, degree_classes, extract_z_paths
from .graph import (Graph, UNREACHABLE, _least_far_pair, _reach, _search_tree,
                    _tree_path, dist, distance_map, has_radius_at_most,
                    radius_center, st_path)
from .model import (FatModel, PatternGraph, _check_model, _fat_to_clean,
                    part_vertices)
from .oracle import hitting_violations, packing_violations

MAX_RADIUS = 2 ** 62
# 256^k * d < 2^62 with d >= 1 needs k < 62 / 8; a larger k is refused
# before 256^k is built, which for a huge k would never finish.
MAX_K = 7


@dataclass(frozen=True)
class SolveParams:
    """Validated solver parameters with the derived bounds."""
    k: int
    d: int
    coarse: bool = False

    def __post_init__(self) -> None:
        # type(), not isinstance: bool is an int subclass, and True is no k
        if not (type(self.k) is int and self.k >= 1):
            raise InputError(f"k must be a positive integer, got {self.k!r}")
        if not (type(self.d) is int and self.d >= 1):
            raise InputError(f"d must be a positive integer, got {self.d!r}")
        if not isinstance(self.coarse, bool):
            raise InputError(f"coarse must be a boolean, got {self.coarse!r}")
        if self.k > MAX_K or 256 ** self.k * self.d >= MAX_RADIUS:
            raise ParameterRangeError(
                f"hitting radius 256^{self.k} * {self.d} exceeds the "
                f"supported range (< 2^62)")

    @property
    def bound_f(self) -> int:
        """Maximum hitting-set size, 4k - 4."""
        return 4 * self.k - 4

    @property
    def bound_g(self) -> int:
        """Hitting-ball radius, 256^k * d."""
        return 256 ** self.k * self.d

    @property
    def frame_r(self) -> int:
        """Branch-set radius budget kept by every frame."""
        return 4 * 16 ** (2 * self.k - 2) * self.d

    def frame_ell(self, i: int) -> int:
        """Fatness scale of the frame at induction step i."""
        return 16 ** (2 * self.k - 1 - i) * self.d


@dataclass(frozen=True)
class PackingCertificate:
    """At most k terminal paths; their distance d and coarse mode come
    from the SolveParams the certificate travels with."""
    paths: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class HittingCertificate:
    x: frozenset[int]
    radius: int
    coarse_threshold: Optional[int] = None


Certificate = Union[PackingCertificate, HittingCertificate]

# A graph._search_tree of a whole component of the host.
Tree = dict[int, Optional[int]]


@dataclass(frozen=True)
class Frame:
    model: FatModel
    i: int
    ell: int
    r: int
    coarse: bool
    a_set: frozenset[int]

    @property
    def pattern(self) -> PatternGraph:
        return self.model.pattern


def empty_frame(a: frozenset[int], ell: int, r: int, coarse: bool) -> Frame:
    pattern = PatternGraph()
    return Frame(model=FatModel(pattern), i=0, ell=ell, r=r, coarse=coarse,
                 a_set=frozenset(a))


def validate_frame(g: Graph, fr: Frame) -> list[str]:
    """All violations of the frame conditions, empty when the frame is valid."""
    out: list[str] = []
    if fr.ell < 1:
        out.append(f"fatness scale must be positive, got {fr.ell}")
    if fr.r < 0:
        out.append(f"radius budget must be nonnegative, got {fr.r}")
    bad_model, fat = _check_model(g, fr.model, fr.ell)
    if bad_model:
        return out + [f"model: {msg}" for msg in bad_model]
    dc = degree_classes(fr.pattern)
    expected = len(dc.v0) + len(dc.v1) + len(dc.v2) - dc.m
    if fr.i != expected:
        out.append(f"counter i={fr.i} does not match structure value {expected}")
    if not _leaf_bound(dc):
        out.append("pattern violates the leaf/branching bound")
    if fat < fr.ell:
        out.append(f"model fatness {fat} below the frame scale {fr.ell}")
    for x in fr.pattern.vertex_ids():
        raw = fr.model.branch_sets[x]
        vs = part_vertices(raw)
        # _check_model has found vs connected, and a connected set of s
        # vertices has radius at most s - 1
        if fr.r < len(vs) - 1 and not has_radius_at_most(g, vs, fr.r):
            out.append(f"branch set of vertex {x} has radius above {fr.r}")
        degree = fr.pattern.degree(x)
        if degree in (1, 2) and vs.isdisjoint(fr.a_set):
            out.append(f"branch set of vertex {x} carries no terminal")
        if degree:
            continue
        if not isinstance(raw, tuple):
            out.append(f"isolated vertex {x} must carry an ordered terminal path")
        elif len(raw) < 2:
            out.append(f"terminal path of isolated vertex {x} is too short")
        elif not (raw[0] in fr.a_set and raw[-1] in fr.a_set):
            out.append(f"path of isolated vertex {x} does not end in terminals")
    if fr.coarse and dc.v0:
        out.append("coarse frames must not contain isolated vertices")
    return out


def extend_or_hit(g: Graph, fr: Frame) -> Union[Frame, frozenset[int]]:
    """One induction round.

    The frame must sit at fatness scale 16*ell with r >= 4*ell.  Either a
    new frame at scale ell with counter i+1 comes back, or the frozenset of
    branch-set centers, a hitting set: no terminal path (in coarse mode, no
    ell-coarse terminal path) avoids their (r + 8*ell)-balls.  The round
    starts from empty tables: every branch set's center is measured, and
    no component is known to it.  The model is cleaned only once the
    round has a pair to place, so a round that hits with none cleans
    nothing (see _round).
    """
    if fr.ell % 16 != 0:
        raise PreconditionError(f"frame scale {fr.ell} is not divisible by 16")
    ell = fr.ell // 16
    if ell < 1:
        raise PreconditionError(f"frame scale {fr.ell} too small to step down")
    if fr.r < 4 * ell:
        raise PreconditionError(f"radius budget {fr.r} below 4*ell={4 * ell}")
    _require_valid(g, fr)
    return _round(g, fr, {}, {})


def _require_valid(g: Graph, fr: Frame) -> None:
    """Entry check of a public step: fr's terminals are vertices of g, as
    solve checks them, and fr satisfies the frame conditions."""
    g.check_vertex_set(fr.a_set)
    bad = validate_frame(g, fr)
    if bad:
        raise PreconditionError(f"invalid frame: {bad[0]}")


def _round(g: Graph, fr: Frame, centers: dict[int, int],
           known: dict[int, Tree]) -> Union[Frame, frozenset[int]]:
    """extend_or_hit of a frame on the solver's schedule that has passed
    validate_frame, which also bounds its branch sets' radii by fr.r.  The
    new frame is checked once, by validate_frame.  A round that ends in a
    hit cleans nothing: the hit is read off the centers of fr's branch
    sets, which fat_to_clean keeps as they are, so the model is cleaned
    only once the round has a pair to place.  A coarse round whose pair
    is close still cleans: it hits only after its path misses the
    cleaned branch paths.

    centers maps the pattern vertices of fr, and no others, to the centers
    of their branch sets.  The round measures the sets missing from it, and
    records the center of each set it builds: a new K2's single terminals
    are their own centers, and a close pair's host geodesic has its middle
    vertex (the lower id of two).  fat_to_clean and augment keep every old
    branch set as it was, and ids are never reused, so a solve measures
    only the sets augment builds, each once.

    One search per candidate yields both its vertex set and its path: a
    FIFO search from the candidate's least terminal in g minus the guard,
    whose parent tree holds the path st_path would find within the
    candidate to any of its vertices.  The far-pair test, given terminals
    it knows to lie in one component, stops its first map at ell - 1,
    where the round's answer is decided.  Searches whose answer the sizes
    already fix are skipped: a candidate of at most ell vertices has no
    pair ell apart, and neither has any candidate once at most ell
    unsearched vertices are left.

    known maps a vertex v to a search tree of v's whole component of g,
    for the length of a solve.  A candidate's least terminal keys the
    candidate's tree, rooted there.  When the round builds a K2 or a close
    pair in a whole component, the K2's first terminal or the close pair's
    center keys the tree its path was read off.  A known component holding
    a center joins the guard with no search when it lies in that center's
    ball, since no ball leaves its component; only the other centers'
    balls are grown.  A center whose component does not fit loses its
    key, since a later round's radius is smaller.  When the grown balls
    end before the guard radius, the guard is closed: a union of whole
    components, as the empty guard of round 0 is.  Every candidate of a
    closed round is then a whole component, so the round reads a known
    candidate's tree and records each new one, the far-pair test reads
    its maps from the least terminal off that tree, with no search of its
    own, and a close pair's path is already its geodesic in the host.  A
    closed round absorbs no path: every branch path lies in a guarded
    component.
    """
    ell = fr.ell // 16
    for x in fr.pattern.vertex_ids():
        if x not in centers:
            centers[x] = radius_center(g, part_vertices(fr.model.branch_sets[x]))[0]
    hit = frozenset(centers.values())
    require(len(hit) == len(centers), "branch-set centers collide")

    radius = fr.r + 8 * ell
    # no ball leaves its component, so a known one that fits joins whole
    inside: list[Tree] = []
    for c in hit:
        tree = known.get(c)
        if tree is None:
            continue
        if _in_every_ball(tree, radius):
            inside.append(tree)
        else:
            del known[c]
    guard, closed = _reach(g, [c for c in hit
                               if not any(c in t for t in inside)], radius)
    for tree in inside:
        guard.update(tree)
    # Candidates are the components of the unguarded region holding two or
    # more terminals, taken in ascending order of their least terminal; a
    # component without terminals is never searched.  The first candidate
    # with a far pair gives it, else the least two terminals of the first.
    # Two vertices of a connected set C are at most |C| - 1 apart, so a
    # candidate of at most ell vertices holds no far pair, and once the
    # unsearched vertices number at most ell no later candidate does.
    pair = None
    first = None
    placed: set[int] = set()
    left = g.n - len(guard)
    for a in sorted(fr.a_set - guard):
        if a in placed:
            continue
        if first is not None and left <= ell:
            break
        tree = known.get(a) if closed else None
        if tree is None:
            tree = _search_tree(g, a, guard)
            if closed:
                known[a] = tree
        left -= len(tree)
        averts = sorted(fr.a_set.intersection(tree))
        placed.update(averts)
        if len(averts) < 2:
            continue
        if first is None:
            first = (tree, averts)
        # the tree of a whole component gives the far-pair test its maps
        # from the candidate's least terminal
        pair = (_least_far_pair(g, averts, ell, tree if closed else None)
                if len(tree) > ell else None)
        if pair is not None:
            break
    if first is None:
        return hit
    close_pair = pair is None  # no candidate holds a pair ell apart
    if close_pair:
        tree, averts = first
        pair = (averts[0], averts[1])

    # the tree is rooted at the candidate's least terminal; a far pair
    # found by a later per-vertex search starts elsewhere, and its own tree
    # holds the same candidate
    if pair[0] != averts[0]:
        tree = _search_tree(g, pair[0], guard)
        require(pair[1] in tree,
                "chosen terminal pair is not connected off the guarded region")
    path = _tree_path(tree, pair[1])
    require(guard.isdisjoint(path), "new terminal path enters the guarded region")
    a1, a2 = path[0], path[-1]

    # a valid frame's model is fr.ell = (8*ell + 2*4*ell)-fat, all that
    # fat_to_clean asks of its input; its output check is also all that
    # augment needs of its input
    clean = _fat_to_clean(g, fr.model, 8 * ell, 4 * ell)
    parts_union = clean.part_union()
    near_map = distance_map(g, parts_union, cutoff=4 * ell) if parts_union else {}
    touch_idx = next((idx for idx, v in enumerate(path) if v in near_map), None)

    if touch_idx is not None:
        # the path approaches a branch path: absorb it into the model
        w = path[touch_idx]
        trimmed = path[:touch_idx + 1]
        target = None
        for e in clean.pattern.edge_ids():
            de = dist(g, {w}, part_vertices(clean.branch_parts[e]), cutoff=4 * ell)
            if de is not UNREACHABLE:
                target = e
                break
        require(target is not None,
                "path vertex near the branch paths is near none of them")
        model = _augment(g, clean, a1, target, trimmed, ell).model
    else:
        if close_pair and fr.coarse:
            # every avoiding terminal pair is close, so no ell-coarse
            # terminal path avoids the guarded region
            return hit
        pattern2 = clean.pattern.copy()
        sets2 = dict(clean.branch_sets)
        parts2 = dict(clean.branch_parts)
        if not close_pair:
            # far pair, far from the model: open a new two-vertex component
            # whose branch sets are single terminals, each its own center
            h1, h2, e = pattern2.add_k2()
            for h, t in ((h1, a1), (h2, a2)):
                sets2[h] = frozenset({t})
                centers[h] = t
            parts2[e] = path
            if closed:
                known[a1] = tree
        else:
            # close pair: store its connecting geodesic as a finished path;
            # in a whole component, path is it
            link = path if closed else st_path(g, {a1}, {a2})
            require(link is not None and len(link) - 1 < ell,
                    f"close terminal pair has no geodesic shorter than {ell}")
            # a host geodesic has no chord, so g[link] is the path itself,
            # where index i has eccentricity max(i, s - 1 - i): the middle
            # one or two vertices are least, and a tie goes to the lower id
            s = len(link)
            x = pattern2.add_vertex()
            sets2[x] = link
            centers[x] = min(link[(s - 1) // 2], link[s // 2])
            if closed:
                known[centers[x]] = tree
        model = FatModel(pattern2, sets2, parts2)

    new_frame = Frame(model=model, i=fr.i + 1, ell=ell, r=fr.r,
                      coarse=fr.coarse, a_set=fr.a_set)
    bad = validate_frame(g, new_frame)
    require(not bad, "extension produced an invalid frame: " + "; ".join(bad))
    return new_frame


def _in_every_ball(tree: Tree, radius: int) -> bool:
    """True when the component that tree spans lies in the radius-ball of
    each of its vertices.  Two of its vertices are at most |tree| - 1 apart,
    and at most twice the tree's height, the depth of its last vertex; only
    when the size does not decide is that vertex's path walked."""
    return (len(tree) - 1 <= radius
            or 2 * (len(_tree_path(tree, next(reversed(tree)))) - 1) <= radius)


def frame_to_packing(g: Graph, fr: Frame) -> list[tuple[int, ...]]:
    """Unwind a frame with odd counter i = 2t-1 into at least t terminal
    paths, pairwise at distance at least fr.ell."""
    _require_valid(g, fr)
    return _frame_to_packing(g, fr)


def _frame_to_packing(g: Graph, fr: Frame) -> list[tuple[int, ...]]:
    """frame_to_packing of a frame that validate_frame has accepted, so
    each isolated vertex carries its terminal path and every other branch
    set a terminal."""
    if fr.i % 2 != 1:
        raise PreconditionError(f"counter must be odd to unwind, got {fr.i}")
    t = (fr.i + 1) // 2
    pattern = fr.pattern
    finished: list[tuple[int, ...]] = [fr.model.branch_sets[x]
                                       for x in pattern.vertex_ids()
                                       if pattern.degree(x) == 0]

    # an isolated vertex is a tree with no marked vertex, so it gets no
    # route; the classes come from degrees, since degree_classes would
    # search the components that extract_z_paths's forest check searches
    routes = extract_z_paths(pattern, frozenset(
        x for x in pattern.vertex_ids() if 1 <= pattern.degree(x) <= 2))

    for route in routes:
        first, last = route[0], route[-1]
        wit_first = min(fr.a_set & part_vertices(fr.model.branch_sets[first]))
        wit_last = min(fr.a_set & part_vertices(fr.model.branch_sets[last]))
        region: set[int] = set()
        for v in route:
            region |= part_vertices(fr.model.branch_sets[v])
        for u, v in zip(route, route[1:]):
            e = fr.pattern.edge_between(u, v)
            require(e is not None, f"route steps from {u} to {v} along no pattern edge")
            region |= part_vertices(fr.model.branch_parts[e])
        path = st_path(g, {wit_first}, {wit_last}, within=frozenset(region))
        require(path is not None and len(path) >= 2,
                "terminal witnesses are not linked inside their model region")
        finished.append(path)

    require(len(finished) >= t, f"unwound only {len(finished)} paths, needed {t}")
    for idx, p1 in enumerate(finished):
        for p2 in finished[idx + 1:]:
            dd = dist(g, p1, p2, cutoff=fr.ell - 1)
            require(dd is UNREACHABLE, f"unwound paths come within {dd} < {fr.ell}")
    return finished


def solve(g: Graph, a: frozenset[int], params: SolveParams,
          validate: bool = False) -> Certificate:
    """Full run: either k terminal paths pairwise at distance >= d (in
    coarse mode also with far endpoints), or a hitting set of at most
    4k-4 vertices whose balls of radius 256^k * d meet every (coarse)
    terminal path.

    Every round checks each model it builds once, whatever the flags and
    also under python -O: the cleaned model and the new frame.  A round
    that ends in a hit cleans nothing, since the hit is read off branch
    sets that cleaning keeps; only a coarse round whose pair is close
    cleans before it hits (see _round).  A model without edges is
    cleaned without a check, since cleaning leaves it as the last round's
    check (or the empty start) found it.  A round skips
    the far-pair searches that the sizes of its components decide, reads
    its path off the one search that finds its candidate, and cuts its
    far-pair test at ell.  A solve keeps one table of branch-set centers,
    so only augment's sets are measured, and one of the search trees of
    the whole components its rounds have searched: a guard takes a known
    component whole, with no search, and a round whose guard is a union of
    whole components reads its candidates' trees off the table, searching
    only new ones, and gives them to the far-pair test.  The final frame
    is unwound without a second validate_frame.
    validate=True adds two checks: every frame's counter and scale are
    compared with the schedule, and the final certificate is verified
    independently by the oracle module.
    """
    a = g.check_vertex_set(a)
    k = params.k
    fr = empty_frame(a, params.frame_ell(0), params.frame_r, params.coarse)
    centers: dict[int, int] = {}
    known: dict[int, Tree] = {}
    for i in range(2 * k - 1):
        if validate:
            require(fr.i == i and fr.ell == params.frame_ell(i),
                    f"frame schedule mismatch at step {i}")
        out = _round(g, fr, centers, known)
        if isinstance(out, frozenset):
            require(len(out) <= 2 * fr.i and len(out) <= params.bound_f,
                    f"hitting set size {len(out)} exceeds its bound")
            require(fr.r + 8 * (fr.ell // 16) <= params.bound_g,
                    "guard radius exceeds the bound")
            cert: Certificate = HittingCertificate(
                x=out, radius=params.bound_g,
                coarse_threshold=params.bound_g if params.coarse else None)
            break
        fr = out
    else:
        paths = _frame_to_packing(g, fr)
        paths.sort(key=lambda p: (min(p), p))
        cert = PackingCertificate(paths=tuple(paths[:k]))
    if validate:
        bad = certificate_violations(g, a, params, cert)
        require(not bad, "certificate failed verification: " + "; ".join(bad))
    return cert


def certificate_violations(g: Graph, a: frozenset[int], params: SolveParams,
                           cert: Certificate) -> list[str]:
    """All reasons cert is not a valid answer for (g, a) under params, empty
    when it is one.

    A hitting certificate states its own ball radius and, in coarse mode,
    its threshold; neither may exceed the bound 256^k * d that params
    allows, a coarse certificate must state a threshold and a plain one
    must not.  A packing certificate holds at most k paths, which is
    checked before any search.  The rest is decided by the oracle module's
    verifiers.
    """
    if isinstance(cert, PackingCertificate):
        if len(cert.paths) > params.k:
            return [f"packing certificate holds {len(cert.paths)} paths, "
                    f"more than k={params.k}"]
        return packing_violations(g, a, cert.paths, params.k, params.d,
                                  params.coarse)
    out: list[str] = []
    if cert.radius > params.bound_g:
        out.append(f"ball radius {cert.radius} exceeds the bound {params.bound_g}")
    thr = cert.coarse_threshold
    if params.coarse and thr is None:
        out.append("coarse hitting certificate misses its threshold")
    elif not params.coarse and thr is not None:
        out.append("non-coarse hitting certificate states a coarse threshold")
    elif thr is not None and thr > params.bound_g:
        out.append(f"coarse threshold {thr} exceeds the bound {params.bound_g}")
    return out or hitting_violations(g, a, cert.x, cert.radius, params.bound_f, thr)

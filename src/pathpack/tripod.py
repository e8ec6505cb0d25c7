"""Junction construction: three far-apart tips joined to a small hub.

Given a connected region q and three tips v_1, v_2, v_3 that are close to q
but pairwise far from each other, this module builds a hub z of small radius
together with three connector regions p_i, one per tip, that touch z and stay
pairwise far apart.  The construction keeps a shrinking working state (a
"tripoid") and terminates because the working region loses at least one
vertex per round.

Cost: tripod() runs every round on one mutable copy of the state.  Each
closeness test has a geodesic of ell+1 vertices on one side, so it is a
disjointness test against an (ell-1)-ball around a geodesic, kept per leg.
Round 1 balls and tests every tail and every pair of geodesics.  A later
round tests only the moved leg's new end against the other legs' balls:
after a slide, whether the one vertex the slide added lies in them, and
after a rebuild, the whole new geodesic, which it then balls for the
tails.  A slide builds no ball; its leg's ball is brought up to date once,
when another leg moves.  Whether the moved leg slides is read off a
sphere that the leg keeps around the anchor where it last searched (see
_rounds): a slide round costs a membership test of that sphere against
the region and one BFS layer grown from it by graph._grow, ball's own
level loop, not time in the size of the tails or of the region, except
when removing a region endpoint that is not an induced leaf, which
searches the region left behind once (graph._take_component).  A depth-ell st_path from the anchor runs only
when the sphere meets the region, or the leg has no sphere yet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Union

from .errors import (InputError, InternalInvariantError, PreconditionError,
                     require)
from .graph import (Graph, UNREACHABLE, _connected, _grow, _take_component,
                    _two_balls, ball, dist, has_radius_at_most, is_path,
                    st_path)


class Leg(NamedTuple):
    """State for one tip: a tail path r from the tip r[0] to an anchor, and
    a geodesic b of fixed length from that anchor b[0] = r[-1] into the
    working region."""
    r: tuple[int, ...]
    b: tuple[int, ...]


@dataclass(frozen=True)
class Tripoid:
    """Working state of the junction construction.

    c is the current working region, a connected subset of q.  xi marks the
    leg whose geodesic is allowed to be close to the others.  Tip i is
    legs[i].r[0].  The remaining fields record the call context so the
    state is self-checking.
    """
    c: frozenset[int]
    xi: int
    legs: tuple[Leg, Leg, Leg]
    q: frozenset[int]
    ell: int
    d: int


@dataclass(frozen=True)
class TripodResult:
    z: frozenset[int]
    p: tuple[frozenset[int], frozenset[int], frozenset[int]]
    iterations: int = 0


def _foreign_ids(g: Graph, named: list[tuple[str, Iterable]]) -> list[str]:
    """One violation for each id in a named field that is not a vertex of
    g, named by the field; ids need not be hashable."""
    return list(dict.fromkeys(f"{name}: {v!r} is not a vertex of the graph"
                              for name, ids in named for v in g.foreign(ids)))


def _tripoid_fields(t: Tripoid) -> list[tuple[str, Iterable]]:
    """The id fields of t, each with its name."""
    named = [("working region", t.c), ("q", t.q)]
    return named + [(f"leg {i}", (*leg.r, *leg.b)) for i, leg in enumerate(t.legs)]


def check_tripoid(g: Graph, t: Tripoid) -> list[str]:
    """Violations of the tripoid invariants, empty when all hold.

    An id that is not a vertex of g is reported, and nothing is searched.
    """
    return _foreign_ids(g, _tripoid_fields(t)) or _violations(g, t)


def _violations(g: Graph, t: Tripoid) -> list[str]:
    """check_tripoid for a state whose ids are all vertices of g."""
    if not t.c:
        return ["working region is empty"]
    out: list[str] = []
    if not t.c <= t.q:
        out.append("working region leaves q")
    if not _connected(g, t.c):
        out.append("working region is not connected")
    return out + _leg_violations(g, t)


def _leg_violations(g: Graph, t: Tripoid) -> list[str]:
    """The violations of _violations that concern the legs, for a state
    whose ids are all vertices of g and whose working region is nonempty."""
    out: list[str] = []
    ell, d = t.ell, t.d
    ball_q = ball(g, t.q, ell)
    for i, leg in enumerate(t.legs):
        if not is_path(g, leg.r):
            out.append(f"leg {i}: tail is not a path")
            continue
        if dist(g, leg.r, t.c, cutoff=ell - 1) is not UNREACHABLE:
            out.append(f"leg {i}: tail comes closer than {ell} to the working region")
        if not is_path(g, leg.b):
            out.append(f"leg {i}: geodesic is not a path")
            continue
        if leg.b[0] != leg.r[-1]:
            out.append(f"leg {i}: geodesic does not start where the tail ends")
        if leg.b[-1] not in t.c:
            out.append(f"leg {i}: geodesic does not end in the working region")
        if len(leg.b) - 1 != ell:
            out.append(f"leg {i}: geodesic has length {len(leg.b) - 1}, expected {ell}")
        if any(x in t.c for x in leg.b[:-1]):
            out.append(f"leg {i}: geodesic re-enters the working region")
        if dist(g, {leg.b[0]}, t.c, cutoff=ell) != ell:
            out.append(f"leg {i}: anchor is not at distance exactly {ell} "
                       "from the working region")
        allowed = ball(g, {leg.r[0]}, d - ell - 1) | ball_q
        stray = set(leg.r) - allowed
        if stray:
            out.append(f"leg {i}: tail vertex {min(stray)} is neither near its "
                       "tip nor near q")
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            if j > i and dist(g, t.legs[i].r, t.legs[j].r, cutoff=ell - 1) is not UNREACHABLE:
                out.append(f"tails {i} and {j} come closer than {ell}")
            if j not in (i, t.xi):
                if dist(g, t.legs[i].r, t.legs[j].b, cutoff=ell - 1) is not UNREACHABLE:
                    out.append(f"tail {i} comes closer than {ell} to geodesic {j}")
    return out


def init_tripoid(g: Graph, vs: tuple[int, int, int], q: frozenset[int],
                 ell: int, d: int) -> Tripoid:
    """Initial tripoid from shortest tip-to-q paths.

    Preconditions checked here: ell >= 1, d >= 1, q nonempty and connected,
    and for each tip ell <= dist(tip, q) <= d with tips pairwise at distance
    at least 2*d.
    """
    if ell < 1 or d < 1:
        raise PreconditionError(f"need ell >= 1 and d >= 1, got ell={ell}, d={d}")
    for v in vs:
        g.check_vertex(v)
    if len(set(vs)) != 3:
        raise PreconditionError(f"tips must be three distinct vertices, got {vs}")
    q = g.check_vertex_set(q)
    if not q:
        raise PreconditionError("q must be nonempty")
    if not _connected(g, q):
        raise PreconditionError("q must be connected")
    legs = []
    for v in vs:
        s = st_path(g, {v}, q)
        dv = UNREACHABLE if s is None else len(s) - 1
        if dv < ell:
            raise PreconditionError(
                f"tip {v} is at distance {dv} < ell={ell} from q")
        if dv > d:
            raise PreconditionError(
                f"tip {v} is at distance {dv} > d={d} from q")
        cut = dv - ell
        legs.append(Leg(r=s[:cut + 1], b=s[cut:]))
    for i in range(3):
        for j in range(i + 1, 3):
            dij = dist(g, {vs[i]}, {vs[j]}, cutoff=2 * d - 1)
            if dij is not UNREACHABLE:
                raise PreconditionError(
                    f"tips {vs[i]} and {vs[j]} are at distance {dij} < 2*d={2 * d}")
    t = Tripoid(c=q, xi=0, legs=(legs[0], legs[1], legs[2]), q=q, ell=ell, d=d)
    # the ids were screened and q searched above, and the legs are paths
    # that st_path found in g, so only the leg facts are left to check
    bad = _leg_violations(g, t)
    require(not bad, "initial tripoid invalid: " + "; ".join(bad))
    return t


def _result(z: frozenset[int], tail_sets: list[set[int]],
            bs: list[tuple[int, ...]], c: set[int], rest: int) -> TripodResult:
    """Hub z with one connector per tail; the connector of leg rest also
    takes its geodesic and the working region."""
    p = [frozenset(tail) for tail in tail_sets]
    p[rest] = p[rest] | frozenset(bs[rest]) | c
    return TripodResult(z=z, p=(p[0], p[1], p[2]))


def _rounds(g: Graph, t: Tripoid,
            limit: int) -> tuple[Union[TripodResult, Tripoid], int]:
    """Run rounds from t until one finishes or limit rounds have run.

    Returns the result and the number of rounds it took, or the state after
    limit rounds and limit.  The rounds work on a mutable copy of t: the
    region is a set, each tail a list with a membership set, each anchor
    the first vertex of its leg's geodesic, and near[j] is an (ell-1)-ball
    around geodesic j, so every closeness test is a disjointness test
    against a ball.

    Round 1 tests every tail and every pair of geodesics, since t comes
    from a caller.  A round that does not finish leaves every tail at least
    ell from every other geodesic and the geodesics pairwise at least ell
    apart, and then moves one leg, which becomes xi.  So a later round
    tests only leg xi: its geodesic against near[j] of the other two legs,
    and after a rebuild near[xi] against the other tails.  When the leg
    slid, its geodesic b[1:] + (m,) shares b[1:] with the geodesic just
    found far from everything, and its tail gained b[1], so only m is
    tested; m is a region vertex, which every tail stays ell away from, so
    no tail is tested.  A slide leaves near[xi] as it was, and it is
    rebuilt around the whole geodesic when another leg moves, so near[j]
    is up to date for every leg but a sliding xi.

    Whether leg alpha slides, that is whether its anchor a is more than
    ell from the shrunk region, is read off a sphere chain where the leg
    has one.  A depth-ell st_path from a that finds nothing starts the
    chain at o = a: reached[alpha] holds the leg's tail, which ends at o,
    and the vertices within ell + s of o in g minus the tail, grown layer
    by layer by graph._grow, and sphere[alpha] the last layer, at exactly
    ell + s, where s counts the leg's slides since o.  reached starts as
    a copy of the tail, and each vertex that joins the tail joins reached
    too, so no layer enters the tail.  The chain starts with ell layers,
    before the slide's step joins the tail, and each slide grows one
    more.  Call inside the reached vertices in neither the tail nor the
    sphere.  Then:

    - No region vertex lies inside.  At the start the search found none
      within ell of o, a layer joins inside only when the region misses
      it, and the region only shrinks.
    - a is at most s steps from o, along the geodesics it slid on; a
      rebuild keeps the anchor and the chain.
    - The tail only grows, so g minus the tail when a layer was grown
      contains g minus the tail now.  A step of the walk from o to a is
      closer than ell to the region when the leg slides onto it, so it
      was in no earlier tail, and it is reached, at depth at most its
      step count, before it joins the tail.  A shortest path from a to a
      region vertex x, of length at most ell, has every vertex after a
      closer than ell to the region, so none is in the tail now, nor was
      when a layer was grown.

    So d(a, x) <= ell would give a walk of length at most s + ell from o
    to x in the chain's graph, putting x in reached and, since no region
    vertex is in the tail, by the first point in the sphere.  Hence when
    the region misses the sphere, a is more than ell from it and the round
    slides with no search.  Otherwise it runs the depth-ell st_path from
    a; a slide restarts the chain at a, and a rebuild keeps it.  The
    chain answers "slide" only where that search would find nothing, so
    rounds and results are those of searching every round.  A slide
    costs a membership test of the sphere and one layer, O(1) vertices on
    a spider leg; a slide that a search decides also pays the search, a
    copy of the tail and the chain's ell starting layers.
    """
    ell = t.ell
    adj = g.adj
    c = set(t.c)
    xi = t.xi
    tails = [list(leg.r) for leg in t.legs]
    tail_sets = [set(leg.r) for leg in t.legs]
    bs = [leg.b for leg in t.legs]
    near = [ball(g, b, ell - 1) for b in bs]
    reached: list[set[int] | None] = [None, None, None]
    sphere: list[list[int] | None] = [None, None, None]
    slid = False

    for rounds in range(1, limit + 1):
        # a tail near geodesic xi finishes with hub = that geodesic plus a
        # link; a slide only adds a region vertex, which no tail is near
        for alpha in range(3):
            if slid or alpha == xi or near[xi].isdisjoint(tail_sets[alpha]):
                continue
            link = st_path(g, tail_sets[alpha], bs[xi])
            require(link is not None and len(link) - 1 < ell,
                    f"no link shorter than {ell} from tail {alpha} to geodesic {xi}")
            z = frozenset(bs[xi]) | frozenset(link)
            return _result(z, tail_sets, bs, c, 3 - alpha - xi), rounds

        # with the previous case exhausted, no tail is near any geodesic;
        # later rounds keep this by construction (see the docstring)
        if rounds == 1:
            require(all(i == j or near[j].isdisjoint(tail_sets[i])
                        for i in range(3) for j in range(3)),
                    "a tail is near a geodesic after the near-xi scan")

        # two close geodesics finish with hub = both geodesics plus a link;
        # after round 1 only the pairs holding xi can have come close, and
        # after a slide only through the vertex it added
        moved = bs[xi][-1:] if slid else bs[xi]
        for alpha, beta in ((0, 1), (0, 2), (1, 2)):
            if xi == alpha or xi == beta:
                if near[alpha + beta - xi].isdisjoint(moved):
                    continue
            elif rounds > 1 or near[alpha].isdisjoint(bs[beta]):
                continue
            link = st_path(g, bs[alpha], bs[beta])
            require(link is not None and len(link) - 1 < ell,
                    f"no link shorter than {ell} between geodesics "
                    f"{alpha} and {beta}")
            z = frozenset(bs[alpha]) | frozenset(bs[beta]) | frozenset(link)
            return _result(z, tail_sets, bs, c, 3 - alpha - beta), rounds

        # shrink: some region endpoint c_alpha separates the other two
        cs = [b[-1] for b in bs]
        require(len(set(cs)) == 3,
                "region endpoints coincide although no geodesic pair is close")
        size = len(c)
        require(size >= 3, "working region too small for three distinct endpoints")
        for alpha, beta, gamma in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
            end = cs[alpha]
            c.discard(end)
            cand = [u for u in adj[end] if u in c]
            if len(cand) <= 1:
                # removing an induced leaf keeps the region connected
                break
            # keep c_beta's component, if it holds c_gamma too
            cut = set(c)
            _take_component(adj, cs[beta], cut)
            if cs[gamma] not in cut:
                c -= cut
                cand = [u for u in cand if u in c]
                break
            c.add(end)
        else:
            raise InternalInvariantError(
                "no region endpoint leaves the other two connected")

        if slid and alpha != xi:
            near[xi] = ball(g, bs[xi], ell - 1)
        slid = sphere[alpha] is not None and c.isdisjoint(sphere[alpha])
        if not slid:
            b_new = st_path(g, bs[alpha][:1], c, cutoff=ell)
            slid = b_new is None
            if slid:
                # restart the chain at the anchor the search just decided;
                # holding the tail, which ends there, keeps layers out of it
                reached[alpha] = set(tail_sets[alpha])
                sphere[alpha] = _grow(adj, reached[alpha], [bs[alpha][0]], ell)
        if slid:
            # the anchor is now farther than ell: slide it one step along
            # b, and the leg's sphere one layer out
            require(bool(cand), "new region has no neighbor of the removed endpoint")
            sphere[alpha] = _grow(adj, reached[alpha], sphere[alpha], 1)
            w2 = bs[alpha][1]
            tails[alpha].append(w2)
            tail_sets[alpha].add(w2)
            reached[alpha].add(w2)
            m = min(cand)
            bs[alpha] = bs[alpha][1:] + (m,)
        else:
            require(len(b_new) - 1 >= ell,
                    f"anchor {bs[alpha][0]} is closer than {ell} to the new region")
            bs[alpha] = b_new
            near[alpha] = ball(g, b_new, ell - 1)
        xi = alpha
        require(len(c) < size, "working region did not shrink")

    legs = [Leg(r=tuple(tails[i]), b=bs[i]) for i in range(3)]
    return Tripoid(c=frozenset(c), xi=xi, legs=(legs[0], legs[1], legs[2]),
                   q=t.q, ell=ell, d=t.d), limit


def tripod_step(g: Graph, t: Tripoid) -> Union[TripodResult, Tripoid]:
    """One round: either finish with a result or shrink the working region.

    Finishing happens when some tail or some pair of geodesics comes within
    ell of geodesic xi or of each other; otherwise the leg whose region
    endpoint separates the other two hands over a smaller region.
    Raises InputError for a vertex outside g, as init_tripoid does, and
    PreconditionError naming the first violated invariant of t.
    """
    foreign = _foreign_ids(g, _tripoid_fields(t))
    if foreign:
        raise InputError(f"invalid tripoid: {foreign[0]}")
    bad = _violations(g, t)
    if bad:
        raise PreconditionError(f"invalid tripoid: {bad[0]}")
    return _rounds(g, t, 1)[0]


def check_tripod_result(g: Graph, vs: tuple[int, int, int], q: frozenset[int],
                        ell: int, d: int, res: TripodResult) -> list[str]:
    """Violations of the five output guarantees, empty when all hold.

    An id that is not a vertex of g is reported, and nothing is searched.
    """
    named = [("tips", vs), ("q", q), ("hub", res.z)]
    named += [(f"connector {i}", p) for i, p in enumerate(res.p)]
    return _foreign_ids(g, named) or _result_violations(g, vs, q, ell, d, res)


def _result_violations(g: Graph, vs: tuple[int, int, int], q: frozenset[int],
                       ell: int, d: int, res: TripodResult) -> list[str]:
    """check_tripod_result for a result whose ids are all vertices of g."""
    out: list[str] = []
    if not _connected(g, res.z):
        out.append("hub is not connected")
    elif not has_radius_at_most(g, res.z, (3 * ell) // 2):
        out.append(f"hub radius exceeds {(3 * ell) // 2}")
    ball_q, hub_ball = _two_balls(g, q, ell, 2 * ell - 1)
    if not res.z <= hub_ball:
        out.append(f"hub leaves the ({2 * ell - 1})-ball around q")
    for i in range(3):
        pi = res.p[i]
        if vs[i] not in pi:
            out.append(f"connector {i} misses its tip {vs[i]}")
        if not (res.z & pi):
            out.append(f"connector {i} does not touch the hub")
        if not _connected(g, pi):
            out.append(f"connector {i} is not connected")
        allowed = ball(g, {vs[i]}, d - ell - 1) | ball_q
        stray = pi - allowed
        if stray:
            out.append(f"connector {i} contains stray vertex {min(stray)}")
        for j in range(i + 1, 3):
            if dist(g, pi, res.p[j], cutoff=ell - 1) is not UNREACHABLE:
                out.append(f"connectors {i} and {j} come closer than {ell}")
    return out


def tripod(g: Graph, vs: tuple[int, int, int], q: frozenset[int],
           ell: int, d: int) -> TripodResult:
    """Run the junction construction to completion.

    Returns a hub z of radius at most floor(1.5*ell) inside the
    (2*ell-1)-ball around q, and three connectors p_i with v_i in p_i,
    each touching z, pairwise at distance at least ell.  Raises
    PreconditionError if the tip hypotheses fail.
    """
    state = init_tripoid(g, vs, q, ell, d)
    # every round but the last removes a vertex of the region, so a correct
    # run finishes well within |q| + 2 rounds
    out, iterations = _rounds(g, state, len(state.q) + 2)
    require(isinstance(out, TripodResult), "junction construction failed to terminate")
    res = TripodResult(z=out.z, p=out.p, iterations=iterations)
    bad = _result_violations(g, tuple(vs), frozenset(q), ell, d, res)
    require(not bad, "junction output check failed: " + "; ".join(bad))
    return res

import dataclasses
import importlib
import random
from collections import Counter

import pytest

from helpers import generated_tripod_instances, path_graph
from pathpack import (Graph, InputError, PreconditionError, SolveParams, ball,
                      dist, make_instance, solve, st_path)
from pathpack.graph import UNREACHABLE
from pathpack.tripod import (
    Leg,
    TripodResult,
    check_tripod_result,
    check_tripoid,
    init_tripoid,
    tripod,
    tripod_step,
)


def spider_instance():
    """Core path 100..104 with three chains of length 6 hanging at
    100, 102 and 104; tips are the chain ends."""
    edges = [(100 + i, 101 + i) for i in range(4)]
    for base, at in ((0, 100), (10, 102), (20, 104)):
        edges.append((at, base))
        edges += [(base + i, base + i + 1) for i in range(5)]
    g = Graph(105, edges)
    q = frozenset(range(100, 105))
    return g, (5, 15, 25), q, 2, 6


def hanging_tip_instance():
    """Path-shaped core with two end tips and one tip on a stalk."""
    edges = [(i, i + 1) for i in range(40)] + [(41, 42), (42, 20)]
    g = Graph(43, edges)
    q = frozenset(range(10, 31))
    return g, (7, 33, 41), q, 1, 3


def cycle_core_instance():
    """Core is a 12-cycle; three tips hang on stalks of length 2."""
    edges = [(i, (i + 1) % 12) for i in range(12)]
    edges += [(12, 13), (13, 0), (14, 15), (15, 4), (16, 17), (17, 8)]
    g = Graph(18, edges)
    q = frozenset(range(12))
    return g, (12, 14, 16), q, 1, 2


def prong_instance():
    """Long path region with the third tip behind a bottleneck, so the
    working region shrinks one vertex at a time."""
    edges = [(i, i + 1) for i in range(400)]
    edges += [(401, 402), (402, 403), (403, 404), (404, 200)]
    g = Graph(405, edges)
    q = frozenset(range(3, 398))
    return g, (0, 400, 401), q, 1, 4


def random_core_instance(rng):
    """A random connected core, a random tree plus chords, with three tips
    on stalks of length d at distinct core vertices.  Unlike the path and
    star cores of acceptance criterion 5, these cores have cycles and
    branchings, so regions are cut into components and geodesics are
    rebuilt."""
    ell = rng.randint(1, 4)
    d = rng.randint(ell, 4 * ell)
    size = rng.randint(3, 40)
    edges = [(v, rng.randrange(v)) for v in range(1, size)]
    edges += [tuple(rng.sample(range(size), 2)) for _ in range(rng.randint(0, size))]
    nxt = size
    tips = []
    for at in rng.sample(range(size), 3):
        prev = at
        for _ in range(d):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        tips.append(prev)
    return Graph(nxt, edges), tuple(tips), frozenset(range(size)), ell, d


def fork_instance(shortcut):
    """Path 0..6 forking at 6 into 7-8-9 and 10-11-12; tip 16 hangs at 0,
    tip 20 at 9 through anchor 18, tip 23 at 12; ell = 2.  Leg 0 slides
    along the path until its region end is the fork, where leg 1's end 9
    is removed instead.  Vertex 19 joins anchor 18 to 8 and to the path
    vertex `shortcut`, so leg 1's geodesic is rebuilt as 18-19-8, and the
    next round finishes on 19's neighbour `shortcut`, which is then leg 0's
    anchor (4) or the middle of leg 0's geodesic (5)."""
    edges = [(i, i + 1) for i in range(6)]
    edges += [(6, 7), (7, 8), (8, 9), (6, 10), (10, 11), (11, 12)]
    edges += [(0, 14), (14, 15), (15, 16)]
    edges += [(9, 17), (17, 18), (18, 20), (18, 19), (19, 8), (19, shortcut)]
    edges += [(12, 21), (21, 22), (22, 23)]
    return Graph(24, edges), (16, 20, 23), frozenset(range(13)), 2, 3


def near_tail_instance():
    """A rebuilt geodesic comes within ell of another leg's tail."""
    return fork_instance(4)


def near_geodesic_instance():
    """A rebuilt geodesic of leg 1 comes within ell of leg 0's geodesic,
    away from the end that leg 0's last slide added."""
    return fork_instance(5)


ALL_INSTANCES = [spider_instance, hanging_tip_instance, cycle_core_instance,
                 prong_instance, near_tail_instance, near_geodesic_instance]


def shrink_branches(g, before, after):
    """The two branches of the round that turned tripoid before into
    after: how the region shrank and how the moved leg's geodesic
    followed."""
    alpha = after.xi
    end = before.legs[alpha].b[-1]
    leaf = sum(1 for u in g.adj[end] if u in before.c) <= 1
    slid = after.legs[alpha].b[0] != before.legs[alpha].b[0]
    return ("leaf removal" if leaf else "component replacement",
            "geodesic slide" if slid else "geodesic rebuild")


def finish_kind(g, t):
    """How the round from tripoid t finishes: "near xi" when a tail comes
    within ell of geodesic xi, else "pair", or "pair, xi higher" when xi
    is the higher index of the first close pair of geodesics."""
    def close(x, y):
        return dist(g, x, y, cutoff=t.ell - 1) is not UNREACHABLE
    b_xi = t.legs[t.xi].b
    if any(close(leg.r, b_xi) for i, leg in enumerate(t.legs) if i != t.xi):
        return "near xi"
    beta = next(beta for alpha, beta in ((0, 1), (0, 2), (1, 2))
                if close(t.legs[alpha].b, t.legs[beta].b))
    return "pair, xi higher" if beta == t.xi else "pair"


def run_stepwise(g, vs, q, ell, d):
    """Drive the construction one step at a time, revalidating the
    invariants after every step.  Returns the result, the step count, the
    set of shrink branches taken (with "leg change after a slide" when a
    round moves another leg than the round before, which slid) and how the
    run finished: the finish kind, and the geodesic branch of the round
    before (None if the first round finished)."""
    state = init_tripoid(g, vs, q, ell, d)
    assert check_tripoid(g, state) == []
    steps = 0
    branches = set()
    last = None
    while True:
        nxt = tripod_step(g, state)
        steps += 1
        assert steps <= len(q) + 1
        if isinstance(nxt, TripodResult):
            assert check_tripod_result(g, vs, frozenset(q), ell, d, nxt) == []
            return nxt, steps, branches, (finish_kind(g, state), last)
        assert check_tripoid(g, nxt) == []
        moves = shrink_branches(g, state, nxt)
        branches.update(moves)
        if last == "geodesic slide" and nxt.xi != state.xi:
            branches.add("leg change after a slide")
        last = moves[1]
        state = nxt


@pytest.mark.parametrize("build", ALL_INSTANCES)
def test_stepwise_invariants(build):
    g, vs, q, ell, d = build()
    res, steps, _, _ = run_stepwise(g, vs, q, ell, d)
    assert steps <= len(q)


def assert_driver_matches_stepwise(g, vs, q, ell, d):
    """tripod() runs all its rounds in one _rounds call, and tests in a
    round after the first only what the round before moved; tripod_step
    runs each round as a first round, testing everything.  Returns the
    shrink branches taken and how the run finished (see run_stepwise)."""
    res = tripod(g, vs, q, ell, d)
    manual, steps, branches, finish = run_stepwise(g, vs, q, ell, d)
    assert res.z == manual.z
    assert res.p == manual.p
    assert res.iterations == steps
    assert res.iterations <= len(q)
    return branches, finish


@pytest.mark.parametrize("build", ALL_INSTANCES)
def test_driver_matches_stepwise(build):
    assert_driver_matches_stepwise(*build())


def differential_instances():
    """The 200 instances of acceptance criterion 5, 100 random cores and
    the two fork instances."""
    instances = list(generated_tripod_instances())
    instances += [random_core_instance(random.Random(seed)) for seed in range(100)]
    instances += [near_tail_instance(), near_geodesic_instance()]
    return instances


def test_driver_matches_stepwise_on_generated():
    """The batched rounds of tripod() agree with stepping on the 200
    instances of acceptance criterion 5, on 100 random cores and on the
    two fork instances.  The criterion 5 instances only remove leaves and
    slide geodesics; the random cores take the other two shrink branches
    too.  Past round 1 the batched rounds test only the moved leg, so the
    runs must also finish, after more than one round, in each way that
    leans on that: a tail near the moved geodesic (near_tail_instance), a
    close pair whose higher index moved, and a finish right after a
    rebuilt geodesic (both fork instances).  A leg that slid keeps a
    stale ball until another leg moves, so the runs must also move another
    leg right after a slide."""
    branches = set()
    finishes = set()
    for instance in differential_instances():
        taken, (kind, last) = assert_driver_matches_stepwise(*instance)
        branches |= taken
        if last is not None:
            finishes |= {kind, "after " + last}
    assert branches == {"leaf removal", "component replacement",
                        "geodesic slide", "geodesic rebuild",
                        "leg change after a slide"}
    assert {"near xi", "pair, xi higher", "after geodesic rebuild"} <= finishes


def record_round_balls(monkeypatch):
    """Record the sources of every (ell-1)-ball that tripod's rounds
    build, one list per tripod call, with the call's result."""
    module = importlib.import_module("pathpack.tripod")
    real_ball = module.ball
    runs = []

    def recording_ball(g, x, r):
        x = tuple(x)
        if runs and r == runs[-1][0] - 1:
            runs[-1][1].append(x)
        return real_ball(g, x, r)

    def recording_tripod(g, vs, q, ell, d):
        runs.append([ell, [], None])
        runs[-1][2] = tripod(g, vs, q, ell, d)
        return runs[-1][2]

    monkeypatch.setattr(module, "ball", recording_ball)
    monkeypatch.setattr(importlib.import_module("pathpack.augment"), "tripod",
                        recording_tripod)
    return runs, recording_tripod


@pytest.mark.parametrize("case", ["prong", "spider 5000", "fork"])
def test_slide_rounds_build_no_ball(monkeypatch, case):
    """Round 1 balls the three geodesics.  A slide builds no ball: the
    next round tests the one vertex it added against the other legs'
    balls.  So every round of the prong and spider runs, which all slide
    one leg, builds no ball after round 1.  In the fork run, leg 0 slides
    six times and leg 1 is then rebuilt: that round balls leg 0's whole
    geodesic once, to catch up on its slides, and leg 1's new geodesic.
    The round counts are those of the full tests."""
    runs, run = record_round_balls(monkeypatch)
    if case == "prong":
        run(*prong_instance())
        want = 198
    elif case == "spider 5000":
        g, a = make_instance("spider", 5000)
        solve(g, a, SolveParams(2, 1))
        want = 1187
    else:
        run(*near_geodesic_instance())
        want = 8
    assert len(runs) == 1
    ell, balls, res = runs[0]
    assert res.iterations == want
    if case != "fork":
        assert [len(x) for x in balls] == [ell + 1] * 3
    else:
        assert balls == [(15, 14, 0), (18, 17, 9), (22, 21, 12),
                         (4, 5, 6), (18, 19, 8)]


def record_anchor_searches(monkeypatch):
    """Record every anchor search of tripod's rounds, the only st_path
    calls there with a cutoff, as ("search", anchor, found), and every
    sphere chain growth, as ("grow", reached set, levels), in one list per
    _rounds call with its ell."""
    module = importlib.import_module("pathpack.tripod")
    runs = []

    def st_path(g, s, t, *, cutoff=None, _fn=module.st_path):
        path = _fn(g, s, t, cutoff=cutoff)
        if cutoff is not None:
            runs[-1][1].append(("search", *s, path is not None))
        return path

    def grow(adj, seen, frontier, r, _fn=module._grow):
        runs[-1][1].append(("grow", seen, r))
        return _fn(adj, seen, frontier, r)

    def rounds(g, t, limit, _fn=module._rounds):
        runs.append((t.ell, []))
        return _fn(g, t, limit)

    monkeypatch.setattr(module, "st_path", st_path)
    monkeypatch.setattr(module, "_grow", grow)
    monkeypatch.setattr(module, "_rounds", rounds)
    return runs


@pytest.mark.parametrize("case", ["prong", "spider 5000"])
def test_slides_search_only_where_the_sphere_meets_the_region(monkeypatch, case):
    """A slide whose leg's sphere misses the region runs no search.  The
    prong run's 198 rounds and the spider run's 1,187 all shrink by
    sliding one leg but the last, which finishes; each run makes one
    anchor search, in round 1, whose slide starts the leg's sphere chain
    with one ell-level grow.  Each slide then grows the chain one level."""
    runs = record_anchor_searches(monkeypatch)
    if case == "prong":
        tripod(*prong_instance())
        rounds = 198
    else:
        g, a = make_instance("spider", 5000)
        solve(g, a, SolveParams(2, 1))
        rounds = 1187
    assert len(runs) == 1
    ell, events = runs[0]
    assert events[0][0] == "search" and not events[0][-1]
    chain = events[1][1]
    assert events[1:] == ([("grow", chain, ell)]
                          + [("grow", chain, 1)] * (rounds - 1))


def chain_outcomes(runs, results) -> Counter:
    """The ways the recorded rounds of tripod runs, with their results,
    decided a leg with a live sphere chain.  A chain is its reached set:
    its first grow, ell levels, starts it for a slide that a search
    decided, which then grows it one level, and each later grow is a
    slide with no search.  A search's leg is the connector that holds its
    anchor, since the anchor is in the leg's tail and the connectors are
    disjoint; a reached set may also hold another leg's anchor, so it does
    not name the leg.  Every search that finds nothing starts its leg's
    chain, and a later search of that leg is from a live chain."""
    outcomes = Counter()
    for (_, events), res in zip(runs, results, strict=True):
        chains = []
        chained = set()
        for kind, *rest in events:
            if kind == "grow":
                if any(rest[0] is x for x in chains):
                    outcomes["chain slide"] += 1
                else:
                    chains.append(rest[0])
                continue
            anchor, found = rest
            (leg,) = [i for i, p in enumerate(res.p) if anchor in p]
            if leg in chained:
                outcomes["rebuild" if found else "searched slide"] += 1
            if not found:
                chained.add(leg)
        # the one-level grow that follows each start is its searched slide
        outcomes["chain slide"] -= len(chains)
    return outcomes


def test_chain_outcomes_on_the_differential_instances(monkeypatch):
    """The instances that test_driver_matches_stepwise_on_generated runs
    reach each way a round decides a leg that has a live sphere chain: a
    slide with no search (its sphere misses the region), a slide that a
    search decides (the sphere meets the region, the anchor is still
    farther than ell; the chain restarts), and a rebuild (the chain is
    kept)."""
    runs = record_anchor_searches(monkeypatch)
    results = [tripod(*instance) for instance in differential_instances()]
    outcomes = chain_outcomes(runs, results)
    assert min(outcomes[k] for k in ("chain slide", "searched slide", "rebuild")) > 0


def test_chains_spare_all_but_295_searches_on_the_differential_instances(monkeypatch):
    """The sphere chains leave 295 anchor searches to the differential
    instances.  A chain grown into its leg's tail still answers soundly,
    since d(o, x) <= s + d(a, x) holds in g as well, but it meets the
    region sooner and searches 296 times; holding the tail in reached
    keeps it out."""
    runs = record_anchor_searches(monkeypatch)
    for instance in differential_instances():
        tripod(*instance)
    assert sum(kind == "search" for _, events in runs for kind, *_ in events) == 295


def test_spider_frozen_outcome():
    g, vs, q, ell, d = spider_instance()
    res = tripod(g, vs, q, ell, d)
    assert res.z == frozenset({0, 10, 11, 100, 101, 102})
    assert res.iterations == 2


def test_deterministic():
    g, vs, q, ell, d = cycle_core_instance()
    a = tripod(g, vs, q, ell, d)
    b = tripod(g, vs, q, ell, d)
    assert a == b


def test_init_tripoid_structure():
    g, vs, q, ell, d = spider_instance()
    t = init_tripoid(g, vs, q, ell, d)
    assert t.c == q
    assert t.q == q
    for i, leg in enumerate(t.legs):
        assert leg.r[0] == vs[i]
        assert len(leg.b) == ell + 1
        assert leg.b[0] == leg.r[-1]


def test_init_tripoid_searches_q_once(monkeypatch):
    """The constructor checks that q is connected and then leaves that
    fact, and its id screens, out of its self-check."""
    module = importlib.import_module("pathpack.tripod")
    searched = []

    def _connected(g, sub, _fn=module._connected):
        searched.append(frozenset(sub))
        return _fn(g, sub)

    monkeypatch.setattr(module, "_connected", _connected)
    g, vs, q, ell, d = spider_instance()
    t = init_tripoid(g, vs, q, ell, d)
    assert searched == [q]
    assert check_tripoid(g, t) == []


class TestPreconditions:
    def test_bad_scale(self):
        g, vs, q, _, d = spider_instance()
        with pytest.raises(PreconditionError):
            init_tripoid(g, vs, q, 0, d)

    def test_tips_not_distinct(self):
        g, _, q, ell, d = spider_instance()
        with pytest.raises(PreconditionError):
            init_tripoid(g, (5, 5, 15), q, ell, d)

    def test_core_empty(self):
        g, vs, _, ell, d = spider_instance()
        with pytest.raises(PreconditionError):
            init_tripoid(g, vs, frozenset(), ell, d)

    def test_core_disconnected(self):
        g, vs, _, ell, d = spider_instance()
        with pytest.raises(PreconditionError):
            init_tripoid(g, vs, frozenset({100, 102}), ell, d)

    def test_tip_too_close(self):
        g, _, q, ell, d = spider_instance()
        # vertex 0 sits right next to the core
        with pytest.raises(PreconditionError):
            init_tripoid(g, (0, 15, 25), q, ell, d)

    def test_tip_too_far(self):
        g, vs, q, ell, _ = spider_instance()
        with pytest.raises(PreconditionError):
            init_tripoid(g, vs, q, ell, 5)

    def test_tips_mutually_close(self):
        g, _, q, ell, d = spider_instance()
        # dist(3, 13) = 10 < 2*d = 12
        with pytest.raises(PreconditionError):
            init_tripoid(g, (3, 13, 25), q, ell, d)

    def test_tip_that_cannot_reach_the_core(self):
        g, vs, q, ell, d = spider_instance()
        g = Graph(106, g.edges())
        with pytest.raises(PreconditionError, match="distance inf > d"):
            init_tripoid(g, (5, 15, 105), q, ell, d)

    def test_driver_propagates(self):
        g, vs, q, ell, d = spider_instance()
        with pytest.raises(PreconditionError):
            tripod(g, vs, q, 0, d)

    @pytest.mark.parametrize("break_state, message", [
        (lambda t: dataclasses.replace(t, c=frozenset()),
         "working region is empty"),
        (lambda t: dataclasses.replace(t, legs=(
            t.legs[0], t.legs[1], Leg(r=(30,), b=t.legs[2].b))),
         "leg 2: geodesic does not start where the tail ends")])
    def test_step_refuses_an_invalid_state(self, break_state, message):
        """tripod_step checks its state as init_tripoid leaves it: an
        empty region, or a leg whose geodesic does not start where its tail
        ends, would otherwise come back as a result with a broken
        connector."""
        g, _ = make_instance("spider", 41)
        t = init_tripoid(g, (10, 20, 30), frozenset({0}), 2, 10)
        with pytest.raises(PreconditionError, match=f"invalid tripoid: {message}"):
            tripod_step(g, break_state(t))

    @pytest.mark.parametrize("break_state", [
        lambda t: dataclasses.replace(t, c=frozenset({0, 100})),
        lambda t: dataclasses.replace(t, q=frozenset({0, -1})),
        lambda t: dataclasses.replace(t, legs=(
            *t.legs[:2], t.legs[2]._replace(r=(99,) + t.legs[2].r[1:]))),
        lambda t: dataclasses.replace(t, legs=(
            t.legs[0], t.legs[1]._replace(b=t.legs[1].b[:1] + (999,)),
            t.legs[2])),
        lambda t: dataclasses.replace(
            t, legs=(t.legs[0]._replace(r=(-1,) + t.legs[0].r), *t.legs[1:])),
        lambda t: dataclasses.replace(
            t, legs=(*t.legs[:2], t.legs[2]._replace(b=t.legs[2].b + (41,)))),
        lambda t: dataclasses.replace(
            t, legs=(t.legs[0]._replace(r=([1],) + t.legs[0].r), *t.legs[1:]))])
    def test_step_refuses_ids_outside_the_graph(self, break_state):
        """-1 would index the last vertex, and 41 or more no vertex; a tip,
        any other tail id and a geodesic id are screened alike, and so is
        an unhashable one."""
        g, _ = make_instance("spider", 41)
        t = init_tripoid(g, (10, 20, 30), frozenset({0}), 2, 10)
        with pytest.raises(InputError):
            tripod_step(g, break_state(t))

    @pytest.mark.parametrize("break_state, message", [
        (lambda t: dataclasses.replace(t, c=frozenset({0, 100})),
         "working region: 100 is not a vertex of the graph"),
        (lambda t: dataclasses.replace(t, q=frozenset({0, -1})),
         "q: -1 is not a vertex of the graph"),
        (lambda t: dataclasses.replace(t, legs=(
            *t.legs[:2], t.legs[2]._replace(b=t.legs[2].b + (41,)))),
         "leg 2: 41 is not a vertex of the graph"),
        (lambda t: dataclasses.replace(t, legs=(
            t.legs[0]._replace(r=([1],) + t.legs[0].r), *t.legs[1:])),
         "leg 0: [1] is not a vertex of the graph")])
    def test_check_reports_ids_outside_the_graph(self, break_state, message):
        """check_tripoid reports an id outside the graph and searches
        nothing: a region id of 100 would raise IndexError in the region
        search, and q = {0, -1} would pass, since -1 indexes vertex 40."""
        g, _ = make_instance("spider", 41)
        t = init_tripoid(g, (10, 20, 30), frozenset({0}), 2, 10)
        assert g.n == 41 and check_tripoid(g, t) == []
        assert check_tripoid(g, break_state(t)) == [message]

    def test_tail_that_ends_off_its_geodesic_is_one_violation(self):
        """The anchor is stored once, as the geodesic's first vertex, so a
        tail that stops one vertex short of it breaks one invariant, and
        check_tripoid reports it once."""
        g, _ = make_instance("spider", 41)
        t = init_tripoid(g, (10, 20, 30), frozenset({0}), 2, 10)
        leg = t.legs[2]
        short = dataclasses.replace(
            t, legs=(*t.legs[:2], leg._replace(r=leg.r[:-1])))
        assert check_tripoid(g, short) == [
            "leg 2: geodesic does not start where the tail ends"]


@pytest.mark.parametrize("hub", [frozenset(), frozenset({0, 20})])
def test_bad_hub_is_reported_not_raised(hub):
    # an empty or disconnected hub has no radius, so none is checked
    g, vs, q, ell, d = spider_instance()
    good = tripod(g, vs, q, ell, d)
    out = check_tripod_result(g, vs, q, ell, d, TripodResult(z=hub, p=good.p))
    assert "hub is not connected" in out
    assert not any("radius" in msg for msg in out)


@pytest.mark.parametrize("ell", [-1, 0, 1, 2, 3])
@pytest.mark.parametrize("hub", [{104}, {2}, {3}])
def test_hub_ball_is_the_public_ball(hub, ell):
    # on the spider core q = 100..104, chain vertex j hangs j + 1 edges
    # from 100; the hub is reported exactly when it leaves the public
    # (2*ell - 1)-ball, which is empty for ell < 1
    g, vs, q, _, d = spider_instance()
    good = tripod(g, vs, q, 2, d)
    out = check_tripod_result(g, vs, q, ell, d,
                              TripodResult(z=frozenset(hub), p=good.p))
    leaves = f"hub leaves the ({2 * ell - 1})-ball around q"
    assert (leaves in out) == (not hub <= ball(g, q, 2 * ell - 1))


def test_long_slide_iteration_count():
    # the bottleneck instance walks the region end one vertex per step
    g, vs, q, ell, d = prong_instance()
    res = tripod(g, vs, q, ell, d)
    assert res.iterations <= len(q)
    assert res.iterations > 10


def test_short_geodesic_matches_st_path():
    # the rounds' depth-limited search must pick the uncut search's geodesic
    rng = random.Random(5)
    for _ in range(300):
        g, _, q, _, _ = random_core_instance(rng)
        c = set(rng.sample(sorted(q), rng.randint(1, len(q))))
        w = rng.randrange(g.n)
        full = st_path(g, {w}, c)
        for ell in range(6):
            want = full if full is not None and len(full) - 1 <= ell else None
            assert st_path(g, (w,), c, cutoff=ell) == want

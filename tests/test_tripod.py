import random

import pytest

from helpers import generated_tripod_instances, path_graph
from pathpack import Graph, PreconditionError, st_path
from pathpack.tripod import (
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


ALL_INSTANCES = [spider_instance, hanging_tip_instance, cycle_core_instance,
                 prong_instance]


def shrink_branches(g, before, after):
    """The two branches of the round that turned tripoid before into
    after: how the region shrank and how the moved leg's geodesic
    followed."""
    alpha = after.xi
    end = before.legs[alpha].b[-1]
    leaf = sum(1 for u in g.adj[end] if u in before.c) <= 1
    slid = after.legs[alpha].w != before.legs[alpha].w
    return ("leaf removal" if leaf else "component replacement",
            "geodesic slide" if slid else "geodesic rebuild")


def run_stepwise(g, vs, q, ell, d):
    """Drive the construction one step at a time, revalidating the
    invariants after every step.  Returns the result, the step count and
    the set of shrink branches taken."""
    state = init_tripoid(g, vs, q, ell, d)
    assert check_tripoid(g, state) == []
    steps = 0
    branches = set()
    while True:
        nxt = tripod_step(g, state)
        steps += 1
        assert steps <= len(q) + 1
        if isinstance(nxt, TripodResult):
            assert check_tripod_result(g, vs, frozenset(q), ell, d, nxt) == []
            return nxt, steps, branches
        assert check_tripoid(g, nxt) == []
        branches.update(shrink_branches(g, state, nxt))
        state = nxt


@pytest.mark.parametrize("build", ALL_INSTANCES)
def test_stepwise_invariants(build):
    g, vs, q, ell, d = build()
    res, steps, _ = run_stepwise(g, vs, q, ell, d)
    assert steps <= len(q)


def assert_driver_matches_stepwise(g, vs, q, ell, d):
    res = tripod(g, vs, q, ell, d)
    manual, steps, branches = run_stepwise(g, vs, q, ell, d)
    assert res.z == manual.z
    assert res.p == manual.p
    assert res.iterations == steps
    assert res.iterations <= len(q)
    return branches


@pytest.mark.parametrize("build", ALL_INSTANCES)
def test_driver_matches_stepwise(build):
    assert_driver_matches_stepwise(*build())


def test_driver_matches_stepwise_on_generated():
    """The batched rounds of tripod() agree with stepping on the 200
    instances of acceptance criterion 5 and on 100 random cores.  The
    criterion 5 instances only remove leaves and slide geodesics; the
    random cores take the other two shrink branches too."""
    instances = list(generated_tripod_instances())
    instances += [random_core_instance(random.Random(seed)) for seed in range(100)]
    branches = set()
    for instance in instances:
        branches |= assert_driver_matches_stepwise(*instance)
    assert branches == {"leaf removal", "component replacement",
                        "geodesic slide", "geodesic rebuild"}


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
    assert t.vs == vs
    for i, leg in enumerate(t.legs):
        assert leg.r[0] == vs[i]
        assert leg.r[-1] == leg.w
        assert len(leg.b) == ell + 1
        assert leg.b[0] == leg.w


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


@pytest.mark.parametrize("hub", [frozenset(), frozenset({0, 20})])
def test_bad_hub_is_reported_not_raised(hub):
    # an empty or disconnected hub has no radius, so none is checked
    g, vs, q, ell, d = spider_instance()
    good = tripod(g, vs, q, ell, d)
    out = check_tripod_result(g, vs, q, ell, d, TripodResult(z=hub, p=good.p))
    assert "hub is not connected" in out
    assert not any("radius" in msg for msg in out)


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

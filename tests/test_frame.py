import pytest

from helpers import k2_path_model, path_graph
from pathpack import (
    A_POLICIES,
    FAMILIES,
    FatModel,
    Graph,
    HittingCertificate,
    InputError,
    PackingCertificate,
    ParameterRangeError,
    PatternGraph,
    PreconditionError,
    SolveParams,
    ball,
    frame,
    graph,
    make_instance,
    solve,
    st_path,
)
from pathpack.frame import (
    Frame,
    HitSet,
    empty_frame,
    extend_or_hit,
    frame_to_packing,
    validate_frame,
)
from pathpack.model import part_vertices
from pathpack.oracle import verify_hitting, verify_packing


class TestSolveParams:
    def test_bounds_k2(self):
        p = SolveParams(2, 1)
        assert p.bound_f == 4
        assert p.bound_g == 65536
        assert p.frame_r == 1024
        assert [p.frame_ell(i) for i in range(4)] == [4096, 256, 16, 1]

    def test_bounds_k1_d3(self):
        p = SolveParams(1, 3)
        assert p.bound_f == 0
        assert p.bound_g == 768
        assert p.frame_r == 12
        assert [p.frame_ell(i) for i in range(2)] == [48, 3]

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            SolveParams(0, 1)
        with pytest.raises(InputError):
            SolveParams(1, 0)

    def test_huge_k_is_refused_before_the_bound_is_built(self):
        with pytest.raises(ParameterRangeError):
            SolveParams(k=2 ** 40, d=1)

    @pytest.mark.parametrize("kwargs", [
        {"k": True, "d": 1}, {"k": 2, "d": True},
        {"k": 2, "d": 1, "coarse": "false"}, {"k": 2, "d": 1, "coarse": 1}])
    def test_rejects_non_boolean_flag_and_boolean_numbers(self, kwargs):
        with pytest.raises(InputError):
            SolveParams(**kwargs)

    def test_overflow_boundary(self):
        with pytest.raises(ParameterRangeError):
            SolveParams(8, 1)
        SolveParams(7, 1)
        SolveParams(7, 63)
        with pytest.raises(ParameterRangeError):
            SolveParams(7, 64)


class TestValidateFrame:
    def test_empty_frame(self):
        g = path_graph(10)
        fr = empty_frame(frozenset({0, 9}), 16, 4, False)
        assert validate_frame(g, fr) == []
        assert fr.i == 0

    def test_k2_frame(self):
        g, m = k2_path_model(50)
        fr = Frame(m, 1, 1, 25, False, frozenset({0, 49}))
        assert validate_frame(g, fr) == []

    def test_counter_mismatch(self):
        g, m = k2_path_model(50)
        fr = Frame(m, 5, 1, 25, False, frozenset({0, 49}))
        assert any("counter" in v for v in validate_frame(g, fr))

    def test_fatness_below_scale(self):
        g, m = k2_path_model(5)
        fr = Frame(m, 1, 10, 25, False, frozenset({0, 4}))
        assert any("below the frame scale" in v for v in validate_frame(g, fr))

    def test_branch_set_radius(self):
        g = path_graph(10)
        pat = PatternGraph.from_parts([0, 1], {0: (0, 1)})
        m = FatModel(pat, {0: frozenset(range(5)), 1: frozenset({9})},
                     {0: tuple(range(4, 10))})
        fr = Frame(m, 1, 1, 1, False, frozenset({0, 9}))
        assert any("radius above 1" in v for v in validate_frame(g, fr))

    def test_terminal_missing(self):
        g, m = k2_path_model(50)
        fr = Frame(m, 1, 1, 25, False, frozenset({49}))
        assert any("no terminal" in v for v in validate_frame(g, fr))

    def v0_frame(self, sets_value, a):
        g = path_graph(10)
        pat = PatternGraph.from_parts([0], {})
        m = FatModel(pat, {0: sets_value}, {})
        return g, Frame(m, 1, 1, 5, False, frozenset(a))

    def test_v0_valid(self):
        g, fr = self.v0_frame((3, 4, 5), {3, 5})
        assert validate_frame(g, fr) == []

    def test_v0_needs_tuple(self):
        g, fr = self.v0_frame(frozenset({3, 4, 5}), {3, 5})
        assert any("ordered terminal path" in v for v in validate_frame(g, fr))

    def test_v0_too_short(self):
        g, fr = self.v0_frame((3,), {3})
        assert any("too short" in v for v in validate_frame(g, fr))

    def test_v0_bad_endpoints(self):
        g, fr = self.v0_frame((3, 4, 5), {3, 9})
        assert any("end in terminals" in v for v in validate_frame(g, fr))

    def test_coarse_forbids_v0(self):
        g = path_graph(10)
        pat = PatternGraph.from_parts([0], {})
        m = FatModel(pat, {0: (3, 4, 5)}, {})
        fr = Frame(m, 1, 1, 5, True, frozenset({3, 5}))
        assert any("isolated" in v for v in validate_frame(g, fr))


def chain_edges(n, off=0):
    return [(off + i, off + i + 1) for i in range(n - 1)]


class TestExtendOrHit:
    def test_scale_must_be_divisible(self):
        g = path_graph(10)
        fr = empty_frame(frozenset({0, 9}), 8, 4, False)
        with pytest.raises(PreconditionError):
            extend_or_hit(g, fr)

    def test_radius_budget_too_small(self):
        g = path_graph(10)
        fr = empty_frame(frozenset({0, 9}), 16, 3, False)
        with pytest.raises(PreconditionError):
            extend_or_hit(g, fr)

    def test_first_step_builds_k2(self):
        g = path_graph(50)
        fr = empty_frame(frozenset({0, 49}), 16, 4, False)
        out = extend_or_hit(g, fr)
        assert isinstance(out, Frame)
        assert out.i == 1 and out.ell == 1
        assert out.model.branch_sets == {0: frozenset({0}), 1: frozenset({49})}
        assert out.model.branch_parts[0] == tuple(range(50))

    def test_no_pair_gives_empty_hit(self):
        g = path_graph(50)
        fr = empty_frame(frozenset({0}), 16, 4, False)
        out = extend_or_hit(g, fr)
        assert out == HitSet(frozenset())

    def test_close_pair_becomes_terminal_path(self):
        # component with the least terminal has only a close pair; the far
        # pair lives in the long second component
        g = Graph(2022, chain_edges(21) + chain_edges(2001, 21))
        a = frozenset({3, 5, 21, 2021})
        params = SolveParams(2, 1)
        fr = empty_frame(a, params.frame_ell(0), params.frame_r, False)
        fr = extend_or_hit(g, fr)
        assert fr.model.branch_sets == {0: frozenset({21}),
                                        1: frozenset({2021})}
        fr = extend_or_hit(g, fr)
        assert isinstance(fr, Frame)
        assert fr.i == 2
        iso = [x for x in fr.pattern.vertex_ids() if fr.pattern.degree(x) == 0]
        assert len(iso) == 1
        assert fr.model.branch_sets[iso[0]] == (3, 4, 5)

    def test_new_path_avoids_the_guarded_ball(self):
        # K2 model on the path 0..20 at frame scale 16 with r=4, so ell=1 and
        # the guard is the 12-ball around the centers 0 and 20.  A spike
        # 0, 21..28 and two arms 29..33 and 34..38 give terminals 33 and 38
        # a geodesic of length 10 through 28, at distance 8 from 0; outside
        # the guard they are linked only by the long route 39..78.
        g, m = k2_path_model(21)
        spike = [0, *range(21, 29)]
        edges = g.edges() + list(zip(spike, spike[1:]))
        for arm in ([28, *range(29, 34)], [28, *range(34, 39)],
                    [33, *range(39, 79), 38]):
            edges += list(zip(arm, arm[1:]))
        g = Graph(79, edges)
        fr = Frame(m, 1, 16, 4, False, frozenset({0, 20, 33, 38}))
        assert validate_frame(g, fr) == []
        guard = ball(g, {0, 20}, 12)
        assert 28 in guard and len(st_path(g, {33}, {38})) - 1 == 10
        out = extend_or_hit(g, fr)
        assert isinstance(out, Frame)
        assert out.i == 2 and out.ell == 1
        assert out.model.branch_parts[1] == (33, *range(39, 79), 38)
        assert guard.isdisjoint(out.model.branch_parts[1])

    # A connected set of s vertices has no two vertices s or more apart, so
    # the round skips the far-pair search of a candidate of at most ell
    # vertices, and stops once at most ell unsearched vertices are left.
    # At frame scale 256 the round's ell is 16 and its guard is empty.

    def test_candidate_of_ell_plus_one_vertices_opens_a_k2(self):
        g = path_graph(17)
        out = extend_or_hit(g, empty_frame(frozenset({0, 16}), 256, 64, False))
        assert out.model.branch_sets == {0: frozenset({0}), 1: frozenset({16})}
        assert out.model.branch_parts == {0: tuple(range(17))}

    def test_candidate_of_ell_vertices_stores_a_close_pair(self):
        g = path_graph(16)
        out = extend_or_hit(g, empty_frame(frozenset({0, 15}), 256, 64, False))
        assert out.model.branch_sets == {0: tuple(range(16))}
        assert out.model.branch_parts == {}

    def test_far_pair_after_a_small_first_candidate(self):
        # the 3-vertex first candidate leaves exactly ell + 1 vertices
        g = Graph(20, chain_edges(3) + chain_edges(17, 3))
        out = extend_or_hit(g, empty_frame(frozenset({0, 2, 3, 19}), 256, 64,
                                           False))
        assert out.model.branch_sets == {0: frozenset({3}), 1: frozenset({19})}
        assert out.model.branch_parts == {0: tuple(range(3, 20))}

    def test_guarded_close_pair_stores_its_host_geodesic(self):
        # K2 frame on the path 0..256 at scale 256 with r=64: ell=16 and the
        # guard is the 192-ball around 0 and 256.  A spike of 190 edges
        # from 0 ends at w=446; terminals 451 and 456 hang 5 edges off w,
        # just outside the guard, and a detour of 14 edges joins them
        # outside it.  Their stored path is the host geodesic through w.
        spike = [0, *range(257, 447)]
        arms = [[446, *range(447, 452)], [446, *range(452, 457)],
                [451, *range(457, 470), 456]]
        edges = chain_edges(257)
        for line in (spike, *arms):
            edges += list(zip(line, line[1:]))
        g = Graph(470, edges)
        pat = PatternGraph.from_parts([0, 1], {0: (0, 1)})
        m = FatModel(pat, {0: frozenset({0}), 1: frozenset({256})},
                     {0: tuple(range(257))})
        fr = Frame(m, 1, 256, 64, False, frozenset({0, 256, 451, 456}))
        out = extend_or_hit(g, fr)
        assert out.model.branch_sets[2] == (*range(451, 445, -1),
                                            *range(452, 457))

    def test_terminal_outside_the_graph_is_an_input_error(self):
        fr = empty_frame(frozenset({0, 99}), 16, 4, False)
        with pytest.raises(InputError, match="vertex 99 out of range"):
            extend_or_hit(path_graph(10), fr)

    def test_wrong_counter_is_a_precondition(self):
        g, m = k2_path_model(50)
        fr = Frame(m, 5, 16, 4, False, frozenset({0, 49}))
        with pytest.raises(PreconditionError, match="invalid frame: counter"):
            extend_or_hit(g, fr)

    def test_branch_set_above_the_radius_budget_is_a_precondition(self):
        g = path_graph(1000)
        pat = PatternGraph.from_parts([0, 1], {0: (0, 1)})
        m = FatModel(pat, {0: frozenset(range(301)), 1: frozenset({999})},
                     {0: tuple(range(300, 1000))})
        fr = Frame(m, 1, 16, 64, False, frozenset({0, 999}))
        with pytest.raises(PreconditionError, match="radius above 64"):
            extend_or_hit(g, fr)

    def test_close_pair_in_coarse_mode_hits(self):
        g = Graph(21, chain_edges(21))
        a = frozenset({3, 5})
        params = SolveParams(2, 1, coarse=True)
        fr = empty_frame(a, params.frame_ell(0), params.frame_r, True)
        out = extend_or_hit(g, fr)
        assert out == HitSet(frozenset())


class TestFrameToPacking:
    def test_k2_route(self):
        g, m = k2_path_model(50)
        fr = Frame(m, 1, 1, 25, False, frozenset({0, 49}))
        assert frame_to_packing(g, fr) == [tuple(range(50))]

    def test_v0_route(self):
        g = path_graph(10)
        pat = PatternGraph.from_parts([0], {})
        m = FatModel(pat, {0: (3, 4, 5)}, {})
        fr = Frame(m, 1, 1, 5, False, frozenset({3, 5}))
        assert frame_to_packing(g, fr) == [(3, 4, 5)]

    def test_branch_sets_without_terminals_are_a_precondition(self):
        g, m = k2_path_model(50)
        fr = Frame(m, 1, 1, 25, False, frozenset())
        with pytest.raises(PreconditionError, match="carries no terminal"):
            frame_to_packing(g, fr)


def permuted_absorb_instance():
    """Path of 20001 vertices whose terminal labels are placed so that the
    second round must absorb an approach path into an existing branch
    path instead of starting a new pair."""
    n = 20001
    special = {0: 0, 2400: 1, 1160: 2, 1240: 3, 12000: 4, 12002: 5}
    label = {}
    nxt = 6
    for pos in range(n):
        if pos in special:
            label[pos] = special[pos]
        else:
            label[pos] = nxt
            nxt += 1
    g = Graph(n, [(label[i], label[i + 1]) for i in range(n - 1)])
    return g, frozenset(range(6))


class TestSolve:
    def test_absorb_round_trip(self):
        g, a = permuted_absorb_instance()
        params = SolveParams(2, 1)
        fr = empty_frame(a, params.frame_ell(0), params.frame_r, False)
        fr = extend_or_hit(g, fr)
        assert (fr.pattern.n_vertices, fr.pattern.n_edges) == (2, 1)
        fr = extend_or_hit(g, fr)
        # absorption subdivides the branch path: one new mid vertex
        assert (fr.pattern.n_vertices, fr.pattern.n_edges) == (3, 2)
        fr = extend_or_hit(g, fr)
        assert (fr.pattern.n_vertices, fr.pattern.n_edges) == (5, 3)
        cert = solve(g, a, params)
        assert isinstance(cert, PackingCertificate)
        got = [(p[0], p[-1], len(p)) for p in cert.paths]
        assert got == [(0, 2, 1161), (4, 5, 3)]
        assert verify_packing(g, a, cert.paths, 2, 1)

    def test_a_bool_terminal_is_an_input_error(self):
        # True == 1, but a certificate naming it would not read back
        g, _ = make_instance("path", 10)
        with pytest.raises(InputError, match="^vertex True out of range"):
            solve(g, frozenset({True, 9}), SolveParams(1, 1))

    def test_close_components_pack_as_terminal_paths(self):
        g = Graph(63, chain_edges(21) + chain_edges(21, 21)
                  + chain_edges(21, 42))
        a = frozenset({3, 5, 24, 26, 45, 47})
        cert = solve(g, a, SolveParams(2, 1))
        assert isinstance(cert, PackingCertificate)
        assert cert.paths == ((3, 4, 5), (24, 25, 26))
        assert verify_packing(g, a, cert.paths, 2, 1)

    def test_same_instance_coarse_gives_empty_hitting(self):
        g = Graph(63, chain_edges(21) + chain_edges(21, 21)
                  + chain_edges(21, 42))
        a = frozenset({3, 5, 24, 26, 45, 47})
        cert = solve(g, a, SolveParams(2, 1, coarse=True))
        assert cert == HittingCertificate(frozenset(), 65536, 65536)
        assert verify_hitting(g, a, cert.x, cert.radius, 4,
                              cert.coarse_threshold)

    def test_disconnected_close_pair_hitting(self):
        g = Graph(2022, chain_edges(21) + chain_edges(2001, 21))
        a = frozenset({3, 5, 21, 2021})
        cert = solve(g, a, SolveParams(2, 1))
        assert isinstance(cert, HittingCertificate)
        assert cert.x == frozenset({4, 21, 2021})
        assert cert.radius == 65536
        assert verify_hitting(g, a, cert.x, cert.radius, 4)

    def test_single_terminal(self):
        g = path_graph(50)
        cert = solve(g, frozenset({0}), SolveParams(1, 1))
        assert cert == HittingCertificate(frozenset(), 256)

    def test_no_terminals(self):
        g = path_graph(50)
        cert = solve(g, frozenset(), SolveParams(1, 1))
        assert cert == HittingCertificate(frozenset(), 256)

    def test_close_pair_k2_hitting(self):
        g = path_graph(20)
        cert = solve(g, frozenset({3, 5}), SolveParams(2, 1))
        assert cert == HittingCertificate(frozenset({4}), 65536)
        assert verify_hitting(g, frozenset({3, 5}), cert.x, cert.radius, 4)

    def test_coarse_long_path(self):
        g = path_graph(20000)
        a = frozenset({0, 19999})
        cert = solve(g, a, SolveParams(1, 3, coarse=True))
        assert isinstance(cert, PackingCertificate)
        assert cert.paths == (tuple(range(20000)),)
        assert cert.coarse is True
        assert verify_packing(g, a, cert.paths, 1, 3, coarse=True)

    def test_two_vertex_graph(self):
        g = path_graph(2)
        a = frozenset({0, 1})
        cert = solve(g, a, SolveParams(1, 1))
        assert isinstance(cert, PackingCertificate)
        assert cert.paths == ((0, 1),)
        # close pair at d=2 still packs through a terminal path
        cert2 = solve(g, a, SolveParams(1, 2))
        assert isinstance(cert2, PackingCertificate)
        assert cert2.paths == ((0, 1),)

    def test_single_vertex_graph(self):
        g = Graph(1, [])
        cert = solve(g, frozenset({0}), SolveParams(1, 1))
        assert cert == HittingCertificate(frozenset(), 256)

    def test_deterministic(self):
        g, a = make_instance("random", 60, seed=5, a_policy="all")
        p = SolveParams(2, 2)
        assert solve(g, a, p) == solve(g, a, p)

    def test_validate_flag(self):
        g = Graph(63, chain_edges(21) + chain_edges(21, 21)
                  + chain_edges(21, 42))
        a = frozenset({3, 5, 24, 26, 45, 47})
        cert = solve(g, a, SolveParams(2, 1), validate=True)
        assert isinstance(cert, PackingCertificate)

    def test_spider_hitting(self):
        g, a = make_instance("spider", 41)
        cert = solve(g, a, SolveParams(2, 1))
        assert cert == HittingCertificate(frozenset({0}), 65536)
        assert verify_hitting(g, a, cert.x, cert.radius, 4)


def public_certificate(g, a, params):
    """solve's certificate reached by public steps, each of which checks
    its frame on entry and measures the center of every branch set."""
    fr = empty_frame(a, params.frame_ell(0), params.frame_r, params.coarse)
    for _ in range(2 * params.k - 1):
        out = extend_or_hit(g, fr)
        if isinstance(out, HitSet):
            return HittingCertificate(
                out.x, params.bound_g, params.bound_g if params.coarse else None)
        fr = out
    paths = sorted(frame_to_packing(g, fr), key=lambda p: (min(p), p))
    return PackingCertificate(tuple(paths[:params.k]), params.d, params.coarse)


def matrix_cases(family):
    """The benchmark's seed-1 matrix instances of family with k >= 2: its
    generator seeds are 3, 4 and 5."""
    for seed in (3, 4, 5):
        for n in (40, 80, 160):
            for policy in A_POLICIES:
                g, a = make_instance(family, n, seed, policy)
                for k in (2, 3):
                    for d in (1, 2, 3):
                        for coarse in (False, True):
                            yield g, a, SolveParams(k, d, coarse)


def spider_cases():
    g, a = make_instance("spider", 5000, seed=1)
    for coarse in (False, True):
        yield g, a, SolveParams(2, 1, coarse)


@pytest.mark.parametrize("family", [*FAMILIES, "spider 5000"])
def test_solve_matches_the_public_steps(monkeypatch, family):
    """solve reads the centers a round recorded for the sets it built;
    the public steps measure every set, and both give the same
    certificate.  A round enters the center of every set of the frame it
    reads, and of the sets it builds; each entry is the measured center of
    the set it names, and no round changes an entry it was given."""
    tables = []

    def _round(g, fr, centers, _fn=frame._round):
        tables.append(centers)
        before = dict(centers)
        out = _fn(g, fr, centers)
        assert before.items() <= centers.items()
        assert centers.keys() >= set(fr.pattern.vertex_ids())
        last = out if isinstance(out, Frame) else fr
        for x, c in centers.items():
            part = part_vertices(last.model.branch_sets[x])
            assert c == graph.radius_center(g, part)[0]
        return out

    monkeypatch.setattr(frame, "_round", _round)
    cases = spider_cases() if family == "spider 5000" else matrix_cases(family)
    entries = 0
    for g, a, params in cases:
        tables.clear()
        cert = solve(g, a, params)
        assert all(t is tables[0] for t in tables)
        entries += len(tables[0])
        assert public_certificate(g, a, params) == cert
    assert entries > 0

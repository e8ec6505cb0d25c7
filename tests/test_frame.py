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
    certificate_violations,
    fat_to_clean,
    frame,
    graph,
    is_clean,
    make_instance,
    solve,
    st_path,
)
from pathpack.frame import (
    Frame,
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
        assert out == frozenset()

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

    @staticmethod
    def guarded_pair_frame(detour):
        """K2 frame on the path 0..256 at scale 256 with r=64: ell=16 and
        the guard is the 192-ball around 0 and 256.  A spike of 190 edges
        from 0 ends at w=446; terminals 451 and 456 hang 5 edges off w,
        just outside the guard, and a detour of the given number of edges
        joins them outside it."""
        spike = [0, *range(257, 447)]
        arms = [[446, *range(447, 452)], [446, *range(452, 457)],
                [451, *range(457, 456 + detour), 456]]
        edges = chain_edges(257)
        for line in (spike, *arms):
            edges += list(zip(line, line[1:]))
        g = Graph(456 + detour, edges)
        pat = PatternGraph.from_parts([0, 1], {0: (0, 1)})
        m = FatModel(pat, {0: frozenset({0}), 1: frozenset({256})},
                     {0: tuple(range(257))})
        return g, Frame(m, 1, 256, 64, False, frozenset({0, 256, 451, 456}))

    def test_guarded_close_pair_stores_its_host_geodesic(self):
        # the detour of 14 edges is no geodesic: the stored path is the
        # host geodesic through w
        g, fr = self.guarded_pair_frame(14)
        out = extend_or_hit(g, fr)
        assert out.model.branch_sets[2] == (*range(451, 445, -1),
                                            *range(452, 457))

    def test_guarded_far_pair_test_measures_host_distances(self):
        # outside the guard 451 and 456 are 20 >= ell apart, but in the
        # host 10 < ell: a guarded candidate's search tree gives no host
        # distances, so the far-pair test searches the host and the round
        # stores the close pair
        g, fr = self.guarded_pair_frame(20)
        out = extend_or_hit(g, fr)
        assert out.model.branch_sets[2] == (*range(451, 445, -1),
                                            *range(452, 457))

    def test_a_round_that_hits_cleans_nothing(self, monkeypatch):
        # K2 frame on the path 0..49 at frame scale 16 with r=4: ell=1, the
        # guard is the 12-ball around the centers 0 and 49, and it holds
        # both terminals, so the round hits without cleaning the model
        g, m = k2_path_model(50)
        fr = Frame(m, 1, 16, 4, False, frozenset({0, 49}))

        def unclean(*args):
            raise AssertionError("a round that hits cleaned its model")

        monkeypatch.setattr(frame, "_fat_to_clean", unclean)
        assert extend_or_hit(g, fr) == frozenset({0, 49})

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
        assert out == frozenset()


def logged(monkeypatch, module, name):
    """Wrap module.name so that each call's arguments are logged."""
    log, fn = [], getattr(module, name)

    def wrapped(*args, **kwargs):
        log.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)
    return log


def whole_tree(g, v):
    return graph._search_tree(g, v, frozenset())


class TestGuard:
    """Two paths, A = 0..9 and B = 10..29; the center 0 keys A's tree."""
    g = Graph(30, chain_edges(10) + chain_edges(20, 10))

    def test_a_known_component_that_fits_joins_whole(self, monkeypatch):
        known = {0: whole_tree(self.g, 0)}
        grown = logged(monkeypatch, graph, "_grow")
        assert frame._guard(self.g, frozenset({0}), known, 9) == (
            set(range(10)), True)
        assert grown == [] and list(known) == [0]

    def test_a_center_whose_component_does_not_fit_loses_its_key(self):
        known = {0: whole_tree(self.g, 0)}
        assert frame._guard(self.g, frozenset({0, 20}), known, 3) == (
            {0, 1, 2, 3, *range(17, 24)}, False)
        assert known == {}


class CountingTerminals(frozenset):
    """A terminal set that counts the times Python code iterates it."""
    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


class TestCandidates:
    """A connected set of s vertices has no two vertices s or more apart,
    so a candidate of at most ell vertices gets no far-pair search, and no
    candidate is searched once at most ell unsearched vertices are left.
    Here the guard is empty, and so closed, and ell = 16."""

    def test_a_candidate_of_ell_vertices_gets_no_far_pair_search(
            self, monkeypatch):
        tests = logged(monkeypatch, frame, "_least_far_pair")
        g = path_graph(16)
        path, tree, close = frame._candidates(g, frozenset({0, 15}), set(),
                                              True, {}, 16)
        assert (path, close, tests) == (tuple(range(16)), True, [])
        assert tree == whole_tree(g, 0)

    def test_a_candidate_of_ell_plus_one_vertices_gets_one(self, monkeypatch):
        tests = logged(monkeypatch, frame, "_least_far_pair")
        known = {}
        path, tree, close = frame._candidates(path_graph(17), frozenset({0, 16}),
                                              set(), True, known, 16)
        assert (path, close, len(tests)) == (tuple(range(17)), False, 1)
        assert known == {0: tree}

    def test_no_search_once_ell_vertices_are_left(self, monkeypatch):
        # the 3-vertex first candidate leaves exactly ell vertices
        searched = logged(monkeypatch, frame, "_search_tree")
        g = Graph(19, chain_edges(3) + chain_edges(16, 3))
        path, _, close = frame._candidates(g, frozenset({0, 2, 3, 18}), set(),
                                           True, {}, 16)
        assert (path, close) == ((0, 1, 2), True)
        assert [args[1] for args in searched] == [0]

    def test_no_candidate_with_two_terminals_gives_none(self):
        g = Graph(30, chain_edges(10) + chain_edges(20, 10))
        assert frame._candidates(g, frozenset({0, 10}), set(), True, {},
                                 1) is None

    def test_a_partial_guard_reads_no_known_component(self):
        # the table holds the tree of the whole host, rooted at 451, but
        # the guard is no union of components, so 451's candidate is
        # searched in g minus the guard
        g, fr = TestExtendOrHit.guarded_pair_frame(20)
        guard, closed = frame._guard(g, frozenset({0, 256}), {}, 192)
        known = {451: whole_tree(g, 451)}
        assert not closed
        assert (frame._candidates(g, fr.a_set, guard, closed, known, 16)
                == frame._candidates(g, fr.a_set, guard, closed, {}, 16))
        assert list(known) == [451]

    def test_candidates_are_scanned_in_the_size_of_their_trees(self):
        """A candidate's terminals are listed in the size of its search
        tree, without iterating the whole terminal set.  The host is 200
        two-vertex components, each vertex a terminal, so at ell = 256
        the phase searches 72 of them before the unsearched vertices
        number ell; a scan of every terminal per candidate would iterate
        the set 72 times."""
        g = Graph(400, [(2 * i, 2 * i + 1) for i in range(200)])
        a = CountingTerminals(range(400))
        assert frame._candidates(g, a, set(), True, {}, 256)[2]
        assert a.iterations <= 1


class TestPlace:
    """Each branch of the placement phase, on an empty frame at scale 256
    (ell = 16) or on a K2 frame at scale 16 (ell = 1)."""

    def place(self, g, fr, path, whole, close):
        centers, known = {}, {}
        model = frame._place(g, fr, path, whole, close, centers, known)
        return model, centers, known

    def test_a_far_pair_opens_a_k2_whose_first_terminal_keys_the_tree(self):
        g = path_graph(17)
        fr = empty_frame(frozenset({0, 16}), 256, 64, False)
        tree = whole_tree(g, 0)
        model, centers, known = self.place(g, fr, tuple(range(17)), tree, False)
        assert model.branch_sets == {0: frozenset({0}), 1: frozenset({16})}
        assert model.branch_parts == {0: tuple(range(17))}
        assert (centers, known) == ({0: 0, 1: 16}, {0: tree})

    @pytest.mark.parametrize("whole", [True, False])
    def test_a_close_pair_is_stored_with_its_middle_as_center(self, whole):
        # in a whole component the path is the geodesic, and its center
        # keys the tree; otherwise st_path finds the geodesic
        g = path_graph(16)
        fr = empty_frame(frozenset({0, 15}), 256, 64, False)
        tree = whole_tree(g, 0) if whole else None
        model, centers, known = self.place(g, fr, tuple(range(16)), tree, True)
        assert model.branch_sets == {0: tuple(range(16))}
        assert model.branch_parts == {}
        assert centers == {0: 7}
        assert known == ({7: tree} if whole else {})

    def test_a_coarse_close_pair_far_from_the_branch_paths_hits(self):
        g = path_graph(16)
        fr = empty_frame(frozenset({0, 15}), 256, 64, True)
        assert self.place(g, fr, tuple(range(16)), whole_tree(g, 0),
                          True) == (None, {}, {})

    def test_a_path_near_a_branch_path_is_absorbed(self):
        # K2 on the path 0..30 at scale 16 (ell = 1); a spike 31..40 hangs
        # off 15, and the pair 40, 31 is far: its path comes within 4 of
        # the branch path at 34 and is absorbed, subdividing the edge at a
        # new vertex 2 that hangs 40 on the pendant 3
        g = Graph(41, chain_edges(31) + [(15, 31)] + chain_edges(10, 31))
        pat = PatternGraph.from_parts([0, 1], {0: (0, 1)})
        m = FatModel(pat, {0: frozenset({0}), 1: frozenset({30})},
                     {0: tuple(range(31))})
        fr = Frame(m, 1, 16, 4, False, frozenset({0, 30, 31, 40}))
        assert validate_frame(g, fr) == []
        model, centers, known = self.place(g, fr, tuple(range(40, 30, -1)),
                                           None, False)
        assert [model.pattern.endpoints(e) for e in model.pattern.edge_ids()
                ] == [(0, 2), (2, 1), (2, 3)]
        assert model.branch_sets[3] == frozenset({40})
        assert (centers, known) == ({}, {})
        assert validate_frame(g, Frame(model, 2, 1, 4, False, fr.a_set)) == []


def counted_rounds(monkeypatch, name, module=frame):
    """Wrap module.name, and frame._round, so that each call of the
    function is logged with its arguments and the number of the round it
    ran in; calls outside a round log None."""
    log, at = [], [None]
    fn, round_fn = getattr(module, name), frame._round

    def counted(*args, **kwargs):
        log.append((at[0], args))
        return fn(*args, **kwargs)

    def _round(g, fr, *tables):
        at[0] = fr.i
        try:
            return round_fn(g, fr, *tables)
        finally:
            at[0] = None

    monkeypatch.setattr(module, name, counted)
    monkeypatch.setattr(frame, "_round", _round)
    return log


def test_a_grid_solve_grows_no_guard_that_a_known_component_gives(monkeypatch):
    """A plain k = 2 solve on the benchmark's window grid: round 0 stores a
    close pair in the grid, whose search tree the solve keeps.  The tree
    is 130 levels deep, so the grid lies in every 1152-ball of round 1,
    which takes it as its guard with no ball search, finds no candidate,
    and returns the close pair's center."""
    g, a = make_instance("grid", 66 * 66, 1, "random_p")
    a |= {0, 65, 66 * 65, 66 * 66 - 1}
    grown = counted_rounds(monkeypatch, "_grow", graph)
    searched = counted_rounds(monkeypatch, "_search_tree")
    cert = solve(g, a, SolveParams(2, 1))
    assert isinstance(cert, HittingCertificate) and len(cert.x) == 1
    assert [(i, args[1]) for i, args in searched] == [(0, 0)]
    assert grown == []


def test_a_spider_solve_cleans_only_in_the_rounds_it_extends(monkeypatch):
    """The plain k = 2 spider solve extends its frame in rounds 0 and 1
    and hits in round 2, which builds its guard but cleans nothing."""
    g, a = make_instance("spider", 5000)
    cleaned = counted_rounds(monkeypatch, "_fat_to_clean")
    guarded = counted_rounds(monkeypatch, "_reach")
    cert = solve(g, a, SolveParams(2, 1))
    assert isinstance(cert, HittingCertificate)
    assert [i for i, _ in guarded] == [0, 1, 2]
    assert [i for i, _ in cleaned] == [0, 1]


def known_components_frame():
    """Four paths: A = 0..4 and D = 305..319 with close end terminals, the
    far pair 5, 304 at the ends of B = 5..304, and E = 320..329 with the
    lone terminal 320.  At k = 2, d = 1, round 0 (ell = 256) searches A
    and B and opens a K2 in B.  Round 1 (ell = 16) guards B, reads A,
    searches D, and stores A's close pair: 10 vertices are left, too few
    for a far pair.  Round 2 (ell = 1) guards B and A and reads D, whose
    far pair opens a second K2."""
    g = Graph(330, chain_edges(5) + chain_edges(300, 5) + chain_edges(15, 305)
              + chain_edges(10, 320))
    return g, frozenset({0, 4, 5, 304, 305, 319, 320})


def test_guarded_rounds_read_the_components_a_solve_has_searched(monkeypatch):
    """Every guard of the solve is a union of whole components, so each
    candidate is searched once a solve and each guard with no search."""
    g, a = known_components_frame()
    searched = counted_rounds(monkeypatch, "_search_tree")
    guards = counted_rounds(monkeypatch, "_reach")
    cert = solve(g, a, SolveParams(2, 1))
    assert cert == PackingCertificate((tuple(range(5)), tuple(range(5, 305))))
    assert [(i, args[1]) for i, args in searched] == [(0, 0), (0, 5), (1, 305)]
    assert [(i, args[1]) for i, args in guards] == [(0, []), (1, []), (2, [])]


def test_guarded_far_pair_tests_read_their_maps_off_the_tree(monkeypatch):
    """Round 2's far-pair test on D gets D's tree, as round 0's on B does,
    so no far-pair test searches for its first map."""
    g, a = known_components_frame()
    levels = counted_rounds(monkeypatch, "_levels", graph)
    tests = []
    fn = frame._least_far_pair

    def _least_far_pair(g, averts, threshold, tree=None):
        before = len(levels)
        out = fn(g, averts, threshold, tree)
        tests.append((averts, tree is not None, len(levels) - before))
        return out

    monkeypatch.setattr(frame, "_least_far_pair", _least_far_pair)
    solve(g, a, SolveParams(2, 1))
    assert tests == [([5, 304], True, 0), ([305, 319], True, 0)]


def test_guarded_close_pair_reads_its_geodesic_off_the_tree(monkeypatch):
    """Round 1 stores A's close pair as the path of A's tree: A is a whole
    component, so no st_path runs in any round."""
    g, a = known_components_frame()
    paths = counted_rounds(monkeypatch, "st_path")
    cert = solve(g, a, SolveParams(2, 1))
    assert isinstance(cert, PackingCertificate)
    assert [i for i, _ in paths if i is not None] == []


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
        params = SolveParams(1, 3, coarse=True)
        cert = solve(g, a, params)
        assert cert == PackingCertificate((tuple(range(20000)),))
        # coarseness travels in params, which the certificate is checked under
        assert certificate_violations(g, a, params, cert) == []
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
        if isinstance(out, frozenset):
            return HittingCertificate(
                out, params.bound_g, params.bound_g if params.coarse else None)
        fr = out
    paths = sorted(frame_to_packing(g, fr), key=lambda p: (min(p), p))
    return PackingCertificate(tuple(paths[:params.k]))


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

    def _round(g, fr, centers, known, _fn=frame._round):
        tables.append(centers)
        before = dict(centers)
        out = _fn(g, fr, centers, known)
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


def table_cases(family):
    """Every terminal policy at n = 40 and 160, with k <= 3, d <= 2 and
    both modes, from generator seed 1.  There every guard radius, at least
    1024, exceeds n, so every guard is closed; n = 3000 at k = 2 adds hosts
    whose components can be too deep for a round's balls."""
    for n, ks in ((40, (1, 2, 3)), (160, (1, 2, 3)), (3000, (2,))):
        for policy in A_POLICIES:
            g, a = make_instance(family, n, 1, policy)
            for k in ks:
                for d in (1, 2):
                    for coarse in (False, True):
                        yield g, a, SolveParams(k, d, coarse)


@pytest.mark.parametrize("family", FAMILIES)
def test_known_components_change_no_certificate(monkeypatch, family):
    """solve gives the same certificate when every round starts from an
    empty table of known components, and so searches every guard and
    candidate again; some round of the family's cases is handed a table
    that is not empty."""
    fn = frame._round
    handed = []

    def watched(g, fr, centers, known):
        handed.append(len(known))
        return fn(g, fr, centers, known)

    def forgetful(g, fr, centers, known):
        return fn(g, fr, centers, {})

    cases = list(table_cases(family))
    monkeypatch.setattr(frame, "_round", watched)
    kept = [solve(g, a, params) for g, a, params in cases]
    monkeypatch.setattr(frame, "_round", forgetful)
    assert [solve(g, a, params) for g, a, params in cases] == kept
    assert max(handed) > 0


@pytest.mark.parametrize("family", [*FAMILIES, "spider 5000"])
def test_a_frame_that_hits_can_be_cleaned(monkeypatch, family):
    """A round that hits cleans nothing, yet its frame's model is one that
    fat_to_clean accepts at the round's scale ell: the public call returns
    a model that is 4*ell-clean.  Some frame of the spider's hitting
    rounds has edges to reroute."""
    fn = frame._round
    hits = []

    def checked(g, fr, centers, known):
        out = fn(g, fr, centers, known)
        if isinstance(out, frozenset):
            ell = fr.ell // 16
            clean = fat_to_clean(g, fr.model, 8 * ell, 4 * ell)
            assert is_clean(g, clean, 4 * ell)
            hits.append(fr.pattern.n_edges)
        return out

    monkeypatch.setattr(frame, "_round", checked)
    cases = spider_cases() if family == "spider 5000" else table_cases(family)
    for g, a, params in cases:
        solve(g, a, params)
    assert hits
    if family == "spider 5000":
        assert min(hits) > 0

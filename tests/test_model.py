import random
from math import inf

import pytest

from helpers import (c6_grid_model, k2_path_model, p3_path_model, path_graph,
                     star_grid_model)
from pathpack import (
    A_POLICIES,
    FAMILIES,
    FatModel,
    Graph,
    InputError,
    PatternGraph,
    PreconditionError,
    SolveParams,
    augment,
    dist,
    frame,
    make_instance,
    make_topological,
    solve,
)
from pathpack.model import (
    _fatness,
    fat_to_clean,
    fatness,
    is_clean,
    is_simple,
    part_vertices,
    validate_model,
)


class TestPatternGraph:
    def test_fresh_ids_are_dense(self):
        p = PatternGraph()
        assert p.add_vertex() == 0
        assert p.add_vertex() == 1
        assert p.add_edge(0, 1) == 0

    def test_add_leaf(self):
        p = PatternGraph()
        p.add_vertex()
        v, e = p.add_leaf(0)
        assert (v, e) == (1, 0)
        assert p.degree(0) == 1

    def test_add_k2(self):
        p = PatternGraph()
        u, v, e = p.add_k2()
        assert (u, v, e) == (0, 1, 0)
        assert p.endpoints(e) == (0, 1)

    def test_degree_capped_at_three(self):
        p = PatternGraph()
        c = p.add_vertex()
        for _ in range(3):
            p.add_leaf(c)
        p.add_vertex()
        with pytest.raises(PreconditionError):
            p.add_edge(c, 4)

    def test_rejects_loop_and_parallel(self):
        p = PatternGraph()
        p.add_k2()
        with pytest.raises(InputError):
            p.add_edge(0, 0)
        with pytest.raises(InputError):
            p.add_edge(1, 0)

    def test_subdivide(self):
        p = PatternGraph()
        p.add_k2()
        w, e_u, e_v = p.subdivide(0)
        assert (w, e_u, e_v) == (2, 1, 2)
        assert 0 not in p.edge_ids()
        assert p.endpoints(e_u) == (0, 2)
        assert p.endpoints(e_v) == (2, 1)
        assert p.degree(2) == 2

    def test_remove_vertex_drops_incident_edges(self):
        p = PatternGraph()
        p.add_k2()
        p.add_leaf(1)
        p.remove_vertex(1)
        assert p.vertex_ids() == [0, 2]
        assert p.edge_ids() == []

    def test_from_parts_keeps_ids(self):
        p = PatternGraph.from_parts([5, 7], {3: (5, 7)})
        assert p.vertex_ids() == [5, 7]
        assert p.edge_ids() == [3]
        assert p.endpoints(3) == (5, 7)
        # fresh ids continue above the given ones
        assert p.add_vertex() == 8

    def test_from_parts_rejects_bad_input(self):
        with pytest.raises(InputError):
            PatternGraph.from_parts([0], {0: (0, 1)})
        with pytest.raises(InputError):
            PatternGraph.from_parts([-1], {})

    @pytest.mark.parametrize("vertices, edges", [
        ([0, True], {}),
        ([False, 1], {0: (False, 1)}),
        ([0, 1], {True: (0, 1)}),
        ([0, 1], {0: (0, True)}),
    ])
    def test_from_parts_refuses_a_bool_id(self, vertices, edges):
        with pytest.raises(InputError, match="int"):
            PatternGraph.from_parts(vertices, edges)

    def test_add_edge_refuses_a_bool_endpoint(self):
        p = PatternGraph.from_parts([0, 1], {})
        with pytest.raises(InputError, match="int"):
            p.add_edge(True, 0)
        assert p.n_edges == 0

    def test_from_parts_checks_edges_like_add_edge(self):
        with pytest.raises(InputError):
            PatternGraph.from_parts([0], {0: (0, 0)})
        with pytest.raises(InputError):
            PatternGraph.from_parts([0, 1], {0: (0, 1), 1: (1, 0)})
        with pytest.raises(PreconditionError):
            PatternGraph.from_parts(range(5), {i: (0, i) for i in range(1, 5)})
        # gapped edge ids are kept, and fresh ones continue above them
        p = PatternGraph.from_parts([0, 1, 2], {2: (0, 1), 7: (1, 2)})
        assert p.edge_ids() == [2, 7]
        assert p.endpoints(2) == (0, 1) and p.endpoints(7) == (1, 2)
        assert p.edge_between(1, 2) == 7
        assert p.add_edge(0, 2) == 8

    def test_copy_is_independent(self):
        p = PatternGraph()
        p.add_k2()
        q = p.copy()
        q.add_leaf(0)
        assert p.n_vertices == 2
        assert q.n_vertices == 3

    def test_components(self):
        p = PatternGraph()
        p.add_k2()
        p.add_vertex()
        assert p.components() == [frozenset({0, 1}), frozenset({2})]


class TestFatModel:
    def test_all_elements_ordering(self):
        _, m = k2_path_model(4)
        kinds = [(kind, i) for kind, i, _ in m.all_elements()]
        assert kinds == [("v", 0), ("v", 1), ("e", 0)]

    def test_unions(self):
        _, m = k2_path_model(4)
        assert m.vertex_union() == frozenset({0, 3})
        assert m.part_union() == frozenset({0, 1, 2, 3})

    def test_part_vertices_accepts_both_shapes(self):
        assert part_vertices((0, 1, 2)) == frozenset({0, 1, 2})
        assert part_vertices(frozenset({3, 4})) == frozenset({3, 4})


def p3_model(g_n: int = 11) -> tuple[Graph, FatModel]:
    g = path_graph(g_n)
    pat = PatternGraph.from_parts([0, 1, 2], {0: (0, 1), 1: (1, 2)})
    m = FatModel(pat,
                 {0: frozenset({0}), 1: frozenset({5}), 2: frozenset({10})},
                 {0: tuple(range(6)), 1: tuple(range(5, 11))})
    return g, m


class TestValidateModel:
    def test_good_k2(self):
        g, m = k2_path_model(6)
        assert validate_model(g, m) == []

    def test_good_p3(self):
        g, m = p3_model()
        assert validate_model(g, m) == []

    def test_key_mismatch_raises(self):
        g, m = k2_path_model(6)
        broken = FatModel(m.pattern, {0: frozenset({0})}, dict(m.branch_parts))
        with pytest.raises(InputError):
            validate_model(g, broken)

    def test_empty_part(self):
        g, m = k2_path_model(6)
        bad = FatModel(m.pattern, {0: frozenset(), 1: frozenset({5})},
                       dict(m.branch_parts))
        assert any("empty" in v for v in validate_model(g, bad))

    def test_out_of_range(self):
        g, m = k2_path_model(6)
        bad = FatModel(m.pattern, {0: frozenset({99}), 1: frozenset({5})},
                       dict(m.branch_parts))
        assert any("out-of-range" in v for v in validate_model(g, bad))

    def test_disconnected_part(self):
        g, m = k2_path_model(6)
        bad = FatModel(m.pattern, dict(m.branch_sets),
                       {0: frozenset({0, 1, 3, 4, 5})})
        assert any("not connected" in v for v in validate_model(g, bad))

    def test_tuple_part_must_be_path(self):
        g, m = k2_path_model(6)
        bad = FatModel(m.pattern, dict(m.branch_sets), {0: (0, 2, 4)})
        assert any("not one" in v for v in validate_model(g, bad))

    def test_part_must_meet_both_sets(self):
        g, m = k2_path_model(6)
        bad = FatModel(m.pattern, dict(m.branch_sets), {0: tuple(range(1, 6))})
        assert any("misses the branch set" in v for v in validate_model(g, bad))

    def test_non_incident_overlap(self):
        g = path_graph(6)
        pat = PatternGraph.from_parts([0, 1], {})
        bad = FatModel(pat, {0: frozenset({1}), 1: frozenset({1})}, {})
        assert any("non-incident" in v for v in validate_model(g, bad))

    def test_incident_parts_meet_outside_shared_set(self):
        g, m = p3_model()
        parts = dict(m.branch_parts)
        parts[1] = tuple(range(4, 11))
        bad = FatModel(m.pattern, dict(m.branch_sets), parts)
        assert any("outside" in v for v in validate_model(g, bad))


class TestFatness:
    def test_k2_on_p3(self):
        g, m = k2_path_model(3)
        assert fatness(g, m) == 2

    def test_incident_vertex_edge_exempt(self):
        # without the exemption the touching set/part pairs would give 0
        g, m = k2_path_model(9)
        assert fatness(g, m) == 8

    def test_edge_pair_sharing_vertex_counts(self):
        g, m = p3_model()
        # the two parts share host vertex 5 inside the middle branch set
        assert fatness(g, m) == 0

    def test_no_pairs_is_inf(self):
        g = path_graph(6)
        pat = PatternGraph.from_parts([0], {})
        m = FatModel(pat, {0: frozenset({3})}, {})
        assert fatness(g, m) == inf

    def test_invalid_model_raises(self):
        g, m = k2_path_model(6)
        bad = FatModel(m.pattern, dict(m.branch_sets), {0: frozenset()})
        with pytest.raises(PreconditionError):
            fatness(g, bad)


class TestIsSimple:
    def test_path_part_is_simple(self):
        g, m = k2_path_model(8)
        assert is_simple(g, m) == []

    def test_set_valued_part_is_not(self):
        g, m = k2_path_model(8)
        bad = FatModel(m.pattern, dict(m.branch_sets),
                       {0: frozenset(range(8))})
        assert any("path-valued" in v for v in is_simple(g, bad))

    def test_reentering_part(self):
        g = path_graph(6)
        pat = PatternGraph.from_parts([0, 1], {0: (0, 1)})
        m = FatModel(pat, {0: frozenset({0, 1}), 1: frozenset({5})},
                     {0: (0, 1, 2, 3, 4, 5)})
        assert any("re-enters" in v for v in is_simple(g, m))

    def test_wrong_endpoints(self):
        g = path_graph(6)
        pat = PatternGraph.from_parts([0, 1], {0: (0, 1)})
        m = FatModel(pat, {0: frozenset({1}), 1: frozenset({3})},
                     {0: (0, 1, 2, 3)})
        assert any("does not run between" in v for v in is_simple(g, m))


class TestIsClean:
    def test_straight_path_is_clean(self):
        g, m = k2_path_model(9)
        assert is_clean(g, m, 3)

    def test_zero_holds_for_simple(self):
        g, m = p3_model()
        assert is_clean(g, m, 0)

    def test_duplicated_layer(self):
        # vertices 1 and 2 are both at distance 1 from the right branch set
        g = Graph(8, [(0, 1), (1, 2), (2, 7), (1, 7)])
        pat = PatternGraph.from_parts([0, 1], {0: (0, 1)})
        m = FatModel(pat, {0: frozenset({0}), 1: frozenset({7})},
                     {0: (0, 1, 2, 7)})
        assert is_clean(g, m, 0)
        assert not is_clean(g, m, 1)

    def test_needs_simple_model(self):
        g, m = k2_path_model(9)
        bad = FatModel(m.pattern, dict(m.branch_sets),
                       {0: frozenset(range(9))})
        with pytest.raises(PreconditionError):
            is_clean(g, bad, 1)

    def test_negative_ell_raises(self):
        g, m = k2_path_model(9)
        with pytest.raises(PreconditionError):
            is_clean(g, m, -1)


class TestFatToClean:
    def test_straight_path_identity(self):
        g, m = k2_path_model(100)
        out = fat_to_clean(g, m, 8, 4)
        assert out.branch_sets == m.branch_sets
        assert out.branch_parts[0] == tuple(range(100))
        assert fatness(g, out) >= 8
        assert is_clean(g, out, 4)

    def test_set_valued_part_gets_rerouted(self):
        # host path with a two-vertex detour around vertex 51
        edges = [(i, i + 1) for i in range(99)]
        edges += [(50, 100), (100, 101), (101, 52)]
        g = Graph(102, edges)
        pat = PatternGraph.from_parts([0, 1], {0: (0, 1)})
        m = FatModel(pat, {0: frozenset({0}), 1: frozenset({99})},
                     {0: frozenset(range(102))})
        out = fat_to_clean(g, m, 8, 4)
        assert out.branch_parts[0] == tuple(range(100))
        assert out.branch_sets == m.branch_sets
        assert is_clean(g, out, 4)

    def test_needs_enough_fatness(self):
        g, m = k2_path_model(10)
        with pytest.raises(PreconditionError):
            fat_to_clean(g, m, 8, 4)

    def test_needs_q_at_least_ell(self):
        g, m = k2_path_model(100)
        with pytest.raises(PreconditionError):
            fat_to_clean(g, m, 2, 4)


def brute_fatness(g: Graph, m: FatModel) -> float:
    """Least dist over every element pair but incident vertex-edge ones."""
    best = inf
    elements = m.all_elements()
    for idx, (ka, ia, vsa) in enumerate(elements):
        for kb, ib, vsb in elements[idx + 1:]:
            if ka != kb:
                x, e = (ia, ib) if ka == "v" else (ib, ia)
                if x in m.pattern.endpoints(e):
                    continue
            best = min(best, dist(g, vsa, vsb))
    return best


def helper_models():
    rng = random.Random(5)
    for _ in range(4):
        yield k2_path_model(rng.randint(2, 40))
        yield p3_path_model(rng.randint(1, 4))
    for ell, extra in ((1, 0), (1, 3), (2, 1)):
        yield star_grid_model(ell, extra)
        yield c6_grid_model(ell, extra)


def scattered_models():
    """Isolated pattern vertices on disjoint random vertex pairs or
    singletons of a random host, so the least distance may sit between any
    two elements, not just the first and another."""
    for seed in range(30):
        rng = random.Random(seed)
        g, _ = make_instance("random", 40, seed=seed)
        picks = rng.sample(range(g.n), 2 * rng.randint(2, 8))
        sets = {}
        for x, (u, v) in enumerate(zip(picks[::2], picks[1::2])):
            sets[x] = frozenset({u, v}) if v in g.adj[u] else frozenset({u})
        yield g, FatModel(PatternGraph.from_parts(sets, {}), sets, {})


def solver_models(monkeypatch, solves=None):
    """The model of every frame that the given solves build, by default
    small solves of every family and terminal policy."""
    if solves is None:
        solves = [(make_instance(family, 60, seed=1, a_policy=policy), k)
                  for family in FAMILIES for policy in A_POLICIES
                  for k in (2, 3)]
    out = []
    check = frame.validate_frame

    def record(g, fr):
        out.append((g, fr.model))
        return check(g, fr)
    monkeypatch.setattr(frame, "validate_frame", record)
    for (g, a), k in solves:
        solve(g, a, SolveParams(k, 1))
    monkeypatch.undo()
    return out


def test_fatness_matches_brute_force(monkeypatch):
    cases = [*helper_models(), *scattered_models(), *solver_models(monkeypatch)]
    assert sum(m.pattern.n_edges >= 2 for _, m in cases) >= 8
    for g, m in cases:
        assert validate_model(g, m) == []
        assert _fatness(g, m) == brute_fatness(g, m)


def test_fatness_floor_decides_the_bound(monkeypatch):
    """_fatness(g, m, b) reaches b exactly when the model is b-fat, and a
    value below b is the exact fatness, at the bounds on either side of
    the exact value as well as 0, 1 and inf; the spider's frames are those
    of the first rung of the benchmark's spider ladder."""
    spider = [(make_instance("spider", 5000, seed=1, a_policy="endpoints"), 2)]
    cases = [*helper_models(), *scattered_models(), *solver_models(monkeypatch),
             *solver_models(monkeypatch, spider)]
    floored = 0
    for g, m in cases:
        exact = brute_fatness(g, m)
        assert fatness(g, m) == exact
        for b in (0, 1, exact, exact + 1, inf):
            got = _fatness(g, m, b)
            assert (got >= b) == (exact >= b)
            if got < b:
                assert got == exact
            else:
                floored += got < exact
    assert floored > 0


@pytest.mark.parametrize("step, bound_text", [
    (lambda g, m: fat_to_clean(g, m, 8, 4),
     "fat_to_clean needs a 16-fat model, measured fatness 11"),
    (lambda g, m: augment(g, m, 0, 0, (0,), 2),
     "augment needs an 16-fat model, measured fatness 11"),
    (lambda g, m: make_topological(g, m, 2), "model fatness 11 below 7*ell=14"),
])
def test_public_steps_report_exact_fatness_and_invalid_models(step, bound_text):
    """A step decides its precondition with a bound, yet reports the exact
    fatness below it, and refuses an invalid model as fatness does."""
    g, m = k2_path_model(12)
    with pytest.raises(PreconditionError) as exc:
        step(g, m)
    assert str(exc.value) == bound_text
    bad = FatModel(m.pattern, {0: frozenset({0}), 1: frozenset({11, 30})},
                   dict(m.branch_parts))
    with pytest.raises(PreconditionError) as exc:
        step(g, bad)
    assert str(exc.value) == ("fatness of invalid model: branch part of "
                              "vertex 1 has out-of-range ids [30]")

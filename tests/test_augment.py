import pytest

from helpers import k2_path_model
from pathpack import FatModel, Graph, PatternGraph, PreconditionError
from pathpack.augment import augment
from pathpack.graph import dist, radius_center
from pathpack.model import fatness, is_clean, part_vertices, validate_model


def k2_model(left: int, right: int, part) -> FatModel:
    pat = PatternGraph.from_parts([0, 1], {0: (0, 1)})
    return FatModel(pat, {0: frozenset({left}), 1: frozenset({right})}, {0: part})


def subdivided_host():
    """Cycle host; the approach starts on the branch path itself, so the
    two trimmed stubs are far apart and a lands inside the mid set."""
    g = Graph(400, [(i, (i + 1) % 400) for i in range(400)])
    m = k2_model(0, 200, tuple(range(201)))
    return g, m, 100, (100,)


def attached_host():
    """Path host with two prongs meeting at w, plus a pendant chain to a.
    The stubs are far apart and a is far from w."""
    edges = [(i, i + 1) for i in range(400)]
    edges += [(401, 402), (402, 403), (403, 404), (404, 200)]
    edges += [(401, 405), (405, 406), (406, 407), (407, 210)]
    edges += [(401, 408), (408, 409)]
    g = Graph(410, edges)
    m = k2_model(0, 400, tuple(range(401)))
    return g, m, 409, (409, 408, 401)


def junction_host():
    """Path host with a single prong, so both stubs stop at the same
    vertex and the junction construction is needed."""
    edges = [(i, i + 1) for i in range(400)]
    edges += [(401, 402), (402, 403), (403, 404), (404, 200)]
    edges += [(401, 405), (405, 406)]
    g = Graph(407, edges)
    m = k2_model(0, 400, tuple(range(401)))
    return g, m, 406, (406, 405, 401)


def common_checks(g, m, res, ell):
    assert validate_model(g, res.model) == []
    assert fatness(g, res.model) >= ell
    # branch sets of the old endpoints survive unchanged
    assert res.model.branch_sets[0] == m.branch_sets[0]
    assert res.model.branch_sets[1] == m.branch_sets[1]
    # the old edge is gone, replaced by the subdivision vertex
    assert 0 not in res.model.pattern.edge_ids()
    assert res.model.pattern.degree(res.sub_vertex) >= 2
    mid = part_vertices(res.model.branch_sets[res.sub_vertex])
    assert radius_center(g, mid)[1] <= 4 * ell


class TestSubdividedCase:
    def test_result(self):
        g, m, a, p = subdivided_host()
        res = augment(g, m, a, 0, p, 1)
        assert res.pendant_vertex is None
        assert res.sub_vertex == 2
        common_checks(g, m, res, 1)
        # mid set covers both stubs' inner ends around w = 100
        assert res.model.branch_sets[2] == frozenset(range(96, 105))
        assert res.model.branch_parts[1] == tuple(range(97))
        assert res.model.branch_parts[2] == tuple(range(200, 103, -1))

    def test_pattern_is_p3(self):
        g, m, a, p = subdivided_host()
        res = augment(g, m, a, 0, p, 1)
        assert res.model.pattern.n_vertices == 3
        assert res.model.pattern.n_edges == 2
        assert res.model.pattern.degree(2) == 2


class TestAttachedCase:
    def test_result(self):
        g, m, a, p = attached_host()
        res = augment(g, m, a, 0, p, 1)
        assert res.sub_vertex == 2
        assert res.pendant_vertex == 3
        common_checks(g, m, res, 1)
        assert res.model.branch_sets[3] == frozenset({409})
        # mid set is the union of the two prongs
        assert res.model.branch_sets[2] == frozenset(
            {401, 402, 403, 404, 200, 405, 406, 407, 210})
        assert res.model.branch_parts[1] == tuple(range(201))
        assert res.model.branch_parts[2] == tuple(range(400, 209, -1))
        assert res.model.branch_parts[3] == p

    def test_pattern_shape(self):
        g, m, a, p = attached_host()
        res = augment(g, m, a, 0, p, 1)
        assert res.model.pattern.n_vertices == 4
        assert res.model.pattern.n_edges == 3
        assert res.model.pattern.degree(res.sub_vertex) == 3
        assert res.model.pattern.degree(res.pendant_vertex) == 1


class TestJunctionCase:
    def test_result(self):
        g, m, a, p = junction_host()
        res = augment(g, m, a, 0, p, 1)
        assert res.pendant_vertex is not None
        common_checks(g, m, res, 1)
        assert res.model.branch_sets[res.pendant_vertex] == frozenset({406})
        # the pendant part carries the whole approach
        pend = part_vertices(res.model.branch_parts[res.pendant_vertex])
        assert {406, 405, 401} <= pend

    def test_connectors_reach_their_sets(self):
        g, m, a, p = junction_host()
        res = augment(g, m, a, 0, p, 1)
        part_y = part_vertices(res.model.branch_parts[1])
        part_z = part_vertices(res.model.branch_parts[2])
        assert 0 in part_y
        assert 400 in part_z


class TestPreconditions:
    def test_bad_scale(self):
        g, m, a, p = subdivided_host()
        with pytest.raises(PreconditionError):
            augment(g, m, a, 0, p, 0)

    def test_unknown_edge(self):
        g, m, a, p = subdivided_host()
        with pytest.raises(PreconditionError):
            augment(g, m, a, 7, p, 1)

    def test_set_valued_branch_part(self):
        g, m, a, p = subdivided_host()
        fat = FatModel(m.pattern, dict(m.branch_sets),
                       {0: frozenset(range(201))})
        with pytest.raises(PreconditionError):
            augment(g, fat, a, 0, p, 1)

    def test_p_not_a_path(self):
        g, m, a, _ = attached_host()
        with pytest.raises(PreconditionError):
            augment(g, m, a, 0, (409, 401), 1)

    def test_p_starts_elsewhere(self):
        g, m, a, _ = attached_host()
        with pytest.raises(PreconditionError):
            augment(g, m, a, 0, (408, 401), 1)

    def test_needs_fat_model(self):
        g, m = k2_path_model(12)
        with pytest.raises(PreconditionError, match="fat"):
            augment(g, m, 0, 0, (0,), 2)

    def test_needs_clean_model(self):
        # shortcut edge creates two part vertices at distance 2 from {0}
        edges = [(i, i + 1) for i in range(40)] + [(0, 41), (41, 4)]
        g = Graph(43, edges)
        m = k2_model(0, 40, tuple(range(41)))
        with pytest.raises(PreconditionError, match="clean"):
            augment(g, m, 42, 0, (42,), 1)

    def test_p_enters_ball_early(self):
        g, m, a, _ = junction_host()
        with pytest.raises(PreconditionError, match="early"):
            augment(g, m, a, 0, (406, 405, 401, 402, 403, 404), 1)

    def test_p_must_reach_ball(self):
        g, m, _, _ = attached_host()
        with pytest.raises(PreconditionError, match="approach ball"):
            augment(g, m, 409, 0, (409, 408), 1)

    def test_p_too_close_to_branch_set(self):
        # pendant hanging right next to the left branch set
        edges = [(i, i + 1) for i in range(400)] + [(1, 401)]
        g = Graph(402, edges)
        m = k2_model(0, 400, tuple(range(401)))
        with pytest.raises(PreconditionError, match="branch set"):
            augment(g, m, 401, 0, (401,), 1)

"""End-to-end acceptance checks, one test per numbered criterion.

Each test drives a full scenario and reports a single PASS or FAIL
summary line; conftest echoes the collected lines after the run (pass
-s to also see them inline).
"""

from __future__ import annotations

import hashlib
import random
import time
from contextlib import contextmanager

from helpers import (ACCEPTANCE_LINES, c6_grid_model, check_forest_paths,
                     generated_tripod_instances, grid_graph, k2_path_model,
                     p3_path_model, path_graph, random_subcubic_forest,
                     star_grid_model)
from pathpack import (FatModel, Graph, HittingCertificate,
                      PackingCertificate, PatternGraph, SolveParams,
                      TripodResult, UNREACHABLE,
                      brute_force_packing_exists, check_branch_bound,
                      check_tripod_result, check_tripoid, dist, empty_frame,
                      extend_or_hit, extract_z_paths, fat_to_clean, fatness,
                      frame_to_packing, has_radius_at_most, init_tripoid,
                      is_clean, make_instance, make_topological, solve,
                      tripod_step, validate_frame, validate_model,
                      verify_hitting, verify_packing)
from pathpack.fileio import certificate_to_json

MATRIX_FAMILIES = ("path", "cycle", "spider", "disjoint_paths", "random")
POLICIES = ("endpoints", "all", "random_p")
MATRIX_NS = (30, 200, 20000)


@contextmanager
def criterion(num: int, desc: str):
    """Record one summary line for the criterion, pass or fail."""
    try:
        yield
    except BaseException:
        line = f"[criterion {num}] FAIL - {desc}"
        ACCEPTANCE_LINES.append(line)
        print(line)
        raise
    line = f"[criterion {num}] PASS - {desc}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def assert_certificate(g: Graph, a: frozenset[int], params: SolveParams,
                       cert) -> None:
    """Exact bound compliance plus acceptance by the matching verifier."""
    if isinstance(cert, PackingCertificate):
        assert len(cert.paths) == params.k
        assert verify_packing(g, a, cert.paths, params.k, params.d,
                              params.coarse)
    else:
        assert isinstance(cert, HittingCertificate)
        assert len(cert.x) <= params.bound_f
        assert cert.radius == params.bound_g
        assert cert.coarse_threshold == (params.bound_g if params.coarse
                                         else None)
        assert verify_hitting(g, a, cert.x, cert.radius, params.bound_f,
                              cert.coarse_threshold)


def run_matrix(ns, validate: bool = False, per_instance_limit: float = 10.0):
    """Every family at every size, all (k, d, mode) combinations.  Returns
    the number of solves and the sha256 of their certificate JSON."""
    count = 0
    digest = hashlib.sha256()
    for n in ns:
        for fi, family in enumerate(MATRIX_FAMILIES):
            g, a = make_instance(family, n, seed=n + fi,
                                 a_policy=POLICIES[(n + fi) % 3])
            for k in (1, 2):
                for d in (1, 2, 3):
                    for coarse in (False, True):
                        params = SolveParams(k, d, coarse=coarse)
                        t0 = time.monotonic()
                        cert = solve(g, a, params, validate=validate)
                        assert time.monotonic() - t0 < per_instance_limit
                        assert_certificate(g, a, params, cert)
                        digest.update(certificate_to_json(cert, params).encode())
                        count += 1
    return count, digest.hexdigest()


# sha256 of the certificate JSON of the criterion 1 matrix, in solve order.
# Changing how the solver checks its steps must leave it byte-identical.
MATRIX_SHA256 = "1b424570e21720ead942223854b84956ff08c7a0b7ced5b9bf7b9a0a3fa8960b"


def test_criterion_1():
    with criterion(1, "certificate bounds hold over the family matrix "
                      "up to n=20000, under 10s per instance"):
        assert run_matrix(MATRIX_NS) == (180, MATRIX_SHA256)


def grid_instances():
    """The grid family, which the criterion 1 matrix leaves out: the
    100x100 grid with every vertex a terminal, and 66x66 grids with random
    terminals plus the four corners.  The 66x66 diameter lies in
    [128*d, 256*d) and the corners put a terminal at least 128*d from the
    least one, so the first far-pair search cannot decide."""
    g, a = make_instance("grid", 100 * 100, a_policy="all")
    yield g, a
    for seed in (1, 2, 3):
        g, a = make_instance("grid", 66 * 66, seed=seed, a_policy="random_p")
        yield g, a | {0, 65, 66 * 65, 66 * 66 - 1}


def test_grid_family_within_bound():
    for g, a in grid_instances():
        for coarse in (False, True):
            params = SolveParams(2, 1, coarse=coarse)
            t0 = time.monotonic()
            cert = solve(g, a, params)
            assert time.monotonic() - t0 < 10.0
            assert isinstance(cert, HittingCertificate)
            assert_certificate(g, a, params, cert)


def test_spider_family_within_bound():
    """The 40000-vertex spider with endpoint terminals: augment's junction
    branch runs about ten thousand rounds here, so this holds the round
    loop to the per-instance bound."""
    g, a = make_instance("spider", 40000)
    params = SolveParams(2, 1)
    t0 = time.monotonic()
    cert = solve(g, a, params)
    assert time.monotonic() - t0 < 10.0
    assert isinstance(cert, HittingCertificate)
    assert_certificate(g, a, params, cert)


# sha256 of the certificate JSON for the 5000-vertex spider, k=2, d=1.  Its
# solve runs about 1200 junction rounds; speeding them up must leave the
# certificate byte-identical.
SPIDER_5K_SHA256 = "30601b152a041d5dfe49c9492c09e97b74dc8403d5e396dd708a4d71c0480526"


def test_spider_certificate_is_pinned():
    g, a = make_instance("spider", 5000)
    params = SolveParams(2, 1)
    text = certificate_to_json(solve(g, a, params), params)
    assert hashlib.sha256(text.encode()).hexdigest() == SPIDER_5K_SHA256


def run_seeded(seed: int, validate: bool = False):
    rng = random.Random(seed)
    n = rng.randint(2, 12) if seed < 150 else rng.randint(2, 200)
    g, a = make_instance("random", n, seed=seed, a_policy=POLICIES[seed % 3])
    k = rng.choice((1, 2))
    d = rng.choice((1, 2))
    params = SolveParams(k, d, coarse=bool(seed & 1))
    cert = solve(g, a, params, validate=validate)
    assert_certificate(g, a, params, cert)
    return g, a, params, cert


def test_criterion_2():
    with criterion(2, "verifiers accept 500 seeded solves; small packings "
                      "confirmed by brute force, under 60s"):
        t0 = time.monotonic()
        brute_checked = 0
        for seed in range(500):
            g, a, params, cert = run_seeded(seed)
            if g.n <= 12 and isinstance(cert, PackingCertificate):
                assert brute_force_packing_exists(g, a, params.k, params.d,
                                                  coarse=params.coarse)
                brute_checked += 1
        assert brute_checked >= 40
        assert time.monotonic() - t0 < 60.0


def three_chain_instance() -> tuple[Graph, frozenset[int]]:
    """Three disjoint paths of length 5000; terminals are the six ends."""
    chain = 5001
    edges = []
    for c in range(3):
        base = c * chain
        edges.extend((base + t, base + t + 1) for t in range(chain - 1))
    g = Graph(3 * chain, edges)
    a = frozenset({c * chain for c in range(3)}
                  | {c * chain + chain - 1 for c in range(3)})
    return g, a


def test_criterion_3():
    with criterion(3, "three disjoint 5000-edge chains yield two paths at "
                      "unreachable mutual distance"):
        params = SolveParams(2, 1)
        assert params.frame_r == 1024
        assert [params.frame_ell(i) // 16 for i in range(3)] == [256, 16, 1]
        g, a = three_chain_instance()
        cert = solve(g, a, params)
        assert isinstance(cert, PackingCertificate)
        assert len(cert.paths) == 2
        assert verify_packing(g, a, cert.paths, 2, 1, False)
        p0, p1 = cert.paths
        assert dist(g, set(p0), set(p1)) == UNREACHABLE
        chains = [set(range(c * 5001, (c + 1) * 5001)) for c in range(3)]
        for p in cert.paths:
            assert any(set(p) <= ch for ch in chains)


def test_criterion_4():
    with criterion(4, "spider with four length-10 legs yields a hitting set "
                      "of at most 4 centers at radius 65536"):
        g, a = make_instance("spider", 41)
        cert = solve(g, a, SolveParams(2, 1))
        assert isinstance(cert, HittingCertificate)
        assert len(cert.x) <= 4
        assert cert.radius == 65536
        assert verify_hitting(g, a, cert.x, 65536, 4)
        assert cert.x == frozenset({0})


def test_criterion_5():
    with criterion(5, "200 three-leg instances pass every result check, "
                      "within |Q| iterations, under 30s"):
        t0 = time.monotonic()
        for g, tips, q, ell, d in generated_tripod_instances():
            state = init_tripoid(g, tips, q, ell, d)
            assert check_tripoid(g, state) == []
            steps = 0
            while True:
                nxt = tripod_step(g, state)
                steps += 1
                assert steps <= len(q)
                if isinstance(nxt, TripodResult):
                    break
                assert check_tripoid(g, nxt) == []
                state = nxt
            assert check_tripod_result(g, tips, q, ell, d, nxt) == []
        assert time.monotonic() - t0 < 30.0


def k2_grid_model(s: int) -> tuple[Graph, FatModel]:
    """Single-edge pattern across the main diagonal of a grid."""
    g = grid_graph(s)
    pat = PatternGraph.from_parts([0, 1], {0: (0, 1)})
    m = FatModel(pat, {0: frozenset({0}), 1: frozenset({s * s - 1})},
                 {0: frozenset(range(s * s))})
    return g, m


def detour_path_model(n: int) -> tuple[Graph, FatModel]:
    """Path host with a two-vertex bump; the set-valued part includes it."""
    c = n // 2
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [(c, n), (n, n + 1), (n + 1, c + 2)]
    g = Graph(n + 2, edges)
    pat = PatternGraph.from_parts([0, 1], {0: (0, 1)})
    m = FatModel(pat, {0: frozenset({0}), 1: frozenset({n - 1})},
                 {0: frozenset(range(n + 2))})
    return g, m


def fat_clean_case(j: int, rng: random.Random):
    kind = j % 4
    if kind == 0:
        ell = 1 + j % 5
        q = ell + rng.randint(0, 4)
        g, m = k2_path_model(2 * (q + 2 * ell) + rng.randint(10, 60))
        return g, m, q, ell
    if kind == 1:
        ell = 1 + j % 4
        q = ell + rng.randint(0, 3)
        g, m = detour_path_model(2 * (q + 2 * ell) + rng.randint(20, 80))
        return g, m, q, ell
    if kind == 2:
        ell = 1 + j % 3
        q = ell + rng.randint(0, 2)
        g, m = k2_grid_model(q + 2 * ell + rng.randint(4, 10))
        return g, m, q, ell
    ell = 1 + j % 3
    q = ell + rng.randint(0, 3)
    g, m = p3_path_model((q + 2 * ell + 9) // 10 + 1)
    return g, m, q, ell


def test_criterion_6():
    with criterion(6, "100 fat models flatten to clean ones with branch "
                      "sets unchanged"):
        rng = random.Random(66)
        for j in range(100):
            g, m, q, ell = fat_clean_case(j, rng)
            assert fatness(g, m) >= q + 2 * ell
            out = fat_to_clean(g, m, q, ell)
            assert validate_model(g, out) == []
            assert out.branch_sets == m.branch_sets
            assert fatness(g, out) >= q
            assert is_clean(g, out, ell)


def test_criterion_7():
    with criterion(7, "1000 subcubic forests satisfy the leaf bound and "
                      "the path-count guarantee"):
        rng = random.Random(77)
        for _ in range(1000):
            f = random_subcubic_forest(rng.randint(1, 60), rng)
            assert check_branch_bound(f)
            eligible = [v for v in f.vertex_ids() if f.degree(v) <= 2]
            prob = rng.choice((0.2, 0.5, 0.9))
            z = frozenset(v for v in eligible if rng.random() < prob)
            paths = extract_z_paths(f, z)
            check_forest_paths(f, z, paths)
            marked = sum(1 for comp in f.components() if z & comp)
            assert len(paths) >= (len(z) - marked + 1) // 2


def topo_cases(ell: int):
    yield k2_path_model(40 * ell + 11)
    yield k2_path_model(23 * ell + 30)
    yield k2_path_model(9 * ell + 57)
    yield k2_grid_model(8 * ell + 5)
    yield p3_path_model(ell)
    yield p3_path_model(ell, 513)
    yield star_grid_model(ell)
    yield star_grid_model(ell, 4)
    yield c6_grid_model(ell)
    yield c6_grid_model(ell, 3)


def test_criterion_8():
    with criterion(8, "50 fat pattern models yield valid replacements with "
                      "branch radius at most floor(1.5*ell)"):
        count = 0
        for ell in range(1, 6):
            for g, m in topo_cases(ell):
                assert fatness(g, m) >= 7 * ell
                out = make_topological(g, m, ell)
                assert validate_model(g, out) == []
                assert set(out.pattern.edge_ids()) == set(m.pattern.edge_ids())
                assert fatness(g, out) >= ell
                for bs in out.branch_sets.values():
                    assert has_radius_at_most(g, set(bs), (3 * ell) // 2)
                count += 1
        assert count == 50


def replay_schedule(g: Graph, a: frozenset[int], params: SolveParams):
    """Drive the extension loop by hand, revalidating the frame at every
    scheduled scale."""
    fr = empty_frame(a, params.frame_ell(0), params.frame_r, params.coarse)
    for i in range(2 * params.k - 1):
        assert (fr.i, fr.ell, fr.r) == (i, params.frame_ell(i),
                                        params.frame_r)
        assert validate_frame(g, fr) == []
        fr = extend_or_hit(g, fr)
        if isinstance(fr, frozenset):
            return fr
    assert fr.i == 2 * params.k - 1
    assert validate_frame(g, fr) == []
    return fr


def test_criterion_9():
    with criterion(9, "matrix and walk-through reruns pass frame checks at "
                      "every scheduled scale"):
        assert run_matrix(MATRIX_NS, validate=True) == (180, MATRIX_SHA256)
        for seed in range(500):
            run_seeded(seed, validate=True)
        g3, a3 = three_chain_instance()
        cert = solve(g3, a3, SolveParams(2, 1), validate=True)
        assert isinstance(cert, PackingCertificate)
        g4, a4 = make_instance("spider", 41)
        cert = solve(g4, a4, SolveParams(2, 1), validate=True)
        assert isinstance(cert, HittingCertificate)

        end = replay_schedule(g3, a3, SolveParams(2, 1))
        assert not isinstance(end, frozenset)
        paths = frame_to_packing(g3, end)
        assert len(paths) >= 2
        assert verify_packing(g3, a3, paths[:2], 2, 1, False)
        end = replay_schedule(g4, a4, SolveParams(2, 1))
        assert isinstance(end, frozenset)
        assert len(end) <= 4

"""The contract-checking policy: every solver round checks each model it
builds once, validate=True adds only the schedule check and the oracle's
verification, and python -O changes no check."""

import os
import subprocess
import sys
from collections import Counter
from math import inf
from pathlib import Path

import pytest

import pathpack
from pathpack import SolveParams, frame, graph, make_instance, model, solve

TESTS = Path(__file__).parent
SRC = Path(pathpack.__file__).parent.parent


def count_calls(monkeypatch, *fns) -> Counter:
    """Count calls of each function through every pathpack module that
    binds it."""
    counts: Counter = Counter()
    for fn in fns:
        def counted(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)
        for name, mod in list(sys.modules.items()):
            if name.startswith("pathpack") and vars(mod).get(fn.__name__) is fn:
                monkeypatch.setattr(mod, fn.__name__, counted)
    return counts


@pytest.mark.parametrize("validate", [False, True])
def test_spider_round_checks_each_model_once(monkeypatch, validate):
    """The solve checks four models: two cleaned ones and two new frames;
    round 0 cleans the empty model, which fat_to_clean leaves as it is.
    _fatness is the measurement that fatness runs once per call."""
    g, a = make_instance("spider", 5000)
    counts = count_calls(monkeypatch, model._fatness, model.validate_model)
    solve(g, a, SolveParams(2, 1), validate=validate)
    assert counts["_fatness"] <= 4
    assert counts["validate_model"] <= 4


@pytest.mark.parametrize("validate", [False, True])
def test_spider_fatness_searches_stop_at_the_bound(monkeypatch, validate):
    """Every fatness check of a solve compares with a bound it passes to
    _fatness, so each of its searches has a finite cutoff, though the
    spider's legs run for thousands of vertices."""
    inside = []
    cutoffs = []
    fatness = model._fatness

    def dist(*args, _fn=model.dist, **kwargs):
        if inside:
            cutoffs.append(kwargs.get("cutoff"))
        return _fn(*args, **kwargs)

    def _fatness(*args):
        inside.append(True)
        try:
            return fatness(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(model, "dist", dist)
    for name, mod in list(sys.modules.items()):
        if name.startswith("pathpack") and vars(mod).get("_fatness") is fatness:
            monkeypatch.setattr(mod, "_fatness", _fatness)
    g, a = make_instance("spider", 5000)
    solve(g, a, SolveParams(2, 1), validate=validate)
    assert cutoffs
    assert all(c is not None and c < inf for c in cutoffs), cutoffs


def test_spider_round_runs_no_whole_graph_search(monkeypatch):
    """Connectivity is one search over the set and candidate components
    grow from terminals, so no round splits a region into components;
    fatness stops at its bound, so the distance maps left are
    the cleanness layers (one per branch set with an incident edge),
    augment's, the far-pair searches and the round's approach map: 6, 1,
    2 and 1 calls on this solve."""
    g, a = make_instance("spider", 5000)
    counts = count_calls(monkeypatch, graph.components, graph.distance_map)
    solve(g, a, SolveParams(2, 1))
    assert counts["components"] == 0
    assert counts["distance_map"] <= 10


def test_round_decides_each_fact_once(monkeypatch):
    """The close-pair verdict comes from the candidates' far-pair search,
    an absorbing round runs no search on its approach path before augment
    builds, a tripod tip gets its distance and its leg from one search,
    and augment finds the stub link and the fold path with the searches
    that decide them: 41 dist, 1,209 ball and 1,205 st_path calls on this
    spider solve, and no dist on a path whose terminals are all close."""
    counts = count_calls(monkeypatch, graph.dist, graph.ball, graph.st_path)
    g, a = make_instance("spider", 5000)
    solve(g, a, SolveParams(2, 1))
    assert counts["dist"] <= 41
    assert counts["ball"] <= 1209
    assert counts["st_path"] <= 1205
    counts.clear()
    g, a = make_instance("path", 40, a_policy="all")
    solve(g, a, SolveParams(2, 1))
    assert counts["dist"] == 0


def test_round_skips_the_searches_its_sizes_decide(monkeypatch):
    """A candidate of at most ell vertices gets no far-pair search, the
    candidate loop stops once at most ell unsearched vertices are left, an
    unguarded close pair keeps its path as its geodesic, and an edgeless
    model is cleaned without a check."""
    counts = count_calls(monkeypatch, graph.least_far_pair,
                         graph._component_avoiding, graph.st_path,
                         model.validate_model)
    g, a = make_instance("random", 160, seed=1, a_policy="all")
    solve(g, a, SolveParams(3, 1))
    assert counts["least_far_pair"] <= 1
    assert counts["_component_avoiding"] <= 24
    assert counts["validate_model"] <= 5
    counts.clear()
    g, a = make_instance("path", 40, a_policy="all")
    solve(g, a, SolveParams(2, 1))
    assert counts["least_far_pair"] == 0
    assert counts["st_path"] == 1
    assert counts["validate_model"] == 1


@pytest.mark.parametrize("family, n, a_policy, k", [
    ("spider", 5000, "endpoints", 2), ("random", 160, "all", 3)])
def test_a_solve_measures_each_set_once(monkeypatch, family, n, a_policy, k):
    """A round measures a branch set only when the solve's table has no
    center for it, and enters each center once, so a solve finds the
    center of every branch set it reads once; a frame check searches only
    set-valued parts for connectivity: a path part is connected once it is
    a path, and a branch set of s vertices has radius at most s - 1 < r
    here."""
    measured = []

    def radius_center(g, sub, _fn=graph.radius_center):
        measured.append(frozenset(sub))
        return _fn(g, sub)

    monkeypatch.setattr(frame, "radius_center", radius_center)
    tables, read = [], []
    entered: Counter = Counter()

    def _round(g, fr, centers, _fn=frame._round):
        tables.append(centers)
        before, calls = dict(centers), len(measured)
        out = _fn(g, fr, centers)
        read.append(fr)
        new = centers.keys() - before.keys()
        assert before.items() <= centers.items()
        assert len(measured) - calls == len(new & set(fr.pattern.vertex_ids()))
        entered.update(new)
        return out

    monkeypatch.setattr(frame, "_round", _round)
    counts = count_calls(monkeypatch, graph._connected)
    checks = []

    def validate_frame(g, fr, _fn=frame.validate_frame):
        before = counts["_connected"]
        out = _fn(g, fr)
        parts = [*fr.model.branch_sets.values(), *fr.model.branch_parts.values()]
        checks.append((counts["_connected"] - before,
                       sum(not isinstance(p, tuple) for p in parts),
                       sum(isinstance(p, tuple) for p in parts)))
        return out

    monkeypatch.setattr(frame, "validate_frame", validate_frame)
    g, a = make_instance(family, n, seed=1, a_policy=a_policy)
    solve(g, a, SolveParams(k, 1))
    assert tables[0] and all(t is tables[0] for t in tables)
    assert all(entered[x] == 1 for fr in read for x in fr.pattern.vertex_ids())
    assert set(entered.values()) == {1}
    assert len(set(measured)) == len(measured) <= len(entered)
    assert sum(paths for _, _, paths in checks) > 0
    assert [searches for searches, _, _ in checks] == [
        sets for _, sets, _ in checks]


@pytest.mark.parametrize("family, n, a_policy, k, sizes", [
    ("random", 160, "all", 3, []), ("path", 40, "all", 2, []),
    ("cycle", 160, "random_p", 3, []), ("spider", 5000, "endpoints", 2, [1, 48])])
def test_only_augmented_sets_are_measured(monkeypatch, family, n, a_policy, k,
                                          sizes):
    """A round takes the center of a set it builds from its construction,
    so radius_center runs only on sets that augment built: on the spider,
    the pendant {a} and the 48-vertex mid set."""
    measured, built = [], []

    def radius_center(g, sub, _fn=graph.radius_center):
        measured.append(frozenset(sub))
        return _fn(g, sub)

    def _augment(g, m, *args, _fn=frame._augment):
        out = _fn(g, m, *args)
        old = {id(p) for p in m.branch_sets.values()}
        built.extend(frozenset(model.part_vertices(p))
                     for p in out.model.branch_sets.values() if id(p) not in old)
        return out

    monkeypatch.setattr(frame, "radius_center", radius_center)
    monkeypatch.setattr(frame, "_augment", _augment)
    g, a = make_instance(family, n, seed=1, a_policy=a_policy)
    solve(g, a, SolveParams(k, 1))
    assert sorted(map(len, measured)) == sizes
    assert set(measured) <= set(built)


BROKEN_CLEANNESS = """
import pathpack.model as model
from helpers import k2_path_model
from pathpack import InternalInvariantError, fat_to_clean

model._layered = lambda g, m, ell: False
g, m = k2_path_model(40)
try:
    fat_to_clean(g, m, 8, 4)
except InternalInvariantError as exc:
    print("InternalInvariantError:", exc)
else:
    print("returned")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_broken_output_contract_raises_under_every_flag(flags):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    env.pop("PYTHONOPTIMIZE", None)
    proc = subprocess.run([sys.executable, *flags, "-c", BROKEN_CLEANNESS],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == (
        "InternalInvariantError: fat_to_clean output is not clean")


SOLVE_ALL = """
from pathpack import FAMILIES, SolveParams, make_instance, solve
from pathpack.fileio import certificate_to_json

g, a = make_instance("spider", 5000)
print(certificate_to_json(solve(g, a, SolveParams(2, 1)), SolveParams(2, 1)))
for family in FAMILIES:
    g, a = make_instance(family, 40)
    for coarse in (False, True):
        for k in (1, 2, 3):
            params = SolveParams(k, 1, coarse)
            cert = solve(g, a, params, validate=True)
            print(certificate_to_json(cert, params))
"""


def test_certificates_are_the_same_under_python_o():
    """The spider solve runs augment's junction branch; the small solves
    cover every family, both modes and both certificate kinds."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONOPTIMIZE", None)
    outs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-c", SOLVE_ALL],
                              capture_output=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    text = outs[0].decode()
    kinds = [text.count(f'"type": "{kind}"') for kind in ("packing", "hitting")]
    assert sum(kinds) == 1 + 6 * 2 * 3 and min(kinds) > 0

"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import pathpack  # noqa: E402
import pathpack.fileio  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from pathpack import SolveParams, make_instance  # noqa: E402


def _bindings() -> dict[tuple[str, str], object]:
    return {(name, attr): obj
            for name, mod in list(sys.modules.items())
            if mod is not None and name.partition(".")[0] == "pathpack"
            for attr, obj in vars(mod).items()}


def _small_instances(count: int = 30) -> list:
    """The first instances of the matrix."""
    return workloads.build("matrix", 1)[:count]


def test_self_time_of_a_synthetic_nested_call():
    # root [0, 10] holds a [1, 5] and c [6, 9]; a holds b [2, 3]
    spans = [(0, 0.0, 10.0, -1, 0, 0), (1, 1.0, 5.0, 0, 0, 0),
             (2, 2.0, 3.0, 1, 0, 0), (3, 6.0, 9.0, 0, 0, 0)]
    assert tracer.self_times(spans) == [3.0, 3.0, 1.0, 3.0]


def test_self_times_of_a_traced_solve_partition_its_duration():
    ticks = iter(range(10**9))
    g, a = make_instance("spider", 5000)  # legs long enough to need tripod
    with tracer.Tracer(clock=lambda: float(next(ticks))) as tr:
        tr.begin("solve", 0)
        pathpack.solve(g, a, SolveParams(k=2, d=1))
    selfs = tracer.self_times(tr.spans)
    root = tr.spans[0]
    assert tr.names[root[0]] == "frame.solve" and root[3] == tracer.NO_PARENT
    assert all(s >= 1 for s in selfs)
    assert sum(selfs) == root[2] - root[1]
    counts, _ = tracer.summarize(tr)
    assert counts["tripod.tripod.calls"] >= 1
    assert counts["frame.extend_or_hit.calls"] >= 1


def test_every_binding_is_restored_after_the_traced_run():
    before = _bindings()
    with tracer.Tracer():
        during = _bindings()
    wrapped = [key for key, obj in before.items() if during[key] is not obj]
    assert len(wrapped) >= 40
    assert ("pathpack.frame", "dist") in wrapped  # bound by from-import
    assert ("pathpack", "solve") in wrapped
    assert ("pathpack.topominor", "make_topological") not in wrapped
    first, _ = run.traced_passes(pathpack, _small_instances(5), 0,
                                 run.Samples(5), run.Samples(5))
    assert first.spans
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is obj for key, obj in before.items())


def test_same_seed_gives_same_instances_and_certificates():
    def one_run(seed: int):
        instances = workloads.build("matrix", seed)
        texts = [(i.label, i.graph_text, i.a_text) for i in instances]
        s = run.Samples(len(instances))
        run.timed_passes(pathpack, instances, 0, s,
                         run.setup(pathpack, instances, s))
        assert s.failed == 0
        return texts, run.certificates_sha256(s)

    first = one_run(3)
    assert first == one_run(3)
    assert first[0] != one_run(4)[0]


def test_corrupted_certificate_makes_fail_ratio_positive(monkeypatch):
    instances = _small_instances()
    honest = run.Samples(len(instances))
    setup_times = run.setup(pathpack, instances, honest)
    run.timed_passes(pathpack, instances, 0, honest, setup_times)
    assert honest.failed == 0

    solve = pathpack.solve

    def corrupted(g, a, params, validate=False):
        cert = solve(g, a, params, validate=validate)
        if isinstance(cert, pathpack.PackingCertificate):
            return dataclasses.replace(cert, paths=cert.paths[:-1])
        return dataclasses.replace(cert, radius=cert.radius - 1)

    monkeypatch.setattr(pathpack, "solve", corrupted)
    s = run.Samples(len(instances))
    run.timed_passes(pathpack, instances, 0, s, setup_times)
    assert s.attempted == honest.attempted
    assert s.failed / s.attempted > 0


def test_tail_is_the_highest_percentile_with_ten_values_beyond():
    assert run.tail([float(v) for v in range(972)])[1:] == (98, 19)
    assert run.tail([float(v) for v in range(2916)])[1:] == (99, 29)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100, 0)


def test_speed_scales_by_the_reference_samples_around_an_interval():
    assert speed.reference() == 2 * (speed.SIDE - 1)
    sp = speed.Speed()
    sp.stamps = [0.0, 1.0, 2.0, 10.0]
    sp.times = [n * speed.NOMINAL_S for n in (1, 2, 2, 4)]
    # the samples within WINDOW_S of [1.2, 1.8] are those at 1.0 and 2.0
    assert abs(sp.scaled(1.2, 1.8) - 0.3) < 1e-12
    # none within the window after [3, 4]: the nearest on each side count
    assert sp.factor(3.0, 4.0) == 3.0
    sp.exponent = 0.5
    assert abs(sp.scaled(3.0, 4.0) - 3.0 ** -0.5) < 1e-12


def test_scaling_exponent_of_a_quadratic_ladder():
    assert abs(run.scaling_exponent([1, 2, 4, 4], [1.0, 4.0, 8.0, 8.0]) - 2) < 1e-12


def test_grid_rungs_sit_on_both_sides_of_the_window():
    instances = workloads.build("grid_window", 5)
    assert {i.size for i in instances} == {46 * 46, 66 * 66}
    assert all(workloads.grid_path_problems(i) == [] for i in instances)
    g, a = make_instance("grid", 50 * 50, 5, "random_p")
    off = workloads.Instance("grid 50x50", 66 * 66, SolveParams(k=2, d=1),
                             False, "", "", g, a | {0})
    assert workloads.grid_path_problems(off)


def test_matrix_must_hold_both_outcomes():
    assert workloads.kind_problems(["PackingCertificate", "HittingCertificate"]) == []
    assert workloads.kind_problems(["HittingCertificate"]) == [
        "no PackingCertificate in the matrix"]


def test_refuses_to_run_under_optimize():
    script = str(HERE.parent / "run.py")
    args = ["--workload", "matrix", "--seconds", "1"]
    for cmd, env in (([sys.executable, "-O", script] + args, {}),
                     ([sys.executable, script] + args, {"PYTHONOPTIMIZE": "1"})):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60,
                              env={**os.environ, **env})
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "-O" in proc.stderr

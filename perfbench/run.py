"""pathpack benchmark: solve and verify three workloads through the library API.

    python3 perfbench/run.py --workload spider_ladder --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seconds 35

One process runs one workload, single-threaded.  With --trace 0 it reports
the end-to-end metrics, with tracing off; with --trace 1 it alternates
untraced and traced passes and reports the per-layer split.  Every
certificate is checked by the independent verifiers and against the bounds;
any failure makes the exit code non-zero.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.  `--workload all`
runs each workload in its own process, untraced then traced.
"""

from __future__ import annotations

import argparse
from array import array
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

import tracer
from speed import NOMINAL_S, Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
MAX_PROBLEMS = 20

clock = time.perf_counter


def import_package():
    """Import pathpack from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import pathpack
        import pathpack.fileio
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import pathpack from {src}: {exc}")
    if not Path(pathpack.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: pathpack imported from {pathpack.__file__}, "
                         f"not from {src}")
    return pathpack


# One instance's timed intervals, flat: start, end, start, end, ... on the
# benchmark's clock.  An array keeps them out of the peak RSS.
Intervals = array


def intervals() -> Intervals:
    return array("d")


class Samples:
    """Per-instance timed intervals and the correctness tally of one kind of
    pass."""

    def __init__(self, count: int):
        self.solve: list[Intervals] = [intervals() for _ in range(count)]
        self.validated: list[Intervals] = [intervals() for _ in range(count)]
        self.verify: list[Intervals] = [intervals() for _ in range(count)]
        self.certs: list[Optional[str]] = [None] * count
        self.kinds: list[Optional[str]] = [None] * count
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, label: str, message: str) -> None:
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(f"{label}: {message}")

    def absorb(self, other: "Samples") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems[:MAX_PROBLEMS - len(self.problems)]


def bound_problems(pp, inst, cert) -> list[str]:
    p = inst.params
    if isinstance(cert, pp.PackingCertificate):
        if len(cert.paths) < p.k:
            return [f"{len(cert.paths)} paths, fewer than k={p.k}"]
        return []
    out = []
    if len(cert.x) > p.bound_f:
        out.append(f"{len(cert.x)} hitting vertices, above 4k-4={p.bound_f}")
    if cert.radius != p.bound_g:
        out.append(f"radius {cert.radius} is not 256^k*d={p.bound_g}")
    return out


def verify(pp, inst, cert) -> bool:
    """The oracle's verdict, from the instance's parameters, not the
    certificate's own fields."""
    p = inst.params
    if isinstance(cert, pp.PackingCertificate):
        return pp.verify_packing(inst.graph, inst.a, cert.paths, p.k, p.d,
                                 p.coarse)
    return pp.verify_hitting(inst.graph, inst.a, cert.x, p.bound_g, p.bound_f,
                             p.bound_g if p.coarse else None)


def solve_and_check(pp, s: Samples, i: int, inst, validate: bool = False,
                    tr: Optional[tracer.Tracer] = None) -> None:
    """Solve one instance, time it, verify the certificate and record any
    failure: an exception, a broken bound, a rejected or changed certificate."""
    s.attempted += 1
    try:
        if tr:
            tr.begin("validate" if validate else "solve", i)
        t0 = clock()
        cert = pp.solve(inst.graph, inst.a, inst.params, validate=validate)
        t1 = clock()
        problems = bound_problems(pp, inst, cert)
        if tr:
            tr.begin("verify", i)
        t2 = clock()
        ok = verify(pp, inst, cert)
        t3 = clock()
        text = pp.fileio.certificate_to_json(cert, inst.params)
    except Exception as exc:  # a failed solve is counted; the run goes on
        s.fail(inst.label, f"{type(exc).__name__}: {exc}")
        return
    if not ok:
        problems.append("the verifier rejects the certificate")
    if s.certs[i] is None:
        s.certs[i] = text
        s.kinds[i] = type(cert).__name__
    elif text != s.certs[i]:
        problems.append("certificate differs from the first solve")
    if validate:
        s.validated[i].extend((t0, t1))
    else:
        s.solve[i].extend((t0, t1))
        s.verify[i].extend((t2, t3))
    if problems:
        s.fail(inst.label, "; ".join(problems))


def parse(pp, inst, times: Intervals):
    """Parse one instance from its text form, as `pathpack solve` does
    before it solves, and record the interval."""
    t0 = clock()
    g = pp.fileio.graph_from_text(inst.graph_text)
    a = pp.fileio.vertex_set_from_text(inst.a_text)
    times.extend((t0, clock()))
    return g, a


def setup(pp, instances, s: Samples,
          speed: Optional[Speed] = None) -> list[Intervals]:
    """Parse every instance, check that the parse reproduces it, and keep
    the parsed graphs for the solves.  Returns each instance's parse
    intervals, to which every timed pass adds one more."""
    times = [intervals() for _ in instances]
    for inst, ts in zip(instances, times):
        g, a = parse(pp, inst, ts)
        if speed:
            speed.tick()
        if g.adj != inst.graph.adj or a != inst.a:
            s.fail(inst.label, "parsing does not reproduce the instance")
        inst.graph, inst.a = g, a
    return times


def timed_passes(pp, instances, seconds: float, s: Samples,
                 setup_times: list[Intervals],
                 speed: Optional[Speed] = None) -> int:
    """Parse and solve the instance list pass after pass until the time is
    up; at least one whole pass.  Parsing inside the passes lets set-up see
    the same machine as the solves.  With a Speed, the reference is sampled
    between the timed calls."""
    tick = speed.tick if speed else lambda: None
    deadline = clock() + seconds
    passes = 0
    while passes == 0 or clock() < deadline:
        for inst, ts in zip(instances, setup_times):
            parse(pp, inst, ts)
            tick()
        for i, inst in enumerate(instances):
            if passes and clock() >= deadline:
                break
            solve_and_check(pp, s, i, inst)
            tick()
            if inst.validated:
                solve_and_check(pp, s, i, inst, validate=True)
                tick()
        passes += 1
    return passes


def traced_passes(pp, instances, seconds: float, plain: Samples,
                  traced: Samples):
    """Alternate an untraced pass and a traced pass until the time is up.
    Returns the first traced pass's Tracer and the number of pass pairs."""
    deadline = clock() + seconds
    first = None
    passes = 0
    while passes == 0 or clock() < deadline:
        for i, inst in enumerate(instances):
            solve_and_check(pp, plain, i, inst)
        with tracer.Tracer() as tr:
            for i, inst in enumerate(instances):
                tr.begin("parse", i)
                parse(pp, inst, [])
            for i, inst in enumerate(instances):
                solve_and_check(pp, traced, i, inst, tr=tr)
                if inst.validated:
                    solve_and_check(pp, traced, i, inst, validate=True, tr=tr)
        if first is None:
            first = tr
        passes += 1
    return first, passes


def medians(samples: list[Intervals],
            speed: Optional[Speed] = None) -> list[float]:
    """Each instance's median duration; with a Speed, in seconds at the
    reference speed."""
    def duration(t0: float, t1: float) -> float:
        return speed.scaled(t0, t1) if speed else t1 - t0
    return [statistics.median(map(duration, xs[::2], xs[1::2]))
            for xs in samples if xs]


def tail(values: list[float]) -> tuple[float, int, int]:
    """The highest whole percentile with at least ten values beyond it, as
    (value, percentile, values beyond); the maximum when there are fewer
    than eleven values."""
    xs = sorted(values)
    n = len(xs)
    for q in range(99, 0, -1):
        rank = math.ceil(n * q / 100)
        if n - rank >= 10:
            return xs[rank - 1], q, n - rank
    return xs[-1], 100, 0


def scaling_exponent(sizes: list[int], times: list[float]) -> float:
    """Least-squares slope of log(total time per rung) against log(size)."""
    rungs: dict[int, float] = {}
    for size, t in zip(sizes, times):
        rungs[size] = rungs.get(size, 0.0) + t
    xs = [math.log(n) for n in rungs]
    ys = [math.log(t) for t in rungs.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def end_to_end(instances, s: Samples, setup_times: list[Intervals],
               speed: Speed) -> tuple[dict, list[str]]:
    solve_med = medians(s.solve, speed)
    lat_ms = [t * 1000 for t in solve_med]
    tail_ms, q, beyond = tail(lat_ms)
    metrics = {
        "solve_s": (sum(solve_med), "s"),
        "solve_ms.p50": (statistics.median(lat_ms), "ms"),
        "solve_ms.tail": (tail_ms, "ms"),
        "solve_validated_s": (sum(medians(s.validated, speed)), "s"),
        "verify_s": (sum(medians(s.verify, speed)), "s"),
        "setup_s": (sum(medians(setup_times, speed)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "solve_scaling_exp": (scaling_exponent(
            [i.size for i, xs in zip(instances, s.solve) if xs], solve_med), "1"),
    }
    passes = [len(xs) // 2 for xs in s.solve]
    notes = [
        f"latency samples: {len(lat_ms)} per-instance medians over "
        f"{min(passes)}-{max(passes)} solves each; tail is "
        + (f"p{q} ({beyond} beyond)" if q < 100 else
           "the maximum (fewer than 11 samples)"),
        f"validated instances: {sum(1 for xs in s.validated if xs)}",
        f"setup: per-instance medians over {len(setup_times[0]) // 2} parses",
        f"timings at the reference speed, exponent {speed.exponent}: "
        f"{len(speed.times)} reference samples, median "
        f"{statistics.median(speed.times) * 1e3:.4f} ms against a nominal "
        f"{NOMINAL_S * 1e3:.4f} ms; unscaled solve_s "
        f"{sum(medians(s.solve)):.6g} s",
    ]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, notes


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("calls", ".visited", ".spans")):
        return "count"
    return "1"


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def certificates_sha256(s: Samples) -> str:
    h = hashlib.sha256()
    for text in s.certs:
        h.update((text or "").encode())
    return h.hexdigest()


def run_workload(pp, name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads

    instances = workloads.build(name, seed)
    tally = Samples(len(instances))
    speed = None if trace else Speed(workloads.SCALE_EXPONENT[name])
    if speed:
        speed.sample()
    setup_times = setup(pp, instances, tally, speed)

    problems = []
    if name == "grid_window":
        for inst in instances:
            problems += workloads.grid_path_problems(inst)
    elif name == "matrix":
        warm = Samples(len(instances))
        for i, inst in enumerate(instances):
            solve_and_check(pp, warm, i, inst)
        tally.absorb(warm)
        problems += workloads.kind_problems(
            [k for k in warm.kinds if k is not None])
    if problems:
        raise workloads.WorkloadError("; ".join(problems))
    # The collector then skips everything the benchmark holds, so a solve's
    # collections scan only its own objects, as in a one-instance process.
    gc.collect()
    gc.freeze()

    t_start = clock()
    if trace:
        plain, traced = Samples(len(instances)), Samples(len(instances))
        tr, passes = traced_passes(pp, instances, seconds, plain, traced)
        main = traced
        required = workloads.REQUIRED_SPAN.get(name)
        if required:
            counts = tracer.op_counts(tr, required)
            missing = [instances[idx].label for op, (kind, idx) in enumerate(tr.ops)
                       if kind == "solve" and counts[op] == 0]
            if missing:
                raise workloads.WorkloadError(
                    f"no {required} span in: {', '.join(missing)}")
        values, table = tracer.summarize(tr)
        values["trace.overhead"] = sum(medians(traced.solve)) / sum(medians(plain.solve))
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
        tally.absorb(plain)
        tally.absorb(traced)
        notes = [f"pass pairs (untraced, traced): {passes}"]
    else:
        main = tally
        speed.sample()
        passes = timed_passes(pp, instances, seconds, tally, setup_times,
                              speed)
        speed.sample()
        metrics, notes = end_to_end(instances, tally, setup_times, speed)
    elapsed = clock() - t_start

    kinds = [k for k in main.kinds if k is not None]
    print(f"workload {name}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    print(f"python {platform.python_version()}  nproc {len(os.sched_getaffinity(0))}"
          f"  commit {git_commit()}")
    print(f"instances {len(instances)}  passes {passes}  measured {elapsed:.1f} s"
          f"  packings {kinds.count('PackingCertificate')}"
          f"  hittings {kinds.count('HittingCertificate')}")
    print(f"attempted {tally.attempted}  failed {tally.failed}"
          f"  fail_ratio {tally.failed / tally.attempted:.6g}")
    for line in tally.problems:
        print(f"  FAILED {line}")
    print(f"certificates_sha256 {certificates_sha256(main)}")
    for line in notes:
        print(line)
    for key, m in metrics.items():
        print(f"  {key:<36} {m['value']:>14.6g} {m['unit']}")
    if trace:
        print_trace_tables(values, table)
        OUT_DIR.mkdir(exist_ok=True)
        tr.write(OUT_DIR / f"spans-{name}.jsonl")

    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


def print_trace_tables(values: dict, table: list) -> None:
    layers = sorted((l for l in tracer.LAYERS if l != "graph"),
                    key=lambda l: -values[f"{l}.with_graph_s"])
    print("layer (self s, self + graph calls it made s):")
    for layer in layers:
        print(f"  {layer:<8} {values[layer + '.self_s']:10.4f} "
              f"{values[layer + '.with_graph_s']:10.4f}")
    print(f"largest layer: {layers[0]}")
    print("function (calls, self s), largest self first:")
    for name, calls, self_s in table:
        print(f"  {name:<34} {calls:>9} {self_s:10.4f}")


def run_all(names, seed: int, seconds: int) -> int:
    """Each workload in a fresh process, untraced then traced."""
    code = 0
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=180 + 2 * seconds)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            print(flush=True)
            if proc.returncode != 0:
                code = code or proc.returncode
                total["correct"] = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for key, m in result["metrics"].items():
                total["metrics"][f"{name}/{key}"] = m
    print(json.dumps(total))
    return code


def main(argv: Optional[list[str]] = None) -> int:
    if sys.flags.optimize:
        # -O strips the solver's assert and __debug__ checks: another program
        print("perfbench: refusing to run under python -O / PYTHONOPTIMIZE",
              file=sys.stderr)
        return 2
    pp = import_package()
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"),
                    default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(workloads.WORKLOADS, args.seed, args.seconds)
    try:
        return run_workload(pp, args.workload, args.seed, args.seconds,
                            bool(args.trace))
    except workloads.WorkloadError as exc:
        print(f"perfbench: workload {args.workload} is off its path: {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

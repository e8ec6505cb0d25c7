"""The benchmark's workloads: seeded instance lists, and the checks that keep
each workload on the solver path it was chosen for.

The seed only picks the inputs; pathpack receives the generated graphs and
terminal sets as text, exactly as `pathpack solve` would read them.
"""

from __future__ import annotations

from dataclasses import dataclass

import pathpack
from pathpack import Graph, SolveParams, make_instance
from pathpack.fileio import graph_to_text, vertex_set_to_text
from pathpack.graph import distance_map

SPIDER_RUNGS = (5_000, 10_000, 20_000)
# far_pair loops over every terminal only when the grid diameter lies in
# [128*d, 256*d): side 66 (diameter 130) is inside that window, side 46
# (diameter 90) below it, so the pair of rungs spans the window's edge.
GRID_SIDES = (46, 66)
GRID_WINDOW_SIDE = 66
MATRIX_SIZES = (40, 80, 160)
# The matrix of seed s is made from the generator seeds 3s, 3s+1 and 3s+2.
# One matrix has 972 instances and its p98 moves by a fifth from seed to
# seed; three give 2916 instances and a p99 with 29 instances beyond it.
MATRIX_SEEDS = 3

# How strongly each workload's timings follow the reference (speed.py): a
# call is divided by (reference time / nominal) to this power.  A matrix
# solve takes about a millisecond, like the reference, and follows it fully.
# The spider and grid solves run 0.4 to 3 s and follow it less: a slow spell
# that slows the reference by 40% slows them by about 25%.  The exponents
# were chosen among 0, 0.5, 0.75 and 1 by six-seed trials (README.md).
SCALE_EXPONENT = {"spider_ladder": 0.75, "grid_window": 0.75, "matrix": 1.0}

# Span that every plain solve of the workload must contain in the traced run.
REQUIRED_SPAN = {"spider_ladder": "tripod.tripod"}


class WorkloadError(Exception):
    """A workload left the solver path it was chosen for."""


@dataclass
class Instance:
    label: str
    size: int               # nominal n of the instance's ladder rung
    params: SolveParams
    validated: bool         # also solved with validate=True
    graph_text: str
    a_text: str
    graph: Graph            # replaced by the parsed graph during set-up
    a: frozenset[int]


def _instance(label: str, size: int, g: Graph, a: frozenset[int],
              params: SolveParams, validated: bool) -> Instance:
    return Instance(label, size, params, validated, graph_to_text(g),
                    vertex_set_to_text(a), g, a)


def spider_ladder(seed: int) -> list[Instance]:
    # The spider with endpoint terminals has no random part: every seed
    # gives the same three rungs.
    out = []
    for n in SPIDER_RUNGS:
        g, a = make_instance("spider", n, seed, "endpoints")
        out.append(_instance(f"spider n={n} k=2 d=1", n, g, a,
                             SolveParams(k=2, d=1), n == SPIDER_RUNGS[0]))
    return out


def grid_window(seed: int) -> list[Instance]:
    out = []
    for side in GRID_SIDES:
        g, a = make_instance("grid", side * side, seed, "random_p")
        corners = {0, side - 1, side * (side - 1), side * side - 1}
        a = a | corners
        for coarse in (False, True):
            mode = "coarse" if coarse else "plain"
            out.append(_instance(f"grid {side}x{side} |A|={len(a)} {mode}",
                                 side * side, g, a,
                                 SolveParams(k=2, d=1, coarse=coarse),
                                 side == GRID_SIDES[0]))
    return out


def matrix(seed: int) -> list[Instance]:
    out = []
    for sub in range(MATRIX_SEEDS * seed, MATRIX_SEEDS * (seed + 1)):
        for n in MATRIX_SIZES:
            for family in pathpack.FAMILIES:
                for policy in pathpack.A_POLICIES:
                    g, a = make_instance(family, n, sub, policy)
                    for k in (1, 2, 3):
                        for d in (1, 2, 3):
                            for coarse in (False, True):
                                mode = "coarse" if coarse else "plain"
                                out.append(_instance(
                                    f"{family} n={n} {policy} seed={sub} "
                                    f"k={k} d={d} {mode}",
                                    n, g, a,
                                    SolveParams(k=k, d=d, coarse=coarse), True))
    return out


WORKLOADS = {"spider_ladder": spider_ladder, "grid_window": grid_window,
             "matrix": matrix}


def build(workload: str, seed: int) -> list[Instance]:
    return WORKLOADS[workload](seed)


def grid_path_problems(inst: Instance) -> list[str]:
    """Why far_pair's first call (threshold 256*d) would not take the path
    the grid rung was chosen for: the per-terminal loop on the window side,
    the early exit below it."""
    g, a, d = inst.graph, inst.a, inst.params.d
    least = min(a)
    dm = distance_map(g, {least})
    worst = max(dm[b] for b in a)
    if inst.size != GRID_WINDOW_SIDE ** 2:
        if 2 * worst >= 256 * d:
            return [f"{inst.label}: least terminal reaches {worst}, "
                    f"so far_pair does not exit early"]
        return []
    out = []
    if worst < 128 * d:
        out.append(f"{inst.label}: least terminal reaches only {worst} < {128 * d}")
    # A vertex of eccentricity e bounds the diameter by 2e.  Sweeps from the
    # least terminal, the vertex farthest from it, the vertex farthest from
    # both, and the vertex farthest from that one locate a central vertex.
    sweeps = [dm]
    for pick in (lambda v: sweeps[0][v], lambda v: min(sweeps[0][v], sweeps[1][v]),
                 lambda v: sweeps[2][v]):
        sweeps.append(distance_map(g, {max(dm, key=lambda v: (pick(v), -v))}))
    center = min(dm, key=lambda v: (max(sw[v] for sw in sweeps), v))
    upper = 2 * max(distance_map(g, {center}).values())
    if upper >= 256 * d:
        out.append(f"{inst.label}: diameter bound {upper} not below {256 * d}")
    return out


def kind_problems(kinds: list[str]) -> list[str]:
    """The matrix must reach both outcomes (certificate class names), or
    frame_to_packing and forest drop out of the measurement."""
    missing = {"PackingCertificate", "HittingCertificate"} - set(kinds)
    return [f"no {k} in the matrix" for k in sorted(missing)]

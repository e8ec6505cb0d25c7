"""Outside-in tracing of the pathpack layers.

Tracer replaces every public function of the measured pathpack modules, in
every pathpack module namespace that binds it (modules import each other's
functions by name, so each binding is replaced), with a wrapper that records
one span per call: name, start, end, parent span and operation id.  Spans
stay in memory; the bindings are restored on exit.  Private helpers are not
wrapped, so their time counts toward their caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Callable

# The layers, named after their modules.  topominor is off the solve and
# verify path, generate is the benchmark's own input source, and cli is
# bypassed (its parse cost is fileio's).
LAYERS = ("graph", "oracle", "tripod", "augment", "model", "frame", "forest",
          "fileio")

# Contract checks: their outermost spans give checks.share.
CHECKS = frozenset({
    "frame.validate_frame", "model.validate_model", "model.fatness",
    "model.is_clean", "model.is_simple", "graph.has_radius_at_most",
    "tripod.check_tripoid", "tripod.check_tripod_result"})

# Result sizes recorded with the span: vertices visited by a BFS primitive,
# or whether far_pair found a pair.
SIZES: dict[str, Callable[[object], int]] = {
    "graph.distance_map": lambda out: len(out),
    "graph.ball": lambda out: len(out),
    "oracle.far_pair": lambda out: int(out is not None),
}

NO_PARENT = -1


class Tracer:
    """Context manager that wraps the pathpack functions while active.

    spans[i] is (name id, start, end, parent index, op id, size); a span's
    index is taken when it opens, so parents precede their children.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.spans: list = []
        self.ops: list[tuple[str, int]] = []
        self.op = NO_PARENT
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    def begin(self, kind: str, index: int) -> None:
        """Start a top-level operation (kind, instance index); later spans
        carry its id."""
        self.op = len(self.ops)
        self.ops.append((kind, index))

    def __enter__(self) -> "Tracer":
        wrappers: dict[int, Callable] = {}
        for modname, mod in list(sys.modules.items()):
            if mod is None or modname.partition(".")[0] != "pathpack":
                continue
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                package, _, layer = fn.__module__.partition(".")
                if package != "pathpack" or layer not in LAYERS:
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(f"{layer}.{fn.__name__}", fn)
                self._bindings.append((mod, attr, fn))
                setattr(mod, attr, wrappers[id(fn)])
        return self

    def __exit__(self, *exc_info) -> None:
        for mod, attr, fn in self._bindings:
            setattr(mod, attr, fn)
        self._bindings.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        name_id = len(self.names)
        self.names.append(name)
        size_of = SIZES.get(name)
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else NO_PARENT
            stack.append(idx)
            out = None
            start = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = clock()
                stack.pop()
                size = size_of(out) if size_of and out is not None else 0
                spans[idx] = (name_id, start, end, parent, self.op, size)

        return traced

    def write(self, path) -> None:
        """Write the spans as JSON lines: a header, then one span a line."""
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"names": self.names, "ops": self.ops,
                                "fields": ["name", "start", "end", "parent",
                                           "op", "size"]}) + "\n")
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] != NO_PARENT:
            out[s[3]] -= s[2] - s[1]
    return out


def summarize(tr: Tracer) -> tuple[dict[str, float], list[tuple[str, int, float]]]:
    """The per-layer figures of one traced pass, keyed by metric name, and
    (name, calls, self seconds) per traced function, largest self first."""
    spans, names = tr.spans, tr.names
    selfs = self_times(spans)
    layer_of = [n.partition(".")[0] for n in names]
    op_kind = [kind for kind, _ in tr.ops]
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    sizes: dict[str, int] = defaultdict(int)
    layer_self: dict[str, float] = defaultdict(float)
    # owner: the layer of the nearest non-graph span at or above each span,
    # so BFS time is charged to the layer that asked for it.
    owner: list[str] = []
    with_graph: dict[str, float] = defaultdict(float)
    in_check: list[bool] = []
    far_pair = {"solver": 0, "verifier": 0, "bfs": 0}
    tripod_dist = 0
    check_s = solve_s = 0.0
    for i, (nid, start, end, parent, op, size) in enumerate(spans):
        name, layer = names[nid], layer_of[nid]
        calls[name] += 1
        self_s[name] += selfs[i]
        sizes[name] += size
        layer_self[layer] += selfs[i]
        up = names[spans[parent][0]] if parent != NO_PARENT else ""
        owner.append(owner[parent] if layer == "graph" and parent != NO_PARENT
                     else layer)
        with_graph[owner[i]] += selfs[i]
        in_check.append(name in CHECKS or (parent != NO_PARENT and in_check[parent]))
        if name == "oracle.far_pair":
            far_pair["verifier" if up.startswith("oracle.") else "solver"] += 1
        elif name == "graph.distance_map" and up == "oracle.far_pair":
            far_pair["bfs"] += 1
        elif name == "graph.dist" and up.startswith("tripod."):
            tripod_dist += 1
        if op != NO_PARENT and op_kind[op] == "solve":
            if parent == NO_PARENT:
                solve_s += end - start
            elif name in CHECKS and not in_check[parent]:
                check_s += end - start

    fp_calls = calls["oracle.far_pair"]
    out = {
        "graph.dist.calls": calls["graph.dist"],
        "graph.dist.self_s": self_s["graph.dist"],
        "graph.distance_map.calls": calls["graph.distance_map"],
        "graph.distance_map.self_s": self_s["graph.distance_map"],
        "graph.distance_map.visited": sizes["graph.distance_map"],
        "graph.components.calls": calls["graph.components"],
        "graph.components.self_s": self_s["graph.components"],
        "graph.st_path.self_s": self_s["graph.st_path"],
        "graph.ball.visited": sizes["graph.ball"],
        "graph.radius_center.self_s": self_s["graph.radius_center"],
        "graph.has_radius_at_most.self_s": self_s["graph.has_radius_at_most"],
        "oracle.far_pair.solver_calls": far_pair["solver"],
        "oracle.far_pair.verifier_calls": far_pair["verifier"],
        "oracle.far_pair.self_s": self_s["oracle.far_pair"],
        "oracle.far_pair.bfs_per_call": far_pair["bfs"] / fp_calls if fp_calls else 0.0,
        "oracle.far_pair.found_ratio": sizes["oracle.far_pair"] / fp_calls if fp_calls else 0.0,
        "oracle.hitting_violations.self_s": self_s["oracle.hitting_violations"],
        "oracle.packing_violations.self_s": self_s["oracle.packing_violations"],
        "tripod.tripod.calls": calls["tripod.tripod"],
        "tripod.tripod_step.calls": calls["tripod.tripod_step"],
        "tripod.dist_calls": tripod_dist,
        "augment.augment.calls": calls["augment.augment"],
        "model.fatness.calls": calls["model.fatness"],
        "model.fatness.self_s": self_s["model.fatness"],
        "model.validate_model.calls": calls["model.validate_model"],
        "model.validate_model.self_s": self_s["model.validate_model"],
        "model.is_clean.self_s": self_s["model.is_clean"],
        "model.fat_to_clean.self_s": self_s["model.fat_to_clean"],
        "frame.extend_or_hit.calls": calls["frame.extend_or_hit"],
        "frame.validate_frame.calls": calls["frame.validate_frame"],
        "frame.validate_frame.self_s": self_s["frame.validate_frame"],
        "frame.frame_to_packing.self_s": self_s["frame.frame_to_packing"],
        "forest.extract_z_paths.self_s": self_s["forest.extract_z_paths"],
        "forest.degree_classes.calls": calls["forest.degree_classes"],
        "fileio.graph_from_text.self_s": self_s["fileio.graph_from_text"],
        "checks.share": check_s / solve_s if solve_s else 0.0,
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
        if layer != "graph":
            out[f"{layer}.with_graph_s"] = with_graph[layer]
    table = sorted(((n, calls[n], self_s[n]) for n in calls),
                   key=lambda row: -row[2])
    return out, table


def op_counts(tr: Tracer, name: str) -> dict[int, int]:
    """Number of spans called `name` in each operation."""
    out = {op: 0 for op in range(len(tr.ops))}
    for s in tr.spans:
        if tr.names[s[0]] == name:
            out[s[4]] += 1
    return out

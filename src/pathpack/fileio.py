"""Text formats: graphs, vertex sets, models, and JSON certificates.

Graph files: a header line "n m" followed by m lines "u v", one edge each.
Vertex-set files: whitespace-separated vertex ids.  Both allow blank lines
and '#' comments.  Model files: one line per model element.  Certificates
travel as JSON documents with a fixed key order.
"""

from __future__ import annotations

import json
import re

from .errors import InputError
from .frame import (Certificate, HittingCertificate, PackingCertificate,
                    SolveParams)
from .graph import Graph
from .model import FatModel, Part, PatternGraph


def _data_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _ints(tokens: list[str], where: str) -> list[int]:
    try:
        return [int(t) for t in tokens]
    except ValueError as exc:
        raise InputError(f"{where}: expected integers, got {tokens!r}") from exc


# The text graph_to_text writes: lines of two ASCII-digit tokens joined by
# one space, each ended by "\n".  A token of at most 18 digits always
# converts with int(), which refuses more than sys.get_int_max_str_digits();
# a longer one goes to the line parser, which reports it.
_CANONICAL_GRAPH = re.compile(r"(?:[0-9]{1,18} [0-9]{1,18}\n)+")


def graph_from_text(text: str) -> Graph:
    """Parse a graph file.  Text in the canonical form whose edge count
    matches its header is read in one pass and its id pairs go to Graph as
    they are; any other text goes through the line parser, which names the
    bad line when there is one."""
    if _CANONICAL_GRAPH.fullmatch(text):
        ids = _canonical_ids(text)
        if len(ids) == 2 * ids[1] + 2:
            n = ids[0]
            del ids[:2]
            it = iter(ids)
            return Graph(n, zip(it, it))
    return _graph_from_lines(text)


def _canonical_ids(text: str) -> list[int]:
    """The ids of a text that _CANONICAL_GRAPH matches, in order.  JSON's
    number scanner converts them about twice as fast as int() over split
    tokens and keeps no token list; it refuses a leading zero, which int()
    reads."""
    try:
        return json.loads("[" + text[:-1].replace(" ", ",").replace("\n", ",")
                          + "]")
    except ValueError:
        return list(map(int, text.split()))


def _graph_from_lines(text: str) -> Graph:
    lines = _data_lines(text)
    if not lines:
        raise InputError("graph file is empty")
    header = _ints(lines[0].split(), "graph header")
    if len(header) != 2:
        raise InputError(f"graph header must be 'n m', got {lines[0]!r}")
    n, m = header
    if len(lines) - 1 != m:
        raise InputError(f"graph file announces {m} edges but has {len(lines) - 1}")
    edges = []
    for line in lines[1:]:
        pair = _ints(line.split(), "graph edge")
        if len(pair) != 2:
            raise InputError(f"graph edge line must be 'u v', got {line!r}")
        edges.append((pair[0], pair[1]))
    return Graph(n, edges)


def graph_to_text(g: Graph) -> str:
    edges = g.edges()
    lines = [f"{g.n} {len(edges)}"]
    lines += [f"{u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"


def vertex_set_from_text(text: str) -> frozenset[int]:
    """Parse a vertex-set file: one pass when the text has no comment, the
    line parser when it has one or when a token is not an integer."""
    if "#" not in text:
        try:
            # a set copied into a frozenset is sized exactly; a frozenset
            # built from the map would keep the slack of its growth
            return frozenset(set(map(int, text.split())))
        except ValueError:
            pass
    return _vertex_set_from_lines(text)


def _vertex_set_from_lines(text: str) -> frozenset[int]:
    out: set[int] = set()
    for line in _data_lines(text):
        out.update(_ints(line.split(), "vertex set"))
    return frozenset(out)


def vertex_set_to_text(vs: frozenset[int]) -> str:
    return " ".join(str(v) for v in sorted(vs)) + "\n"


def _read_text(path: str) -> str:
    """The file's text, decoded as UTF-8 with universal newlines."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise InputError(
            f"{path} is not UTF-8 text (invalid byte at offset {exc.start})"
        ) from exc


def read_graph(path: str) -> Graph:
    return graph_from_text(_read_text(path))


def write_graph(g: Graph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(graph_to_text(g))


def read_vertex_set(path: str) -> frozenset[int]:
    return vertex_set_from_text(_read_text(path))


def write_vertex_set(vs: frozenset[int], path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(vertex_set_to_text(vs))


# -- certificates ---------------------------------------------------------

def certificate_to_json(cert: Certificate, params: SolveParams) -> str:
    doc: dict = {
        "type": "packing" if isinstance(cert, PackingCertificate) else "hitting",
        "k": params.k,
        "d": params.d,
        "coarse": params.coarse,
    }
    if isinstance(cert, PackingCertificate):
        doc["paths"] = [list(p) for p in cert.paths]
    else:
        doc["x"] = sorted(cert.x)
        doc["radius"] = cert.radius
        if cert.coarse_threshold is not None:
            doc["coarse_threshold"] = cert.coarse_threshold
    doc["bounds"] = {"f": params.bound_f, "g": params.bound_g}
    return json.dumps(doc, indent=2) + "\n"


def certificate_from_json(text: str) -> tuple[SolveParams, Certificate]:
    try:
        doc = json.loads(text)
    except ValueError as exc:
        # JSONDecodeError, or a number longer than int() may convert
        raise InputError(f"certificate is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        # arrays or objects nested deeper than the interpreter's stack
        raise InputError(f"certificate nests too deeply: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("certificate must be a JSON object")
    for key in ("type", "k", "d", "coarse"):
        if key not in doc:
            raise InputError(f"certificate misses key {key!r}")
    params = SolveParams(k=doc["k"], d=doc["d"], coarse=doc["coarse"])
    kind = doc["type"]
    if kind == "packing":
        paths = doc.get("paths")
        if not isinstance(paths, list) or not all(
                isinstance(p, list) and all(type(v) is int for v in p)
                for p in paths):
            raise InputError("packing certificate needs integer path lists")
        cert: Certificate = PackingCertificate(
            paths=tuple(tuple(p) for p in paths))
    elif kind == "hitting":
        xs = doc.get("x")
        radius = doc.get("radius")
        if not isinstance(xs, list) or not all(type(v) is int for v in xs):
            raise InputError("hitting certificate needs an integer vertex list")
        if type(radius) is not int:
            raise InputError("hitting certificate needs an integer radius")
        thr = doc.get("coarse_threshold")
        if thr is not None and type(thr) is not int:
            raise InputError("coarse_threshold must be an integer")
        cert = HittingCertificate(x=frozenset(xs), radius=radius,
                                  coarse_threshold=thr)
    else:
        raise InputError(f"unknown certificate type {kind!r}")
    return params, cert


def read_certificate(path: str) -> tuple[SolveParams, Certificate]:
    return certificate_from_json(_read_text(path))


def write_certificate(cert: Certificate, params: SolveParams, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(certificate_to_json(cert, params))


# -- models ---------------------------------------------------------------

def _part_words(part: Part) -> str:
    if isinstance(part, tuple):
        return "path: " + " ".join(str(v) for v in part)
    return "set: " + " ".join(str(v) for v in sorted(part))


def model_to_text(m: FatModel) -> str:
    lines = []
    for x in m.pattern.vertex_ids():
        lines.append(f"vertex {x} {_part_words(m.branch_sets[x])}")
    for e in m.pattern.edge_ids():
        u, v = m.pattern.endpoints(e)
        lines.append(f"edge {e} {u} {v} {_part_words(m.branch_parts[e])}")
    return "\n".join(lines) + "\n"


def model_from_text(text: str) -> FatModel:
    vertices: list[int] = []
    edges: dict[int, tuple[int, int]] = {}
    sets: dict[int, Part] = {}
    parts: dict[int, Part] = {}
    for line in _data_lines(text):
        words = line.split()
        if ":" not in line or words[0] not in ("vertex", "edge"):
            raise InputError(f"bad model line {line!r}")
        head, _, tail = line.partition(":")
        ids = _ints(tail.split(), "model element")
        fields = head.split()
        kind = fields[-1]
        if kind == "path":
            value: Part = tuple(ids)
        elif kind == "set":
            value = frozenset(ids)
        else:
            raise InputError(f"model element must be 'set' or 'path', got {kind!r}")
        if words[0] == "vertex":
            if len(fields) != 3:
                raise InputError(f"bad vertex line {line!r}")
            (x,) = _ints(fields[1:2], "vertex id")
            if x in sets:
                raise InputError(f"duplicate vertex {x} in model")
            vertices.append(x)
            sets[x] = value
        else:
            if len(fields) != 5:
                raise InputError(f"bad edge line {line!r}")
            e, u, v = _ints(fields[1:4], "edge header")
            if e in parts:
                raise InputError(f"duplicate edge {e} in model")
            edges[e] = (u, v)
            parts[e] = value
    pattern = PatternGraph.from_parts(vertices, edges)
    return FatModel(pattern, sets, parts)


def read_model(path: str) -> FatModel:
    return model_from_text(_read_text(path))


def write_model(m: FatModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(model_to_text(m))

import dataclasses
import json
import random
from itertools import combinations

import pytest

from helpers import p3_path_model
from pathpack import (
    FAMILIES,
    Graph,
    HittingCertificate,
    InputError,
    PackingCertificate,
    ParameterRangeError,
    SolveParams,
    SolverError,
    fileio,
    make_instance,
)
import pathpack.graph as graph_module
from pathpack.cli import main
from pathpack.fileio import (
    _graph_from_lines,
    _vertex_set_from_lines,
    certificate_from_json,
    certificate_to_json,
    graph_from_text,
    graph_to_text,
    model_from_text,
    model_to_text,
    read_certificate,
    read_graph,
    read_model,
    read_vertex_set,
    vertex_set_from_text,
    vertex_set_to_text,
    write_certificate,
    write_graph,
)
from pathpack.graph import MAX_VERTICES


class TestGraphText:
    def test_round_trip(self):
        g = graph_from_text("3 2\n0 1\n1 2\n")
        assert g.n == 3
        assert g.edges() == [(0, 1), (1, 2)]
        assert graph_to_text(g) == "3 2\n0 1\n1 2\n"

    def test_comments_and_blanks(self):
        text = "# instance\n\n4 2\n0 1\n# middle note\n2 3\n"
        g = graph_from_text(text)
        assert g.n == 4
        assert g.edges() == [(0, 1), (2, 3)]

    def test_empty_raises(self):
        with pytest.raises(InputError):
            graph_from_text("# nothing\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(InputError):
            graph_from_text("3 2\n0 1\n")

    def test_bad_tokens(self):
        with pytest.raises(InputError):
            graph_from_text("3 one\n")
        with pytest.raises(InputError):
            graph_from_text("2 1\n0 x\n")

    def test_file_round_trip(self, tmp_path):
        g = graph_from_text("2 1\n0 1\n")
        p = tmp_path / "g.graph"
        write_graph(g, str(p))
        assert read_graph(str(p)).edges() == [(0, 1)]

    @pytest.mark.parametrize("text", [
        "10000001 0\n", "# comment\n10000001 0\n", "999999999999 1\n0 1\n"])
    def test_vertex_count_above_the_limit_is_refused_at_once(self, text):
        assert MAX_VERTICES == 10**7
        with pytest.raises(ParameterRangeError, match="exceeds the limit"):
            graph_from_text(text)

    def test_a_crlf_file_reads_like_its_lf_form(self, tmp_path):
        p = tmp_path / "g.graph"
        p.write_bytes(b"3 2\r\n0 1\r\n1 2\r\n")
        assert read_graph(str(p)).edges() == [(0, 1), (1, 2)]


def outcome(parse, text):
    """What a parser makes of text: its result, or its error's class and
    message."""
    try:
        return parse(text)
    except SolverError as exc:
        return type(exc), str(exc)


def seeded_graph(seed: int) -> Graph:
    rng = random.Random(seed)
    n = rng.randrange(2, 40)
    p = rng.uniform(0.05, 0.4)
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def graph_variants(g: Graph) -> list[tuple[str, bool]]:
    """Texts derived from g's canonical text, each with whether it is still
    in the form graph_to_text writes, with an edge count that matches."""
    text = graph_to_text(g)
    lines = text.splitlines()
    n, m = g.n, g.edge_count
    body = lines[1:]

    def with_edges(extra: list[str], count: int) -> str:
        return "\n".join([f"{n} {count}", *body, *extra]) + "\n"

    out = [
        (text, True),
        (text[:-1], False),
        (text.replace("\n", "\r\n"), False),
        (text.replace(" ", "\t"), False),
        (text.replace(" ", "  "), False),
        (text.replace("\n", "\n\n"), False),
        ("# instance\n" + text.replace("\n", " # note\n", 1), False),
        (with_edges([], m + 1), False),
        (with_edges([], m - 1), False),
        (with_edges([f"{n} 0"], m + 1), True),
        (with_edges(["1 1"], m + 1), True),
        (with_edges([f"{n - 1} -1"], m + 1), False),
        (f"{MAX_VERTICES + 1} {m}\n" + text.split("\n", 1)[1], True),
        (with_edges(["0 " + "1" * 5000], m + 1), False),
        ("", False),
        ("# nothing\n", False),
    ]
    if body:
        u, v = body[0].split()
        out.append((with_edges([f"{v} {u}"], m + 1), True))
        for token in ("+3", "007", "1_0", "\u0662", "x"):
            out.append(("\n".join([lines[0], f"{token} {v}", *body[1:]]) + "\n",
                        token == "007"))
    if len(body) >= 2:
        # the token count still matches, the line shape does not
        (a, b), (c, d) = body[0].split(), body[1].split()
        out.append(("\n".join([lines[0], f"{a} {b} {c}", d, *body[2:]]) + "\n",
                    False))
    # canonical-shaped texts whose pairs break the order: each is read in
    # one pass, not appended as it comes
    if len(body) >= 2:
        out.append(("\n".join([lines[0], body[1], body[0], *body[2:]]) + "\n",
                    True))
    if body:
        out.append((with_edges([body[-1]], m + 1), True))
    # last in the order, but out of range
    out.append((with_edges([f"{n - 1} {n}"], m + 1), True))
    non_edge = next((x for x in range(n - 1) if not g.has_edge(x, n - 1)), None)
    if non_edge is not None:
        # last in the order, but reversed
        out.append((with_edges([f"{n - 1} {non_edge}"], m + 1), True))
    return out


@pytest.mark.parametrize("seed", range(24))
def test_one_pass_graph_parse_matches_the_line_parser(seed, monkeypatch):
    g = seeded_graph(seed)
    fallbacks = []

    def line_parser(text):
        fallbacks.append(text)
        return _graph_from_lines(text)

    monkeypatch.setattr(fileio, "_graph_from_lines", line_parser)
    for text, canonical in graph_variants(g):
        fallbacks.clear()
        got = outcome(graph_from_text, text)
        want = outcome(_graph_from_lines, text)
        if isinstance(want, Graph):
            assert isinstance(got, Graph), (text, got)
            assert (got.n, got.adj) == (want.n, want.adj), text
        else:
            assert got == want, text
        # the one-pass parse takes exactly the canonical texts
        assert bool(fallbacks) is not canonical, text


@pytest.mark.parametrize("family", FAMILIES)
def test_gen_text_is_appended_without_dedup_or_sort(family, tmp_path,
                                                     monkeypatch):
    """gen writes each edge once as u < v, in increasing order, so its
    adjacency lists are appended as they come: the graph is the same, and
    Graph never reaches the sort and dedup that it runs only after a pair
    out of that order.  cycle and spider list such a pair when they are
    generated, and their graphs do take that step, which shows the probe
    sees it."""
    out = str(tmp_path / "inst")
    assert main(["gen", "--family", family, "--n", "60", "--seed", "3",
                 "--a-policy", "all", "--out", out]) == 0
    sorts = []

    def counted_sorted(*args, **kwargs):
        sorts.append(args)
        return sorted(*args, **kwargs)

    # Graph.__init__ is the only code of graph.py that either call runs
    monkeypatch.setattr(graph_module, "sorted", counted_sorted, raising=False)
    want, _ = make_instance(family, 60, seed=3, a_policy="all")
    assert len(sorts) == (want.n if family in ("cycle", "spider") else 0)
    sorts.clear()
    got = read_graph(out + ".graph")
    assert sorts == []
    assert (got.n, got.adj) == (want.n, want.adj)


def vertex_set_variants(vs: frozenset[int]) -> list[str]:
    text = vertex_set_to_text(vs)
    out = [text, text[:-1], text.replace("\n", "\r\n"),
           text.replace(" ", "\t"), text.replace(" ", "  \n\n"),
           "# terminals\n" + text, text.replace(" ", " # rest\n", 1),
           "", "\n", "-1\n", "1 " + "1" * 5000 + "\n"]
    out += [text.replace(" ", f" {token} ", 1)
            for token in ("+3", "007", "1_0", "\u0662", "x", "3.0")]
    return out


@pytest.mark.parametrize("seed", range(24))
def test_one_pass_vertex_set_parse_matches_the_line_parser(seed):
    rng = random.Random(seed)
    vs = frozenset(rng.sample(range(60), rng.randrange(0, 12)))
    for text in vertex_set_variants(vs):
        assert (outcome(vertex_set_from_text, text)
                == outcome(_vertex_set_from_lines, text)), text


@pytest.mark.parametrize("reader", [read_graph, read_vertex_set, read_model,
                                    read_certificate])
def test_a_file_that_is_not_utf8_is_an_input_error(reader, tmp_path):
    p = tmp_path / "bad.txt"
    p.write_bytes(b"3 2\n0 1\n1 2 # caf\xc3\xa9 \xff\n")
    with pytest.raises(InputError, match=r"bad\.txt is not UTF-8 text "
                       r"\(invalid byte at offset 20\)"):
        reader(str(p))


class TestVertexSetText:
    def test_round_trip(self):
        vs = vertex_set_from_text("3 1\n# note\n7\n")
        assert vs == frozenset({1, 3, 7})
        assert vertex_set_to_text(vs) == "1 3 7\n"

    def test_empty(self):
        assert vertex_set_from_text("") == frozenset()
        assert vertex_set_to_text(frozenset()) == "\n"


class TestCertificateJson:
    def test_packing_round_trip(self):
        params = SolveParams(2, 1)
        cert = PackingCertificate(((0, 1, 2), (5, 6)))
        text = certificate_to_json(cert, params)
        params2, cert2 = certificate_from_json(text)
        assert params2 == params
        assert cert2 == cert
        # serialization is byte-stable
        assert certificate_to_json(cert2, params2) == text

    @pytest.mark.parametrize("params", [SolveParams(2, 1),
                                        SolveParams(2, 5, coarse=True)])
    def test_packing_certificate_holds_only_its_paths(self, params):
        """d and coarse travel in the SolveParams written with the paths,
        so the certificate read back equals the one written under any
        params."""
        assert [f.name for f in dataclasses.fields(PackingCertificate)] == ["paths"]
        cert = PackingCertificate(((0, 1, 2), (5, 6)))
        assert certificate_from_json(certificate_to_json(cert, params)) == (params, cert)

    def test_hitting_round_trip(self):
        params = SolveParams(2, 3, coarse=True)
        cert = HittingCertificate(frozenset({4, 1}), 196608, 196608)
        text = certificate_to_json(cert, params)
        params2, cert2 = certificate_from_json(text)
        assert (params2, cert2) == (params, cert)
        assert certificate_to_json(cert2, params2) == text

    def test_key_order_is_fixed(self):
        params = SolveParams(1, 1)
        packing = certificate_to_json(PackingCertificate(((0, 1),)), params)
        keys = [k for k, _ in json.loads(packing, object_pairs_hook=list)]
        assert keys == ["type", "k", "d", "coarse", "paths", "bounds"]
        hitting = certificate_to_json(HittingCertificate(frozenset(), 256),
                                      params)
        keys = [k for k, _ in json.loads(hitting, object_pairs_hook=list)]
        assert keys == ["type", "k", "d", "coarse", "x", "radius", "bounds"]

    def test_bounds_recorded(self):
        doc = json.loads(certificate_to_json(
            HittingCertificate(frozenset(), 65536), SolveParams(2, 1)))
        assert doc["bounds"] == {"f": 4, "g": 65536}

    def test_not_json(self):
        with pytest.raises(InputError):
            certificate_from_json("not json")

    def test_number_too_long_to_convert(self):
        with pytest.raises(InputError, match="not valid JSON"):
            certificate_from_json('{"k": ' + "1" * 5000 + "}")

    def test_not_an_object(self):
        with pytest.raises(InputError):
            certificate_from_json("[1, 2]")

    def test_missing_key(self):
        with pytest.raises(InputError):
            certificate_from_json('{"type": "packing", "k": 1, "d": 1}')

    def test_unknown_type(self):
        with pytest.raises(InputError):
            certificate_from_json(
                '{"type": "mystery", "k": 1, "d": 1, "coarse": false}')

    def test_bad_paths_payload(self):
        with pytest.raises(InputError):
            certificate_from_json(
                '{"type": "packing", "k": 1, "d": 1, "coarse": false,'
                ' "paths": [["a"]]}')

    def test_out_of_range_parameters(self):
        with pytest.raises(ParameterRangeError):
            certificate_from_json(
                '{"type": "hitting", "k": 8, "d": 1, "coarse": false,'
                ' "x": [], "radius": 5}')

    def test_huge_k_is_refused_at_once(self):
        with pytest.raises(ParameterRangeError):
            certificate_from_json(
                '{"type": "hitting", "k": 99999999999, "d": 1,'
                ' "coarse": false, "x": [], "radius": 5}')

    @pytest.mark.parametrize("fields", [
        '"k": 2, "d": 1, "coarse": "false"', '"k": 2, "d": 1, "coarse": 0',
        '"k": true, "d": 1, "coarse": false',
        '"k": 2, "d": true, "coarse": false'])
    def test_rejects_non_boolean_flag_and_boolean_numbers(self, fields):
        with pytest.raises(InputError):
            certificate_from_json(
                '{"type": "hitting", ' + fields + ', "x": [], "radius": 5}')

    @pytest.mark.parametrize("fields", [
        '"type": "packing", "paths": [[false, true, 2]]',
        '"type": "packing", "paths": [[0, 1], [true, 2]]',
        '"type": "hitting", "x": [true], "radius": 5',
        '"type": "hitting", "x": [], "radius": true',
        '"type": "hitting", "x": [], "radius": 5, "coarse_threshold": false'])
    def test_booleans_are_not_integers(self, fields):
        with pytest.raises(InputError):
            certificate_from_json(
                '{"k": 1, "d": 1, "coarse": false, ' + fields + '}')

    def test_file_round_trip(self, tmp_path):
        params = SolveParams(1, 2)
        cert = PackingCertificate(((3, 4),))
        p = tmp_path / "cert.json"
        write_certificate(cert, params, str(p))
        assert read_certificate(str(p)) == (params, cert)


class TestModelText:
    def test_round_trip(self):
        _, m = p3_path_model(1)
        text = model_to_text(m)
        m2 = model_from_text(text)
        assert m2.pattern.vertex_ids() == m.pattern.vertex_ids()
        assert m2.pattern.edge_ids() == m.pattern.edge_ids()
        for e in m.pattern.edge_ids():
            assert m2.pattern.endpoints(e) == m.pattern.endpoints(e)
        assert m2.branch_sets == m.branch_sets
        assert m2.branch_parts == m.branch_parts
        assert model_to_text(m2) == text

    def test_set_and_path_markers(self):
        text = "vertex 0 set: 0\nvertex 1 set: 5\nedge 0 0 1 path: 0 1 2 3 4 5\n"
        m = model_from_text(text)
        assert m.branch_sets[0] == frozenset({0})
        assert m.branch_parts[0] == (0, 1, 2, 3, 4, 5)

    def test_bad_lines(self):
        with pytest.raises(InputError):
            model_from_text("vertex 0 0\n")
        with pytest.raises(InputError):
            model_from_text("thing 0 set: 1\n")
        with pytest.raises(InputError):
            model_from_text("vertex 0 blob: 1\n")
        with pytest.raises(InputError):
            model_from_text("vertex 0 set: 1\nvertex 0 set: 2\n")
        with pytest.raises(InputError):
            model_from_text("edge 0 0 1 path: 0 1\n")

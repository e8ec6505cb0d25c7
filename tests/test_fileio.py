import json

import pytest

from helpers import p3_path_model
from pathpack import (
    HittingCertificate,
    InputError,
    PackingCertificate,
    ParameterRangeError,
    SolveParams,
)
from pathpack.fileio import (
    certificate_from_json,
    certificate_to_json,
    graph_from_text,
    graph_to_text,
    model_from_text,
    model_to_text,
    read_certificate,
    read_graph,
    vertex_set_from_text,
    vertex_set_to_text,
    write_certificate,
    write_graph,
)


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

    def test_file_round_trip(self, tmp_path):
        g = graph_from_text("2 1\n0 1\n")
        p = tmp_path / "g.graph"
        write_graph(g, str(p))
        assert read_graph(str(p)).edges() == [(0, 1)]


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
        cert = PackingCertificate(((0, 1, 2), (5, 6)), 1, False)
        text = certificate_to_json(cert, params)
        params2, cert2 = certificate_from_json(text)
        assert params2 == params
        assert cert2 == cert
        # serialization is byte-stable
        assert certificate_to_json(cert2, params2) == text

    def test_hitting_round_trip(self):
        params = SolveParams(2, 3, coarse=True)
        cert = HittingCertificate(frozenset({4, 1}), 196608, 196608)
        text = certificate_to_json(cert, params)
        params2, cert2 = certificate_from_json(text)
        assert (params2, cert2) == (params, cert)
        assert certificate_to_json(cert2, params2) == text

    def test_key_order_is_fixed(self):
        params = SolveParams(1, 1)
        packing = certificate_to_json(PackingCertificate(((0, 1),), 1, False),
                                      params)
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

    def test_file_round_trip(self, tmp_path):
        params = SolveParams(1, 2)
        cert = PackingCertificate(((3, 4),), 2, False)
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

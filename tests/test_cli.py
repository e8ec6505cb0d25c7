import json
import shlex
from pathlib import Path

import pytest

import pathpack.cli
from helpers import k2_path_model, path_graph
from pathpack import (InternalInvariantError, certificate_violations, fatness,
                      fileio, make_instance)
from pathpack.cli import main
from pathpack.generate import FAMILIES
from pathpack.graph import MAX_VERTICES

README = Path(__file__).resolve().parents[1] / "README.md"


def write_instance(tmp_path, g, a):
    gp, ap = tmp_path / "in.graph", tmp_path / "in.aset"
    fileio.write_graph(g, str(gp))
    fileio.write_vertex_set(a, str(ap))
    return str(gp), str(ap)


def spider_files(tmp_path):
    g, a = make_instance("spider", 41)
    return write_instance(tmp_path, g, a)


class TestSolve:
    def test_packing_exit_zero(self, tmp_path, capsys):
        gp, ap = write_instance(tmp_path, path_graph(100),
                                frozenset({0, 99}))
        rc = main(["solve", "--graph", gp, "--a-set", ap, "-k", "1", "-d", "1"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["type"] == "packing"
        assert doc["paths"] == [list(range(100))]

    def test_hitting_exit_ten(self, tmp_path, capsys):
        gp, ap = spider_files(tmp_path)
        rc = main(["solve", "--graph", gp, "--a-set", ap, "-k", "2", "-d", "1"])
        assert rc == 10
        doc = json.loads(capsys.readouterr().out)
        assert doc["type"] == "hitting"
        assert doc["x"] == [0]
        assert doc["radius"] == 65536

    def test_out_file_and_validate(self, tmp_path):
        gp, ap = write_instance(tmp_path, path_graph(100),
                                frozenset({0, 99}))
        out = tmp_path / "cert.json"
        rc = main(["solve", "--graph", gp, "--a-set", ap, "-k", "1", "-d", "2",
                   "--coarse", "--validate", "--out", str(out)])
        assert rc == 0
        params, cert = fileio.read_certificate(str(out))
        assert params.coarse is True
        assert cert.paths == (tuple(range(100)),)

    def test_out_of_range_parameters(self, tmp_path):
        gp, ap = write_instance(tmp_path, path_graph(10), frozenset({0, 9}))
        rc = main(["solve", "--graph", gp, "--a-set", ap, "-k", "8", "-d", "1"])
        assert rc == 3

    def test_huge_k_is_refused_at_once(self, tmp_path):
        gp, ap = write_instance(tmp_path, path_graph(10), frozenset({0, 9}))
        rc = main(["solve", "--graph", gp, "--a-set", ap, "-k", "99999999999",
                   "-d", "1"])
        assert rc == 3

    def test_bad_parameters(self, tmp_path):
        gp, ap = write_instance(tmp_path, path_graph(10), frozenset({0, 9}))
        rc = main(["solve", "--graph", gp, "--a-set", ap, "-k", "0", "-d", "1"])
        assert rc == 2

    def test_missing_file(self, tmp_path):
        rc = main(["solve", "--graph", str(tmp_path / "none.graph"),
                   "--a-set", str(tmp_path / "none.aset"),
                   "-k", "1", "-d", "1"])
        assert rc == 2

    def test_malformed_graph(self, tmp_path):
        gp = tmp_path / "bad.graph"
        gp.write_text("5 junk\n")
        ap = tmp_path / "a.aset"
        ap.write_text("0\n")
        rc = main(["solve", "--graph", str(gp), "--a-set", str(ap),
                   "-k", "1", "-d", "1"])
        assert rc == 2

    def test_graph_that_is_not_utf8(self, tmp_path, capsys):
        gp, ap = write_instance(tmp_path, path_graph(10), frozenset({0, 9}))
        with open(gp, "ab") as f:
            f.write(b"# \xff\n")
        rc = main(["solve", "--graph", gp, "--a-set", ap, "-k", "1", "-d", "1"])
        assert rc == 2
        assert "in.graph is not UTF-8 text (invalid byte at offset 43)" in (
            capsys.readouterr().err)

    def test_terminal_set_that_is_not_utf8(self, tmp_path):
        gp, ap = write_instance(tmp_path, path_graph(10), frozenset({0, 9}))
        with open(ap, "wb") as f:
            f.write(b"0 \xc3 9\n")
        rc = main(["solve", "--graph", gp, "--a-set", ap, "-k", "1", "-d", "1"])
        assert rc == 2

    def test_huge_vertex_count_is_refused_at_once(self, tmp_path, capsys):
        gp, ap = write_instance(tmp_path, path_graph(10), frozenset({0, 9}))
        with open(gp, "w") as f:
            f.write("999999999999 0\n")
        rc = main(["solve", "--graph", gp, "--a-set", ap, "-k", "1", "-d", "1"])
        assert rc == 3
        assert "exceeds the limit 10000000" in capsys.readouterr().err

    def test_internal_error_exit_four(self, tmp_path, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise InternalInvariantError("branch-set centers collide")

        monkeypatch.setattr(pathpack.cli, "solve", broken)
        gp, ap = spider_files(tmp_path)
        rc = main(["solve", "--graph", gp, "--a-set", ap, "-k", "2", "-d", "1"])
        assert rc == 4
        err = capsys.readouterr().err
        assert "internal error" in err
        assert "branch-set centers collide" in err

    def test_out_of_memory_exit_three(self, tmp_path, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(pathpack.cli, "solve", exhausted)
        gp, ap = spider_files(tmp_path)
        rc = main(["solve", "--graph", gp, "--a-set", ap, "-k", "2", "-d", "1"])
        assert rc == 3
        assert capsys.readouterr().err.splitlines() == [
            "out of memory: the input is too large for the memory available"]

    def test_terminal_outside_graph(self, tmp_path):
        gp, _ = write_instance(tmp_path, path_graph(10), frozenset({0}))
        ap = tmp_path / "far.aset"
        ap.write_text("0 99\n")
        rc = main(["solve", "--graph", gp, "--a-set", str(ap),
                   "-k", "1", "-d", "1"])
        assert rc == 2


class TestVerify:
    def solve_to_file(self, tmp_path, coarse=False):
        gp, ap = write_instance(tmp_path, path_graph(100),
                                frozenset({0, 99}))
        out = tmp_path / "cert.json"
        argv = ["solve", "--graph", gp, "--a-set", ap, "-k", "1", "-d", "2",
                "--out", str(out)]
        if coarse:
            argv.append("--coarse")
        assert main(argv) == 0
        return gp, ap, str(out)

    def test_accepts_solver_output(self, tmp_path, capsys):
        gp, ap, cert = self.solve_to_file(tmp_path)
        rc = main(["verify", cert, "--graph", gp, "--a-set", ap])
        assert rc == 0
        assert "certificate ok" in capsys.readouterr().out

    def test_accepts_coarse_output(self, tmp_path):
        gp, ap, cert = self.solve_to_file(tmp_path, coarse=True)
        assert main(["verify", cert, "--graph", gp, "--a-set", ap]) == 0

    def test_rejects_tampered_path(self, tmp_path):
        gp, ap, cert = self.solve_to_file(tmp_path)
        doc = json.loads(open(cert).read())
        doc["paths"][0][0] = 50
        open(cert, "w").write(json.dumps(doc))
        assert main(["verify", cert, "--graph", gp, "--a-set", ap]) == 1

    def test_rejects_hitting_without_threshold(self, tmp_path):
        gp, ap = spider_files(tmp_path)
        cert = tmp_path / "cert.json"
        assert main(["solve", "--graph", gp, "--a-set", ap, "-k", "2",
                     "-d", "1", "--coarse", "--out", str(cert)]) == 10
        doc = json.loads(cert.read_text())
        del doc["coarse_threshold"]
        cert.write_text(json.dumps(doc))
        assert main(["verify", str(cert), "--graph", gp, "--a-set", ap]) == 1

    def verify_forged(self, tmp_path, instance, doc):
        gp, ap = write_instance(tmp_path, *make_instance(*instance))
        cert = tmp_path / "forged.json"
        cert.write_text(json.dumps(doc))
        return main(["verify", str(cert), "--graph", gp, "--a-set", ap])

    # Each forged certificate below passes the oracle's hitting check with
    # the radius and threshold it states; only the bound 256^k * d that its
    # own k and d allow rules it out.

    def test_rejects_threshold_above_the_bound(self, tmp_path):
        # `solve -k 1 -d 1 --coarse` packs on this instance
        doc = {"type": "hitting", "k": 1, "d": 1, "coarse": True, "x": [],
               "radius": 0, "coarse_threshold": 1000000}
        assert self.verify_forged(tmp_path, ("path", 600), doc) == 1

    def test_rejects_radius_above_the_bound(self, tmp_path):
        doc = {"type": "hitting", "k": 2, "d": 1, "coarse": False,
               "x": [0, 200, 400], "radius": 1000000}
        assert self.verify_forged(tmp_path, ("disjoint_paths", 600), doc) == 1

    def test_rejects_threshold_on_a_plain_certificate(self, tmp_path):
        # the endpoints 0 and 99 are closer than the threshold, so a coarse
        # check would ask for nothing to be hit
        doc = {"type": "hitting", "k": 1, "d": 1, "coarse": False, "x": [],
               "radius": 0, "coarse_threshold": 256}
        assert self.verify_forged(tmp_path, ("path", 100), doc) == 1

    @pytest.mark.parametrize("doc", [
        {"type": "packing", "k": 1, "d": 1, "coarse": False,
         "paths": [[False, True, 2, 3, 4, 5, 6, 7, 8, 9]]},
        {"type": "hitting", "k": 1, "d": 1, "coarse": False, "x": [],
         "radius": True}])
    def test_rejects_booleans_as_integers(self, tmp_path, doc):
        assert self.verify_forged(tmp_path, ("path", 10), doc) == 2

    @pytest.mark.parametrize("bad", [100000000000, -1])
    def test_rejects_a_path_vertex_outside_the_graph(self, tmp_path, bad):
        doc = {"type": "packing", "k": 1, "d": 1, "coarse": False,
               "paths": [[bad, 9]]}
        assert self.verify_forged(tmp_path, ("path", 10), doc) == 1

    def test_rejects_more_than_k_paths_before_any_search(self, tmp_path, capsys):
        doc = {"type": "packing", "k": 1, "d": 1, "coarse": False,
               "paths": [[0, 1]] * 100000}
        assert self.verify_forged(tmp_path, ("path", 10), doc) == 1
        assert "holds 100000 paths, more than k=1" in capsys.readouterr().err

    def test_certificate_that_is_not_utf8(self, tmp_path):
        gp, ap, cert = self.solve_to_file(tmp_path)
        with open(cert, "ab") as f:
            f.write(b"\xff")
        assert main(["verify", cert, "--graph", gp, "--a-set", ap]) == 2

    def test_rejects_unparseable(self, tmp_path):
        gp, ap = write_instance(tmp_path, path_graph(10), frozenset({0, 9}))
        cert = tmp_path / "cert.json"
        cert.write_text("{}")
        assert main(["verify", str(cert), "--graph", gp, "--a-set", ap]) == 2

    def test_rejects_paths_nested_deeper_than_the_stack(self, tmp_path, capsys):
        gp, ap = write_instance(tmp_path, path_graph(10), frozenset({0, 9}))
        cert = tmp_path / "cert.json"
        cert.write_text('{"type": "packing", "k": 1, "d": 1, "coarse": false,'
                        ' "paths": ' + "[" * 1_100 + "]" * 1_100 + "}")
        assert main(["verify", str(cert), "--graph", gp, "--a-set", ap]) == 2
        assert "nests too deeply" in capsys.readouterr().err


def readme_quickstart() -> list[list[str]]:
    """The shell lines of the README's command-line block, comments dropped."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines()
            if line.strip()]


def test_readme_quickstart_runs_verbatim(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = readme_quickstart()
    assert [argv[:2] for argv in lines] == [
        ["pathpack", "gen"], ["pathpack", "solve"], ["pathpack", "verify"]]
    assert [main(argv[1:]) for argv in lines] == [0, 10, 0]


def test_readme_library_block_runs_verbatim():
    """The README's library block runs as written, and its own check of the
    certificate runs too: it is compiled with asserts kept, also under -O."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    ns: dict = {}
    exec(compile(block, str(README), "exec", optimize=0), ns)
    assert "certificate_violations(g, a, params, cert) == []" in block
    assert certificate_violations(ns["g"], ns["a"], ns["params"], ns["cert"]) == []


class TestGen:
    def test_writes_pair(self, tmp_path, capsys):
        prefix = str(tmp_path / "bench")
        rc = main(["gen", "--family", "cycle", "--n", "30",
                   "--seed", "3", "--out", prefix])
        assert rc == 0
        assert capsys.readouterr().out.split() == [prefix + ".graph",
                                                   prefix + ".aset"]
        g = fileio.read_graph(prefix + ".graph")
        a = fileio.read_vertex_set(prefix + ".aset")
        assert g.n == 30
        assert a <= frozenset(range(g.n))

    def test_round_trip_matches_generator(self, tmp_path):
        prefix = str(tmp_path / "bench")
        main(["gen", "--family", "random", "--n", "50", "--seed", "9",
              "--a-policy", "random_p", "--out", prefix])
        g, a = make_instance("random", 50, seed=9, a_policy="random_p")
        assert fileio.read_graph(prefix + ".graph").edges() == g.edges()
        assert fileio.read_vertex_set(prefix + ".aset") == a

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", [MAX_VERTICES + 1, 100000000000])
    def test_size_above_the_vertex_limit_is_refused_at_once(
            self, tmp_path, capsys, family, n):
        prefix = tmp_path / "big"
        rc = main(["gen", "--family", family, "--n", str(n),
                   "--out", str(prefix)])
        assert rc == 3
        assert f"exceeds the vertex limit {MAX_VERTICES}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_family_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["gen", "--family", "hypercube", "--n", "10",
                  "--out", str(tmp_path / "x")])
        assert err.value.code == 2


class TestTripod:
    def spider_core(self, tmp_path):
        edges = [(100 + i, 101 + i) for i in range(4)]
        for base, at in ((0, 100), (10, 102), (20, 104)):
            edges.append((at, base))
            edges += [(base + i, base + i + 1) for i in range(5)]
        from pathpack import Graph
        gp = tmp_path / "t.graph"
        fileio.write_graph(Graph(105, edges), str(gp))
        qp = tmp_path / "t.qset"
        fileio.write_vertex_set(frozenset(range(100, 105)), str(qp))
        return str(gp), str(qp)

    def test_junction_json(self, tmp_path, capsys):
        gp, qp = self.spider_core(tmp_path)
        rc = main(["tripod", "--graph", gp, "--q-set", qp,
                   "--tips", "5", "15", "25", "--ell", "2", "-d", "6"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["z"] == [0, 10, 11, 100, 101, 102]
        assert doc["iterations"] == 2
        assert len(doc["p"]) == 3

    def test_bad_hypotheses(self, tmp_path):
        gp, qp = self.spider_core(tmp_path)
        rc = main(["tripod", "--graph", gp, "--q-set", qp,
                   "--tips", "5", "15", "25", "--ell", "2", "-d", "5"])
        assert rc == 1


class TestModelCommands:
    def model_files(self, tmp_path):
        g, m = k2_path_model(100)
        gp = tmp_path / "m.graph"
        fileio.write_graph(g, str(gp))
        mp = tmp_path / "m.model"
        fileio.write_model(m, str(mp))
        return str(gp), str(mp)

    def test_clean(self, tmp_path):
        gp, mp = self.model_files(tmp_path)
        out = tmp_path / "clean.model"
        rc = main(["clean", "--graph", gp, "--model", mp,
                   "--q", "8", "--ell", "4", "--out", str(out)])
        assert rc == 0
        m2 = fileio.read_model(str(out))
        assert m2.branch_parts[0] == tuple(range(100))

    def test_clean_insufficient_fatness(self, tmp_path):
        gp, mp = self.model_files(tmp_path)
        rc = main(["clean", "--graph", gp, "--model", mp,
                   "--q", "90", "--ell", "10"])
        assert rc == 1

    def test_topo(self, tmp_path, capsys):
        gp, mp = self.model_files(tmp_path)
        out = tmp_path / "topo.model"
        rc = main(["topo", "--graph", gp, "--model", mp, "--ell", "5",
                   "--out", str(out)])
        assert rc == 0
        m2 = fileio.read_model(str(out))
        g = fileio.read_graph(gp)
        # the exact value, well above the ell that make_topological keeps
        assert fatness(g, m2) > 5
        assert f"fatness {fatness(g, m2)}" in capsys.readouterr().err.splitlines()
        assert m2.pattern.edge_ids() == [0]

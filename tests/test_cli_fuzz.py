"""Seeded in-process fuzz target for the command line's input layer, in the
manner of McKeeman's differential testing (Digital Tech. J., 1998).

Valid instance files (a graph, its terminal set, and the certificate a
solve writes for them) are mutated at the byte level: truncated, bytes
flipped, lines duplicated, a number replaced with a huge, negative or
over-long one or with the JSON boolean equal to it (in a model file,
one time in two, a branch-set id goes out of range), non-UTF-8 bytes
inserted, a certificate's "paths" or "x" value wrapped in 10^3 to 10^5
brackets, deeper than json.loads can recurse.  `solve -k 1 -d 1` and
`verify` then run on the files through cli.main.  Every run must end in a
documented exit code with no exception escaping, and verify may accept a
certificate only when each of its vertex ids is a JSON integer.  The
single-step commands get the same treatment: `clean` and `topo` on a
mutated graph and model pair, `tripod` on a mutated graph and q-set
pair."""

import json
import random
import re

import test_cli
from helpers import k2_path_model
from pathpack import SolveParams, fileio, make_instance, solve
from pathpack.cli import main
from pathpack.graph import MAX_VERTICES

# the smallest bases give every mutation of a certificate a fair chance to
# land on a vertex id
BASES = [("path", 2, "endpoints", 1), ("cycle", 4, "endpoints", 1),
         ("path", 30, "endpoints", 1), ("spider", 31, "endpoints", 2),
         ("grid", 36, "random_p", 1), ("random", 40, "random_p", 1),
         ("disjoint_paths", 30, "endpoints", 2)]
EXIT_CODES = {0, 1, 2, 3, 10}
NUMBER = re.compile(rb"-?[0-9]+")
# the ids on a model file's vertex lines, which a uniform pick rarely hits
BRANCH_SET = re.compile(rb"^vertex [^\n]*?(?:set|path):([^\n]*)", re.M)
# numbers out of range, and one longer than int() converts
REPLACEMENTS = (b"999999999999", b"%d" % (MAX_VERTICES + 1), b"-1", b"1" * 5000)
# a JSON boolean equals the integer it replaces
BOOLEANS = {b"0": b"false", b"1": b"true"}
NOT_UTF8 = (b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xe2\x28\xa1")
# a certificate's vertex list, whose value ends at the next top-level key
VERTEX_LIST = re.compile(rb'"(?:paths|x)": ')
CASES = 420
# clean, topo and tripod fail on bad input with 1, 2 or 3, never with 10
STEP_EXIT_CODES = {0, 1, 2, 3}
STEP_CASES = 150


def base_files(family, n, policy, k) -> dict[str, bytes]:
    g, a = make_instance(family, n, seed=1, a_policy=policy)
    params = SolveParams(k, 1)
    cert = solve(g, a, params)
    return {"graph": fileio.graph_to_text(g).encode(),
            "aset": fileio.vertex_set_to_text(a).encode(),
            "cert": fileio.certificate_to_json(cert, params).encode()}


def step_bases(tmp_path) -> list[tuple[dict[str, bytes], list[list[str]]]]:
    """File sets for the single-step commands, each with the argument
    lists to run on them; {name} stands for the path of file name."""
    g, m = k2_path_model(40)
    model = {"graph": fileio.graph_to_text(g).encode(),
             "model": fileio.model_to_text(m).encode()}
    on_model = ["--graph", "{graph}", "--model", "{model}"]
    gp, qp = test_cli.TestTripod().spider_core(tmp_path)
    with open(gp, "rb") as f, open(qp, "rb") as h:
        spider = {"graph": f.read(), "qset": h.read()}
    return [(model, [["clean", *on_model, "--q", "8", "--ell", "4"],
                     ["topo", *on_model, "--ell", "5"]]),
            (spider, [["tripod", "--graph", "{graph}", "--q-set", "{qset}",
                       "--tips", "5", "15", "25", "--ell", "2", "-d", "6"]])]


def write_mutated(files: dict[str, bytes], target: str, rng: random.Random,
                  paths: dict[str, str]) -> dict[str, bytes]:
    """Write files with target mutated once or twice; returns what it
    wrote."""
    files = dict(files)
    for _ in range(1 if rng.random() < 0.7 else 2):
        files[target] = mutate(files[target], rng)
    for name, data in files.items():
        with open(paths[name], "wb") as f:
            f.write(data)
    return files


def mutate(data: bytes, rng: random.Random) -> bytes:
    op = rng.choice(("truncate", "flip", "duplicate", "number", "number",
                     "number", "utf8", "nest"))
    numbers = list(NUMBER.finditer(data))
    if op == "nest" and (key := VERTEX_LIST.search(data)):
        end = data.find(b',\n  "', key.end())
        end = len(data) if end < 0 else end
        depth = rng.randrange(10 ** 3, 10 ** 5 + 1)
        return (data[:key.end()] + b"[" * depth + data[key.end():end]
                + b"]" * depth + data[end:])
    if op == "number" and numbers:
        ids = [t for line in BRANCH_SET.finditer(data)
               for t in NUMBER.finditer(data, line.start(1), line.end(1))]
        if ids and rng.random() < 0.5:
            # a branch-set id goes out of range, not to a boolean
            t, new = rng.choice(ids), rng.choice(REPLACEMENTS)
        else:
            # the first number of a graph file is its vertex count
            t = numbers[0] if rng.random() < 0.25 else rng.choice(numbers)
            new = BOOLEANS.get(t.group()) if rng.random() < 0.5 else None
            new = new or rng.choice(REPLACEMENTS)
        return data[:t.start()] + new + data[t.end():]
    if op == "truncate":
        return data[:rng.randrange(len(data) + 1)]
    if op == "flip" and data:
        i = rng.randrange(len(data))
        return data[:i] + bytes([rng.randrange(256)]) + data[i + 1:]
    if op == "duplicate":
        lines = data.split(b"\n")
        i = rng.randrange(len(lines))
        return b"\n".join(lines[:i + 1] + lines[i:])
    i = rng.randrange(len(data) + 1)
    return data[:i] + rng.choice(NOT_UTF8) + data[i:]


def ids_are_integers(cert: bytes) -> bool:
    doc = json.loads(cert)
    ids = [doc.get("radius", 0), doc.get("coarse_threshold", 0),
           *doc.get("x", []), *(v for p in doc.get("paths", []) for v in p)]
    return all(type(v) is int for v in ids)


def test_mutated_input_files_end_in_a_documented_exit_code(tmp_path, capsys):
    bases = [base_files(*b) for b in BASES]
    paths = {name: str(tmp_path / name)
             for name in ("graph", "aset", "cert", "model", "qset")}
    seen = set()
    for case in range(CASES):
        rng = random.Random(case)
        target = ("graph", "aset", "cert")[case // len(bases) % 3]
        files = write_mutated(bases[case % len(bases)], target, rng, paths)
        instance = ["--graph", paths["graph"], "--a-set", paths["aset"]]
        solved = main(["solve", *instance, "-k", "1", "-d", "1"])
        verified = main(["verify", paths["cert"], *instance])
        capsys.readouterr()
        assert solved in EXIT_CODES and verified in EXIT_CODES, (
            case, target, files[target][:200])
        if verified == 0:
            assert ids_are_integers(files["cert"]), (case, files["cert"])
        seen |= {solved, verified}
    assert seen == EXIT_CODES

    steps = step_bases(tmp_path)
    seen = set()
    for case in range(STEP_CASES):
        rng = random.Random(case)
        base, commands = steps[case % len(steps)]
        target = sorted(base)[case // len(steps) % len(base)]
        files = write_mutated(base, target, rng, paths)
        for argv in commands:
            code = main([word.format(**paths) for word in argv])
            capsys.readouterr()
            assert code in STEP_EXIT_CODES, (
                case, argv[0], target, files[target][:200])
            seen.add(code)
    assert seen == STEP_EXIT_CODES

"""Command-line entry point.

Exit codes: 0 success (solve: packing found), 10 solve found a hitting
set, 1 verification or precondition failure, 2 malformed input (also a
file that is not UTF-8), 3 parameters out of the supported numeric range
(k at most 7; a graph header may announce at most graph.MAX_VERTICES =
10^7 vertices), 4 an internal invariant failed (a bug in pathpack, never
a user error).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import fileio
from .errors import (InputError, InternalInvariantError, ParameterRangeError,
                     PreconditionError)
from .frame import PackingCertificate, SolveParams, certificate_violations, solve
from .generate import A_POLICIES, FAMILIES, make_instance
from .model import fat_to_clean, fatness
from .topominor import make_topological
from .tripod import tripod

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_RANGE = 3
EXIT_INTERNAL = 4
EXIT_HITTING = 10


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _cmd_solve(args: argparse.Namespace) -> int:
    g = fileio.read_graph(args.graph)
    a = fileio.read_vertex_set(args.a_set)
    params = SolveParams(k=args.k, d=args.d, coarse=args.coarse)
    cert = solve(g, a, params, validate=args.validate)
    _emit(fileio.certificate_to_json(cert, params), args.out)
    if isinstance(cert, PackingCertificate):
        print(f"packing: {len(cert.paths)} paths at distance >= {params.d}",
              file=sys.stderr)
        return EXIT_OK
    print(f"hitting set: {len(cert.x)} vertices, ball radius {cert.radius}",
          file=sys.stderr)
    return EXIT_HITTING


def _cmd_verify(args: argparse.Namespace) -> int:
    g = fileio.read_graph(args.graph)
    a = g.check_vertex_set(fileio.read_vertex_set(args.a_set))
    params, cert = fileio.read_certificate(args.certificate)
    bad = certificate_violations(g, a, params, cert)
    if bad:
        print(f"invalid: {bad[0]}", file=sys.stderr)
        return EXIT_FAIL
    print("certificate ok")
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    g, a = make_instance(args.family, args.n, seed=args.seed,
                         a_policy=args.a_policy)
    fileio.write_graph(g, args.out + ".graph")
    fileio.write_vertex_set(a, args.out + ".aset")
    print(f"{args.out}.graph {args.out}.aset")
    return EXIT_OK


def _cmd_tripod(args: argparse.Namespace) -> int:
    g = fileio.read_graph(args.graph)
    q = g.check_vertex_set(fileio.read_vertex_set(args.q_set))
    tips = tuple(args.tips)
    res = tripod(g, tips, q, args.ell, args.d)
    doc = {
        "z": sorted(res.z),
        "p": [sorted(part) for part in res.p],
        "iterations": res.iterations,
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_clean(args: argparse.Namespace) -> int:
    g = fileio.read_graph(args.graph)
    m = fileio.read_model(args.model)
    out = fat_to_clean(g, m, args.q, args.ell)
    _emit(fileio.model_to_text(out), args.out)
    return EXIT_OK


def _cmd_topo(args: argparse.Namespace) -> int:
    g = fileio.read_graph(args.graph)
    m = fileio.read_model(args.model)
    out = make_topological(g, m, args.ell)
    print(f"fatness {fatness(g, out)}", file=sys.stderr)
    _emit(fileio.model_to_text(out), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathpack",
        description="Pack far-apart terminal paths or find a small hitting set.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the solver on a graph and terminal set")
    p.add_argument("--graph", required=True)
    p.add_argument("--a-set", required=True)
    p.add_argument("-k", type=int, required=True, help="number of paths wanted")
    p.add_argument("-d", type=int, required=True, help="pairwise distance")
    p.add_argument("--coarse", action="store_true",
                   help="also require far path endpoints")
    p.add_argument("--validate", action="store_true",
                   help="also check each frame against the scale schedule "
                   "and verify the certificate independently (every step's "
                   "own checks always run, also under python -O)")
    p.add_argument("--out", help="write the certificate here instead of stdout")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a certificate against an instance")
    p.add_argument("certificate")
    p.add_argument("--graph", required=True)
    p.add_argument("--a-set", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="generate a benchmark instance")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--a-policy", default="endpoints", choices=A_POLICIES)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("tripod", help="build a three-leg junction")
    p.add_argument("--graph", required=True)
    p.add_argument("--q-set", required=True, help="file with the target set")
    p.add_argument("--tips", type=int, nargs=3, required=True,
                   metavar=("V1", "V2", "V3"))
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_tripod)

    p = sub.add_parser("clean", help="reroute a fat model into a clean one")
    p.add_argument("--graph", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--q", type=int, required=True, help="fatness to keep")
    p.add_argument("--ell", type=int, required=True, help="cleanness scale")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_clean)

    p = sub.add_parser("topo", help="compress a fat model topologically")
    p.add_argument("--graph", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_topo)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ParameterRangeError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_RANGE
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except InternalInvariantError as exc:
        print(f"internal error (a bug in pathpack): {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Every invocation prints the context header line first, then the report.
Exit codes: 0 on success, 1 on domain errors and unreadable input files
(named error codes, no tracebacks), 2 when a verification finds a mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import dsl
from .deligne import cv_map, dsum, dual_class, tensor_ss, twist_class
from .errors import ModwdError
from .factors import local_constants
from .field import make_ctx
from .gln import c_map, check_preservation, v_map
from .matrixmodel import decompose, oracle_tensor_ss, realize
from . import verify as verify_mod


def _build_parser():
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text")
    shared = argparse.ArgumentParser(add_help=False, parents=[fmt])
    shared.add_argument("--ell", type=int, help="residue characteristic ell")
    shared.add_argument("--q", type=int, help="residual cardinality q")
    shared.add_argument("--field-deg", type=int, default=1,
                        help="requested extension degree k (auto-doubled for sqrt q)")
    shared.add_argument("--fusion-file", help="fusion table file for abstract pairs")

    p = argparse.ArgumentParser(
        prog="modwd",
        description="exact calculus for modular Weil-Deligne representations")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("normalize", parents=[shared])
    sp.add_argument("expr")
    sp = sub.add_parser("dsum", parents=[shared])
    sp.add_argument("expr")
    sp.add_argument("expr2")
    sp = sub.add_parser("dual", parents=[shared])
    sp.add_argument("expr")
    sp = sub.add_parser("twist", parents=[shared])
    sp.add_argument("expr")
    sp.add_argument("--nu", type=int, default=0, help="power of nu to twist by")
    sp.add_argument("--chi", help="unramified character expression chi(t=...)")
    sp = sub.add_parser("tensor", parents=[shared])
    sp.add_argument("expr")
    sp.add_argument("expr2")
    sp = sub.add_parser("cv", parents=[shared])
    sp.add_argument("expr")
    sp = sub.add_parser("factors", parents=[shared])
    sp.add_argument("expr")
    sp = sub.add_parser("realize", parents=[shared])
    sp.add_argument("expr")
    sp = sub.add_parser("decompose", parents=[shared])
    sp.add_argument("--file", help="matrix dump file (default: stdin)")
    sp = sub.add_parser("oracle", parents=[shared])
    sp.add_argument("expr")
    sp.add_argument("expr2")
    sp = sub.add_parser("pair", parents=[shared])
    sp.add_argument("expr")
    sp.add_argument("expr2")
    sp = sub.add_parser("correspond", parents=[shared])
    sp.add_argument("expr")
    sp = sub.add_parser("verify", parents=[fmt])
    sp.add_argument("what", choices=("all", *verify_mod.SWEEPS))
    sp.add_argument("--grid", choices=("small", "full"), default="small")
    return p


def _need_ctx(args):
    if args.ell is None or args.q is None:
        raise ModwdError("this command needs --ell and --q")
    if args.field_deg < 1:
        raise ModwdError("--field-deg must be positive")
    return make_ctx(args.ell, args.q, args.field_deg)


def _read_text(path):
    """The UTF-8 text of the file at `path`, or of stdin when path is None."""
    if path is None:
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_table(args, ctx):
    if not args.fusion_file:
        return None
    return dsl.load_fusion_table(_read_text(args.fusion_file), ctx)


def _emit(args, ctx, payload, out):
    """payload: list of (key, value) pairs, emitted in order; a value is a
    string, or a list of lines that the text format prints as they are."""
    if args.format == "json":
        doc = {"ctx": {"ell": ctx.ell, "q": ctx.q_residue, "k": ctx.k}}
        doc.update({k: v for k, v in payload})
        out.write(json.dumps(doc, sort_keys=False) + "\n")
    else:
        out.write(ctx.header() + "\n")
        for k, v in payload:
            if isinstance(v, list):
                out.writelines(line + "\n" for line in v)
            else:
                out.write(f"{k}= {v}\n")


def _run_verify(what, grid, fmt, out):
    summaries = [s for name in (verify_mod.SWEEPS if what == "all" else [what])
                 for s in verify_mod.run_named(name, grid)]
    ok = all(s.passed for s in summaries)
    verdict = "ALL PASS" if ok else "MISMATCH"
    if fmt == "json":
        docs = [{"name": s.name, "checked": s.checked, "passed": s.passed,
                 "failures": s.failures, "note": s.note,
                 "population_s": s.population_s, "check_s": s.check_s,
                 "workers": s.workers} for s in summaries]
        lines = [json.dumps(doc) for doc in docs + [{"verdict": verdict}]]
    else:
        lines = [s.line() for s in summaries] + [verdict]
    out.writelines(line + "\n" for line in lines)
    return 0 if ok else 2


def run(argv, out=None) -> int:
    out = out or sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "verify":
            return _run_verify(args.what, args.grid, args.format, out)
        ctx = _need_ctx(args)
        table = _load_table(args, ctx)
        if args.command == "normalize":
            a = dsl.parse_class(args.expr, ctx)
            _emit(args, ctx, [("class", repr(a)), ("dim", str(a.dim()))], out)
        elif args.command == "dsum":
            a = dsl.parse_class(args.expr, ctx)
            b = dsl.parse_class(args.expr2, ctx)
            _emit(args, ctx, [("class", repr(dsum(a, b)))], out)
        elif args.command == "dual":
            a = dsl.parse_class(args.expr, ctx)
            _emit(args, ctx, [("class", repr(dual_class(a)))], out)
        elif args.command == "twist":
            a = dsl.parse_class(args.expr, ctx)
            chi = dsl.parse_irr(args.chi, ctx) if args.chi else None
            _emit(args, ctx, [("class", repr(twist_class(a, nu_power=args.nu,
                                                         chi=chi)))], out)
        elif args.command == "tensor":
            a = dsl.parse_class(args.expr, ctx)
            b = dsl.parse_class(args.expr2, ctx)
            _emit(args, ctx, [("class", repr(tensor_ss(a, b, table)))], out)
        elif args.command == "cv":
            a = dsl.parse_class(args.expr, ctx)
            _emit(args, ctx, [("class", repr(cv_map(a)))], out)
        elif args.command == "factors":
            a = dsl.parse_class(args.expr, ctx)
            l, gamma, eps = local_constants(a)
            _emit(args, ctx, [("L", repr(l)), ("GAMMA", repr(gamma)),
                              ("EPSILON", repr(eps))], out)
        elif args.command == "realize":
            a = dsl.parse_class(args.expr, ctx)
            m = realize(a, ctx)
            if args.format == "json":
                _emit(args, ctx, [("matrix", dsl.format_matrix(m, ctx))], out)
            else:
                out.write(dsl.format_matrix(m, ctx))
        elif args.command == "decompose":
            m = dsl.parse_matrix(_read_text(args.file), ctx)
            _emit(args, ctx, [("class", repr(decompose(m, ctx)))], out)
        elif args.command == "oracle":
            a = dsl.parse_class(args.expr, ctx)
            b = dsl.parse_class(args.expr2, ctx)
            formal = tensor_ss(a, b, table)
            orc = oracle_tensor_ss(a, b)
            verdict = "MATCH" if formal == orc else "MISMATCH"
            _emit(args, ctx, [("formal", repr(formal)), ("oracle", repr(orc)),
                              ("verdict", verdict)], out)
            if verdict != "MATCH":
                return 2
        elif args.command == "pair":
            pi = dsl.parse_rep(args.expr, ctx)
            pi2 = dsl.parse_rep(args.expr2, ctx)
            report = check_preservation(pi, pi2)
            verdict = "MATCH" if report.all_match else "MISMATCH"
            _emit(args, ctx, [("report", list(report.lines())),
                              ("verdict", verdict)], out)
            if verdict != "MATCH":
                return 2
        elif args.command == "correspond":
            pi = dsl.parse_rep(args.expr, ctx)
            _emit(args, ctx, [("rep", repr(pi)),
                              ("V", repr(v_map(pi))),
                              ("C", repr(c_map(pi)))], out)
        return 0
    except (ModwdError, OSError, UnicodeDecodeError) as exc:
        out.write(f"error {type(exc).__name__}: {exc}\n")
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""Command-line interface for the toolkit.

Subcommands: check, classify, canonicalize, transform, verify-symmetry,
demo.  Exit codes: 0 positive verdict, 1 negative verdict, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .canon import (
    CoefficientFn, LinearForm, PointTransformation, PoleInInterval,
    reduce_24_to_25, reduce_25_to_28, reduce_optimal, transform_system,
)
from .csa import check_cr
from .cubic import OdeSystem2, extract_cubic, check_theorem2
from .expr import ExprError, ParseError, VarContext, parse, to_string
from .symmetry import (
    IntervalTooSmall, VectorField, check_symmetry, classify_beta,
)
from .verify import run_example

SCHEMA_VERSION = 1


class InputError(Exception):
    pass


def _context_from(doc: dict) -> VarContext:
    vars_ = doc.get("variables", {})
    indep = vars_.get("independent", "x")
    deps = tuple(vars_.get("dependent", ["y", "z"]))
    if len(deps) != 2:
        raise InputError("exactly two dependent variables are required")
    params = frozenset(doc.get("parameters", []))
    return VarContext(indep, deps, tuple(d + "'" for d in deps),
                      tuple(d + "''" for d in deps), params)


def _load_problem(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise InputError("problem file must be a JSON object")
    iv = doc.get("interval")
    if iv is not None and not (len(iv) == 2 and iv[0] < iv[1]):
        raise InputError("interval must be [lo, hi] with lo < hi")
    return doc


def _system_from(doc: dict, ctx: VarContext) -> OdeSystem2:
    spec = doc.get("system")
    if not spec:
        raise InputError("problem file has no \"system\" entry")
    try:
        w1 = parse(spec["omega1"], ctx)
        w2 = parse(spec["omega2"], ctx)
    except (KeyError, ParseError, ExprError) as exc:
        raise InputError(f"bad system expressions: {exc}")
    return OdeSystem2(ctx, w1, w2)


def _transformation_from(doc: dict, ctx: VarContext) -> PointTransformation:
    spec = doc.get("transformation")
    if not spec:
        raise InputError("problem file has no \"transformation\" entry")
    try:
        return PointTransformation(ctx, parse(spec["X"], ctx),
                                   parse(spec["Y"], ctx),
                                   parse(spec["Z"], ctx))
    except (KeyError, ParseError, ExprError) as exc:
        raise InputError(f"bad transformation expressions: {exc}")


def _coefficient_summary(c: CoefficientFn) -> dict:
    if c.kind == "symbolic":
        return {"kind": "symbolic", "expr": to_string(c.expr)}
    return {"kind": "tabulated", "points": int(len(c.xs)),
            "domain": [float(c.xs[0]), float(c.xs[-1])],
            "error_estimate": float(c.error_estimate)}


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        payload = {"schema_version": SCHEMA_VERSION, **payload}
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(text)


def cmd_check(args) -> int:
    doc = _load_problem(args.file)
    ctx = _context_from(doc)
    sysx = _system_from(doc, ctx)
    cr = check_cr(sysx, seed=args.seed)
    t2 = check_theorem2(extract_cubic(sysx), seed=args.seed)
    ok = cr.overall and t2.overall
    text = "\n".join([cr.render(), t2.render(),
                      f"CSA-correspondent: {'yes' if ok else 'no'}"])
    _emit(args, {"command": "check", "cr": cr.to_dict(),
                 "cubic_conditions": t2.to_dict(), "correspondent": ok},
          text)
    return 0 if ok else 1


def cmd_classify(args) -> int:
    if args.beta is None:
        doc = _load_problem(args.file) if args.file else {}
        beta = doc.get("beta")
        interval = tuple(doc.get("interval", (0.5, 3.0)))
        if beta is None:
            raise InputError("no beta given (use --beta or a problem file)")
    else:
        beta = args.beta
        interval = tuple(args.interval) if args.interval else (0.5, 3.0)
    cls = classify_beta(beta, interval, seed=args.seed,
                        svd_cut=args.tol if args.tol else 1e-8)
    payload = {
        "command": "classify",
        "beta": beta,
        "dimension": cls.dimension,
        "case": cls.case_label,
        "witness_count": len(cls.witness) if cls.witness else 0,
    }
    if cls.rank_report:
        payload["rank"] = cls.rank_report.rank
        payload["svd_cutoff"] = cls.rank_report.cutoff
    _emit(args, payload, cls.render())
    return 0


def cmd_canonicalize(args) -> int:
    doc = _load_problem(args.file)
    spec = doc.get("form")
    if not spec:
        raise InputError("problem file has no \"form\" entry")
    kind = spec.get("kind")
    coeffs = {k: v for k, v in spec.items() if k != "kind"}
    try:
        lf = LinearForm(kind, coeffs)
    except (ValueError, ExprError) as exc:
        raise InputError(f"bad linear form: {exc}")
    interval = tuple(doc.get("interval", (0.5, 2.0)))
    steps = []
    if lf.kind == "general":
        lf = reduce_optimal(lf, interval).form
        steps.append("general -> optimal")
    if lf.kind == "first_order":
        lf = reduce_24_to_25(lf, interval).form
        steps.append("first_order -> zero_order")
    if lf.kind == "zero_order":
        lf = reduce_25_to_28(lf, interval).form
        steps.append("zero_order -> reduced")
    out = {name: _coefficient_summary(c) for name, c in lf.coeffs.items()}
    text_lines = [f"reduction chain: {' ; '.join(steps) or '(none)'}",
                  f"result kind: {lf.kind}"]
    for name, summary in sorted(out.items()):
        if summary["kind"] == "symbolic":
            text_lines.append(f"  {name} = {summary['expr']}")
        else:
            text_lines.append(
                f"  {name}: tabulated, {summary['points']} points on "
                f"[{summary['domain'][0]:g}, {summary['domain'][1]:g}], "
                f"error {summary['error_estimate']:.2e}")
    _emit(args, {"command": "canonicalize", "chain": steps,
                 "kind": lf.kind, "coefficients": out},
          "\n".join(text_lines))
    return 0


def cmd_transform(args) -> int:
    doc = _load_problem(args.file)
    ctx = _context_from(doc)
    sysx = _system_from(doc, ctx)
    T = _transformation_from(doc, ctx)
    out = transform_system(sysx, T, seed=args.seed)
    o1, o2 = to_string(out.omega1), to_string(out.omega2)
    d1, d2 = out.ctx.dependents
    _emit(args, {"command": "transform",
                 "omega1": o1, "omega2": o2,
                 "variables": [out.ctx.independent, d1, d2]},
          f"{d1}'' = {o1}\n{d2}'' = {o2}")
    return 0


def cmd_verify_symmetry(args) -> int:
    doc = _load_problem(args.file)
    ctx = _context_from(doc)
    sysx = _system_from(doc, ctx)
    gens = doc.get("generators")
    if not gens:
        raise InputError("problem file has no \"generators\" entry")
    results = []
    for i, g in enumerate(gens):
        try:
            V = VectorField(ctx, parse(g["xi"], ctx),
                            parse(g["eta1"], ctx), parse(g["eta2"], ctx))
        except (KeyError, ParseError, ExprError, ValueError) as exc:
            raise InputError(f"bad generator {i}: {exc}")
        ok, report = check_symmetry(sysx, V, seed=args.seed)
        results.append({"index": i, "holds": ok,
                        "report": report.to_dict()})
    all_ok = all(r["holds"] for r in results)
    text = "\n".join(
        f"generator {r['index']}: {'PASS' if r['holds'] else 'FAIL'}"
        for r in results)
    _emit(args, {"command": "verify-symmetry", "results": results,
                 "all_pass": all_ok}, text)
    return 0 if all_ok else 1


def cmd_demo(args) -> int:
    if args.id not in (1, 2, 3, 4):
        raise InputError("demo id must be 1..4")
    report = run_example(args.id, seed=args.seed)
    _emit(args, {"command": "demo", **report.to_dict()}, report.render())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="csalin",
        description="complex-correspondence analysis of systems of two "
                    "second-order ODEs")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for sampled verdicts")
    p.add_argument("--tol", type=float, default=None,
                   help="override the rank-cutoff tolerance")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("check", help="complex-correspondence conditions")
    s.add_argument("file")
    s.set_defaults(fn=cmd_check)

    s = sub.add_parser("classify", help="symmetry-dimension classification")
    s.add_argument("file", nargs="?")
    s.add_argument("--beta")
    s.add_argument("--interval", nargs=2, type=float)
    s.set_defaults(fn=cmd_classify)

    s = sub.add_parser("canonicalize", help="reduce a linear form")
    s.add_argument("file")
    s.set_defaults(fn=cmd_canonicalize)

    s = sub.add_parser("transform", help="apply a point transformation")
    s.add_argument("file")
    s.set_defaults(fn=cmd_transform)

    s = sub.add_parser("verify-symmetry", help="check generator candidates")
    s.add_argument("file")
    s.set_defaults(fn=cmd_verify_symmetry)

    s = sub.add_parser("demo", help="run a worked example end to end")
    s.add_argument("id", type=int)
    s.set_defaults(fn=cmd_demo)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PoleInInterval, IntervalTooSmall) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExprError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

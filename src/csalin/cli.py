"""Command-line interface for the toolkit.

Subcommands: check, classify, canonicalize, transform, verify-symmetry,
demo.  Exit codes: 0 positive verdict, 1 negative verdict, 2 input error.
Each subcommand imports the modules it needs when it runs, so a symbolic
one (check, transform, verify-symmetry) never loads numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .csa import check_cr
from .cubic import OdeSystem2, extract_cubic, check_theorem2
from .expr import ExprError, VarContext, parse, to_string

SCHEMA_VERSION = 2


class InputError(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise InputError(message)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and math.isfinite(v)


def _is_names(v) -> bool:
    return isinstance(v, list) and all(
        isinstance(n, str) and n.isidentifier() for n in v)


def _interval(iv, where: str) -> tuple:
    """iv as (lo, hi): two finite numbers with lo < hi."""
    _require(isinstance(iv, (list, tuple)) and len(iv) == 2
             and all(map(_is_number, iv)) and iv[0] < iv[1],
             f"{where} must be two finite numbers lo < hi, got {iv!r}")
    return tuple(iv)


def _coefficient(value, where: str):
    _require(isinstance(value, str) or _is_number(value),
             f"{where} must be an expression string or a finite number")
    return value


def _expressions(spec, where: str, keys: tuple, ctx: VarContext) -> list:
    """spec[key] parsed in ctx for each key; spec must be a JSON object
    with an expression string at each key."""
    _require(isinstance(spec, dict), f"{where} must be a JSON object")
    out = []
    for key in keys:
        _require(isinstance(spec.get(key), str),
                 f"{where}.{key} must be an expression string")
        try:
            out.append(parse(spec[key], ctx))
        except ExprError as exc:
            raise InputError(f"bad {where}.{key}: {exc}")
    return out


def _context_from(doc: dict) -> VarContext:
    vars_ = doc.get("variables", {})
    _require(isinstance(vars_, dict), "variables must be a JSON object")
    indep = vars_.get("independent", "x")
    deps = vars_.get("dependent", ["y", "z"])
    params = doc.get("parameters", [])
    _require(_is_names([indep]), "variables.independent must be a name")
    _require(_is_names(deps) and len(deps) == 2,
             "variables.dependent must be a list of two names")
    _require(_is_names(params), "parameters must be a list of names")
    try:
        return VarContext(indep, tuple(deps), tuple(d + "'" for d in deps),
                          tuple(d + "''" for d in deps), frozenset(params))
    except ValueError as exc:
        raise InputError(str(exc))


def _load_problem(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}")
    _require(isinstance(doc, dict), "problem file must be a JSON object")
    if "interval" in doc:
        doc["interval"] = _interval(doc["interval"], "interval")
    return doc


def _system_from(doc: dict, ctx: VarContext) -> OdeSystem2:
    w1, w2 = _expressions(doc.get("system"), "system", ("omega1", "omega2"),
                          ctx)
    try:
        return OdeSystem2(ctx, w1, w2)
    except ValueError as exc:
        raise InputError(f"bad system: {exc}")


def _coefficient_summary(c) -> dict:
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
    from .symmetry import classify_beta

    if args.beta is None:
        doc = _load_problem(args.file) if args.file else {}
        _require(doc.get("beta") is not None,
                 "no beta given (use --beta or a problem file)")
        beta = _coefficient(doc["beta"], "beta")
        interval = doc.get("interval", (0.5, 3.0))
    else:
        beta = args.beta
        interval = _interval(args.interval, "--interval") \
            if args.interval else (0.5, 3.0)
    cls = classify_beta(beta, interval, seed=args.seed, svd_cut=args.tol)
    payload = {
        "command": "classify",
        "beta": beta,
        "dimension": cls.dimension,
        "case": cls.case_label,
        "witness_count": len(cls.witness) if cls.witness else 0,
        "notes": list(cls.notes),
    }
    if cls.rank_report:
        r = cls.rank_report
        payload["rank"] = r.rank
        payload["svd_cutoff"] = r.cutoff
        # the last singular value kept and the first one cut, relative to
        # the largest, so they bracket the cutoff; null where none is
        sv, k = r.singular_values, r.rank
        payload["singular_values_at_cutoff"] = [
            float(sv[k - 1] / sv[0]) if k else None,
            float(sv[k] / sv[0]) if k < len(sv) else None]
    _emit(args, payload, cls.render())
    return 0


def cmd_canonicalize(args) -> int:
    from .canon import LinearForm, reduce_chain

    doc = _load_problem(args.file)
    spec = doc.get("form")
    _require(isinstance(spec, dict) and isinstance(spec.get("kind"), str),
             "form must be a JSON object with a string kind")
    coeffs = {k: _coefficient(v, f"form.{k}")
              for k, v in spec.items() if k != "kind"}
    try:
        lf = LinearForm(spec["kind"], coeffs)
    except (ValueError, ExprError) as exc:
        raise InputError(f"bad linear form: {exc}")
    chain = reduce_chain(lf, doc.get("interval", (0.5, 2.0)))
    forms = [lf] + [red.form for red in chain]
    steps = [f"{a.kind} -> {b.kind}" for a, b in zip(forms, forms[1:])]
    lf = forms[-1]
    # "rk4" where any step of the chain integrated its rescaling with RK4
    rescaling = "rk4" if any(red.rescaling == "rk4" for red in chain) \
        else "closed-form"
    out = {name: _coefficient_summary(c) for name, c in lf.coeffs.items()}
    text_lines = [f"reduction chain: {' ; '.join(steps) or '(none)'}",
                  f"result kind: {lf.kind}", f"rescaling: {rescaling}"]
    for name, summary in sorted(out.items()):
        if summary["kind"] == "symbolic":
            text_lines.append(f"  {name} = {summary['expr']}")
        else:
            text_lines.append(
                f"  {name}: tabulated, {summary['points']} points on "
                f"[{summary['domain'][0]:g}, {summary['domain'][1]:g}], "
                f"error {summary['error_estimate']:.2e}")
    _emit(args, {"command": "canonicalize", "chain": steps,
                 "kind": lf.kind, "coefficients": out,
                 "rescaling": rescaling},
          "\n".join(text_lines))
    return 0


def cmd_transform(args) -> int:
    from .canon import PointTransformation, transform_system

    doc = _load_problem(args.file)
    ctx = _context_from(doc)
    sysx = _system_from(doc, ctx)
    T = PointTransformation(ctx, *_expressions(
        doc.get("transformation"), "transformation", ("X", "Y", "Z"), ctx))
    out = transform_system(sysx, T, seed=args.seed)
    o1, o2 = to_string(out.omega1), to_string(out.omega2)
    d1, d2 = out.ctx.dependents
    _emit(args, {"command": "transform",
                 "omega1": o1, "omega2": o2,
                 "variables": [out.ctx.independent, d1, d2]},
          f"{d1}'' = {o1}\n{d2}'' = {o2}")
    return 0


def cmd_verify_symmetry(args) -> int:
    from .symmetry import VectorField, check_symmetry

    doc = _load_problem(args.file)
    ctx = _context_from(doc)
    sysx = _system_from(doc, ctx)
    gens = doc.get("generators")
    _require(isinstance(gens, list) and len(gens) > 0,
             "generators must be a non-empty list")
    results = []
    for i, g in enumerate(gens):
        comps = _expressions(g, f"generators[{i}]", ("xi", "eta1", "eta2"),
                             ctx)
        try:
            V = VectorField(ctx, *comps)
        except ValueError as exc:
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
    from .verify import run_example

    _require(args.id in (1, 2, 3, 4), "demo id must be 1..4")
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
    p.add_argument("--tol", type=float, default=1e-8,
                   help="relative rank cutoff of classify, in (0, 1)")
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
    args = build_parser().parse_args(argv)
    try:
        if not 0.0 < args.tol < 1.0:
            raise InputError(f"--tol must lie in (0, 1), got {args.tol}")
        return args.fn(args)
    except (InputError, ExprError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Expression-kernel tests: parsing, printing, calculus, zero decision."""

from __future__ import annotations

import dataclasses
import math
import random
import re
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from csalin import canon, csa, expr, symmetry
from csalin.canon import transform_system
from csalin.expr import (
    EMIT_NAMESPACE, Add, AllSamplesFailed, C, Constant, Div, EvalDomainError,
    Expr, ExprError, Func, Mul, Neg, NotPolynomial, ParseError, Pow, Symbol,
    UnboundSymbol, UndeclaredSymbol, VarContext, ZERO, add, coefficients_in,
    collect, compile_rows, cos, differentiate, div, emit_code, enclose,
    eval_expr, exp, free_symbols, jet, log, mul, neg, normalize, parse,
    pow_,
    TooDeep, complex_parts, rewrite_subterms, simplify, simplify_verdict,
    atan, sin, sqrt, substitute, sym, to_string, zero_verdict,
)
from csalin.numerics import Field, rk4
from csalin.verify import example_case, run_example

from beta_corpus import BETA_CORPUS
from exprgen import CTX, VARS, corpus, random_expr, sample_point
from transform_corpus import TRANSFORM_MAPS, TRANSFORM_SYSTEMS, build


def _run_pipeline(transforms: bool = False) -> None:
    """The four worked examples and the beta corpus, and with transforms
    transform_system over every system and map of transform_corpus."""
    for case_id in (1, 2, 3, 4):
        run_example(case_id)
    for beta, _ in BETA_CORPUS:
        try:
            symmetry.classify_beta(beta)
        except ExprError:
            pass
    if not transforms:
        return
    for system in TRANSFORM_SYSTEMS:
        for xyz, inverse in TRANSFORM_MAPS:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    transform_system(*build(system, xyz, inverse))
                except ExprError:
                    pass


# ---------------------------------------------------------------------------
# parsing and printing


def test_parse_basic_arithmetic():
    e = parse("y'' - 2*x^2 + y/z", VarContext())
    assert free_symbols(e) == {"y''", "x", "y", "z"}


def test_parse_aliases_map_to_primed_symbols():
    e = parse("dy + dz", VarContext())
    assert free_symbols(e) == {"y'", "z'"}


def test_parse_undeclared_symbol_rejected():
    with pytest.raises(UndeclaredSymbol):
        parse("q + 1", VarContext())


def test_parse_error_position():
    with pytest.raises(ParseError):
        parse("1 + * 2", VarContext())


def test_parse_power_right_associative():
    e = parse("x^2^3", VarContext())
    v = eval_expr(e, {"x": 2.0})
    assert v == 2.0 ** 8


def test_parse_exponent_is_folded_like_any_constant():
    # the exponent folds as normalize folds it: a zero factor makes 0, a
    # symbol left over is not a rational constant
    ctx = VarContext()
    assert parse("x^(0*y)", ctx) == parse("x^0", ctx) == Pow(sym("x"), 0)
    assert parse("x^((1/2)*(4 - 2))", ctx) == parse("x", ctx)
    with pytest.raises(ExprError, match="is not a rational constant"):
        parse("x^(1*y)", ctx)


@pytest.mark.parametrize("node", [
    Constant(Fraction(3, 2)), Symbol("x"), Add((Symbol("x"), C(1))),
    Mul((C(2), Symbol("x"))), Pow(Symbol("x"), Fraction(1, 2)),
    Neg(Symbol("x")), Div(Symbol("x"), Symbol("y")),
    Func("sin", Symbol("x")),
], ids=lambda node: type(node).__name__)
def test_str_of_every_node_class_is_to_string(node):
    # @dataclass adds no __str__, so each node class inherits Expr's
    assert type(node).__str__ is Expr.__str__
    assert str(node) == to_string(node)


def test_roundtrip_corpus_200():
    # printing then parsing preserves the value, and the printed form is a
    # fixed point after one parse (the parser folds constants)
    for e in corpus(200):
        s = to_string(e)
        back = parse(s, CTX)
        s2 = to_string(back)
        assert to_string(parse(s2, CTX)) == s2
        rng = random.Random(11)
        for _ in range(3):
            pt = sample_point(rng)
            assert eval_expr(back, pt) == pytest.approx(
                eval_expr(e, pt), rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# the one-pass parse against a two-pass reference: the raw Pratt tree,
# with no node folded while it is built, then a normalization walk


_REFERENCE_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*'*)"
    r"|(?P<op>[-+*/^()]))")


def _reference_tokens(text):
    tokens, pos, text = [], 0, text.rstrip()
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens + [("end", "", len(text))]


def _reference_normalize(e):
    """The normalization walk, one fold per node kind, inline."""
    if isinstance(e, (Constant, Symbol)):
        return e
    if isinstance(e, (Add, Mul)):
        kind = type(e)
        parts = []
        for t in (e.terms if kind is Add else e.factors):
            t = _reference_normalize(t)
            parts.extend(t.terms if kind is Add and isinstance(t, Add)
                         else t.factors if kind is Mul
                         and isinstance(t, Mul) else (t,))
        consts = [t.value for t in parts if isinstance(t, Constant)]
        if len(consts) == len(parts):
            return Constant(sum(consts, Fraction(0)) if kind is Add
                            else math.prod(consts, start=Fraction(1)))
        if kind is Mul and 0 in consts:
            return ZERO
        unit = 0 if kind is Add else 1
        parts = [t for t in parts
                 if not (isinstance(t, Constant) and t.value == unit)]
        return parts[0] if len(parts) == 1 else kind(tuple(parts))
    if isinstance(e, Neg):
        a = _reference_normalize(e.arg)
        return Constant(-a.value) if isinstance(a, Constant) else Neg(a)
    if isinstance(e, Div):
        a, b = _reference_normalize(e.num), _reference_normalize(e.den)
        if isinstance(a, Constant) and isinstance(b, Constant) \
                and b.value != 0:
            return Constant(a.value / b.value)
        return Div(a, b)
    if isinstance(e, Pow):
        b, q = _reference_normalize(e.base), e.exponent
        if q == 1:
            return b
        if isinstance(b, Constant) and q.denominator == 1 \
                and not (b.value == 0 and q < 0):
            n = q.numerator
            return Constant(b.value ** n if n >= 0 else 1 / b.value ** -n)
        return Pow(b, q)
    return Func(e.kind, _reference_normalize(e.arg))


class _ReferenceParser:
    """The raw Pratt tree: no node is folded while it is built."""

    BP = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}

    def __init__(self, text, ctx):
        self.tokens, self.pos, self.ctx = _reference_tokens(text), 0, ctx

    def next(self):
        self.pos += 1
        return self.tokens[self.pos - 1]

    def close(self, op):
        kind, val, at = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, found {val!r}", at)

    def parse(self):
        e = self.expression(0)
        kind, val, at = self.tokens[self.pos]
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", at)
        return e

    def expression(self, min_bp):
        e = self.prefix()
        while True:
            kind, val, _ = self.tokens[self.pos]
            if kind != "op" or val not in self.BP or self.BP[val] < min_bp:
                return e
            self.pos += 1
            bp = self.BP[val]
            rhs = self.expression(bp if val == "^" else bp + 1)
            if val in "+-":
                rhs = rhs if val == "+" else Neg(rhs)
                e = Add((e.terms if isinstance(e, Add) else (e,)) + (rhs,))
            elif val == "*":
                e = Mul((e.factors if isinstance(e, Mul) else (e,))
                        + (rhs,))
            elif val == "/":
                e = Div(e, rhs)
            else:
                q = _reference_normalize(rhs)
                if not isinstance(q, Constant):
                    raise expr.NonRationalExponent(
                        f"exponent {to_string(rhs)!r} is not a rational "
                        "constant")
                e = Pow(e, q.value)

    def prefix(self):
        kind, val, at = self.next()
        if kind == "num":
            return Constant(Fraction(val))
        if (kind, val) == ("op", "("):
            e = self.expression(0)
            self.close(")")
            return e
        if (kind, val) == ("op", "-"):
            return Neg(self.expression(25))
        if (kind, val) == ("op", "+"):
            return self.expression(25)
        if kind == "name":
            if val in expr.FUNC_NAMES:
                if self.tokens[self.pos][:2] != ("op", "("):
                    raise expr.ArityMismatch(
                        f"function {val!r} requires parenthesized argument")
                self.pos += 1
                arg = self.expression(0)
                self.close(")")
                return Func(val, arg)
            ctx = self.ctx
            aliases = {f"d{dep}": d1 for dep, d1 in
                       zip(ctx.dependents, ctx.first_derivatives)}
            name = aliases.get(val, val)
            declared = {ctx.independent, *ctx.dependents,
                        *ctx.first_derivatives, *ctx.second_derivatives,
                        *ctx.parameters}
            if name not in declared \
                    and name.rstrip("'") not in ctx.functions_of_x:
                raise UndeclaredSymbol(f"symbol {val!r} is not declared")
            return Symbol(name)
        raise ParseError(f"unexpected token {val!r}", at)


def _reference_parse(text, ctx):
    return _reference_normalize(_ReferenceParser(text, ctx).parse())


def _worked_example_texts():
    """(text, ctx) of every parse that builds the four worked examples."""
    import csalin.verify as verify
    seen = []

    def recording(text, ctx):
        seen.append((text, ctx))
        return parse(text, ctx)

    real, verify.parse = verify.parse, recording
    try:
        for case_id in (1, 2, 3, 4):
            example_case(case_id)
    finally:
        verify.parse = real
    return seen


def _parse_texts():
    from beta_corpus import seeded_betas
    plain = VarContext()
    texts = [(beta, plain) for beta, _ in BETA_CORPUS]
    texts += [(beta, plain) for seed in range(20)
              for beta, _ in seeded_betas(seed)]
    texts += [(to_string(e), CTX) for e in corpus(500)]
    # primed opaque functions, and an alias that shadows a parameter
    funcs = VarContext(parameters=frozenset({"dy", "k"})) \
        .with_functions(["g1", "g3"])
    texts += [(t, funcs) for t in ("g1'' - 2*g1' + g3*dy", "k*g3''' + dz",
                                   "(g1 + 0)*(1*g3')")]
    return texts + _worked_example_texts()


def test_parse_is_the_two_pass_reference_node_for_node():
    # repr tells a Fraction value from an int one, and every node class
    texts = _parse_texts()
    assert len(texts) > 700
    for text, ctx in texts:
        want = _reference_parse(text, ctx)
        assert repr(parse(text, ctx)) == repr(want), text
        raw = _ReferenceParser(text, ctx).parse()
        assert repr(normalize(raw)) == repr(want), text


@pytest.mark.parametrize("text,want", [
    # a parenthesized sum or product that the infix loop extends is not
    # folded first
    ("(2+3)+x", Add((C(2), C(3), sym("x")))),
    ("x+(2+3)", Add((sym("x"), C(5)))),
    ("(2*3)*x", Mul((C(2), C(3), sym("x")))),
    ("x*(2*3)", Mul((sym("x"), C(6)))),
    ("+(2+3)-x", Add((C(2), C(3), Neg(sym("x"))))),
    ("(2+3)*x", Mul((C(5), sym("x")))),
    ("(x+y)^1+z", Add((sym("x"), sym("y"), sym("z")))),
    ("--x", Neg(Neg(sym("x")))),
    ("x^2^-1", Pow(sym("x"), Fraction(1, 2))),
    ("0^0", C(1)),
    ("-0", C(0)),
    ("(1/0)^2", Pow(Div(C(1), C(0)), Fraction(2))),
    ("x^-(1/2)", Pow(sym("x"), Fraction(-1, 2))),
    ("0*x + 1*y", sym("y")),
    ("1.50*dy", Mul((C(Fraction(3, 2)), sym("y'")))),
])
def test_parse_pins_the_shape_of_folded_trees(text, want):
    assert parse(text, CTX) == want == _reference_parse(text, CTX)
    assert repr(parse(text, CTX)) == repr(want)


@pytest.mark.parametrize("text", [
    "", "x +", "sqrt()", "3 x", "x^(y)", "1e-9*x", "x $", "(x", "sqrt x",
    "q + 1", "x + )", "2^(1/2)^x",
])
def test_malformed_text_raises_as_the_reference_does(text):
    with pytest.raises(ExprError) as got:
        parse(text, CTX)
    with pytest.raises(ExprError) as want:
        _reference_parse(text, CTX)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    if isinstance(want.value, ParseError):
        assert got.value.position == want.value.position


def _random_text(rng, depth):
    """Well-formed text with constant subterms and redundant parentheses,
    where folding while parsing and folding afterwards could part."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(["x", "dy", "0", "1", "2", "3", "1.5", "(2+3)",
                           "(2*3)", "(1/0)"])
    op = rng.choice(["+", "-", "*", "/", "^"])
    left = _random_text(rng, depth - 1)
    right = rng.choice(["2", "-1", "(1/2)", "0", "-(1/2)", "(2*0)"]) \
        if op == "^" else _random_text(rng, depth - 1)
    text = f"{left}{op}{right}"
    wrap = rng.random()
    return f"({text})" if wrap < 0.4 else f"-{text}" if wrap < 0.5 \
        else f"sqrt({text})" if wrap < 0.55 else text


def test_random_text_parses_or_fails_as_the_reference_does():
    # short strings over the grammar's tokens, most of them malformed,
    # then well-formed ones with constant subterms; an exponent's message
    # quotes it folded, so only its type is compared
    rng = random.Random(37)
    alphabet = ["x", "y", "dz", "0", "1", "2", "1.5", "+", "-", "*", "/",
                "^", "(", ")", " ", "sqrt", "exp("]
    texts = ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 9)))
             for _ in range(3000)]
    texts += [_random_text(rng, 4) for _ in range(1000)]
    outcomes = set()
    for text in texts:
        try:
            want = repr(_reference_parse(text, CTX))
        except ExprError as exc:
            want = exc
        try:
            got = repr(parse(text, CTX))
        except ExprError as exc:
            got = exc
        if isinstance(want, str):
            assert got == want, text
            outcomes.add("tree")
            continue
        assert type(got) is type(want), text
        if isinstance(want, ParseError):
            assert got.position == want.position, text
        if not isinstance(want, expr.NonRationalExponent):
            assert str(got) == str(want), text
        outcomes.add(type(want).__name__)
    assert {"tree", "ParseError", "NonRationalExponent"} <= outcomes


# ---------------------------------------------------------------------------
# simplification


def test_simplify_cancellation():
    e = parse("x^2/(x+1) - x + x/(x+1)", VarContext())
    assert to_string(simplify(e)) == "0"


@pytest.mark.parametrize("text,want", [
    ("(x+y)^3/(x+y)^5", "(y + x)^(-2)"),
    ("(sin(x)+x)^3/(sin(x)+x)^5", "(x + sin(x))^(-2)"),
    ("(x+y)^3/(2*(x+y)^5)", "1/2*(y + x)^(-2)"),
])
def test_a_power_of_a_sum_in_a_denominator_cancels(text, want):
    # the denominator's power is not expanded before it is inverted, so
    # this reduces as (x+y)^(-5)*(x+y)^3 does
    e = parse(text, CTX)
    assert to_string(simplify(e)) == want
    assert to_string(simplify(parse(want, CTX))) == want
    pt = {"x": 0.7, "y": 1.3}
    assert eval_expr(simplify(e), pt) == pytest.approx(eval_expr(e, pt))


def test_simplify_radicals():
    e = simplify(mul(sqrt(C(2)), sqrt(C(3))) - sqrt(C(6)))
    assert to_string(e) == "0"


def test_simplify_is_projection():
    # reducing the nested sum's x^2 + sqrt(x + 1) brings back integer
    # powers of x + 1, which one more pass cancels
    nested = parse(_NESTED_DENOMINATORS, CTX)
    for e in [*corpus(40, seed=5), nested]:
        s1 = simplify(e)
        assert to_string(simplify(s1)) == to_string(s1)
    assert to_string(simplify(nested)) == "0"


def _assert_one_pass(e):
    # the reduced canonical polynomial of e is that of simplify(e), so a
    # reader of the first never rebuilds it from the second; and reducing
    # it again changes nothing
    st = expr._Canon()
    p = expr._reduce_fractions(expr._canon(e, st), st)
    assert expr._canon(simplify(e), expr._Canon()) == p
    assert expr._reduce_fractions(p, st) == p


@pytest.mark.parametrize("depth,seed", [(2, 11), (3, 12), (4, 13)])
def test_one_canonical_pass_is_that_of_the_simplified_form(depth, seed):
    for e in corpus(150 if depth < 4 else 60, seed=seed, depth=depth):
        _assert_one_pass(e)


def test_one_canonical_pass_on_the_pipeline(monkeypatch):
    # every expression that the worked examples, the beta corpus and
    # transform_system over the recorded maps canonicalise through
    # simplify, simplify_verdict, coefficients_in or rewrite_subterms
    seen = []
    real = expr._reduced

    def recording(e, st):
        seen.append(e)
        return real(e, st)

    with monkeypatch.context() as m:
        m.setattr(expr, "_reduced", recording)
        _run_pipeline(transforms=True)
    assert len(seen) > 500
    for e in seen:
        _assert_one_pass(e)


@pytest.mark.parametrize("text", [
    "x^2/(x+1) - x + x/(x+1)", "sqrt(x^2) - x", "exp(x)*exp(-x) - 1",
    "(x+y)^3/(2*(x+y)^5) - 1/2*(x+y)^(-2)", "sin(x)^2 + cos(x)^2 - 1",
    "1/(1 + sin(y)) - 1"])
def test_simplify_verdict_is_simplify_then_zero_verdict(text):
    e = parse(text, CTX)
    s, v = simplify_verdict(e, seed=3)
    assert s == simplify(e)
    assert v == zero_verdict(simplify(e), seed=3)


def test_complex_parts_split_by_powers_of_the_unit():
    ctx = VarContext(parameters=frozenset({"i"}))
    e = parse("i^3*x + i^2*y + i*z - 2 + exp(y)*i^4", ctx)
    re_, im_, names = complex_parts(e, {exp(sym("y")): sym("z")}, "i")
    assert (to_string(re_), to_string(im_)) == ("z - y - 2", "z - x")
    assert names == {"i", "x", "y", "z"}
    for bad in ("i^(-1)*x", "sin(i*x)", "(x + i)^(-1)"):
        with pytest.raises(NotPolynomial):
            complex_parts(parse(bad, ctx), {}, "i")


def test_rewrite_subterms_returns_a_simplified_form():
    # transform_system's real route keeps rewrite_subterms' result as it
    # stands, with no simplify after it
    rules = {exp(sym("y")): sqrt(add(pow_(sym("z"), 2), C(1))),
             sym("x"): div(C(1), add(sym("z"), C(2))),
             sin(sym("z")): mul(sym("y"), pow_(sym("z"), Fraction(-1, 2)))}
    for e in corpus(150, seed=14):
        r = rewrite_subterms(e, rules)
        assert simplify(r) == r


@pytest.mark.parametrize("text", ["sqrt(x^2) - x", "sqrt(x^2*y^2) - x*y"])
def test_even_power_under_a_root_is_not_a_symbolic_zero(text):
    # sqrt(x^2) = |x|: the first is 2 at x = -1, the second 4 at (-1, 2)
    assert not zero_verdict(parse(text, CTX)).is_zero


@pytest.mark.parametrize("text,x", [
    ("sqrt(1-x^2)", 0.5), ("(1-x)^(1/2)", 0.5), ("(2-x)^(-1/2)", 0.5),
    ("sqrt(4-x)", 0.5), ("(-x^(-2))^(-1/2)", None)])
def test_fractional_power_of_a_negative_leading_sum(text, x):
    # the sign stays in the base; (-x^(-2))^(-1/2) is real nowhere
    e = parse(text, CTX)
    s = simplify(e)
    assert simplify(s) == s
    if x is not None:
        assert eval_expr(s, {"x": x}) == pytest.approx(
            eval_expr(e, {"x": x}), rel=1e-14)


@pytest.mark.parametrize("text,point", [
    ("sqrt(x*y)", {"x": -1.0, "y": -1.0}),
    ("sqrt(-x^3-x^5)", {"x": -1.0}),
], ids=["two-odd-factors", "odd-factor-of-a-sum"])
def test_odd_powers_under_a_root_keep_the_real_domain(text, point):
    # x^(1/2)*y^(1/2) or x^(3/2)*(...)^(1/2) would need x >= 0
    e = parse(text, CTX)
    s = simplify(e)
    assert simplify(s) == s
    assert eval_expr(s, point) == pytest.approx(eval_expr(e, point),
                                                rel=1e-14)


def test_an_even_power_under_a_root_keeps_the_real_domain():
    # sqrt(x*y^2) is -0.0 at (-1, 0), where x^(1/2) is undefined
    e = parse("sqrt(x*y^2)", CTX)
    point = {"x": -1.0, "y": 0.0}
    assert eval_expr(simplify(e), point) == eval_expr(e, point)


@pytest.mark.parametrize("text", [
    "sqrt(x^(1/2)*(1+y))", "sqrt(x^(1/2)+x^(1/2)*y)",
], ids=["product", "sum"])
def test_a_fractional_factor_under_a_root_keeps_the_real_domain(text):
    # both are 0 at (0, -2), where (y + 1)^(1/2) is undefined
    e = parse(text, CTX)
    s = simplify(e)
    assert simplify(s) == s
    point = {"x": 0.0, "y": -2.0}
    assert eval_expr(s, point) == eval_expr(e, point) == 0.0


# the differential oracle: the kernel against evaluation of its input at
# points of either sign, 0.0 and -0.0 included

_MIXED = st.one_of(st.floats(-2.0, 2.0),
                   st.sampled_from([0.0, -0.0, 1.0, -1.0]))


def _value(e, bindings):
    """e at bindings, or None where it is undefined or not finite."""
    try:
        v = eval_expr(e, bindings)
    except (EvalDomainError, OverflowError):
        return None
    return v if math.isfinite(v) else None


def _terms(e):
    s = simplify(e)
    return s.terms if isinstance(s, Add) else (s,)


def _magnitude(e, terms, bindings):
    """The largest of |e| and the |terms| of its canonical sum at bindings:
    rounding in either form is relative to it, not to the value of e."""
    vals = [_value(t, bindings) for t in (e, *terms)]
    return max((abs(v) for v in vals if v is not None), default=0.0)


def _differs(a, b, bindings, scale):
    """True or False where both evaluate at bindings, else None."""
    va, vb = _value(a, bindings), _value(b, bindings)
    if va is None or vb is None:
        return None
    return abs(va - vb) > 1e-9 * (1.0 + scale)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.tuples(_MIXED, _MIXED, _MIXED))
def test_simplify_equals_its_input_wherever_both_evaluate(seed, pt):
    e = random_expr(random.Random(seed), depth=3)
    s = simplify(e)
    b = dict(zip(VARS, pt))
    assert not _differs(s, e, b, _magnitude(e, _terms(s), b))


def _identity_pair(rng):
    """Two expressions and whether they are equal for all real x, y, z:
    identities of the kernel's rules, the sign-losing roots it must not
    merge, and unrelated trees."""
    e1, e2 = random_expr(rng, depth=2), random_expr(rng, depth=2)
    den = add(C(2), pow_(e2, 2))
    dx = lambda e: differentiate(e, "x")  # noqa: E731
    return rng.choice([
        (e1, simplify(e1)),
        (pow_(add(e1, e2), 2), add(pow_(e1, 2), mul(2, e1, e2), pow_(e2, 2))),
        (dx(mul(e1, e2)), add(mul(dx(e1), e2), mul(e1, dx(e2)))),
        (mul(div(e1, den), den), e1),
        (div(e1, den), div(mul(e1, den), mul(den, den))),
        (sqrt(pow_(e1, 2)), e1),
        (sqrt(mul(pow_(e1, 2), pow_(e2, 2))), mul(e1, e2)),
        (sqrt(mul(e1, e2)), mul(sqrt(e1), sqrt(e2))),
        (pow_(pow_(e1, 3), Fraction(1, 3)), e1),
        (e1, e2),
    ])


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.tuples(_MIXED, _MIXED, _MIXED))
def test_symbolic_zero_verdicts_agree_with_sampling(seed, pt):
    rng = random.Random(seed)
    a, b = _identity_pair(rng)
    try:
        verdict = zero_verdict(a - b)
    except (AllSamplesFailed, EvalDomainError):  # a - b is undefined
        return
    if verdict.method != "symbolic":
        return
    # the hypothesis point and one point in each of the eight orthants
    mags = [rng.uniform(0.1, 2.0) for _ in VARS]
    points = [dict(zip(VARS, pt))] + [
        {v: m * (-1.0 if signs >> i & 1 else 1.0)
         for i, (v, m) in enumerate(zip(VARS, mags))} for signs in range(8)]
    ta, tb = _terms(a), _terms(b)
    seen = [_differs(a, b, p, max(_magnitude(a, ta, p), _magnitude(b, tb, p)))
            for p in points]
    seen = [d for d in seen if d is not None]
    if verdict.is_zero:
        assert not any(seen), (to_string(a), to_string(b))
    else:
        assert any(seen) or not seen, (to_string(a), to_string(b))


def test_zero_verdict_symbolic_and_numeric():
    ctx = VarContext()
    assert zero_verdict(parse("(x+y)^2 - x^2 - 2*x*y - y^2", ctx)).is_zero
    v = zero_verdict(parse("exp(2*x) - exp(x)^2", ctx))
    assert v.is_zero and v.method == "numeric"
    assert not zero_verdict(parse("x + 1", ctx)).is_zero


# identities the kernel cannot decide, so the sampled test decides them
_SAMPLED_ZEROS = ["exp(2*x)-exp(x)^2", "sin(2*x)-2*sin(x)*cos(x)"]
# identities of the kernel's normal form, decided without sampling: the
# second only once its sum denominator is cancelled; the third only once
# a second pass cancels the powers of x + 1 that reducing by
# x^2 + sqrt(x + 1) brings back
_PYTHAGORAS = "sin(x)^2+cos(x)^2-1"
_ROOT_QUOTIENT = "(1 + x^2)/sqrt(1 + x^2) - sqrt(1 + x^2)"
_NESTED_DENOMINATORS = ("(-x^2/(x+1) - 1 - (1+x^2)/sqrt(x+1))"
                        "/(x^2 + sqrt(x+1)) + 1/(x+1) + 1/sqrt(x+1)")
# 0 wherever it is defined, with |x| written (x^2)^(1/2): for x < 0 its
# first denominator is 0, and its reduced form 1 - |x|/x + 2/x - 2|x|/x^2
# reads 2 + 4/x there, so only points where it is defined may decide
_ZERO_WHERE_DEFINED = ("(-6*x^2 - 6*(x^2)^(1/2)*x + 2*x + 2*(x^2)^(1/2) + 4"
                       " + 4*(x^2)^(1/2)/x)/(2*x + 2*sqrt(x^2)) + 3*x"
                       " + (-2 - x)/sqrt(x^2)")


def _verdict_case(text, want, method):
    return pytest.param(text, want, method, id=f"{text}-{want}")


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("text,want,method", [
    *(_verdict_case(t, True, "numeric") for t in _SAMPLED_ZEROS),
    # a 1e-8 perturbation, just above the 1e-9 relative tolerance, and a
    # 1e-10 one below it
    _verdict_case(_SAMPLED_ZEROS[1] + "+x/100000000", False, "numeric"),
    _verdict_case(_SAMPLED_ZEROS[1] + "+x/10000000000", True, "numeric"),
    # the normal form leaves x/10^8 of the perturbed identity
    _verdict_case(_PYTHAGORAS, True, "symbolic"),
    _verdict_case(_PYTHAGORAS + "+x/100000000", False, "symbolic"),
    _verdict_case(_ROOT_QUOTIENT, True, "symbolic"),
    # the normal form leaves 1/10^8 of the perturbed identity
    _verdict_case(_NESTED_DENOMINATORS, True, "symbolic"),
    _verdict_case(_NESTED_DENOMINATORS + "+1/100000000", False, "symbolic"),
    _verdict_case(_ZERO_WHERE_DEFINED, True, "numeric"),
    _verdict_case(_ZERO_WHERE_DEFINED + "+1/100000000", False, "numeric"),
])
def test_sampled_zero_verdicts(text, want, method, seed):
    v = zero_verdict(parse(text, CTX), seed=seed)
    assert (v.is_zero, v.method) == (want, method)


def test_sampled_points_bind_the_symbols_that_cancelled():
    # y cancels out of simplify(e) but is drawn, after x: log(-1 - y^2)
    # leaves e undefined at every point, and the error names e, not its
    # simplified form; sqrt(y) leaves e undefined at about half of them
    rest = " + exp(2*x) - exp(x)^2"
    with pytest.raises(AllSamplesFailed) as info:
        zero_verdict(parse("log(-1 - y^2) - log(-1 - y^2)" + rest, CTX))
    assert str(info.value) == ("all 40 sample points hit domain errors for "
                               "'log(-1 - y^2) - log(-1 - y^2)" + rest + "'")
    v = zero_verdict(parse("sqrt(y) - sqrt(y)" + rest, CTX))
    assert (v.is_zero, v.method) == (True, "numeric")


def _zero_verdict_corpus() -> list:
    """A quotient by a square root that only fraction reduction cancels
    and a sum that is 0 only over a common denominator, then differences
    of exprgen trees: unrelated pairs, which are nonzero or sampled, and a
    tree against itself over a sum denominator, which the reduced
    polynomial proves zero."""
    out = [parse(_ROOT_QUOTIENT, CTX), parse(_NESTED_DENOMINATORS, CTX)]
    for a, b in zip(corpus(60, seed=21), corpus(60, seed=22)):
        den = add(C(2), pow_(b, 2))
        out += [a - b, div(mul(a, den), den) - a]
    return out


def test_zero_verdict_is_the_verdict_of_simplify_verdict():
    # one decision on the reduced polynomial serves both entry points
    methods = set()
    for e in _zero_verdict_corpus():
        try:
            v = zero_verdict(e, seed=5)
        except (AllSamplesFailed, EvalDomainError) as exc:
            with pytest.raises(type(exc)):
                simplify_verdict(e, seed=5)
            continue
        assert v == simplify_verdict(e, seed=5)[1], to_string(e)
        methods.add((v.is_zero, v.method))
    assert methods == {(True, "symbolic"), (False, "symbolic"),
                       (False, "numeric")}


# ---------------------------------------------------------------------------
# the Pythagorean normal form: sin(u)^n for n >= 2 becomes
# sin(u)^(n mod 2) * (1 - cos(u)^2)^(n div 2)


@pytest.mark.parametrize("text", [
    "sin(x+y)^2 + cos(x+y)^2 - 1",
    "sin(x)^4 - cos(x)^4 - sin(x)^2 + cos(x)^2",
    "1/(sin(z)^2 + cos(z)^2) - 1",
    "(sin(x) + x)^2/(sin(x) + x) - sin(x) - x",
])
def test_pythagorean_identities_are_symbolic_zeros(text):
    v = zero_verdict(parse(text, CTX))
    assert (v.is_zero, v.method) == (True, "symbolic")


def test_exp_polar_jacobian_determinant_is_exp_2y():
    Y = mul(exp(sym("y")), cos(sym("z")))
    Z = mul(exp(sym("y")), sin(sym("z")))
    d = differentiate
    det = d(Y, "y") * d(Z, "z") - d(Y, "z") * d(Z, "y")
    assert to_string(simplify(det)) == "exp(y)^2"


@pytest.mark.parametrize("text,want", [
    ("sin(x)^3", "-cos(x)^2*sin(x) + sin(x)"),
    # negative and fractional powers of sin are left as they are
    ("sin(x)^(-2)", "sin(x)^(-2)"),
    ("sin(x)^(1/2)", "sin(x)^(1/2)"),
    # dividing by 1 + sin(x) through cos(x)^2 would add poles at
    # x = pi/2 + 2 k pi, so the fraction stays
    ("x/(1 + sin(x))", "(sin(x) + 1)^(-1)*x"),
    ("(sin(x)^2 - 1)/(sin(x) - 1)", "sin(x) + 1"),
])
def test_pythagorean_normal_form(text, want):
    assert to_string(simplify(parse(text, CTX))) == want


_TRIG_ARGS = (sym("x"), sym("y"), add(sym("x"), sym("z")))
# a positive integer power of sin; negative ones print as sin(u)^(-n)
_SIN_POWER = re.compile(r"sin\([^()]*\)\^\d")


def _trig_expr(rng):
    """A sum of up to four rational multiples of sin(u)^a*cos(u)^b with
    a + b <= 5, each times sin(v)^c with c <= 2, sometimes over, or times
    and over, sin(w) + 2 or sin(w) + 3."""
    terms = []
    for _ in range(rng.randint(1, 4)):
        u = rng.choice(_TRIG_ARGS)
        a = rng.randint(0, 5)
        b = rng.randint(0, 5 - a)
        v = rng.choice(_TRIG_ARGS)
        terms.append(mul(C(Fraction(rng.randint(-5, 5), rng.randint(1, 3))),
                         pow_(sin(u), a), pow_(cos(u), b),
                         pow_(sin(v), rng.randint(0, 2))))
    e = add(*terms)
    s = add(sin(rng.choice(_TRIG_ARGS)), C(rng.choice((2, 3))))
    return rng.choice([e, div(e, s), mul(div(e, s), s), div(mul(e, s), s)])


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.tuples(_MIXED, _MIXED, _MIXED))
def test_trig_simplify_is_a_projection_equal_to_its_input(seed, pt):
    e = _trig_expr(random.Random(seed))
    s = simplify(e)
    assert simplify(s) == s
    assert not _SIN_POWER.search(to_string(s))
    b = dict(zip(VARS, pt))
    assert not _differs(s, e, b, _magnitude(e, _terms(s), b))


def test_example_2_derivatives_carry_no_sin_squared(monkeypatch):
    # Y' from the map's Jacobian, and what the scalar complex route binds:
    # (y, z, y', z') to (u, 0, u', 0), then u' to chi' U' exp(u)^(-1)
    case = example_case(2)
    bound = []
    real = canon.substitute

    def spy(e, bindings):
        bound.extend(to_string(v) for v in bindings.values())
        return real(e, bindings)

    monkeypatch.setattr(canon, "substitute", spy)
    Yp, _ = case.transformation.first_derivatives(
        *case.system.ctx.first_derivatives)
    transform_system(case.system, case.transformation)
    assert len(bound) >= 2
    for text in (to_string(Yp), *bound):
        assert not _SIN_POWER.search(text)


# ---------------------------------------------------------------------------
# the kernel's number types: ints inside, Fractions at the Expr boundary


def _numbers(e):
    """Every Constant value and Pow exponent in the tree e."""
    if isinstance(e, Constant):
        return [e.value]
    out = [e.exponent] if isinstance(e, Pow) else []
    for f in dataclasses.fields(e):
        v = getattr(e, f.name)
        for child in v if isinstance(v, tuple) else (v,):
            if isinstance(child, Expr):
                out += _numbers(child)
    return out


def test_kernel_outputs_hold_only_fractions():
    rule = {sym("y"): sqrt(add(pow_(sym("z"), 2), C(1)))}
    outs = []
    for e in corpus(200, seed=3):
        s = simplify(e)
        outs += [s, differentiate(e, "x"), rewrite_subterms(e, rule)]
        try:
            outs += coefficients_in(s, ["y"]).values()
        except NotPolynomial:
            pass
    for case_id in (1, 2, 3, 4):
        case = example_case(case_id)
        out = transform_system(case.system, case.transformation)
        outs += [out.omega1, out.omega2]
    numbers = [q for e in outs for q in _numbers(e)]
    assert len(numbers) > 1000
    assert {type(q) for q in numbers} == {Fraction}


@pytest.mark.parametrize("e,want", [
    (pow_(mul(2, sym("x")), -1),
     Mul((Constant(Fraction(1, 2)), Pow(Symbol("x"), Fraction(-1))))),
    (pow_(mul(3, pow_(sym("x"), 2)), -2),
     Mul((Constant(Fraction(1, 9)), Pow(Symbol("x"), Fraction(-4))))),
    (div(parse("x^2 + 2*x + 1", CTX), parse("x + 1", CTX)),
     Add((Symbol("x"), Constant(Fraction(1))))),
], ids=["one-over-2x", "one-over-9x4", "exact-division"])
def test_integer_quotients_stay_exact(e, want):
    # int / int is a float in Python; the kernel divides through Fraction
    got = simplify(e)
    assert got == want
    assert {type(q) for q in _numbers(got)} == {Fraction}


# ---------------------------------------------------------------------------
# differentiation


def _central_difference(e, v, pt, h=1e-5):
    up = dict(pt)
    dn = dict(pt)
    up[v] += h
    dn[v] -= h
    return (eval_expr(e, up) - eval_expr(e, dn)) / (2 * h)


def test_derivative_vs_finite_difference_corpus():
    rng = random.Random(99)
    checked = 0
    for e in corpus(50, seed=7):
        de = differentiate(e, "x")
        for _ in range(3):
            pt = sample_point(rng)
            try:
                want = _central_difference(e, "x", pt)
                got = eval_expr(de, pt)
            except EvalDomainError:
                continue
            scale = max(1.0, abs(want))
            assert abs(got - want) <= 1e-6 * scale
            checked += 1
    assert checked > 100


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(0, 2))
def test_derivative_vs_finite_difference_hypothesis(seed, which):
    rng = random.Random(seed)
    e = random_expr(rng, depth=3)
    v = ("x", "y", "z")[which]
    de = differentiate(e, v)
    pt = sample_point(rng)
    try:
        want = _central_difference(e, v, pt)
        got = eval_expr(de, pt)
    except EvalDomainError:
        return
    scale = max(1.0, abs(want))
    assert abs(got - want) <= 1e-6 * scale


def _diff_unpruned(e, v, ctx):
    """The product and chain rules in full, building every zero branch:
    the derivative tree that ``differentiate`` must equal after
    ``normalize``."""
    if isinstance(e, Constant):
        return ZERO
    if isinstance(e, Symbol):
        if e.name == v:
            return C(1)
        if ctx is not None and v == ctx.independent:
            der = ctx.function_derivative(e.name)
            if der is not None:
                return Symbol(der)
        return ZERO
    if isinstance(e, Add):
        return Add(tuple(_diff_unpruned(t, v, ctx) for t in e.terms))
    if isinstance(e, Mul):
        terms = []
        for i in range(len(e.factors)):
            parts = list(e.factors)
            parts[i] = _diff_unpruned(parts[i], v, ctx)
            terms.append(Mul(tuple(parts)))
        return Add(tuple(terms))
    if isinstance(e, Neg):
        return Neg(_diff_unpruned(e.arg, v, ctx))
    if isinstance(e, Div):
        da, db = _diff_unpruned(e.num, v, ctx), _diff_unpruned(e.den, v, ctx)
        return Div(Add((Mul((da, e.den)), Neg(Mul((e.num, db))))),
                   Pow(e.den, Fraction(2)))
    if isinstance(e, Pow):
        db = _diff_unpruned(e.base, v, ctx)
        return Mul((Constant(e.exponent), Pow(e.base, e.exponent - 1), db))
    da = _diff_unpruned(e.arg, v, ctx)
    if e.kind == "exp":
        return Mul((e, da))
    if e.kind == "log":
        return Div(da, e.arg)
    if e.kind == "sin":
        return Mul((Func("cos", e.arg), da))
    if e.kind == "cos":
        return Neg(Mul((Func("sin", e.arg), da)))
    if e.kind == "atan":
        return Div(da, Add((C(1), Pow(e.arg, Fraction(2)))))
    return Div(da, Mul((C(2), e)))  # sqrt


def _assert_unpruned_equal(e, v, ctx=None):
    assert differentiate(e, v, ctx) == normalize(_diff_unpruned(e, v, ctx))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(1, 4))
def test_pruned_derivative_equals_the_full_rules(seed, depth):
    # zero branches are never built, and the tree is the same node for
    # node; "w" does not occur, so every branch of it is pruned
    e = random_expr(random.Random(seed), depth)
    for v in (*VARS, "w"):
        _assert_unpruned_equal(e, v)


@pytest.mark.parametrize("text", [
    "g*x + exp(g') - sin(3*y)*cos(g)", "log(1 + g^2)/sqrt(2 + x) - y",
    "(x - x)*(y + 1) + (0*z)^2 - exp(0*y)", "1/(y^2 + 2) + 0/(x + 1)",
    "atan(g*x) - atan(2)*y + atan(0*z)"])
def test_pruned_derivative_equals_the_full_rules_on_functions(text):
    ctx = VarContext().with_functions(["g"])
    for e in (parse(text, ctx), simplify(parse(text, ctx))):
        for v in ("x", "y", "z", "g", "g'"):
            _assert_unpruned_equal(e, v, ctx)


def test_pruned_derivative_equals_the_full_rules_on_the_pipeline(
        monkeypatch):
    # every derivative that the four worked examples, the beta corpus and
    # transform_system over the recorded maps take, recorded where the
    # pipeline calls differentiate
    calls = []

    def recording(e, v, ctx=None):
        calls.append((e, v, ctx))
        return differentiate(e, v, ctx)

    for module in (canon, csa, symmetry):
        monkeypatch.setattr(module, "differentiate", recording)
    _run_pipeline(transforms=True)
    assert len(calls) > 100
    for e, v, ctx in calls:
        _assert_unpruned_equal(e, v, ctx)


def test_opaque_function_chain():
    ctx = VarContext().with_functions(["g"])
    e = parse("g*x", ctx)
    d = differentiate(e, "x", ctx)
    assert free_symbols(d) == {"g", "g'", "x"}
    d2 = differentiate(d, "x", ctx)
    assert "g''" in free_symbols(d2)


# ---------------------------------------------------------------------------
# substitution, evaluation, structure


def test_substitute_inside_functions():
    ctx = VarContext()
    e = parse("exp(y) + y^2", ctx)
    out = simplify(substitute(e, {"y": parse("x+1", ctx)}))
    assert eval_expr(out, {"x": 0.5}) == pytest.approx(
        math.exp(1.5) + 1.5 ** 2)


def test_eval_domain_errors():
    ctx = VarContext()
    with pytest.raises(EvalDomainError):
        eval_expr(parse("log(x)", ctx), {"x": -1.0})
    with pytest.raises(EvalDomainError):
        eval_expr(parse("1/x", ctx), {"x": 0.0})


# ---------------------------------------------------------------------------
# compiled evaluation


def _same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def _at(exprs, names, *args):
    """The values of exprs compiled by compile_rows, at the one row args."""
    cols = compile_rows(exprs, names)(*([a] for a in args))
    return [col[0] for col in cols]


def test_compiled_matches_eval_expr_on_corpus():
    rng = random.Random(31)
    exprs = corpus(200)
    points = [sample_point(rng) for _ in range(3)]
    cols = [[pt[v] for pt in points] for v in VARS]
    for e in exprs:
        got, = compile_rows((e,), VARS)(*cols)
        for g, pt in zip(got, points):
            assert _same_float(g, eval_expr(e, pt)), to_string(e)
    # all of them in one tuple, so that subtrees are shared across it
    for got, e in zip(compile_rows(exprs, VARS)(*cols), exprs):
        for g, pt in zip(got, points):
            assert _same_float(g, eval_expr(e, pt)), to_string(e)


def test_compiled_keeps_the_sign_of_a_zero_sum():
    e = add(neg(sym("x")), neg(sym("y")))
    got, = _at((e,), ("x", "y"), 0.0, 0.0)
    want = eval_expr(e, {"x": 0.0, "y": 0.0})
    assert math.copysign(1.0, got) == math.copysign(1.0, want) == 1.0


def test_a_sum_is_a_left_fold_on_every_evaluation_path():
    # ((0.0 + 0.1) + 0.2) + 0.3 rounds up; a compensated sum (builtin
    # sum since Python 3.12) gives 0.6
    e = parse("x + y + z", CTX)
    want = ((0.0 + 0.1) + 0.2) + 0.3
    assert want == 0.6000000000000001
    assert eval_expr(e, {"x": 0.1, "y": 0.2, "z": 0.3}) == want
    assert _at((e,), VARS, 0.1, 0.2, 0.3) == [want]
    # one RK4 step of h = 1 whose stages all see the state (0.1, 0.2, 0.3)
    f = Field({"x": "s0", "y": "s1", "z": "s2"}, (e,),
              ("0.0", "0.0", "0.0", "v0"))
    ys = rk4(f, 0.0, (0.1, 0.2, 0.3, 0.0), 1.0, 1.0)[1]
    assert ys[1].tolist() == [
        0.1, 0.2, 0.3, (1.0 / 6) * (((want + 2.0 * want) + 2.0 * want) + want)]


@pytest.mark.parametrize("text,x,ok", [
    ("1/(x - 1)", 1.0, 2.0),        # division by zero
    ("(x - 1)^(-2)", 1.0, 2.0),     # 0^(-q)
    ("(x - 1)^(-1/2)", 1.0, 2.0),
    ("(x - 3)^(1/2)", 1.0, 4.0),    # fractional power of a negative base
    ("log(x - 1)", 1.0, 2.0),       # log of a non-positive value
    ("sqrt(x - 3)", 1.0, 4.0),      # sqrt of a negative value
    ("(10*x)^300", 10.0, 1.0),      # pow overflow
], ids=["div0", "zero-neg-pow", "zero-neg-frac-pow", "neg-frac-pow",
        "log", "sqrt", "pow-overflow"])
def test_compiled_reproduces_domain_errors(text, x, ok):
    e = parse(text, CTX)
    with pytest.raises(EvalDomainError) as want:
        eval_expr(e, {"x": x})
    assert want.value.row is None
    # the failing row lies between two that evaluate
    with pytest.raises(EvalDomainError) as got:
        compile_rows((e,), ("x",))([ok, x, ok])
    assert str(got.value) == str(want.value)
    assert got.value.subterm == want.value.subterm
    assert got.value.row == (x,)


def _outcome(fn, *args):
    """A value keyed so that -0.0 differs from 0.0 and NaN equals NaN, or
    the EvalDomainError raised, by message and subterm."""
    try:
        v = fn(*args)
    except EvalDomainError as exc:
        return ("error", str(exc), exc.subterm)
    return ("nan",) if math.isnan(v) else (v, math.copysign(1.0, v))


def _emitted(exprs):
    """The shared emitter's code for several expressions in one scope, with
    no fallback: a function of (x, y, z) returning every value."""
    lines = []
    codes = emit_code(exprs, {"x": "a0", "y": "a1", "z": "a2"}, lines)
    ns = dict(EMIT_NAMESPACE)
    exec("def f(a0, a1, a2):\n" + "".join(f"    {line}\n" for line in lines)
         + f"    return {''.join(c + ', ' for c in codes)}\n", ns)
    return ns["f"]


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.booleans(),
       st.tuples(_MIXED, _MIXED, _MIXED))
def test_emitted_code_matches_eval_expr_bit_for_bit(seed, simplified, pt):
    # the last two expressions repeat the first two, so subtrees are
    # reused, and the last one raises wherever e1 is negative (or zero)
    rng = random.Random(seed)
    e1, e2 = random_expr(rng, depth=3), random_expr(rng, depth=2)
    if simplified:
        e1, e2 = simplify(e1), simplify(e2)
    partial = rng.choice([sqrt, log, lambda e: div(e2, e),
                          lambda e: pow_(e, Fraction(-1, 2)),
                          lambda e: pow_(e, Fraction(1, 3))])
    exprs = (e1, e2, add(mul(e1, e2), e1), partial(e1))
    bindings = dict(zip(VARS, pt))
    want = [_outcome(eval_expr, e, bindings) for e in exprs]
    assert [_outcome(lambda: _at((e,), VARS, *pt)[0]) for e in exprs] == want
    # the whole tuple in one row: every value, or the first error
    errors = [w for w in want if w[0] == "error"]
    try:
        got = [_outcome(lambda v: v, v) for v in _at(exprs, VARS, *pt)]
    except EvalDomainError as exc:
        got = [("error", str(exc), exc.subterm)]
    assert got == (errors[:1] or want)
    try:
        got = _emitted(exprs)(*pt)
    except (ArithmeticError, ValueError):
        # only where eval_expr raises or maps an overflow to inf
        assert any(w[0] == "error" or w[0] in (math.inf, -math.inf)
                   for w in want)
    else:
        assert [_outcome(lambda v: v, v) for v in got] == want


def test_compiled_constant_beyond_float_range():
    e = parse("10^400*x", CTX)
    with pytest.raises(OverflowError):
        eval_expr(e, {"x": 1.0})
    with pytest.raises(OverflowError):
        compile_rows((e,), ("x",))


def test_compiled_exp_overflow_is_inf():
    e = parse("exp(x)", CTX)
    # the overflowing row falls back to eval_expr, its neighbours do not
    assert compile_rows((e,), ("x",))([0.0, 1000.0, 0.0]) == \
        ([1.0, math.inf, 1.0],)
    assert eval_expr(e, {"x": 1000.0}) == math.inf


def test_compiled_rows_inline_parameters():
    ctx = VarContext(parameters=frozenset({"c1"}))
    exprs = (parse("c1*x", ctx), parse("x/c1 + c1", ctx))
    rows = compile_rows(exprs, ("x",), {"c1": Fraction(-3, 2)})
    got = rows([0.5, -2.0, 7.0])
    assert got == tuple([eval_expr(e, {"x": x, "c1": -1.5})
                         for x in (0.5, -2.0, 7.0)] for e in exprs)
    assert rows([]) == ([], [])
    with pytest.raises(UnboundSymbol):
        compile_rows(exprs, ("x",))


def _deep_sum(depth: int) -> Expr:
    """x + x + ... + x as a chain of depth nested binary sums."""
    e = sym("x")
    for _ in range(depth):
        e = Add((e, sym("x")))
    return e


def test_a_tree_too_deep_to_compile_raises_a_typed_error():
    with pytest.raises(TooDeep, match="too deeply to compile"):
        compile_rows((_deep_sum(3000),), ("x",))
    assert issubclass(TooDeep, ExprError)
    # a chain well within the limit compiles as before
    assert compile_rows((_deep_sum(100),), ("x",))([2.0]) == ([202.0],)


@pytest.mark.parametrize("call,what", [
    (simplify, "simplify"), (to_string, "print"),
    (lambda e: differentiate(e, "x"), "differentiate"),
    (zero_verdict, "decide"), (simplify_verdict, "simplify"),
    (lambda e: coefficients_in(e, ["x"]), "simplify"),
    (lambda e: rewrite_subterms(e, {sym("x"): sym("y")}), "simplify")])
def test_a_tree_too_deep_to_walk_raises_a_typed_error(call, what):
    with pytest.raises(TooDeep, match=f"too deeply to {what}"):
        call(_deep_sum(3000))
    # a chain well within the limit goes through as before
    call(_deep_sum(100))


def test_text_too_deep_to_parse_raises_a_typed_error():
    with pytest.raises(TooDeep, match="too deeply to parse"):
        parse("(" * 2000 + "x" + ")" * 2000, CTX)


# ---------------------------------------------------------------------------
# interval enclosure

_ENCLOSE_CORPUS = corpus(200)
_BOX_END = st.floats(0.1, 2.0)
_UNIT = st.floats(0.0, 1.0)


def _value_or_error(e, bindings):
    try:
        return eval_expr(e, bindings)
    except EvalDomainError:
        return None


@settings(max_examples=200, deadline=None)
@given(st.integers(0, len(_ENCLOSE_CORPUS) - 1), st.booleans(),
       st.tuples(*[st.tuples(_BOX_END, _BOX_END)] * 3),
       st.lists(st.tuples(_UNIT, _UNIT, _UNIT), min_size=1, max_size=4))
def test_enclosure_contains_every_sampled_value(i, simplified, ends, fracs):
    e = _ENCLOSE_CORPUS[i]
    if simplified:
        e = simplify(e)
    box = {v: (min(a, b), max(a, b)) for v, (a, b) in zip(VARS, ends)}
    got = enclose(e, box)
    points = [{v: min(hi, max(lo, lo + f * (hi - lo)))
               for (v, (lo, hi)), f in zip(box.items(), fs)}
              for fs in [(0.0,) * 3, (1.0,) * 3, *fracs]]
    for p in points:
        v = _value_or_error(e, p)
        # a domain error or an inf anywhere in the box forbids an enclosure
        assert got is None or (v is not None and got[0] <= v <= got[1]), \
            (to_string(e), box, p, got, v)
        at_p = enclose(e, {name: (x, x) for name, x in p.items()})
        assert at_p is None or (v is not None and at_p[0] <= v <= at_p[1]), \
            (to_string(e), p, at_p, v)


def test_enclosure_certifies_the_corpus_on_its_sample_box():
    # exprgen keeps every denominator, log and sqrt argument of the
    # unsimplified trees away from zero on (0.1, 2)^3
    box = {v: (0.1, 2.0) for v in VARS}
    assert all(enclose(e, box) is not None for e in _ENCLOSE_CORPUS)


@pytest.mark.parametrize("text,lo,hi", [
    ("1/(x - 1)", 0.5, 1.5),        # a divisor that may vanish
    ("x^(-2)", -1.0, 1.0),
    ("x^(1/2)", -1.0, 1.0),         # fractional power of a negative base
    ("x^(-1/2)", 0.0, 1.0),
    ("log(x)", 0.0, 1.0),
    ("sqrt(x - 1)", 0.5, 2.0),
    ("exp(x)", 0.0, 1000.0),        # overflow
    ("(10*x)^300", 1.0, 10.0),
    ("10^400*x", 1.0, 2.0),         # a constant beyond float range
])
def test_enclosure_cannot_certify(text, lo, hi):
    assert enclose(parse(text, CTX), {"x": (lo, hi)}) is None


@pytest.mark.parametrize("text,lo,hi,want_lo,want_hi", [
    ("x^2", -1.0, 2.0, 0.0, 4.0),   # an even power keeps its exact floor
    ("sin(x)", 0.0, 3.0, 0.0, 1.0),  # the peak at pi/2 is inside
    ("cos(x)", 1.0, 4.0, -1.0, 0.5403023058681398),
    ("sqrt(x)", 0.0, 4.0, 0.0, 2.0),
])
def test_enclosure_is_tight_at_extremes(text, lo, hi, want_lo, want_hi):
    a, b = enclose(parse(text, CTX), {"x": (lo, hi)})
    assert a <= want_lo and b >= want_hi
    assert want_lo - a <= 1e-15 and b - want_hi <= 1e-15


# ---------------------------------------------------------------------------
# atan, which the closed-form rescaling of a negative constant a3 writes

_ATAN_TEXTS = ("atan(x)", "atan(x^2 - 3*y)*z", "1/(1 + atan(x/y))",
               "atan(2*x)^2/2 + atan(2*x)", "exp(atan(x)) - atan(sin(y))")


@pytest.mark.parametrize("text", _ATAN_TEXTS)
def test_atan_round_trips_through_its_printed_form(text):
    e = parse(text, CTX)
    assert parse(to_string(e), CTX) == e
    s = simplify(e)
    assert parse(to_string(s), CTX) == s
    assert "atan(" in to_string(s)


def test_atan_of_zero_is_zero_and_atan_is_a_kernel_function():
    assert simplify(parse("atan(0*x) + atan(x - x)", CTX)) == ZERO
    assert atan(sym("x")) == Func("atan", sym("x")) == parse("atan(x)", CTX)
    assert zero_verdict(parse("atan(x)^2 - atan(x)*atan(x)", CTX)).is_zero
    assert EMIT_NAMESPACE["atan"] is math.atan


@pytest.mark.parametrize("text", _ATAN_TEXTS)
def test_atan_derivative_matches_a_central_difference(text):
    e = parse(text, CTX)
    rng = random.Random(7)
    for v in VARS:
        de = differentiate(e, v)
        for _ in range(10):
            pt = {name: rng.uniform(0.3, 2.0) for name in VARS}
            up, dn = dict(pt), dict(pt)
            up[v] += 1e-6
            dn[v] -= 1e-6
            want = (eval_expr(e, up) - eval_expr(e, dn)) / 2e-6
            assert abs(eval_expr(de, pt) - want) <= 1e-6 * max(1.0,
                                                               abs(want))
    assert to_string(differentiate(parse("atan(x)", CTX), "x")) == \
        "1/(1 + x^2)"


@pytest.mark.parametrize("text", _ATAN_TEXTS)
def test_atan_evaluates_as_math_atan_in_both_evaluators(text):
    e = parse(text, CTX)
    rng = random.Random(11)
    for _ in range(20):
        pt = {name: rng.uniform(-3.0, 3.0) for name in VARS}
        if text == "1/(1 + atan(x/y))" and abs(pt["y"]) < 1e-3:
            continue
        got = eval_expr(e, pt)
        assert _at((e,), VARS, *(pt[v] for v in VARS)) == [got]
    assert eval_expr(parse("atan(x)", CTX), {"x": 0.75}) == math.atan(0.75)
    assert eval_expr(parse("atan(x)", CTX), {"x": -1e300}) == \
        math.atan(-1e300)


@pytest.mark.parametrize("lo,hi", [(-2.0, 3.0), (0.25, 0.5), (-1e300, 1e300),
                                   (1.0, 1.0)])
def test_atan_enclosure_contains_the_samples(lo, hi):
    e = parse("atan(x)", CTX)
    a, b = enclose(e, {"x": (lo, hi)})
    for k in range(101):
        x = lo + (hi - lo) * k / 100
        assert a <= math.atan(x) <= b
    assert b - a <= math.atan(hi) - math.atan(lo) + 1e-15
    # a composite: the enclosure of atan's argument carries through
    e = parse("atan(x^2 - 3*y)*z", CTX)
    box = {"x": (0.5, 1.5), "y": (-1.0, 0.25), "z": (0.1, 2.0)}
    a, b = enclose(e, box)
    rng = random.Random(3)
    for _ in range(200):
        pt = {v: rng.uniform(*box[v]) for v in VARS}
        assert a <= eval_expr(e, pt) <= b


# ---------------------------------------------------------------------------
# interval Taylor jets


def _mp(e, point):
    """e at a point, in mpmath at its working precision."""
    import mpmath

    kind = type(e)
    if kind is Constant:
        return mpmath.mpf(e.value.numerator) / e.value.denominator
    if kind is Symbol:
        return mpmath.mpf(point[e.name])
    if kind is Add:
        return mpmath.fsum(_mp(t, point) for t in e.terms)
    if kind is Mul:
        return mpmath.fprod(_mp(f, point) for f in e.factors)
    if kind is Neg:
        return -_mp(e.arg, point)
    if kind is Div:
        return _mp(e.num, point) / _mp(e.den, point)
    if kind is Pow:
        q = e.exponent
        base = _mp(e.base, point)
        return base ** q.numerator if q.denominator == 1 else \
            mpmath.power(base, mpmath.mpf(q.numerator) / q.denominator)
    return getattr(mpmath, e.kind)(_mp(e.arg, point))


_JET_CORPUS = corpus(60, seed=7) + [parse(t, CTX) for t in _ATAN_TEXTS] + [
    parse(t, CTX) for t in ("x^(1/3)*y", "(x + y)^(-3/7)", "x^(-2)*z",
                            "sqrt(x)*log(x)", "(x - 1)^2", "x^0*y",
                            "sin(x)*cos(2*x - y)", "cos(x^2)/(2 + sin(z*x))")]


@pytest.mark.parametrize("i", range(len(_JET_CORPUS)))
def test_jet_contains_the_50_digit_taylor_coefficients(i):
    # order k encloses differentiate^k / k! at each corner of the box, in
    # each variable in turn, the others constant intervals; mpmath
    # evaluates the exact derivative at those floats to 50 digits
    import mpmath

    e = _JET_CORPUS[i]
    rng = random.Random(i)
    ends = [sorted((rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)))
            for _ in VARS]
    boxes = ({v: (lo, lo + 1e-3) for v, (lo, _) in zip(VARS, ends)},
             {v: (lo, hi) for v, (lo, hi) in zip(VARS, ends)})
    for var in VARS:
        derivs = [e]
        for _ in range(3):
            derivs.append(differentiate(derivs[-1], var))
        for box in boxes:
            got = jet(e, box, var, 3)
            assert got is not None, (to_string(e), box)
            with mpmath.workdps(50):
                for corner in range(8):
                    point = {v: box[v][corner >> k & 1]
                             for k, v in enumerate(VARS)}
                    for k, d in enumerate(derivs):
                        want = _mp(d, point) / math.factorial(k)
                        lo, hi = got[k]
                        assert lo <= want <= hi, (to_string(e), var, k)


def test_jet_order_0_is_enclose_and_the_variable_is_exact():
    # the higher coefficients of a constant and of x stay exact zeros and
    # ones, and every other symbol of the box is a constant interval
    box = {"x": (0.5, 2.0), "y": (1.0, 3.0)}
    for e in _JET_CORPUS[:20]:
        b3 = {**box, "z": (0.2, 0.3)}
        got = jet(e, b3, "x", 3)
        assert got is None or got[0] == enclose(e, b3)
    assert jet(parse("x", CTX), box, "x", 3) == [
        (0.5, 2.0), (1.0, 1.0), (0.0, 0.0), (0.0, 0.0)]
    assert jet(parse("y", CTX), box, "x", 2) == [
        (1.0, 3.0), (0.0, 0.0), (0.0, 0.0)]
    assert jet(parse("x", CTX), box, None, 1) == [(0.5, 2.0), (0.0, 0.0)]


@pytest.mark.parametrize("text,lo,hi", [
    ("sqrt(x)", 0.0, 1.0),          # sqrt' is unbounded at 0
    ("x^(1/3)", 0.0, 1.0),
    ("log(x - 1)", 0.5, 2.0),
    ("1/(x - 1)", 0.5, 1.5),
    ("exp(x^2)", 20.0, 27.0),       # exp(x^2) overflows near x = 26.6
])
def test_jet_cannot_certify(text, lo, hi):
    assert jet(parse(text, CTX), {"x": (lo, hi)}, "x", 3) is None
    # order 0 of a fractional power at 0 is fine; its derivative is not
    assert (jet(parse(text, CTX), {"x": (lo, hi)}, "x", 0) is None) == \
        (text not in ("sqrt(x)", "x^(1/3)"))


def test_jet_of_an_integer_power_spans_zero():
    # powers multiply out, so 0 in the base's range is fine: each
    # coefficient's range over the box (x^3, 3 x^2, 3 x, 1) lies inside
    got = jet(parse("x^3", CTX), {"x": (-1.0, 2.0)}, "x", 3)
    want = [(-1.0, 8.0), (0.0, 12.0), (-3.0, 6.0), (1.0, 1.0)]
    for (a, b), (c, d) in zip(got, want):
        assert a <= c and d <= b
    assert got[0] == enclose(parse("x^3", CTX), {"x": (-1.0, 2.0)})


def test_coefficients_in_and_degree():
    ctx = VarContext()
    e = parse("3*x*dy^2 + dz - 5", ctx)
    groups = coefficients_in(e, ["y'", "z'"])
    assert to_string(groups[(2, 0)]) == "3*x"
    assert to_string(groups[(0, 1)]) == "1"
    assert to_string(groups[(0, 0)]) == "-5"


def test_coefficients_in_rejects_nonpolynomial():
    ctx = VarContext()
    with pytest.raises(NotPolynomial):
        coefficients_in(parse("sin(dy)", ctx), ["y'"])


def test_collect_reconstruction_identity():
    ctx = VarContext()
    rng = random.Random(17)
    monos = [parse(m, ctx) for m in ("dy", "dz", "dy*dz", "dy^2")]
    for e in corpus(20, seed=23):
        # embed derivative symbols so collect has something to do
        target = simplify(add(
            mul(e, parse("dy", ctx)),
            mul(sym("x"), parse("dz", ctx)),
            parse("dy^2", ctx), sym("y")))
        parts, rem = collect(target, monos, ["y'", "z'"])
        rebuilt = simplify(add(rem, *[mul(c, m) for m, c in parts.items()]))
        diff = simplify(rebuilt - target)
        assert zero_verdict(diff).is_zero


def test_all_samples_failed():
    ctx = VarContext()
    e = parse("log(-1 - x^2)", ctx)
    with pytest.raises((AllSamplesFailed, EvalDomainError)):
        zero_verdict(e)

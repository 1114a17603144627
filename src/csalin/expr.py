"""Minimal symbolic expression kernel.

Immutable expression trees over a declared variable set, with parsing,
differentiation, substitution, canonical simplification, numeric evaluation
(the tree-walking reference `eval_expr` and the generated row loop
`compile_rows`) and polynomial coefficient collection.  One set of light
normalization rules (flatten, fold constants, drop 0 and 1) builds each
node: `parse` applies them as it closes each node, in one pass over the
text, and `normalize` walks an existing tree through them.  Constants are
exact rationals during symbolic work; floats appear only at the eval
boundary.  Every `Constant.value` and `Pow.exponent` is a Fraction.  Inside
the canonical-polynomial kernel behind `simplify`, an integral exponent or
coefficient is a plain int and only a non-integral one a Fraction: nearly
all of them are integers, and int arithmetic and hashing are far cheaper.
The kernel turns them back into Fractions where it builds an Expr.

The simplifier expands products and integer powers and collects like
monomials, which is enough to decide zero for expressions that are
polynomial in the dependent variables and their derivatives with
rational-function coefficients.  It also reduces every power n >= 2 of
sin(u) by sin(u)^2 = 1 - cos(u)^2, so polynomials in sin and cos of one
argument are decided modulo sin^2 + cos^2 = 1.  Other transcendental
identities (exp(2x) = exp(x)^2, sin(2x) = 2 sin(x) cos(x), a negative or
fractional power of sin) fall back to the sampled zero test of
`zero_verdict`.
"""

from __future__ import annotations

import functools
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

__all__ = [
    "Expr", "Constant", "Symbol", "Add", "Mul", "Pow", "Neg", "Div", "Func",
    "VarContext", "ExprError", "ParseError", "UndeclaredSymbol",
    "ArityMismatch", "NonRationalExponent", "EvalDomainError", "UnboundSymbol",
    "NotPolynomial", "AllSamplesFailed", "TooDeep", "ZeroVerdict",
    "C", "sym", "add", "mul", "pow_", "neg", "div", "exp", "log", "sin",
    "cos", "sqrt", "atan",
    "parse", "to_string", "normalize", "simplify", "differentiate",
    "substitute", "rewrite_subterms", "eval_expr", "enclose", "jet",
    "compile_rows",
    "emit_code", "EMIT_NAMESPACE", "compile_source",
    "free_symbols",
    "zero_verdict", "simplify_verdict", "collect",
    "coefficients_in", "complex_parts",
]

FUNC_NAMES = ("exp", "log", "sin", "cos", "sqrt", "atan")


# ---------------------------------------------------------------------------
# errors

class ExprError(Exception):
    pass


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UndeclaredSymbol(ExprError):
    pass


class ArityMismatch(ExprError):
    pass


class NonRationalExponent(ExprError):
    pass


class EvalDomainError(ExprError):
    """`row` holds the column values of a `compile_rows` row it was
    raised at, and is None elsewhere."""

    def __init__(self, message: str, subterm: "Expr"):
        super().__init__(f"{message} in subterm '{to_string(subterm)}'")
        self.subterm = subterm
        self.row = None


class UnboundSymbol(ExprError):
    pass


class NotPolynomial(ExprError):
    pass


class AllSamplesFailed(ExprError):
    pass


class TooDeep(ExprError):
    """An expression nests deeper than Python's recursion limit lets the
    parser or the code generator walk it."""


# ---------------------------------------------------------------------------
# expression nodes

class Expr:
    """Base class for immutable expression nodes."""

    __slots__ = ()

    def __add__(self, other):
        return add(self, _as_expr(other))

    def __radd__(self, other):
        return add(_as_expr(other), self)

    def __sub__(self, other):
        return add(self, neg(_as_expr(other)))

    def __rsub__(self, other):
        return add(_as_expr(other), neg(self))

    def __mul__(self, other):
        return mul(self, _as_expr(other))

    def __rmul__(self, other):
        return mul(_as_expr(other), self)

    def __truediv__(self, other):
        return div(self, _as_expr(other))

    def __rtruediv__(self, other):
        return div(_as_expr(other), self)

    def __pow__(self, other):
        return pow_(self, other)

    def __neg__(self):
        return neg(self)

    def __str__(self):
        return to_string(self)


@dataclass(frozen=True)
class Constant(Expr):
    value: Fraction


@dataclass(frozen=True)
class Symbol(Expr):
    name: str


@dataclass(frozen=True)
class Add(Expr):
    terms: tuple


@dataclass(frozen=True)
class Mul(Expr):
    factors: tuple


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: Fraction


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Div(Expr):
    num: Expr
    den: Expr


@dataclass(frozen=True)
class Func(Expr):
    kind: str  # one of FUNC_NAMES
    arg: Expr


def _as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, Fraction)):
        return Constant(Fraction(v))
    raise TypeError(f"cannot coerce {v!r} to Expr")


def C(v) -> Constant:
    return Constant(Fraction(v))


def sym(name: str) -> Symbol:
    return Symbol(name)


def add(*terms) -> Expr:
    ts = tuple(_as_expr(t) for t in terms)
    if len(ts) == 1:
        return ts[0]
    return Add(ts)


def mul(*factors) -> Expr:
    fs = tuple(_as_expr(f) for f in factors)
    if len(fs) == 1:
        return fs[0]
    return Mul(fs)


def pow_(base, exponent) -> Expr:
    return Pow(_as_expr(base), Fraction(exponent))


def neg(arg) -> Expr:
    return Neg(_as_expr(arg))


def div(num, den) -> Expr:
    return Div(_as_expr(num), _as_expr(den))


def exp(arg) -> Expr:
    return Func("exp", _as_expr(arg))


def log(arg) -> Expr:
    return Func("log", _as_expr(arg))


def sin(arg) -> Expr:
    return Func("sin", _as_expr(arg))


def cos(arg) -> Expr:
    return Func("cos", _as_expr(arg))


def sqrt(arg) -> Expr:
    return Func("sqrt", _as_expr(arg))


def atan(arg) -> Expr:
    return Func("atan", _as_expr(arg))


ZERO = Constant(Fraction(0))
ONE = Constant(Fraction(1))


# ---------------------------------------------------------------------------
# variable context

@dataclass(frozen=True)
class VarContext:
    """Declared alphabet: one independent variable, two dependents, their
    derivative symbols, free parameters and (optionally) opaque functions of
    the independent variable used when generating determining equations."""

    independent: str = "x"
    dependents: tuple = ("y", "z")
    first_derivatives: tuple = ("y'", "z'")
    second_derivatives: tuple = ("y''", "z''")
    parameters: frozenset = frozenset()
    functions_of_x: frozenset = frozenset()

    def __post_init__(self):
        names = [self.independent, *self.dependents, *self.first_derivatives,
                 *self.second_derivatives, *self.parameters,
                 *self.functions_of_x]
        if len(set(names)) != len(names):
            raise ValueError(f"variable names must be distinct: {names}")

    @functools.cached_property
    def _symbols(self) -> dict:
        """The parser's memo of the Symbol it reads for each declared
        name, filled as names are first read; it starts with dy, dz, the
        aliases of the first-derivative symbols."""
        return {f"d{dep}": Symbol(d1)
                for dep, d1 in zip(self.dependents, self.first_derivatives)}

    def is_declared(self, name: str) -> bool:
        if name == self.independent or name in self.dependents \
                or name in self.first_derivatives \
                or name in self.second_derivatives \
                or name in self.parameters:
            return True
        base = name.rstrip("'")
        return base in self.functions_of_x

    def function_derivative(self, name: str) -> str | None:
        """If `name` is an opaque function of x (possibly primed), the symbol
        naming its next derivative; otherwise None."""
        base = name.rstrip("'")
        if base in self.functions_of_x:
            return name + "'"
        return None

    def with_functions(self, names: Iterable[str]) -> "VarContext":
        return VarContext(self.independent, self.dependents,
                          self.first_derivatives, self.second_derivatives,
                          self.parameters,
                          self.functions_of_x | frozenset(names))

    def with_parameters(self, names: Iterable[str]) -> "VarContext":
        return VarContext(self.independent, self.dependents,
                          self.first_derivatives, self.second_derivatives,
                          self.parameters | frozenset(names),
                          self.functions_of_x)


# ---------------------------------------------------------------------------
# light normalization (flatten + constant folding, no reordering)
#
# One rule per node kind, each applied to children that are already
# normalized.  The parser applies them as it closes each node, and
# `normalize` walks a tree through them, so the two share one rule set.

def _sum(terms) -> Expr:
    """Nested sums flatten; a sum of constants folds to its value; else
    zero terms drop, and a single term left stands alone."""
    flat = []
    for t in terms:
        if isinstance(t, Add):
            flat.extend(t.terms)
        else:
            flat.append(t)
    consts = [t.value for t in flat if isinstance(t, Constant)]
    if len(consts) == len(flat):
        return Constant(sum(consts, Fraction(0)))
    if 0 in consts:
        flat = [t for t in flat
                if not (isinstance(t, Constant) and t.value == 0)]
    return flat[0] if len(flat) == 1 else Add(tuple(flat))


def _product(factors) -> Expr:
    """Nested products flatten; a product of constants folds to its
    value; else a zero factor makes 0, unit factors drop, and a single
    factor left stands alone."""
    flat = []
    for f in factors:
        if isinstance(f, Mul):
            flat.extend(f.factors)
        else:
            flat.append(f)
    consts = [f.value for f in flat if isinstance(f, Constant)]
    if len(consts) == len(flat):
        out = Fraction(1)
        for c in consts:
            out *= c
        return Constant(out)
    if 0 in consts:
        return ZERO
    if 1 in consts:
        flat = [f for f in flat
                if not (isinstance(f, Constant) and f.value == 1)]
    return flat[0] if len(flat) == 1 else Mul(tuple(flat))


def _negated(a: Expr) -> Expr:
    return Constant(-a.value) if isinstance(a, Constant) else Neg(a)


def _quotient(a: Expr, b: Expr) -> Expr:
    """a/b folds for constants, except over 0."""
    if isinstance(a, Constant) and isinstance(b, Constant) and b.value != 0:
        return Constant(a.value / b.value)
    return Div(a, b)


def _power(b: Expr, q: Fraction) -> Expr:
    """b^1 is b; an integer power of a constant folds, except 0 to a
    negative power."""
    if q == 1:
        return b
    if isinstance(b, Constant) and q.denominator == 1 and \
            not (b.value == 0 and q < 0):
        n = q.numerator
        return Constant(b.value ** n if n >= 0 else 1 / (b.value ** (-n)))
    return Pow(b, q)


def normalize(e: Expr) -> Expr:
    """e rebuilt bottom up by the light normalization rules: nested sums
    and products flattened, constant subtrees folded to exact rationals,
    zero terms and unit factors dropped; nothing is reordered.  `parse`
    returns its trees in this form."""
    if isinstance(e, (Constant, Symbol)):
        return e
    if isinstance(e, Add):
        return _sum(normalize(t) for t in e.terms)
    if isinstance(e, Mul):
        return _product(normalize(f) for f in e.factors)
    if isinstance(e, Neg):
        return _negated(normalize(e.arg))
    if isinstance(e, Div):
        return _quotient(normalize(e.num), normalize(e.den))
    if isinstance(e, Pow):
        return _power(normalize(e.base), e.exponent)
    if isinstance(e, Func):
        return Func(e.kind, normalize(e.arg))
    raise TypeError(f"unknown node {e!r}")


def _rational_value(e: Expr) -> Fraction | None:
    """Exact rational value of a constant subtree, else None."""
    v = normalize(e)
    return v.value if isinstance(v, Constant) else None


# ---------------------------------------------------------------------------
# parsing

# Whitespace, then one token; any other character is "bad".
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*'*)"
    r"|(?P<op>[-+*/^()])|(?P<bad>.))", re.DOTALL)


def _tokenize(text: str) -> list:
    """(kind, text, position) tokens, ending in an "end" token.  A
    character that starts no token raises ParseError at the start of the
    whitespace before it."""
    text = text.rstrip()
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            at = m.start()
            raise ParseError(f"unexpected character {text[at]!r}", at)
        tokens.append((kind, m[kind], m.start(kind)))
    tokens.append(("end", "", len(text)))
    return tokens


_INFIX_BP = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}


@functools.lru_cache(maxsize=1024)
def _literal(text: str) -> Constant:
    """The constant of a number token, shared between parses since nodes
    are immutable; Fraction's string parser only for a decimal point."""
    return Constant(Fraction(text) if "." in text else Fraction(int(text)))


def _close(e: Expr) -> Expr:
    """Fold a sum or product that the parser has left open.  A closed
    one folds to itself, so closing twice does no harm."""
    if isinstance(e, Add):
        return _sum(e.terms)
    if isinstance(e, Mul):
        return _product(e.factors)
    return e


class _Parser:
    """Pratt parser for the infix expression grammar, normalizing as it
    goes: each node is built by its normalization rule from children
    that are already closed.

    A sum or product is closed only where nothing can extend it.
    `expression` returns one open, as a bare Add or Mul of closed terms,
    because the infix loop extends a sum or product that a parenthesis
    returned: (2+3)+x has the terms (2, 3, x), where x+(2+3) has (x, 5).
    Interval jets, `_ratio` and the printed forms all read that shape.
    """

    def __init__(self, tokens: list, ctx: VarContext):
        self.tokens = tokens
        self.pos = 0
        self.ctx = ctx
        self.symbols = ctx._symbols

    def expect_op(self, op: str):
        kind, val, at = self.tokens[self.pos]
        self.pos += 1
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, found {val!r}", at)

    def parse(self) -> Expr:
        e = _close(self.expression(0))
        kind, val, at = self.tokens[self.pos]
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", at)
        return e

    def expression(self, min_bp: int) -> Expr:
        e = self.prefix()
        tokens = self.tokens
        while True:
            kind, val, _ = tokens[self.pos]
            if kind != "op" or val not in _INFIX_BP:
                break
            bp = _INFIX_BP[val]
            if bp < min_bp:
                break
            self.pos += 1
            # ^ is right-associative
            rhs = _close(self.expression(bp if val == "^" else bp + 1))
            if val == "*":
                e = Mul(e.factors + (rhs,)) if isinstance(e, Mul) \
                    else Mul((_close(e), rhs))
            elif val == "/":
                e = _quotient(_close(e), rhs)
            elif val == "^":
                if not isinstance(rhs, Constant):
                    raise NonRationalExponent(
                        f"exponent {to_string(rhs)!r} is not a rational "
                        "constant")
                e = _power(_close(e), rhs.value)
            else:
                if val == "-":
                    rhs = _negated(rhs)
                e = Add(e.terms + (rhs,)) if isinstance(e, Add) \
                    else Add((_close(e), rhs))
        return e

    def prefix(self) -> Expr:
        kind, val, at = self.tokens[self.pos]
        self.pos += 1
        if kind == "num":
            return _literal(val)
        if kind == "op":
            if val == "(":
                e = self.expression(0)  # left open: see the class doc
                self.expect_op(")")
                return e
            if val == "-":
                return _negated(_close(self.expression(25)))
            if val == "+":
                return self.expression(25)
        elif kind == "name":
            if val in FUNC_NAMES:
                k, v, _ = self.tokens[self.pos]
                if k != "op" or v != "(":
                    raise ArityMismatch(
                        f"function {val!r} requires parenthesized argument")
                self.pos += 1
                arg = _close(self.expression(0))
                self.expect_op(")")
                return Func(val, arg)
            s = self.symbols.get(val)
            if s is None:
                if not self.ctx.is_declared(val):
                    raise UndeclaredSymbol(f"symbol {val!r} is not declared")
                s = self.symbols[val] = Symbol(val)
            return s
        raise ParseError(f"unexpected token {val!r}", at)


def parse(text: str, ctx: VarContext) -> Expr:
    """Parse an infix expression over the declared variables.

    Derivative symbols are written y', z' (dy, dz are accepted aliases).
    The tree is built in one pass, already in `normalize`'s form: nested
    sums and products are flattened and constant subtrees folded to exact
    rationals as each node closes.  Text nested too deeply for the
    recursive parser raises TooDeep.
    """
    tokens = _tokenize(text)
    try:
        return _Parser(tokens, ctx).parse()
    except RecursionError:
        raise TooDeep("expression nests too deeply to parse") from None


# ---------------------------------------------------------------------------
# printing

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 2, 3, 4


def _print(e: Expr) -> tuple:
    """Return (text, precedence)."""
    # signs are read off numerators: a Fraction comparison is far slower
    if isinstance(e, Constant):
        n, d = e.value.numerator, e.value.denominator
        if d == 1:
            if n >= 0:
                return str(n), _PREC_ATOM
            return f"-{-n}", _PREC_NEG
        return f"{n}/{d}", _PREC_NEG if n < 0 else _PREC_MUL
    if isinstance(e, Symbol):
        return e.name, _PREC_ATOM
    if isinstance(e, Add):
        parts = []
        for i, t in enumerate(e.terms):
            if isinstance(t, Neg):
                inner, p = _print(t.arg)
                if p < _PREC_ADD or (i > 0 and p <= _PREC_ADD):
                    inner = f"({inner})"
                parts.append(f"-{inner}" if i == 0 else f"- {inner}")
            else:
                inner, p = _print(t)
                if p <= _PREC_ADD and i > 0:
                    inner = f"({inner})"
                elif p < _PREC_ADD:
                    inner = f"({inner})"
                parts.append(inner)
        return " + ".join(parts).replace("+ - ", "- "), _PREC_ADD
    if isinstance(e, Mul):
        parts = []
        for f in e.factors:
            inner, p = _print(f)
            if p < _PREC_MUL:
                inner = f"({inner})"
            parts.append(inner)
        return "*".join(parts), _PREC_MUL
    if isinstance(e, Div):
        ntext, np_ = _print(e.num)
        dtext, dp = _print(e.den)
        if np_ < _PREC_MUL:
            ntext = f"({ntext})"
        if dp <= _PREC_MUL:
            dtext = f"({dtext})"
        return f"{ntext}/{dtext}", _PREC_MUL
    if isinstance(e, Neg):
        inner, p = _print(e.arg)
        if p <= _PREC_ADD:
            inner = f"({inner})"
        return f"-{inner}", _PREC_NEG
    if isinstance(e, Pow):
        btext, bp = _print(e.base)
        if bp < _PREC_ATOM:
            btext = f"({btext})"
        n, d = e.exponent.numerator, e.exponent.denominator
        if d == 1 and n >= 0:
            return f"{btext}^{n}", _PREC_POW
        if d == 1:
            return f"{btext}^(-{-n})", _PREC_POW
        sign = "-" if n < 0 else ""
        return f"{btext}^({sign}{abs(n)}/{d})", _PREC_POW
    if isinstance(e, Func):
        return f"{e.kind}({_print(e.arg)[0]})", _PREC_ATOM
    raise TypeError(f"unknown node {e!r}")


def to_string(e: Expr) -> str:
    """The infix text of e; a tree too deep to walk raises TooDeep."""
    try:
        return _print(e)[0]
    except RecursionError:
        raise TooDeep("expression nests too deeply to print") from None


# ---------------------------------------------------------------------------
# canonical polynomial form
#
# An expression is flattened to a sum of monomials: {monomial: coefficient}.
# A monomial is a sorted tuple of (base key, exponent) pairs.  Exponents and
# coefficients are kernel numbers: an int when integral, a Fraction
# otherwise (see `_num`).  Nearly all of them are integers, and monomials
# are dict keys rehashed on every lookup, where a Fraction hash computes a
# modular inverse and an int hash is free.  Since hash(Fraction(n)) ==
# hash(n) and the two compare equal, every lookup, ordering and decision
# comes out as with Fractions throughout.  Two ints divide through
# Fraction, never with `/`, which gives a float.  Values leave the kernel
# as Fractions (`_base_to_expr`, `_poly_to_expr`).  Base kinds:
#   "sym"    a symbol
#   "func"   exp/log/sin/cos/atan applied to a canonical argument; a positive
#            integer power of sin is at most 1, since sin(u)^n for n >= 2
#            expands as sin(u)^(n mod 2) * (1 - cos(u)^2)^(n div 2), which
#            holds for every real u.  Negative and fractional powers of sin
#            stay, and arguments are not related (sin(2u), sin(-u) and
#            sin(u) are three bases), so that part is a normal form only
#            for polynomials in sin(u) and cos(u)
#   "cpow"   a prime integer raised to a fractional exponent in (0, 1)
#   "sumpow" a canonical multi-term sum with negative-integer or fractional
#            exponent (positive integer powers of sums are expanded)

@dataclass(frozen=True)
class _SymBase:
    name: str


@dataclass(frozen=True)
class _FuncBase:
    kind: str
    arg: Expr  # canonical


@dataclass(frozen=True)
class _CpowBase:
    prime: int


@dataclass(frozen=True)
class _SumBase:
    expr: Expr  # canonical


class _Canon:
    def __init__(self):
        self.bases: dict = {}

    def key_for(self, base) -> str:
        """The key of a function, cpow or sum base."""
        if isinstance(base, _FuncBase):
            key = f"{base.kind}({to_string(base.arg)})"
        elif isinstance(base, _CpowBase):
            key = f"#{base.prime}"
        else:
            key = f"({to_string(base.expr)})"
        self.bases[key] = base
        return key


def _prime_factors(n: int) -> dict:
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _num(q):
    """The kernel number of a rational: an int when integral."""
    return q.numerator if q.denominator == 1 else q


_HALF = Fraction(1, 2)


def _poly_const(c) -> dict:
    return {(): c} if c != 0 else {}


def _poly_iadd(acc: dict, b: dict) -> None:
    """acc += b, in place: acc is always a dict its caller owns."""
    for m, c in b.items():
        s = acc.get(m, 0) + c
        if s == 0:
            acc.pop(m, None)
        else:
            acc[m] = _num(s)


def _poly_scale(a: dict, c: int) -> dict:
    if c == 0:
        return {}
    return {m: v * c for m, v in a.items()}


def _normalize_factors(factors: dict, coeff, st: _Canon) -> dict:
    """Turn a raw factor->exponent map into a canonical polynomial,
    folding constant powers and expanding positive integer sum powers and
    sin powers of degree 2 and up.

    The exponents and coeff may be integral Fractions (sums and products
    of Fractions stay Fractions); the result holds kernel numbers."""
    clean = {}
    expansions = []
    for key, q in factors.items():
        if q == 0:
            continue
        q = _num(q)
        base = st.bases[key]
        kind = type(base)
        if kind is _CpowBase:
            n, f = divmod(q, 1)
            coeff *= Fraction(base.prime) ** n
            if f != 0:
                clean[key] = f
        elif kind is _SymBase or type(q) is not int or q < 1:
            clean[key] = q
        elif kind is _SumBase:
            expansions.append((_canon(base.expr, st), q))
        elif q > 1 and base.kind == "sin":
            # sin(u)^q = sin(u)^(q mod 2) * (1 - cos(u)^2)^(q div 2)
            if q & 1:
                clean[key] = 1
            cos2 = (st.key_for(_FuncBase("cos", base.arg)), 2)
            expansions.append(({(): 1, (cos2,): -1}, q >> 1))
        else:
            clean[key] = q
    mono = tuple(sorted(clean.items()))
    out = {mono: _num(coeff)} if coeff != 0 else {}
    for base_poly, n in expansions:
        for _ in range(n):
            out = _poly_mul(out, base_poly, st)
    return out


def _poly_mul(a: dict, b: dict, st: _Canon) -> dict:
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            factors = dict(m1)
            for k, q in m2:
                factors[k] = factors.get(k, 0) + q
            _poly_iadd(out, _normalize_factors(factors, c1 * c2, st))
    return out


def _mono_ordkey(m: tuple):
    return (sum(q for _, q in m), m)


def _sum_content(p: dict) -> tuple:
    """Split p = c * g * p0 where c is a rational content (sign fixed by the
    leading monomial), g a monomial of per-key minimum exponents, and p0 a
    primitive canonical sum."""
    keys = set()
    for m in p:
        keys.update(k for k, _ in m)
    gmin = {}
    for k in keys:
        exps = [dict(m).get(k, 0) for m in p]
        gmin[k] = min(exps)
    g = tuple(sorted((k, q) for k, q in gmin.items() if q != 0))
    coeffs = list(p.values())
    num_gcd = math.gcd(*(abs(c.numerator) for c in coeffs))
    den_lcm = math.lcm(*(c.denominator for c in coeffs))
    sign = -1 if p[max(p, key=_mono_ordkey)] < 0 else 1
    content = _num(Fraction(sign * num_gcd, den_lcm))
    p0 = {}
    for m, c in p.items():
        fac = dict(m)
        for k, q in g:
            fac[k] = fac.get(k, 0) - q
        mono = tuple(sorted((k, _num(q)) for k, q in fac.items() if q != 0))
        # c / content, an integer
        p0[mono] = sign * (c.numerator // num_gcd) * (den_lcm // c.denominator)
    return content, g, p0


def _even_power(m) -> bool:
    """a^m is an even integer power, so (a^m)^q = |a|^(mq), not a^(mq), for
    fractional q: a lone even power stays under the root (see
    `_poly_pow`)."""
    return m.denominator == 1 and m.numerator % 2 == 0


def _poly_pow(p: dict, q, st: _Canon) -> dict:
    if not p:
        if q <= 0:
            raise EvalDomainError("zero raised to a non-positive power", ZERO)
        return {}
    if q == 0:
        return _poly_const(1)
    if type(q) is int and q > 0:
        n = q
        out = _poly_const(1)
        base = p
        while n:
            if n & 1:
                out = _poly_mul(out, base, st)
            n >>= 1
            if n:
                base = _poly_mul(base, base, st)
        return out
    if len(p) == 1:
        (mono, coeff), = p.items()
        if type(q) is int:
            # q < 0 here; Fraction keeps 1 / int exact
            return _normalize_factors({k: e * q for k, e in mono},
                                      Fraction(1, coeff ** -q), st)
        if coeff < 0 and not mono:
            raise EvalDomainError("fractional power of a negative constant",
                                  Constant(Fraction(coeff)))
        # a fractional power needs its base >= 0, so the monomial splits
        # only where every factor is >= 0 wherever the product is defined:
        # one factor of odd or fractional power, or fractional powers
        # only.  Else the sign and all factors stay in one opaque base
        # (sqrt(x*y^2) is real at x = -1, y = 0; sqrt(x*y) at x = y = -1)
        exps = [e for _, e in mono]
        if coeff > 0 and (len(exps) == 1 and not _even_power(exps[0])
                          or all(e.denominator != 1 for e in exps)):
            factors = {k: e * q for k, e in mono}
        else:
            base_expr = _poly_to_expr({mono: 1 if coeff > 0 else -1}, st)
            factors = {st.key_for(_SumBase(base_expr)): q}
        coeff = abs(coeff)
        for prime, n in _prime_factors(coeff.numerator).items():
            k = st.key_for(_CpowBase(prime))
            factors[k] = factors.get(k, 0) + n * q
        for prime, n in _prime_factors(coeff.denominator).items():
            k = st.key_for(_CpowBase(prime))
            factors[k] = factors.get(k, 0) - n * q
        return _normalize_factors(factors, 1, st)
    # multi-term base with negative-integer or fractional exponent
    content, g, p0 = _sum_content(p)
    # the min-exponent shift can expose positive integer sum powers inside
    # the residual polynomial; expand them so the base is in normal form
    expanded = {}
    for m, c in p0.items():
        _poly_iadd(expanded, _normalize_factors(dict(m), c, st))
    if expanded != p0:
        c2, g2, p0 = _sum_content(expanded)
        content *= c2
        gd = dict(g)
        for k, qq in g2:
            gd[k] = gd.get(k, 0) + qq
        g = tuple(sorted((k, _num(v)) for k, v in gd.items() if v != 0))
    if type(q) is not int:
        # p0 may carry a sign, so the sign and the whole content g stay in
        # the base (sqrt(x^(1/2) + x^(1/2)*y) is real at x = 0, y = -2)
        if g:
            p0, g = _poly_mul(p0, {g: 1}, st), ()
        if content < 0:
            content, p0 = -content, _poly_scale(p0, -1)
    base_expr = _poly_to_expr(p0, st)
    key = st.key_for(_SumBase(base_expr))
    factors = {key: q}
    for k, e in g:
        factors[k] = factors.get(k, 0) + e * q
    inner = _poly_pow(_poly_const(content), q, st)
    return _poly_mul(inner, _normalize_factors(factors, 1, st), st)


def _canon(e: Expr, st: _Canon) -> dict:
    """The canonical polynomial of e, in kernel numbers (see above)."""
    kind = type(e)
    if kind is Symbol:
        key = e.name
        if key not in st.bases:
            st.bases[key] = _SymBase(key)
        return {((key, 1),): 1}
    if kind is Constant:
        return _poly_const(_num(e.value))
    if kind is Add:
        out = {}
        for t in e.terms:
            _poly_iadd(out, _canon(t, st))
        return out
    if kind is Mul:
        # a canonical polynomial times the constant 1 is itself, so the
        # product starts from its first factor
        if not e.factors:
            return _poly_const(1)
        out = _canon(e.factors[0], st)
        for f in e.factors[1:]:
            out = _poly_mul(out, _canon(f, st), st)
        return out
    if kind is Neg:
        return _poly_scale(_canon(e.arg, st), -1)
    if kind is Div:
        out = _canon(e.num, st)
        den = None  # the product of the factors below, None for 1
        for f in e.den.factors if isinstance(e.den, Mul) else (e.den,):
            if isinstance(f, Pow) and isinstance(f.base, Add) and \
                    f.exponent.denominator == 1 and f.exponent > 0:
                # the sum to the negative power, not its expansion inverted,
                # so that _reduce_fractions can cancel it
                out = _poly_mul(out, _poly_pow(
                    _canon(f.base, st), -f.exponent.numerator, st), st)
            elif den is None:
                den = _canon(f, st)
            else:
                den = _poly_mul(den, _canon(f, st), st)
        if den is None or den == {(): 1}:
            return out
        return _poly_mul(out, _poly_pow(den, -1, st), st)
    if kind is Pow:
        return _poly_pow(_canon(e.base, st), _num(e.exponent), st)
    if kind is Func:
        argp = _canon(e.arg, st)
        if e.kind == "sqrt":
            return _poly_pow(argp, _HALF, st)
        arg_expr = _poly_to_expr(argp, st)
        if arg_expr == ZERO:
            if e.kind == "exp":
                return _poly_const(1)
            if e.kind in ("sin", "atan"):
                return {}
            if e.kind == "cos":
                return _poly_const(1)
            if e.kind == "log":
                raise EvalDomainError("log of zero", e)
        if e.kind == "log" and arg_expr == ONE:
            return {}
        key = st.key_for(_FuncBase(e.kind, arg_expr))
        return {((key, 1),): 1}
    raise TypeError(f"unknown node {e!r}")


def _base_to_expr(base, exponent, st: _Canon) -> Expr:
    if isinstance(base, _SymBase):
        b = Symbol(base.name)
    elif isinstance(base, _FuncBase):
        b = Func(base.kind, base.arg)
    elif isinstance(base, _CpowBase):
        b = Constant(Fraction(base.prime))
    else:
        b = base.expr
    if exponent == 1:
        return b
    return Pow(b, Fraction(exponent))


def _poly_to_expr(p: dict, st: _Canon) -> Expr:
    if not p:
        return ZERO
    terms = []
    for mono in sorted(p, key=_mono_ordkey, reverse=True):
        coeff = p[mono]
        factors = [_base_to_expr(st.bases[k], q, st) for k, q in mono]
        negate = coeff < 0
        coeff = abs(coeff)
        if not factors:
            term = Constant(Fraction(coeff))
        elif coeff == 1:
            term = factors[0] if len(factors) == 1 else Mul(tuple(factors))
        else:
            term = Mul((Constant(Fraction(coeff)), *factors))
        terms.append(Neg(term) if negate else term)
    if len(terms) == 1:
        return terms[0]
    return Add(tuple(terms))


# ---------------------------------------------------------------------------
# fraction reduction (cosmetic cancellation of sum denominators)

def _try_divide(n_poly: dict, b_poly: dict, st: _Canon):
    """Exact division n/b modulo sin(u)^2 + cos(u)^2 = 1; None on failure.

    For b = b0 + b1*sin(u), where neither b0 nor b1 holds sin(u),
    n/b = n*b'/(b*b') with b' = b0 - b1*sin(u), and the normal form of
    b*b' = b0^2 - b1^2*(1 - cos(u)^2) is free of sin(u)."""
    q = _free_divide(n_poly, b_poly)
    if q is not None:
        return q
    for key in sorted({k for m in b_poly for k, _ in m}):
        base = st.bases[key]
        if isinstance(base, _FuncBase) and base.kind == "sin" and \
                all(dict(m).get(key, 0) in (0, 1) for m in b_poly):
            conj = {m: -c if (key, 1) in m else c for m, c in b_poly.items()}
            q = _try_divide(_poly_mul(n_poly, conj, st),
                            _poly_mul(b_poly, conj, st), st)
            # refuse a power of a factor that n/b does not divide by: for
            # b = 1 + sin(u), b*b' = cos(u)^2 vanishes where b does not
            gn = dict(_sum_content(n_poly)[1])
            gb = dict(_sum_content(b_poly)[1])
            if q is None or any(e < min(0, gn.get(k, 0) - gb.get(k, 0))
                                for m in q for k, e in m):
                return None
            return q
    return None


def _free_divide(n_poly: dict, b_poly: dict):
    """Exact multivariate division n/b over factor keys; None on failure."""
    if not n_poly:
        return {}
    cn, gn, n0 = _sum_content(n_poly)
    cb, gb, b0 = _sum_content(b_poly)
    keys = set()
    for m in list(n0) + list(b0):
        keys.update(k for k, _ in m)
    keys = sorted(keys)
    scale = {k: 1 for k in keys}
    for m in list(n0) + list(b0):
        for k, q in m:
            scale[k] = math.lcm(scale[k], q.denominator)

    def vec(m):
        d = dict(m)
        return tuple(int(d.get(k, 0) * scale[k]) for k in keys)

    def ordkey(v):
        return (sum(v), v)

    nn = {vec(m): c for m, c in n0.items()}
    bb = {vec(m): c for m, c in b0.items()}
    if any(min(v) < 0 for v in list(nn) + list(bb) if v):
        return None
    blead = max(bb, key=ordkey)
    quot = {}
    steps = 0
    while nn:
        steps += 1
        if steps > 2000:
            return None
        nlead = max(nn, key=ordkey)
        diff = tuple(a - b for a, b in zip(nlead, blead))
        if any(d < 0 for d in diff):
            return None
        qc = _num(Fraction(nn[nlead], bb[blead]))
        quot[diff] = quot.get(diff, 0) + qc
        for v, c in bb.items():
            prod = tuple(a + b for a, b in zip(diff, v))
            s = nn.get(prod, 0) - qc * c
            if s == 0:
                nn.pop(prod, None)
            else:
                nn[prod] = _num(s)
    out = {}
    gdiff = {}
    for k, q in gn:
        gdiff[k] = gdiff.get(k, 0) + q
    for k, q in gb:
        gdiff[k] = gdiff.get(k, 0) - q
    for v, c in quot.items():
        fac = dict(gdiff)
        for k, n in zip(keys, v):
            if n:
                fac[k] = fac.get(k, 0) + Fraction(n, scale[k])
        mono = tuple(sorted((k, _num(q)) for k, q in fac.items() if q != 0))
        out[mono] = _num(out.get(mono, 0) + Fraction(c * cn, cb))
    return out


def _reduce_fractions(p: dict, st: _Canon) -> dict:
    """p with its sum denominators cancelled where they divide, pass after
    pass until one changes nothing, so `simplify` is a projection.  A pass
    multiplies terms only by the bases of the sums it reduces, so the
    powers it brings back are of sums nested inside those: each further
    pass works deeper, and sums nest finitely deep."""
    old = p
    sum_keys = sorted({k for m in p for k, q in m
                       if isinstance(st.bases.get(k), _SumBase) and q < 0})
    for key in sum_keys:
        base_poly = _canon(st.bases[key].expr, st)
        classes: dict = {}
        for m, c in p.items():
            e = dict(m).get(key, 0)
            k_int = -math.floor(e)
            f = e + k_int
            rest = tuple(sorted((kk, qq) for kk, qq in m if kk != key))
            classes.setdefault(f, []).append((k_int, rest, c))
        newp = {}
        for f, items in classes.items():
            k_max = max(k for k, _, _ in items)
            if k_max <= 0:
                for k, rest, c in items:
                    e = f - k
                    fac = dict(rest)
                    if e != 0:
                        fac[key] = e
                    _poly_iadd(newp, _normalize_factors(fac, c, st))
                continue
            numer = {}
            for k, rest, c in items:
                piece = {rest: c}
                for _ in range(k_max - k):
                    piece = _poly_mul(piece, base_poly, st)
                _poly_iadd(numer, piece)
            while k_max > 0:
                q = _try_divide(numer, base_poly, st)
                if q is None:
                    break
                numer = q
                k_max -= 1
            shift = f - k_max
            for m, c in numer.items():
                fac = dict(m)
                if shift != 0:
                    fac[key] = fac.get(key, 0) + shift
                _poly_iadd(newp, _normalize_factors(fac, c, st))
        p = newp
    return p if p == old else _reduce_fractions(p, st)


def _reduced(e: Expr, st: _Canon) -> dict:
    """The canonical polynomial of e, keyed in st, with its sum
    denominators cancelled where they divide: the one pass behind
    `simplify`, `simplify_verdict`, `coefficients_in` and
    `rewrite_subterms`.  It is exactly the canonical polynomial of
    simplify(e), so none of them canonicalises a `simplify` result again.
    A tree too deep to walk raises TooDeep."""
    try:
        return _reduce_fractions(_canon(e, st), st)
    except RecursionError:
        raise TooDeep("expression nests too deeply to simplify") from None


def simplify(e: Expr) -> Expr:
    """Canonical normal form: expand, collect like monomials, cancel.

    The printed form of e's canonical polynomial after fraction reduction
    (`_reduced`), built in one pass.  A projection: simplify(simplify(e))
    is structurally simplify(e).  A tree too deep to walk raises TooDeep.
    """
    st = _Canon()
    return _poly_to_expr(_reduced(e, st), st)


# ---------------------------------------------------------------------------
# zero decision

@dataclass(frozen=True)
class ZeroVerdict:
    is_zero: bool
    method: str  # "symbolic" or "numeric"

    def __bool__(self):
        return self.is_zero


def _exact_zero(p: dict, st: _Canon) -> bool | None:
    """Whether the fraction-reduced polynomial p is 0: True/False when
    decidable symbolically, None when inconclusive.

    Fraction reduction cancels one sum denominator at a time, so a
    reduced p may still be 0 over a common denominator.  p is first
    multiplied by each sum to minus its lowest integer power, and the
    positive powers this leaves are expanded.  That may bring in powers
    of sums nested inside those, so it repeats; it ends because each new
    denominator is a sum nested inside one it replaces."""
    while True:
        mins = {}
        for m in p:
            for k, q in m:
                if isinstance(st.bases[k], _SumBase) \
                        and type(q) is int and q < 0:
                    mins[k] = min(mins.get(k, 0), q)
        if not mins:
            break
        cleared = {}
        for m, c in p.items():
            fac = dict(m)
            for k, q in mins.items():
                fac[k] = fac.get(k, 0) - q
            _poly_iadd(cleared, _normalize_factors(fac, c, st))
        p = cleared
    if not p:
        return True
    for m in p:
        for k, q in m:
            base = st.bases[k]
            if isinstance(base, _FuncBase):
                return None
            if q.denominator != 1 and not isinstance(base, _CpowBase):
                return None
    # a nonzero sum of distinct rational/radical monomials cannot vanish
    return False


def _sampled_zero(e: Expr, s: Expr, seed: int) -> bool:
    """Sampled zero test of e through s = simplify(e), at 40 pseudo-random
    points, each coordinate drawn from [-2,-0.1] U [0.1,2]; deterministic
    given the seed.  The symbols of s are drawn first, then those of e
    that cancelled out of s.  s can be defined where e is not, so a point
    is skipped where either raises or is not finite."""
    terms = list(s.terms) if isinstance(s, Add) else [s]
    free = sorted(free_symbols(s))
    free += sorted(free_symbols(e) - set(free))
    rng = random.Random(seed)
    usable = 0
    for _ in range(40):
        binding = {name: rng.uniform(0.1, 2.0) * rng.choice((-1.0, 1.0))
                   for name in free}
        try:
            vals = [eval_expr(t, binding) for t in terms]
            defined = all(map(math.isfinite, vals)) \
                and math.isfinite(eval_expr(e, binding))
        except EvalDomainError:
            continue
        if not defined:
            continue
        usable += 1
        total = sum(vals)
        scale = max((abs(v) for v in vals), default=0.0)
        if abs(total) > 1e-9 * (1.0 + scale):
            return False
    if usable == 0:
        raise AllSamplesFailed(
            "all 40 sample points hit domain errors for "
            f"'{to_string(e)}'")
    return True


def simplify_verdict(e: Expr, seed: int = 0) -> tuple:
    """(simplify(e), whether e is identically 0): the one zero decision.

    The symbolic test reads the fraction-reduced polynomial of e
    (`_reduced`), which is exactly the canonical polynomial of
    simplify(e).  When it is inconclusive, the sampled test evaluates
    simplify(e) at points where e is defined and finite.  A tree too deep
    to walk raises TooDeep."""
    st = _Canon()
    p = _reduced(e, st)
    try:
        s = _poly_to_expr(p, st)
        exact = _exact_zero(p, st)
        if exact is not None:
            return s, ZeroVerdict(exact, "symbolic")
        return s, ZeroVerdict(_sampled_zero(e, s, seed), "numeric")
    except RecursionError:
        raise TooDeep("expression nests too deeply to decide") from None


def zero_verdict(e: Expr, seed: int = 0) -> ZeroVerdict:
    """Whether e is identically 0: the verdict of `simplify_verdict`,
    symbolic where the kernel can tell and else at 40 sample points.  A
    tree too deep to walk raises TooDeep."""
    try:
        return simplify_verdict(e, seed)[1]
    except TooDeep:
        raise TooDeep("expression nests too deeply to decide") from None


# ---------------------------------------------------------------------------
# differentiation / substitution / evaluation

def differentiate(e: Expr, v: str, ctx: VarContext | None = None) -> Expr:
    """Exact partial derivative with respect to the symbol named v.

    Distinct symbols are independent.  When ctx declares opaque functions of
    the independent variable and v is that variable, f differentiates to f',
    f' to f'' and so on.  A branch whose derivative ``normalize`` folds to 0
    is pruned before it is built, so the result is the normalized
    derivative of the full product and chain rules, node for node.  A
    tree too deep to walk raises TooDeep.
    """
    try:
        return normalize(_diff(e, v, ctx))
    except RecursionError:
        raise TooDeep("expression nests too deeply to differentiate") \
            from None


def _diff(e: Expr, v: str, ctx: VarContext | None) -> Expr:
    """The derivative of e before ``normalize``: ZERO itself wherever
    normalize would fold the full rule's result to 0, so a sum drops the
    terms of such parts.  A quotient, log, sqrt or atan keeps its rule even
    then, because normalize keeps 0/d^2 as it stands."""
    if isinstance(e, Constant):
        return ZERO
    if isinstance(e, Symbol):
        if e.name == v:
            return ONE
        if ctx is not None and v == ctx.independent:
            der = ctx.function_derivative(e.name)
            if der is not None:
                return Symbol(der)
        return ZERO
    if isinstance(e, Add):
        terms = tuple(d for d in (_diff(t, v, ctx) for t in e.terms)
                      if d is not ZERO)
        return Add(terms) if terms else ZERO
    if isinstance(e, Mul):
        terms = []
        for i, f in enumerate(e.factors):
            d = _diff(f, v, ctx)
            if d is not ZERO:
                parts = list(e.factors)
                parts[i] = d
                terms.append(Mul(tuple(parts)))
        return Add(tuple(terms)) if terms else ZERO
    if isinstance(e, Neg):
        d = _diff(e.arg, v, ctx)
        return ZERO if d is ZERO else Neg(d)
    if isinstance(e, Div):
        da, db = _diff(e.num, v, ctx), _diff(e.den, v, ctx)
        return Div(Add((Mul((da, e.den)), Neg(Mul((e.num, db))))),
                   Pow(e.den, Fraction(2)))
    if isinstance(e, Pow):
        db = _diff(e.base, v, ctx)
        if db is ZERO:
            return ZERO
        return Mul((Constant(e.exponent), Pow(e.base, e.exponent - 1), db))
    if isinstance(e, Func):
        da = _diff(e.arg, v, ctx)
        if da is ZERO and e.kind in ("exp", "sin", "cos"):
            return ZERO
        if e.kind == "exp":
            return Mul((e, da))
        if e.kind == "log":
            return Div(da, e.arg)
        if e.kind == "sin":
            return Mul((Func("cos", e.arg), da))
        if e.kind == "cos":
            return Neg(Mul((Func("sin", e.arg), da)))
        if e.kind == "sqrt":
            return Div(da, Mul((Constant(Fraction(2)), e)))
        if e.kind == "atan":
            return Div(da, Add((ONE, Pow(e.arg, Fraction(2)))))
    raise TypeError(f"unknown node {e!r}")


def substitute(e: Expr, bindings: Mapping[str, Expr]) -> Expr:
    """Replace symbols by expressions (capture-free, single pass)."""
    if isinstance(e, Constant):
        return e
    if isinstance(e, Symbol):
        return bindings.get(e.name, e)
    if isinstance(e, Add):
        return Add(tuple(substitute(t, bindings) for t in e.terms))
    if isinstance(e, Mul):
        return Mul(tuple(substitute(f, bindings) for f in e.factors))
    if isinstance(e, Neg):
        return Neg(substitute(e.arg, bindings))
    if isinstance(e, Div):
        return Div(substitute(e.num, bindings), substitute(e.den, bindings))
    if isinstance(e, Pow):
        return Pow(substitute(e.base, bindings), e.exponent)
    if isinstance(e, Func):
        return Func(e.kind, substitute(e.arg, bindings))
    raise TypeError(f"unknown node {e!r}")


def rewrite_subterms(e: Expr, rules: Mapping[Expr, Expr]) -> Expr:
    """Rewrite canonical factor bases (symbols, function applications or sum
    powers) by replacement expressions, e.g. {exp(y): sqrt(Y^2+Z^2)}.

    Matching is up to canonical form; rules are applied once, outermost
    factors first, then inside function arguments.  The bases are read
    off e's reduced canonical polynomial (`_reduced`), and the result is
    that of the rewritten polynomial, with no `simplify` between.
    """
    st = _Canon()
    return _poly_to_expr(_rewritten(e, _rule_table(rules), st), st)


def _rule_table(rules: Mapping[Expr, Expr]) -> dict:
    """`rules` keyed by the canonical base key of each pattern."""
    return {to_string(simplify(k)): v for k, v in rules.items()}


def _rewritten(e: Expr, table: dict, st: _Canon) -> dict:
    """The polynomial of rewrite_subterms(e, rules), rules as `table`
    (`_rule_table`), fraction-reduced and keyed in st."""
    p = _reduced(e, st)
    out = {}
    for mono, coeff in p.items():
        piece = _poly_const(coeff)
        for key, q in mono:
            base = st.bases[key]
            if key in table:
                rep = _canon(table[key], st)
            elif isinstance(base, _FuncBase):
                new_arg = _poly_to_expr(_rewritten(base.arg, table, st), st)
                rep = _canon(Func(base.kind, new_arg), st)
            elif isinstance(base, _SumBase):
                rep = _canon(_poly_to_expr(
                    _rewritten(base.expr, table, st), st), st)
            else:
                rep = {((key, 1),): 1}
            piece = _poly_mul(piece, _poly_pow(rep, q, st), st)
        _poly_iadd(out, piece)
    return _reduce_fractions(out, st)


def eval_expr(e: Expr, bindings: Mapping[str, float]) -> float:
    """IEEE double evaluation; domain errors report the offending subterm.
    A sum is the left fold ((0.0 + t1) + t2) + ... on every Python, so -0.0
    terms sum to +0.0 (builtin ``sum`` compensates rounding since 3.12)."""
    if isinstance(e, Constant):
        return float(e.value)
    if isinstance(e, Symbol):
        if e.name not in bindings:
            raise UnboundSymbol(f"symbol {e.name!r} is not bound")
        return float(bindings[e.name])
    if isinstance(e, Add):
        out = 0.0
        for t in e.terms:
            out += eval_expr(t, bindings)
        return out
    if isinstance(e, Mul):
        out = 1.0
        for f in e.factors:
            out *= eval_expr(f, bindings)
        return out
    if isinstance(e, Neg):
        return -eval_expr(e.arg, bindings)
    if isinstance(e, Div):
        den = eval_expr(e.den, bindings)
        if den == 0.0:
            raise EvalDomainError("division by zero", e)
        return eval_expr(e.num, bindings) / den
    if isinstance(e, Pow):
        base = eval_expr(e.base, bindings)
        q = e.exponent
        if base == 0.0 and q < 0:
            raise EvalDomainError("division by zero", e)
        if base < 0.0 and q.denominator != 1:
            raise EvalDomainError("fractional power of negative base", e)
        try:
            return base ** float(q)
        except (OverflowError, ZeroDivisionError):
            raise EvalDomainError("power overflow", e)
    if isinstance(e, Func):
        a = eval_expr(e.arg, bindings)
        if e.kind == "exp":
            try:
                return math.exp(a)
            except OverflowError:
                return math.inf
        if e.kind == "log":
            if a <= 0.0:
                raise EvalDomainError("log of non-positive value", e)
            return math.log(a)
        if e.kind == "sin":
            return math.sin(a)
        if e.kind == "cos":
            return math.cos(a)
        if e.kind == "sqrt":
            if a < 0.0:
                raise EvalDomainError("sqrt of negative value", e)
            return math.sqrt(a)
        if e.kind == "atan":
            return math.atan(a)
    raise TypeError(f"unknown node {e!r}")


class _Uncertified(Exception):
    """A subterm's enclosure is unbounded, NaN or possibly undefined."""


def _out(lo: float, hi: float) -> tuple:
    # one ulp outwards covers the rounding of the float operation (and of
    # a libm function within one ulp) that produced lo and hi
    lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    if not -math.inf < lo <= hi < math.inf:  # also false for a NaN
        raise _Uncertified
    return lo, hi


# An exact zero coefficient.  It adds and multiplies without rounding, so
# the higher coefficients of a constant or of the jet variable stay exact.
_NIL = (0.0, 0.0)


def _iadd(a: tuple, b: tuple) -> tuple:
    if b == _NIL:
        return a
    if a == _NIL:
        return b
    return _out(a[0] + b[0], a[1] + b[1])


def _isub(a: tuple, b: tuple) -> tuple:
    return _iadd(a, (-b[1], -b[0]))


def _imul(a: tuple, b: tuple) -> tuple:
    if a == _NIL or b == _NIL:
        return _NIL
    corners = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return _out(min(corners), max(corners))


def _idiv(a: tuple, b: tuple) -> tuple:
    if b[0] <= 0.0 <= b[1]:
        raise _Uncertified
    if a == _NIL:
        return _NIL
    corners = (a[0] / b[0], a[0] / b[1], a[1] / b[0], a[1] / b[1])
    return _out(min(corners), max(corners))


def _trig(fn, peak: float, lo: float, hi: float) -> tuple:
    """Enclosure of fn (sin or cos) on [lo, hi]; fn is 1 at peak + 2 k pi
    and -1 half a period later, and monotone in between.  An extremum
    within a relative 1e-9 of the interval counts as inside it."""
    scale = max(-lo, hi)
    if hi - lo > 6.0 or scale > 1e15:
        return -1.0, 1.0
    slack = 1e-9 * (1.0 + scale)

    def reaches(x0):  # some x0 + 2 k pi lies in [lo - slack, hi + slack]
        k = math.ceil((lo - slack - x0) / (2 * math.pi))
        return x0 + 2 * math.pi * k <= hi + slack

    fa, fb = fn(lo), fn(hi)
    a, b = _out(min(fa, fb), max(fa, fb))
    return (-1.0 if reaches(peak + math.pi) else max(a, -1.0),
            1.0 if reaches(peak) else min(b, 1.0))


def _rational(v: Fraction) -> tuple:
    """The interval of floats around a rational v: its float, exact or
    widened by an ulp each way."""
    num, den = v.numerator, v.denominator
    if den == 1 and -2 ** 53 <= num <= 2 ** 53:
        return float(num), float(num)
    f = float(v)
    return _out(f, f)


@functools.lru_cache(maxsize=1024)
def _weights(k: int, q: Fraction | None) -> tuple:
    """Intervals around the weights of the k-th Taylor coefficient: j/k
    for j = 1..k (q None), else (j (q + 1) - k)/k, those of u^q."""
    return tuple(_rational(Fraction(j, k) if q is None
                           else (j * (q + 1) - k) / k)
                 for j in range(1, k + 1))


def _weighted(weights: tuple, u: list, w: list, k: int) -> tuple:
    """The sum over j = 1..len(weights) of weights[j-1] u_j w_(k-j)."""
    acc = _NIL
    for j, c in enumerate(weights, 1):
        acc = _iadd(acc, _imul(c, _imul(u[j], w[k - j])))
    return acc


def _cauchy(u: list, v: list, n: int) -> list:
    """The coefficients of the product of jets u and v."""
    out = []
    for k in range(n + 1):
        acc = _NIL
        for j in range(k + 1):
            acc = _iadd(acc, _imul(u[j], v[k - j]))
        out.append(acc)
    return out


def _pow_jet(u: list, q: Fraction, n: int) -> list:
    """The jet of u^q.  Its value is monotone in u, and in the exponent
    between float(q) and its neighbour past q where float(q) != q."""
    a, b = u[0]
    num, den, qf = q.numerator, q.denominator, float(q)
    if den == 1:
        if num < 0 and a <= 0.0 <= b:
            raise _Uncertified
        # x^n is monotone on any interval without 0 inside it
        pa, pb = a ** qf, b ** qf
        lo, hi = _out(min(pa, pb), max(pa, pb))
        if num % 2 == 0:
            lo = 0.0 if a < 0.0 < b else max(lo, 0.0)
    else:
        if a < 0.0 or (num < 0 and a == 0.0):
            raise _Uncertified
        qs = (qf,) if qf == q else \
            (qf, math.nextafter(qf, math.inf if q > qf else -math.inf))
        corners = [x ** p for x in (a, b) for p in qs]
        lo, hi = _out(min(corners), max(corners))
        lo = max(lo, 0.0)
    w = [(lo, hi)]
    if n and den == 1 and num >= 0:
        # 0 may lie in u's range: square and multiply, no division by u_0
        power, base = None, u
        while num:
            if num & 1:
                power = base if power is None else _cauchy(power, base, n)
            num >>= 1
            if num:
                base = _cauchy(base, base, n)
        return w + (power[1:] if power else [_NIL] * n)
    for k in range(1, n + 1):  # u w' = q u' w
        w.append(_idiv(_weighted(_weights(k, q), u, w, k), u[0]))
    return w


def _quotient_tail(u: list, v: list, w: list, n: int) -> list:
    """w_1..w_n appended to w = [w_0], where v w' = u'."""
    for k in range(1, n + 1):
        acc = _isub(u[k], _weighted(_weights(k, None)[:-1], w, v, k))
        w.append(_idiv(acc, v[0]))
    return w


def _func_jet(kind: str, u: list, n: int) -> list:
    a, b = u[0]
    if kind == "exp":  # w' = u' w
        lo, hi = _out(math.exp(a), math.exp(b))
        w = [(max(lo, 0.0), hi)]
        for k in range(1, n + 1):
            w.append(_weighted(_weights(k, None), u, w, k))
        return w
    if kind == "log":  # u w' = u'
        if a <= 0.0:
            raise _Uncertified
        return _quotient_tail(u, u, [_out(math.log(a), math.log(b))], n)
    if kind == "sqrt":
        return _pow_jet(u, Fraction(1, 2), n)
    if kind in ("sin", "cos"):  # s' = u' c, c' = -u' s
        s = [_trig(math.sin, math.pi / 2, a, b)]
        c = [_trig(math.cos, 0.0, a, b)]
        for k in range(1, n + 1):
            s.append(_weighted(_weights(k, None), u, c, k))
            lo, hi = _weighted(_weights(k, None), u, s, k)
            c.append((-hi, -lo))
        return s if kind == "sin" else c
    if kind == "atan":  # increasing, and (1 + u^2) w' = u'
        w = [_out(math.atan(a), math.atan(b))]
        if not n:
            return w
        v = _cauchy(u, u, n)
        lo, hi = _iadd(v[0], (1.0, 1.0))
        v[0] = (max(lo, 1.0), hi)
        return _quotient_tail(u, v, w, n)
    raise TypeError(f"unknown function {kind!r}")


def _jet(e: Expr, box: Mapping[str, tuple], var, n: int) -> list:
    kind = type(e)
    if kind is Add:
        terms = iter(e.terms)
        u = _jet(next(terms), box, var, n)
        for t in terms:
            u = list(map(_iadd, u, _jet(t, box, var, n)))
        return u
    if kind is Mul:
        factors = iter(e.factors)
        u = _jet(next(factors), box, var, n)
        for f in factors:
            u = _cauchy(u, _jet(f, box, var, n), n)
        return u
    if kind is Symbol:
        if e.name not in box:
            raise UnboundSymbol(f"symbol {e.name!r} is not bound")
        lo, hi = box[e.name]
        u = [(float(lo), float(hi))] + [_NIL] * n
        if n and e.name == var:
            u[1] = (1.0, 1.0)
        return u
    if kind is Constant:
        return [_rational(e.value)] + [_NIL] * n
    if kind is Pow:
        return _pow_jet(_jet(e.base, box, var, n), e.exponent, n)
    if kind is Neg:
        return [(-b, -a) for a, b in _jet(e.arg, box, var, n)]
    if kind is Div:
        u, v = _jet(e.num, box, var, n), _jet(e.den, box, var, n)
        w = []
        for k in range(n + 1):  # u = v w
            acc = u[k]
            for j in range(1, k + 1):
                acc = _isub(acc, _imul(v[j], w[k - j]))
            w.append(_idiv(acc, v[0]))
        return w
    if kind is Func:
        return _func_jet(e.kind, _jet(e.arg, box, var, n), n)
    raise TypeError(f"unknown node {e!r}")


def jet(e: Expr, box: Mapping[str, tuple], var: str | None,
        order: int) -> list | None:
    """Outward-rounded interval Taylor coefficients of e in var, or None.

    `box` maps each symbol of e to a pair of floats (lo, hi).  The result
    is [u_0, ..., u_order], and each u_k = (lo, hi) contains the exact
    k-th derivative of e in var over k! at every point of the box; every
    other symbol (all of them when var is None) enters as a constant
    interval.  One walk of the tree propagates the coefficients by the
    standard recurrences of automatic differentiation (Griewank and
    Walther, Evaluating Derivatives, 2nd ed., SIAM 2008, ch. 13): the
    Cauchy product for * and integer powers, u = v w for /, and, for
    exp, log, sin, cos, atan and a rational power, the linear ODE the
    function satisfies (w' = u' w for exp, (1 + u^2) w' = u' for atan,
    u w' = q u' w for u^q).  Every interval operation rounds outwards
    with `_out`, and a rational exponent that is not a float is bracketed
    between two.  None means "cannot certify", never "holds": a divisor
    that may vanish, a fractional power of a possibly negative base (or,
    beyond order 0, of a base that may be 0), log or sqrt possibly outside
    its domain, an overflow or a NaN anywhere in the tree.  A symbol
    outside `box` raises UnboundSymbol.
    """
    try:
        return _jet(e, box, var, order)
    except (_Uncertified, ArithmeticError):
        return None


def enclose(e: Expr, box: Mapping[str, tuple]) -> tuple | None:
    """Outward-rounded interval enclosure of e over a box, or None: the
    order-0 `jet`, in which every symbol of `box` is an interval.  The
    result (lo, hi) contains the exact value of e at every point of the
    box, and every value ``eval_expr`` returns there.
    """
    u = jet(e, box, None, 0)
    return None if u is None else u[0]


def _fpow(base: float, q: float) -> float:
    # float ** q gives a complex number for a negative base
    if base < 0.0:
        raise ValueError("fractional power of negative base")
    return base ** q


def emit_code(exprs: Iterable[Expr], symbols: Mapping[str, str],
              lines: list) -> list:
    """Append to `lines` Python statements that evaluate each of `exprs`
    with ``eval_expr``'s float operations, and return the code of each
    value: a temporary, a symbol's code or a float literal.  A sum is
    written as plain additions, ``0.0 + t1 + t2 + ...``: the left fold
    from 0.0 of ``eval_expr``, with no call.

    `symbols` maps every bound symbol name to the code of its value.  A
    subtree whose code repeats, in one expression or across several, is
    evaluated once: a repeated subtree, or two that differ only in symbols
    bound to one value.  Each statement is ``t<n> = <code>`` with n the
    number of lines present before it, so temporaries stay distinct when
    one list collects several calls.  The statements raise
    ArithmeticError or ValueError, and nothing else, where ``eval_expr``
    raises EvalDomainError or maps an overflow to inf; a symbol outside
    `symbols` raises UnboundSymbol here.  The caller binds ``_fpow`` and
    the math functions (see ``compile_rows``).
    """
    temps = {}  # statement code -> its temporary

    def emit(node: Expr) -> str:
        if isinstance(node, Constant):
            return f"({float(node.value)!r})"
        if isinstance(node, Symbol):
            if node.name not in symbols:
                raise UnboundSymbol(f"symbol {node.name!r} is not bound")
            return symbols[node.name]
        if isinstance(node, Add):
            code = "0.0" + "".join(f" + {emit(t)}" for t in node.terms)
        elif isinstance(node, Mul):
            code = " * ".join(emit(f) for f in node.factors) or "1.0"
        elif isinstance(node, Neg):
            code = f"-{emit(node.arg)}"
        elif isinstance(node, Div):
            code = f"{emit(node.num)} / {emit(node.den)}"
        elif isinstance(node, Pow):
            base, q = emit(node.base), float(node.exponent)
            code = f"{base} ** ({q!r})" if node.exponent.denominator == 1 \
                else f"_fpow({base}, {q!r})"
        elif isinstance(node, Func):
            code = f"{node.kind}({emit(node.arg)})"
        else:
            raise TypeError(f"unknown node {node!r}")
        temp = temps.get(code)
        if temp is None:
            temp = temps[code] = f"t{len(lines)}"
            lines.append(f"{temp} = {code}")
        return temp

    return [emit(e) for e in exprs]


# what the code of `emit_code` calls
EMIT_NAMESPACE = {"_fpow": _fpow, "exp": math.exp, "log": math.log,
                  "sin": math.sin, "cos": math.cos, "sqrt": math.sqrt,
                  "atan": math.atan}


@functools.lru_cache(maxsize=128)
def compile_source(src: str):
    """The code object of a generated module source, compiled once per
    distinct source and kept for the 128 most recent.  The code binds only
    names, so each run in a fresh namespace keeps its own objects."""
    return compile(src, "<generated>", "exec")


def _eval_row(exprs: tuple, names: tuple, params: dict, row: tuple) -> list:
    """The values of exprs at one row by ``eval_expr``: what a row whose
    generated code raised stands for.  An EvalDomainError it raises
    carries the row as `row`."""
    bindings = dict(zip(names, row))
    bindings.update(params)
    try:
        return [eval_expr(e, bindings) for e in exprs]
    except EvalDomainError as exc:
        exc.row = row
        raise


def compile_rows(exprs: Iterable[Expr], names: Iterable[str],
                 params: Mapping[str, float] | None = None):
    """Compile a tuple of expressions once into one function of columns.

    The function takes one list of floats per name in `names` (at least
    one; a later duplicate name wins), all of one length, and returns one
    list per expression with its value on each row.  Each of `params` is
    bound to its float value, which is inlined as a constant.  The values
    are exactly those of ``eval_expr`` for the same bindings: every node
    uses the same float operation (see ``emit_code``), and a subtree
    shared across the tuple is evaluated once per row.  A row whose code
    raises ArithmeticError or ValueError is evaluated again with
    ``eval_expr``, which returns the reference values (inf for an
    overflowing exp) or raises its EvalDomainError, naming the same
    subterm and carrying the row as `row`.  A symbol outside names and
    params raises UnboundSymbol, a constant beyond float range raises
    OverflowError, and a tree too deep to walk raises TooDeep, here
    rather than at call time.  The source is
    compiled once per process (``compile_source``); each call runs it in
    a namespace of its own, which binds this call's exprs and params.
    """
    exprs, names = tuple(exprs), tuple(names)
    params = {name: float(v) for name, v in (params or {}).items()}
    symbols = {name: f"a{i}" for i, name in enumerate(names)}
    symbols.update((name, f"({v!r})") for name, v in params.items())
    lines = []
    try:
        codes = emit_code(exprs, symbols, lines)
    except RecursionError:
        raise TooDeep("expression nests too deeply to compile") from None
    row = "".join(f"a{i}, " for i in range(len(names)))
    cols = "".join(f"c{i}, " for i in range(len(names)))
    outs = range(len(exprs))
    src = [f"def _rows({cols}):",
           *(f"    o{j} = []; p{j} = o{j}.append" for j in outs),
           f"    for {row}in zip({cols}):",
           "        try:",
           *(f"            {line}" for line in lines),
           *(f"            p{j}({code})" for j, code in enumerate(codes)),
           "        except (ArithmeticError, ValueError):",
           f"            r = _eval_row(_exprs, _names, _params, ({row}))",
           *(f"            p{j}(r[{j}])" for j in outs),
           f"    return ({''.join(f'o{j}, ' for j in outs)})"]
    ns = {**EMIT_NAMESPACE, "inf": math.inf, "nan": math.nan,
          "_eval_row": _eval_row, "_exprs": exprs, "_names": names,
          "_params": params}
    exec(compile_source("\n".join(src) + "\n"), ns)
    return ns["_rows"]


def free_symbols(e: Expr) -> set:
    """The names of the symbols in e, found without recursion, so that a
    tree of any depth can be checked before it is refused elsewhere."""
    names, todo = set(), [e]
    while todo:
        node = todo.pop()
        # the commonest nodes first
        if isinstance(node, Symbol):
            names.add(node.name)
        elif isinstance(node, Constant):
            pass
        elif isinstance(node, Mul):
            todo.extend(node.factors)
        elif isinstance(node, Pow):
            todo.append(node.base)
        elif isinstance(node, Add):
            todo.extend(node.terms)
        elif isinstance(node, (Neg, Func)):
            todo.append(node.arg)
        elif isinstance(node, Div):
            todo += (node.num, node.den)
        else:
            raise TypeError(f"unknown node {node!r}")
    return names


# ---------------------------------------------------------------------------
# coefficient collection

def coefficients_in(e: Expr, vars: Iterable[str]) -> dict:
    """Coefficients of e as a polynomial in the given symbols.

    Returns {exponent tuple: coefficient Expr}, exponents ordered like vars.
    The monomials are read off e's reduced canonical polynomial
    (`_reduced`), the one simplify(e) prints, with no simplify between.
    Raises NotPolynomial if any var occurs inside a function argument, a
    sum denominator, or with a negative/fractional exponent.
    """
    st = _Canon()
    groups = _groups(_reduced(e, st), st, list(vars))
    return {sig: _poly_to_expr(poly, st) for sig, poly in groups.items()
            if poly}


def _groups(p: dict, st: _Canon, vars: list) -> dict:
    """The canonical polynomial p as {exponent tuple: coefficient
    polynomial}, as `coefficients_in` returns it."""
    vset = set(vars)
    groups: dict = {}
    for mono, coeff in p.items():
        sig = [0] * len(vars)
        rest = {}
        for key, q in mono:
            base = st.bases[key]
            if isinstance(base, _SymBase) and base.name in vset:
                if q.denominator != 1 or q < 0:
                    raise NotPolynomial(
                        f"{base.name} occurs with exponent {q}")
                sig[vars.index(base.name)] = int(q)
                continue
            if isinstance(base, _FuncBase) and \
                    free_symbols(base.arg) & vset:
                raise NotPolynomial(
                    f"variable inside {base.kind}({to_string(base.arg)})")
            if isinstance(base, _SumBase) and free_symbols(base.expr) & vset:
                raise NotPolynomial(
                    f"variable inside ({to_string(base.expr)})^{q}")
            rest[key] = q
        sig = tuple(sig)
        piece = _normalize_factors(rest, coeff, st)
        _poly_iadd(groups.setdefault(sig, {}), piece)
    return groups


def complex_parts(e: Expr, rules: Mapping[Expr, Expr], unit: str) -> tuple:
    """(re, im, names): e rewritten by `rules` as in `rewrite_subterms`,
    then read as a polynomial in the symbol `unit` with unit^2 = -1.

    re sums the coefficients of the even powers unit^k and im those of
    the odd powers, each with the sign (-1)^(k div 2), and both are
    simplified; names holds the symbols of the rewritten e.  The rewrite
    and the split work on one canonical polynomial, with no expression
    built in between.  Raises NotPolynomial where `coefficients_in` would
    for the variable unit.
    """
    st = _Canon()
    p = _rewritten(e, _rule_table(rules), st)
    parts = ({}, {})
    for (k,), poly in _groups(p, st, [unit]).items():
        # unit^k c is (-1)^(k div 2) c, real for even k
        _poly_iadd(parts[k % 2], _poly_scale(poly, -1) if k % 4 > 1
                   else poly)
    names = set()
    for key in {key for mono in p for key, _ in mono}:
        base = st.bases[key]
        if isinstance(base, _SymBase):
            names.add(base.name)
        elif isinstance(base, (_FuncBase, _SumBase)):
            names |= free_symbols(base.arg if isinstance(base, _FuncBase)
                                  else base.expr)
    return (*(_poly_to_expr(_reduce_fractions(part, st), st)
              for part in parts), names)


def collect(e: Expr, monomials: Iterable[Expr], vars: Iterable[str]):
    """Split e = sum coeff*monomial + remainder over the given monomials.

    Coefficients are free of vars; monomials of e that are not in the list
    end up in the remainder.
    """
    vars = list(vars)
    groups = coefficients_in(e, vars)
    out = {}
    seen = set()
    for mono in monomials:
        mc = coefficients_in(simplify(mono), vars)
        if len(mc) != 1:
            raise ValueError(f"not a monomial: {to_string(mono)}")
        (sig, lead), = mc.items()
        if lead != ONE:
            raise ValueError(f"monomial must be monic: {to_string(mono)}")
        out[mono] = groups.get(sig, ZERO)
        seen.add(sig)
    rem_terms = []
    for sig, coeff in groups.items():
        if sig in seen:
            continue
        factors = [Pow(Symbol(v), Fraction(n)) if n != 1 else Symbol(v)
                   for v, n in zip(vars, sig) if n != 0]
        rem_terms.append(mul(coeff, *factors) if factors else coeff)
    remainder = simplify(add(*rem_terms)) if rem_terms else ZERO
    return out, remainder

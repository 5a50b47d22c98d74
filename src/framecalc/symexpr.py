"""Exact symbolic expression kernel.

Immutable expression trees over registered symbols with exact rational
constants, a small fixed function set (sqrt, sin, cos, tanh, sech), a
parser for the CLI grammar, canonicalization to a unique normal form for
the rational fragment, exact/probabilistic zero testing, substitution,
partial differentiation and IEEE-double evaluation.

The algebraic heavy lifting (polynomial gcd, rational-function
normalization) is delegated to sympy; everything observable -- the node
vocabulary, the grammar, symbol kinds, canonical ordering, serialization
and the zero-test policy -- is owned by this module.

Radicands are treated as positive reals: symbols that the registry marks
positive carry that assumption, and half-integer powers distribute over
products accordingly.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

import sympy as sp

__all__ = [
    "SymbolId",
    "SymbolRegistry",
    "Expr",
    "ZeroVerdict",
    "SymExprError",
    "ParseError",
    "UnknownSymbolError",
    "EvalError",
    "SingularSampleError",
    "parse",
    "canonical",
    "diff",
    "subst",
    "eval_num",
    "is_zero",
    "zero_verdict",
    "rational",
    "integer",
    "func",
    "to_json_dict",
    "from_json_dict",
    "to_latex",
]

# Symbol kinds, in canonical sort order.
KIND_JET = "jet"
KIND_GENERATOR = "generator"
KIND_PARAMETER = "parameter"
KIND_CONSTANT = "constant"
KIND_AUXILIARY = "auxiliary"
KINDS = (KIND_JET, KIND_GENERATOR, KIND_PARAMETER, KIND_CONSTANT, KIND_AUXILIARY)

FUNCTIONS = {
    "sin": sp.sin,
    "cos": sp.cos,
    "tanh": sp.tanh,
    "sech": sp.sech,
}

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*(_[xts]+)?")


class SymExprError(Exception):
    """Base class for expression-kernel errors."""


class ParseError(SymExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownSymbolError(ParseError):
    def __init__(self, name: str, position: int):
        ParseError.__init__(self, f"unknown symbol '{name}'", position)
        self.name = name


class EvalError(SymExprError):
    """Unbound symbol, division by zero, or domain error during evaluation."""


class SingularSampleError(SymExprError):
    """No valid sample point found within the draw budget."""


@dataclass(frozen=True, order=True)
class SymbolId:
    name: str
    kind: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown symbol kind {self.kind!r}")


class SymbolRegistry:
    """Symbol table: every symbol used in an expression is registered once.

    Positivity assumptions (needed for half-integer powers, e.g. u_x > 0)
    are attached to the underlying sympy symbols at registration time.
    Jet coordinates u^a_K also carry their structure: the dependent
    variable and the derivative count per independent variable name.
    """

    def __init__(self):
        self._ids: dict[str, SymbolId] = {}
        self._syms: dict[str, sp.Symbol] = {}
        self._positive: dict[str, bool] = {}
        self._jets: dict[str, tuple[str, tuple[tuple[str, int], ...]]] = {}

    def register(self, name: str, kind: str, positive: bool = False) -> SymbolId:
        if name in self._ids:
            sid = self._ids[name]
            if sid.kind != kind or self._positive[name] != positive:
                raise ValueError(
                    f"symbol {name!r} already registered as kind={sid.kind}, "
                    f"positive={self._positive[name]}"
                )
            return sid
        sid = SymbolId(name, kind)
        self._ids[name] = sid
        self._syms[name] = sp.Symbol(name, real=True, positive=True if positive else None)
        self._positive[name] = positive
        return sid

    def known(self, name: str) -> bool:
        return name in self._ids

    def record_jet(self, name: str, dependent: str, counts) -> None:
        """Attach jet structure to a registered name; counts are
        (independent name, derivative count) pairs, zeros ignored."""
        jet = (dependent, tuple(sorted((x, c) for x, c in counts if c)))
        old = self._jets.setdefault(name, jet)
        if old != jet:
            raise ValueError(f"jet coordinate {name!r} already registered as {old}")

    def jet(self, name: str):
        """(dependent, ((independent, count), ...)) of a jet coordinate,
        or None for any other name."""
        return self._jets.get(name)

    def id_of(self, name: str) -> SymbolId:
        return self._ids[name]

    def is_positive(self, name: str) -> bool:
        return self._positive.get(name, False)

    def sympy_symbol(self, ref: Union[str, SymbolId]) -> sp.Symbol:
        name = ref.name if isinstance(ref, SymbolId) else ref
        if name not in self._syms:
            raise KeyError(f"symbol {name!r} is not registered")
        return self._syms[name]

    def expr(self, ref: Union[str, SymbolId]) -> "Expr":
        return Expr(self.sympy_symbol(ref))

    def names(self) -> list[str]:
        return sorted(self._ids)

    def sort_key(self, name: str):
        sid = self._ids.get(name)
        rank = KINDS.index(sid.kind) if sid is not None else len(KINDS)
        return (rank, name)


_ALLOWED_FUNCS = (sp.sin, sp.cos, sp.tanh, sp.sech)


def _validate_tree(e: sp.Expr) -> None:
    if e.has(sp.Float):
        raise SymExprError("floating-point literal in symbolic expression")
    for node in sp.preorder_traversal(e):
        if isinstance(node, sp.Pow):
            if not isinstance(node.exp, (sp.Integer, sp.Rational)):
                raise SymExprError(f"non-rational exponent in {node}")
        elif isinstance(node.__class__, sp.core.function.FunctionClass):
            if not isinstance(node, _ALLOWED_FUNCS):
                raise SymExprError(f"function {node.func} is outside the kernel set")


class Expr:
    """Immutable symbolic expression.

    Wraps a sympy expression; all arithmetic goes through the usual
    operators and returns new Expr values. Structural equality of
    canonical forms implies mathematical equality on the rational
    fragment.
    """

    __slots__ = ("_s",)

    def __init__(self, s):
        if isinstance(s, Expr):
            s = s._s
        elif isinstance(s, Fraction):
            s = sp.Rational(s.numerator, s.denominator)
        elif isinstance(s, int):
            s = sp.Integer(s)
        if not isinstance(s, sp.Expr):
            raise TypeError(f"cannot build Expr from {type(s).__name__}")
        _validate_tree(s)
        object.__setattr__(self, "_s", s)

    def __setattr__(self, *_):
        raise AttributeError("Expr is immutable")

    @property
    def sympy(self) -> sp.Expr:
        return self._s

    def free_names(self) -> set[str]:
        return {s.name for s in self._s.free_symbols}

    def is_zero_literal(self) -> bool:
        return self._s is sp.S.Zero or self._s == 0

    # -- arithmetic ----------------------------------------------------
    def _coerce(self, other) -> sp.Expr:
        if isinstance(other, Expr):
            return other._s
        if isinstance(other, (int, Fraction)):
            return Expr(other)._s
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else Expr(self._s + o)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else Expr(self._s - o)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else Expr(o - self._s)

    def __mul__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else Expr(self._s * o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else Expr(self._s / o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else Expr(o / self._s)

    def __pow__(self, other):
        if isinstance(other, Expr):
            other = other._s
        elif isinstance(other, Fraction):
            other = sp.Rational(other.numerator, other.denominator)
        return Expr(sp.Pow(self._s, other))

    def __neg__(self):
        return Expr(-self._s)

    def __eq__(self, other):
        return isinstance(other, Expr) and self._s == other._s

    def __hash__(self):
        return hash(self._s)

    def __repr__(self):
        return f"Expr({self._s})"

    def __str__(self):
        return str(self._s)


ZERO = Expr(0)
ONE = Expr(1)


def integer(n: int) -> Expr:
    return Expr(int(n))


def rational(p: int, q: int = 1) -> Expr:
    return Expr(sp.Rational(p, q))


def func(name: str, arg: Expr) -> Expr:
    if name == "sqrt":
        return Expr(sp.sqrt(arg._s))
    if name not in FUNCTIONS:
        raise SymExprError(f"unknown function {name!r}")
    return Expr(FUNCTIONS[name](arg._s))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z][A-Za-z0-9]*(?:_[xts]+)?)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "int":
            tokens.append(("int", m.group("int"), m.start("int")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _finite(e: sp.Expr, pos: int) -> sp.Expr:
    """e, unless a division by zero left zoo, nan or oo in it."""
    if e.has(sp.zoo, sp.nan, sp.oo, -sp.oo):
        raise ParseError("division by zero", pos)
    return e


class _Parser:
    """Recursive-descent parser for the expression grammar.

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ['^' exponent]
    atom   := INT | IDENT | FUNC '(' expr ')' | '(' expr ')'
    exponent := ['-'] INT | '(' ['-'] INT ['/' INT] ')'
    """

    def __init__(self, text: str, registry: SymbolRegistry):
        self.tokens = _tokenize(text)
        self.i = 0
        self.registry = registry

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self) -> Expr:
        e = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", pos)
        return e

    def expr(self) -> sp.Expr:
        e = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                e = e + rhs if val == "+" else e - rhs
            else:
                return e

    def term(self) -> sp.Expr:
        e = self.unary()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.unary()
                e = e * rhs if val == "*" else _finite(e / rhs, pos)
            else:
                return e

    def unary(self) -> sp.Expr:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return -self.unary()
        return self.power()

    def power(self) -> sp.Expr:
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            return _finite(sp.Pow(base, self.exponent()), pos)
        return base

    def exponent(self) -> sp.Rational:
        kind, val, pos = self.next()
        sign = 1
        if kind == "op" and val == "-":
            sign = -1
            kind, val, pos = self.next()
        if kind == "int":
            return sp.Integer(sign * int(val))
        if kind == "op" and val == "(":
            inner_sign = 1
            kind, val, pos = self.next()
            if kind == "op" and val in "+-":
                inner_sign = -1 if val == "-" else 1
                kind, val, pos = self.next()
            if kind != "int":
                raise ParseError("expected integer in exponent", pos)
            p = inner_sign * int(val)
            kind, val, pos = self.next()
            if kind == "op" and val == "/":
                kind, val, pos = self.next()
                if kind != "int":
                    raise ParseError("expected denominator in exponent", pos)
                q = int(val)
                self.expect_op(")")
                return sign * sp.Rational(p, q)
            if kind == "op" and val == ")":
                return sp.Integer(sign * p)
            raise ParseError("malformed exponent", pos)
        raise ParseError("expected integer or (p/q) exponent", pos)

    def atom(self) -> sp.Expr:
        kind, val, pos = self.next()
        if kind == "int":
            return sp.Integer(int(val))
        if kind == "ident":
            nk, nv, _ = self.peek()
            if (val == "sqrt" or val in FUNCTIONS) and nk == "op" and nv == "(":
                self.next()
                arg = self.expr()
                self.expect_op(")")
                return sp.sqrt(arg) if val == "sqrt" else FUNCTIONS[val](arg)
            if not self.registry.known(val):
                raise UnknownSymbolError(val, pos)
            return self.registry.sympy_symbol(val)
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected token {val!r}", pos)


def parse(text: str, registry: SymbolRegistry) -> Expr:
    """Parse ``text`` against the grammar; all identifiers must be registered."""
    return canonical(Expr(_Parser(text, registry).parse()))


# ---------------------------------------------------------------------------
# Canonicalization
# ---------------------------------------------------------------------------

def _fractional_symbol_bases(e: sp.Expr) -> dict[sp.Symbol, int]:
    """Symbols occurring under a fractional power, with the lcm of the
    exponent denominators."""
    bases: dict[sp.Symbol, int] = {}
    for node in sp.preorder_traversal(e):
        if isinstance(node, sp.Pow) and not node.exp.is_Integer:
            if isinstance(node.base, sp.Symbol):
                q = int(node.exp.q)
                bases[node.base] = sp.ilcm(bases.get(node.base, 1), q)
    return bases


def canonical(e: Expr) -> Expr:
    """Canonical form: flattened, collected, single-fraction, gcd-reduced.

    Unique for rational functions of symbols, including half-integer
    powers of symbols (u_x and sqrt(u_x) are reduced against each other
    via a radical substitution). Fractional powers of composite bases and
    function applications are carried as opaque atoms.
    """
    s = e._s if isinstance(e, Expr) else sp.sympify(e)
    bases = _fractional_symbol_bases(s)
    if bases:
        fwd = {b: sp.Symbol(f"_rad_{b.name}", positive=True) ** q for b, q in bases.items()}
        s = s.xreplace(fwd)
        s = sp.cancel(sp.together(s))
        back = {sp.Symbol(f"_rad_{b.name}", positive=True): b ** sp.Rational(1, q)
                for b, q in bases.items()}
        s = s.xreplace(back)
        # xreplace of t -> b**(1/q) inside Pow(t, k) rebuilds b**(k/q)
        s = sp.powsimp(s)
    else:
        s = sp.cancel(sp.together(s))
    return Expr(s)


def diff(e: Expr, s: Union[SymbolId, str, sp.Symbol], registry: SymbolRegistry | None = None) -> Expr:
    """Partial derivative treating all other symbols as constants."""
    if isinstance(s, sp.Symbol):
        sym = s
    else:
        name = s.name if isinstance(s, SymbolId) else s
        if registry is not None:
            sym = registry.sympy_symbol(name)
        else:
            matches = [t for t in e._s.free_symbols if t.name == name]
            sym = matches[0] if matches else sp.Symbol(name, real=True)
    return canonical(Expr(sp.diff(e._s, sym)))


def _binding_map(e: sp.Expr, bindings: Mapping) -> dict[sp.Symbol, sp.Expr]:
    by_name: dict[str, sp.Expr] = {}
    for k, v in bindings.items():
        name = k.name if isinstance(k, (SymbolId, sp.Symbol)) else str(k)
        by_name[name] = Expr(v)._s if not isinstance(v, Expr) else v._s
    out = {}
    for sym in e.free_symbols:
        if sym.name in by_name:
            out[sym] = by_name[sym.name]
    return out


def subst(e: Expr, bindings: Mapping) -> Expr:
    """Simultaneous substitution followed by canonicalization.

    Keys may be SymbolId, sympy symbols, or names; matching is by name so
    assumptions on the bound symbol do not matter.
    """
    return canonical(Expr(e._s.xreplace(_binding_map(e._s, bindings))))


# ---------------------------------------------------------------------------
# Numeric evaluation and zero testing
# ---------------------------------------------------------------------------

def eval_num(e: Expr, point: Mapping) -> float:
    """Evaluate at a numeric point (IEEE double); raises on unbound symbols,
    division by zero, and domain errors."""
    vals = {}
    by_name = {(k.name if isinstance(k, (SymbolId, sp.Symbol)) else str(k)): v
               for k, v in point.items()}
    missing = []
    for sym in e._s.free_symbols:
        if sym.name in by_name:
            vals[sym] = sp.Float(by_name[sym.name])
        else:
            missing.append(sym.name)
    if missing:
        raise EvalError(f"unbound symbols: {sorted(missing)}")
    v = e._s.xreplace(vals).evalf(17)
    if v.has(sp.zoo, sp.oo, -sp.oo, sp.nan):
        raise EvalError("division by zero at evaluation point")
    c = complex(v)
    if abs(c.imag) > 1e-9 * (1.0 + abs(c.real)):
        raise EvalError("domain error (complex value) at evaluation point")
    return float(c.real)


@dataclass(frozen=True)
class ZeroVerdict:
    zero: bool
    exact: bool
    samples: int = 0

    def __bool__(self):
        return self.zero


def _sample_rational(rng: random.Random, positive: bool) -> sp.Rational:
    val = sp.Rational(rng.randint(1, 40), rng.randint(1, 40))
    if not positive and rng.random() < 0.5:
        val = -val
    return val


_EVAL_PREC = 50
_ZERO_TOL = sp.Float(10) ** (-30)


def zero_verdict(e: Expr, rng: random.Random | None = None, samples: int = 20,
                 max_draws: int = 1000) -> ZeroVerdict:
    """Decide whether ``e`` is mathematically zero.

    Canonicalization decides the rational fragment exactly; otherwise the
    expression is evaluated at random rational points (50-digit precision)
    and a zero verdict is marked as probabilistic (``exact`` is False).
    """
    c = canonical(e)
    if c.is_zero_literal():
        return ZeroVerdict(True, True)
    # Exact nonzero verdict: unique normal form covers symbols with integer
    # exponents and half-integer powers of plain symbols.
    decidable = True
    for node in sp.preorder_traversal(c._s):
        if isinstance(node, _ALLOWED_FUNCS):
            decidable = False
            break
        if isinstance(node, sp.Pow) and not node.exp.is_Integer and not isinstance(node.base, sp.Symbol):
            decidable = False
            break
    if decidable:
        return ZeroVerdict(False, True)

    rng = rng if rng is not None else random.Random(2024)
    syms = sorted(c._s.free_symbols, key=lambda s: s.name)
    good = 0
    draws = 0
    while good < samples:
        if draws >= max_draws:
            raise SingularSampleError(
                f"no valid sample point in {max_draws} draws for zero test")
        draws += 1
        point = {s: _sample_rational(rng, bool(s.is_positive)) for s in syms}
        try:
            v = c._s.xreplace(point).evalf(_EVAL_PREC)
        except (ValueError, ZeroDivisionError):
            continue
        if v.has(sp.zoo, sp.oo, -sp.oo, sp.nan) or not v.is_number:
            continue
        re_part, im_part = v.as_real_imag()
        if abs(im_part) > _ZERO_TOL:
            continue
        good += 1
        if abs(re_part) > _ZERO_TOL:
            return ZeroVerdict(False, False, samples=good)
    return ZeroVerdict(True, False, samples=good)


def is_zero(e: Expr, rng: random.Random | None = None) -> bool:
    return zero_verdict(e, rng=rng).zero


# ---------------------------------------------------------------------------
# Serialization: canonical JSON tree and LaTeX
# ---------------------------------------------------------------------------

def _node_sort_key(d, registry: SymbolRegistry | None):
    kind = d["kind"]
    rank = {"rational": 0, "symbol": 1, "power": 2, "func": 3, "product": 4, "sum": 5}[kind]
    if kind == "rational":
        return (rank, d["p"], d["q"])
    if kind == "symbol":
        if registry is not None and registry.known(d["name"]):
            return (rank,) + registry.sort_key(d["name"])
        return (rank, len(KINDS), d["name"])
    if kind == "power":
        return (rank, _node_sort_key(d["base"], registry), d["exp"]["p"], d["exp"]["q"])
    if kind == "func":
        return (rank, d["name"], _node_sort_key(d["child"], registry))
    return (rank, len(d["children"]), tuple(_node_sort_key(ch, registry) for ch in d["children"]))


def to_json_dict(e: Expr, registry: SymbolRegistry | None = None) -> dict:
    """Canonical JSON expression tree with deterministic child ordering."""

    def conv(s: sp.Expr) -> dict:
        if isinstance(s, (sp.Integer, sp.Rational)):
            return {"kind": "rational", "p": int(s.p), "q": int(s.q)}
        if isinstance(s, sp.Symbol):
            return {"kind": "symbol", "name": s.name}
        if isinstance(s, sp.Pow):
            exp = s.exp
            return {"kind": "power", "base": conv(s.base),
                    "exp": {"p": int(exp.p), "q": int(exp.q)}}
        if isinstance(s, sp.Add) or isinstance(s, sp.Mul):
            children = sorted((conv(a) for a in s.args),
                              key=lambda d: _node_sort_key(d, registry))
            return {"kind": "sum" if isinstance(s, sp.Add) else "product",
                    "children": children}
        if isinstance(s, _ALLOWED_FUNCS):
            name = s.func.__name__
            return {"kind": "func", "name": name, "child": conv(s.args[0])}
        raise SymExprError(f"cannot serialize node {s!r}")

    return conv(canonical(e)._s)


def from_json_dict(d: dict, registry: SymbolRegistry) -> Expr:
    kind = d["kind"]
    if kind == "rational":
        return rational(d["p"], d["q"])
    if kind == "symbol":
        return registry.expr(d["name"])
    if kind == "power":
        base = from_json_dict(d["base"], registry)
        return base ** Fraction(d["exp"]["p"], d["exp"]["q"])
    if kind == "sum":
        out = ZERO
        for ch in d["children"]:
            out = out + from_json_dict(ch, registry)
        return out
    if kind == "product":
        out = ONE
        for ch in d["children"]:
            out = out * from_json_dict(ch, registry)
        return out
    if kind == "func":
        return func(d["name"], from_json_dict(d["child"], registry))
    raise SymExprError(f"bad JSON node kind {kind!r}")


_GREEK = {"sigma": r"\sigma", "kappa": r"\kappa", "eta": r"\eta", "theta": r"\theta",
          "lambda": r"\lambda", "tau": r"\tau", "ctheta": r"\cos\theta",
          "stheta": r"\sin\theta", "beta": r"\beta"}


def _latex_symbol(name: str) -> str:
    if name.startswith("I") and "_" in name:
        head, _, tail = name.partition("_")
        dep = head[1:]
        tail = tail.replace("tau", r"\tau ")
        return rf"I^{{{dep}}}_{{{tail}}}"
    m = re.fullmatch(r"([A-Za-z]+)(\d+)", name)
    if m and m.group(1) in ("c",):
        return f"{m.group(1)}_{{{m.group(2)}}}"
    base, _, suffix = name.partition("_")
    out = _GREEK.get(base, base)
    if suffix:
        suffix = suffix.replace("tau", r"\tau ")
        out = rf"{out}_{{{suffix}}}"
    return out


def to_latex(e: Expr) -> str:
    """LaTeX rendering with Greek symbol names (sigma -> \\sigma, ...)."""
    s = canonical(e)._s
    repl = {}
    for sym in s.free_symbols:
        repl[sym] = sp.Symbol(_latex_symbol(sym.name))
    return sp.latex(s.xreplace(repl), order="lex")

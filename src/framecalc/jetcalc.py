"""Jet-bundle calculus: coordinates, total derivatives, prolongation,
the Euler operator, and exact inversion of total derivatives.

A JetSpace names coordinate symbols u^a_K (like u, u_x, u_xxt) in a
SymbolRegistry and registers each one, with its structure (dependent u^a,
derivative counts K), the first time it is asked for, so jets of every
order are available; the registry then answers for every space over the
same variables. The same machinery serves the classical jet bundle over
(x_i, u^a) and the formal "invariant jet space" whose dependent variables
are generating invariants (sigma, kappa, eta), so the Euler operator below
is used for both E^u(L) and E^sigma(L).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import sympy as sp

from .symexpr import (
    Expr,
    SymbolRegistry,
    KIND_JET,
    SymExprError,
    canonical,
)

__all__ = [
    "MultiIndex",
    "JetSpace",
    "VectorField",
    "NotTotalDerivativeError",
    "total_derivative",
    "prolong_action",
    "prolong_vector_field",
    "euler_operator",
    "integrate_total",
]


class NotTotalDerivativeError(SymExprError):
    pass


@dataclass(frozen=True)
class MultiIndex:
    """Derivative multi-index over the independent variables."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if any(c < 0 for c in self.counts):
            raise ValueError("negative multi-index component")

    @staticmethod
    def zero(p: int) -> "MultiIndex":
        return MultiIndex((0,) * p)

    @property
    def order(self) -> int:
        return sum(self.counts)

    def bump(self, i: int) -> "MultiIndex":
        c = list(self.counts)
        c[i] += 1
        return MultiIndex(tuple(c))

    def drop(self, i: int) -> "MultiIndex":
        if self.counts[i] == 0:
            raise ValueError("cannot lower a zero component")
        c = list(self.counts)
        c[i] -= 1
        return MultiIndex(tuple(c))

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        return MultiIndex(tuple(a + b for a, b in zip(self.counts, other.counts)))

    def directions(self):
        """Indices i with counts[i] > 0."""
        return [i for i, c in enumerate(self.counts) if c > 0]

    @staticmethod
    def all_of_order(p: int, n: int):
        """All multi-indices over p variables with |K| = n, lexicographic."""
        if p == 1:
            yield MultiIndex((n,))
            return
        for head in range(n, -1, -1):
            for rest in MultiIndex.all_of_order(p - 1, n - head):
                yield MultiIndex((head,) + rest.counts)

    @staticmethod
    def up_to_order(p: int, n: int):
        for k in range(n + 1):
            yield from MultiIndex.all_of_order(p, k)


def _suffix(ind_names, counts) -> str:
    return "".join(name * c for name, c in zip(ind_names, counts))


class JetSpace:
    """Coordinates {x_i} and {u^a_K} over a SymbolRegistry.

    A coordinate u^a_K is registered, with its (dependent, multi-index)
    structure and the kind of u^a, the first time it is asked for; the
    independents and dependents themselves take ``kind`` unless already
    registered. ``order`` registers every coordinate up to that order at
    once, so that text naming them parses."""

    def __init__(self, independent, dependent, order: int = 0,
                 registry: SymbolRegistry | None = None, positive=(),
                 kind: str = KIND_JET):
        self.independent = tuple(independent)
        self.dependent = tuple(dependent)
        self.registry = registry if registry is not None else SymbolRegistry()
        self.positive = frozenset(positive)
        for name in self.independent + self.dependent:
            if not self.registry.known(name):
                self.registry.register(name, kind, positive=name in self.positive)
        self.coords_up_to(order)

    @property
    def p(self) -> int:
        return len(self.independent)

    def coord_name(self, dep: str, K: MultiIndex) -> str:
        """Name of u^a_K, registered on first use with the kind of u^a."""
        name = dep if K.order == 0 else f"{dep}_{_suffix(self.independent, K.counts)}"
        reg = self.registry
        if not reg.known(name):
            reg.register(name, reg.id_of(dep).kind, positive=name in self.positive)
        reg.record_jet(name, dep, zip(self.independent, K.counts))
        return name

    def coord(self, dep: str, K: MultiIndex) -> Expr:
        return self.registry.expr(self.coord_name(dep, K))

    def coords_up_to(self, n: int):
        """(dep, K, name) triples for |K| <= n, dependents outer."""
        return [(dep, K, self.coord_name(dep, K))
                for dep in self.dependent for K in MultiIndex.up_to_order(self.p, n)]

    def parse_coord(self, name: str):
        """(dependent, multi-index) of a registered jet coordinate of any
        order; None when the name is no jet coordinate, or its dependent or
        one of its independents is foreign to this space."""
        jet = self.registry.jet(name)
        if jet is None or jet[0] not in self.dependent:
            return None
        counts = [0] * self.p
        for x, c in jet[1]:
            if x not in self.independent:
                return None
            counts[self.independent.index(x)] = c
        return jet[0], MultiIndex(tuple(counts))

    def max_order_in(self, e: Expr) -> int:
        n = 0
        for name in e.free_names():
            parsed = self.parse_coord(name)
            if parsed is not None:
                n = max(n, parsed[1].order)
        return n


def total_derivative(e: Expr, i: int, js: JetSpace) -> Expr:
    """D_i e = de/dx_i + sum u^a_{K+e_i} de/du^a_K."""
    s = e.sympy if isinstance(e, Expr) else e
    x = js.registry.sympy_symbol(js.independent[i])
    out = sp.diff(s, x)
    for name in sorted({t.name for t in s.free_symbols}):
        parsed = js.parse_coord(name)
        if parsed is None:
            continue
        dep, K = parsed
        d = sp.diff(s, js.registry.sympy_symbol(name))
        if d == 0:
            continue
        out += js.coord(dep, K.bump(i)).sympy * d
    return canonical(Expr(out))


def total_derivative_multi(e: Expr, K: MultiIndex, js: JetSpace) -> Expr:
    out = e
    for i, c in enumerate(K.counts):
        for _ in range(c):
            out = total_derivative(out, i, js)
    return out


@dataclass
class VectorField:
    """Vector field on a JetSpace: coefficient per coordinate name.

    Coefficients on independent variables are not supported (every catalog
    action leaves the independent variables invariant)."""

    js: JetSpace
    coeffs: dict[str, Expr] = field(default_factory=dict)

    def coeff(self, name: str) -> Expr:
        return self.coeffs.get(name, Expr(0))

    def apply(self, e: Expr) -> Expr:
        """Directional derivative v(e)."""
        out = sp.Integer(0)
        for name, c in self.coeffs.items():
            out += c.sympy * sp.diff(e.sympy, self.js.registry.sympy_symbol(name))
        return canonical(Expr(out))


def prolong_vector_field(v: VectorField, order: int, js: JetSpace) -> VectorField:
    """Prolong a field given on base coordinates: the coefficient on
    u^a_{K+e_i} is D_i of the coefficient on u^a_K (independents fixed)."""
    coeffs = dict(v.coeffs)
    for n in range(order):
        for dep in js.dependent:
            for K in MultiIndex.all_of_order(js.p, n):
                base = coeffs.get(js.coord_name(dep, K))
                if base is None:
                    continue
                for i in range(js.p):
                    name = js.coord_name(dep, K.bump(i))
                    if name not in coeffs:
                        coeffs[name] = total_derivative(base, i, js)
    return VectorField(js, coeffs)


TAU = "tau"


def prolong_action(spec, name: str, js: JetSpace, known) -> Expr:
    """The transformed jet coordinate g.u^a_K for the coordinate ``name`` =
    u^a_K, as an expression in jet coordinates and group parameters.
    ``spec.action`` maps each dependent to its transform on base
    coordinates; the independent variables are fixed, so
    g.u^a_K = D_i(g.u^a_{K-e_i}), taken along the last direction i of K
    with g.u^a_{K-e_i} read from the mapping ``known``.
    """
    dep, K = js.parse_coord(name)
    if K.order == 0:
        return canonical(spec.action[dep])
    i = K.directions()[-1]
    return total_derivative(known[js.coord_name(dep, K.drop(i))], i, js)


def euler_operator(L: Expr, dep: str, js: JetSpace) -> Expr:
    """E^a(L) = sum_K (-1)^|K| D_K dL/du^a_K."""
    out = sp.Integer(0)
    seen = False
    for name in sorted(L.free_names()):
        parsed = js.parse_coord(name)
        if parsed is None or parsed[0] != dep:
            continue
        seen = True
        _, K = parsed
        partial = Expr(sp.diff(L.sympy, js.registry.sympy_symbol(name)))
        term = total_derivative_multi(partial, K, js)
        out += (-1) ** K.order * term.sympy
    if not seen:
        return Expr(0)
    return canonical(Expr(out))


def _coord_rank(js: JetSpace, name: str):
    parsed = js.parse_coord(name)
    if parsed is None:
        return None
    dep, K = parsed
    return (K.order, js.dependent.index(dep), K.counts)


def integrate_total(f: Expr, js: JetSpace, i: int = 0) -> Expr:
    """Exact inverse of the total derivative D_i on one independent variable:
    returns F with D_i F = f, or raises NotTotalDerivativeError.

    Standard partial-integration descent: f must be linear in its highest
    jet coordinate v = u^a_K; the piece int a dv' with K = K'+e_i is peeled
    off and the remainder recursed on.
    """
    F = Expr(0)
    g = canonical(f)
    guard = 0
    while not g.is_zero_literal():
        guard += 1
        if guard > 1000:
            raise NotTotalDerivativeError("integration did not terminate")
        ranked = [(r, n) for n in g.free_names() if (r := _coord_rank(js, n)) is not None]
        if not ranked:
            raise NotTotalDerivativeError(f"residual {g} has no jet coordinates")
        _, top = max(ranked)
        dep, K = js.parse_coord(top)
        if K.order == 0:
            raise NotTotalDerivativeError(f"residual {g} is order 0, not a total derivative")
        if K.counts[i] == 0:
            raise NotTotalDerivativeError(
                f"top coordinate {top} has no derivative in the integration direction")
        vtop = js.registry.sympy_symbol(top)
        a = sp.diff(g.sympy, vtop)
        if sp.diff(a, vtop) != 0:
            raise NotTotalDerivativeError(f"nonlinear in top coordinate {top}")
        parent = js.registry.sympy_symbol(js.coord_name(dep, K.drop(i)))
        piece = sp.integrate(a, parent)
        if piece.has(sp.log):
            raise NotTotalDerivativeError("antiderivative leaves the rational class")
        F = canonical(Expr(F.sympy + piece))
        g = canonical(Expr(g.sympy - total_derivative(Expr(piece), i, js).sympy))
    return F

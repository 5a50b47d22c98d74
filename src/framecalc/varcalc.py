"""Invariantized calculus of variations.

Given a moving frame with generating invariants kappa_j and the syzygy
operators D_tau kappa_j = sum_a H_ja I^a_tau, this module derives:

  * the invariantized Euler-Lagrange equations E^a(L) = sum_j H*_ja E^kappa_j(L),
  * the boundary coefficients C^a_{i,J} from a two-stage deterministic
    integration by parts (first moving D_K off D_tau kappa_j, then, after
    substituting the syzygies, moving derivatives off the I^a_tau),
  * Noether's conservation laws in the structured form
    sum_i D_i ( Ad(rho)^-1 upsilon_i(I) ) = 0 with
    upsilon_i(I) = sum_a Omega^a(I) C^a_i,
  * the Killing-form first integral upsilon^T B^-1 upsilon = c^T B^-1 c,
  * the reduced system Omega(z)^T Ad(rho)^T B^-1 upsilon(I) = Omega(z)^T B^-1 c,
  * Lagrange-multiplier elimination for constrained (reparametrized)
    variational problems.

Lagrangians are concrete expressions in the generator symbols; the
multiplier lambda(x) is an auxiliary dependent variable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import sympy as sp

from .jetcalc import (
    JetSpace,
    MultiIndex,
    NotTotalDerivativeError,
    euler_operator,
    integrate_total,
    total_derivative,
    total_derivative_multi,
)
from .frame import (
    InvariantTable,
    MovingFrame,
    SyzygyOperators,
    build_invariant_table,
    syzygy_operators,
    verify_syzygies,
    _isym_name,
    _tau_expansions,
)
from .liegroup import (
    MULTIPLIER,
    GroupActionSpec,
    KillingMatrix,
    SingularKillingFormError,
    adjoint_matrix,
    infinitesimal_matrix,
    killing_form,
)
from .symexpr import (
    Expr,
    KIND_AUXILIARY,
    KIND_CONSTANT,
    SymExprError,
    canonical,
    is_zero,
    subst,
    zero_verdict,
)

__all__ = [
    "LinDiffOp",
    "InvariantLagrangian",
    "BoundaryCoefficients",
    "ConservationLawSet",
    "DerivationError",
    "MAX_DERIVATION_DEPTH",
    "VerificationFailure",
    "NonlinearMultiplierError",
    "invariant_el",
    "boundary_coeffs",
    "noether_laws",
    "killing_first_integral",
    "reduced_system",
    "eliminate_multiplier",
    "syzygy_reduce",
    "generator_relations",
]


# Deepest invariant table a derivation may build: a generator's coordinate
# order plus the highest derivative of it in the Lagrangian. The table's
# cost grows 2-3x per order; on sl2-action1 the depth-7 and depth-8
# contexts take 10 s and 19 s (2-core x86, Python 3.11, sympy 1.14).
MAX_DERIVATION_DEPTH = 8


class DerivationError(SymExprError):
    pass


class VerificationFailure(DerivationError):
    pass


class NonlinearMultiplierError(DerivationError):
    pass


# ---------------------------------------------------------------------------
# Linear differential operators
# ---------------------------------------------------------------------------

def _binom_multi(J: MultiIndex, I: MultiIndex) -> int:
    out = 1
    for a, b in zip(J.counts, I.counts):
        out *= sp.binomial(a, b)
    return int(out)


def _sub_indices(J: MultiIndex):
    """All I <= J componentwise."""
    ranges = [range(c + 1) for c in J.counts]
    def rec(k):
        if k == len(ranges):
            yield ()
            return
        for head in ranges[k]:
            for rest in rec(k + 1):
                yield (head,) + rest
    for counts in rec(0):
        yield MultiIndex(counts)


@dataclass(frozen=True)
class LinDiffOp:
    """sum_J a_J D_J with Expr coefficients over invariant independents."""

    independents: tuple[str, ...]
    terms: tuple[tuple[MultiIndex, Expr], ...]

    def __post_init__(self):
        collected: dict[MultiIndex, Expr] = {}
        for J, a in self.terms:
            c = canonical(collected.get(J, Expr(0)) + a)
            collected[J] = c
        cleaned = tuple(sorted(
            ((J, a) for J, a in collected.items() if not a.is_zero_literal()),
            key=lambda t: (t[0].order, t[0].counts)))
        object.__setattr__(self, "terms", cleaned)

    @property
    def order(self) -> int:
        return max((J.order for J, _ in self.terms), default=0)

    def apply(self, f: Expr, js: JetSpace) -> Expr:
        out = Expr(0)
        for J, a in self.terms:
            out = out + a * total_derivative_multi(f, J, js)
        return canonical(out)

    def adjoint(self, js: JetSpace) -> "LinDiffOp":
        """Formal adjoint: the map f -> sum (-1)^|J| D_J(a_J f), recollected
        into operator form via the Leibniz rule."""
        new: list[tuple[MultiIndex, Expr]] = []
        for J, a in self.terms:
            sign = (-1) ** J.order
            for I in _sub_indices(J):
                diffed = total_derivative_multi(
                    a, MultiIndex(tuple(j - i for j, i in zip(J.counts, I.counts))), js)
                new.append((I, Expr(sign * _binom_multi(J, I)) * diffed))
        return LinDiffOp(self.independents, tuple(new))

    def __add__(self, other: "LinDiffOp") -> "LinDiffOp":
        return LinDiffOp(self.independents, self.terms + other.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for J, a in self.terms:
            dpart = "".join(f"D_{n}^{c}" if c > 1 else f"D_{n}"
                            for n, c in zip(self.independents, J.counts) if c)
            bits.append(f"({a})" + (f" {dpart}" if dpart else ""))
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# Lagrangians and the derivation context
# ---------------------------------------------------------------------------

@dataclass
class InvariantLagrangian:
    """Concrete Lagrangian in generator symbols, with an optional
    constraint term lambda * (constraint expression).

    constraint_kind: "parametrization" for the catalog's eta = const gauge
    (the multiplier is eliminated from the Euler-Lagrange system), or
    "syzygy" for the surface demonstration (the multiplier cancels
    identically after reduction modulo the syzygy)."""

    frame: MovingFrame
    expr: Expr
    constraint: Expr | None = None
    constraint_kind: str = "parametrization"

    @property
    def independents(self) -> tuple[str, ...]:
        return self.frame.spec.independent

    def total(self) -> Expr:
        if self.constraint is None:
            return self.expr
        lam = self.frame.spec.registry.expr(MULTIPLIER)
        return self.expr + lam * self.constraint


def make_lagrangian(frame: MovingFrame, expr: Expr,
                    with_constraint: bool = True,
                    syzygy_constraint: bool = False) -> InvariantLagrangian:
    """Attach the catalog's parametrization constraint (eta = 1 with a
    multiplier) when the entry declares one; optionally attach the
    generator syzygy as a constraint instead (surface demonstration)."""
    spec = frame.spec
    if syzygy_constraint:
        rel = frame.relations
        if not rel:
            raise DerivationError(f"{spec.name}: no generator syzygy to constrain")
        (gname, i), rhs = next(iter(rel.items()))
        inv_js = frame.inv_space()
        lhs = inv_js.coord(gname, MultiIndex.zero(inv_js.p).bump(i))
        return InvariantLagrangian(frame, expr, lhs - rhs, "syzygy")
    if with_constraint and spec.constraint is not None:
        gen = spec.registry.expr(spec.constraint["generator"])
        return InvariantLagrangian(frame, expr, gen - spec.constraint["value"],
                                   "parametrization")
    return InvariantLagrangian(frame, expr)


@dataclass
class DerivationContext:
    """Shared symbolic scaffolding for one (frame, Lagrangian) derivation."""

    frame: MovingFrame
    lagrangian: InvariantLagrangian
    table: InvariantTable
    H: SyzygyOperators
    inv_js: JetSpace
    formal_js: JetSpace
    formal_base: list[str]
    expansions: dict[str, Expr]
    isym_to_formal: dict[str, Expr]

    @property
    def spec(self) -> GroupActionSpec:
        return self.frame.spec


def _context(frame: MovingFrame, L: InvariantLagrangian) -> DerivationContext:
    gen_js = frame.inv_space()
    # Table depth: per generator, its coordinate order (which bounds the
    # order of its syzygy operator) plus the highest derivative of that
    # generator appearing in the total Lagrangian.
    total = L.total()
    depth = 0
    for g in frame.spec.generators:
        lmax = 0
        for name in total.free_names():
            parsed = gen_js.parse_coord(name)
            if parsed is not None and parsed[0] == g["name"]:
                lmax = max(lmax, parsed[1].order)
        depth = max(depth, g["order"] + max(lmax, 1))
    if depth > MAX_DERIVATION_DEPTH:
        raise DerivationError(
            f"derivation depth {depth} (generator order plus Lagrangian order) "
            f"exceeds the maximum, {MAX_DERIVATION_DEPTH}")
    if frame.tau_context is not None and frame.tau_context[0] >= depth:
        depth, table, exp4 = frame.tau_context
    else:
        table = build_invariant_table(frame, depth, tau=True)
        exp4 = _tau_expansions(table, depth - 1)
        frame.tau_context = (depth, table, exp4)
    H = syzygy_operators(frame, table, max_order=depth - 1, expansions=exp4)
    inv_js = frame.inv_space(multiplier=True)
    formal_js, base_names, expansions, isym_to_formal = exp4
    return DerivationContext(frame, L, table, H, inv_js, formal_js,
                             list(base_names), expansions, isym_to_formal)


# ---------------------------------------------------------------------------
# Generator syzygy relations and reduction
# ---------------------------------------------------------------------------

def generator_relations(frame: MovingFrame) -> dict[tuple[str, int], Expr]:
    """Relations among generator jets: for a generator g and direction i,
    when the replacement of D_i(explicit g) is not the formal coordinate
    g_i, the pair maps to its generator-symbol value (e.g. the surface
    syzygy sigma_t = kappa_xxx + 2 sigma kappa_x + sigma_x kappa)."""
    spec = frame.spec
    table = build_invariant_table(frame, spec.generator_order + 1)
    js = frame.jet_space()
    inv_js = frame.inv_space()
    out = {}
    for g in spec.generators:
        for i, ind in enumerate(spec.independent):
            d = total_derivative(g["explicit"], i, js)
            form = table.replace(d)
            coord = inv_js.coord(g["name"], MultiIndex.zero(inv_js.p).bump(i))
            if not is_zero(form - coord):
                out[(g["name"], i)] = form
    return out


def syzygy_reduce(e: Expr, frame: MovingFrame,
                  relations: dict[tuple[str, int], Expr] | None = None) -> Expr:
    """Rewrite generator jets modulo the generator syzygies: every
    coordinate of a related generator carrying a derivative in the related
    direction is replaced, repeatedly, until none remain."""
    if relations is None:
        relations = frame.relations
    if not relations:
        return canonical(e)
    inv_js = frame.inv_space(multiplier=True)
    cur = canonical(e)
    for _ in range(64):
        target = None
        for name in sorted(cur.free_names()):
            parsed = inv_js.parse_coord(name)
            if parsed is None:
                continue
            gname, K = parsed
            for (rg, ri), rhs in relations.items():
                if gname == rg and K.counts[ri] >= 1:
                    target = (name, K, ri, rhs)
                    break
            if target:
                break
        if target is None:
            return cur
        name, K, ri, rhs = target
        repl = total_derivative_multi(rhs, K.drop(ri), inv_js)
        cur = subst(cur, {name: repl})
    raise DerivationError("syzygy reduction did not terminate")


# ---------------------------------------------------------------------------
# Deterministic integration by parts
# ---------------------------------------------------------------------------

def _ibp(expr: Expr, js: JetSpace, targets: tuple[str, ...]):
    """Split an expression linear in the jets of the target dependents as

        expr = sum_t E_t * t  +  sum_i D_i(P_i)

    moving one derivative at a time off the highest-ranked target jet
    (order, dependent index, counts), lowest direction first.
    Returns (E: dict target -> Expr, P: dict direction index -> Expr).

    The expression is kept as a target-jet coefficient map so each step
    only canonicalizes one coefficient.
    """
    E: dict[str, Expr] = {t: Expr(0) for t in targets}
    P: dict[int, sp.Expr] = {}
    tset = set(targets)
    s = canonical(expr).sympy

    def rank(name):
        parsed = js.parse_coord(name)
        if parsed is None or parsed[0] not in tset:
            return None
        dep, K = parsed
        return (K.order, js.dependent.index(dep), K.counts)

    coeffs: dict[str, sp.Expr] = {}
    check = s
    for tsym in sorted(s.free_symbols, key=lambda t: t.name):
        if rank(tsym.name) is None:
            continue
        c = sp.diff(s, tsym)
        if any(rank(t.name) is not None for t in c.free_symbols):
            raise DerivationError(f"variation not linear in {tsym.name}")
        coeffs[tsym.name] = c
        check = check - c * tsym
    if sp.cancel(sp.together(check)) != 0:
        raise DerivationError(f"non-homogeneous variation remainder: {check}")

    guard = 0
    while coeffs:
        guard += 1
        if guard > 5000:
            raise DerivationError("integration by parts did not terminate")
        top = max(coeffs, key=lambda n: rank(n))
        c = sp.cancel(sp.together(coeffs.pop(top)))
        if c == 0:
            continue
        dep, K = js.parse_coord(top)
        if K.order == 0:
            E[dep] = canonical(E[dep] + Expr(c))
            continue
        i = K.directions()[0]
        lower = js.coord_name(dep, K.drop(i))
        P[i] = P.get(i, sp.Integer(0)) + c * js.registry.sympy_symbol(lower)
        moved = total_derivative(Expr(c), i, js).sympy
        coeffs[lower] = coeffs.get(lower, sp.Integer(0)) - moved
    return E, {i: canonical(Expr(v)) for i, v in P.items()}


# ---------------------------------------------------------------------------
# Invariantized Euler-Lagrange equations
# ---------------------------------------------------------------------------

def euler_terms(L: InvariantLagrangian, inv_js: JetSpace) -> dict[str, Expr]:
    """E^kappa_j(L_total) for each generator."""
    total = L.total()
    return {g: euler_operator(total, g, inv_js)
            for g in L.frame.generator_names()}


def invariant_el(L: InvariantLagrangian, H: SyzygyOperators,
                 reduce_syzygies: bool = True) -> dict[str, Expr]:
    """E^a(L) = sum_j H*_ja E^kappa_j(L_total) for each dependent variable.

    For entries with generator syzygies (the surface case) the result is
    reduced modulo them, which is where multiplier terms cancel."""
    frame = L.frame
    spec = frame.spec
    inv_js = frame.inv_space(multiplier=True)
    Ehat = euler_terms(L, inv_js)
    out: dict[str, Expr] = {}
    relations = frame.relations if reduce_syzygies else {}
    for dep in spec.dependent:
        total = Expr(0)
        for g in frame.generator_names():
            Hstar = H.op(g, dep).adjoint(inv_js)
            total = total + Hstar.apply(Ehat[g], inv_js)
        if relations:
            total = syzygy_reduce(total, frame, relations)
        out[dep] = canonical(total)
    return out


# ---------------------------------------------------------------------------
# Boundary coefficients
# ---------------------------------------------------------------------------

@dataclass
class BoundaryCoefficients:
    """C^a_{i,J}: per independent variable i, the coefficient of the
    symbol I^a_{tau J} in the boundary term P_i."""

    frame: MovingFrame
    directions: tuple[str, ...]
    coeffs: dict[tuple[str, str, MultiIndex], Expr]  # (ind, dep, J) -> C
    max_j_order: int

    def coeff(self, ind: str, dep: str, J: MultiIndex) -> Expr:
        return self.coeffs.get((ind, dep, J), Expr(0))

    def vector(self, ind: str):
        """Ordered [(dep, J, C), ...] for one direction."""
        spec = self.frame.spec
        p = len(spec.independent)
        out = []
        for dep in spec.dependent:
            for J in MultiIndex.up_to_order(p, self.max_j_order):
                c = self.coeff(ind, dep, J)
                out.append((dep, J, c))
        return out


def _variation_integrand(ctx: DerivationContext, w_js: JetSpace,
                         w_names: dict[str, str]) -> Expr:
    """sum_{j,K} dL/d(kappa_j)_K * (w_j)_K with w_j = D_tau kappa_j."""
    L_total = ctx.lagrangian.total()
    inv_js = ctx.inv_js
    out = Expr(0)
    for name in sorted(L_total.free_names()):
        parsed = inv_js.parse_coord(name)
        if parsed is None:
            continue
        dep, K = parsed
        if dep not in w_names:
            continue  # multiplier jets: D_tau lambda = 0
        dL = Expr(sp.diff(L_total.sympy, inv_js.registry.sympy_symbol(name)))
        out = out + dL * w_js.coord(w_names[dep], K)
    return canonical(out)


def boundary_coeffs(L: InvariantLagrangian, verify: bool = True,
                    rng: random.Random | None = None,
                    ctx: DerivationContext | None = None) -> BoundaryCoefficients:
    """Two-stage symbolic integration by parts.

    Stage 1 moves D_K off D_tau kappa_j; stage 2 substitutes the syzygies
    D_tau kappa_j = sum_a H_ja I^a_tau and moves derivatives off I^a_tau.
    The boundary content is finally re-expressed in the I^a_{tau J}
    symbols via the tau-extended invariant table. With ``verify`` the
    defining integration-by-parts identity is checked (_verify_boundary),
    and so is the null divergence of the surface multiplier terms.
    """
    frame = L.frame
    if ctx is None:
        ctx = _context(frame, L)
    work_js, V, E2, out = _integrate_by_parts(ctx)
    if verify:
        _verify_boundary(ctx, work_js, V, E2, out, rng)
    if L.constraint is not None and L.constraint_kind == "syzygy":
        out = _drop_multiplier_null_divergence(ctx, work_js, out, rng, verify)
    return out


def _integrate_by_parts(ctx: DerivationContext):
    """The two stages of boundary_coeffs, in a formal jet space work_js over
    the generators, the multiplier, w_j = D_tau kappa_j and the I^a_tau.

    Returns (work_js, V, E2, bc): the variation V with the syzygies
    substituted for the w_j, the coefficients E2 of the I^a_tau, and the
    boundary coefficients of V = sum_a E2_a I^a_tau + sum_i D_i(P_i)."""
    frame = ctx.frame
    spec = frame.spec
    registry = spec.registry
    p = len(spec.independent)

    # Formal dependents w_j = D_tau kappa_j.
    w_names = {g: f"Dtau_{g}" for g in frame.generator_names()}
    all_deps = (ctx.inv_js.dependent + tuple(w_names.values())
                + tuple(ctx.formal_base))
    work_js = JetSpace(spec.independent, all_deps, registry=registry,
                       kind=KIND_AUXILIARY)

    V1 = _variation_integrand(ctx, work_js, w_names)
    E1, P1 = _ibp(V1, work_js, tuple(w_names.values()))

    # Syzygy substitution: w_j -> sum_a H_ja (I^a_tau), as formal jets.
    phi = {}
    for g in frame.generator_names():
        acc = Expr(0)
        for di, dep in enumerate(spec.dependent):
            base = work_js.coord(ctx.formal_base[di], MultiIndex.zero(p))
            acc = acc + ctx.H.op(g, dep).apply(base, work_js)
        phi[w_names[g]] = canonical(acc)

    def subst_w(e: Expr) -> Expr:
        bind = {}
        for name in e.free_names():
            parsed = work_js.parse_coord(name)
            if parsed is None or parsed[0] not in phi:
                continue
            wdep, K = parsed
            bind[name] = total_derivative_multi(phi[wdep], K, work_js)
        return subst(e, bind) if bind else e

    V2 = Expr(0)
    for g in frame.generator_names():
        V2 = V2 + E1[w_names[g]] * phi[w_names[g]]
    E2, P2 = _ibp(V2, work_js, tuple(ctx.formal_base))

    P: dict[int, Expr] = {}
    for i in range(p):
        total = Expr(0)
        if i in P1:
            total = total + subst_w(P1[i])
        if i in P2:
            total = total + P2[i]
        P[i] = canonical(total)

    # Convert formal I^a_tau jets to I^a_{tauJ} symbols.
    def to_isyms(e: Expr) -> Expr:
        bind = {}
        for name in e.free_names():
            parsed = work_js.parse_coord(name)
            if parsed is None or parsed[0] not in ctx.formal_base:
                continue
            bind[name] = ctx.expansions[name]
        return subst(e, bind) if bind else e

    coeffs: dict[tuple[str, str, MultiIndex], Expr] = {}
    max_j = 0
    for i in range(p):
        Pi = to_isyms(P[i])
        s = Pi.sympy
        residual = s
        for di, dep in enumerate(spec.dependent):
            for J in MultiIndex.up_to_order(p, ctx.table.order - 1):
                iname = _isym_name(dep, J, spec.independent)
                if not registry.known(iname):
                    continue
                isym = registry.sympy_symbol(iname)
                c = sp.diff(s, isym)
                if c == 0:
                    continue
                c = canonical(Expr(c))
                coeffs[(spec.independent[i], dep, J)] = c
                max_j = max(max_j, J.order)
                residual = residual - c.sympy * isym
        if not is_zero(Expr(residual)):
            raise DerivationError(
                f"boundary term along {spec.independent[i]} is not linear "
                f"in the I^a_tauJ symbols")

    bc = BoundaryCoefficients(frame, spec.independent, coeffs, max_j)
    return work_js, subst_w(V1), E2, bc


def _formal_boundary(ctx: DerivationContext, coeffs) -> Expr:
    """sum C * I^a_{tau J} with each I-symbol written through formal jets
    of the I^a_tau (ctx.isym_to_formal); coeffs is [(dep, J, C), ...]."""
    ind = ctx.spec.independent
    out = Expr(0)
    for dep, J, c in coeffs:
        out = out + c * ctx.isym_to_formal[_isym_name(dep, J, ind)]
    return out


def _explicit_image(ctx: DerivationContext, e: Expr, memo: dict) -> Expr:
    """e, in generator jets and formal jets D_J I^a_tau, written out in jet
    coordinates with tau: D_J I^a_tau becomes D_J of the explicit u^a_tau
    invariant (memoized by coordinate name in ``memo``)."""
    spec = ctx.spec
    table = ctx.table
    js = ctx.frame.jet_space(tau=True)
    p = len(spec.independent)
    bind = {}
    for name in e.free_names():
        parsed = ctx.formal_js.parse_coord(name)
        if parsed is None:
            continue
        if name not in memo:
            base, J = parsed
            dep = spec.dependent[ctx.formal_base.index(base)]
            u_tau = table.explicit[js.coord_name(dep, MultiIndex.zero(p + 1).bump(p))]
            memo[name] = total_derivative_multi(u_tau, MultiIndex(J.counts + (0,)), js)
        bind[name] = memo[name]
    return table.generators_to_jets(subst(e, bind))


def _multiplier_part(e: Expr, inv_js: JetSpace) -> Expr:
    """Terms of e containing a jet of the multiplier."""
    lam_syms = [s for s in e.sympy.free_symbols
                if (p := inv_js.parse_coord(s.name)) is not None and p[0] == MULTIPLIER]
    if not lam_syms:
        return Expr(0)
    out = sp.Integer(0)
    num, den = sp.fraction(sp.together(e.sympy))
    for term in sp.Add.make_args(sp.expand(num)):
        if any(s in term.free_symbols for s in lam_syms):
            out += term
    return canonical(Expr(out / den))


def _drop_multiplier_null_divergence(ctx: DerivationContext, work_js: JetSpace,
                                     bc: BoundaryCoefficients, rng,
                                     verify: bool = True) -> BoundaryCoefficients:
    """For the syzygy-constrained surface case the multiplier terms of the
    boundary assemble into a null divergence; drop them, which leaves the
    standard multiplier-free boundary output.

    With ``verify``, sum_i D_i(P_i^lambda) is checked to vanish formally,
    in work_js with the I-symbols written through formal jets, modulo the
    generator syzygies (syzygy_reduce); and each of those relations,
    D_i(explicit g) = rhs, is checked in explicit jets. With the I-symbol
    forms that _verify_boundary checks, this is the null divergence in
    explicit jets."""
    spec = ctx.spec
    inv_js = ctx.inv_js

    kept: dict[tuple[str, str, MultiIndex], Expr] = {}
    lam_terms: dict[int, list] = {i: [] for i in range(len(spec.independent))}
    for (ind, dep, J), c in bc.coeffs.items():
        lam_part = _multiplier_part(c, inv_js)
        c0 = canonical(c - lam_part)
        if not c0.is_zero_literal():
            kept[(ind, dep, J)] = c0
        if not lam_part.is_zero_literal():
            lam_terms[spec.independent.index(ind)].append((dep, J, lam_part))
    if verify:
        frame = ctx.frame
        resid = Expr(0)
        for i, terms in lam_terms.items():
            resid = resid + total_derivative(_formal_boundary(ctx, terms), i, work_js)
        if not zero_verdict(syzygy_reduce(resid, frame), rng=rng).zero:
            raise VerificationFailure(
                f"{spec.name}: multiplier boundary terms are not a null divergence")
        js = frame.jet_space(tau=True)
        explicit = {g["name"]: g["explicit"] for g in spec.generators}
        for (g, i), rhs in frame.relations.items():
            lhs = total_derivative(explicit[g], i, js)
            if not zero_verdict(lhs - ctx.table.generators_to_jets(rhs), rng=rng).zero:
                raise VerificationFailure(
                    f"{spec.name}: generator relation D_{spec.independent[i]} {g} "
                    f"fails in explicit jets")
    return BoundaryCoefficients(bc.frame, bc.directions, kept, bc.max_j_order)


def _verify_boundary(ctx: DerivationContext, work_js: JetSpace, V: Expr,
                     E2: dict[str, Expr], bc: BoundaryCoefficients, rng) -> None:
    """Verify the integration-by-parts identity
    V = sum_a E2_a I^a_tau + sum_i D_i(P_i) in three parts:

    1. formally, in work_js, with P_i rebuilt from the coefficients as
       sum C^a_{i,J} isym_to_formal[I^a_{tau J}];
    2. the syzygies D_tau kappa_j = sum_a H_ja I^a_tau, in explicit jets
       (frame.verify_syzygies);
    3. in explicit jets, for each I-symbol with a nonzero coefficient, its
       formal form: the explicit invariant of u^a_{J tau} equals the image
       of isym_to_formal[I^a_{tau J}].

    The map from formal to explicit jets (generators to their explicit
    forms, D_J I^a_tau to D_J of the explicit u^a_tau) commutes with the
    D_i, since no catalog entry moves its independents; by 2 it takes V to
    the variation in explicit jets, and by 3 each P_i to its explicit form.
    So 1-3 give the identity with every side written out in jet
    coordinates with tau."""
    spec = ctx.spec
    table = ctx.table
    p = len(spec.independent)

    resid = V
    for base in ctx.formal_base:
        resid = resid - E2[base] * work_js.coord(base, MultiIndex.zero(p))
    for i, ind in enumerate(spec.independent):
        terms = [(dep, J, c) for dep, J, c in bc.vector(ind) if not c.is_zero_literal()]
        resid = resid - total_derivative(_formal_boundary(ctx, terms), i, work_js)
    if not zero_verdict(resid, rng=rng).zero:
        raise VerificationFailure(
            f"{spec.name}: integration-by-parts identity residual is nonzero")

    if not verify_syzygies(ctx.H, table, rng):
        raise VerificationFailure(
            f"{spec.name}: syzygy operators fail in explicit jets")

    memo: dict[str, Expr] = {}
    used = sorted({_isym_name(dep, J, spec.independent)
                   for (_, dep, J), c in bc.coeffs.items() if not c.is_zero_literal()})
    for iname in used:
        image = _explicit_image(ctx, ctx.isym_to_formal[iname], memo)
        if not zero_verdict(table.explicit[table.isym_coord[iname]] - image,
                            rng=rng).zero:
            raise VerificationFailure(
                f"{spec.name}: the formal form of {iname} fails in explicit jets")


# ---------------------------------------------------------------------------
# Noether laws
# ---------------------------------------------------------------------------

@dataclass
class ConservationLawSet:
    """Ad(rho)^-1 (jet-coordinate entries), per-direction invariant vectors
    upsilon_i(I), constants c_1..c_r, and the Killing form."""

    frame: MovingFrame
    ad_inv: tuple[tuple[Expr, ...], ...]
    upsilon: dict[str, tuple[Expr, ...]]
    constants: tuple[Expr, ...]
    killing: KillingMatrix
    boundary: BoundaryCoefficients
    el: dict[str, Expr]
    multiplier_value: Expr | None = None

    @property
    def spec(self) -> GroupActionSpec:
        return self.frame.spec

    @property
    def r(self) -> int:
        return len(self.constants)

    def law_components(self, ind: str | None = None) -> tuple[Expr, ...]:
        """Entries of Ad(rho)^-1 upsilon_i(I) (mixed jet and generator
        symbols). For one independent variable these equal the constants."""
        ind = ind if ind is not None else self.spec.independent[0]
        ups = self.upsilon[ind]
        rows = []
        for i in range(self.r):
            acc = Expr(0)
            for j in range(self.r):
                acc = acc + self.ad_inv[i][j] * ups[j]
            rows.append(canonical(acc))
        return tuple(rows)


def _ad_inv_at_frame(frame: MovingFrame) -> tuple[tuple[Expr, ...], ...]:
    """Ad(rho)^-1 = Ad(rho^-1)."""
    return adjoint_matrix(frame.spec, frame.spec.inverse_map(frame.params))


def noether_laws(L: InvariantLagrangian, frame: MovingFrame,
                 verify: bool = True, rng: random.Random | None = None
                 ) -> ConservationLawSet:
    """Assemble the structured conservation laws
    sum_i D_i( Ad(rho)^-1 upsilon_i(I) ) = 0 with
    upsilon_i(I) = sum_a Omega^a(I) C^a_i.

    For parametrization-constrained entries the multiplier is eliminated
    (using the Euler-Lagrange equations) and the constraint substituted;
    for the syzygy-constrained surface case the multiplier cancels after
    syzygy reduction."""
    spec = frame.spec
    ctx = _context(frame, L)
    bc = boundary_coeffs(L, verify=verify, rng=rng, ctx=ctx)
    el = invariant_el(L, ctx.H)

    relations = frame.relations

    # upsilon_i = sum_a Omega^a(I) C^a_i
    p = len(spec.independent)
    upsilon: dict[str, tuple[Expr, ...]] = {}
    js = frame.jet_space()
    for ind in spec.independent:
        vec = [Expr(0)] * spec.r
        for dep in spec.dependent:
            entries = [(J, c) for (i2, d2, J), c in bc.coeffs.items()
                       if i2 == ind and d2 == dep]
            if not entries:
                continue
            coords = [js.coord_name(dep, J) for J, _ in entries]
            om = infinitesimal_matrix(spec, coords)
            om_inv_rows = [[ctx.table.replace(om.at(i, k))
                            for k in range(len(coords))]
                           for i in range(spec.r)]
            for i in range(spec.r):
                acc = vec[i]
                for k, (J, c) in enumerate(entries):
                    acc = acc + om_inv_rows[i][k] * c
                vec[i] = acc
        upsilon[ind] = tuple(canonical(v) for v in vec)

    el_out = dict(el)
    lam_value = None
    if L.constraint is not None and L.constraint_kind == "parametrization":
        el_out, lam_value = eliminate_multiplier(
            el, L, frame, return_multiplier=True)
        lam_bind = _multiplier_bindings(
            frame, lam_value, [v for vec in upsilon.values() for v in vec])
        upsilon = {ind: tuple(
                       canonical(frame.constraint_reduction(subst(v, lam_bind)))
                       for v in vec)
                   for ind, vec in upsilon.items()}
    elif relations:
        upsilon = {ind: tuple(syzygy_reduce(v, frame, relations) for v in vec)
                   for ind, vec in upsilon.items()}

    # integration constants
    consts = []
    for i in range(spec.r):
        name = f"c{i+1}"
        if not spec.registry.known(name):
            spec.registry.register(name, KIND_CONSTANT)
        consts.append(spec.registry.expr(name))

    return ConservationLawSet(frame, _ad_inv_at_frame(frame), upsilon,
                              tuple(consts), killing_form(spec), bc, el_out,
                              lam_value)


# ---------------------------------------------------------------------------
# Multiplier elimination
# ---------------------------------------------------------------------------

def _multiplier_bindings(frame: MovingFrame, lam_value: Expr, exprs) -> dict[str, Expr]:
    """D^K lambda for each multiplier jet lambda_K occurring in exprs."""
    inv_js = frame.inv_space(multiplier=True)
    out = {}
    for e in exprs:
        for name in e.free_names() - out.keys():
            parsed = inv_js.parse_coord(name)
            if parsed is not None and parsed[0] == MULTIPLIER:
                out[name] = total_derivative_multi(lam_value, parsed[1], inv_js)
    return out


def eliminate_multiplier(el_system: dict[str, Expr], L: InvariantLagrangian,
                         frame: MovingFrame, return_multiplier: bool = False):
    """Eliminate the Lagrange multiplier from an Euler-Lagrange system.

    The constraint (eta = const) is substituted first; an equation in
    which lambda appears only differentiated is integrated exactly (the
    integration constant is set to zero), otherwise lambda is solved
    algebraically; the solution is substituted everywhere.
    """
    spec = frame.spec
    inv_js = frame.inv_space(multiplier=True)
    if L.constraint is None:
        return (dict(el_system), None) if return_multiplier else dict(el_system)

    system = {dep: canonical(frame.constraint_reduction(e))
              for dep, e in el_system.items()}

    def lam_jets(e: Expr):
        return [n for n in e.free_names()
                if (p := inv_js.parse_coord(n)) is not None and p[0] == MULTIPLIER]

    lam_value = None
    for dep in sorted(system, key=lambda d: spec.dependent.index(d)):
        eq = system[dep]
        names = lam_jets(eq)
        if not names:
            continue
        lamsyms = [spec.registry.sympy_symbol(n) for n in names]
        for s in lamsyms:
            if sp.diff(eq.sympy, s, 2) != 0:
                raise NonlinearMultiplierError(
                    f"multiplier appears nonlinearly in E^{dep}")
        orders = [inv_js.parse_coord(n)[1].order for n in names]
        if min(orders) >= 1 and len(names) == 1 and orders[0] == 1:
            # lambda_s = g  ->  lambda = integral of g (constant set to 0)
            s = lamsyms[0]
            coeff = Expr(sp.diff(eq.sympy, s))
            rest = canonical(Expr(eq.sympy - coeff.sympy * s))
            rhs = canonical(Expr(0) - rest / coeff)
            try:
                lam_value = integrate_total(rhs, inv_js, 0)
            except NotTotalDerivativeError as exc:
                raise NonlinearMultiplierError(
                    f"cannot integrate multiplier equation: {exc}")
            break
        if 0 in orders:
            s = spec.registry.sympy_symbol(inv_js.coord_name(
                MULTIPLIER, MultiIndex.zero(inv_js.p)))
            coeff = Expr(sp.diff(eq.sympy, s))
            if coeff.is_zero_literal():
                continue
            rest = canonical(Expr(eq.sympy - coeff.sympy * s))
            if lam_jets(rest):
                continue
            lam_value = canonical(Expr(0) - rest / coeff)
            break
    if lam_value is None:
        raise NonlinearMultiplierError("no solvable multiplier equation found")

    bind = _multiplier_bindings(frame, lam_value, system.values())
    out = {}
    for dep, e in system.items():
        r = canonical(subst(e, bind))
        if not r.is_zero_literal():
            out[dep] = r
    if return_multiplier:
        return out, lam_value
    return out


# ---------------------------------------------------------------------------
# Killing first integral and the reduced system
# ---------------------------------------------------------------------------

def _b_inverse(laws: ConservationLawSet) -> sp.Matrix:
    B = laws.killing.sympy()
    if B.det() == 0:
        raise SingularKillingFormError(
            f"{laws.spec.name}: Killing form is singular (group not semisimple)")
    return B.inv()


def killing_first_integral(laws: ConservationLawSet):
    """upsilon(I)^T B^-1 upsilon(I) = c^T B^-1 c, one independent variable."""
    spec = laws.spec
    if len(spec.independent) != 1:
        raise DerivationError("Killing first integral needs one independent variable")
    Binv = _b_inverse(laws)
    ups = laws.upsilon[spec.independent[0]]
    lhs = Expr(0)
    rhs = Expr(0)
    for i in range(laws.r):
        for j in range(laws.r):
            w = Fraction(int(Binv[i, j].p), int(Binv[i, j].q))
            if w == 0:
                continue
            lhs = lhs + Expr(w) * ups[i] * ups[j]
            rhs = rhs + Expr(w) * laws.constants[i] * laws.constants[j]
    return canonical(lhs), canonical(rhs)


def reduced_system(laws: ConservationLawSet) -> list[Expr]:
    """Omega(z)^T Ad(rho)^T B^-1 upsilon(I) - Omega(z)^T B^-1 c = 0 rows,
    trivial rows dropped; expressions mix base coordinates, generator
    symbols, and the constants."""
    spec = laws.spec
    if len(spec.independent) != 1:
        raise DerivationError("reduced system needs one independent variable")
    if all(u.is_zero_literal() for u in laws.upsilon[spec.independent[0]]):
        return []  # trivial laws force c = 0; nothing to reduce
    Binv = _b_inverse(laws)
    # Ad B Ad^T = B gives Ad(rho) = B Ad(rho)^-T B^-1.
    ad_inv = sp.Matrix([[e.sympy for e in row] for row in laws.ad_inv])
    ad_rho = laws.killing.sympy() * ad_inv.T * Binv
    om = infinitesimal_matrix(spec, list(spec.dependent)).sympy()  # r x q
    ups = sp.Matrix([[u.sympy] for u in laws.upsilon[spec.independent[0]]])
    cvec = sp.Matrix([[c.sympy] for c in laws.constants])
    lhs = om.T * ad_rho.T * Binv * ups
    rhs = om.T * Binv * cvec
    rows = []
    for k in range(om.cols):
        e = canonical(Expr(sp.cancel(sp.together(lhs[k, 0] - rhs[k, 0]))))
        if not e.is_zero_literal():
            rows.append(e)
    return rows

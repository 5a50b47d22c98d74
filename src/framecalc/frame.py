"""Moving frames, invariantization, invariant tables, and syzygies.

solve_frame verifies a catalog entry's closed-form frame against its
normalization equations (symbolically) and its equivariance (numerically).
invariantize computes g.e evaluated at the frame. build_invariant_table
assigns every jet coordinate two faces: the explicit invariantization and
an expression in the generating-invariant symbols, obtained order by
order from the identity

    formal D_i (generator form of I^a_K) = replacement(D_i explicit I^a_K),

which is linear in the one new top-order symbol. The tau extension adds a
dummy invariant independent variable and fresh symbols I^a_{tau J}, from
which syzygy operators D_tau kappa_j = sum_a H_ja I^a_tau are collected.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property

import sympy as sp

from .jetcalc import TAU, JetSpace, MultiIndex, total_derivative, total_derivative_multi
from .liegroup import MULTIPLIER, GroupActionSpec
from .symexpr import (
    Expr,
    SymExprError,
    KIND_GENERATOR,
    KIND_AUXILIARY,
    canonical,
    eval_num,
    is_zero,
    subst,
    zero_verdict,
)

__all__ = [
    "MovingFrame",
    "InvariantTable",
    "SyzygyOperators",
    "FrameVerificationError",
    "NotInvariantError",
    "NonlinearSolveError",
    "CollectionError",
    "solve_frame",
    "invariantize",
    "build_invariant_table",
    "rewrite_in_invariants",
    "syzygy_operators",
]

class FrameVerificationError(SymExprError):
    pass


class NotInvariantError(SymExprError):
    pass


class NonlinearSolveError(SymExprError):
    pass


class CollectionError(SymExprError):
    pass


@dataclass
class MovingFrame:
    """Equivariant map from the jet space to the group, in parametric form."""

    spec: GroupActionSpec
    params: dict[str, Expr]  # free group parameters as jet-coordinate exprs
    # The deepest tau-extended table built so far, as (depth, table,
    # tau expansions); see varcalc._context.
    tau_context: tuple | None = field(default=None, init=False, repr=False,
                                      compare=False)

    @property
    def registry(self):
        return self.spec.registry

    def generator_names(self) -> tuple[str, ...]:
        return tuple(g["name"] for g in self.spec.generators)

    def jet_space(self, tau: bool = False) -> JetSpace:
        return self.spec.jet_space(tau)

    def inv_space(self, multiplier: bool = False) -> JetSpace:
        """Formal jet space over the generating invariants, with the
        multiplier lambda as a further dependent when ``multiplier``."""
        return self._inv_spaces[multiplier]

    @cached_property
    def _inv_spaces(self) -> tuple[JetSpace, JetSpace]:
        names = self.generator_names()
        return tuple(JetSpace(self.spec.independent, deps, registry=self.registry,
                              kind=KIND_GENERATOR)
                     for deps in (names, names + (MULTIPLIER,)))

    def constraint_reduction(self, e: Expr) -> Expr:
        """For entries with a parametrization constraint (eta = 1): e with
        the constrained generator's jets in it substituted (eta by its
        value, its derivatives by 0)."""
        c = self.spec.constraint
        if c is None:
            return e
        inv_js = self.inv_space()
        bind = {}
        for name in e.free_names():
            parsed = inv_js.parse_coord(name)
            if parsed is not None and parsed[0] == c["generator"]:
                bind[name] = c["value"] if parsed[1].order == 0 else Expr(0)
        return subst(e, bind)

    @cached_property
    def relations(self) -> dict:
        """Generator syzygy relations (see varcalc.generator_relations)."""
        from .varcalc import generator_relations
        return generator_relations(self)


def invariantize(e: Expr, frame: MovingFrame, tau: bool = False) -> Expr:
    """(g.e)|_{g=rho(z)}: transform jet coordinates by the prolonged action,
    then substitute the frame parameters."""
    spec = frame.spec
    js = frame.jet_space(tau=tau)
    pro = spec.prolonged_action(tau=tau)
    bind = {}
    for name in e.free_names():
        if js.parse_coord(name) is not None:
            bind[name] = pro[name]
    ge = subst(e, bind)
    return subst(ge, frame.params)


def solve_frame(spec: GroupActionSpec, verify: bool = True, samples: int = 50,
                rng: random.Random | None = None, tol: float = 1e-9) -> MovingFrame:
    """Return the catalog's closed-form frame, verified.

    Checks, in order: psi_i(rho(z).z) = 0 symbolically; rho = identity on
    the cross-section; the declared generator invariants match their
    explicit invariantizations; numeric equivariance rho(g.z) = rho(z)g^-1
    at random (g, z) samples.
    """
    frame = MovingFrame(spec, dict(spec.frame_exprs))
    if not verify:
        return frame

    # psi check: normalized coordinates invariantize to their targets.
    for coord, target in spec.normalizations:
        resid = invariantize(spec.registry.expr(coord), frame) - target
        if not is_zero(resid):
            raise FrameVerificationError(
                f"{spec.name}: normalization psi({coord}) = {target} violated: {resid}")

    # identity on the cross-section.
    cross = {coord: target for coord, target in spec.normalizations}
    for p, e in frame.params.items():
        v = subst(e, cross)
        if not is_zero(v - spec.identity[p]):
            raise FrameVerificationError(
                f"{spec.name}: frame parameter {p} is {v} on the cross-section, "
                f"expected {spec.identity[p]}")

    # declared generators match explicit invariantization.
    for g in spec.generators:
        resid = invariantize(spec.registry.expr(g["coordinate"]), frame) - g["explicit"]
        if not is_zero(resid):
            raise FrameVerificationError(
                f"{spec.name}: generator {g['name']} explicit form mismatch")

    # numeric equivariance.
    rng = rng if rng is not None else random.Random(20240)
    _check_equivariance(frame, samples, rng, tol)
    return frame


def _check_equivariance(frame: MovingFrame, samples: int, rng: random.Random,
                        tol: float) -> None:
    spec = frame.spec
    n_order = spec.frame_order
    pro = spec.prolonged_action(n_order)
    js = frame.jet_space()
    coord_names = [name for _, _, name in js.coords_up_to(n_order)]
    charts = spec.chart_conditions()
    good = 0
    attempts = 0
    while good < samples:
        attempts += 1
        if attempts > 200 * samples:
            raise FrameVerificationError(
                f"{spec.name}: could not draw enough valid equivariance samples")
        gvals = spec.sample_params(rng)
        zvals = spec.sample_point(rng, n_order)
        try:
            if any(eval_num(chart, {**gvals, **zvals}) <= 0.35 for chart in charts):
                continue
            # transformed point g.z on coordinates up to the frame order
            zt = {name: eval_num(pro[name], {**gvals, **zvals}) for name in coord_names}
            rho_gz = {p: eval_num(e, zt) for p, e in frame.params.items()}
            rho_z = {p: eval_num(e, zvals) for p, e in frame.params.items()}
            inv_g = {p: eval_num(e, gvals)
                     for p, e in spec.inverse_map(spec.param_symbol_map()).items()}
            prod = _product_numeric(spec, rho_z, inv_g)
        except SymExprError:
            continue
        ok = True
        for p in spec.params:
            lhs = rho_gz[p]
            rhs = prod[p]
            if abs(lhs - rhs) > tol * (1.0 + abs(rhs)):
                ok = False
                break
        if not ok:
            raise FrameVerificationError(
                f"{spec.name}: equivariance rho(g.z) = rho(z) g^-1 fails at a sample "
                f"(parameter {p}: {lhs} vs {rhs})")
        good += 1


def _product_numeric(spec: GroupActionSpec, g1: dict[str, float],
                     g2: dict[str, float]) -> dict[str, float]:
    from .symexpr import parse

    reg = spec._suffixed_registry(("1", "2"))
    full1, full2 = dict(g1), dict(g2)
    for dname, dexpr in spec.derived.items():
        for full in (full1, full2):
            if dname not in full:
                full[dname] = eval_num(dexpr, full)
    vals = {}
    for p in spec.all_params:
        vals[f"{p}1"] = full1[p]
        vals[f"{p}2"] = full2[p]
    return {p: eval_num(parse(spec._product_src[p], reg), vals) for p in spec.params}


# ---------------------------------------------------------------------------
# Invariant table
# ---------------------------------------------------------------------------

def _isym_name(dep: str, J: MultiIndex, ind_names) -> str:
    suffix = "".join(name * c for name, c in zip(ind_names, J.counts))
    return f"I{dep}_{suffix}{TAU}"


class _LazyExplicit(dict):
    """Explicit invariantizations, computed on first access."""

    def __init__(self, frame: MovingFrame, tau: bool):
        super().__init__()
        self._frame = frame
        self._tau = tau

    def __missing__(self, name: str) -> Expr:
        e = invariantize(self._frame.spec.registry.expr(name), self._frame,
                         tau=self._tau)
        self[name] = e
        return e


@dataclass
class InvariantTable:
    """Per jet coordinate: the explicit invariantization and the expression
    in generator symbols (normalization constants, generator names and
    their formal derivatives; fresh I^a_{tau J} symbols when tau-extended).
    Explicit forms are materialized lazily.
    """

    frame: MovingFrame
    order: int
    tau: bool
    explicit: dict[str, Expr]
    genform: dict[str, Expr]
    isym_coord: dict[str, str]  # I^a_{tau J} symbol -> tau-coordinate name

    @property
    def spec(self):
        return self.frame.spec

    def replace(self, e: Expr) -> Expr:
        """Replacement substitution: every jet coordinate by its generator
        form. Valid on invariant expressions by the Replacement Theorem."""
        js = self.frame.jet_space(self.tau)
        bind = {}
        for name in e.free_names():
            if js.parse_coord(name) is not None:
                if name not in self.genform:
                    raise SymExprError(
                        f"table of order {self.order} has no entry for {name}")
                bind[name] = self.genform[name]
        return subst(e, bind)

    def generators_to_jets(self, e: Expr) -> Expr:
        """Substitute every generator-space symbol (sigma_xx etc.) and
        I^a_{tau J} symbol in e by its explicit jet form."""
        gen_explicit = {g["name"]: g["explicit"] for g in self.spec.generators}
        inv_js = self.frame.inv_space()
        js = self.frame.jet_space(self.tau)
        bind = {}
        for name in e.free_names():
            if name in self.isym_coord:
                bind[name] = self.explicit[self.isym_coord[name]]
            elif (parsed := inv_js.parse_coord(name)) is not None:
                gname, K = parsed
                KK = MultiIndex(K.counts + (0,)) if self.tau else K
                bind[name] = total_derivative_multi(gen_explicit[gname], KK, js)
        return subst(e, bind)

    def to_json_dict(self) -> dict:
        """Serializable table (golden-file form): per coordinate the
        explicit invariantization and the generator form."""
        from .symexpr import to_json_dict
        reg = self.spec.registry
        out = {"entry": self.spec.name, "order": self.order, "tau": self.tau,
               "entries": {}}
        for name in sorted(self.genform):
            out["entries"][name] = {
                "generator_form": to_json_dict(self.genform[name], reg),
                "generator_form_text": str(self.genform[name].sympy),
            }
        return out


def build_invariant_table(frame: MovingFrame, order: int, tau: bool = False) -> InvariantTable:
    """Construct the table of normalized differential invariants to the
    given order (tau=True adds the dummy variable and I^a_{tau J} symbols
    for coordinates with one tau derivative)."""
    spec = frame.spec
    js = frame.jet_space(tau)
    inv_js = frame.inv_space()
    registry = spec.registry

    normalized = {coord: target for coord, target in spec.normalizations}
    gen_by_coord = {g["coordinate"]: g["name"] for g in spec.generators}
    for g in spec.generators:
        if not registry.known(g["name"]):
            registry.register(g["name"], KIND_GENERATOR)

    explicit: dict[str, Expr] = _LazyExplicit(frame, tau)
    genform: dict[str, Expr] = {}
    isym_coord: dict[str, str] = {}

    if order < spec.frame_order:
        raise SymExprError(f"table order {order} below normalization order {spec.frame_order}")

    def tau_count(K: MultiIndex) -> int:
        return K.counts[-1] if tau else 0

    levels: dict[int, list[tuple[str, MultiIndex, str]]] = {}
    for dep in js.dependent:
        for K in MultiIndex.up_to_order(js.p, order):
            if tau_count(K) > 1:
                continue  # second tau derivatives are never needed
            name = js.coord_name(dep, K)
            levels.setdefault(K.order, []).append((dep, K, name))

    for n in sorted(levels):
        unknowns: dict[str, sp.Symbol] = {}
        for dep, K, name in levels[n]:
            if name in normalized:
                genform[name] = normalized[name]
            elif name in gen_by_coord:
                genform[name] = registry.expr(gen_by_coord[name])
            elif tau and tau_count(K) == 1:
                J = MultiIndex(K.counts[:-1])
                iname = _isym_name(dep, J, spec.independent)
                if not registry.known(iname):
                    registry.register(iname, KIND_AUXILIARY)
                genform[name] = registry.expr(iname)
                isym_coord[iname] = name
            else:
                unknowns[name] = sp.Symbol(f"_E_{name}")
        if not unknowns:
            continue

        # One defining identity per unknown, taken from its canonical parent
        # (lowest derivative direction whose parent has a nonconstant
        # explicit form). Identities from other routes are genuine syzygies
        # among the generators and must not enter the solve.
        unames = list(unknowns)
        usyms = [unknowns[n_] for n_ in unames]
        bind_known = {k: v for k, v in genform.items()}
        bind_unknown = {k: Expr(v) for k, v in unknowns.items()}

        def repl_mixed(e: Expr) -> sp.Expr:
            b = {}
            for nm in e.free_names():
                if js.parse_coord(nm) is None:
                    continue
                if nm in bind_known:
                    b[nm] = bind_known[nm]
                elif nm in bind_unknown:
                    b[nm] = bind_unknown[nm]
                else:
                    raise SymExprError(f"missing table entry for {nm} at level {n}")
            return subst(e, b).sympy

        eqs = []
        seen_routes = set()
        for uname in unames:
            dep, K = js.parse_coord(uname)
            route = None
            for i in range(js.p):
                if tau and js.independent[i] == TAU:
                    continue
                if K.counts[i] == 0:
                    continue
                pname = js.coord_name(dep, K.drop(i))
                if pname not in genform or not explicit[pname].free_names():
                    continue
                route = (pname, i)
                break
            if route is None:
                raise SymExprError(
                    f"no usable parent to define the invariant of {uname}")
            if route in seen_routes:
                continue
            seen_routes.add(route)
            pname, i = route
            # I^a_{tau J} symbols are inert under the formal D_i (their
            # derivative relations are what the recurrence solves for), so
            # a parent form must be free of them.
            if genform[pname].free_names() & isym_coord.keys():
                raise SymExprError("formal derivative of an I-symbol form is not defined")
            eq = sp.expand(
                total_derivative(genform[pname], i, inv_js).sympy
                - repl_mixed(total_derivative(explicit[pname], i, js)))
            eqs.append(eq)

        eqs = [e for e in eqs if e != 0]
        for e in eqs:
            for usym in usyms:
                if sp.diff(e, usym, 2) != 0:
                    raise NonlinearSolveError(
                        f"top-order symbol {usym} appears nonlinearly")
        sol = sp.linsolve(eqs, usyms)
        if not sol:
            raise SymExprError(f"inconsistent invariant-table system at level {n}")
        values = next(iter(sol))
        solved = dict(zip(unames, values))
        for nm, val in solved.items():
            if any(s in usyms for s in val.free_symbols):
                raise SymExprError(f"underdetermined table entry for {nm}")
            genform[nm] = canonical(Expr(val))

    return InvariantTable(frame, order, tau, explicit, genform, isym_coord)


def rewrite_in_invariants(e: Expr, table: InvariantTable,
                          rng: random.Random | None = None,
                          check: bool = True) -> Expr:
    """Replacement-Theorem rewrite of an invariant expression into
    generator symbols; raises NotInvariantError when e is not invariant."""
    if check:
        resid = e - invariantize(e, table.frame, tau=table.tau)
        if not zero_verdict(resid, rng=rng).zero:
            raise NotInvariantError(f"expression is not invariant: {e}")
    return table.replace(e)


# ---------------------------------------------------------------------------
# Syzygies
# ---------------------------------------------------------------------------

@dataclass
class SyzygyOperators:
    """D_tau kappa_j = sum_alpha H[j][alpha] I^alpha_tau, entries as
    varcalc.LinDiffOp over the invariant independent variables."""

    frame: MovingFrame
    generators: tuple[str, ...]
    dependents: tuple[str, ...]
    ops: dict  # (gen, dep) -> LinDiffOp

    def op(self, gen: str, dep: str):
        return self.ops[(gen, dep)]


def _tau_expansions(table: InvariantTable, max_order: int):
    """Relations D_J I^a_tau = (linear form in I^b_{tau J'} symbols), and
    the inverse map expressing each I-symbol through formal derivatives of
    the I^a_tau.

    The formal side lives in a jet space whose dependent variables are the
    base symbols I^a_tau, so D_J I^a_tau is the coordinate Ia_tau_{J}.
    """
    spec = table.spec
    js = table.frame.jet_space(tau=True)
    registry = spec.registry
    p = len(spec.independent)

    base_names = [_isym_name(dep, MultiIndex.zero(p), spec.independent)
                  for dep in spec.dependent]
    formal_js = JetSpace(spec.independent, tuple(base_names), registry=registry,
                         kind=KIND_AUXILIARY)

    expansions: dict[str, Expr] = {}  # formal coord name -> I-symbol linear form
    for di, dep in enumerate(spec.dependent):
        expl_base = table.explicit[js.coord_name(
            dep, MultiIndex.zero(p + 1).bump(p))]  # u^a_tau
        for J in MultiIndex.up_to_order(p, max_order):
            e = total_derivative_multi(expl_base, MultiIndex(J.counts + (0,)), js)
            form = table.replace(e)
            cname = formal_js.coord_name(base_names[di], J)
            expansions[cname] = form

    # Invert level by level: solve for the I-symbols in terms of formal coords.
    isym_to_formal: dict[str, Expr] = {}
    for n in range(0, max_order + 1):
        unknown_names = []
        for dep in spec.dependent:
            for J in MultiIndex.all_of_order(p, n):
                unknown_names.append(_isym_name(dep, J, spec.independent))
        eqs = []
        usyms = [registry.sympy_symbol(nm) for nm in unknown_names]
        for di, dep in enumerate(spec.dependent):
            for J in MultiIndex.all_of_order(p, n):
                cname = formal_js.coord_name(base_names[di], J)
                form = expansions[cname]
                # substitute already-inverted lower symbols
                form_s = subst(form, isym_to_formal).sympy
                eqs.append(registry.sympy_symbol(cname) - form_s)
        sol = sp.linsolve(eqs, usyms)
        if not sol:
            raise CollectionError("tau-expansion inversion failed")
        for nm, val in zip(unknown_names, next(iter(sol))):
            isym_to_formal[nm] = canonical(Expr(val))
    return formal_js, base_names, expansions, isym_to_formal


def syzygy_operators(frame: MovingFrame, table: InvariantTable,
                     max_order: int | None = None,
                     expansions=None) -> SyzygyOperators:
    """Derive H with D_tau kappa_j = sum_a H_{j a} I^a_tau.

    D_tau of each generator's explicit form is invariantized via the
    replacement map of the tau table, rewritten through formal derivatives
    of the I^a_tau, and collected as a linear differential operator."""
    from .varcalc import LinDiffOp  # local import to keep module layering simple

    spec = frame.spec
    if not table.tau:
        raise SymExprError("syzygy_operators needs a tau-extended table")
    js = frame.jet_space(tau=True)
    p = len(spec.independent)
    if max_order is None:
        max_order = table.order - 1
    if expansions is None:
        expansions = _tau_expansions(table, max_order)
    formal_js, base_names, _, isym_to_formal = expansions

    ops: dict[tuple[str, str], LinDiffOp] = {}
    for g in spec.generators:
        dtau = total_derivative(g["explicit"], p, js)  # tau is the last direction
        form = table.replace(dtau)
        formal = subst(form, isym_to_formal)
        # collect coefficients of the formal coordinates
        s = formal.sympy
        terms: dict[tuple[str, MultiIndex], Expr] = {}
        residual = s
        for di, dep in enumerate(spec.dependent):
            for J in MultiIndex.up_to_order(p, max_order):
                cname = formal_js.coord_name(base_names[di], J)
                csym = spec.registry.sympy_symbol(cname)
                coeff = sp.diff(s, csym)
                if coeff == 0:
                    continue
                if any(formal_js.parse_coord(t.name) is not None
                       for t in coeff.free_symbols):
                    raise CollectionError(
                        f"syzygy for {g['name']} is not linear in the I^a_tau jets")
                terms[(dep, J)] = canonical(Expr(coeff))
                residual = residual - coeff * csym
        if sp.simplify(sp.expand(residual)) != 0:
            raise CollectionError(
                f"syzygy for {g['name']} has a non-operator remainder: {residual}")
        for dep in spec.dependent:
            entries = [(J, c) for (d2, J), c in terms.items() if d2 == dep]
            ops[(g["name"], dep)] = LinDiffOp(tuple(spec.independent), tuple(entries))

    return SyzygyOperators(frame, tuple(g["name"] for g in spec.generators),
                           tuple(spec.dependent), ops)


def verify_syzygies(H: SyzygyOperators, table: InvariantTable,
                    rng: random.Random | None = None) -> bool:
    """Expand H applied to the explicit I^a_tau and compare with D_tau of
    the explicit generators (identity in jet coordinates)."""
    spec = table.spec
    js = table.frame.jet_space(tau=True)
    p = len(spec.independent)
    for g in spec.generators:
        dtau = total_derivative(g["explicit"], p, js)
        total = Expr(0)
        for di, dep in enumerate(spec.dependent):
            op = H.op(g["name"], dep)
            expl_base = table.explicit[js.coord_name(
                dep, MultiIndex.zero(p + 1).bump(p))]
            for J, coeff in op.terms:
                term = total_derivative_multi(expl_base, MultiIndex(J.counts + (0,)), js)
                total = total + table.generators_to_jets(coeff) * term
        if not zero_verdict(dtau - total, rng=rng).zero:
            return False
    return True

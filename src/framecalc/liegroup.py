"""Group-action catalog: group law, infinitesimal basis, matrix of
infinitesimals, Adjoint representation, and Killing form.

Catalog entries are JSON data files bundled with the package; the loader
validates every structural invariant (group axioms, left action,
infinitesimal basis consistency, the Adjoint representation) before
returning a GroupActionSpec.

Matrix conventions follow the row form Ad_g(v_i) = sum_j Ad(g)_ij v_j, in
which Ad(g)Ad(h) = Ad(gh) and Ad(g) B Ad(g)^T = B. Ad(g) comes from the
group law alone, as conjugation by g^-1 at the identity.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from importlib import resources

import sympy as sp

from . import jetcalc
from .jetcalc import JetSpace, VectorField, prolong_vector_field
from .symexpr import (
    Expr,
    SymbolRegistry,
    SymExprError,
    KIND_AUXILIARY,
    KIND_CONSTANT,
    KIND_GENERATOR,
    KIND_PARAMETER,
    canonical,
    is_zero,
    parse,
    subst,
)

__all__ = [
    "GroupActionSpec",
    "InfinitesimalMatrix",
    "KillingMatrix",
    "CatalogError",
    "UnknownEntryError",
    "RankDeficiencyError",
    "SingularKillingFormError",
    "CATALOG_NAMES",
    "catalog",
    "infinitesimal_matrix",
    "adjoint_matrix",
    "killing_form",
    "bracket",
]

CATALOG_NAMES = ("se2-curve", "sl2-action1", "sl2-action2", "sl2-action3", "sl2-surface")

# Parse vocabulary of an entry: the jet coordinates registered at load, so
# that catalog formulas and Lagrangians naming them parse. Coordinates of
# higher order are registered when a derivation first reaches them.
BASE_VOCABULARY_ORDER = 10
GENERATOR_VOCABULARY_ORDER = 8

# The Lagrange multiplier, an auxiliary dependent over the independents.
MULTIPLIER = "lambda"

# The parameter e of the curves e -> identity + e v_j that adjoint_matrix
# differentiates; parsed names cannot start with an underscore.
_EPS = sp.Symbol("_eps")


class CatalogError(SymExprError):
    pass


class UnknownEntryError(CatalogError):
    pass


class RankDeficiencyError(SymExprError):
    pass


class SingularKillingFormError(SymExprError):
    pass


@dataclass(frozen=True)
class InfinitesimalMatrix:
    """Rows = group parameters (basis order), columns = jet coordinates."""

    params: tuple[str, ...]
    coords: tuple[str, ...]
    rows: tuple[tuple[Expr, ...], ...]

    def at(self, i: int, j: int) -> Expr:
        return self.rows[i][j]

    def sympy(self) -> sp.Matrix:
        return sp.Matrix([[e.sympy for e in row] for row in self.rows])


@dataclass(frozen=True)
class KillingMatrix:
    entries: tuple[tuple[Fraction, ...], ...]

    def sympy(self) -> sp.Matrix:
        return sp.Matrix([[sp.Rational(x.numerator, x.denominator) for x in row]
                          for row in self.entries])

    def is_invertible(self) -> bool:
        return self.sympy().det() != 0


class _Prolongation(dict):
    """g.u^a_K by jet coordinate name, each computed when first asked for
    (jetcalc.prolong_action), so only the coordinates in use and their
    parents are ever built."""

    def __init__(self, spec: "GroupActionSpec", tau: bool):
        super().__init__()
        self._spec = spec
        self._js = spec.jet_space(tau)

    def __missing__(self, name: str) -> Expr:
        if self._js.parse_coord(name) is None:
            raise KeyError(name)
        e = self._spec.subst_derived(
            jetcalc.prolong_action(self._spec, name, self._js, self))
        self[name] = e
        return e


class GroupActionSpec:
    """One validated catalog entry.

    Holds the group data (free and derived parameters, product, inverse,
    identity, relations), the action on base coordinates, the
    infinitesimal basis, normalization equations, the closed-form frame,
    and the generating-invariant declarations. All expressions live in
    this spec's SymbolRegistry.
    """

    def __init__(self, data: dict):
        self.name: str = data["name"]
        self.description: str = data.get("description", "")
        g = data["group"]
        self.params: tuple[str, ...] = tuple(g["parameters"])
        self.registry = SymbolRegistry()
        for p in self.params:
            self.registry.register(p, KIND_PARAMETER)
        space = data["space"]
        self.independent: tuple[str, ...] = tuple(space["independent"])
        self.dependent: tuple[str, ...] = tuple(space["dependent"])
        self.positive: tuple[str, ...] = tuple(space.get("positive", ()))
        self._base_space = JetSpace(self.independent, self.dependent,
                                    order=BASE_VOCABULARY_ORDER,
                                    registry=self.registry, positive=self.positive)

        self.derived: dict[str, Expr] = {}
        for name, text in g.get("derived", {}).items():
            self.registry.register(name, KIND_PARAMETER)
            self.derived[name] = parse(text, self.registry)

        self.identity: dict[str, Expr] = {p: parse(v, self.registry)
                                          for p, v in g["identity"].items()}
        self.relations: tuple[Expr, ...] = tuple(parse(t, self.registry)
                                                 for t in g.get("relations", ()))
        self._product_src: dict[str, str] = dict(g["product"])
        self._inverse_src: dict[str, str] = dict(g["inverse"])
        self.basis_directions = tuple(
            (d["name"], {k: parse(v, self.registry) for k, v in d["velocity"].items()})
            for d in g["basis_directions"])
        self.sampling: dict = g.get("sampling", {})

        self.action: dict[str, Expr] = {dep: parse(t, self.registry)
                                        for dep, t in data["action"].items()}
        self.infinitesimals: tuple[VectorField, ...] = tuple(
            VectorField(self._base_space,
                        {dep: parse(t, self.registry) for dep, t in row.items()})
            for row in data["infinitesimals"])
        self.normalizations: tuple[tuple[str, Expr], ...] = tuple(
            (n["coordinate"], parse(n["value"], self.registry))
            for n in data["normalizations"])
        # Order of the frame: the highest normalized coordinate.
        self.frame_order = max(self._coord_order(c) for c, _ in self.normalizations)
        self.frame_exprs: dict[str, Expr] = {p: parse(t, self.registry)
                                             for p, t in data["frame"].items()}
        self.generators: tuple[dict, ...] = tuple(
            {"name": gen["name"], "coordinate": gen["coordinate"],
             "order": self._coord_order(gen["coordinate"]),
             "explicit": parse(gen["explicit"], self.registry),
             "positive": bool(gen.get("positive", False))}
            for gen in data["generators"])
        self.generator_order = max(g["order"] for g in self.generators)
        c = data.get("constraint")
        self.constraint: dict | None = None
        if c is not None:
            self.constraint = {"generator": c["generator"],
                               "value": parse(c["value"], self.registry)}
        self._prolonged: dict[bool, _Prolongation] = {}

        # Generator symbols and their derivatives, the multiplier, and the
        # integration constants are part of the entry's registry, so
        # Lagrangians and golden formulas parse immediately after load.
        gen_names = tuple(g["name"] for g in self.generators)
        JetSpace(self.independent, gen_names, order=GENERATOR_VOCABULARY_ORDER,
                 registry=self.registry, kind=KIND_GENERATOR,
                 positive=tuple(g["name"] for g in self.generators if g["positive"]))
        JetSpace(self.independent, (MULTIPLIER,), order=GENERATOR_VOCABULARY_ORDER,
                 registry=self.registry, kind=KIND_AUXILIARY)
        for i in range(len(self.basis_directions)):
            self.registry.register(f"c{i+1}", KIND_CONSTANT)

    # -- spaces ---------------------------------------------------------
    @property
    def r(self) -> int:
        return len(self.basis_directions)

    @property
    def all_params(self) -> tuple[str, ...]:
        return self.params + tuple(self.derived)

    def jet_space(self, tau: bool = False) -> JetSpace:
        """The jet space of the base coordinates, or its extension by the
        dummy invariant direction tau."""
        return self._tau_space if tau else self._base_space

    @cached_property
    def _tau_space(self) -> JetSpace:
        return JetSpace(self.independent + (jetcalc.TAU,), self.dependent,
                        registry=self.registry, positive=self.positive)

    def _coord_order(self, name: str) -> int:
        parsed = self._base_space.parse_coord(name)
        if parsed is None:
            raise CatalogError(f"{self.name}: {name!r} is not a jet coordinate")
        return parsed[1].order

    # -- derived facts, built once per entry ------------------------------
    @cached_property
    def structure_constants(self) -> dict[tuple[int, int], tuple[sp.Rational, ...]]:
        return _structure_constants(self)

    # -- parameter algebra ------------------------------------------------
    def subst_derived(self, e: Expr) -> Expr:
        if not self.derived:
            return canonical(e)
        return subst(e, self.derived)

    def _suffixed_registry(self, suffixes) -> SymbolRegistry:
        reg = SymbolRegistry()
        for sfx in suffixes:
            for p in self.all_params:
                reg.register(f"{p}{sfx}", KIND_PARAMETER)
        return reg

    def product_map(self, g1: dict[str, Expr], g2: dict[str, Expr]) -> dict[str, Expr]:
        """Group product in parameters: returns the free parameters of g1*g2."""
        reg = self._suffixed_registry(("1", "2"))
        bind = {}
        for sfx, gmap in (("1", g1), ("2", g2)):
            full = dict(gmap)
            for dname, dexpr in self.derived.items():
                if dname not in full:
                    full[dname] = subst(dexpr, gmap)
            for p in self.all_params:
                bind[f"{p}{sfx}"] = full[p]
        out = {}
        for p in self.params:
            e = parse(self._product_src[p], reg)
            out[p] = subst(e, bind)
        return out

    def inverse_map(self, g: dict[str, Expr]) -> dict[str, Expr]:
        full = dict(g)
        for dname, dexpr in self.derived.items():
            if dname not in full:
                full[dname] = subst(dexpr, g)
        out = {}
        for p in self.params:
            e = parse(self._inverse_src[p], self.registry)
            out[p] = subst(e, full)
        return out

    def identity_params(self) -> dict[str, Expr]:
        return {p: self.identity[p] for p in self.params}

    def param_symbol_map(self) -> dict[str, Expr]:
        return {p: self.registry.expr(p) for p in self.params}

    # -- zero testing modulo group relations -----------------------------
    def is_zero_mod_relations(self, e: Expr, rng: random.Random | None = None) -> bool:
        s = canonical(e).sympy
        circles = self.sampling.get("unit_circle", [])
        if circles:
            # Substitute each constrained (cos, sin) pair by honest trig
            # functions of a fresh angle; the relation is then automatic.
            for k, (cn, sn) in enumerate(circles):
                for sym in list(s.free_symbols):
                    base = sym.name
                    if base.startswith(cn):
                        sfx = base[len(cn):]
                        s = s.xreplace({sym: sp.cos(sp.Symbol(f"_phi{k}_{sfx}", real=True))})
                    elif base.startswith(sn):
                        sfx = base[len(sn):]
                        s = s.xreplace({sym: sp.sin(sp.Symbol(f"_phi{k}_{sfx}", real=True))})
            s = sp.simplify(sp.trigsimp(sp.cancel(sp.together(s))))
            if s == 0:
                return True
            return is_zero(Expr(s), rng=rng)
        return is_zero(Expr(s), rng=rng)

    # -- action ----------------------------------------------------------
    def prolonged_action(self, order: int = 0, tau: bool = False) -> dict[str, Expr]:
        """Transformed jet coordinates g.u^a_K, with derived parameters
        substituted, by name: a mapping, cached per tau, that holds every
        coordinate with |K| <= order and computes any other coordinate of
        the space when first asked for."""
        pro = self._prolonged.get(tau)
        if pro is None:
            pro = self._prolonged[tau] = _Prolongation(self, tau)
        for _, _, name in self.jet_space(tau).coords_up_to(order):
            pro[name]
        return pro

    def act_on_base(self, params: dict[str, Expr], point: dict[str, Expr]) -> dict[str, Expr]:
        """g . z on base coordinates for explicit parameter values/exprs."""
        full = dict(params)
        for dname, dexpr in self.derived.items():
            if dname not in full:
                full[dname] = subst(dexpr, params)
        out = {}
        for dep in self.dependent:
            e = subst(self.action[dep], full)
            out[dep] = subst(e, point)
        return out

    # -- numeric sampling --------------------------------------------------
    def sample_params(self, rng: random.Random) -> dict[str, float]:
        vals: dict[str, float] = {}
        circle_members = {n for pair in self.sampling.get("unit_circle", []) for n in pair}
        for pair in self.sampling.get("unit_circle", []):
            ang = rng.uniform(-math.pi, math.pi)
            vals[pair[0]] = math.cos(ang)
            vals[pair[1]] = math.sin(ang)
        positive = set(self.sampling.get("positive", []))
        for p in self.params:
            if p in circle_members:
                continue
            if p in positive:
                vals[p] = rng.uniform(0.4, 1.6)
            else:
                vals[p] = rng.uniform(-0.9, 0.9)
        for dname, dexpr in self.derived.items():
            vals[dname] = float(sp.Float(dexpr.sympy.xreplace(
                {self.registry.sympy_symbol(k): sp.Float(v) for k, v in vals.items()})))
        return vals

    def sample_point(self, rng: random.Random, order: int) -> dict[str, float]:
        vals: dict[str, float] = {}
        js = self._base_space
        for dep, K, name in js.coords_up_to(order):
            if self.registry.is_positive(name):
                vals[name] = rng.uniform(0.4, 2.0)
            else:
                vals[name] = rng.uniform(-1.5, 1.5)
        return vals

    def chart_conditions(self) -> list[Expr]:
        """Expressions in parameters and coordinates that must stay positive
        for the local frame chart (e.g. cu + d > 0)."""
        out = []
        for text in self.sampling.get("chart_positive", []):
            e = parse(text, self.registry)
            out.append(self.subst_derived(e))
        return out

    def __repr__(self):
        return f"GroupActionSpec({self.name!r}, r={self.r})"


# ---------------------------------------------------------------------------
# Loading and validation
# ---------------------------------------------------------------------------

def _load_data(name: str, catalog_dir=None) -> dict:
    if catalog_dir is not None:
        path = f"{catalog_dir}/{name}.json"
        try:
            with open(path) as f:
                return json.load(f)
        except FileNotFoundError:
            raise UnknownEntryError(f"no catalog entry {name!r} in {catalog_dir}")
    ref = resources.files("framecalc").joinpath(f"catalog/{name}.json")
    if not ref.is_file():
        raise UnknownEntryError(f"unknown catalog entry {name!r}; "
                                f"known entries: {', '.join(CATALOG_NAMES)}")
    with ref.open() as f:
        return json.load(f)


def _validate_group_axioms(spec: GroupActionSpec) -> None:
    gsym = spec.param_symbol_map()
    ident = spec.identity_params()
    # product(identity, g) = g
    lhs = spec.product_map(ident, gsym)
    for p in spec.params:
        if not spec.is_zero_mod_relations(lhs[p] - gsym[p]):
            raise CatalogError(f"{spec.name}: product(identity, g) != g in {p}")
    # product(g, inverse(g)) = identity
    lhs = spec.product_map(gsym, spec.inverse_map(gsym))
    for p in spec.params:
        if not spec.is_zero_mod_relations(lhs[p] - spec.identity[p]):
            raise CatalogError(f"{spec.name}: product(g, inverse(g)) != identity in {p}")
    # left action on base coordinates: g.(h.z) = (g h).z
    reg = spec._suffixed_registry(("1", "2"))
    g1 = {p: reg.expr(f"{p}1") for p in spec.params}
    g2 = {p: reg.expr(f"{p}2") for p in spec.params}
    point = {dep: spec.registry.expr(dep) for dep in spec.dependent}
    inner = spec.act_on_base(g2, point)
    lhs_pt = spec.act_on_base(g1, inner)
    rhs_pt = spec.act_on_base(spec.product_map(g1, g2), point)
    for dep in spec.dependent:
        if not spec.is_zero_mod_relations(lhs_pt[dep] - rhs_pt[dep]):
            raise CatalogError(f"{spec.name}: not a left action in {dep}")


def _validate_infinitesimals(spec: GroupActionSpec) -> None:
    """Basis fields must be d/dt|_0 of the action along the declared
    parameter-space directions."""
    free = {dep: spec.subst_derived(spec.action[dep]) for dep in spec.dependent}
    id_bind = spec.identity_params()
    for k, (dname, velocity) in enumerate(spec.basis_directions):
        for dep in spec.dependent:
            v = Expr(0)
            for p, vel in velocity.items():
                d = Expr(sp.diff(free[dep].sympy, spec.registry.sympy_symbol(p)))
                v = v + subst(d, id_bind) * vel
            declared = spec.infinitesimals[k].coeff(dep)
            if not is_zero(v - declared):
                raise CatalogError(
                    f"{spec.name}: infinitesimal {dname} mismatch on {dep}: "
                    f"derived {v}, declared {declared}")


def _validate_adjoint(spec: GroupActionSpec) -> None:
    """Ad(e) = I, Ad(g)Ad(h) = Ad(gh) and Ad(g) B Ad(g)^T = B at symbolic g, h."""
    def check(resid: sp.Matrix, what: str) -> None:
        for k, e in enumerate(resid):
            if not spec.is_zero_mod_relations(Expr(e)):
                raise CatalogError(f"{spec.name}: {what} at {divmod(k, spec.r)}")

    def ad(g) -> sp.Matrix:
        return sp.Matrix([[e.sympy for e in row] for row in adjoint_matrix(spec, g)])

    check(ad(spec.identity_params()) - sp.eye(spec.r), "Ad(identity) != I")
    reg = spec._suffixed_registry(("1", "2"))
    g1 = {p: reg.expr(f"{p}1") for p in spec.params}
    g2 = {p: reg.expr(f"{p}2") for p in spec.params}
    A1 = ad(g1)
    check(A1 * ad(g2) - ad(spec.product_map(g1, g2)), "Ad(g)Ad(h) != Ad(gh)")
    B = killing_form(spec).sympy()
    check(A1 * B * A1.T - B, "Ad(g) B Ad(g)^T != B")


def catalog(name: str, catalog_dir=None, validate: bool = True) -> GroupActionSpec:
    """Load a catalog entry by name and validate its invariants."""
    data = _load_data(name, catalog_dir)
    spec = GroupActionSpec(data)
    if validate:
        _validate_group_axioms(spec)
        _validate_infinitesimals(spec)
        _validate_adjoint(spec)
    return spec


# ---------------------------------------------------------------------------
# Infinitesimal matrix, bracket, Killing form, Adjoint matrix
# ---------------------------------------------------------------------------

def infinitesimal_matrix(spec: GroupActionSpec, coords) -> InfinitesimalMatrix:
    """Matrix of infinitesimals on the given jet coordinates: entry (i, r)
    is the coefficient of d/d(z_r) in the prolonged basis field i."""
    names = []
    order_needed = 0
    js = spec.jet_space()
    for c in coords:
        name = c if isinstance(c, str) else js.coord_name(*c)
        parsed = js.parse_coord(name)
        if parsed is None and name not in spec.independent:
            raise CatalogError(f"{name!r} is not a jet coordinate of {spec.name}")
        if parsed is not None:
            order_needed = max(order_needed, parsed[1].order)
        names.append(name)
    rows = []
    for v in spec.infinitesimals:
        pv = prolong_vector_field(v, order_needed, js)
        # fixed independent variables contribute zero columns
        rows.append(tuple(pv.coeff(n) if n not in spec.independent else Expr(0)
                          for n in names))
    return InfinitesimalMatrix(tuple(p for p, _ in spec.basis_directions),
                               tuple(names), tuple(rows))


def bracket(v: VectorField, w: VectorField) -> VectorField:
    """Standard bracket of vector fields: [v, w]_j = v(w_j) - w(v_j)."""
    names = sorted(set(v.coeffs) | set(w.coeffs))
    out = {}
    for j in names:
        out[j] = canonical(v.apply(w.coeff(j)) - w.apply(v.coeff(j)))
    return VectorField(v.js, out)


def _structure_constants(spec: GroupActionSpec) -> dict[tuple[int, int], tuple[sp.Rational, ...]]:
    """c^k_ij with [v_i, v_j] = sum_k c^k_ij v_k, solved exactly by
    coefficient matching over the base coordinates."""
    fields = spec.infinitesimals
    r = len(fields)
    base_syms = [spec.registry.sympy_symbol(dep) for dep in spec.dependent]
    out = {}
    cs = sp.symbols(f"_c0:{r}", rational=True)
    for i in range(r):
        for j in range(r):
            br = bracket(fields[i], fields[j])
            eqs = []
            for dep in spec.dependent:
                resid = br.coeff(dep).sympy - sum(
                    cs[k] * fields[k].coeff(dep).sympy for k in range(r))
                poly = sp.Poly(sp.expand(resid), *base_syms)
                eqs.extend(poly.coeffs())
            sol = sp.linsolve(eqs, list(cs))
            if not sol:
                raise RankDeficiencyError(
                    f"{spec.name}: bracket [v{i+1}, v{j+1}] not in the span of the basis")
            vals = tuple(sp.nsimplify(v) for v in next(iter(sol)))
            if any(v.free_symbols for v in vals):
                raise RankDeficiencyError(
                    f"{spec.name}: underdetermined structure constants for [v{i+1}, v{j+1}]")
            out[(i, j)] = vals
    return out


def ad_matrix_of_basis(spec: GroupActionSpec, i: int) -> sp.Matrix:
    """Row-convention matrix of ad_{v_i}: row j holds the coefficients of
    [v_i, v_j] in the basis."""
    sc = spec.structure_constants
    r = spec.r
    return sp.Matrix(r, r, lambda j, k: sc[(i, j)][k])


def killing_form(spec: GroupActionSpec) -> KillingMatrix:
    """B_ij = trace(ad_{v_i} ad_{v_j}), exact rational."""
    r = spec.r
    ads = [ad_matrix_of_basis(spec, i) for i in range(r)]
    entries = []
    for i in range(r):
        row = []
        for j in range(r):
            t = sp.trace(ads[i] * ads[j])
            row.append(Fraction(int(sp.Integer(t.p)), int(sp.Integer(t.q))))
        entries.append(tuple(row))
    B = KillingMatrix(tuple(entries))
    for i in range(r):
        for j in range(r):
            if B.entries[i][j] != B.entries[j][i]:
                raise CatalogError(f"{spec.name}: Killing form not symmetric")
    return B


def adjoint_matrix(spec: GroupActionSpec, g: dict[str, Expr]) -> tuple[tuple[Expr, ...], ...]:
    """Ad(g) at parameter expressions g, from the group law: row j holds the
    basis_directions coefficients of d/de [g^-1 (e + e v_j) g] at e = 0."""
    velocities = sp.Matrix(len(spec.params), spec.r, lambda i, j: (
        spec.basis_directions[j][1].get(spec.params[i], Expr(0)).sympy))
    pivots = velocities.T.rref()[1]
    if len(pivots) < spec.r:
        raise RankDeficiencyError(f"{spec.name}: basis directions are dependent")
    solve = velocities[list(pivots), :].inv()
    eps = Expr(_EPS)
    g_inv = spec.inverse_map(g)
    rows = []
    for _, velocity in spec.basis_directions:
        h = {p: spec.identity[p] + eps * velocity.get(p, Expr(0)) for p in spec.params}
        conj = spec.product_map(g_inv, spec.product_map(h, g))
        tangent = sp.Matrix([sp.diff(conj[spec.params[i]].sympy, _EPS).subs(_EPS, 0)
                             for i in pivots])
        rows.append(tuple(canonical(Expr(c)) for c in solve * tangent))
    return tuple(rows)

"""Output checks made apart from framecalc.

Every check reads the program's JSON output and the catalog JSON files and
recomputes what it tests with sympy and numpy alone; nothing here imports
framecalc.  A check returns None when the output passes and a one-line
reason when it does not.
"""

from __future__ import annotations

import hashlib
import json
import os
import re

import numpy as np
import sympy as sp

FUNCS = {"sin": sp.sin, "cos": sp.cos, "tanh": sp.tanh, "sech": sp.sech,
         "sqrt": sp.sqrt}

# Initial curve jets of the extremals integrated by the conservation check.
# Each keeps the entry's chart positive (u_x > 0, u > 0, x_s > 0) and, for a
# constrained entry, satisfies its constraint (eta = x_s/u = 1).
CURVE_INIT = {
    "sl2-action1": {"u": 0.0, "u_x": 1.0, "u_xx": 0.0},
    "sl2-action2": {"x": 0.0, "u": 1.0, "x_s": 1.0, "u_s": 0.0},
}
# Initial generator jets, in order 0, 1, 2, ...
GEN_INIT = (0.3, -0.2, 0.1, 0.05, -0.1, 0.2, 0.0, 0.0)
CONS_STEP = 1e-3
CONS_STEPS = 500
CONS_TOL = 1e-7

# Demo data of `framecalc verify` for se2-curve (the elastica): kappa(0) = 1,
# kappa_s(0) = 0.  The constants must satisfy c1^2 + c2^2 = kappa^4 +
# 4 kappa_s^2 and c3 = 2 kappa at s = 0 (the curve starts at the origin).
ELASTICA_KAPPA0, ELASTICA_KAPPA_S0 = 1.0, 0.0


class Memo:
    """Passed checks, keyed by the exact bytes they verified."""

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, name: str, parts) -> str:
        h = hashlib.sha256(name.encode())
        for part in parts:
            h.update(b"\0" + (part if isinstance(part, bytes) else part.encode()))
        return os.path.join(self.directory, h.hexdigest())

    def run(self, name: str, parts, check):
        path = self._path(name, parts)
        if os.path.exists(path):
            return None
        reason = check()
        if reason is None:
            with open(path, "w") as f:
                f.write(name + "\n")
        return reason


# ---------------------------------------------------------------------------
# Reading outputs and catalog entries
# ---------------------------------------------------------------------------

def tree(d: dict) -> sp.Expr:
    """A sympy expression from the output's JSON expression tree."""
    kind = d["kind"]
    if kind == "rational":
        return sp.Rational(d["p"], d["q"])
    if kind == "symbol":
        return sp.Symbol(d["name"])
    if kind == "power":
        return sp.Pow(tree(d["base"]), sp.Rational(d["exp"]["p"], d["exp"]["q"]))
    if kind == "func":
        return FUNCS[d["name"]](tree(d["child"]))
    if kind == "product":
        return sp.Mul(*[tree(c) for c in d["children"]])
    if kind == "sum":
        return sp.Add(*[tree(c) for c in d["children"]])
    raise ValueError(f"unknown node kind {kind!r}")


def text_expr(text: str) -> sp.Expr:
    """A sympy expression from catalog or Lagrangian text (`^` powers)."""
    names = set(re.findall(r"[A-Za-z][A-Za-z0-9_]*", text)) - set(FUNCS)
    local = {n: sp.Symbol(n) for n in names}
    local.update(FUNCS)
    return sp.sympify(text.replace("^", "**"), locals=local)


def load_entry(catalog_dir: str, name: str) -> dict:
    with open(os.path.join(catalog_dir, f"{name}.json")) as f:
        return json.load(f)


def _is_zero(e: sp.Expr) -> bool:
    return sp.cancel(sp.together(e)) == 0


# ---------------------------------------------------------------------------
# Jets of one or more independent variables, named dep_<suffix>
# ---------------------------------------------------------------------------

class Jets:
    """Jet symbols dep_K of single-letter independents, K a count tuple."""

    def __init__(self, independent, dependent):
        if any(len(x) != 1 for x in independent):
            raise ValueError("independent variables must be single letters")
        self.ind = tuple(independent)
        self.dep = tuple(dependent)

    def name(self, dep: str, K) -> str:
        suffix = "".join(x * k for x, k in zip(self.ind, K))
        return f"{dep}_{suffix}" if suffix else dep

    def sym(self, dep: str, K) -> sp.Symbol:
        return sp.Symbol(self.name(dep, K))

    def parse(self, name: str, deps=None):
        for dep in deps if deps is not None else self.dep:
            if name == dep:
                return dep, (0,) * len(self.ind)
            if name.startswith(dep + "_"):
                suffix = name[len(dep) + 1:]
                if suffix and set(suffix) <= set(self.ind):
                    return dep, tuple(suffix.count(x) for x in self.ind)
        return None

    def total_derivative(self, f: sp.Expr, i: int) -> sp.Expr:
        out = sp.diff(f, sp.Symbol(self.ind[i]))
        for s in f.free_symbols:
            parsed = self.parse(s.name)
            if parsed is None:
                continue
            dep, K = parsed
            KK = tuple(k + (j == i) for j, k in enumerate(K))
            out += self.sym(dep, KK) * sp.diff(f, s)
        return out


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def check_catalog(out: dict, catalog_dir: str):
    """The catalog listing names every entry file with its generators."""
    files = sorted(f[:-5] for f in os.listdir(catalog_dir) if f.endswith(".json"))
    listed = sorted(e["name"] for e in out["entries"])
    if listed != files:
        return f"catalog lists {listed}, files are {files}"
    for e in out["entries"]:
        data = load_entry(catalog_dir, e["name"])
        want = [(g["name"], g["coordinate"]) for g in data["generators"]]
        got = [(g["name"], g["coordinate"]) for g in e["generators"]]
        if want != got:
            return f"{e['name']}: generators {got}, catalog has {want}"
    return None


def check_adjoint(out: dict):
    """Ad(rho)^-1 preserves the Killing form, A B A^T = B, exactly; and for
    one independent variable each law component is row i of A upsilon."""
    A = sp.Matrix([[tree(e["tree"]) for e in row] for row in out["ad_rho_inverse"]])
    B = sp.Matrix([[sp.Rational(x) for x in row] for row in out["killing_matrix"]])
    M = A * B * A.T - B
    for i in range(M.rows):
        for j in range(M.cols):
            if not _is_zero(M[i, j]):
                return f"A B A^T != B at entry ({i}, {j})"
    if "first_integrals" in out:
        (ups,) = out["upsilon"].values()
        v = sp.Matrix([tree(u["tree"]) for u in ups])
        Av = A * v
        for i, fi in enumerate(out["first_integrals"]):
            if not _is_zero(tree(fi["component"]["tree"]) - Av[i]):
                return f"law component {i + 1} is not row {i + 1} of Ad(rho)^-1 upsilon"
    return None


def _extremal_system(out: dict, entry: dict):
    """State names, initial values and right-hand sides of the extremal ODE:
    the output's Euler-Lagrange equations solved for the top generator jets,
    with the curve equations solved from the catalog's explicit generator
    forms (the constrained generator's form differentiated once)."""
    (ind,) = entry["space"]["independent"]
    deps = entry["space"]["dependent"]
    gens = entry["generators"]
    constraint = entry["constraint"]
    cname = constraint["generator"] if constraint else None
    cvalue = text_expr(constraint["value"]) if constraint else None
    curve = Jets([ind], deps)
    gnames = [g["name"] for g in gens]
    gjets = Jets([ind], gnames)

    fixed = {}  # jets of the constrained generator
    if cname is not None:
        fixed[sp.Symbol(cname)] = cvalue
        for k in range(1, 12):
            fixed[gjets.sym(cname, (k,))] = 0

    eqs, unknowns = [], []
    for g in gens:
        explicit = text_expr(g["explicit"])
        dep, K = curve.parse(g["coordinate"])
        if g["name"] == cname:
            eqs.append(curve.total_derivative(explicit, 0))
            unknowns.append(curve.sym(dep, (K[0] + 1,)))
        else:
            eqs.append(explicit - sp.Symbol(g["name"]))
            unknowns.append(curve.sym(dep, K))
    (curve_sol,) = sp.solve(eqs, unknowns, dict=True)

    el = [tree(e["tree"]).xreplace(fixed) for e in out["euler_lagrange"].values()]
    free = [n for n in gnames if n != cname]
    top = {}
    for e in el:
        for s in e.free_symbols:
            parsed = gjets.parse(s.name, free)
            if parsed is not None:
                top[parsed[0]] = max(top.get(parsed[0], 0), parsed[1][0])
    gen_unknowns = [gjets.sym(n, (top[n],)) for n in free]
    (gen_sol,) = sp.solve(el, gen_unknowns, dict=True)

    state, rhs, init = [], [], []
    for n in free:
        for k in range(top[n]):
            state.append(gjets.sym(n, (k,)))
            nxt = gjets.sym(n, (k + 1,))
            rhs.append(gen_sol[nxt] if k + 1 == top[n] else nxt)
            init.append(GEN_INIT[k])
    for u in unknowns:
        dep, (k_top,) = curve.parse(u.name)
        for k in range(k_top):
            s = curve.sym(dep, (k,))
            state.append(s)
            nxt = curve.sym(dep, (k + 1,))
            rhs.append(curve_sol[nxt] if k + 1 == k_top else nxt)
            init.append(CURVE_INIT[entry["name"]][s.name])
    sol = {**gen_sol, **curve_sol, **fixed}
    rhs = [r.xreplace(sol) for r in rhs]
    point = dict(zip(state, init))
    if cname is not None:
        c_explicit = text_expr(next(g["explicit"] for g in gens if g["name"] == cname))
        if abs(float(c_explicit.xreplace(point)) - float(cvalue)) > 1e-12:
            raise ValueError("initial curve jets violate the constraint")
    return state, np.array(init, dtype=float), rhs, sol


def _rk4(f, y, h: float, n: int) -> np.ndarray:
    out = np.empty((n + 1, len(y)))
    out[0] = y
    for k in range(n):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[k + 1] = y
    if not np.all(np.isfinite(out)):
        raise ValueError("extremal left the chart (non-finite state)")
    return out


def check_conservation(out: dict, entry: dict):
    """Every first-integral component is constant along an extremal that
    this check integrates itself with RK4; the Killing first integral's lhs
    equals its rhs at c = the components at the start, and every reduced
    system row vanishes there."""
    state, y0, rhs, sol = _extremal_system(out, entry)
    f_vec = sp.lambdify([state], rhs, modules="numpy")
    traj = _rk4(lambda y: np.array(f_vec(y), dtype=float), y0, CONS_STEP, CONS_STEPS)
    cols = traj.T

    def along(e: sp.Expr, extra=None) -> np.ndarray:
        e = e.xreplace(sol)
        if extra:
            e = e.xreplace(extra)
        unbound = e.free_symbols - set(state)
        if unbound:
            raise ValueError(f"unbound symbols {sorted(map(str, unbound))}")
        fn = sp.lambdify([state], e, modules="numpy")
        return np.asarray(fn(cols), dtype=float) * np.ones(len(traj))

    comps = [along(tree(fi["component"]["tree"])) for fi in out["first_integrals"]]
    peak = max(float(np.max(np.abs(c))) for c in comps)
    if peak < 1e-6:
        return "all law components vanish on the extremal (vacuous check)"
    scale = 1.0 + peak
    for i, c in enumerate(comps):
        drift = float(np.max(np.abs(c - c[0])))
        if drift > CONS_TOL * scale:
            return f"law component {i + 1} drifts by {drift:.3e}"
    consts = {sp.Symbol(fi["constant"]): float(c[0])
              for fi, c in zip(out["first_integrals"], comps)}
    kfi = out.get("killing_first_integral")
    if kfi is not None:
        lhs = along(tree(kfi["lhs"]["tree"]))
        rhs_val = float(tree(kfi["rhs"]["tree"]).xreplace(consts))
        err = float(np.max(np.abs(lhs - rhs_val)))
        if err > CONS_TOL * (1.0 + abs(rhs_val)):
            return f"Killing first integral lhs - rhs reaches {err:.3e}"
    for k, row in enumerate(out.get("reduced_system") or []):
        err = float(np.max(np.abs(along(tree(row["tree"]), consts))))
        if err > CONS_TOL * scale:
            return f"reduced system row {k + 1} reaches {err:.3e}"
    return None


def check_el_oracle(out: dict, entry: dict, lagrangian: str):
    """The Euler operator of the Lagrangian written out in u jets equals the
    output's E^u in jets times d(g.u)/du at g = rho."""
    ind = entry["space"]["independent"]
    (dep,) = entry["space"]["dependent"]
    jets = Jets(ind, [dep])
    gens = {g["name"]: text_expr(g["explicit"]) for g in entry["generators"]}
    gjets = Jets(ind, list(gens))
    cache = {}

    def gen_jet(name: str, K) -> sp.Expr:
        if (name, K) not in cache:
            if sum(K) == 0:
                cache[(name, K)] = gens[name]
            else:
                i = next(j for j, k in enumerate(K) if k)
                KK = tuple(k - (j == i) for j, k in enumerate(K))
                cache[(name, K)] = jets.total_derivative(gen_jet(name, KK), i)
        return cache[(name, K)]

    def in_jets(e: sp.Expr) -> sp.Expr:
        bind = {}
        for s in e.free_symbols:
            parsed = gjets.parse(s.name)
            if parsed is not None:
                bind[s] = gen_jet(*parsed)
        return e.xreplace(bind)

    L = in_jets(text_expr(lagrangian))
    euler = sp.Integer(0)
    for s in L.free_symbols:
        parsed = jets.parse(s.name)
        if parsed is None:
            continue
        term = sp.diff(L, s)
        for i, k in enumerate(parsed[1]):
            for _ in range(k):
                term = -jets.total_derivative(term, i)
        euler += term

    params = {p: sp.Symbol(p) for p in entry["group"]["parameters"]}
    action = text_expr(entry["action"][dep])
    factor = sp.diff(action, sp.Symbol(dep))
    derived = {sp.Symbol(k): text_expr(v) for k, v in entry["group"]["derived"].items()}
    frame = {sp.Symbol(k): text_expr(v) for k, v in entry["frame"].items()}
    factor = factor.xreplace(derived).xreplace(frame)
    if set(params) & {s.name for s in factor.free_symbols}:
        return "d(g.u)/du still holds group parameters at the frame"
    (e_out,) = out["euler_lagrange"].values()
    if not _is_zero(euler - in_jets(tree(e_out["tree"])) * factor):
        return "E^u differs from the Euler operator of the Lagrangian in jets"
    return None


_CONSTANTS_NOTE = re.compile(r"^se2-curve: constants c = (\[.*\])$")


def check_verify(out: dict, seed: int):
    """Every report check passed, and the elastica constants of the demo
    data satisfy c1^2 + c2^2 = kappa^4 + 4 kappa_s^2 and c3 = 2 kappa."""
    if out.get("command") != "verify" or out.get("seed") != seed:
        return "not the verify output of this seed"
    report = out["report"]
    if not report["checks"]:
        return "the report holds no checks"
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    if failed or not report["passed"]:
        return f"report checks failed: {failed}"
    notes = [m for n in report["notes"] if (m := _CONSTANTS_NOTE.match(n))]
    if len(notes) != 1:
        return "no se2-curve constants note"
    c1, c2, c3 = (float(v) for v in json.loads(notes[0].group(1)))
    energy = ELASTICA_KAPPA0 ** 4 + 4 * ELASTICA_KAPPA_S0 ** 2
    if abs(c1 ** 2 + c2 ** 2 - energy) > 1e-6 or abs(c3 - 2 * ELASTICA_KAPPA0) > 1e-6:
        return f"elastica constants {[c1, c2, c3]} violate the energy relations"
    return None

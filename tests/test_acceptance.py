"""Acceptance suite.

One test per acceptance criterion; each prints a PASS/FAIL line (run
pytest with -s to see them inline). Criterion 1j is expected to fail:
the transcribed reference formula for the Action-2 eliminated
Euler-Lagrange equation is internally inconsistent with the rest of the
derivation; it is asserted faithfully and marked xfail(strict=True), with
the machine-derived, oracle-verified form asserted alongside.
"""

import json
import random
from contextlib import contextmanager
from pathlib import Path

import pytest
import sympy as sp

from adjoint_oracle import prolonged_adjoint
from framecalc import cli
from framecalc import frame as fr
from framecalc import liegroup as lg
from framecalc import numlab as nl
from framecalc import symexpr as se
from framecalc import varcalc as vc
from framecalc.jetcalc import JetSpace, MultiIndex, euler_operator, total_derivative

SURF_L = "sigma_x^2/2 + kappa_t^2/2 + sigma*kappa + sigma_t*kappa_x"


@contextmanager
def criterion(ident: str, description: str):
    try:
        yield
    except Exception:
        print(f"[ACCEPTANCE] {ident}: FAIL - {description}")
        raise
    print(f"[ACCEPTANCE] {ident}: PASS - {description}")


def equal_up_to_rational_constant(a: se.Expr, b: se.Expr) -> bool:
    q = sp.cancel(sp.together(a.sympy / b.sympy))
    return q.is_Rational and q != 0


# =========================================================================
# 1. Symbolic golden set
# =========================================================================

def test_1a_schwarzian(frames):
    with criterion("1a", "invariantize(u_xxx) is the Schwarzian derivative"):
        frame = frames("sl2-action1")
        reg = frame.registry
        got = fr.invariantize(reg.expr("u_xxx"), frame)
        schw = se.parse("u_xxx/u_x - (3/2)*u_xx^2/u_x^2", reg)
        assert se.is_zero(got - schw)


def test_1b_frame_eq4(frames):
    with criterion("1b", "closed-form moving frame of the projective curve action"):
        frame = frames("sl2-action1")
        reg = frame.registry
        assert se.is_zero(frame.params["a"] - se.parse("u_x^(-1/2)", reg))
        assert se.is_zero(frame.params["b"] - se.parse("-u*u_x^(-1/2)", reg))
        assert se.is_zero(frame.params["c"] - se.parse("u_xx/(2*u_x^(3/2))", reg))


def test_1c_adjoint_matrix(specs):
    with criterion("1c", "closed-form Adjoint matrix of the projective action"):
        spec = specs("sl2-action1")
        ad = lg.adjoint_matrix(spec, spec.param_symbol_map())
        reg = spec.registry
        a, b, c = reg.expr("a"), reg.expr("b"), reg.expr("c")
        d = spec.derived["d"]
        adT = [[a * d + b * c, c * d, -(a * b)],
               [2 * b * d, d * d, -(b * b)],
               [-(2 * a * c), -(c * c), a * a]]
        for i in range(3):
            for j in range(3):
                assert se.is_zero(ad[i][j] - adT[j][i]), (i, j)


def test_1d_killing_matrix(specs):
    with criterion("1d", "Killing matrix [[8,0,0],[0,0,4],[0,4,0]]"):
        from fractions import Fraction
        B = lg.killing_form(specs("sl2-action1"))
        assert B.entries == ((Fraction(8), Fraction(0), Fraction(0)),
                             (Fraction(0), Fraction(0), Fraction(4)),
                             (Fraction(0), Fraction(4), Fraction(0)))


def test_1e_syzygies(frames, contexts):
    with criterion("1e", "syzygy operators H = D^3 + 2 sigma D + sigma_x and "
                          "H2 = D_t - kappa D_x + kappa_x"):
        _, ctx1 = contexts("sl2-action1", "sigma_x^2/2")
        reg = frames("sl2-action1").registry
        H = {J.counts: a for J, a in ctx1.H.op("sigma", "u").terms}
        assert set(H) == {(0,), (1,), (3,)}
        assert se.is_zero(H[(0,)] - reg.expr("sigma_x"))
        assert se.is_zero(H[(1,)] - 2 * reg.expr("sigma"))
        assert se.is_zero(H[(3,)] - se.integer(1))

        _, ctx2 = contexts("sl2-surface", SURF_L)
        reg2 = frames("sl2-surface").registry
        H2 = {J.counts: a for J, a in ctx2.H.op("kappa", "u").terms}
        assert set(H2) == {(0, 0), (1, 0), (0, 1)}
        assert se.is_zero(H2[(0, 0)] - reg2.expr("kappa_x"))
        assert se.is_zero(H2[(1, 0)] + reg2.expr("kappa"))
        assert se.is_zero(H2[(0, 1)] - se.integer(1))


def test_1f_el_half_sigma_x_squared(frames, contexts):
    with criterion("1f", "E^u(L) = -(D^3 + 2 sigma D + sigma_x)(-sigma_xx) "
                          "for L = sigma_x^2/2"):
        L, ctx = contexts("sl2-action1", "sigma_x^2/2")
        frame = frames("sl2-action1")
        el = vc.invariant_el(L, ctx.H)
        inv = frame.inv_space()
        reg = frame.registry
        Esig = se.parse("-sigma_xx", reg)
        H = ctx.H.op("sigma", "u")
        expected = se.canonical(se.Expr(0) - H.apply(Esig, inv))
        assert se.is_zero(el["u"] - expected)
        expanded = se.parse("sigma_xxxxx + 2*sigma*sigma_xxx + sigma_x*sigma_xx", reg)
        assert se.is_zero(el["u"] - expanded)


def _upsilon_formula_curve(frame, Ltext):
    """(-2 D E, sigma E + D^2 E, -2E) instantiated for a concrete L."""
    reg = frame.registry
    inv = frame.inv_space()
    E = euler_operator(se.parse(Ltext, reg), "sigma", inv)
    D = lambda e: total_derivative(e, 0, inv)
    sigma = reg.expr("sigma")
    return [se.canonical(-2 * D(E)), se.canonical(sigma * E + D(D(E))),
            se.canonical(-2 * E)]


def test_1g_upsilon_vectors(frames, laws_of):
    with criterion("1g", "upsilon vectors: projective curve, projective "
                          "surface, and Euclidean curve cases"):
        # projective curve case, two concrete Lagrangians
        frame = frames("sl2-action1")
        for ltext in ("sigma_x^2/2", "sigma^3 + sigma_xx^2/2"):
            laws = laws_of("sl2-action1", ltext)
            for got, want in zip(laws.upsilon["x"],
                                 _upsilon_formula_curve(frame, ltext)):
                assert se.is_zero(got - want), ltext

        # projective surface case (with the multiplier route)
        sframe = frames("sl2-surface")
        sreg = sframe.registry
        laws = laws_of("sl2-surface", SURF_L, syzygy=True)
        inv = sframe.inv_space()
        Dx = lambda e: total_derivative(e, 0, inv)
        Es = vc.syzygy_reduce(euler_operator(se.parse(SURF_L, sreg), "sigma", inv), sframe)
        Ek = vc.syzygy_reduce(euler_operator(se.parse(SURF_L, sreg), "kappa", inv), sframe)
        sigma, kappa = sreg.expr("sigma"), sreg.expr("kappa")
        exp1 = [se.canonical(-2 * Dx(Es)),
                se.canonical(sigma * Es - kappa * Ek + Dx(Dx(Es))),
                se.canonical(-2 * Es)]
        exp2 = [se.Expr(0), Ek, se.Expr(0)]
        for got, want in zip(laws.upsilon["x"], exp1):
            assert se.is_zero(vc.syzygy_reduce(got, sframe)
                              - vc.syzygy_reduce(want, sframe))
        for got, want in zip(laws.upsilon["t"], exp2):
            assert se.is_zero(vc.syzygy_reduce(got, sframe)
                              - vc.syzygy_reduce(want, sframe))

        # Euclidean curve case: (-kappa^2, -2 kappa_s, 2 kappa)
        laws2 = laws_of("se2-curve", "kappa^2")
        reg2 = frames("se2-curve").registry
        for got, text in zip(laws2.upsilon["s"],
                             ("-kappa^2", "-2*kappa_s", "2*kappa")):
            assert se.is_zero(got - se.parse(text, reg2))


def test_1h_first_integrals(frames, laws_of):
    with criterion("1h", "Killing first integrals for actions 1 and 3"):
        # action 1: 4 (D E)^2 - 8 E D^2 E - 8 sigma E^2 = c1^2 + 4 c2 c3
        frame = frames("sl2-action1")
        reg = frame.registry
        inv = frame.inv_space()
        D = lambda e: total_derivative(e, 0, inv)
        for ltext in ("sigma_x^2/2", "sigma^3 + sigma_xx^2/2"):
            laws = laws_of("sl2-action1", ltext)
            lhs, rhs = vc.killing_first_integral(laws)
            E = euler_operator(se.parse(ltext, reg), "sigma", inv)
            expected = se.canonical(4 * D(E) * D(E) - 8 * E * D(D(E))
                                   - 8 * reg.expr("sigma") * E * E)
            assert se.is_zero(se.canonical(lhs * 8) - expected), ltext
            assert se.is_zero(se.canonical(rhs * 8)
                              - se.parse("c1^2 + 4*c2*c3", reg))

        # action 3: 4 (E^eta)^2 + 24 sigma (E^sigma)^2 - 24 E^sigma D E^eta
        frame3 = frames("sl2-action3")
        reg3 = frame3.registry
        inv3 = frame3.inv_space()
        D3 = lambda e: total_derivative(e, 0, inv3)
        ltext = "(sigma_s^2 + eta_s^2)/2"
        laws3 = laws_of("sl2-action3", ltext)
        lhs3, rhs3 = vc.killing_first_integral(laws3)
        Ee = euler_operator(se.parse(ltext, reg3), "eta", inv3)
        Es = euler_operator(se.parse(ltext, reg3), "sigma", inv3)
        expected3 = se.canonical(4 * Ee * Ee + 24 * reg3.expr("sigma") * Es * Es
                                - 24 * Es * D3(Ee))
        assert se.is_zero(se.canonical(lhs3 * 8) - expected3)
        assert se.is_zero(se.canonical(rhs3 * 8) - se.parse("c1^2 + 4*c2*c3", reg3))


def test_1i_reduced_equations(frames, laws_of):
    with criterion("1i", "reduced Riccati equations for actions 1-3 and the "
                          "second action-3 equation"):
        # action 1: -2 E^sigma u_x - c1 u + c2 u^2 - c3 = 0 (E^sigma = -sigma_xx)
        laws1 = laws_of("sl2-action1", "sigma_x^2/2")
        reg1 = frames("sl2-action1").registry
        rows = vc.reduced_system(laws1)
        expected = se.parse("2*sigma_xx*u_x - c1*u + c2*u^2 - c3", reg1)
        assert len(rows) == 1
        assert equal_up_to_rational_constant(rows[0], expected)

        # action 2: -2 E^sigma u - c1 x + c2 x^2 - c3 = 0, and with the
        # constraint x_s = u it becomes the Riccati form in x
        laws2 = laws_of("sl2-action2", "sigma_s^2/2")
        reg2 = frames("sl2-action2").registry
        rows2 = vc.reduced_system(laws2)
        expected2 = se.parse("2*sigma_ss*u - c1*x + c2*x^2 - c3", reg2)
        assert any(equal_up_to_rational_constant(r, expected2) for r in rows2)
        riccati_x = se.parse("2*sigma_ss*x_s - c1*x + c2*x^2 - c3", reg2)
        assert se.is_zero(
            se.subst(expected2, {"u": reg2.expr("x_s")}) - riccati_x)

        # action 3, first equation: 6 E^sigma x_s - c1 x + c2 x^2 - c3 = 0
        ltext3 = "(sigma_s^2 + eta_s^2)/2"
        laws3 = laws_of("sl2-action3", ltext3)
        frame3 = frames("sl2-action3")
        reg3 = frame3.registry
        rows3 = vc.reduced_system(laws3)
        red1 = se.parse("-6*sigma_ss*x_s - c1*x + c2*x^2 - c3", reg3)
        assert any(equal_up_to_rational_constant(r, red1) for r in rows3)

        # action 3, second equation:
        # 2 E^eta x_s - 2 E^sigma x_s^2 u - c1 x_s + 2 c2 x x_s = 0,
        # which is D_s of the first equation reduced with the on-shell
        # Euler-Lagrange equation E^u = 0 and the jet definition of eta.
        inv3 = frame3.inv_space()
        mixed = JetSpace(("s",), ("x", "u", "sigma", "eta"), order=8,
                         registry=reg3)
        red2 = se.parse("-2*eta_ss*x_s + 2*sigma_ss*x_s^2*u - c1*x_s + 2*c2*x*x_s",
                      reg3)
        dred1 = total_derivative(red1, 0, mixed)
        # E^u = 0: sigma_sss = eta_ss/3 - eta sigma_ss
        on_shell = se.subst(dred1, {"sigma_sss":
                                  se.parse("eta_ss/3 - eta*sigma_ss", reg3)})
        # eta = x_ss/x_s + u x_s/3
        on_shell = se.subst(on_shell,
                            {"eta": se.parse("x_ss/x_s + u*x_s/3", reg3)})
        assert se.is_zero(on_shell - red2)


def test_1j_action2_el_reference_formula(frames, contexts):
    """Criterion 1j asserted faithfully against the transcribed reference
    formula for the action-2 eliminated equation; expected to fail. The
    machine form, verified by the direct-Euler oracle and by numeric
    conservation, carries the opposite middle signs."""
    L, ctx = contexts("sl2-action2", "sigma_s^2/2")
    frame = frames("sl2-action2")
    el = vc.invariant_el(L, ctx.H)
    elim = vc.eliminate_multiplier(el, L, frame)
    reg = frame.registry
    # reference formula instantiated for L = sigma_s^2/2:
    # D^2 E - 2 sigma E + L - (dL/dsigma_s - D dL/dsigma_ss) sigma_s
    # + (dL/dsigma_ss) sigma_ss  with E = -sigma_ss
    reference = se.parse("-sigma_ssss + 2*sigma*sigma_ss - sigma_s^2/2", reg)
    matches = se.is_zero(elim["u"] - reference) \
        or equal_up_to_rational_constant(elim["u"], reference)
    status = "PASS" if matches else "FAIL"
    print(f"[ACCEPTANCE] 1j: {status} - Action 2 EL after lambda elimination "
          "matches the transcribed reference formula (expected failure: the "
          "reference formula is internally inconsistent; see "
          "test_1j_action2_el_derived)")
    assert matches


test_1j_action2_el_reference_formula = pytest.mark.xfail(
    strict=True, reason="the transcribed reference formula for the action-2 "
    "eliminated Euler-Lagrange equation carries a sign inconsistency; the "
    "machine derivation is verified by the direct-Euler oracle, by "
    "D_s(E^u_elim) = -E_reduced, and by numeric conservation")(
        test_1j_action2_el_reference_formula)


def test_1j_action2_el_derived(frames, contexts):
    with criterion("1j*", "Action 2 EL after elimination (machine form, "
                           "oracle-verified; the transcribed form xfails)"):
        L, ctx = contexts("sl2-action2", "sigma_s^2/2")
        frame = frames("sl2-action2")
        el = vc.invariant_el(L, ctx.H)
        elim = vc.eliminate_multiplier(el, L, frame)
        reg = frame.registry
        derived = se.parse("-sigma_ssss - 2*sigma*sigma_ss + sigma_s^2/2", reg)
        assert se.is_zero(elim["u"] - derived)
        # structural consistency: D_s of the eliminated first integral is the
        # reduced problem's Euler-Lagrange equation (sigma = {x; s})
        inv = frame.inv_space()
        ds = total_derivative(elim["u"], 0, inv)
        e_red = se.parse("sigma_sssss + 2*sigma*sigma_sss + sigma_s*sigma_ss", reg)
        assert se.is_zero(ds + e_red)


def test_1k_elastica(frames, contexts):
    with criterion("1k", "elastica EL kappa_ss + kappa^3/2 = 0"):
        L, ctx = contexts("se2-curve", "kappa^2")
        frame = frames("se2-curve")
        el = vc.invariant_el(L, ctx.H)
        elim = vc.eliminate_multiplier(el, L, frame)
        reg = frame.registry
        elastica = se.parse("kappa_ss + kappa^3/2", reg)
        assert equal_up_to_rational_constant(elim["u"], elastica)


# =========================================================================
# 2. Oracle equivalence: invariantized EL route vs direct Euler operator
# =========================================================================

def _random_lagrangian(frame, rnd, max_jet_order=2):
    inv = frame.inv_space()
    syms = []
    for g in frame.generator_names():
        for K in MultiIndex.up_to_order(inv.p, max_jet_order):
            syms.append(inv.coord(g, K))
    terms = []
    for _ in range(4):
        deg = rnd.randint(1, 2)
        mono = se.rational(rnd.randint(1, 3), rnd.randint(1, 3))
        for _ in range(deg):
            mono = mono * rnd.choice(syms)
        terms.append(mono)
    out = se.Expr(0)
    for t in terms:
        out = out + t
    return se.canonical(out)


def _check_el_oracle(frame, L):
    """E_direct(alpha) = sum_beta Ehat(beta) * d(g.u^beta)/du^alpha |_rho,
    the nonzero non-invariant multipliers being the frame Jacobian entries."""
    spec = frame.spec
    reg = spec.registry
    ctx = vc._context(frame, L)
    el = vc.invariant_el(L, ctx.H, reduce_syzygies=False)
    L_jets = ctx.table.generators_to_jets(L.total())
    base_js = frame.jet_space()
    js = JetSpace(base_js.independent, base_js.dependent + ("lambda",),
                  order=14, registry=reg, kind=se.KIND_AUXILIARY)
    pro = spec.prolonged_action(0)
    factors = {}
    for alpha in spec.dependent:
        e_direct = euler_operator(L_jets, alpha, js)
        combined = se.Expr(0)
        for beta in spec.dependent:
            c = se.Expr(sp.diff(pro[beta].sympy, reg.sympy_symbol(alpha)))
            c = se.subst(c, frame.params)
            factors[(beta, alpha)] = c
            combined = combined + ctx.table.generators_to_jets(el[beta]) * c
        assert se.zero_verdict(resid := e_direct - combined,
                               rng=random.Random(4)).zero, (spec.name, alpha)
    return factors


def test_2_el_oracle_equivalence(frames):
    rnd = random.Random(20260808)
    lagrangians = {
        "sl2-action1": ["sigma_x^2/2", "sigma^3 + sigma_xx^2/2"],
        "se2-curve": ["kappa^2", "kappa_s^2/2 + kappa^3"],
        "sl2-action2": ["sigma_s^2/2", "sigma^2 + sigma_s*sigma"],
        "sl2-action3": ["(sigma_s^2 + eta_s^2)/2", "eta^2*sigma + sigma_s^2"],
        "sl2-surface": [SURF_L, "sigma*kappa_x + kappa^2"],
    }
    with criterion("2", "EL oracle equivalence (direct Euler operator in jet "
                        "coordinates), 3 Lagrangians per entry incl. a seeded "
                        "random polynomial"):
        for name, fixed in lagrangians.items():
            frame = frames(name)
            texts = list(fixed)
            cap = 1 if name == "sl2-surface" else 2
            rand_L = _random_lagrangian(frame, rnd, max_jet_order=cap)
            all_L = [se.parse(t, frame.registry) for t in texts] + [rand_L]
            # deepest first so the cached table is reused by the rest
            all_L.sort(key=lambda e: -frame.inv_space().max_order_in(e))
            for lexpr in all_L:
                L = vc.make_lagrangian(frame, lexpr)
                factors = _check_el_oracle(frame, L)
            print(f"    {name}: recorded multipliers "
                  + ", ".join(f"d(g.{b})/d{a}|rho = {c}"
                              for (b, a), c in sorted(factors.items())
                              if not c.is_zero_literal()))


# =========================================================================
# 3. Equivariance and representation properties
# =========================================================================

ALL = ("se2-curve", "sl2-action1", "sl2-action2", "sl2-action3", "sl2-surface")


def test_3_equivariance_and_representation(specs, frames):
    with criterion("3", "psi(rho.z) = 0 symbolically; equivariance and "
                        "I(g.z) = I(z) at 100 samples (tol 1e-9); "
                        "Ad(g)Ad(h) = Ad(gh) and Ad B Ad^T = B"):
        for name in ALL:
            spec = specs(name)
            frame = frames(name)
            # psi symbolic
            for coord, target in spec.normalizations:
                resid = fr.invariantize(spec.registry.expr(coord), frame) - target
                assert se.is_zero(resid), (name, coord)
            # numeric equivariance at 100 samples
            fr._check_equivariance(frame, 100, random.Random(777), 1e-9)
            # invariance of the generating invariant at 100 samples
            _check_invariance_numeric(spec, frame, random.Random(778))
        # Ad representation and Killing invariance, symbolically (sl2 entries)
        for name in ("sl2-action1", "sl2-action2", "sl2-action3", "sl2-surface"):
            spec = specs(name)
            ad = prolonged_adjoint(spec, verify=True)  # includes Ad(g)Ad(h)=Ad(gh)
            B = lg.killing_form(spec).sympy()
            resid = ad * B * ad.T - B
            for e in resid:
                assert se.is_zero(se.Expr(sp.cancel(sp.together(e)))), name


def _check_invariance_numeric(spec, frame, rng, samples=100):
    gen = spec.generators[-1]
    order = frame.jet_space().parse_coord(gen["coordinate"])[1].order + 1
    pro = spec.prolonged_action(order)
    charts = spec.chart_conditions()
    names = [n for _, _, n in frame.jet_space().coords_up_to(order)]
    good = 0
    while good < samples:
        g = spec.sample_params(rng)
        z = spec.sample_point(rng, order)
        try:
            if any(se.eval_num(ch, {**g, **z}) <= 0.35 for ch in charts):
                continue
            zt = {n: se.eval_num(pro[n], {**g, **z}) for n in names}
            a = se.eval_num(gen["explicit"], zt)
            b = se.eval_num(gen["explicit"], z)
        except se.SymExprError:
            continue
        good += 1
        assert abs(a - b) <= 1e-9 * (1 + abs(b)), spec.name


# =========================================================================
# 4. Numeric conservation with drift scaling
# =========================================================================

def test_4_numeric_conservation(frames, laws_of):
    with criterion("4", "law components constant to 1e-6 along RK4 extremals "
                        "(h=1e-3, s in [0,10]) with O(h^4) drift scaling"):
        for name in ("se2-curve", "sl2-action1"):
            frame = frames(name)
            laws = laws_of(name, nl.DEMO_LAGRANGIANS[name])
            rep = nl.conservation_demo(name, h=1e-3, span=(0.0, 10.0),
                                       tol=1e-6, frame=frame, laws=laws)
            assert rep.passed, [c.name for c in rep.checks if not c.passed]
            order = nl.rk4_convergence_order(frame, span=(0.0, 10.0))
            assert 3.7 <= order <= 4.3, (name, order)
            dorder = nl.conservation_drift_order(frame, laws, span=(0.0, 10.0))
            assert 3.0 <= dorder <= 5.0, (name, dorder)
            print(f"    {name}: RK4 order {order:.3f}, drift order {dorder:.3f}")


# =========================================================================
# 5. Reconstruction residuals and the beta radicand
# =========================================================================

def test_5_reconstructions(frames, laws_of):
    with criterion("5", "Eqs. (3)-(5) along the elastica < 1e-6; tanh/Riccati "
                        "reconstructions satisfy reduced systems < 1e-8; beta "
                        "radicand resolved by the residual oracle"):
        frame = frames("se2-curve")
        laws = laws_of("se2-curve", "kappa^2")
        rep = nl.reconstruction_demo("se2-curve", h=1e-3, span=(0.0, 10.0),
                                     frame=frame, laws=laws)
        assert rep.passed, [c.name for c in rep.checks if not c.passed]
        for name, span in (("sl2-action1", (0.0, 0.8)),
                           ("sl2-action2", (0.0, 0.8)),
                           ("sl2-action3", (0.0, 0.4))):
            frame = frames(name)
            laws = laws_of(name, nl.DEMO_LAGRANGIANS[name])
            rep = nl.reconstruction_demo(name, h=1e-4, span=span,
                                         frame=frame, laws=laws)
            assert rep.passed, [c.name for c in rep.checks if not c.passed]
            note = next(n for n in rep.notes if "radicand" in n)
            assert "c1^2+4c2c3" in note
            print(f"    {note}")


# =========================================================================
# 6. Multiplier cancellation
# =========================================================================

def test_6_multiplier_cancellation(frames, laws_of):
    with criterion("6", "sl2-surface derivation output contains no lambda "
                        "symbol after canonicalization"):
        laws = laws_of("sl2-surface", SURF_L, syzygy=True)
        names = set()
        for vec in laws.upsilon.values():
            for u in vec:
                names |= u.free_names()
        for e in laws.el.values():
            names |= e.free_names()
        for c in laws.boundary.coeffs.values():
            names |= c.free_names()
        offenders = {n for n in names if n == "lambda" or n.startswith("lambda_")}
        assert not offenders, offenders


# =========================================================================
# 7. CLI determinism
# =========================================================================

GOLDEN_DIR = Path(__file__).parent / "golden"

# golden file under tests/golden -> CLI arguments that reproduce it
GOLDEN_COMMANDS = {
    "catalog.json": ["catalog"],
    "derive-sl2-action1.json": ["derive", "--entry", "sl2-action1",
                                "--lagrangian", "sigma_x^2/2", "--no-verify"],
    "laws-se2-curve.json": ["laws", "--entry", "se2-curve",
                            "--lagrangian", "kappa^2", "--no-verify"],
    "laws-sl2-action3.json": ["laws", "--entry", "sl2-action3",
                              "--lagrangian", "(sigma_s^2 + eta_s^2)/2",
                              "--no-verify"],
    "laws-sl2-action1.json": ["laws", "--entry", "sl2-action1",
                              "--lagrangian", "sigma_x^2/2", "--no-verify"],
}


def test_7_cli_determinism(tmp_path, capsys):
    with criterion("7", "byte-identical JSON across repeated runs of every "
                        "CLI golden command, equal to its golden file"):
        for golden, argv in GOLDEN_COMMANDS.items():
            outs = []
            for run_idx in range(2):
                path = tmp_path / f"{run_idx}-{golden}"
                code = cli.run(argv + ["--out", str(path)])
                capsys.readouterr()
                assert code == 0, argv
                outs.append(path.read_bytes())
            assert outs[0] == outs[1], argv
            assert outs[0] == (GOLDEN_DIR / golden).read_bytes(), argv
            json.loads(outs[0])  # valid JSON

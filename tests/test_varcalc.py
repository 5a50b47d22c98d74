import dataclasses
import random

import pytest
import sympy as sp

from framecalc import frame as fr
from framecalc import liegroup as lg
from framecalc import symexpr as se
from framecalc import varcalc as vc
from framecalc.jetcalc import JetSpace, MultiIndex, euler_operator, total_derivative
from framecalc.symexpr import KIND_AUXILIARY
from ibp_oracle import ibp_identity_holds, null_divergence_holds

SURF_L = "sigma_x^2/2 + kappa_t^2/2 + sigma*kappa + sigma_t*kappa_x"


def equal_up_to_rational_constant(a: se.Expr, b: se.Expr) -> bool:
    """a = q b for a nonzero rational constant q."""
    q = sp.cancel(sp.together(a.sympy / b.sympy))
    return q.is_Rational and q != 0


# -- linear differential operators -----------------------------------------------

def test_adjoint_sl2_H_is_antiselfadjoint(frames, contexts):
    _, ctx = contexts("sl2-action1", "sigma_x^2/2")
    frame = frames("sl2-action1")
    inv = frame.inv_space()
    H = ctx.H.op("sigma", "u")
    Hstar = H.adjoint(inv)
    # (D^3 + 2 sigma D + sigma_x)* = -(D^3 + 2 sigma D + sigma_x)
    for (J1, a1), (J2, a2) in zip(H.terms, Hstar.terms):
        assert J1 == J2
        assert se.canonical(a1 + a2).is_zero_literal()


def test_adjoint_surface_H2(frames, contexts):
    _, ctx = contexts("sl2-surface", SURF_L)
    frame = frames("sl2-surface")
    inv = frame.inv_space()
    H2s = ctx.H.op("kappa", "u").adjoint(inv)
    # (D_t - kappa D_x + kappa_x)* = -D_t + kappa D_x + 2 kappa_x
    reg = frame.spec.registry
    expected = {(0, 0): se.parse("2*kappa_x", reg),
                (1, 0): se.parse("kappa", reg),
                (0, 1): se.parse("-1", reg)}
    got = {J.counts: a for J, a in H2s.terms}
    assert set(got) == set(expected)
    for k in expected:
        assert se.is_zero(got[k] - expected[k])


def test_adjoint_identity_operator(frames):
    frame = frames("sl2-action1")
    inv = frame.inv_space()
    ident = vc.LinDiffOp(("x",), ((MultiIndex((0,)), se.integer(1)),))
    assert ident.adjoint(inv).terms == ident.terms


def test_adjoint_involution_random_ops(frames):
    frame = frames("sl2-action1")
    inv = frame.inv_space()
    reg = frame.spec.registry
    rnd = random.Random(17)
    basis = [se.integer(1), reg.expr("sigma"), reg.expr("sigma_x"),
             reg.expr("sigma") * reg.expr("sigma")]
    for _ in range(100):
        terms = []
        for k in range(rnd.randint(1, 3)):
            J = MultiIndex((rnd.randint(0, 4),))
            coeff = se.rational(rnd.randint(-4, 4), rnd.randint(1, 3)) \
                * rnd.choice(basis)
            terms.append((J, coeff))
        op = vc.LinDiffOp(("x",), tuple(terms))
        opss = op.adjoint(inv).adjoint(inv)
        got = {J.counts: a for J, a in opss.terms}
        want = {J.counts: a for J, a in op.terms}
        assert set(got) == set(want)
        for k in got:
            assert se.canonical(got[k] - want[k]).is_zero_literal()


def test_lindiffop_apply(frames):
    frame = frames("sl2-action1")
    inv = frame.inv_space()
    reg = frame.spec.registry
    op = vc.LinDiffOp(("x",), ((MultiIndex((1,)), se.integer(2)),
                               (MultiIndex((0,)), reg.expr("sigma"))))
    f = reg.expr("sigma_x")
    out = op.apply(f, inv)
    assert se.is_zero(out - (2 * reg.expr("sigma_xx")
                             + reg.expr("sigma") * reg.expr("sigma_x")))


# -- invariant Euler-Lagrange ------------------------------------------------------

def test_invariant_el_action1(frames, contexts):
    L, ctx = contexts("sl2-action1", "sigma_x^2/2")
    el = vc.invariant_el(L, ctx.H)
    reg = frames("sl2-action1").spec.registry
    expected = se.parse("sigma_xxxxx + 2*sigma*sigma_xxx + sigma_x*sigma_xx", reg)
    assert se.is_zero(el["u"] - expected)


def test_invariant_el_constant_lagrangian(frames):
    frame = frames("sl2-action1")
    L = vc.make_lagrangian(frame, se.integer(3))
    ctx = vc._context(frame, L)
    el = vc.invariant_el(L, ctx.H)
    assert el["u"].is_zero_literal()


def test_se2_elastica_after_elimination(frames, contexts):
    L, ctx = contexts("se2-curve", "kappa^2")
    el = vc.invariant_el(L, ctx.H)
    elim, lam = vc.eliminate_multiplier(el, L, frames("se2-curve"),
                                        return_multiplier=True)
    reg = frames("se2-curve").spec.registry
    assert se.is_zero(lam - se.parse("-3*kappa^2", reg))
    elastica = se.parse("kappa_ss + kappa^3/2", reg)
    assert equal_up_to_rational_constant(elim["u"], elastica)
    assert set(elim) == {"u"}


def test_eliminate_without_constraint_is_identity(frames):
    frame = frames("sl2-action1")
    L = vc.make_lagrangian(frame, se.parse("sigma_x^2/2", frame.spec.registry))
    system = {"u": frame.spec.registry.expr("sigma_xx")}
    assert vc.eliminate_multiplier(system, L, frame) == system


def test_action2_elimination_mechanical(frames, contexts):
    """The machine-derived, oracle-verified eliminated E^u for Action 2:
    E^u = D^2 E^sigma + 2 sigma E^sigma - L + (dL/dsigma_s - D dL/dsigma_ss) sigma_s
          + (dL/dsigma_ss) sigma_ss
    (a transcribed reference formula flips the middle signs; the
    discrepancy is recorded in test_acceptance)."""
    L, ctx = contexts("sl2-action2", "sigma_s^2/2")
    frame = frames("sl2-action2")
    el = vc.invariant_el(L, ctx.H)
    elim, lam = vc.eliminate_multiplier(el, L, frame, return_multiplier=True)
    reg = frame.spec.registry
    assert se.is_zero(lam - se.parse("2*sigma*sigma_ss - sigma_s^2/2", reg))
    expected = se.parse("-sigma_ssss - 2*sigma*sigma_ss + sigma_s^2/2", reg)
    assert se.is_zero(elim["u"] - expected)


def test_nonlinear_multiplier_rejected(frames):
    frame = frames("se2-curve")
    reg = frame.spec.registry
    L = vc.make_lagrangian(frame, se.parse("kappa^2", reg))
    lam = reg.expr("lambda")
    bad = {"x": se.canonical(lam * lam + reg.expr("kappa")), "u": reg.expr("kappa")}
    with pytest.raises(vc.NonlinearMultiplierError):
        vc.eliminate_multiplier(bad, L, frame)


# -- boundary coefficients ----------------------------------------------------------

def test_boundary_action1(frames, contexts, laws_of):
    laws = laws_of("sl2-action1", "sigma_x^2/2")
    bc = laws.boundary
    reg = frames("sl2-action1").spec.registry
    expected = {
        (0,): "-sigma*sigma_xx - sigma_xxxx",
        (1,): "-sigma*sigma_x + sigma_xxx",
        (2,): "-sigma_xx",
        (3,): "sigma_x",
    }
    for counts, text in expected.items():
        got = bc.coeff("x", "u", MultiIndex(counts))
        assert se.is_zero(got - se.parse(text, reg)), counts


def test_boundary_constant_lagrangian_all_zero(frames):
    frame = frames("sl2-action1")
    L = vc.make_lagrangian(frame, se.integer(2))
    ctx = vc._context(frame, L)
    bc = vc.boundary_coeffs(L, verify=False, ctx=ctx)
    assert all(c.is_zero_literal() for c in bc.coeffs.values())


def test_boundary_surface_tdirection_with_multiplier(frames, laws_of):
    """The surface entry's t-direction boundary coefficients, derived
    through the multiplier route; the lambda terms form a null divergence
    and drop."""
    frame = frames("sl2-surface")
    reg = frame.spec.registry
    laws = laws_of("sl2-surface", SURF_L, syzygy=True)
    bc = laws.boundary
    Lexpr = se.parse(SURF_L, reg)
    inv = frame.inv_space()
    Ek = vc.syzygy_reduce(euler_operator(Lexpr, "kappa", inv), frame)
    dLdst = se.Expr(sp.diff(Lexpr.sympy, reg.sympy_symbol("sigma_t")))
    dLdkt = se.Expr(sp.diff(Lexpr.sympy, reg.sympy_symbol("kappa_t")))
    sigma, kappa = reg.expr("sigma"), reg.expr("kappa")
    pairs = [
        (MultiIndex((0, 0)), Ek),
        (MultiIndex((1, 0)), se.canonical(-dLdst * sigma - dLdkt * kappa)),
        (MultiIndex((2, 0)), se.Expr(0)),
        (MultiIndex((3, 0)), dLdst),
        (MultiIndex((0, 1)), dLdkt),
    ]
    for J, expected in pairs:
        got = vc.syzygy_reduce(bc.coeff("t", "u", J), frame)
        assert se.is_zero(got - vc.syzygy_reduce(expected, frame)), J.counts


def test_multiplier_cancellation_everywhere(frames, laws_of):
    # acceptance #6: no lambda symbol anywhere in the surface derivation
    laws = laws_of("sl2-surface", SURF_L, syzygy=True)
    names = set()
    for vec in laws.upsilon.values():
        for u in vec:
            names |= u.free_names()
    for e in laws.el.values():
        names |= e.free_names()
    for c in laws.boundary.coeffs.values():
        names |= c.free_names()
    assert not any(n == "lambda" or n.startswith("lambda_") for n in names)


# -- Noether laws ----------------------------------------------------------------

def test_upsilon_action1(frames, laws_of):
    laws = laws_of("sl2-action1", "sigma_x^2/2")
    reg = frames("sl2-action1").spec.registry
    expected = ["2*sigma_xxx", "-sigma*sigma_xx - sigma_xxxx", "2*sigma_xx"]
    for got, text in zip(laws.upsilon["x"], expected):
        assert se.is_zero(got - se.parse(text, reg))


def test_upsilon_se2_matches_eq2(frames, laws_of):
    laws = laws_of("se2-curve", "kappa^2")
    reg = frames("se2-curve").spec.registry
    expected = ["-kappa^2", "-2*kappa_s", "2*kappa"]
    for got, text in zip(laws.upsilon["s"], expected):
        assert se.is_zero(got - se.parse(text, reg))


def test_se2_adinv_is_eq2_matrix_on_arclength(frames, laws_of):
    laws = laws_of("se2-curve", "kappa^2")
    reg = frames("se2-curve").spec.registry
    x, u, x_s, u_s = (reg.expr(n) for n in ("x", "u", "x_s", "u_s"))
    expected = [[x_s, -u_s, se.Expr(0)],
                [u_s, x_s, se.Expr(0)],
                [x * u_s - u * x_s, u * u_s + x * x_s, se.Expr(1)]]
    unit = sp.sqrt(reg.sympy_symbol("u_s") ** 2 + reg.sympy_symbol("x_s") ** 2)
    for i in range(3):
        for j in range(3):
            on_arc = se.Expr(laws.ad_inv[i][j].sympy.subs(unit, 1))
            assert se.is_zero(on_arc - expected[i][j]), (i, j)


def test_surface_upsilon_example29(frames, laws_of):
    frame = frames("sl2-surface")
    reg = frame.spec.registry
    laws = laws_of("sl2-surface", SURF_L, syzygy=True)
    inv = frame.inv_space()
    Dx = lambda e: total_derivative(e, 0, inv)
    Es = vc.syzygy_reduce(euler_operator(se.parse(SURF_L, reg), "sigma", inv), frame)
    Ek = vc.syzygy_reduce(euler_operator(se.parse(SURF_L, reg), "kappa", inv), frame)
    sigma, kappa = reg.expr("sigma"), reg.expr("kappa")
    exp1 = [se.canonical(-2 * Dx(Es)),
            se.canonical(sigma * Es - kappa * Ek + Dx(Dx(Es))),
            se.canonical(-2 * Es)]
    exp2 = [se.Expr(0), Ek, se.Expr(0)]
    for got, want in zip(laws.upsilon["x"], exp1):
        assert se.is_zero(vc.syzygy_reduce(got, frame) - vc.syzygy_reduce(want, frame))
    for got, want in zip(laws.upsilon["t"], exp2):
        assert se.is_zero(vc.syzygy_reduce(got, frame) - vc.syzygy_reduce(want, frame))


# -- Killing first integral and reduced system --------------------------------------

def test_killing_first_integral_action1(frames, laws_of):
    laws = laws_of("sl2-action1", "sigma_x^2/2")
    reg = frames("sl2-action1").spec.registry
    lhs, rhs = vc.killing_first_integral(laws)
    exp_lhs = se.parse(
        "4*sigma_xxx^2 - 8*sigma_xx*sigma_xxxx - 8*sigma*sigma_xx^2", reg)
    assert se.is_zero(se.canonical(lhs * 8) - exp_lhs)
    assert se.is_zero(se.canonical(rhs * 8) - se.parse("c1^2 + 4*c2*c3", reg))


def test_killing_first_integral_trivial_upsilon(frames, laws_of):
    laws = laws_of("sl2-action1", "sigma_x^2/2")
    zeroed = vc.ConservationLawSet(
        laws.frame, laws.ad_inv,
        {"x": tuple(se.Expr(0) for _ in range(3))},
        laws.constants, laws.killing, laws.boundary, laws.el)
    lhs, rhs = vc.killing_first_integral(zeroed)
    assert lhs.is_zero_literal()
    assert not rhs.is_zero_literal()


def test_killing_first_integral_rejects_se2(laws_of):
    laws = laws_of("se2-curve", "kappa^2")
    with pytest.raises(lg.SingularKillingFormError):
        vc.killing_first_integral(laws)
    with pytest.raises(lg.SingularKillingFormError):
        vc.reduced_system(laws)


def test_reduced_system_action1_riccati(frames, laws_of):
    laws = laws_of("sl2-action1", "sigma_x^2/2")
    reg = frames("sl2-action1").spec.registry
    rows = vc.reduced_system(laws)
    assert len(rows) == 1
    # -2 E^sigma u_x - c1 u + c2 u^2 - c3 with E^sigma = -sigma_xx
    expected = se.parse("2*sigma_xx*u_x - c1*u + c2*u^2 - c3", reg)
    assert equal_up_to_rational_constant(rows[0], expected)


def test_reduced_system_action2_riccati(frames, laws_of):
    laws = laws_of("sl2-action2", "sigma_s^2/2")
    reg = frames("sl2-action2").spec.registry
    rows = vc.reduced_system(laws)
    expected = se.parse("2*sigma_ss*u - c1*x + c2*x^2 - c3", reg)
    assert any(equal_up_to_rational_constant(r, expected) for r in rows)


def test_reduced_system_action3_first_equation(frames, laws_of):
    laws = laws_of("sl2-action3", "(sigma_s^2 + eta_s^2)/2")
    reg = frames("sl2-action3").spec.registry
    rows = vc.reduced_system(laws)
    expected = se.parse("-6*sigma_ss*x_s - c1*x + c2*x^2 - c3", reg)
    assert any(equal_up_to_rational_constant(r, expected) for r in rows)


def test_reduced_system_zero_lagrangian_empty(frames):
    frame = frames("sl2-action1")
    L = vc.make_lagrangian(frame, se.integer(0))
    laws = vc.noether_laws(L, frame, verify=False)
    assert vc.reduced_system(laws) == []


# -- structural identities -----------------------------------------------------------

def test_theorem41_algebra_identity(frames, laws_of):
    # upsilon^T Ad(rho)^-T B^-1 Ad(rho)^-1 upsilon = upsilon^T B^-1 upsilon
    # identically (no solution involved), via the Ad-invariance of B.
    laws = laws_of("sl2-action1", "sigma_x^2/2")
    ad_inv = sp.Matrix(3, 3, lambda i, j: laws.ad_inv[i][j].sympy)
    B = laws.killing.sympy()
    ups = sp.Matrix([[u.sympy] for u in laws.upsilon["x"]])
    resid = ups.T * (ad_inv.T * B.inv() * ad_inv - B.inv()) * ups
    assert se.is_zero(se.Expr(sp.cancel(sp.together(resid[0, 0]))))


def test_el_oracle_direct_route(frames, contexts):
    """Invariantized route versus the direct Euler operator in jet
    coordinates, related by the frame-evaluated Jacobian factors."""
    frame = frames("sl2-action1")
    spec = frame.spec
    reg = spec.registry
    L, ctx = contexts("sl2-action1", "sigma_x^2/2")
    el = vc.invariant_el(L, ctx.H, reduce_syzygies=False)
    L_jets = ctx.table.generators_to_jets(L.total())
    js = frame.jet_space()
    e_direct = euler_operator(L_jets, "u", js)
    pro = spec.prolonged_action(0)
    factor = se.subst(
        se.Expr(sp.diff(pro["u"].sympy, reg.sympy_symbol("u"))), frame.params)
    combined = ctx.table.generators_to_jets(el["u"]) * factor
    assert se.is_zero(e_direct - combined)
    # the multiplier is the recorded nonzero factor 1/u_x
    assert se.is_zero(factor - se.parse("1/u_x", reg))


# -- classical Noether currents oracle (se2-curve, L = kappa^2) --------------------

def _higher_euler_currents(L_jets, js, Q, order=3):
    """Independent implementation of the classical Noether current for a
    vertical symmetry with characteristics Q^alpha on one independent
    variable: P = sum_alpha sum_{j>=1} D^{j-1}(Q^alpha) psi^alpha_j with
    psi^alpha_j = sum_{i>=j} (-D)^(i-j) dL/du^alpha_(i)."""
    reg = js.registry
    P = se.Expr(0)
    for dep, Qa in Q.items():
        psis = {}
        for j in range(1, order + 1):
            acc = se.Expr(0)
            for i in range(j, order + 1):
                name = js.coord_name(dep, MultiIndex((i,)))
                dL = se.Expr(sp.diff(L_jets.sympy, reg.sympy_symbol(name)))
                term = dL
                for _ in range(i - j):
                    term = se.canonical(se.Expr(0) - total_derivative(term, 0, js))
                acc = acc + term
            psis[j] = se.canonical(acc)
        DQ = Qa
        for j in range(1, order + 1):
            P = P + DQ * psis[j]
            DQ = total_derivative(DQ, 0, js)
    return se.canonical(P)


def test_laws_oracle_classical_noether_currents_se2(frames, laws_of, contexts):
    """Spec property: for se2-curve with L = kappa^2 the assembled
    Ad(rho)^-1 upsilon equals, entry by entry in jet coordinates, the
    classical Noether currents coded independently (with the multiplier
    value substituted and on the arc-length variety)."""
    frame = frames("se2-curve")
    spec = frame.spec
    reg = spec.registry
    laws = laws_of("se2-curve", "kappa^2")
    _, ctx = contexts("se2-curve", "kappa^2")

    js = JetSpace(("s",), ("x", "u", "lambda"), order=10, registry=reg,
                  kind=se.KIND_AUXILIARY)
    kappa_expl = next(g["explicit"] for g in spec.generators
                      if g["name"] == "kappa")
    eta_expl = next(g["explicit"] for g in spec.generators if g["name"] == "eta")
    lam = reg.expr("lambda")
    L_jets = se.canonical(kappa_expl * kappa_expl + lam * (eta_expl - 1))

    # multiplier value in jets: lambda = -3 kappa^2
    lam_val = se.canonical(-3 * kappa_expl * kappa_expl)
    lam_bind = {}
    cur = lam_val
    for k in range(0, 5):
        lam_bind[js.coord_name("lambda", MultiIndex((k,)))] = cur
        cur = total_derivative(cur, 0, js)

    # characteristics of the three basis fields on (x, u)
    Qs = [{"x": se.integer(1), "u": se.integer(0)},
          {"x": se.integer(0), "u": se.integer(1)},
          {"x": se.Expr(0) - reg.expr("u"), "u": reg.expr("x")}]

    # arc-length variety parametrization: x_s = cos w, u_s = sin w, and the
    # derivative tower through omega = psi_s
    for n in ("w0", "om0", "omp0"):
        if not reg.known(n):
            reg.register(n, se.KIND_AUXILIARY)
    w, om, omp = reg.sympy_symbol("w0"), reg.sympy_symbol("om0"), reg.sympy_symbol("omp0")
    cw, sw = sp.cos(w), sp.sin(w)
    variety = {
        "x_s": se.Expr(cw), "u_s": se.Expr(sw),
        "x_ss": se.Expr(-om * sw), "u_ss": se.Expr(om * cw),
        "x_sss": se.Expr(-om * om * cw - omp * sw),
        "u_sss": se.Expr(-om * om * sw + omp * cw),
    }

    comps = laws.law_components()
    for i, Q in enumerate(Qs):
        P = _higher_euler_currents(L_jets, js, Q)
        P = se.subst(P, lam_bind)
        law_jets = ctx.table.generators_to_jets(comps[i])
        diff = se.subst(P - law_jets, variety)
        assert se.zero_verdict(diff, rng=random.Random(21)).zero, i


def test_surface_invariantized_infinitesimals(frames, contexts):
    # Omega^u(I) rows (0,2,0,2 sigma,2 kappa), (1,0,0,0,0), (0,0,-2,0,0)
    frame = frames("sl2-surface")
    _, ctx = contexts("sl2-surface", SURF_L)
    om = lg.infinitesimal_matrix(frame.spec, ["u", "u_x", "u_xx", "u_xxx", "u_t"])
    reg = frame.spec.registry
    sig, kap = reg.expr("sigma"), reg.expr("kappa")
    expected = [[se.Expr(0), se.integer(2), se.Expr(0), 2 * sig, 2 * kap],
                [se.integer(1), se.Expr(0), se.Expr(0), se.Expr(0), se.Expr(0)],
                [se.Expr(0), se.Expr(0), se.integer(-2), se.Expr(0), se.Expr(0)]]
    for i in range(3):
        for j in range(5):
            got = ctx.table.replace(om.at(i, j))
            assert se.is_zero(got - expected[i][j]), (i, j)


# -- verification of the integration by parts ----------------------------------------

DEMO_CASES = [
    ("se2-curve", "kappa^2", False),
    ("sl2-action1", "sigma_x^2/2", False),
    ("sl2-action2", "sigma_s^2/2", False),
    ("sl2-action3", "(sigma_s^2 + eta_s^2)/2", False),
    ("sl2-surface", SURF_L, True),
]


@pytest.fixture(scope="module")
def integrations(contexts):
    """(L, ctx, work_js, V, E2, bc) of vc._integrate_by_parts, once per case."""
    cache = {}

    def get(name, ltext, syzygy=False):
        key = (name, ltext, syzygy)
        if key not in cache:
            L, ctx = contexts(name, ltext, syzygy)
            cache[key] = (L, ctx, *vc._integrate_by_parts(ctx))
        return cache[key]

    return get


def _with_coeff(bc, key, value):
    return vc.BoundaryCoefficients(bc.frame, bc.directions,
                                   {**bc.coeffs, key: se.canonical(value)},
                                   bc.max_j_order)


@pytest.mark.parametrize("name,ltext,syzygy", DEMO_CASES,
                         ids=[c[0] for c in DEMO_CASES])
def test_formal_ibp_check_agrees_with_explicit_oracle(integrations, name, ltext,
                                                      syzygy):
    _, ctx, work, V, E2, bc = integrations(name, ltext, syzygy)
    vc._verify_boundary(ctx, work, V, E2, bc, random.Random(5))
    assert ibp_identity_holds(ctx, E2, bc, random.Random(5))
    if syzygy:
        vc._drop_multiplier_null_divergence(ctx, work, bc, random.Random(5))
        assert null_divergence_holds(ctx, bc, random.Random(5))


@pytest.mark.parametrize("name,ltext,syzygy", [DEMO_CASES[2], DEMO_CASES[4]],
                         ids=["sl2-action2", "sl2-surface"])
def test_ibp_check_rejects_doubled_boundary_coefficient(integrations, name,
                                                        ltext, syzygy):
    _, ctx, work, V, E2, bc = integrations(name, ltext, syzygy)
    key, c = next(iter(bc.coeffs.items()))
    bad = _with_coeff(bc, key, 2 * c)
    with pytest.raises(vc.VerificationFailure, match="integration-by-parts"):
        vc._verify_boundary(ctx, work, V, E2, bad, random.Random(5))


def test_ibp_oracle_rejects_doubled_boundary_coefficient(integrations):
    _, ctx, _, _, E2, bc = integrations("sl2-action1", "sigma_x^2/2")
    key, c = next(iter(bc.coeffs.items()))
    assert not ibp_identity_holds(ctx, E2, _with_coeff(bc, key, 2 * c),
                                  random.Random(5))


def test_ibp_check_rejects_scaled_syzygy_term(contexts):
    # D_tau sigma = (D_x^3 + 2 sigma D_x + sigma_x) I^u_tau, with D_x^3 doubled:
    # the integration by parts stays consistent, the syzygy does not hold.
    L, ctx = contexts("sl2-action1", "sigma_x^2/2")
    op = ctx.H.op("sigma", "u")
    (J, a), *rest = reversed(op.terms)
    bad_op = vc.LinDiffOp(op.independents, ((J, 2 * a), *rest))
    bad_H = fr.SyzygyOperators(ctx.H.frame, ctx.H.generators, ctx.H.dependents,
                               {**ctx.H.ops, ("sigma", "u"): bad_op})
    bad_ctx = dataclasses.replace(ctx, H=bad_H)
    with pytest.raises(vc.VerificationFailure, match="syzygy operators"):
        vc.boundary_coeffs(L, rng=random.Random(5), ctx=bad_ctx)


def test_ibp_check_rejects_corrupted_isym_form(contexts, integrations):
    # Claim I^u_{x tau} is twice what it is, in both directions of the
    # tau expansions: the formal identity still holds, the explicit form
    # of I^u_{x tau} does not.
    L, ctx = contexts("sl2-action1", "sigma_x^2/2")
    bc = integrations("sl2-action1", "sigma_x^2/2")[-1]
    iname = fr._isym_name("u", MultiIndex((1,)), ("x",))
    assert not bc.coeff("x", "u", MultiIndex((1,))).is_zero_literal()
    half = {iname: se.canonical(ctx.spec.registry.expr(iname) / 2)}
    bad_ctx = dataclasses.replace(
        ctx,
        expansions={k: se.subst(v, half) for k, v in ctx.expansions.items()},
        isym_to_formal={**ctx.isym_to_formal,
                        iname: se.canonical(2 * ctx.isym_to_formal[iname])})
    with pytest.raises(vc.VerificationFailure, match=f"formal form of {iname}"):
        vc.boundary_coeffs(L, rng=random.Random(5), ctx=bad_ctx)


def test_null_divergence_rejects_corrupted_multiplier_coefficient(integrations):
    _, ctx, work, _, _, bc = integrations("sl2-surface", SURF_L, True)
    key, c, lam = next((k, c, lam) for k, c in bc.coeffs.items()
                       if not (lam := vc._multiplier_part(c, ctx.inv_js))
                       .is_zero_literal())
    bad = _with_coeff(bc, key, c + lam)
    with pytest.raises(vc.VerificationFailure, match="null divergence"):
        vc._drop_multiplier_null_divergence(ctx, work, bad, random.Random(5))

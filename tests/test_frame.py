import random

import pytest
import sympy as sp

from framecalc import frame as fr
from framecalc import symexpr as se
from framecalc.jetcalc import MultiIndex, total_derivative


ALL = ("se2-curve", "sl2-action1", "sl2-action2", "sl2-action3", "sl2-surface")


@pytest.mark.parametrize("name", ALL)
def test_solve_frame_fully_verified(specs, name):
    # symbolic psi check, cross-section identity, generator consistency,
    # numeric equivariance at 50 samples
    frame = fr.solve_frame(specs(name), verify=True, samples=50,
                           rng=random.Random(31), tol=1e-9)
    assert set(frame.params) == set(specs(name).params)


def test_frame_eq4_golden(frames):
    frame = frames("sl2-action1")
    reg = frame.registry
    expected = {
        "a": se.parse("u_x^(-1/2)", reg),
        "b": se.parse("-u*u_x^(-1/2)", reg),
        "c": se.parse("u_xx/(2*u_x^(3/2))", reg),
    }
    for p, e in expected.items():
        assert se.is_zero(frame.params[p] - e), p


def test_psi_residuals_zero(frames):
    frame = frames("sl2-action1")
    spec = frame.spec
    for coord, target in spec.normalizations:
        resid = fr.invariantize(spec.registry.expr(coord), frame) - target
        assert se.is_zero(resid), coord


def test_se2_frame_normalizations(frames):
    frame = frames("se2-curve")
    spec = frame.spec
    for coord, target in spec.normalizations:
        resid = fr.invariantize(spec.registry.expr(coord), frame) - target
        assert se.is_zero(resid), coord


def test_invariantize_schwarzian(frames):
    frame = frames("sl2-action1")
    reg = frame.registry
    out = fr.invariantize(reg.expr("u_xxx"), frame)
    schw = se.parse("u_xxx/u_x - (3/2)*u_xx^2/u_x^2", reg)
    assert se.is_zero(out - schw)


def test_invariantize_normalized_coordinate(frames):
    frame = frames("sl2-action1")
    assert str(fr.invariantize(frame.registry.expr("u_x"), frame)) == "1"


def test_invariantize_tau_direction(frames):
    # u = u(x, tau): I(u_tau) = u_tau / u_x
    frame = frames("sl2-action1")
    js = frame.jet_space(tau=True)
    u_tau = js.coord("u", MultiIndex((0, 1)))
    out = fr.invariantize(u_tau, frame, tau=True)
    reg = frame.registry
    assert se.is_zero(out - u_tau / reg.expr("u_x"))


def test_invariance_of_invariantization_numeric(frames, rng):
    # I(g.z) = I(z) at 100 random samples, tol 1e-9
    frame = frames("sl2-action1")
    spec = frame.spec
    schw = fr.invariantize(spec.registry.expr("u_xxx"), frame)
    pro = spec.prolonged_action(3)
    charts = spec.chart_conditions()
    names = [n for _, _, n in spec.jet_space().coords_up_to(3)]
    good = 0
    while good < 100:
        g = spec.sample_params(rng)
        z = spec.sample_point(rng, 3)
        try:
            if any(se.eval_num(ch, {**g, **z}) <= 0.35 for ch in charts):
                continue
            zt = {n: se.eval_num(pro[n], {**g, **z}) for n in names}
            a = se.eval_num(schw, zt)
            b = se.eval_num(schw, z)
        except se.SymExprError:
            continue
        good += 1
        assert abs(a - b) <= 1e-9 * (1 + abs(b))


# -- invariant table -----------------------------------------------------------

def test_table_order4_and_5(frames):
    frame = frames("sl2-action1")
    tab = fr.build_invariant_table(frame, 5)
    reg = frame.registry
    assert str(tab.genform["u_xxxx"]) == "sigma_x"
    assert se.is_zero(tab.genform["u_xxxxx"]
                      - se.parse("sigma_xx + 4*sigma^2", reg))
    assert str(tab.genform["u"]) == "0"
    assert str(tab.genform["u_x"]) == "1"
    assert str(tab.genform["u_xx"]) == "0"


def test_table_consistency_invariant(frames):
    # explicit form and generator form agree after substituting the
    # generators' defining expressions (the I^u_11111 oracle)
    frame = frames("sl2-action1")
    tab = fr.build_invariant_table(frame, 5)
    for coord in ("u_xxx", "u_xxxx", "u_xxxxx"):
        explicit = tab.explicit[coord]
        via_generators = tab.generators_to_jets(tab.genform[coord])
        assert se.is_zero(explicit - via_generators), coord


def test_rewrite_in_invariants(frames):
    frame = frames("sl2-action1")
    tab = fr.build_invariant_table(frame, 5)
    reg = frame.registry
    schw = se.parse("u_xxx/u_x - (3/2)*u_xx^2/u_x^2", reg)
    assert str(fr.rewrite_in_invariants(schw, tab, rng=random.Random(2))) == "sigma"
    js = frame.jet_space()
    dschw = total_derivative(schw, 0, js)
    assert str(fr.rewrite_in_invariants(dschw, tab, rng=random.Random(2))) == "sigma_x"
    five = se.integer(5)
    assert str(fr.rewrite_in_invariants(five, tab, rng=random.Random(2))) == "5"


def test_rewrite_rejects_non_invariant(frames):
    frame = frames("sl2-action1")
    tab = fr.build_invariant_table(frame, 4)
    with pytest.raises(fr.NotInvariantError):
        fr.rewrite_in_invariants(frame.registry.expr("u_xx"), tab,
                                 rng=random.Random(2))


def test_replacement_fixed_points(frames):
    # invariantize then rewrite reproduces the generator expression
    frame = frames("se2-curve")
    tab = fr.build_invariant_table(frame, 3)
    reg = frame.registry
    kappa_expl = next(g["explicit"] for g in frame.spec.generators
                      if g["name"] == "kappa")
    out = fr.rewrite_in_invariants(kappa_expl, tab, rng=random.Random(2))
    assert str(out) == "kappa"
    eta_expl = next(g["explicit"] for g in frame.spec.generators
                    if g["name"] == "eta")
    assert str(fr.rewrite_in_invariants(eta_expl, tab, rng=random.Random(2))) == "eta"


def test_equivariance_invariance_I_of_gz(frames, rng):
    # rho(g.z).(g.z) = rho(z).z componentwise at 100 samples
    frame = frames("se2-curve")
    spec = frame.spec
    pro = spec.prolonged_action(2)
    charts = spec.chart_conditions()
    names = [n for _, _, n in spec.jet_space().coords_up_to(2)]
    kappa_expl = next(g["explicit"] for g in spec.generators
                      if g["name"] == "kappa")
    good = 0
    while good < 100:
        g = spec.sample_params(rng)
        z = spec.sample_point(rng, 2)
        try:
            if any(se.eval_num(ch, {**g, **z}) <= 0.35 for ch in charts):
                continue
            zt = {n: se.eval_num(pro[n], {**g, **z}) for n in names}
            a = se.eval_num(kappa_expl, zt)
            b = se.eval_num(kappa_expl, z)
        except se.SymExprError:
            continue
        good += 1
        assert abs(a - b) <= 1e-9 * (1 + abs(b))


# -- tau tables and syzygies -----------------------------------------------------

def test_tau_table_symbols(frames):
    frame = frames("sl2-action1")
    tab = fr.build_invariant_table(frame, 4, tau=True)
    assert str(tab.genform["u_tau"]) == "Iu_tau"
    assert str(tab.genform["u_xtau"]) == "Iu_xtau"
    # explicit I^u_tau = u_tau / u_x
    reg = frame.registry
    expected = frame.jet_space(tau=True).coord("u", MultiIndex((0, 1))) / reg.expr("u_x")
    assert se.is_zero(tab.explicit["u_tau"] - expected)


def test_syzygy_action1(frames, contexts):
    _, ctx = contexts("sl2-action1", "sigma_x^2/2")
    H = ctx.H.op("sigma", "u")
    reg = frames("sl2-action1").registry
    terms = {J.counts: str(a) for J, a in H.terms}
    assert terms == {(0,): "sigma_x", (1,): "2*sigma", (3,): "1"}


def test_syzygy_surface_H2(frames, contexts):
    _, ctx = contexts("sl2-surface", "sigma_x^2/2 + kappa_t^2/2 + sigma*kappa + sigma_t*kappa_x")
    H2 = ctx.H.op("kappa", "u")
    terms = {J.counts: str(a) for J, a in H2.terms}
    assert terms == {(0, 0): "kappa_x", (0, 1): "1", (1, 0): "-kappa"}


def test_syzygy_identity_verified(frames):
    frame = frames("sl2-action1")
    tab = fr.build_invariant_table(frame, 4, tau=True)
    H = fr.syzygy_operators(frame, tab)
    assert fr.verify_syzygies(H, tab, rng=random.Random(12))


def test_syzygy_identity_verified_se2(frames):
    frame = frames("se2-curve")
    tab = fr.build_invariant_table(frame, 3, tau=True)
    H = fr.syzygy_operators(frame, tab)
    assert fr.verify_syzygies(H, tab, rng=random.Random(12))


def test_se2_syzygies_on_constraint(frames):
    # on eta = 1 the kappa syzygy reduces to the classical
    # D_tau kappa = (D_s^2 - kappa^2) I^u_tau + (2 kappa D_s + kappa_s) I^x_tau
    frame = frames("se2-curve")
    tab = fr.build_invariant_table(frame, 3, tau=True)
    H = fr.syzygy_operators(frame, tab)

    def reduced_terms(op):
        out = {}
        for J, a in op.terms:
            v = frame.constraint_reduction(a)
            if not v.is_zero_literal():
                out[J.counts] = str(v)
        return out

    assert reduced_terms(H.op("kappa", "u")) == {(0,): "-kappa**2", (2,): "1"}
    assert reduced_terms(H.op("kappa", "x")) == {(0,): "kappa_s", (1,): "2*kappa"}


def test_solve_frame_rejects_tampered_frame():
    # tamper with the catalog closed form via a scratch spec object
    import framecalc.liegroup as lg
    scratch = lg.catalog("sl2-action1", validate=False)
    scratch.frame_exprs["b"] = scratch.registry.expr("u")
    with pytest.raises(fr.FrameVerificationError) as err:
        fr.solve_frame(scratch, verify=True, samples=5,
                       rng=random.Random(3))
    assert "normalization" in str(err.value) or "cross-section" in str(err.value)

import random

import pytest
import sympy as sp

from framecalc import jetcalc as jc
from framecalc import liegroup as lg
from framecalc import symexpr as se
from framecalc.jetcalc import JetSpace, MultiIndex


@pytest.fixture()
def js():
    reg = se.SymbolRegistry()
    return jc.JetSpace(("x",), ("u",), order=8, registry=reg, positive=("u_x",))


@pytest.fixture()
def js2():
    reg = se.SymbolRegistry()
    return jc.JetSpace(("x", "t"), ("u",), order=6, registry=reg)


def test_multiindex_algebra():
    a = MultiIndex((1, 2))
    b = MultiIndex((0, 1))
    assert (a + b).counts == (1, 3)
    assert a.order == 3
    assert a.bump(0).counts == (2, 2)
    assert a.drop(1).counts == (1, 1)
    with pytest.raises(ValueError):
        MultiIndex((0, 0)).drop(0)
    assert list(m.counts for m in MultiIndex.all_of_order(2, 2)) == [
        (2, 0), (1, 1), (0, 2)]


def test_coord_names_roundtrip(js2):
    for dep, K, name in js2.coords_up_to(4):
        assert js2.parse_coord(name) == (dep, K)
    assert js2.parse_coord("v_x") is None
    assert js2.parse_coord("u_q") is None


def test_coord_names_with_tau():
    reg = se.SymbolRegistry()
    js3 = jc.JetSpace(("x", "t", "tau"), ("u",), order=5, registry=reg)
    name = js3.coord_name("u", MultiIndex((1, 1, 1)))
    assert name == "u_xttau"
    assert js3.parse_coord(name) == ("u", MultiIndex((1, 1, 1)))
    assert js3.parse_coord("u_ttau") == ("u", MultiIndex((0, 1, 1)))


def test_parse_coord_above_own_order():
    # the registry answers for coordinates a larger space registered
    reg = se.SymbolRegistry()
    small = jc.JetSpace(("x", "t"), ("u",), order=2, registry=reg)
    assert small.parse_coord("u_xxt") is None
    jc.JetSpace(("x", "t"), ("u",), order=5, registry=reg)
    assert small.parse_coord("u_xxt") == ("u", MultiIndex((2, 1)))
    assert small.max_order_in(se.parse("u_x*u_xxxtt", reg)) == 5


def test_parse_coord_foreign_independent():
    reg = se.SymbolRegistry()
    jc.JetSpace(("x", "t", "tau"), ("u",), order=2, registry=reg)
    plain = jc.JetSpace(("x", "t"), ("u",), order=2, registry=reg)
    assert plain.parse_coord("u_tau") is None
    assert plain.parse_coord("u_xtau") is None
    assert plain.parse_coord("u_xt") == ("u", MultiIndex((1, 1)))


def test_parse_coord_underscored_dependents():
    reg = se.SymbolRegistry()
    jc.JetSpace(("x", "t", "tau"), ("u",), order=3, registry=reg)
    formal = jc.JetSpace(("x", "t"), ("Iu_tau",), order=3, registry=reg)
    assert formal.parse_coord("Iu_tau_x") == ("Iu_tau", MultiIndex((1, 0)))
    assert formal.parse_coord("Iu_tau") == ("Iu_tau", MultiIndex((0, 0)))
    assert formal.parse_coord("u_tau") is None
    reg1 = se.SymbolRegistry()
    inv = jc.JetSpace(("s",), ("sigma",), order=3, registry=reg1)
    work = jc.JetSpace(("s",), ("sigma", "Dtau_sigma"), order=3, registry=reg1)
    assert work.parse_coord("Dtau_sigma_s") == ("Dtau_sigma", MultiIndex((1,)))
    assert work.parse_coord("sigma_ss") == ("sigma", MultiIndex((2,)))
    assert inv.parse_coord("Dtau_sigma_s") is None


def test_conflicting_jet_structure_raises():
    reg = se.SymbolRegistry()
    jc.JetSpace(("x",), ("u",), order=2, registry=reg)
    # u_x as a dependent of its own would be a second structure for u_x
    with pytest.raises(ValueError):
        jc.JetSpace(("x",), ("u_x",), order=1, registry=reg)


def test_total_derivative_basics(js):
    reg = js.registry
    assert str(jc.total_derivative(reg.expr("u"), 0, js)) == "u_x"
    assert str(jc.total_derivative(reg.expr("x"), 0, js)) == "1"


def test_total_derivative_schwarzian(js):
    reg = js.registry
    schw = se.parse("u_xxx/u_x - (3/2)*u_xx^2/u_x^2", reg)
    d = jc.total_derivative(schw, 0, js)
    expected = se.parse("u_xxxx/u_x - 4*u_xx*u_xxx/u_x^2 + 3*u_xx^3/u_x^3", reg)
    assert se.is_zero(d - expected)


def test_total_derivative_registers_coordinates_on_first_use():
    reg = se.SymbolRegistry()
    js = jc.JetSpace(("x",), ("u",), registry=reg)
    name = "u_" + "x" * 20
    assert not reg.known("u_x")
    e = jc.total_derivative_multi(reg.expr("u"), MultiIndex((20,)), js)
    assert str(e) == name
    assert reg.id_of(name).kind == se.KIND_JET
    assert reg.jet(name) == ("u", (("x", 20),))
    assert js.parse_coord(name) == ("u", MultiIndex((20,)))


def test_coordinate_first_reached_through_mixed_space_takes_dependent_kind():
    reg = se.SymbolRegistry()
    jc.JetSpace(("s",), ("sigma",), registry=reg, kind=se.KIND_GENERATOR)
    mixed = jc.JetSpace(("s",), ("sigma", "Dtau_sigma"), registry=reg,
                        kind=se.KIND_AUXILIARY)
    sigma, w = reg.expr("sigma"), reg.expr("Dtau_sigma")
    d = jc.total_derivative(sigma * w, 0, mixed)
    assert se.is_zero(d - reg.expr("sigma_s") * w - sigma * reg.expr("Dtau_sigma_s"))
    assert reg.id_of("sigma_s").kind == se.KIND_GENERATOR
    assert reg.id_of("Dtau_sigma_s").kind == se.KIND_AUXILIARY


def test_entry_parse_vocabulary():
    # the loader registers generator jets to GENERATOR_VOCABULARY_ORDER and
    # base jets to BASE_VOCABULARY_ORDER; nothing above parses
    reg = lg.catalog("sl2-action1", validate=False).registry
    se.parse("sigma_" + "x" * lg.GENERATOR_VOCABULARY_ORDER, reg)
    se.parse("u_" + "x" * lg.BASE_VOCABULARY_ORDER, reg)
    for name in ("sigma_" + "x" * (lg.GENERATOR_VOCABULARY_ORDER + 1),
                 "u_" + "x" * (lg.BASE_VOCABULARY_ORDER + 1)):
        with pytest.raises(se.UnknownSymbolError):
            se.parse(name, reg)


def test_total_derivatives_commute(js2):
    rnd = random.Random(4)
    reg = js2.registry
    names = ["u", "u_x", "u_t", "u_xt", "u_xx"]
    for _ in range(25):
        e = se.Expr(0)
        for n in names:
            e = e + se.rational(rnd.randint(-3, 3), rnd.randint(1, 3)) \
                * reg.expr(n) ** rnd.randint(1, 2)
        ab = jc.total_derivative(jc.total_derivative(e, 0, js2), 1, js2)
        ba = jc.total_derivative(jc.total_derivative(e, 1, js2), 0, js2)
        assert se.canonical(ab - ba).is_zero_literal()


# -- Euler operator ----------------------------------------------------------

def test_euler_operator_textbook():
    reg = se.SymbolRegistry()
    inv = jc.JetSpace(("x",), ("sigma", "kappa"), order=8, registry=reg,
                      kind=se.KIND_GENERATOR)
    assert str(jc.euler_operator(se.parse("sigma_x^2/2", reg), "sigma", inv)) \
        == "-sigma_xx"
    assert str(jc.euler_operator(se.parse("kappa^2", reg), "kappa", inv)) \
        == "2*kappa"


def test_euler_annihilates_total_derivatives(js):
    rnd = random.Random(9)
    reg = js.registry
    for _ in range(15):
        F = se.Expr(0)
        for n in ("u", "u_x", "u_xx"):
            F = F + se.rational(rnd.randint(-3, 3), rnd.randint(1, 2)) \
                * reg.expr(n) ** rnd.randint(1, 3)
        dF = jc.total_derivative(F, 0, js)
        assert jc.euler_operator(dF, "u", js).is_zero_literal()


def test_euler_annihilates_total_derivatives_2d(js2):
    reg = js2.registry
    F = se.parse("u*u_x + u_t^2", reg)
    for i in range(2):
        dF = jc.total_derivative(F, i, js2)
        assert jc.euler_operator(dF, "u", js2).is_zero_literal()


# -- vector field prolongation -------------------------------------------------

def test_prolong_v3_cubic_field(js):
    # v3 = -u^2 d_u prolongs with u_xx-coefficient -(2 u_x^2 + 2 u u_xx)
    reg = js.registry
    v3 = jc.VectorField(js, {"u": se.parse("-u^2", reg)})
    pv = jc.prolong_vector_field(v3, 2, js)
    assert se.is_zero(pv.coeff("u_x") - se.parse("-2*u*u_x", reg))
    assert se.is_zero(pv.coeff("u_xx") - se.parse("-(2*u_x^2 + 2*u*u_xx)", reg))


def test_prolong_v1_v2(js):
    reg = js.registry
    v1 = jc.VectorField(js, {"u": se.parse("2*u", reg)})
    v2 = jc.VectorField(js, {"u": se.integer(1)})
    assert str(jc.prolong_vector_field(v1, 1, js).coeff("u_x")) == "2*u_x"
    assert jc.prolong_vector_field(v2, 1, js).coeff("u_x").is_zero_literal()


# -- action prolongation -------------------------------------------------------

def test_prolong_action_sl2(specs):
    spec = specs("sl2-action1")
    pro = spec.prolonged_action(2)
    reg = spec.registry
    d = spec.derived["d"]
    u, u_x, u_xx = reg.expr("u"), reg.expr("u_x"), reg.expr("u_xx")
    c = reg.expr("c")
    den = c * u + d
    assert se.is_zero(pro["u_x"] - u_x / den ** 2)
    assert se.is_zero(pro["u_xx"] - (u_xx * den - 2 * c * u_x ** 2) / den ** 3)


def test_prolong_action_identity(specs):
    spec = specs("sl2-action1")
    pro = spec.prolonged_action(3)
    ident = spec.identity_params()
    for name, e in pro.items():
        resid = se.subst(e, ident) - spec.registry.expr(name)
        assert se.is_zero(resid), name


def test_prolong_action_group_property(specs):
    # prolonging by g then h equals prolonging by the product, to order 3
    spec = specs("sl2-action1")
    reg2 = spec._suffixed_registry(("1", "2"))
    g1 = {p: reg2.expr(f"{p}1") for p in spec.params}
    g2 = {p: reg2.expr(f"{p}2") for p in spec.params}
    pro = spec.prolonged_action(3)
    prod = spec.product_map(g1, g2)
    for name in ("u", "u_x", "u_xx", "u_xxx"):
        inner = {n: se.subst(pro[n], g2) for n in pro}
        lhs = se.subst(se.subst(pro[name], g1), inner)
        rhs = se.subst(pro[name], prod)
        assert spec.is_zero_mod_relations(lhs - rhs), name


def test_prolonged_field_is_action_derivative(specs):
    # d/dt|0 of the prolonged action along each basis path equals the
    # prolonged infinitesimal field, to order 3
    spec = specs("sl2-action1")
    pro = spec.prolonged_action(3)
    js = spec.jet_space()
    ident = spec.identity_params()
    from framecalc.liegroup import infinitesimal_matrix
    coords = ["u", "u_x", "u_xx", "u_xxx"]
    om = infinitesimal_matrix(spec, coords)
    for k, (dname, velocity) in enumerate(spec.basis_directions):
        for j, cname in enumerate(coords):
            v = se.Expr(0)
            for p, vel in velocity.items():
                dpart = se.Expr(sp.diff(pro[cname].sympy,
                                        spec.registry.sympy_symbol(p)))
                v = v + se.subst(dpart, ident) * vel
            assert se.is_zero(v - om.at(k, j)), (dname, cname)


# -- exact integration ---------------------------------------------------------

def test_integrate_total_roundtrip(js):
    reg = js.registry
    F = se.parse("u_x^3*u_xx + u*u_x + u^4", reg)
    g = jc.total_derivative(F, 0, js)
    F2 = jc.integrate_total(g, js, 0)
    assert se.canonical(F2 - F).is_zero_literal()


def test_integrate_total_rejects_non_exact(js):
    with pytest.raises(jc.NotTotalDerivativeError):
        jc.integrate_total(se.parse("u_x^2", js.registry), js, 0)


def test_integrate_total_two_dependents():
    reg = se.SymbolRegistry()
    js = jc.JetSpace(("s",), ("x", "u"), order=6, registry=reg)
    F = se.parse("x_s*u_s + x*u^2", reg)
    g = jc.total_derivative(F, 0, js)
    F2 = jc.integrate_total(g, js, 0)
    assert se.canonical(F2 - F).is_zero_literal()

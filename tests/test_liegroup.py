from fractions import Fraction

import pytest
import sympy as sp

from adjoint_oracle import prolonged_adjoint
from framecalc import liegroup as lg
from framecalc import symexpr as se


ALL = ("se2-curve", "sl2-action1", "sl2-action2", "sl2-action3", "sl2-surface")

SL2_KILLING = ((Fraction(8), Fraction(0), Fraction(0)),
               (Fraction(0), Fraction(0), Fraction(4)),
               (Fraction(0), Fraction(4), Fraction(0)))


@pytest.mark.parametrize("name", ALL)
def test_catalog_loads_and_validates(specs, name):
    spec = specs(name)
    assert spec.r == 3
    assert len(spec.normalizations) == spec.r


def test_unknown_entry():
    with pytest.raises(lg.UnknownEntryError):
        lg.catalog("nosuch")


def test_catalog_action_examples(specs):
    a1 = specs("sl2-action1")
    reg = a1.registry
    expected = se.parse("(a*u + b)/(c*u + d)", reg)
    assert se.is_zero(a1.action["u"] - expected)

    a3 = specs("sl2-action3")
    reg3 = a3.registry
    expected3 = se.parse("6*c*(c*x + d) + (c*x + d)^2*u", reg3)
    assert se.is_zero(a3.action["u"] - expected3)

    se2 = specs("se2-curve")
    ident = se2.identity_params()
    for dep in ("x", "u"):
        resid = se.subst(se2.action[dep], ident) - se2.registry.expr(dep)
        assert se.is_zero(resid)


def test_group_axioms_symbolically(specs):
    for name in ALL:
        spec = specs(name)
        gsym = spec.param_symbol_map()
        prod = spec.product_map(spec.identity_params(), gsym)
        for p in spec.params:
            assert spec.is_zero_mod_relations(prod[p] - gsym[p])
        prod = spec.product_map(gsym, spec.inverse_map(gsym))
        for p in spec.params:
            assert spec.is_zero_mod_relations(prod[p] - spec.identity[p])


def test_infinitesimal_matrix_sl2(specs):
    spec = specs("sl2-action1")
    om = lg.infinitesimal_matrix(spec, ["u", "u_x"])
    reg = spec.registry
    expected = [["2*u", "2*u_x"], ["1", "0"], ["-u^2", "-2*u*u_x"]]
    for i in range(3):
        for j in range(2):
            assert se.is_zero(om.at(i, j) - se.parse(expected[i][j], reg))


def test_infinitesimal_matrix_fixed_independent_column(specs):
    spec = specs("sl2-action1")
    om = lg.infinitesimal_matrix(spec, ["x"])
    assert all(om.at(i, 0).is_zero_literal() for i in range(3))


def test_adjoint_matrix_projective_closed_form(specs):
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


def test_adjoint_identity(specs):
    for name in ("sl2-action2", "se2-curve"):
        spec = specs(name)
        ad = lg.adjoint_matrix(spec, spec.identity_params())
        for i in range(spec.r):
            for j in range(spec.r):
                assert se.is_zero(ad[i][j] - (1 if i == j else 0))


def test_adjoint_representation_and_killing_invariance(specs):
    # The oracle's Ad(g)Ad(h) = Ad(gh) runs inside prolonged_adjoint when
    # verify=True; exercise the full verification on the sl2 entries.
    for name in ("sl2-action1", "sl2-action3"):
        prolonged_adjoint(specs(name), verify=True)


@pytest.mark.parametrize("name", ALL)
def test_adjoint_matrix_matches_prolonged_action_oracle(specs, name):
    spec = specs(name)
    ad = lg.adjoint_matrix(spec, spec.param_symbol_map())
    oracle = prolonged_adjoint(spec, verify=False)
    for i in range(spec.r):
        for j in range(spec.r):
            assert spec.is_zero_mod_relations(ad[i][j] - se.Expr(oracle[i, j])), (i, j)


def test_adjoint_validation_rejects_changed_product():
    spec = lg.catalog("sl2-action1", validate=False)
    lg._validate_adjoint(spec)
    spec._product_src["b"] = "a1*b2 + 2*b1*d2"
    with pytest.raises(lg.CatalogError, match="Ad"):
        lg._validate_adjoint(spec)


def test_killing_invariance_numeric(specs, rng):
    spec = specs("sl2-action1")
    ad = sp.Matrix([[e.sympy for e in row]
                    for row in lg.adjoint_matrix(spec, spec.param_symbol_map())])
    B = lg.killing_form(spec).sympy()
    resid_exprs = ad * B * ad.T - B
    for _ in range(100):
        gvals = spec.sample_params(rng)
        for e in resid_exprs:
            v = se.eval_num(se.Expr(sp.cancel(e)), gvals)
            assert abs(v) <= 1e-9


def test_adactmxform_residual_on_first_prolongation(specs):
    # Ad(g) Omega(z) = Omega(g.z) (dz~/dz)^-T on (u, u_x), "easily verified"
    spec = specs("sl2-action1")
    ad = prolonged_adjoint(spec, verify=False)
    om = lg.infinitesimal_matrix(spec, ["u", "u_x"])
    pro = spec.prolonged_action(1)
    tx = {"u": pro["u"], "u_x": pro["u_x"]}
    reg = spec.registry
    jac = sp.Matrix(2, 2, lambda i, j: sp.diff(
        tx[["u", "u_x"][i]].sympy, reg.sympy_symbol(["u", "u_x"][j])))
    rhs = sp.Matrix(3, 2, lambda i, j: se.subst(om.at(i, j), tx).sympy) \
        * jac.inv().T
    resid = ad * om.sympy() - rhs
    for e in resid:
        assert se.is_zero(se.Expr(sp.cancel(sp.together(e))))


def test_se2_adjoint_at_frame_arclength_matrix(specs, frames):
    spec = specs("se2-curve")
    frame = frames("se2-curve")
    ad = lg.adjoint_matrix(spec, spec.inverse_map(frame.params))
    reg = spec.registry
    x, u, x_s, u_s = (reg.expr(n) for n in ("x", "u", "x_s", "u_s"))
    expected = [[x_s, -u_s, se.Expr(0)],
                [u_s, x_s, se.Expr(0)],
                [x * u_s - u * x_s, u * u_s + x * x_s, se.Expr(1)]]
    unit = sp.sqrt(reg.sympy_symbol("u_s") ** 2 + reg.sympy_symbol("x_s") ** 2)
    for i in range(3):
        for j in range(3):
            on_arc = se.Expr(ad[i][j].sympy.subs(unit, 1))
            assert se.is_zero(on_arc - expected[i][j]), (i, j)


@pytest.mark.parametrize("name", ("sl2-action1", "sl2-action2", "sl2-action3",
                                  "sl2-surface"))
def test_killing_form_sl2(specs, name):
    B = lg.killing_form(specs(name))
    assert B.entries == SL2_KILLING
    assert B.is_invertible()


def test_killing_form_se2_singular(specs):
    B = lg.killing_form(specs("se2-curve"))
    assert not B.is_invertible()
    assert all(B.entries[i][j] == B.entries[j][i] for i in range(3)
               for j in range(3))


def test_ad_matrix_of_generic_element(specs):
    # ad_v for v = alpha v1 + beta v2 + gamma v3 relative to the basis
    spec = specs("sl2-action1")
    mats = [lg.ad_matrix_of_basis(spec, i) for i in range(3)]
    alpha, beta, gamma = sp.symbols("_alpha _beta _gamma")
    adv = alpha * mats[0] + beta * mats[1] + gamma * mats[2]
    expected = sp.Matrix([[0, 2 * beta, -2 * gamma],
                          [gamma, -2 * alpha, 0],
                          [-beta, 0, 2 * alpha]])
    assert sp.simplify(adv - expected) == sp.zeros(3, 3)


def test_bracket_examples(specs):
    spec = specs("sl2-action1")
    v1, v2, v3 = spec.infinitesimals
    b = lg.bracket(v2, v1)
    assert str(b.coeff("u")) == "2"
    assert lg.bracket(v1, v1).coeff("u").is_zero_literal()
    b13 = lg.bracket(v1, v3)
    assert se.is_zero(b13.coeff("u") - se.parse("-2*u^2", spec.registry))


def test_jacobi_identity(specs):
    for name in ("sl2-action1", "se2-curve"):
        spec = specs(name)
        fields = spec.infinitesimals
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    total = {}
                    for dep in spec.dependent:
                        s = (lg.bracket(fields[i], lg.bracket(fields[j], fields[k])).coeff(dep)
                             + lg.bracket(fields[j], lg.bracket(fields[k], fields[i])).coeff(dep)
                             + lg.bracket(fields[k], lg.bracket(fields[i], fields[j])).coeff(dep))
                        assert se.canonical(s).is_zero_literal()


def test_catalog_dir_override(tmp_path, specs):
    import json
    from importlib import resources
    src = resources.files("framecalc").joinpath("catalog/sl2-action1.json")
    with src.open() as f:
        data = json.load(f)
    with open(tmp_path / "sl2-action1.json", "w") as f:
        json.dump(data, f)
    spec = lg.catalog("sl2-action1", catalog_dir=str(tmp_path), validate=False)
    assert spec.name == "sl2-action1"
    with pytest.raises(lg.UnknownEntryError):
        lg.catalog("se2-curve", catalog_dir=str(tmp_path), validate=False)

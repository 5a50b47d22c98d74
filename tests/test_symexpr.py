import json
import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from framecalc import symexpr as se


@pytest.fixture()
def reg():
    r = se.SymbolRegistry()
    r.register("x", se.KIND_JET)
    r.register("u", se.KIND_JET)
    r.register("u_x", se.KIND_JET, positive=True)
    r.register("u_xx", se.KIND_JET)
    r.register("u_xxx", se.KIND_JET)
    r.register("sigma_x", se.KIND_GENERATOR)
    r.register("kappa", se.KIND_GENERATOR)
    r.register("c", se.KIND_CONSTANT)
    r.register("theta", se.KIND_PARAMETER)
    return r


# -- parsing -----------------------------------------------------------------

def test_parse_half_lagrangian(reg):
    e = se.parse("sigma_x^2/2", reg)
    assert se.is_zero(e - reg.expr("sigma_x") * reg.expr("sigma_x") / 2)


def test_parse_kappa_square(reg):
    assert str(se.parse("kappa^2", reg)) == "kappa**2"


def test_parse_euclidean_curvature(reg):
    e = se.parse("u_xx/(1+u_x^2)^(3/2)", reg)
    ux, uxx = reg.expr("u_x"), reg.expr("u_xx")
    direct = uxx / (1 + ux * ux) ** Fraction(3, 2)
    assert se.is_zero(e - direct)


def test_parse_unknown_symbol_position(reg):
    with pytest.raises(se.UnknownSymbolError) as err:
        se.parse("u_x + nope", reg)
    assert err.value.name == "nope"
    assert err.value.position == 6


def test_parse_syntax_error_has_position(reg):
    with pytest.raises(se.ParseError) as err:
        se.parse("u_x + ", reg)
    assert err.value.position >= 5


def test_parse_rejects_stray_character(reg):
    with pytest.raises(se.ParseError):
        se.parse("u_x $ 2", reg)


@pytest.mark.parametrize("text", ["sigma/0", "sigma/(1-1)", "0^(-1)"])
def test_parse_rejects_division_by_zero(reg, text):
    reg.register("sigma", se.KIND_GENERATOR)
    with pytest.raises(se.ParseError, match="division by zero"):
        se.parse(text, reg)


def test_parse_negative_and_fractional_exponents(reg):
    assert se.is_zero(se.parse("u_x^-2", reg) - reg.expr("u_x") ** (-2))
    assert se.is_zero(se.parse("u_x^(-3/2)", reg) - reg.expr("u_x") ** Fraction(-3, 2))


def test_parse_functions(reg):
    e = se.parse("sin(theta)^2 + cos(theta)^2", reg)
    assert "sin" in str(e)
    assert se.is_zero(se.parse("sqrt(u_x^2)", reg) - reg.expr("u_x"))


# -- canonicalization --------------------------------------------------------

def test_canonical_collects_like_terms(reg):
    x = reg.expr("x")
    assert str(se.canonical(x + x)) == "2*x"


def test_canonical_cancels_to_zero(reg):
    ux, u = reg.expr("u_x"), reg.expr("u")
    assert se.canonical((ux * ux - ux * ux) / u).is_zero_literal()


def test_canonical_unique_for_rational_functions(reg):
    x = reg.expr("x")
    a = (x * x - 1) / (x - 1)
    b = x + 1
    assert se.canonical(a) == se.canonical(b)


def test_canonical_surds_of_symbols(reg):
    ux = reg.expr("u_x")
    a = (ux ** Fraction(3, 2) + ux) / se.func("sqrt", ux)
    b = ux + ux ** Fraction(1, 2)
    assert se.canonical(a) == se.canonical(b)


def _random_expr(rnd: random.Random, syms, depth=0):
    choice = rnd.random()
    if depth > 3 or choice < 0.3:
        if rnd.random() < 0.5:
            return rnd.choice(syms)
        return se.rational(rnd.randint(-6, 6), rnd.randint(1, 5))
    a = _random_expr(rnd, syms, depth + 1)
    b = _random_expr(rnd, syms, depth + 1)
    if choice < 0.5:
        return a + b
    if choice < 0.7:
        return a - b
    if choice < 0.85:
        return a * b
    if choice < 0.95:
        try:
            c = se.canonical(b)
            if not c.is_zero_literal():
                return a / b
        except se.SymExprError:
            pass
        return a + b
    return a ** rnd.randint(1, 3)


def test_canonical_idempotent_on_random_trees(reg):
    rnd = random.Random(20240)
    syms = [reg.expr(n) for n in ("x", "u", "u_x", "kappa")]
    for _ in range(1000):
        e = _random_expr(rnd, syms)
        c = se.canonical(e)
        assert se.canonical(c) == c


def test_diff_product_rule_and_linearity(reg):
    rnd = random.Random(7)
    syms = [reg.expr(n) for n in ("x", "u", "u_x")]
    for _ in range(60):
        a = _random_expr(rnd, syms)
        b = _random_expr(rnd, syms)
        da, db = se.diff(a, "u"), se.diff(b, "u")
        assert se.canonical(se.diff(a * b, "u") - (da * b + a * db)).is_zero_literal()
        assert se.canonical(se.diff(a + b, "u") - (da + db)).is_zero_literal()


# -- diff --------------------------------------------------------------------

def test_diff_power(reg):
    assert str(se.diff(se.parse("sigma_x^2", reg), "sigma_x")) == "2*sigma_x"


def test_diff_constant_symbol_is_zero(reg):
    assert se.diff(reg.expr("c"), "x").is_zero_literal()


def test_diff_curvature_wrt_ux_finite_differences(reg):
    e = se.parse("u_xx/(1+u_x^2)^(3/2)", reg)
    claimed = se.parse("-3*u_xx*u_x*(1+u_x^2)^(-5/2)", reg)
    d = se.diff(e, "u_x")
    assert se.is_zero(d - claimed)
    rnd = random.Random(5)
    h = 1e-6
    for _ in range(10):
        pt = {"u_x": rnd.uniform(0.5, 2.0), "u_xx": rnd.uniform(-2, 2)}
        up = dict(pt); up["u_x"] += h
        dn = dict(pt); dn["u_x"] -= h
        fd = (se.eval_num(e, up) - se.eval_num(e, dn)) / (2 * h)
        val = se.eval_num(d, pt)
        assert abs(fd - val) <= 1e-6 * (1 + abs(val))


# -- subst -------------------------------------------------------------------

def test_subst_direct(reg):
    assert str(se.subst(reg.expr("u_x"), {"u_x": se.integer(1)})) == "1"


def test_subst_schwarzian_normalization(reg):
    r2 = se.SymbolRegistry()
    for n in ("u", "u_x", "u_xx", "u_xxx"):
        r2.register(n, se.KIND_JET)
    r2.register("sigma", se.KIND_GENERATOR)
    schw = se.parse("u_xxx/u_x - (3/2)*u_xx^2/u_x^2", r2)
    out = se.subst(schw, {"u": se.integer(0), "u_x": se.integer(1),
                          "u_xx": se.integer(0), "u_xxx": r2.expr("sigma")})
    assert str(out) == "sigma"


def test_subst_is_simultaneous(reg):
    x, u = reg.expr("x"), reg.expr("u")
    out = se.subst(x + u, {"x": u, "u": x})
    assert se.canonical(out - (x + u)).is_zero_literal()


# -- eval --------------------------------------------------------------------

def test_eval_simple(reg):
    assert se.eval_num(se.parse("kappa^2", reg), {"kappa": 2.0}) == 4.0


def test_eval_schwarzian_normalization_point(reg):
    schw = se.parse("u_xxx/u_x - (3/2)*u_xx^2/u_x^2", reg)
    v = se.eval_num(schw, {"u_x": 1.0, "u_xx": 0.0, "u_xxx": 5.0})
    assert abs(v - 5.0) < 1e-12


def test_eval_curvature_value(reg):
    e = se.parse("u_xx/(1+u_x^2)^(3/2)", reg)
    assert abs(se.eval_num(e, {"u_x": 1.0, "u_xx": 2.0}) - 0.70710678) < 1e-7


def test_eval_unbound_symbol(reg):
    with pytest.raises(se.EvalError):
        se.eval_num(se.parse("u_x + u", reg), {"u_x": 1.0})


def test_eval_division_by_zero(reg):
    with pytest.raises(se.EvalError):
        se.eval_num(se.parse("1/u", reg), {"u": 0.0})


def test_eval_matches_canonical(reg):
    rnd = random.Random(3)
    syms = [reg.expr(n) for n in ("x", "u", "u_x")]
    for _ in range(40):
        e = _random_expr(rnd, syms)
        pt = {"x": rnd.uniform(0.3, 2), "u": rnd.uniform(0.3, 2),
              "u_x": rnd.uniform(0.3, 2)}
        try:
            a = se.eval_num(e, pt)
            b = se.eval_num(se.canonical(e), pt)
        except se.EvalError:
            continue
        assert abs(a - b) <= 1e-12 * (1 + abs(a))


# -- zero testing ------------------------------------------------------------

def test_is_zero_literal(reg):
    assert se.is_zero(se.integer(0))


def test_is_zero_trig_identity_probabilistic(reg):
    v = se.zero_verdict(se.parse("sin(theta)^2 + cos(theta)^2 - 1", reg))
    assert v.zero and not v.exact and v.samples >= 20


def test_nonzero_trig(reg):
    v = se.zero_verdict(se.parse("sin(theta)^2 - cos(theta)^2", reg))
    assert not v.zero


def test_rational_zero_iff_canonical_zero(reg):
    rnd = random.Random(11)
    syms = [reg.expr(n) for n in ("x", "u")]
    for _ in range(50):
        e = _random_expr(rnd, syms)
        v = se.zero_verdict(e)
        assert v.exact
        assert v.zero == se.canonical(e).is_zero_literal()


def test_singularity_exhaustion():
    r = se.SymbolRegistry()
    r.register("q", se.KIND_JET)
    q = r.expr("q")
    e = se.func("sqrt", se.integer(-1) - q * q)  # never real
    with pytest.raises(se.SingularSampleError):
        se.zero_verdict(e, max_draws=50)


# -- serialization -----------------------------------------------------------

def test_json_roundtrip(reg):
    e = se.parse("u_xx/(1+u_x^2)^(3/2) + sin(theta)*kappa", reg)
    d = se.to_json_dict(e, reg)
    back = se.from_json_dict(d, reg)
    assert se.canonical(back) == se.canonical(e)


def test_json_deterministic(reg):
    e = se.parse("kappa*u_x + u_x*kappa + 3*u_xx", reg)
    s1 = json.dumps(se.to_json_dict(e, reg), sort_keys=True)
    s2 = json.dumps(se.to_json_dict(se.canonical(e), reg), sort_keys=True)
    assert s1 == s2


def test_latex_uses_greek_names(reg):
    assert se.to_latex(reg.expr("sigma_x")) == r"\sigma_{x}"
    assert r"\kappa" in se.to_latex(se.parse("kappa^2", reg))


def test_no_floats_allowed():
    with pytest.raises(se.SymExprError):
        se.Expr(sp.Float(0.5))


@settings(max_examples=60, deadline=None)
@given(st.integers(-40, 40), st.integers(1, 30), st.integers(-20, 20))
def test_rational_arithmetic_exact(p, q, r):
    a = se.rational(p, q)
    b = se.rational(r, 7)
    total = se.canonical(a + b - b - a)
    assert total.is_zero_literal()

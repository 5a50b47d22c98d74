"""Reference Adjoint matrix for the tests, solved from the prolonged action.

framecalc computes Ad(g) from the group law. This oracle gets it another
way: from the linear relation Ad(g) Omega(z) = Omega(g.z) (d(g.z)/dz)^-T on
just enough prolonged coordinates to make the system full rank, so the two
agree only if the group law, the action and the infinitesimals agree.
"""

from __future__ import annotations

import functools
import itertools

import sympy as sp

from framecalc import liegroup as lg
from framecalc.symexpr import Expr, canonical, is_zero, subst


@functools.cache
def _solve(spec: lg.GroupActionSpec):
    """Ad(g) in the free parameters, with the matrix of infinitesimals O
    and the right-hand side Omega(g.z) (d(g.z)/dz)^-T it was solved from."""
    r = spec.r
    js = spec.jet_space()
    rows_choice = None
    for order in range(1, 5):
        coords = [name for _, _, name in js.coords_up_to(order)]
        omega = lg.infinitesimal_matrix(spec, coords)
        m = len(coords)
        OT = omega.sympy().T  # m x r
        for combo in itertools.combinations(range(m), r):
            if sp.cancel(OT[list(combo), :].det()) != 0:
                rows_choice = combo
                break
        if rows_choice is not None:
            break
    assert rows_choice is not None, f"{spec.name}: Omega has rank < {r}"

    transformed = spec.prolonged_action(order)
    tx = {name: transformed[name] for name in coords}
    jac = sp.Matrix(m, m, lambda i, j: sp.diff(
        tx[coords[i]].sympy, spec.registry.sympy_symbol(coords[j])))
    omega_tilde = sp.Matrix(r, m, lambda i, j: subst(omega.at(i, j), tx).sympy)
    rhs = omega_tilde * jac.inv().T

    O = omega.sympy()  # r x m
    ad_T = O.T[list(rows_choice), :].inv() * rhs.T[list(rows_choice), :]
    ad = ad_T.T.applyfunc(lambda e: canonical(Expr(sp.cancel(sp.together(e)))).sympy)
    bad = {s.name for s in ad.free_symbols} & set(coords)
    assert not bad, f"{spec.name}: Ad(g) depends on coordinates {sorted(bad)}"
    return ad, O, rhs


def prolonged_adjoint(spec: lg.GroupActionSpec, verify: bool = True) -> sp.Matrix:
    """Ad(g) in the free parameters of spec; with verify, also checks the
    defining relation, Ad(identity) = I and Ad(g)Ad(h) = Ad(gh)."""
    ad, O, rhs = _solve(spec)
    if verify:
        for e in ad * O - rhs:
            assert spec.is_zero_mod_relations(Expr(sp.cancel(sp.together(e)))), \
                f"{spec.name}: Ad(g) does not satisfy its defining relation"
        at_identity = adjoint_at(spec, ad, spec.identity_params())
        assert all(is_zero(Expr(e)) for e in at_identity - sp.eye(spec.r)), \
            f"{spec.name}: Ad(identity) != I"
        reg = spec._suffixed_registry(("1", "2"))
        g1 = {p: reg.expr(f"{p}1") for p in spec.params}
        g2 = {p: reg.expr(f"{p}2") for p in spec.params}
        resid = (adjoint_at(spec, ad, g1) * adjoint_at(spec, ad, g2)
                 - adjoint_at(spec, ad, spec.product_map(g1, g2)))
        assert all(spec.is_zero_mod_relations(Expr(sp.cancel(e))) for e in resid), \
            f"{spec.name}: Ad(g)Ad(h) != Ad(gh)"
    return ad


def adjoint_at(spec: lg.GroupActionSpec, ad: sp.Matrix, params) -> sp.Matrix:
    """The oracle's Ad at explicit parameter expressions."""
    return ad.applyfunc(lambda e: subst(Expr(e), params).sympy)

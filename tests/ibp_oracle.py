"""Reference checks for the tests, written out in explicit jet coordinates.

framecalc verifies the integration-by-parts identity formally, in the jets
of the generators and of the I^a_tau, and checks only the syzygies and the
I-symbol forms in explicit jets. These oracles check the same identities
with every side written out in jet coordinates with tau (and the
multiplier as a function of the independents), as framecalc once did.
"""

from __future__ import annotations

import sympy as sp

from framecalc.frame import _isym_name
from framecalc.jetcalc import JetSpace, MultiIndex, total_derivative, total_derivative_multi
from framecalc.liegroup import MULTIPLIER
from framecalc.symexpr import Expr, zero_verdict
from framecalc.varcalc import _multiplier_part


def _explicit_space(frame) -> JetSpace:
    js = frame.jet_space(tau=True)
    return JetSpace(js.independent, js.dependent + (MULTIPLIER,),
                    registry=js.registry)


def ibp_identity_holds(ctx, E2, bc, rng=None) -> bool:
    """V1 = sum_a E2_a I^a_tau + sum_i D_i(P_i), all sides in explicit jets."""
    frame = ctx.frame
    spec = ctx.spec
    table = ctx.table
    js = _explicit_space(frame)
    p = len(spec.independent)
    explicit = {g["name"]: g["explicit"] for g in spec.generators}

    lhs = Expr(0)
    L_total = ctx.lagrangian.total()
    inv_js = ctx.inv_js
    for name in sorted(L_total.free_names()):
        parsed = inv_js.parse_coord(name)
        if parsed is None or parsed[0] not in explicit:
            continue
        dep, K = parsed
        dL = table.generators_to_jets(
            Expr(sp.diff(L_total.sympy, inv_js.registry.sympy_symbol(name))))
        w = total_derivative(explicit[dep], p, js)
        lhs = lhs + dL * total_derivative_multi(w, MultiIndex(K.counts + (0,)), js)

    rhs = Expr(0)
    for di, dep in enumerate(spec.dependent):
        base = js.coord_name(dep, MultiIndex.zero(p + 1).bump(p))
        rhs = rhs + table.generators_to_jets(E2[ctx.formal_base[di]]) \
            * table.explicit[base]
    for i, ind in enumerate(spec.independent):
        Pi = Expr(0)
        for dep, J, c in bc.vector(ind):
            if c.is_zero_literal():
                continue
            iname = _isym_name(dep, J, spec.independent)
            Pi = Pi + table.generators_to_jets(c) * table.explicit[table.isym_coord[iname]]
        rhs = rhs + total_derivative(Pi, i, js)
    return zero_verdict(lhs - rhs, rng=rng).zero


def null_divergence_holds(ctx, bc, rng=None) -> bool:
    """sum_i D_i(P_i^lambda) = 0 in explicit jets, for the multiplier part
    P_i^lambda of the boundary terms."""
    spec = ctx.spec
    table = ctx.table
    js = _explicit_space(ctx.frame)
    resid = Expr(0)
    for i, ind in enumerate(spec.independent):
        Pi = Expr(0)
        for (ind2, dep, J), c in bc.coeffs.items():
            lam_part = _multiplier_part(c, ctx.inv_js)
            if ind2 != ind or lam_part.is_zero_literal():
                continue
            iname = _isym_name(dep, J, spec.independent)
            Pi = Pi + table.generators_to_jets(lam_part) \
                * table.explicit[table.isym_coord[iname]]
        resid = resid + total_derivative(Pi, i, js)
    return zero_verdict(resid, rng=rng).zero

"""Reference RK4 for the tests, stepped in numpy arrays.

framecalc compiles an ODE right-hand side into one function of floats and
steps RK4 on Python floats. This oracle integrates the same system the way
framecalc once did: one numpy-module lambdify per state component, each
stage an array expression. Both evaluate every float expression in the same
order, so their trajectories agree bit for bit.
"""

from __future__ import annotations

import numpy as np
import sympy as sp

from framecalc.numlab import BlowUpError, ODESystem

_MODULES = [{"sech": lambda x: 1.0 / np.cosh(x)}, "numpy"]


def oracle_rhs(system: ODESystem):
    """The right-hand side as an array function, one lambdify per component."""
    fns = []
    for name in system.state:
        e = system.rhs[name].sympy
        syms = {s.name: s for s in e.free_symbols}
        args = [syms.get(n, sp.Symbol(n)) for n in system.state]
        fns.append(sp.lambdify(args, e, modules=_MODULES))

    def f(y: np.ndarray) -> np.ndarray:
        return np.array([fn(*y) for fn in fns], dtype=float)
    return f


def rk4_oracle(system: ODESystem, init: dict[str, float],
               span: tuple[float, float], h: float) -> dict[str, np.ndarray]:
    """State columns of classical fixed-step RK4 over `span`, keyed by name."""
    f = oracle_rhs(system)
    s0, s1 = span
    n = int(round((s1 - s0) / h))
    grid = s0 + h * np.arange(n + 1)
    y = np.array([init[name] for name in system.state], dtype=float)
    out = np.empty((n + 1, len(y)))
    out[0] = y
    for k in range(n):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(y)) or np.max(np.abs(y)) > 1e12:
            raise BlowUpError(f"state blew up near s = {grid[k+1]:.6g}")
        out[k + 1] = y
    return {name: out[:, i].copy() for i, name in enumerate(system.state)}

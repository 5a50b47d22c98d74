"""Per-layer spans and counters, recorded by wrapping framecalc functions.

The program has no tracing of its own, so the traced run replaces
functions of each layer, from outside, with wrappers that count calls and
time them.  Modules import `canonical`, `subst`, `total_derivative` and
others by name, so every framecalc module attribute that holds an
original function is replaced, not only the one in its home module.

Time is kept two ways.  `total` is the wall time of the outermost call
(a recursive or nested call of the same function is not counted twice);
`self` is the wall time of a call minus the time spent in wrapped calls
inside it.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict


class Recorder:
    """Counts, wall times and extra tallies, keyed by span name."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.tally: Counter = Counter()
        self._depth: Counter = Counter()
        self._child: list[float] = []

    def timed(self, key, fn, after=None):
        def wrapper(*args, **kwargs):
            self._depth[key] += 1
            self._child.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._child.pop()
                self._depth[key] -= 1
                self.calls[key] += 1
                self.self_time[key] += dt - child
                if self._depth[key] == 0:
                    self.total[key] += dt
                if self._child:
                    self._child[-1] += dt
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def counted(self, key, fn):
        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper


def _replace_everywhere(original, wrapper) -> None:
    """Point every framecalc module attribute holding `original` at `wrapper`."""
    n = 0
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "framecalc" or name.startswith("framecalc.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                n += 1
    if n == 0:
        raise RuntimeError(f"no framecalc module holds {original!r}")


def install(rec: Recorder) -> None:
    """Wrap the layer functions of the imported framecalc package."""
    import sympy
    from framecalc import frame, jetcalc, liegroup, numlab, symexpr, varcalc

    def canonical_after(args, result):
        e = args[0]
        before = e._s if isinstance(e, symexpr.Expr) else e
        if result.sympy == before:
            rec.tally["canonical.unchanged"] += 1

    def verdict_after(args, result):
        if not result.exact:
            rec.tally["zero_verdict.probabilistic"] += 1
        rec.tally["zero_verdict.samples"] += result.samples

    def integrate_after(args, result):
        rec.tally["rk4_steps"] += len(result.grid) - 1

    functions = [
        (symexpr.canonical, "canonical", canonical_after),
        (symexpr.subst, "subst", None),
        (symexpr.zero_verdict, "zero_verdict", verdict_after),
        (symexpr.to_json_dict, "serialize", None),
        (symexpr.to_latex, "serialize", None),
        (jetcalc.total_derivative, "total_derivative", None),
        (jetcalc.prolong_action, "prolong_action", None),
        (liegroup.catalog, "catalog", None),
        (liegroup.adjoint_matrix, "adjoint_matrix", None),
        (frame.build_invariant_table, "build_invariant_table", None),
        (frame.invariantize, "invariantize", None),
        (frame.syzygy_operators, "syzygy_operators", None),
        (varcalc._context, "context", None),
        (varcalc.invariant_el, "invariant_el", None),
        (varcalc.boundary_coeffs, "boundary_coeffs", None),
        (varcalc._verify_boundary, "ibp_verify", None),
        (varcalc._drop_multiplier_null_divergence, "null_divergence", None),
        (varcalc.eliminate_multiplier, "eliminate_multiplier", None),
        (varcalc._ad_inv_at_frame, "ad_inv", None),
        (varcalc.reduced_system, "reduced_system", None),
        (varcalc.noether_laws, "noether_laws", None),
        (numlab.entry_laws, "entry_laws", None),
        (numlab.integrate_el, "integrate_el", integrate_after),
        (numlab.reconstruction_demo, "reconstruction", None),
    ]
    for fn, key, after in functions:
        _replace_everywhere(fn, rec.timed(key, fn, after))
    _replace_everywhere(liegroup.killing_form,
                        rec.counted("killing_form", liegroup.killing_form))

    # Methods and the class constructor are looked up on the class.
    jetcalc.JetSpace.__init__ = rec.counted("JetSpace", jetcalc.JetSpace.__init__)
    jetcalc.JetSpace.parse_coord = rec.counted("parse_coord",
                                               jetcalc.JetSpace.parse_coord)
    numlab.ODESystem.f = rec.counted("rhs", numlab.ODESystem.f)
    # numlab calls sympy.lambdify through the module attribute.
    sympy.lambdify = rec.counted("lambdify", sympy.lambdify)


def metrics(rec: Recorder, import_s: float) -> dict[str, float]:
    """The per-layer metrics of one program process."""
    c, tot, slf, tl = rec.calls, rec.total, rec.self_time, rec.tally
    return {
        "cli.import_s": import_s,
        "symexpr.canonical.calls": c["canonical"],
        "symexpr.canonical.self_s": slf["canonical"],
        "symexpr.canonical.unchanged": tl["canonical.unchanged"],
        "symexpr.subst.calls": c["subst"],
        "symexpr.subst.self_s": slf["subst"],
        "symexpr.zero_verdict.calls": c["zero_verdict"],
        "symexpr.zero_verdict.self_s": slf["zero_verdict"],
        "symexpr.zero_verdict.probabilistic": tl["zero_verdict.probabilistic"],
        "symexpr.zero_verdict.samples": tl["zero_verdict.samples"],
        "symexpr.serialize.self_s": slf["serialize"],
        "jetcalc.total_derivative.calls": c["total_derivative"],
        "jetcalc.total_derivative.self_s": slf["total_derivative"],
        "jetcalc.prolong_action.calls": c["prolong_action"],
        "jetcalc.prolong_action.total_s": tot["prolong_action"],
        "jetcalc.JetSpace.built": c["JetSpace"],
        "jetcalc.parse_coord.calls": c["parse_coord"],
        "liegroup.catalog.total_s": tot["catalog"],
        "liegroup.adjoint_matrix.calls": c["adjoint_matrix"],
        "liegroup.adjoint_matrix.total_s": tot["adjoint_matrix"],
        "liegroup.killing_form.calls": c["killing_form"],
        "frame.build_invariant_table.calls": c["build_invariant_table"],
        "frame.build_invariant_table.total_s": tot["build_invariant_table"],
        "frame.invariantize.calls": c["invariantize"],
        "frame.invariantize.total_s": tot["invariantize"],
        "frame.syzygy_operators.total_s": tot["syzygy_operators"],
        "varcalc.context.total_s": tot["context"],
        "varcalc.invariant_el.total_s": tot["invariant_el"],
        "varcalc.boundary_coeffs.total_s": tot["boundary_coeffs"],
        "varcalc.ibp_verify.total_s": tot["ibp_verify"],
        "varcalc.null_divergence.total_s": tot["null_divergence"],
        "varcalc.eliminate_multiplier.total_s": tot["eliminate_multiplier"],
        "varcalc.ad_inv.total_s": tot["ad_inv"],
        "varcalc.reduced_system.total_s": tot["reduced_system"],
        "varcalc.noether_laws.total_s": tot["noether_laws"],
        "numlab.entry_laws.total_s": tot["entry_laws"],
        "numlab.integrate_el.total_s": tot["integrate_el"],
        "numlab.rk4_steps": tl["rk4_steps"],
        "numlab.rhs_evals": c["rhs"],
        "numlab.lambdify.calls": c["lambdify"],
        "numlab.reconstruction.total_s": tot["reconstruction"],
    }

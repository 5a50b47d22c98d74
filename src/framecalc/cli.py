"""Command-line front end.

Subcommands:
  catalog   list catalog entries with generators and normalizations
  derive    Euler-Lagrange equations, syzygies, boundary coefficients
  laws      Ad(rho)^-1, upsilon vectors, first integrals, reduced system
  verify    run the full numeric verification suite

Exit codes: 0 success, 2 usage error, 3 parse error, 4 derivation
verification failure, 5 numeric check failure.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import frame as frame_mod
from . import liegroup, numlab, varcalc
from .symexpr import (
    Expr,
    ParseError,
    SymExprError,
    parse,
    to_json_dict,
    to_latex,
)

SCHEMA = 1


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _expr_dict(e: Expr, registry) -> dict:
    return {"text": str(e.sympy), "latex": to_latex(e),
            "tree": to_json_dict(e, registry)}


def _load_frame(args):
    """The entry's moving frame. Bundled entries and their frames are
    validated by the test suite; user entries and frames at load."""
    user = args.catalog_dir is not None
    try:
        spec = liegroup.catalog(args.entry, catalog_dir=args.catalog_dir,
                                validate=user)
    except liegroup.UnknownEntryError as exc:
        raise CliError(str(exc), 2)
    try:
        return frame_mod.solve_frame(spec, verify=user, rng=random.Random(args.seed))
    except SymExprError as exc:
        raise CliError(str(exc), 4)


def _lagrangian(args, frame):
    """The Lagrangian of --lagrangian: an expression in generator jets and
    independent variables only (exit 3 otherwise)."""
    spec = frame.spec
    try:
        expr = parse(args.lagrangian, spec.registry)
    except ParseError as exc:
        raise CliError(f"cannot parse Lagrangian: {exc}", 3)
    inv_js = frame.inv_space()
    foreign = sorted(n for n in expr.free_names()
                     if n not in spec.independent and inv_js.parse_coord(n) is None)
    if foreign:
        raise CliError(f"Lagrangian may name only generator jets and independent "
                       f"variables, not {', '.join(foreign)}", 3)
    try:
        return varcalc.make_lagrangian(
            frame, expr, syzygy_constraint=args.syzygy_multiplier)
    except varcalc.DerivationError as exc:
        raise CliError(str(exc), 4)


def cmd_catalog(args) -> dict:
    entries = []
    for name in liegroup.CATALOG_NAMES:
        spec = liegroup.catalog(name, catalog_dir=args.catalog_dir,
                                validate=args.catalog_dir is not None)
        entries.append({
            "name": spec.name,
            "description": spec.description,
            "group_dimension": spec.r,
            "independent": list(spec.independent),
            "dependent": list(spec.dependent),
            "parameters": list(spec.params),
            "normalizations": [{"coordinate": c, "value": str(v.sympy)}
                               for c, v in spec.normalizations],
            "generators": [{"name": g["name"], "coordinate": g["coordinate"],
                            "explicit": str(g["explicit"].sympy)}
                           for g in spec.generators],
            "constraint": (None if spec.constraint is None else
                           {"generator": spec.constraint["generator"],
                            "value": str(spec.constraint["value"].sympy)}),
        })
    return {"schema": SCHEMA, "command": "catalog", "entries": entries}


def _op_dict(op: varcalc.LinDiffOp, registry) -> dict:
    return {"terms": [{"index": list(J.counts), "coefficient": _expr_dict(a, registry)}
                      for J, a in op.terms]}


def cmd_derive(args) -> dict:
    frame = _load_frame(args)
    spec = frame.spec
    reg = spec.registry
    L = _lagrangian(args, frame)
    try:
        ctx = varcalc._context(frame, L)
        el = varcalc.invariant_el(L, ctx.H)
        bc = varcalc.boundary_coeffs(L, verify=not args.no_verify,
                                     rng=random.Random(args.seed), ctx=ctx)
        el_out = dict(el)
        lam = None
        if L.constraint is not None and L.constraint_kind == "parametrization":
            el_out, lam = varcalc.eliminate_multiplier(el, L, frame,
                                                       return_multiplier=True)
    except varcalc.VerificationFailure as exc:
        raise CliError(str(exc), 4)
    except (varcalc.DerivationError, SymExprError) as exc:
        raise CliError(str(exc), 4)

    out = {
        "schema": SCHEMA, "command": "derive", "entry": spec.name,
        "lagrangian": args.lagrangian,
        "syzygies": {f"{g},{dep}": _op_dict(ctx.H.op(g, dep), reg)
                     for g in frame.generator_names() for dep in spec.dependent},
        "euler_lagrange": {dep: _expr_dict(e, reg) for dep, e in el.items()},
        "boundary_coefficients": {
            ind: [{"dependent": dep, "index": list(J.counts),
                   "coefficient": _expr_dict(c, reg)}
                  for dep, J, c in bc.vector(ind) if not c.is_zero_literal()]
            for ind in spec.independent},
    }
    if lam is not None:
        out["multiplier"] = _expr_dict(lam, reg)
        out["euler_lagrange_eliminated"] = {dep: _expr_dict(e, reg)
                                            for dep, e in el_out.items()}
    return out


def cmd_laws(args) -> dict:
    frame = _load_frame(args)
    spec = frame.spec
    reg = spec.registry
    L = _lagrangian(args, frame)
    try:
        laws = varcalc.noether_laws(L, frame, verify=not args.no_verify,
                                    rng=random.Random(args.seed))
    except varcalc.VerificationFailure as exc:
        raise CliError(str(exc), 4)
    except (varcalc.DerivationError, SymExprError) as exc:
        raise CliError(str(exc), 4)

    out = {
        "schema": SCHEMA, "command": "laws", "entry": spec.name,
        "lagrangian": args.lagrangian,
        "ad_rho_inverse": [[_expr_dict(e, reg) for e in row]
                           for row in laws.ad_inv],
        "upsilon": {ind: [_expr_dict(u, reg) for u in vec]
                    for ind, vec in laws.upsilon.items()},
        "killing_matrix": [[str(x) for x in row]
                           for row in laws.killing.entries],
        "euler_lagrange": {dep: _expr_dict(e, reg) for dep, e in laws.el.items()},
    }
    if laws.multiplier_value is not None:
        out["multiplier"] = _expr_dict(laws.multiplier_value, reg)
    if len(spec.independent) == 1:
        out["first_integrals"] = [
            {"component": _expr_dict(comp, reg), "constant": f"c{i+1}"}
            for i, comp in enumerate(laws.law_components())]
        if laws.killing.is_invertible():
            lhs, rhs = varcalc.killing_first_integral(laws)
            out["killing_first_integral"] = {"lhs": _expr_dict(lhs, reg),
                                             "rhs": _expr_dict(rhs, reg)}
            rows = varcalc.reduced_system(laws)
            out["reduced_system"] = [_expr_dict(r, reg) for r in rows]
        else:
            out["killing_first_integral"] = None
            out["reduced_system"] = None
            out["notes"] = ["Killing form singular (group not semisimple): "
                            "Killing first integral and reduced system unavailable"]
    return out


def cmd_verify(args) -> dict:
    report = numlab.full_verification(seed=args.seed, fast=args.fast,
                                      h=args.step, span_end=args.span)
    out = {"schema": SCHEMA, "command": "verify", "seed": args.seed,
           "report": report.to_dict()}
    if not report.passed:
        out["exit_code"] = 5
    return out


def _render_text(data: dict) -> str:
    lines = []

    def expr_text(d):
        return d["text"] if isinstance(d, dict) and "text" in d else str(d)

    cmd = data.get("command")
    if cmd == "catalog":
        for e in data["entries"]:
            lines.append(f"{e['name']}  (r = {e['group_dimension']})")
            lines.append(f"  {e['description']}")
            lines.append("  normalizations: "
                         + ", ".join(f"{n['coordinate']} -> {n['value']}"
                                     for n in e["normalizations"]))
            lines.append("  generators: "
                         + ", ".join(f"{g['name']} = I({g['coordinate']}) = {g['explicit']}"
                                     for g in e["generators"]))
            if e["constraint"]:
                lines.append(f"  constraint: {e['constraint']['generator']} = "
                             f"{e['constraint']['value']} (Lagrange multiplier)")
    elif cmd == "derive":
        lines.append(f"entry {data['entry']}, L = {data['lagrangian']}")
        for dep, e in data["euler_lagrange"].items():
            lines.append(f"  E^{dep} = {expr_text(e)}")
        if "euler_lagrange_eliminated" in data:
            lines.append(f"  multiplier: lambda = {expr_text(data['multiplier'])}")
            for dep, e in data["euler_lagrange_eliminated"].items():
                lines.append(f"  E^{dep} (lambda eliminated) = {expr_text(e)}")
        for key, op in data["syzygies"].items():
            terms = " + ".join(f"({expr_text(t['coefficient'])}) D{t['index']}"
                               for t in op["terms"])
            lines.append(f"  H[{key}] = {terms}")
        for ind, vec in data["boundary_coefficients"].items():
            lines.append(f"  boundary along {ind}:")
            for t in vec:
                lines.append(f"    C^{t['dependent']}_{t['index']} = "
                             f"{expr_text(t['coefficient'])}")
    elif cmd == "laws":
        lines.append(f"entry {data['entry']}, L = {data['lagrangian']}")
        lines.append("  Ad(rho)^-1:")
        for row in data["ad_rho_inverse"]:
            lines.append("    [" + ", ".join(expr_text(e) for e in row) + "]")
        for ind, vec in data["upsilon"].items():
            lines.append(f"  upsilon_{ind} = ("
                         + ", ".join(expr_text(e) for e in vec) + ")")
        if data.get("first_integrals"):
            for fi in data["first_integrals"]:
                lines.append(f"  {expr_text(fi['component'])} = {fi['constant']}")
        if data.get("killing_first_integral"):
            kfi = data["killing_first_integral"]
            lines.append(f"  Killing first integral: {expr_text(kfi['lhs'])} = "
                         f"{expr_text(kfi['rhs'])}")
        if data.get("reduced_system"):
            for r in data["reduced_system"]:
                lines.append(f"  reduced: {expr_text(r)} = 0")
    elif cmd == "verify":
        rep = data["report"]
        for c in rep["checks"]:
            status = "PASS" if c["passed"] else "FAIL"
            lines.append(f"[{status}] {c['name']}: max residual "
                         f"{c['max_residual']:.3e} (tol {c['tolerance']:g})")
        for n in rep["notes"]:
            lines.append(f"note: {n}")
        lines.append("ALL CHECKS PASSED" if rep["passed"] else "CHECKS FAILED")
    return "\n".join(lines) + "\n"


def _render_latex(data: dict) -> str:
    lines = []

    def walk(d, label=""):
        if isinstance(d, dict):
            if "latex" in d:
                lines.append(f"% {label}")
                lines.append(f"\\[ {d['latex']} \\]")
            else:
                for k, v in d.items():
                    walk(v, f"{label}.{k}" if label else str(k))
        elif isinstance(d, list):
            for i, v in enumerate(d):
                walk(v, f"{label}[{i}]")

    walk(data)
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="framecalc",
        description="Moving frames, differential invariants, and Noether "
                    "conservation laws in Ad(rho)^-1 upsilon(I) form.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("json", "latex", "text"),
                        default="json")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        sp.add_argument("--catalog-dir", default=None,
                        help="directory of catalog JSON files (default bundled)")
        sp.add_argument("--seed", type=int, default=2024,
                        help="seed for probabilistic checks")

    sp = sub.add_parser("catalog", help="list catalog entries")
    common(sp)

    for name, help_text in (("derive", "Euler-Lagrange equations, syzygies, "
                                       "boundary coefficients"),
                            ("laws", "conservation laws Ad(rho)^-1 upsilon(I) = c")):
        sp = sub.add_parser(name, help=help_text)
        common(sp)
        sp.add_argument("--entry", required=True)
        sp.add_argument("--lagrangian", required=True)
        sp.add_argument("--syzygy-multiplier", action="store_true",
                        help="adjoin the generator syzygy with a Lagrange "
                             "multiplier (surface demonstration)")
        sp.add_argument("--no-verify", action="store_true",
                        help="skip the integration-by-parts identity check")

    sp = sub.add_parser("verify", help="run the numeric verification suite")
    common(sp)
    sp.add_argument("--step", type=float, default=None,
                    help="conservation-demo step (default 1e-3, 1e-2 with --fast)")
    sp.add_argument("--span", type=float, default=None,
                    help="conservation-demo span end (default 10)")
    sp.add_argument("--fast", action="store_true",
                    help="coarser steps (smoke test)")
    return p


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "catalog":
            data = cmd_catalog(args)
        elif args.command == "derive":
            data = cmd_derive(args)
        elif args.command == "laws":
            data = cmd_laws(args)
        elif args.command == "verify":
            data = cmd_verify(args)
        else:
            print(f"unknown command {args.command}", file=sys.stderr)
            return 2
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except liegroup.CatalogError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except numlab.NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5

    if args.format == "json":
        text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    elif args.format == "latex":
        text = _render_latex(data)
    else:
        text = _render_text(data)

    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return int(data.get("exit_code", 0))


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

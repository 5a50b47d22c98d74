"""Show that every output check rejects a corrupted copy of a real output.

Usage (from the repository root, after at least one run of each workload):

    python3 perfbench/selftest.py

run.py keeps the last output of each operation under perfbench/.work/last.
For each one this script runs the operation's checks on the output as it
is (each must pass) and on copies with one deliberate fault (each must be
rejected).  Memoized verdicts are not used.  Exit code 0 means every
original passed and every corrupted copy was rejected.
"""

import copy
import glob
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402


def negate(node: dict) -> dict:
    return {"kind": "product",
            "children": [{"kind": "rational", "p": -1, "q": 1}, node]}


def flip_first_term(node: dict) -> bool:
    """Negate one term of the first sum in the tree, in place."""
    if node["kind"] == "sum":
        node["children"][0] = negate(node["children"][0])
        return True
    children = node.get("children", []) + [node[k] for k in ("base", "child") if k in node]
    return any(flip_first_term(c) for c in children)


def corruptions(out: dict, check: str):
    """(description, corrupted copy) pairs aimed at one check."""
    def edit(fn):
        c = copy.deepcopy(out)
        fn(c)
        return c

    if check == "adjoint":
        i, j = next((i, j) for i, row in enumerate(out["ad_rho_inverse"])
                    for j, e in enumerate(row) if e["tree"] != {"kind": "rational", "p": 0, "q": 1})
        yield (f"Ad(rho)^-1 entry ({i}, {j}) sign flipped",
               edit(lambda c: c["ad_rho_inverse"][i][j].update(
                   tree=negate(c["ad_rho_inverse"][i][j]["tree"]))))
        if "first_integrals" in out:
            yield ("law component 1 sign flipped",
                   edit(lambda c: c["first_integrals"][0]["component"].update(
                       tree=negate(c["first_integrals"][0]["component"]["tree"]))))
    elif check == "conservation":
        yield ("one term of law component 2 sign flipped",
               edit(lambda c: flip_first_term(c["first_integrals"][1]["component"]["tree"])))
        dep = next(iter(out["euler_lagrange"]))
        yield ("one term of the Euler-Lagrange equation sign flipped",
               edit(lambda c: flip_first_term(c["euler_lagrange"][dep]["tree"])))
        if out.get("killing_first_integral"):
            yield ("one term of the Killing first integral lhs sign flipped",
                   edit(lambda c: flip_first_term(c["killing_first_integral"]["lhs"]["tree"])))
    elif check == "el_oracle":
        dep = next(iter(out["euler_lagrange"]))
        yield ("one term of E^u sign flipped",
               edit(lambda c: flip_first_term(c["euler_lagrange"][dep]["tree"])))
    elif check == "verify":
        yield ("one report check marked failed",
               edit(lambda c: c["report"]["checks"][0].update(passed=False)))

        def bump_c3(c):
            notes = c["report"]["notes"]
            k = next(k for k, n in enumerate(notes) if n.startswith("se2-curve: constants"))
            vals = json.loads(notes[k].split(" = ", 1)[1])
            vals[2] += 0.5
            notes[k] = f"se2-curve: constants c = {vals}"
        yield ("elastica constant c3 shifted by 0.5", edit(bump_c3))


def main() -> int:
    metas = sorted(glob.glob(os.path.join(run.WORK, "last", "*.args")))
    if not metas:
        print("no saved outputs; run perfbench/run.py first", file=sys.stderr)
        return 2
    bad = 0
    for meta_path in metas:
        with open(meta_path) as f:
            meta = json.load(f)
        with open(meta_path[:-5] + ".json") as f:
            out = json.load(f)
        label = " ".join(meta["args"][:3])
        for check in meta["checks"]:
            reason = run.check_call(check, meta, out, meta["seed"])[0]()
            ok = reason is None
            bad += not ok
            print(f"{'PASS' if ok else 'FAIL'}  {check:12s} original   {label}"
                  + ("" if ok else f": {reason}"))
            for what, corrupted in corruptions(out, check):
                try:
                    reason = run.check_call(check, meta, corrupted, meta["seed"])[0]()
                except Exception as exc:  # a crash also rejects the output
                    reason = f"{type(exc).__name__}: {exc}"
                rejected = reason is not None
                bad += not rejected
                print(f"{'PASS' if rejected else 'FAIL'}  {check:12s} rejects    "
                      f"{label}: {what} ({reason})")
    with open(os.path.join(run.WORK, "last", "catalog.json")) as f:
        listing = json.load(f)
    ok = checks.check_catalog(listing, run.CATALOG_DIR) is None
    rejected = checks.check_catalog({"entries": listing["entries"][1:]},
                                    run.CATALOG_DIR) is not None
    bad += (not ok) + (not rejected)
    print(f"{'PASS' if ok else 'FAIL'}  catalog      original")
    print(f"{'PASS' if rejected else 'FAIL'}  catalog      rejects    an entry dropped")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

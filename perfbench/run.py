"""Cold-CLI benchmark of framecalc.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one cold `python -m framecalc.cli ...` process with
PYTHONPATH=src, run one at a time.  Every output is checked by
perfbench/checks.py, apart from framecalc.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones of
a run whose processes carry the wrappers of perfbench/layers.py.
"""

import time

# setup_s is timed from here, before anything else is imported.
T0 = time.perf_counter()

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
CATALOG_DIR = os.path.join(ROOT, "src", "framecalc", "catalog")
DEADLINE_S = 170.0

SURFACE_LAGRANGIAN = "sigma_x^2/2 + kappa_t^2/2 + sigma*kappa + sigma_t*kappa_x"


def seeded_lagrangian(seed: int) -> str:
    """p sigma_x^2 + q sin(sigma) on sl2-action1, p and q seeded rationals."""
    rng = random.Random(seed)
    p, q = (Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(2))
    return f"{p}*sigma_x^2 + {q}*sin(sigma)"


def operations(workload: str, seed: int) -> list[dict]:
    """The workload's operations: CLI arguments and the checks they get."""
    if workload == "laws":
        return [
            {"args": ["laws", "--entry", "sl2-action2", "--lagrangian", "sigma_s^2/2"],
             "checks": ["adjoint", "conservation"]},
            {"args": ["laws", "--entry", "sl2-action1",
                      "--lagrangian", seeded_lagrangian(seed)],
             "checks": ["adjoint", "conservation"]},
            {"args": ["laws", "--entry", "sl2-surface", "--syzygy-multiplier",
                      "--lagrangian", SURFACE_LAGRANGIAN],
             "checks": ["adjoint", "el_oracle"]},
        ]
    if workload == "verify-numeric":
        return [
            {"args": ["verify", "--seed", str(seed), "--step", "1e-4"],
             "checks": ["verify"]},
        ]
    raise ValueError(workload)


WORKLOADS = ("laws", "verify-numeric")


def run_process(argv: list[str], env: dict, out_path: str, timeout: float) -> dict:
    """Run one child to its end; its wall time, peak RSS and exit code."""
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        lock = threading.Lock()
        reaped = False

        def kill():
            with lock:
                if not reaped:
                    proc.kill()

        timer = threading.Timer(max(timeout, 1.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            with lock:
                reaped = True
        except BaseException:  # interrupted or terminated: stop the child too
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0,
            "code": proc.returncode}


def child_env(seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env["PYTHONHASHSEED"] = str(seed % 2 ** 32)
    return env


def check_call(name: str, op: dict, out: dict, seed: int):
    """The named check of an operation's output as a call without
    arguments, and the inputs besides the output that its verdict rests on."""
    import checks

    if name == "adjoint":
        return (lambda: checks.check_adjoint(out)), []
    if name == "verify":
        return (lambda: checks.check_verify(out, seed)), [str(seed)]
    entry = checks.load_entry(CATALOG_DIR, out["entry"])
    entry_text = json.dumps(entry, sort_keys=True)
    if name == "conservation":
        return (lambda: checks.check_conservation(out, entry)), [entry_text]
    lagrangian = op["args"][op["args"].index("--lagrangian") + 1]
    return ((lambda: checks.check_el_oracle(out, entry, lagrangian)),
            [entry_text, lagrangian])


def check_output(op: dict, raw: bytes, seed: int, memo) -> str | None:
    """The first failed check of an output, or None when all pass."""
    out = json.loads(raw)
    for name in op["checks"]:
        check, inputs = check_call(name, op, out, seed)
        reason = memo.run(name, [raw] + inputs, check)
        if reason is not None:
            return f"{name}: {reason}"
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    # SIGTERM unwinds like an exception, so a running child is stopped and
    # the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "framecalc", "cli.py")):
        print("error: src/framecalc is missing; run from a framecalc checkout",
              file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        return measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, tmp: str) -> int:
    env = child_env(args.seed)
    python = sys.executable

    # Set-up: one cold `catalog` process, timed from this process's start.
    setup_out = os.path.join(tmp, "catalog.json")
    res = run_process([python, "-m", "framecalc.cli", "catalog"], env, setup_out,
                      DEADLINE_S)
    setup_s = time.perf_counter() - T0
    if res["code"] != 0:
        with open(setup_out + ".err", "rb") as f:
            sys.stderr.buffer.write(f.read())
        print("error: the catalog set-up process failed", file=sys.stderr)
        return 1

    sys.path.insert(0, HERE)
    import checks
    memo = checks.Memo(os.path.join(WORK, "memo"))
    correct = True
    with open(setup_out, "rb") as f:
        reason = checks.check_catalog(json.loads(f.read()), CATALOG_DIR)
    if reason is not None:
        print(f"check failed: catalog: {reason}", file=sys.stderr)
        correct = False

    ops = operations(args.workload, args.seed)
    last_dir = os.path.join(WORK, "last")
    os.makedirs(last_dir, exist_ok=True)
    shutil.copyfile(setup_out, os.path.join(last_dir, "catalog.json"))
    rounds, attempted, failed, rss = [], 0, 0, []
    t_measure = time.perf_counter()
    stop = False
    while not stop:
        t_round = time.perf_counter()
        walls, layer_runs = [], []
        for i, op in enumerate(ops):
            out_path = os.path.join(tmp, f"op{i}.json")
            if args.trace:
                metrics_path = out_path + ".layers"
                argv = [python, os.path.join(HERE, "traced_cli.py"), metrics_path]
            else:
                argv = [python, "-m", "framecalc.cli"]
            timeout = DEADLINE_S - (time.perf_counter() - T0)
            res = run_process(argv + op["args"], env, out_path, timeout)
            attempted += 1
            print(f"{res['wall_s']:8.2f} s {res['rss_mb']:6.1f} MB exit {res['code']}: "
                  f"{' '.join(op['args'])}", file=sys.stderr)
            walls.append(res["wall_s"])
            rss.append(res["rss_mb"])
            if res["code"] != 0:
                failed += 1
                stop = stop or timeout <= res["wall_s"]
                continue
            with open(out_path, "rb") as f:
                raw = f.read()
            shutil.copyfile(out_path, os.path.join(last_dir, f"{args.workload}-{i}.json"))
            with open(os.path.join(last_dir, f"{args.workload}-{i}.args"), "w") as f:
                json.dump({"args": op["args"], "checks": op["checks"],
                           "seed": args.seed}, f)
            try:
                reason = check_output(op, raw, args.seed, memo)
            except Exception as exc:  # a malformed output fails its check
                reason = f"{type(exc).__name__}: {exc}"
            if reason is not None:
                failed += 1
                correct = False
                print(f"check failed: {op['args']}: {reason}", file=sys.stderr)
                continue
            if args.trace:
                with open(metrics_path) as f:
                    layer_runs.append(json.load(f))
        rounds.append({"wall_s": sum(walls), "layers": layer_runs})
        elapsed = time.perf_counter() - t_measure
        last = time.perf_counter() - t_round
        if elapsed + last > args.seconds:
            stop = True

    if args.trace:
        metrics = traced_metrics(rounds)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds),
                       "unit": "s"},
            "peak_rss_mb": {"value": max(rss), "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def per_layer_units() -> dict[str, str]:
    """Names and units of the per-layer metrics, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}


def traced_metrics(rounds: list[dict]) -> dict:
    """Per-layer metrics: each round's processes summed, the median taken
    over rounds; import time is the median over all processes."""
    units = per_layer_units()
    per_round = []
    imports = []
    for r in rounds:
        summed = {}
        for m in r["layers"]:
            imports.append(m["cli.import_s"])
            for k, v in m.items():
                summed[k] = summed.get(k, 0) + v
        steps, secs = summed.get("numlab.rk4_steps", 0), summed.get(
            "numlab.integrate_el.total_s", 0.0)
        summed["numlab.rk4_steps_per_s"] = steps / secs if secs else 0.0
        summed["trace.wall_s"] = r["wall_s"]
        if r["layers"] and set(summed) != set(units):
            raise RuntimeError(f"traced metrics differ from BENCHMARK.json: "
                               f"{sorted(set(summed) ^ set(units))}")
        per_round.append(summed)
    out = {}
    for name, unit in units.items():
        if name == "cli.import_s":
            value = statistics.median(imports) if imports else 0.0
        else:
            value = statistics.median(r.get(name, 0) for r in per_round)
        out[name] = {"value": value, "unit": unit}
    return out


if __name__ == "__main__":
    sys.exit(main())

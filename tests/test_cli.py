import argparse
import functools
import json
import pathlib
import random
import time
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from framecalc import cli, frame, liegroup, varcalc


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_json(capsys):
    code, out, err = run_cli(capsys, "catalog")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    names = [e["name"] for e in data["entries"]]
    assert names == ["se2-curve", "sl2-action1", "sl2-action2",
                     "sl2-action3", "sl2-surface"]


def test_catalog_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "catalog")
    _, out2, _ = run_cli(capsys, "catalog")
    assert out1 == out2


def test_unknown_entry_exit_2(capsys):
    code, out, err = run_cli(capsys, "derive", "--entry", "nosuch",
                             "--lagrangian", "kappa^2")
    assert code == 2
    assert "unknown" in err


def test_parse_error_exit_3(capsys):
    code, out, err = run_cli(capsys, "derive", "--entry", "sl2-action1",
                             "--lagrangian", "sigma_x^2/")
    assert code == 3
    assert "parse" in err.lower()


def test_unregistered_symbol_exit_3(capsys):
    # kappa is not a generator of sl2-action1
    code, out, err = run_cli(capsys, "derive", "--entry", "sl2-action1",
                             "--lagrangian", "kappa^2")
    assert code == 3


@pytest.mark.parametrize("lagrangian", [
    "u",                 # a jet coordinate, not an invariant
    "a*sigma_x^2",       # a group parameter
    "lambda*sigma_x^2",  # the multiplier
    "c1*sigma_x^2",      # an integration constant
])
def test_lagrangian_outside_generator_jets_exit_3(capsys, lagrangian):
    code, out, err = run_cli(capsys, "laws", "--entry", "sl2-action1",
                             "--lagrangian", lagrangian, "--no-verify")
    assert code == 3
    assert out == ""
    assert "generator jets and independent variables" in err


def test_usage_error_exit_2(capsys):
    assert cli.run(["derive", "--entry", "sl2-action1"]) == 2


def test_derive_action1(capsys, tmp_path):
    out_path = tmp_path / "derive.json"
    code, _, _ = run_cli(capsys, "derive", "--entry", "sl2-action1",
                         "--lagrangian", "sigma_x^2/2",
                         "--out", str(out_path))
    assert code == 0
    data = json.loads(out_path.read_text())
    el = data["euler_lagrange"]["u"]["text"]
    assert el == "2*sigma*sigma_xxx + sigma_x*sigma_xx + sigma_xxxxx"
    h = data["syzygies"]["sigma,u"]["terms"]
    assert [t["index"] for t in h] == [[0], [1], [3]]
    assert data["euler_lagrange"]["u"]["latex"].count("\\sigma") >= 3


def test_derive_text_and_latex_formats(capsys):
    code, out, _ = run_cli(capsys, "derive", "--entry", "sl2-action1",
                           "--lagrangian", "sigma_x^2/2", "--format", "text",
                           "--no-verify")
    assert code == 0 and "E^u" in out
    code, out, _ = run_cli(capsys, "derive", "--entry", "sl2-action1",
                           "--lagrangian", "sigma_x^2/2", "--format", "latex",
                           "--no-verify")
    assert code == 0 and "\\[" in out


def test_laws_se2(capsys):
    code, out, _ = run_cli(capsys, "laws", "--entry", "se2-curve",
                           "--lagrangian", "kappa^2", "--no-verify")
    assert code == 0
    data = json.loads(out)
    ups = [u["text"] for u in data["upsilon"]["s"]]
    assert ups == ["-kappa**2", "-2*kappa_s", "2*kappa"]
    assert data["killing_first_integral"] is None
    assert data["multiplier"]["text"] == "-3*kappa**2"


def test_verify_fast_smoke(capsys):
    # exit code agrees with the conjunction of report pass flags
    code, out, _ = run_cli(capsys, "verify", "--fast")
    data = json.loads(out)
    assert data["report"]["checks"]
    assert code == (0 if data["report"]["passed"] else 5)
    names = " ".join(c["name"] for c in data["report"]["checks"])
    assert "RK4" in names and "law component" in names


def test_seed_reaches_noether_laws(capsys, monkeypatch):
    seen = []

    def fake_laws(*args, rng=None, **kwargs):
        seen.append(rng)
        raise varcalc.DerivationError("stopped after the seed check")

    monkeypatch.setattr(varcalc, "noether_laws", fake_laws)
    code, _, _ = run_cli(capsys, "laws", "--entry", "sl2-action1",
                         "--lagrangian", "sigma_x^2/2", "--seed", "7")
    assert code == 4
    assert seen[0].random() == random.Random(7).random()


def test_catalog_dir_entry_validated_at_load(capsys, tmp_path):
    src = resources.files("framecalc").joinpath("catalog/sl2-action1.json")
    data = json.loads(src.read_text())
    data["infinitesimals"][2]["u"] = "-u^2+1"
    (tmp_path / "sl2-action1.json").write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "laws", "--catalog-dir", str(tmp_path),
                           "--entry", "sl2-action1",
                           "--lagrangian", "sigma_x^2/2", "--no-verify")
    assert code == 4
    assert "infinitesimal gamma mismatch on u" in err


def test_catalog_dir_frame_verified_at_load(capsys, tmp_path):
    src = resources.files("framecalc").joinpath("catalog/sl2-action1.json")
    data = json.loads(src.read_text())
    data["frame"]["c"] = "u_xx/(3*u_x^(3/2))"
    (tmp_path / "sl2-action1.json").write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "laws", "--catalog-dir", str(tmp_path),
                             "--entry", "sl2-action1",
                             "--lagrangian", "sigma_x^2/2", "--no-verify")
    assert code == 4
    assert out == ""
    assert "normalization psi(u_xx) = 0 violated" in err


def test_derivation_depth_bound_exit_4(capsys):
    # sigma_xxxxxxxx on sl2-action1 needs depth 3 + 8 = 11
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "laws", "--entry", "sl2-action1",
                             "--lagrangian", "sigma_xxxxxxxx^2", "--no-verify")
    assert code == 4
    assert out == ""
    assert "depth 11" in err and f"maximum, {varcalc.MAX_DERIVATION_DEPTH}" in err
    assert time.perf_counter() - start < 10


def test_laws_builds_shared_facts_once(capsys, monkeypatch):
    calls = {"adjoint_matrix": 0, "build_invariant_table": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(varcalc, "adjoint_matrix",
                        counting("adjoint_matrix", varcalc.adjoint_matrix))
    table = counting("build_invariant_table", frame.build_invariant_table)
    monkeypatch.setattr(frame, "build_invariant_table", table)
    monkeypatch.setattr(varcalc, "build_invariant_table", table)
    code = cli.run(["laws", "--entry", "se2-curve", "--lagrangian", "kappa^2",
                    "--no-verify"])
    capsys.readouterr()
    assert code == 0
    assert calls == {"adjoint_matrix": 1, "build_invariant_table": 2}


def test_laws_se2_elastica_verified(capsys):
    # Written out in explicit jets, the radical sqrt(x_s^2 + u_s^2) made this
    # identity check run unboundedly; the golden file is the unverified output.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "laws", "--entry", "se2-curve",
                             "--lagrangian", "kappa_s^2/2 + kappa^2")
    assert code == 0, err
    assert time.perf_counter() - start < 60
    golden = pathlib.Path(__file__).parent / "golden" / "laws-se2-elastica.json"
    assert out == golden.read_text()


def test_verification_runs_once_per_derivation(capsys, monkeypatch):
    calls = {"_verify_boundary": 0, "verify_syzygies": 0}

    def counting(name):
        fn = getattr(varcalc, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(varcalc, name, wrapper)

    for name in calls:
        counting(name)
    argv = ["laws", "--entry", "sl2-action2", "--lagrangian", "sigma_s^2/2"]
    assert cli.run(argv) == 0
    assert calls == {"_verify_boundary": 1, "verify_syzygies": 1}
    calls.update(dict.fromkeys(calls, 0))
    assert cli.run(argv + ["--no-verify"]) == 0
    capsys.readouterr()
    assert calls == {"_verify_boundary": 0, "verify_syzygies": 0}


# -- the Lagrangian contract, fuzzed -------------------------------------------

@functools.cache
def _fuzz_frame(entry):
    """Loaded without validation and used for no derivation, so its
    registry holds exactly what the loader registered."""
    return frame.solve_frame(liegroup.catalog(entry, validate=False), verify=False)


@functools.cache
def _names_by_role(entry):
    """Registered names of an entry, grouped: generator jets, base jets,
    group parameters, multiplier jets, integration constants, independents."""
    frame_ = _fuzz_frame(entry)
    spec = frame_.spec
    names = spec.registry.names()
    gen = frame_.inv_space()
    lam = frame_.inv_space(multiplier=True)
    base = spec.jet_space()
    return [
        [n for n in names if gen.parse_coord(n) is not None],
        [n for n in names if base.parse_coord(n) is not None],
        list(spec.all_params),
        [n for n in names if (p := lam.parse_coord(n)) is not None
         and p[0] == liegroup.MULTIPLIER],
        [f"c{i + 1}" for i in range(spec.r)],
        list(spec.independent),
    ]


@st.composite
def _entry_and_lagrangian(draw):
    entry = draw(st.sampled_from(liegroup.CATALOG_NAMES))
    name = st.sampled_from(_names_by_role(entry)).flatmap(st.sampled_from)
    atom = st.one_of(name, st.integers(0, 9).map(str))
    well_formed = st.recursive(
        atom,
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(
                lambda t: f"({t[0]}{t[1]}{t[2]})"),
            st.tuples(inner, st.integers(-3, 3)).map(lambda t: f"{t[0]}^{t[1]}"),
            inner.map(lambda e: f"-{e}")),
        max_leaves=6)
    token_soup = st.lists(st.one_of(atom, st.sampled_from("+-*/^")),
                          min_size=1, max_size=7).map(" ".join)
    return entry, draw(st.one_of(well_formed, token_soup))


@settings(max_examples=200, deadline=None)
@given(case=_entry_and_lagrangian())
def test_lagrangian_contract_fuzz(case):
    entry, text = case
    frame_ = _fuzz_frame(entry)
    args = argparse.Namespace(lagrangian=text, syzygy_multiplier=False)
    try:
        L = cli._lagrangian(args, frame_)
    except cli.CliError as exc:
        assert exc.code == 3, (text, str(exc))
        return
    gen = frame_.inv_space()
    for n in L.expr.free_names():
        assert n in frame_.spec.independent or gen.parse_coord(n) is not None, text

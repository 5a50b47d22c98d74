import json
import random
from importlib import resources

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


def test_laws_builds_shared_facts_once(capsys, monkeypatch):
    calls = {"adjoint_matrix": 0, "build_invariant_table": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(liegroup, "adjoint_matrix",
                        counting("adjoint_matrix", liegroup.adjoint_matrix))
    table = counting("build_invariant_table", frame.build_invariant_table)
    monkeypatch.setattr(frame, "build_invariant_table", table)
    monkeypatch.setattr(varcalc, "build_invariant_table", table)
    code = cli.run(["laws", "--entry", "se2-curve", "--lagrangian", "kappa^2",
                    "--no-verify"])
    capsys.readouterr()
    assert code == 0
    assert calls == {"adjoint_matrix": 1, "build_invariant_table": 2}

import random

import numpy as np
import pytest

from framecalc import numlab as nl
from framecalc import symexpr as se
from rk4_oracle import oracle_rhs, rk4_oracle


@pytest.fixture(scope="session")
def demo(frames, laws_of):
    def get(name):
        return frames(name), laws_of(name, nl.DEMO_LAGRANGIANS[name])
    return get


def test_rk4_step_halving_elastica(demo):
    frame, _ = demo("se2-curve")
    ref = nl.demo_trajectory(frame, 1e-3 / 4, (0.0, 2.0))
    errs = []
    for h in (1e-2, 5e-3):
        t = nl.demo_trajectory(frame, h, (0.0, 2.0))
        errs.append(abs(t.states["kappa"][-1] - ref.states["kappa"][-1]))
    assert 8.0 <= errs[0] / errs[1] <= 32.0  # ~16x per halving


def test_zero_initial_data_trivial_trajectory(demo):
    frame, _ = demo("se2-curve")
    traj = nl.demo_trajectory(frame, 1e-2, (0.0, 1.0),
                              init_overrides={"kappa": 0.0, "kappa_s": 0.0})
    assert np.max(np.abs(traj.states["kappa"])) == 0.0
    assert np.max(np.abs(traj.states["kappa_s"])) == 0.0


def test_elastica_energy_constant(demo):
    # kappa^4/4 + kappa_s^2 constant along the elastica
    frame, _ = demo("se2-curve")
    traj = nl.demo_trajectory(frame, 1e-3, (0.0, 10.0))
    k, ks = traj.states["kappa"], traj.states["kappa_s"]
    energy = k ** 4 / 4 + ks ** 2
    assert np.max(np.abs(energy - energy[0])) <= 1e-8


def test_blowup_error_reported_with_location():
    # y' = y^2 from y(0) = 1 blows up at s = 1
    reg = se.SymbolRegistry()
    reg.register("y", se.KIND_AUXILIARY)
    sys_ = nl.ODESystem("toy", ["y"], {"y": reg.expr("y") * reg.expr("y")})
    with pytest.raises(nl.BlowUpError) as err:
        nl.integrate_el(sys_, {"y": 1.0}, (0.0, 2.0), 1e-3)
    assert "s = " in str(err.value)


def _toy_system(rhs: dict[str, str]) -> nl.ODESystem:
    reg = se.SymbolRegistry()
    for name in rhs:
        reg.register(name, se.KIND_AUXILIARY)
    return nl.ODESystem("toy", list(rhs),
                        {name: se.parse(text, reg) for name, text in rhs.items()})


@pytest.mark.parametrize("rhs", [
    "y^8",            # overflow of a float power
    "1/(y - 1)",      # division by zero at the first stage
    "sqrt(y - 2)",    # square root of a negative
    "(y - 2)^(3/2)",  # canonical form y sqrt(y - 2) - 2 sqrt(y - 2)
    "(y - 2)^(1/3)",  # a complex power of a negative base
])
def test_float_failures_reported_as_blowup(rhs):
    with pytest.raises(nl.BlowUpError) as err:
        nl.integrate_el(_toy_system({"y": rhs}), {"y": 1.0}, (0.0, 2.0), 1e-3)
    assert "s = " in str(err.value)


DEMO_CASES = [("se2-curve", False, False), ("sl2-action1", True, False),
              ("sl2-action1", False, True), ("sl2-action2", False, False),
              ("sl2-action3", False, False)]


@pytest.mark.parametrize("name,linear_chart,reconstruction", DEMO_CASES)
@pytest.mark.parametrize("h", [1e-2, 2.5e-3])
def test_integrate_el_matches_numpy_oracle_bitwise(frames, name, linear_chart,
                                                    reconstruction, h):
    system = nl.demo_system(frames(name), linear_chart=linear_chart)
    init = {k: v for k, v in nl.demo_init(name, reconstruction).items()
            if k in system.state}
    traj = nl.integrate_el(system, init, (0.0, 0.4), h)
    ref = rk4_oracle(system, init, (0.0, 0.4), h)
    assert list(ref) == system.state
    for col in system.state:
        assert np.array_equal(traj.states[col], ref[col]), col
    _assert_rhs_matches_oracle(system, traj)


def _assert_rhs_matches_oracle(system, traj):
    # A last-bit difference in the right-hand side is mostly absorbed by
    # the h/6 update, so the two right-hand sides are compared directly too.
    f_ref = oracle_rhs(system)
    rows = np.column_stack([traj.states[col] for col in system.state])
    for row in rows:
        assert np.array_equal(system.f([float(v) for v in row]), f_ref(row))


@pytest.mark.parametrize("h", [1e-2, 2.5e-3])
def test_integrate_el_matches_numpy_oracle_with_sech_and_tanh(h):
    system = _toy_system({"y": "z",
                          "z": "-sech(y)^2*tanh(y) + sqrt(1 + z^2)/4 + sin(y)*cos(z)"})
    init = {"y": 0.3, "z": -0.7}
    traj = nl.integrate_el(system, init, (0.0, 2.0), h)
    ref = rk4_oracle(system, init, (0.0, 2.0), h)
    for col in system.state:
        assert np.array_equal(traj.states[col], ref[col]), col
    _assert_rhs_matches_oracle(system, traj)


def test_non_explicit_system_error(frames):
    frame = frames("se2-curve")
    reg = frame.spec.registry
    eq = reg.expr("kappa_ss") * reg.expr("kappa_ss") + reg.expr("kappa")
    with pytest.raises(nl.NonExplicitSystemError):
        nl.ODESystem.solve_leading(eq, "kappa_ss", reg)


def test_solve_leading_linear(frames):
    frame = frames("se2-curve")
    reg = frame.spec.registry
    eq = se.parse("2*kappa_ss + kappa^3", reg)
    out = nl.ODESystem.solve_leading(eq, "kappa_ss", reg)
    assert se.is_zero(out + reg.expr("kappa") ** 3 / 2)


def test_check_constancy_missing_variable(demo):
    frame, laws = demo("se2-curve")
    traj = nl.demo_trajectory(frame, 1e-2, (0.0, 0.5))
    del traj.states["x_s"]
    with pytest.raises(nl.MissingVariableError):
        nl.check_constancy(laws, traj)


def test_check_constancy_single_node(demo):
    frame, laws = demo("se2-curve")
    traj = nl.demo_trajectory(frame, 1e-2, (0.0, 1e-2))
    short = nl.Trajectory(traj.entry, traj.grid[:1],
                          {k: v[:1] for k, v in traj.states.items()})
    rep = nl.check_constancy(laws, short, tol=1e-12)
    assert rep.passed


def test_conservation_se2(demo):
    frame, laws = demo("se2-curve")
    rep = nl.conservation_demo("se2-curve", h=1e-3, span=(0.0, 10.0),
                               frame=frame, laws=laws)
    assert rep.passed
    assert len(rep.checks) == 3


def test_conservation_action1_linear_chart(demo):
    frame, laws = demo("sl2-action1")
    rep = nl.conservation_demo("sl2-action1", h=1e-3, span=(0.0, 10.0),
                               frame=frame, laws=laws)
    assert rep.passed


def test_rk4_and_drift_orders(demo):
    frame, laws = demo("se2-curve")
    order = nl.rk4_convergence_order(frame, span=(0.0, 10.0))
    assert 3.7 <= order <= 4.3
    dorder = nl.conservation_drift_order(frame, laws, span=(0.0, 10.0))
    assert 3.0 <= dorder <= 5.0


def test_reconstruction_se2_eqs345(demo):
    frame, laws = demo("se2-curve")
    rep = nl.reconstruction_demo("se2-curve", h=1e-3, span=(0.0, 10.0),
                                 frame=frame, laws=laws)
    assert rep.passed, [c.name for c in rep.checks if not c.passed]


@pytest.mark.parametrize("name,span", [("sl2-action1", (0.0, 0.8)),
                                       ("sl2-action2", (0.0, 0.8)),
                                       ("sl2-action3", (0.0, 0.4))])
def test_reconstruction_sl2(demo, name, span):
    frame, laws = demo(name)
    rep = nl.reconstruction_demo(name, h=1e-4, span=span, frame=frame, laws=laws)
    assert rep.passed, [c.name for c in rep.checks if not c.passed]
    note = next(n for n in rep.notes if "radicand" in n)
    assert "c1^2+4c2c3" in note


def test_degenerate_constants_diagnostic(demo):
    frame, laws = demo("sl2-action1")
    traj = nl.demo_trajectory(frame, 1e-3, (0.0, 0.3), reconstruction=True,
                              init_overrides={"sigma": 0.0, "sigma_xx": 0.0})
    c = nl.law_constants(laws, traj, frame)
    assert max(abs(v) for v in c) < 1e-10
    with pytest.raises(nl.DegenerateConstantsError):
        if max(abs(v) for v in c) < 1e-10:
            raise nl.DegenerateConstantsError("c = 0 out of scope")


def test_fd_audit_pass_and_negative_control(frames, rng):
    frame = frames("sl2-action1")
    reg = frame.spec.registry
    e = se.parse("sigma_x^2", reg)
    ok = nl.fd_audit(e, se.parse("2*sigma_x", reg), "sigma_x", reg, rng=rng)
    assert ok.passed
    bad = nl.fd_audit(e, se.parse("3*sigma_x", reg), "sigma_x", reg,
                      rng=random.Random(5))
    assert not bad.passed


def test_fd_audit_total_derivative_schwarzian(frames):
    from framecalc.jetcalc import total_derivative
    frame = frames("sl2-action1")
    reg = frame.spec.registry
    schw = se.parse("u_xxx/u_x - (3/2)*u_xx^2/u_x^2", reg)
    claimed = total_derivative(schw, 0, frame.jet_space())
    check = nl.fd_audit_total_derivative(schw, claimed, frame,
                                         rng=random.Random(6))
    assert check.passed


def test_trajectory_rows_and_report_dict(demo):
    frame, laws = demo("se2-curve")
    traj = nl.demo_trajectory(frame, 1e-2, (0.0, 0.1))
    rows = list(traj.to_rows())
    assert rows[0][0] == "s"
    assert len(rows) == len(traj.grid) + 1
    rep = nl.VerificationReport()
    rep.add("demo", 0.0, 1.0)
    d = rep.to_dict()
    assert d["passed"] and d["checks"][0]["name"] == "demo"


def test_trajectory_export_files(demo, tmp_path):
    import json
    frame, laws = demo("se2-curve")
    traj = nl.demo_trajectory(frame, 1e-2, (0.0, 0.2))
    csv_path = tmp_path / "traj.csv"
    nl.write_trajectory_csv(traj, str(csv_path))
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("s,")
    assert len(lines) == len(traj.grid) + 1

    json_path = tmp_path / "traj.json"
    nl.write_trajectory_json(traj, str(json_path))
    data = json.loads(json_path.read_text())
    assert data["entry"] == "se2-curve"
    assert len(data["s"]) == len(traj.grid)

    plot_path = tmp_path / "plot.csv"
    nl.write_plot_data(traj, laws, str(plot_path), frame=frame)
    header = plot_path.read_text().splitlines()[0].split(",")
    assert header[0] == "s"
    assert "kappa" in header and "law1" in header and "law3" in header


def test_invariant_table_json(frames):
    import json
    from framecalc import frame as fr
    tab = fr.build_invariant_table(frames("sl2-action1"), 4)
    d = tab.to_json_dict()
    assert d["entries"]["u_xxxx"]["generator_form_text"] == "sigma_x"
    json.dumps(d, sort_keys=True)  # serializable

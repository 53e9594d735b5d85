import csv
import json
import math
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

import vhcplan.cli
from vhcplan import BoundaryUnreachableError, ConvergenceError
from vhcplan.cli import main

BASE = [sys.executable, "-m", "vhcplan.cli"]
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAST_STABILIZE = ["--set", "stabilize.n_grid=64"]


def run_cli(*args):
    return subprocess.run(BASE + list(args), capture_output=True, text=True)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _csv_module_writer(path, header, rows):
    """The csv-module writer `write_csv` replaces: one formatted row at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(header))
        for row in rows:
            writer.writerow(["nan" if math.isnan(v) else f"{v:.17g}" for v in map(float, row)])


def test_write_csv_matches_csv_module(tmp_path):
    from vhcplan.io_utils import CSV_BLOCK, write_csv

    special = [math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, -1e-300,
               5e-324, 3.0, -42.0, 1e16, 2.0 ** 60, 0.1, 1.0 / 3.0]
    rng = np.random.default_rng(5)
    shape = (CSV_BLOCK + 37, len(special))
    table = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, shape)
    table[[0, CSV_BLOCK, CSV_BLOCK + 36]] = special
    header = [f"c{i}" for i in range(len(special))]
    for rows in (table, table[:0], table.tolist()):
        write_csv(tmp_path / "new.csv", header, rows)
        _csv_module_writer(tmp_path / "old.csv", header, rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_write_json_writes_strict_json(tmp_path):
    # Non-finite floats become strings, so a strict reader (one that refuses
    # the NaN and Infinity tokens) reads every file write_json writes.
    from vhcplan.io_utils import write_json

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    payload = {"a": math.inf, "b": [-math.inf, math.nan, np.float64(-math.inf)],
               "c": {"d": np.array([1.5, math.inf])}, "e": 0.1}
    write_json(tmp_path / "x.json", payload)
    loaded = json.loads((tmp_path / "x.json").read_text(), parse_constant=refuse)
    assert loaded == {"a": "inf", "b": ["-inf", "nan", "-inf"],
                      "c": {"d": [1.5, "inf"]}, "e": 0.1}


def test_plan_artifacts(tmp_path):
    out = tmp_path / "plan"
    proc = run_cli("plan", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    for name in ("config.resolved.json", "trajectory.csv", "report.json",
                 "metadata.json"):
        assert (out / name).is_file()
    rows = read_rows(out / "trajectory.csv")
    assert rows[0] == ["t", "theta", "thetadot", "x", "z", "psi",
                       "xdot", "zdot", "psidot", "u1", "u2"]
    assert len(rows) == 1 + 4096
    report = json.loads((out / "report.json").read_text())
    assert report["check"]["overall"] is True
    assert abs(report["period"] - 2.0 * math.pi) < 1e-8
    assert report["max_input_residual"] < 1e-8
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["command"] == "plan" and meta["exit_code"] == 0


def test_plan_trajectory_matches_closed_form(tmp_path):
    out = tmp_path / "plan"
    run_cli("plan", "--out", str(out))
    rows = read_rows(out / "trajectory.csv")[1:]
    worst = 0.0
    for row in rows[:: 128]:
        t = float(row[0])
        worst = max(worst, abs(float(row[1]) - math.sin(t)),
                    abs(float(row[3]) - math.sin(t)))
    assert worst < 1e-8


def test_plan_is_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_cli("plan", "--out", str(out_a))
    run_cli("plan", "--out", str(out_b))
    assert (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    assert (out_a / "config.resolved.json").read_bytes() == \
        (out_b / "config.resolved.json").read_bytes()


def test_config_file_and_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"boundary": {"theta1": -0.9}}))
    out = tmp_path / "out"
    proc = run_cli("plan", "--config", str(cfg), "--out", str(out),
                   "--set", "boundary.theta2=0.9")
    assert proc.returncode == 0, proc.stderr
    resolved = json.loads((out / "config.resolved.json").read_text())
    assert resolved["boundary"]["theta1"] == -0.9
    assert resolved["boundary"]["theta2"] == 0.9
    report = json.loads((out / "report.json").read_text())
    assert report["boundary"]["theta1"] == -0.9


def test_resolved_config_reproduces_run(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    proc = run_cli("plan", "--out", str(first), "--set", "boundary.theta1=-0.9")
    assert proc.returncode == 0, proc.stderr
    proc = run_cli("plan", "--config", str(first / "config.resolved.json"),
                   "--out", str(second))
    assert proc.returncode == 0, proc.stderr
    for name in ("trajectory.csv", "report.json", "config.resolved.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_config_keys_validated_alike_in_files_and_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"solver": {"n_samples": 2001}}))   # a removed key
    assert main(["plan", "--config", str(cfg), "--out", str(tmp_path / "o1")]) == 64
    for assignment in ("solver.n_samples=2001", "vhc.kind.name=1", "stabilize=1"):
        assert main(["plan", "--out", str(tmp_path / "o2"), "--set", assignment]) == 64
    # Keys that became constants or went: the solver's cut, tolerance and time
    # bound (the solve through the crossing has none of them), the chart's and
    # the sampling tuning values, and the boundary velocities, which a periodic
    # orbit fixes at 0. Keys with one working value: the zero-order hold's
    # switch and the system, always PVTOL.
    removed = {"solver": {"xi_cut": 1e-6, "tol": 1e-10, "t_max": 1000, "lift_samples": 4096},
               "check": {"n_grid": 2048},
               "certify": {"n_samples": 2048, "accessibility_samples": 64},
               "stabilize": {"rho_step": 1e-6, "w_step": 1e-4, "tube_radius": 1.0},
               "boundary": {"dtheta1": 0.0, "dtheta2": 0.0},
               "simulate": {"stage_feedback": False},
               "system": {"name": "pvtol"}}
    for section, keys in removed.items():
        for key, value in keys.items():
            cfg.write_text(json.dumps({section: {key: value}}))
            assert main(["plan", "--config", str(cfg), "--out", str(tmp_path / "o3")]) == 64
            assert main(["plan", "--out", str(tmp_path / "o4"),
                         "--set", f"{section}.{key}={value}"]) == 64


def test_config_value_types_validated(tmp_path, capsys):
    # A value of another JSON type than its key's default, a fraction for an
    # integer included, is a usage error from a config file and from --set alike.
    # So is a number that is not finite, which passed `inf > 0` before and
    # crashed converting the periods, or which a null default took.
    for assignment in ("stabilize.q_weight=abc", "stabilize.n_grid=[1,2]",
                       "stabilize.max_sweeps=50.5", "simulate.periods=Infinity",
                       "vhc.psi_s=NaN", "simulate.q0=[0.1,-Infinity,0]"):
        assert main(["plan", "--out", str(tmp_path / "o1"), "--set", assignment]) == 64
        assert "Traceback" not in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    for value in ("512", True):
        cfg.write_text(json.dumps({"stabilize": {"n_grid": value}}))
        assert main(["plan", "--config", str(cfg), "--out", str(tmp_path / "o2")]) == 64


def test_config_values_with_positive_defaults_must_be_positive(tmp_path, capsys):
    # Each of these reached the numerics before and failed there with a traceback.
    for command, assignment in (("stabilize", "stabilize.r_weight=0"),
                                ("stabilize", "stabilize.n_grid=0"),
                                ("stabilize", "stabilize.max_sweeps=0"),
                                ("simulate", "simulate.dt=0"),
                                ("simulate", "simulate.periods=-1")):
        assert main([command, "--out", str(tmp_path / "o"), "--set", assignment]) == 64
        err = capsys.readouterr().err
        assert "usage error" in err and "Traceback" not in err


def test_config_value_types_accepted():
    # An int for a float, and every --set the tests, the benchmark workloads
    # and the README use, pass the type check.
    from vhcplan.cli import DEFAULTS, _apply_override
    for assignment in ("stabilize.n_grid=64", "boundary.theta1=-0.9", "boundary.theta2=0.9",
                       "vhc.kind=family",
                       f"vhc.psi_s={0.5 * math.pi}", f"sweep.psi_values=[{0.5 * math.pi}]",
                       "vhc.k1=1", "vhc.theta_max=0.3", "stabilize.max_sweeps=300",
                       "simulate.q0=[0.1,-0.5,0]", "simulate.q0=[0.12, -0.47, 0.03]",
                       "vhc.domain=[-2,2]", "boundary.theta1=null"):
        _apply_override(DEFAULTS, assignment)


def test_certify_artifacts(tmp_path):
    out = tmp_path / "cert"
    proc = run_cli("certify", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["verdict"] == "no_regular_vhc"
    times = sorted(p["time"] for p in cert["singular_passes"])
    assert abs(times[0]) < 1e-8 and abs(times[1] - math.pi) < 1e-8
    rows = read_rows(out / "accessibility.csv")
    assert rows[0] == ["t", "det_closed_form", "det_numeric"]
    assert len(rows) == 1 + 64
    by_t = {float(r[0]): (float(r[1]), float(r[2])) for r in rows[1:]}
    closed, numeric = by_t[0.0]
    assert abs(closed + 12.0) < 1e-9
    assert abs(numeric - closed) < 1e-4 * 12.0


def test_stabilize_artifacts(tmp_path):
    out = tmp_path / "stab"
    proc = run_cli("stabilize", "--out", str(out), *FAST_STABILIZE)
    assert proc.returncode == 0, proc.stderr
    rows = read_rows(out / "ltv.csv")
    assert rows[0][0] == "tau" and rows[0][1] == "a11"
    assert rows[0][-1] == "b52" and len(rows[0]) == 1 + 25 + 10
    assert len(rows) == 1 + 64
    gains = read_rows(out / "gains.csv")
    assert gains[0] == ["tau", "k11", "k12", "k13", "k14", "k15",
                        "k21", "k22", "k23", "k24", "k25"]
    spectra = json.loads((out / "spectra.json").read_text())
    assert spectra["closed_loop_max_abs"] < 0.05
    assert spectra["open_loop_spectral_radius"] >= 1.0
    assert len(spectra["gramian_eigenvalues"]) == 5
    eigs = spectra["gramian_eigenvalues"]
    assert spectra["gramian_min_eigenvalue"] == eigs[-1] > 0.0
    assert spectra.keys() == {
        "gramian_eigenvalues", "gramian_min_eigenvalue", "gramian_eigenvalue_ratio",
        "open_loop_multipliers", "open_loop_spectral_radius", "closed_loop_multipliers",
        "closed_loop_max_abs", "riccati_sweeps", "riccati_fixed_point_gap",
        "riccati_multiplier_gap", "reversal_gap", "derivative_gap"}
    assert spectra["gramian_eigenvalue_ratio"] == pytest.approx(eigs[-1] / eigs[0], rel=1e-12)
    assert spectra["riccati_multiplier_gap"] < 1e-6
    # n_grid 64: linearize fills half the nodes, and takes A by complex step.
    for key, tol in (("reversal_gap", vhcplan.transverse.REVERSAL_TOL),
                     ("derivative_gap", vhcplan.transverse.DERIVATIVE_TOL)):
        gap = spectra[key]
        assert gap["threshold"] == tol and gap["value"] < gap["threshold"]
        assert gap["margin"] == pytest.approx(gap["threshold"] / gap["value"], rel=1e-12)
    # stabilize writes the plan's report but not its orbit table: only plan does.
    assert not (out / "trajectory.csv").exists()
    assert (out / "report.json").is_file()


def test_simulate_artifacts(tmp_path):
    out = tmp_path / "sim"
    proc = run_cli("simulate", "--out", str(out), *FAST_STABILIZE)
    assert proc.returncode == 0, proc.stderr
    rows = read_rows(out / "simulation.csv")
    assert rows[0] == ["t", "x", "z", "psi", "xdot", "zdot", "psidot",
                       "u1", "u2", "tau", "rho1", "rho2", "rho3", "rho4", "rho5"]
    assert len(rows) == 1 + int(round(3 * 2 * math.pi / 0.01)) + 1
    final = rows[-1]
    rho_norm = math.hypot(*[float(v) for v in final[10:]])
    assert rho_norm < 1e-3
    report = json.loads((out / "report.json").read_text())
    assert report["simulation"]["converged"] is True
    # Fewer right-hand sides than the 4 per row interval RK4 spent.
    assert {"rhs_evals", "integrator_steps", "tol"} <= report["simulation"].keys()
    assert report["simulation"]["rhs_evals"] < 4 * (len(rows) - 2)
    # simulate writes the controller's spectra but not its tables: only stabilize does.
    assert (out / "spectra.json").is_file()
    for name in ("trajectory.csv", "ltv.csv", "gains.csv"):
        assert not (out / name).exists(), name


def test_family_certify_writes_report_not_orbit(tmp_path):
    # certify plans a family orbit first and keeps its report; the orbit table
    # is plan's alone.
    out = tmp_path / "fam_cert"
    assert main(["certify", "--out", str(out), "--set", "vhc.kind=family"]) == 0
    for name in ("certificate.json", "accessibility.csv", "report.json"):
        assert (out / name).is_file(), name
    assert not (out / "trajectory.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["check"]["overall"] is True and "family_parameters" in report


@pytest.mark.parametrize("kind", ["tictoc", "family"])
def test_resolved_config_rebuilds_the_orbit(tmp_path, kind):
    # A stabilize run writes no orbit table; plan on its resolved config
    # rebuilds the one a plain plan run with the same overrides writes.
    overrides = ["--set", f"vhc.kind={kind}", *FAST_STABILIZE]
    stab, rebuilt, plain = tmp_path / "stab", tmp_path / "rebuilt", tmp_path / "plain"
    assert main(["stabilize", "--out", str(stab), *overrides]) == 0
    assert not (stab / "trajectory.csv").exists()
    assert main(["plan", "--config", str(stab / "config.resolved.json"),
                 "--out", str(rebuilt)]) == 0
    assert main(["plan", "--out", str(plain), *overrides]) == 0
    for name in ("trajectory.csv", "report.json"):
        assert (rebuilt / name).read_bytes() == (plain / name).read_bytes(), name


@pytest.mark.parametrize("kind", ["tictoc", "family"])
def test_resolved_config_rebuilds_the_controller(tmp_path, kind):
    # A simulate run writes no controller table; stabilize on its resolved
    # config rebuilds the ones a plain stabilize run with the same overrides
    # writes, and all three runs write one spectra.json.
    overrides = ["--set", f"vhc.kind={kind}", *FAST_STABILIZE]
    sim, rebuilt, plain = tmp_path / "sim", tmp_path / "rebuilt", tmp_path / "plain"
    assert main(["simulate", "--out", str(sim), *overrides, "--set", "simulate.periods=1"]) == 0
    for name in ("ltv.csv", "gains.csv"):
        assert not (sim / name).exists(), name
    assert main(["stabilize", "--config", str(sim / "config.resolved.json"),
                 "--out", str(rebuilt)]) == 0
    assert main(["stabilize", "--out", str(plain), *overrides]) == 0
    for name in ("ltv.csv", "gains.csv", "spectra.json"):
        assert (rebuilt / name).read_bytes() == (plain / name).read_bytes(), name
    assert (sim / "spectra.json").read_bytes() == (plain / "spectra.json").read_bytes()


@pytest.mark.parametrize("n_grid", [1, 2, 3])
def test_stabilize_on_the_smallest_grids(tmp_path, n_grid):
    # The periodic spline's branches for 2 and 3 knots and its smallest
    # condensed system. Off a grid of 4k nodes linearize computes every node,
    # and has no control nodes for either gap.
    assert main(["stabilize", "--out", str(tmp_path / "s"),
                 "--set", f"stabilize.n_grid={n_grid}"]) == 0
    spectra = json.loads((tmp_path / "s" / "spectra.json").read_text())
    assert spectra["reversal_gap"] is None and spectra["derivative_gap"] is None


# Runs every command a fresh interpreter would, then lists the scipy modules
# loaded: the package needs none, and importing scipy costs start-up time and
# memory on every run.
IMPORT_FOOTPRINT = """
import sys
from vhcplan.cli import main
for i, args in enumerate((["plan"], ["certify"], ["stabilize"], ["simulate"],
                          ["stabilize", "--set", "vhc.kind=family"],
                          ["certify", "--set", "vhc.kind=family"])):
    assert main([args[0], "--out", f"{sys.argv[1]}/{i}", *args[1:]]) == 0, args
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_import_footprint(tmp_path):
    proc = subprocess.run([sys.executable, "-c", IMPORT_FOOTPRINT, str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_family_plan(tmp_path):
    out = tmp_path / "fam"
    proc = run_cli("plan", "--out", str(out), "--set", "vhc.kind=family",
                   "--set", f"vhc.psi_s={0.5 * math.pi}")
    assert proc.returncode == 0, proc.stderr
    report = json.loads((out / "report.json").read_text())
    fam = report["family_parameters"]
    assert (fam["k1"], fam["k2"], fam["k3"]) == (0.25, 1.5, -0.25)
    assert report["check"]["overall"] is True
    assert "report" not in fam   # the existence report is stated once, under "check"


def test_sweep(tmp_path):
    out = tmp_path / "sweep"
    proc = run_cli("sweep", "--out", str(out),
                   "--set", f"sweep.psi_values=[{0.5 * math.pi}]",
                   "--set", "stabilize.n_grid=48")
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["n_ok"] == 1 and summary["n_failed"] == 0
    sub = out / "psi_1.5708"
    assert (sub / "spectra.json").is_file()
    assert (sub / "gains.csv").is_file()
    assert json.loads((sub / "spectra.json").read_text())["closed_loop_max_abs"] < 1.0
    # Each sub-run writes the run files of a `stabilize` run of its own.
    for sub in out.glob("psi_*"):
        meta = json.loads((sub / "metadata.json").read_text())
        assert meta["command"] == "stabilize" and meta["exit_code"] == 0
        assert not (sub / "trajectory.csv").exists()


@pytest.fixture(scope="module")
def family_stabilize(tmp_path_factory):
    """spectra.json of `stabilize --set vhc.kind=family` at a given n_grid, run once each."""
    runs = {}

    def run(n_grid):
        if n_grid not in runs:
            out = tmp_path_factory.mktemp(f"family{n_grid}")
            proc = run_cli("stabilize", "--out", str(out), "--set", "vhc.kind=family",
                           "--set", f"stabilize.n_grid={n_grid}")
            assert proc.returncode == 0, proc.stderr
            runs[n_grid] = json.loads((out / "spectra.json").read_text())
        return runs[n_grid]
    return run


@pytest.mark.parametrize("n_grid", [48, 128, 512])
def test_family_stabilize_default_config(family_stabilize, n_grid):
    spectra = family_stabilize(n_grid)
    assert spectra["riccati_sweeps"] <= 2
    assert spectra["riccati_fixed_point_gap"] < 1e-8
    # The spread is the O(h^4) interpolation error of the coarse grid's
    # A, B and K splines (1.2e-6 at n_grid 48, 2e-8 at 128), not the solver's.
    reference = family_stabilize(512)["closed_loop_max_abs"]
    assert abs(spectra["closed_loop_max_abs"] - reference) < 2e-6


def test_exit_code_condition_failure(tmp_path):
    out = tmp_path / "bad"
    proc = run_cli("plan", "--out", str(out), "--set", "vhc.kind=family",
                   "--set", "vhc.k1=1", "--set", "vhc.k2=2",
                   "--set", "vhc.k3=1", "--set", "vhc.theta_max=0.3")
    assert proc.returncode == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ConditionCheckError"
    report = json.loads((out / "report.json").read_text())
    assert report["check"]["overall"] is False
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["exit_code"] == 2


def test_exit_code_numerical_failure(tmp_path):
    # A vanishing state weight leaves Hamiltonian multipliers on the unit
    # circle, and the sign iteration of the Riccati solve stops unconverged.
    out = tmp_path / "numfail"
    proc = run_cli("stabilize", "--out", str(out), "--set", "stabilize.q_weight=1e-300")
    assert proc.returncode == 3, proc.stderr
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ConvergenceError"
    assert json.loads((out / "metadata.json").read_text())["exit_code"] == 3
    # The plan before the failing stage passed, and its report is kept; so is
    # the linearization, which the Riccati solve failed on.
    assert json.loads((out / "report.json").read_text())["check"]["overall"] is True
    assert (out / "ltv.csv").is_file()
    assert not (out / "gains.csv").exists()


def test_tiny_output_spacing_is_a_numerical_failure(tmp_path, capsys):
    # At dt 1e-15 the rows would take 134 PiB; the run stops before allocating.
    out = tmp_path / "tiny_dt"
    assert main(["simulate", "--out", str(out), "--set", "simulate.dt=1e-15",
                 *FAST_STABILIZE]) == 3
    assert "Traceback" not in capsys.readouterr().err
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "DomainError" and "SIM_MAX_ROWS" in err["message"]
    assert json.loads((out / "metadata.json").read_text())["exit_code"] == 3
    # The grid is checked right after planning, before the orbit is stabilized.
    for name in ("ltv.csv", "gains.csv", "spectra.json"):
        assert not (out / name).exists(), name


def test_error_json_carries_diagnostics(tmp_path, monkeypatch):
    diagnostics = {"side": "left", "final_state": [-1.0, 0.0], "time": 0.5, "rhs_evals": 7}

    def unreachable(*args):
        raise BoundaryUnreachableError("left boundary state cannot reach the singular crossing",
                                       diagnostics)

    monkeypatch.setattr(vhcplan.cli, "solve_boundary", unreachable)
    out = tmp_path / "unreachable"
    assert main(["plan", "--out", str(out)]) == 3
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "BoundaryUnreachableError"
    assert err["diagnostics"] == diagnostics


def test_sweep_error_json_carries_diagnostics(tmp_path, monkeypatch):
    diagnostics = {"side": "right", "final_state": [0.2, 0.0], "time": 1.5, "rhs_evals": 9}

    def unreachable(*args):
        raise BoundaryUnreachableError("right boundary state cannot reach the singular crossing",
                                       diagnostics)

    monkeypatch.setattr(vhcplan.cli, "solve_boundary", unreachable)
    out = tmp_path / "sweep"
    assert main(["sweep", "--out", str(out), "--set", f"sweep.psi_values=[{0.5 * math.pi}]"]) == 2
    (sub,) = [p for p in out.iterdir() if p.name.startswith("psi_")]
    err = json.loads((sub / "error.json").read_text())
    assert err == {"error": "BoundaryUnreachableError",
                   "message": "right boundary state cannot reach the singular crossing",
                   "diagnostics": diagnostics}
    assert json.loads((sub / "metadata.json").read_text())["exit_code"] == 3


@pytest.mark.parametrize("assignments", [
    ["vhc.kind=family", "vhc.k1=1", "vhc.k2=2", "vhc.k3=-1", "vhc.theta_max=-0.3"],
    ["vhc.domain=[1,-1]"]])
def test_reversed_interval_is_a_numerical_failure(tmp_path, assignments):
    out = tmp_path / "reversed"
    args = [arg for assignment in assignments for arg in ("--set", assignment)]
    assert main(["plan", "--out", str(out), *args]) == 3
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "DomainError" and "lo < hi" in err["message"]


def test_exit_code_usage_errors(tmp_path):
    # One usage error through a subprocess; the others call main in-process.
    assert run_cli("plan", "--out", str(tmp_path / "u1"),
                   "--set", "nope.key=1").returncode == 64
    assert main(["plan", "--out", str(tmp_path / "u2"), "--set", "vhc.kind=spline"]) == 64
    assert main(["plan"]) == 64
    assert main(["warp", "--out", str(tmp_path / "u3")]) == 64
    assert main(["plan", "--out", str(tmp_path / "u4"), "--set", "boundary.theta1"]) == 64
    assert main(["plan", "--out", str(tmp_path / "u5"), "--set", "vhc.kind=family",
                 "--set", "vhc.k1=1"]) == 64   # partial family parameters


def test_sweep_refuses_angles_that_share_a_directory(tmp_path, capsys):
    # psi_{psi:.6g} names both angles psi_1.5708: the second run would
    # overwrite the first, so the sweep stops before either starts.
    out = tmp_path / "sweep"
    assert main(["sweep", "--out", str(out),
                 "--set", "sweep.psi_values=[1.5707963, 1.5707964]"]) == 64
    err = capsys.readouterr().err
    assert "1.5707963" in err and "1.5707964" in err and "psi_1.5708" in err
    assert not list(out.glob("psi_*"))
    assert json.loads((out / "error.json").read_text())["error"] == "UsageError"


def test_usage_error_on_unwritable_out(tmp_path, capsys):
    # An --out that names a file, or lies under one, cannot be created.
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    for out in (taken, taken / "sub"):
        assert main(["plan", "--out", str(out)]) == 64
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "Traceback" not in err
    assert taken.read_text() == "not a directory"


@pytest.mark.parametrize("name", ["report.json", "ltv.csv"])
def test_usage_error_on_a_directory_named_like_a_run_file(tmp_path, capsys, name):
    # A directory under the name of a file some run writes fails before the
    # run removes or writes anything, whether or not this command writes it.
    out = tmp_path / "d"
    (out / name).mkdir(parents=True)
    (out / name / "notes.txt").write_text("kept")
    (out / "error.json").write_text("stale")
    assert main(["plan", "--out", str(out)]) == 64
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and name in err and "Traceback" not in err
    assert {p.name for p in out.iterdir()} == {name, "error.json"}
    assert [p.name for p in (out / name).iterdir()] == ["notes.txt"]
    assert (out / name / "notes.txt").read_text() == "kept"
    assert (out / "error.json").read_text() == "stale"


def test_reused_out_holds_the_last_runs_files_only(tmp_path):
    # Each run first removes the CLI files an earlier one left: a failed
    # stabilize keeps no gains.csv or spectra.json of the run before it, and a
    # plan after it no error.json. Other files and directories stay.
    out = tmp_path / "d"
    (out / "psi_1").mkdir(parents=True)
    (out / "notes.txt").write_text("kept")
    (out / "psi_1" / "report.json").write_text("kept")
    kept = {"notes.txt", "psi_1"}
    assert main(["stabilize", "--out", str(out), *FAST_STABILIZE]) == 0
    assert {p.name for p in out.iterdir()} == kept | {
        "config.resolved.json", "report.json", "ltv.csv", "gains.csv", "spectra.json",
        "metadata.json"}
    assert main(["stabilize", "--out", str(out), *FAST_STABILIZE,
                 "--set", "stabilize.q_weight=1e-300"]) == 3
    assert {p.name for p in out.iterdir()} == kept | {
        "config.resolved.json", "report.json", "ltv.csv", "error.json", "metadata.json"}
    # The config is read before the directory is cleared.
    assert main(["plan", "--config", str(out / "config.resolved.json"), "--out", str(out)]) == 0
    assert {p.name for p in out.iterdir()} == kept | {
        "config.resolved.json", "report.json", "trajectory.csv", "metadata.json"}
    assert json.loads((out / "metadata.json").read_text())["exit_code"] == 0
    assert json.loads((out / "config.resolved.json").read_text())["stabilize"]["q_weight"] == 1e-300
    assert (out / "notes.txt").read_text() == "kept"
    assert (out / "psi_1" / "report.json").read_text() == "kept"


@pytest.mark.parametrize("name", [n for n in vhcplan.__all__ if n.endswith("Error")])
def test_error_classes_carry_their_exit_codes(name):
    # Checked conditions exit 2, usage errors 64, every other error 3.
    code = {"ConditionCheckError": 2, "UsageError": 64}.get(name, 3)
    assert getattr(vhcplan, name).exit_code == code


def test_usage_error_on_bad_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert main(["plan", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 64
    cfg.write_text(json.dumps({"vhc": {"knid": "tictoc"}}))
    assert main(["plan", "--config", str(cfg), "--out", str(tmp_path / "o2")]) == 64
    assert main(["plan", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o3")]) == 64


def test_degenerate_singular_point_exits_promptly(tmp_path):
    # alpha'(theta_s) = k1 k2 + k3 = 0: the existence check must reject the
    # triple zero of alpha instead of sending the solver after it.
    out = tmp_path / "degenerate"
    proc = subprocess.run(BASE + ["plan", "--out", str(out), "--set", "vhc.kind=family",
                                  "--set", "vhc.k1=0.25", "--set", "vhc.k2=3.0",
                                  "--set", "vhc.k3=-0.75", "--set", "vhc.theta_max=0.2"],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2, proc.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["check"]["flags"]["slope_positive"] is False
    assert report["check"]["slope_margin"] < 1e-6


def test_console_entry_point(tmp_path):
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        value = tomllib.load(fh)["project"]["scripts"]["vhcplan"]
    assert value == "vhcplan.cli:main"
    ep = EntryPoint(name="vhcplan", value=value, group="console_scripts")
    assert callable(ep.load())
    # The same launcher pip writes for a console script: the exit code is
    # whatever the entry point returns, handed to sys.exit.
    launcher = (f"import sys\nfrom {ep.module} import {ep.attr}\n"
                f"sys.argv[0] = {ep.name!r}\nsys.exit({ep.attr}())\n")

    def run(*args):
        return subprocess.run([sys.executable, "-c", launcher, *args],
                              capture_output=True, text=True)

    out = tmp_path / "o"
    proc = run("plan", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "report.json").is_file()
    assert run("plan").returncode == 64


@pytest.mark.skipif(shutil.which("vhcplan") is None,
                    reason="vhcplan console script not installed")
def test_installed_console_script(tmp_path):
    args = ["plan"]
    script, module = tmp_path / "script", tmp_path / "module"
    proc = subprocess.run(["vhcplan", *args, "--out", str(script)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert run_cli(*args, "--out", str(module)).returncode == 0
    # A script installed from another checkout writes different bytes here.
    for name in ("trajectory.csv", "report.json"):
        assert (script / name).read_bytes() == (module / name).read_bytes()


def test_public_names():
    import vhcplan as vp
    assert all(hasattr(vp, name) for name in vp.__all__)
    # Names cut from __all__ stay importable from the package.
    from vhcplan import (NoVhcCertificate, ParametricVhc, PeriodicMatrixSpline,  # noqa: F401
                         SimulationResult, SingularityReport, SingularPass, family_vhc,
                         theorem2_scan, tic_toc_acceleration, wrap_angle)


@pytest.mark.parametrize("k1, k2", [(0.25, 1.0), (0.25, 0.5), (0.5, 0.5)])
def test_explicit_family_orbits_with_a_small_gramian_stabilize(tmp_path, k1, k2):
    # (k1, k2, k3) = (0.25, 1, -0.1), (0.25, 0.5, -0.1) and (0.5, 0.5, -0.1), with
    # kappa 4/3, 8 and 4/3, plan through the crossing; their smallest Gramian
    # eigenvalues, 7.4e-7, 5.7e-8 and 2.8e-7, are no obstacle: the Riccati solve
    # stabilizes them, to closed-loop radii 0.856, 0.846 and 0.808 at n_grid 512.
    out = tmp_path / "small_gramian"
    assert main(["stabilize", "--out", str(out), "--set", "vhc.kind=family",
                 "--set", f"vhc.k1={k1}", "--set", f"vhc.k2={k2}", "--set", "vhc.k3=-0.1",
                 "--set", "vhc.theta_max=0.2"]) == 0
    assert json.loads((out / "report.json").read_text())["max_input_residual"] < 1e-8
    for name in ("ltv.csv", "gains.csv"):
        assert (out / name).is_file(), name
    spectra = json.loads((out / "spectra.json").read_text())
    assert spectra["gramian_min_eigenvalue"] < 1e-6
    assert spectra["closed_loop_max_abs"] < 0.86
    assert spectra["riccati_multiplier_gap"] <= 1e-9


def test_simulate_failing_in_its_closed_loop_writes_no_controller_table(tmp_path, monkeypatch):
    # A simulate run that stops in the closed loop keeps the controller's
    # spectra.json, and, as on success, writes none of its tables.
    def diverged(*args, **kwargs):
        raise ConvergenceError("simulation diverged")

    monkeypatch.setattr(vhcplan.cli, "run_closed_loop", diverged)
    out = tmp_path / "sim_fails"
    assert main(["simulate", "--out", str(out), *FAST_STABILIZE]) == 3
    assert json.loads((out / "error.json").read_text())["error"] == "ConvergenceError"
    assert (out / "spectra.json").is_file()
    for name in ("ltv.csv", "gains.csv"):
        assert not (out / name).exists(), name

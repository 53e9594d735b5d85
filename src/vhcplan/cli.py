"""Command-line front end: plan, certify, stabilize, simulate, sweep.

Every command reads an optional JSON config (defaults below), applies dotted
`--set key=value` overrides, and writes its artifacts into `--out`:

  plan       trajectory.csv, report.json
  certify    certificate.json, accessibility.csv (family: report.json too)
  stabilize  report.json, ltv.csv, gains.csv, spectra.json
  simulate   stabilize artifacts + simulation.csv
  sweep      psi_<value>/ sub-runs (stabilize each) + sweep_summary.json;
             two angles with one psi_<value> name are a usage error

Only `plan` writes the orbit table: `plan --config <run>/config.resolved.json`
rebuilds any run's trajectory.csv byte for byte.

The stages only compute and write their own tables; one runner, `_run`, writes
the run files of `main` and of every sweep sub-run: config.resolved.json,
report.json whenever the existence check ran (on failure too), error.json on
failure and metadata.json (the only file with timestamps). Exit codes: 0
success, 2 a checked condition failed, 3 a numerical procedure failed, 64
usage error (an `--out` that cannot be written included).
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import math
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    BoundaryUnreachableError,
    ConditionCheckError,
    ConvergenceError,
    DomainError,
    ModelInvariantError,
    OutsideTubeError,
    UsageError,
    VhcplanError,
)
from .feasibility import (
    accessibility_det_closed_form,
    accessibility_det_numeric,
    certify_no_regular_vhc,
)
from .io_utils import write_csv, write_json
from .mech import pvtol_model, tic_toc_orbit
from .sim import output_steps, run_closed_loop
from .singular_solver import lift, make_periodic, solve_boundary
from .transverse import FamilyChart, TicTocChart, gramian, linearize, monodromy, periodic_lqr
from .vhc import (
    FamilyParameters,
    check_theorem1,
    family_reduced,
    find_family_parameters,
    tic_toc_reduced,
)

EXIT_OK = 0
EXIT_CONDITION = 2
EXIT_NUMERIC = 3
EXIT_USAGE = 64

GRAMIAN_GATE = 1e-6   # the controllability Gramian's smallest eigenvalue must exceed this
ACCESSIBILITY_SAMPLES = 64   # equal time samples of accessibility.csv over one period

_NUMERIC_ERRORS = (BoundaryUnreachableError, ConvergenceError, ModelInvariantError,
                   DomainError, OutsideTubeError)

DEFAULTS: dict = {
    "vhc": {
        "kind": "tictoc",
        "domain": None,
        "psi_s": None,
        "k1": None,
        "k2": None,
        "k3": None,
        "theta_max": None,
    },
    "boundary": {"theta1": None, "theta2": None},
    "stabilize": {"n_grid": 512, "q_weight": 1.0, "r_weight": 1.0, "max_sweeps": 50},
    "simulate": {"q0": [0.1, -0.5, 0.0], "qd0": [0.0, 0.0, 0.0], "dt": 0.01,
                 "periods": 3.0, "open_loop": False},
    "sweep": {"psi_values": [0.25 * math.pi, 0.5 * math.pi, 0.75 * math.pi]},
}


# -- configuration ----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _is_number(value) -> bool:
    """Whether value is a finite JSON number: not a bool, NaN or an infinity."""
    return type(value) is int or type(value) is float and math.isfinite(value)


def _fits_default(default, value) -> bool:
    """Whether a config value has the JSON type of its key's default, and its sign if positive.

    A float takes any finite number (not a bool), an int an int, a list a list
    of finite numbers, a bool a bool and a string a string; a key whose default
    is null takes null or a finite number. A positive default marks a count,
    step, horizon or weight.
    """
    if _is_number(default) and default > 0 and not (_is_number(value) and value > 0):
        return False
    if isinstance(default, (bool, int, str)):
        return type(value) is type(default)
    if isinstance(default, list):
        return isinstance(value, list) and all(map(_is_number, value))
    return _is_number(value) or (default is None and value is None)


def _merge_config(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        full = f"{path}.{key}" if path else key
        if key not in out:
            raise UsageError(f"unknown config key: {full}")
        if isinstance(out[key], dict):
            if not isinstance(value, dict):
                raise UsageError(f"config key {full} expects an object")
            out[key] = _merge_config(out[key], value, full)
        elif isinstance(value, dict):
            raise UsageError(f"config key {full} takes a value, not an object")
        else:
            default = functools.reduce(dict.__getitem__, full.split("."), DEFAULTS)
            # vhc.domain is checked as a [lo, hi] pair in _load_config.
            if full != "vhc.domain" and not _fits_default(default, value):
                raise UsageError(f"config key {full} takes a value of the type of its default "
                                 f"{json.dumps(default)} (finite, and > 0 if it is), "
                                 f"got {json.dumps(value)}")
            out[key] = value
    return out


def _apply_override(cfg: dict, assignment: str) -> dict:
    """cfg merged with one `--set key.path=value` (the value parsed as JSON if it can be)."""
    key, sep, raw = assignment.partition("=")
    if not sep or not key:
        raise UsageError(f"--set expects key.path=value, got {assignment!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    for part in reversed(key.split(".")):
        value = {part: value}
    return _merge_config(cfg, value)


def _load_config(args) -> dict:
    cfg = copy.deepcopy(DEFAULTS)
    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            raise UsageError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise UsageError("config file must hold a JSON object")
        cfg = _merge_config(cfg, loaded)
    for assignment in args.set or []:
        cfg = _apply_override(cfg, assignment)
    if cfg["vhc"]["kind"] not in ("tictoc", "family"):
        raise UsageError(f"vhc.kind must be 'tictoc' or 'family', got {cfg['vhc']['kind']!r}")
    dom = cfg["vhc"]["domain"]
    if dom is not None and (not isinstance(dom, list) or len(dom) != 2
                            or not all(map(_is_number, dom))):
        raise UsageError("vhc.domain must be a [lo, hi] pair of numbers")
    for key in ("q0", "qd0"):
        vec = cfg["simulate"][key]
        if not isinstance(vec, list) or len(vec) != 3:
            raise UsageError(f"simulate.{key} must be a 3-vector")
    return cfg


# -- pipeline stages: each fills the run context; _stabilize writes its tables -


def _plan(cfg: dict, ctx: dict) -> None:
    """Plan the orbit into ctx (sys, params, traj, report_json); writes no table."""
    sys_ = pvtol_model()
    vcfg = cfg["vhc"]
    kind = vcfg["kind"]
    params: FamilyParameters | None = None
    if kind == "tictoc":
        domain = tuple(float(v) for v in (vcfg["domain"] or (-2.0, 2.0)))
        model = tic_toc_reduced(domain)
    else:
        psi_s = float(vcfg["psi_s"]) if vcfg["psi_s"] is not None else 0.5 * math.pi
        explicit = [vcfg[k] for k in ("k1", "k2", "k3", "theta_max")]
        if all(v is not None for v in explicit):
            k1, k2, k3, tmax = (float(v) for v in explicit)
            interval = (-tmax, tmax)
            model = family_reduced(psi_s, k1, k2, k3, interval)
            params = FamilyParameters(psi_s, k1, k2, k3, interval, check_theorem1(model))
        elif any(v is not None for v in explicit):
            raise UsageError("set all of vhc.k1, k2, k3, theta_max or none of them")
        else:
            params = find_family_parameters(psi_s)
            if params is None:
                raise ConditionCheckError(
                    f"no admissible family parameters found for psi_s = {psi_s}")
            model = family_reduced(psi_s, params.k1, params.k2, params.k3, params.interval)
    vhc = model.vhc
    report = check_theorem1(model) if params is None else params.report
    report_json: dict = {"kind": kind, "check": report.to_json_dict()}
    if params is not None:
        report_json["family_parameters"] = params.to_json_dict()
    ctx["report_json"] = report_json
    if not report.overall:
        raise ConditionCheckError("existence conditions failed; see report.json")

    # The orbit runs between rest points at theta1 and theta2, both at speed 0; by
    # default at -1 and 1 on the tic-toc and at -+0.8 of a family orbit's interval.
    reach = 1.0 if kind == "tictoc" else 0.8 * model.interval[1]
    th1, th2 = (sign * reach if value is None else float(value)
                for sign, value in ((-1.0, cfg["boundary"]["theta1"]),
                                    (1.0, cfg["boundary"]["theta2"])))
    sol = make_periodic(solve_boundary(model, report, th1, 0.0, th2, 0.0))
    traj = lift(vhc, sol, sys_)

    report_json.update({
        "singular_acceleration": sol.a_s,
        "crossings": [{"time": c[0], "velocity": c[1], "acceleration": c[2]}
                      for c in sol.crossings],
        "t1": sol.t1,
        "t2": sol.t2,
        "period": sol.period,
        "boundary": {"theta1": th1, "dtheta1": sol.dtheta1,
                     "theta2": th2, "dtheta2": sol.dtheta2},
        "max_input_residual": float(np.max(traj.residuals)),
    })
    ctx.update({"sys": sys_, "params": params, "traj": traj})


def _stabilize(cfg: dict, out: Path, ctx: dict) -> None:
    """Stabilize the orbit `_plan` put in ctx (chart, gains, spectra); writes its tables."""
    kcfg = cfg["stabilize"]
    chart = TicTocChart() if cfg["vhc"]["kind"] == "tictoc" else FamilyChart(ctx["traj"])
    ltv = linearize(chart, ctx["sys"], ctx["traj"], n_grid=int(kcfg["n_grid"]))
    write_csv(out / "ltv.csv",
              ["tau"] + [f"a{i}{j}" for i in range(1, 6) for j in range(1, 6)]
              + [f"b{i}{j}" for i in range(1, 6) for j in range(1, 3)],
              np.column_stack([ltv.taus, ltv.A.reshape(ltv.taus.size, -1),
                               ltv.B.reshape(ltv.taus.size, -1)]))

    W = gramian(ltv)
    w_eigs = np.linalg.eigvalsh(W)
    if float(w_eigs.min()) <= GRAMIAN_GATE:
        raise ConvergenceError(
            f"controllability Gramian nearly singular: min eigenvalue {w_eigs.min():.3e}")

    gains = periodic_lqr(ltv, Q=float(kcfg["q_weight"]) * np.eye(5),
                         R=float(kcfg["r_weight"]) * np.eye(2),
                         max_sweeps=int(kcfg["max_sweeps"]))
    write_csv(out / "gains.csv",
              ["tau"] + [f"k{i}{j}" for i in range(1, 3) for j in range(1, 6)],
              np.column_stack([gains.taus, gains.K.reshape(gains.taus.size, -1)]))

    _, eig_open = monodromy(ltv, None)
    _, eig_closed = monodromy(ltv, gains)
    closed_max = float(np.max(np.abs(eig_closed)))
    spectra = {
        "gramian_eigenvalues": sorted((float(v) for v in w_eigs), reverse=True),
        "gramian_min_eigenvalue": float(w_eigs.min()),
        "gramian_gate_margin": float(w_eigs.min()) / GRAMIAN_GATE,
        "gramian_eigenvalue_ratio": float(w_eigs.min() / w_eigs.max()),
        "open_loop_multipliers": [[float(v.real), float(v.imag)] for v in eig_open],
        "open_loop_spectral_radius": float(np.max(np.abs(eig_open))),
        "closed_loop_multipliers": [[float(v.real), float(v.imag)] for v in eig_closed],
        "closed_loop_max_abs": closed_max,
        "riccati_sweeps": gains.sweeps,
        "riccati_fixed_point_gap": gains.fixed_point_gap,
        "riccati_multiplier_gap": float(np.max(np.abs(
            np.sort(np.abs(gains.multipliers)) - np.sort(np.abs(eig_closed))))),
    }
    write_json(out / "spectra.json", spectra)
    if closed_max >= 1.0:
        raise ConditionCheckError(
            f"closed-loop multipliers not inside the unit circle (max {closed_max:.4f})")
    ctx.update({"chart": chart, "gains": gains, "spectra": spectra})


# -- commands: each runs its stages on one context; `_run` writes the run files


def _cmd_plan(cfg: dict, out: Path, ctx: dict) -> None:
    _plan(cfg, ctx)
    traj = ctx["traj"]
    th, dth, _ = traj.scalar.eval(traj.t)
    write_csv(out / "trajectory.csv",
              ["t", "theta", "thetadot", "x", "z", "psi",
               "xdot", "zdot", "psidot", "u1", "u2"],
              np.column_stack([traj.t, th, dth, traj.q, traj.qdot, traj.u]))


def _cmd_certify(cfg: dict, out: Path, ctx: dict) -> None:
    sys_ = pvtol_model()
    if cfg["vhc"]["kind"] == "tictoc":
        orbit = tic_toc_orbit()
    else:
        _plan(cfg, ctx)
        orbit = ctx["traj"]
    cert = certify_no_regular_vhc(sys_, orbit)
    write_json(out / "certificate.json", cert.to_json_dict())

    ts = orbit.t0 + orbit.period * np.arange(ACCESSIBILITY_SAMPLES) / ACCESSIBILITY_SAMPLES
    q, qd = orbit.state_at(ts)[:2]
    write_csv(out / "accessibility.csv", ["t", "det_closed_form", "det_numeric"],
              np.column_stack([ts, accessibility_det_closed_form(q, qd),
                               accessibility_det_numeric(sys_, q, qd)]))
    if not cert.verdict:
        raise ConditionCheckError(cert.message)


def _cmd_stabilize(cfg: dict, out: Path, ctx: dict) -> None:
    _plan(cfg, ctx)
    _stabilize(cfg, out, ctx)


def _cmd_simulate(cfg: dict, out: Path, ctx: dict) -> None:
    _plan(cfg, ctx)
    mcfg = cfg["simulate"]
    horizon = float(mcfg["periods"]) * ctx["traj"].period
    output_steps(float(mcfg["dt"]), horizon)   # a bad output grid fails before stabilizing
    _stabilize(cfg, out, ctx)
    res = run_closed_loop(ctx["sys"], ctx["chart"],
                          None if mcfg["open_loop"] else ctx["gains"], mcfg["q0"], mcfg["qd0"],
                          dt=float(mcfg["dt"]), horizon=horizon)
    write_csv(out / "simulation.csv",
              ["t", "x", "z", "psi", "xdot", "zdot", "psidot", "u1", "u2",
               "tau", "rho1", "rho2", "rho3", "rho4", "rho5"],
              np.column_stack([res.t, res.q, res.qdot, res.u, res.tau, res.rho]))
    final_error = float(np.linalg.norm(res.rho[-1]))
    ctx["report_json"]["simulation"] = {
        "final_orbit_error": final_error,
        "converged": bool(np.isfinite(final_error) and final_error < 1e-3),
        "horizon": horizon,
        "dt": float(mcfg["dt"]),
        **{key: res.metadata[key] for key in ("rhs_evals", "integrator_steps", "tol")},
    }


def _cmd_sweep(cfg: dict, out: Path, ctx: dict) -> None:
    values = list(cfg["sweep"]["psi_values"])
    if not values:
        raise UsageError("sweep.psi_values must be nonempty")
    runs: dict[str, float] = {}   # sub-run directory -> psi
    for psi in map(float, values):
        name = f"psi_{psi:.6g}"
        if name in runs:
            raise UsageError(f"sweep.psi_values {runs[name]!r} and {psi!r} share the sub-run "
                             f"directory {name}")
        runs[name] = psi
    results = []
    for name, psi in runs.items():
        sub_cfg = copy.deepcopy(cfg)
        sub_cfg["vhc"].update(kind="family", psi_s=psi)
        code, err, sub = _run("stabilize", sub_cfg, out / name)
        row = {"name": name, "psi_s": psi, "ok": err is None}
        if err is None:
            params = sub["params"]
            row.update({"parameters": {"k1": params.k1, "k2": params.k2, "k3": params.k3,
                                       "theta_max": params.interval[1]},
                        "period": sub["traj"].period,
                        "closed_loop_max_abs": sub["spectra"]["closed_loop_max_abs"]})
        else:
            row.update({"error": f"{type(err).__name__}: {err}", "exit_code": code})
        results.append(row)
    n_failed = sum(1 for r in results if not r["ok"])
    write_json(out / "sweep_summary.json",
               {"results": results, "n_ok": len(results) - n_failed,
                "n_failed": n_failed})
    if n_failed:
        raise ConditionCheckError(f"{n_failed} of {len(results)} sweep runs failed")


_COMMANDS = {
    "plan": _cmd_plan,
    "certify": _cmd_certify,
    "stabilize": _cmd_stabilize,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
}


def _exit_code_for(err: Exception) -> int:
    if isinstance(err, UsageError):
        return EXIT_USAGE
    if isinstance(err, ConditionCheckError):
        return EXIT_CONDITION
    if isinstance(err, _NUMERIC_ERRORS):
        return EXIT_NUMERIC
    raise err


def _run(command: str, cfg: dict, out: Path) -> tuple[int, VhcplanError | None, dict]:
    """Run one command into `out` and write its run files; returns (exit code, error, ctx).

    config.resolved.json first; report.json once the existence check has
    filled it, on failure too; error.json on a failure; metadata.json last.
    An `out` that cannot be created or written is a usage error.
    """
    try:
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "config.resolved.json", cfg)
    except OSError as exc:
        raise UsageError(f"cannot write --out {out}: {exc}") from exc
    started = datetime.now(timezone.utc)
    t_start = time.perf_counter()
    ctx: dict = {}
    code, err = EXIT_OK, None
    try:
        _COMMANDS[command](cfg, out, ctx)
    except VhcplanError as exc:
        code, err = _exit_code_for(exc), exc
    if "report_json" in ctx:
        write_json(out / "report.json", ctx["report_json"])
    if err is not None:
        payload = {"error": type(err).__name__, "message": str(err)}
        if err.diagnostics:
            payload["diagnostics"] = err.diagnostics
        write_json(out / "error.json", payload)
        print(f"error: {err}", file=sys.stderr)
    write_json(out / "metadata.json", {
        "command": command,
        "package_version": __version__,
        "started_at": started.isoformat(),
        "finished_at": datetime.now(timezone.utc).isoformat(),
        "duration_s": time.perf_counter() - t_start,
        "exit_code": code,
    })
    return code, err, ctx


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vhcplan",
                     description="Periodic VHC motion planning and orbital stabilization")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("plan", "plan a periodic trajectory through the constraint singularity"),
        ("certify", "certify that no regular constraint reproduces the maneuver"),
        ("stabilize", "design the periodic LQR orbital feedback"),
        ("simulate", "simulate the closed loop from a perturbed state"),
        ("sweep", "stabilize a family orbit for each thrust angle in a list"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config entry (dotted path, JSON value)")
        p.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _run(args.command, _load_config(args), Path(args.out))[0]
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

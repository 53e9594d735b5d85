import math
import time

import numpy as np
import pytest

import vhcplan as vp


@pytest.fixture(scope="session")
def timings():
    return {}


@pytest.fixture(scope="session")
def pvtol():
    return vp.pvtol_model()


@pytest.fixture(scope="session")
def tictoc_model(pvtol):
    return vp.reduce(pvtol, vp.tic_toc_vhc(), (-2.0, 2.0))


@pytest.fixture(scope="session")
def tictoc_report(tictoc_model):
    return vp.check_theorem1(tictoc_model)


@pytest.fixture(scope="session")
def tictoc_solution(tictoc_model, tictoc_report):
    return vp.solve_boundary(tictoc_model, tictoc_report, -1.0, 0.0, 1.0, 0.0)


@pytest.fixture(scope="session")
def moving_solution(tictoc_model, tictoc_report):
    """sin t on [asin(-0.6), asin(0.6)]: the endpoints move, so no periodic orbit."""
    return vp.solve_boundary(tictoc_model, tictoc_report, -0.6, 0.8, 0.6, 0.8)


@pytest.fixture(scope="session")
def tictoc_periodic(tictoc_solution):
    return vp.make_periodic(tictoc_solution)


@pytest.fixture(scope="session")
def tictoc_trajectory(pvtol, tictoc_model, tictoc_periodic):
    return vp.lift(tictoc_model.vhc, tictoc_periodic, pvtol)


@pytest.fixture(scope="session")
def tictoc_chart():
    return vp.TicTocChart()


@pytest.fixture(scope="session")
def tictoc_ltv(pvtol, tictoc_trajectory, tictoc_chart, timings):
    start = time.perf_counter()
    ltv = vp.linearize(tictoc_chart, pvtol, tictoc_trajectory, n_grid=512)
    timings["linearize_512"] = time.perf_counter() - start
    return ltv


@pytest.fixture(scope="session")
def tictoc_gramian(tictoc_ltv, timings):
    start = time.perf_counter()
    W = vp.gramian(tictoc_ltv)
    timings["gramian"] = time.perf_counter() - start
    return W


@pytest.fixture(scope="session")
def tictoc_gains(tictoc_ltv):
    return vp.periodic_lqr(tictoc_ltv)


@pytest.fixture(scope="session")
def reference_orbit():
    return vp.tic_toc_orbit()


@pytest.fixture(scope="session")
def sim_result(pvtol, tictoc_chart, tictoc_gains, timings):
    start = time.perf_counter()
    res = vp.run_closed_loop(pvtol, tictoc_chart, tictoc_gains,
                             np.array([0.1, -0.5, 0.0]), np.zeros(3))
    timings["simulation"] = time.perf_counter() - start
    return res


@pytest.fixture(scope="session")
def family_pack(pvtol):
    """Full pipeline for the constraint family at psi_s = pi/2 (coarse grid)."""
    params = vp.find_family_parameters(0.5 * math.pi)
    model = vp.family_reduced(params.psi_s, params.k1, params.k2, params.k3,
                              params.interval)
    report = vp.check_theorem1(model)
    tmax = params.interval[1]
    sol = vp.solve_boundary(model, report, -0.8 * tmax, 0.0, 0.8 * tmax, 0.0)
    per = vp.make_periodic(sol)
    traj = vp.lift(model.vhc, per, pvtol)
    chart = vp.FamilyChart(traj)
    ltv = vp.linearize(chart, pvtol, traj, n_grid=96)
    return {"params": params, "model": model, "report": report, "sol": sol,
            "per": per, "traj": traj, "chart": chart, "ltv": ltv}


@pytest.fixture(scope="session")
def family_gains(family_pack):
    return vp.periodic_lqr(family_pack["ltv"])

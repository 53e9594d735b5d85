import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vhcplan as vp


def test_tictoc_coefficient_ratios(pvtol):
    # The tic-toc constraint reduces to theta thetaddot - thetadot^2 + 1 = 0,
    # i.e. alpha/gamma = theta and beta/gamma = -1.
    model = vp.reduce(pvtol, vp.tic_toc_vhc())
    for th in np.linspace(-1.5, 1.5, 121):
        a, b, g = model.coefficients(float(th))
        assert abs(a / g - th) < 1e-12
        assert abs(b / g + 1.0) < 1e-12


def test_tictoc_alpha_slope(pvtol, tictoc_model):
    h = 1e-6
    alpha = lambda th: float(tictoc_model.coefficients(th)[0])
    slope = (alpha(h) - alpha(-h)) / (2.0 * h)
    assert abs(alpha(0.0)) < 1e-15
    assert abs(slope - 1.0) < 1e-9


def test_reduce_uses_vhc_domain_by_default(pvtol):
    vhc = vp.tic_toc_vhc(domain=(-1.2, 0.9))
    model = vp.reduce(pvtol, vhc)
    assert model.interval == (-1.2, 0.9)
    with pytest.raises(vp.DomainError):
        vp.reduce(pvtol, vhc, (0.0, math.inf))


def test_reversed_interval_is_rejected():
    # Every reduced model checks its interval; a reversed one used to pass
    # the existence check with a NaN slope margin.
    with pytest.raises(vp.DomainError, match=r"\[0\.3, -0\.3\]"):
        vp.check_theorem1(vp.family_reduced(0.5 * math.pi, 1.0, 2.0, -1.0, (0.3, -0.3)))
    with pytest.raises(vp.DomainError):
        vp.reduce(vp.pvtol_model(), vp.tic_toc_vhc(), (1.0, -1.0))


def test_existence_check_tictoc(tictoc_report):
    rep = tictoc_report
    assert rep.overall
    assert all(rep.flags.values())
    assert abs(rep.theta_s) < 1e-12
    assert abs(rep.v_s - 1.0) < 1e-9
    assert abs(rep.beta_s / rep.alpha_slope + 1.0) < 1e-8
    assert rep.sign == 1
    assert rep.zeros == (rep.theta_s,)


def test_existence_check_generic_annihilator_matches_closed_form(pvtol, tictoc_report):
    # The cofactor annihilator keeps one orientation through the singular point,
    # where the first entry of B_perp (cos psi) changes sign.
    generic = dataclasses.replace(pvtol, annihilator=None)
    rep = vp.check_theorem1(vp.reduce(generic, vp.tic_toc_vhc(), (-2.0, 2.0)))
    assert rep.flags == tictoc_report.flags
    assert rep.overall
    assert abs(rep.theta_s - tictoc_report.theta_s) < 1e-9
    assert abs(rep.v_s - tictoc_report.v_s) < 1e-9


def test_tictoc_closed_form_matches_generic_reduction(pvtol):
    # The closed form equals the projection through the model's annihilator to
    # rounding, and the cofactor route nearly so, per point and as one batch.
    closed = vp.tic_toc_reduced()
    assert closed.interval == (-2.0, 2.0) and closed.vhc.domain == (-2.0, 2.0)
    thetas = np.linspace(-2.0, 2.0, 401)
    for annihilator, tol in ((pvtol.annihilator, 1e-14), (None, 1e-12)):
        sys_ = dataclasses.replace(pvtol, annihilator=annihilator)
        generic = vp.reduce(sys_, vp.tic_toc_vhc())
        batch = closed.coefficients(thetas)
        assert batch.shape == (3, thetas.size)
        assert np.abs(batch - generic.coefficients(thetas)).max() < tol
        for th in thetas[::8]:
            point = closed.coefficients(float(th))
            assert point.shape == (3,)
            assert np.abs(point - generic.coefficients(float(th))).max() < tol


def test_tictoc_closed_form_report_and_solution_match_generic(tictoc_report, tictoc_solution):
    # The fixtures plan on the generic projection.
    closed = vp.tic_toc_reduced()
    rep = vp.check_theorem1(closed)
    assert rep.flags == tictoc_report.flags
    assert abs(rep.theta_s - tictoc_report.theta_s) < 1e-12
    assert abs(rep.v_s - tictoc_report.v_s) < 1e-12
    sol = vp.solve_boundary(closed, rep, -1.0, 0.0, 1.0, 0.0)
    ts = np.linspace(sol.t0, sol.t0 + sol.period, 1001)
    assert np.abs(np.array(sol.eval(ts)) - np.array(tictoc_solution.eval(ts))).max() < 1e-10


def test_existence_check_json_round_trip(tictoc_report):
    d = tictoc_report.to_json_dict()
    assert d["overall"] is True
    assert set(d["flags"]) == {"unique_zero", "slope_positive",
                               "gamma_positive_on_interval", "ratio_below_minus_half"}
    assert abs(d["theta_s"]) < 1e-12


def test_family_closed_form_matches_generic_reduction(pvtol):
    # The family model's explicit coefficients must agree with projecting the
    # dynamics through the generic annihilator route.
    psi_s, k1, k2, k3 = 0.25 * math.pi, 1.0, 2.0, -1.0
    closed = vp.family_reduced(psi_s, k1, k2, k3, (-0.3, 0.3))
    generic = vp.reduce(pvtol, closed.vhc, (-0.3, 0.3))
    for th in np.linspace(-0.29, 0.29, 31):
        assert np.abs(closed.coefficients(th) - generic.coefficients(float(th))).max() < 1e-12


def test_family_example_passes_with_known_crossing_speed():
    model = vp.family_reduced(0.25 * math.pi, 1.0, 2.0, -1.0, (-0.3, 0.3))
    rep = vp.check_theorem1(model)
    assert rep.overall
    # v_s = (-gamma/beta)^(1/2) = (sin(pi/4)/cos(0) / 1)^(1/2) = 2^(-1/4)
    assert abs(rep.v_s - 2.0 ** -0.25) < 1e-9


def test_family_wrong_curvature_fails_ratio_flag():
    model = vp.family_reduced(0.25 * math.pi, 1.0, 2.0, 1.0, (-0.3, 0.3))
    rep = vp.check_theorem1(model)
    assert not rep.overall
    assert not rep.flags["ratio_below_minus_half"]
    assert rep.flags["slope_positive"]


# alpha'(0) = k1 k2 + k3 = 0: alpha has a triple zero at theta = 0, and its
# finite-difference slope is rounding noise (about 3.5e-17).
DEGENERATE_FAMILY = (0.5 * math.pi, 0.25, 3.0, -0.75, (-0.2, 0.2))


def test_existence_check_rejects_degenerate_slope(tictoc_report):
    rep = vp.check_theorem1(vp.family_reduced(*DEGENERATE_FAMILY))
    assert rep.flags["unique_zero"] and rep.flags["ratio_below_minus_half"]
    assert not rep.flags["slope_positive"] and not rep.overall
    assert rep.slope_margin < 1e-6
    assert rep.to_json_dict()["slope_margin"] == rep.slope_margin
    assert tictoc_report.slope_margin > 1e6


def test_existence_check_retries_flipped_annihilator_sign():
    # Raw coefficients have alpha' < 0 and gamma < 0; the flipped global sign
    # must be tried and accepted.
    model = vp.family_reduced(-0.5 * math.pi, -1.0, 1.0, 0.4, (-0.3, 0.3))
    rep = vp.check_theorem1(model)
    assert rep.overall
    assert rep.sign == -1
    assert abs(rep.v_s - math.sqrt(1.0 / 0.4)) < 1e-9
    assert abs(rep.alpha_slope - 0.6) < 1e-9


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.floats(-math.pi, math.pi), st.floats(0.25, 2.0), st.floats(0.5, 4.0),
       st.floats(-2.0, -0.25), st.sampled_from((0.2, 0.35, 0.5)))
def test_existence_check_invariant_under_global_sign(psi_s, k1, k2, k3, tmax):
    # Negating (alpha, beta, gamma) leaves the reduced equation unchanged: the
    # report may differ only in its orientation, which flips with the slope.
    model = vp.family_reduced(psi_s, k1, k2, k3, (-tmax, tmax))
    negated = dataclasses.replace(model, coefficients=lambda th: -model.coefficients(th))
    rep, neg = vp.check_theorem1(model), vp.check_theorem1(negated)
    assert repr(dataclasses.replace(neg, sign=rep.sign)) == repr(rep)   # nan-aware
    slope_nonzero = rep.alpha_slope != 0.0 and not math.isnan(rep.alpha_slope)
    assert neg.sign == (-rep.sign if slope_nonzero else rep.sign)


def test_family_vhc_rejects_degenerate_direction():
    with pytest.raises(vp.DomainError):
        vp.family_vhc(vp.pvtol_model(), np.array([0.0, 0.0, 0.5 * math.pi]), 0.0, 0.0, -1.0)


def test_family_vhc_geometry(pvtol):
    q_s = np.array([0.0, 0.0, 0.5 * math.pi])
    vhc = vp.family_vhc(pvtol, q_s, 0.25, 1.5, -0.25, domain=(-0.2, 0.2))
    # One theta gives a tuple of Python floats.
    assert np.abs(np.asarray(vhc.phi(0.0)) - q_s).max() < 1e-15
    # dphi(0) = B(q_s) (k1, k2); psi_s = pi/2 makes that (-0.25, 0, 1.5).
    assert np.abs(np.asarray(vhc.dphi(0.0)) - [-0.25, 0.0, 1.5]).max() < 1e-15
    # ddphi is constant along the annihilator direction.
    assert np.abs(np.asarray(vhc.ddphi(0.1)) - vhc.ddphi(-0.1)).max() < 1e-15


def test_find_family_parameters_known_solution():
    params = vp.find_family_parameters(0.5 * math.pi)
    assert params is not None
    assert (params.k1, params.k2, params.k3) == (0.25, 1.5, -0.25)
    assert params.interval == (-0.2, 0.2)
    assert params.report.overall


def test_find_family_parameters_rejects_horizontal_thrust():
    with pytest.raises(vp.DomainError):
        vp.find_family_parameters(math.pi)


def test_momentum_scan_reference_orbit(pvtol, reference_orbit):
    passes = vp.theorem2_scan(pvtol, reference_orbit)
    times = sorted(p.time for p in passes)
    assert len(times) == 2
    assert abs(times[0]) < 1e-8
    assert abs(times[1] - math.pi) < 1e-8
    for p in passes:
        assert abs(p.speed - math.sqrt(5.0)) < 1e-12
        assert abs(p.gravity_distance - 1.0) < 1e-12
        assert p.annihilator_residual < 1e-10


def test_momentum_scan_excludes_rest_points(pvtol, reference_orbit):
    # The momentum also vanishes at t = +-pi/2, but those are rest points.
    passes = vp.theorem2_scan(pvtol, reference_orbit)
    for p in passes:
        assert min(abs(p.time - 0.5 * math.pi), abs(p.time + 0.5 * math.pi)) > 1.0

import dataclasses
import math

import numpy as np
import pytest

import vhcplan as vp
from vhcplan.feasibility import _gravity_distance


# The constraint candidate h(q) = (z + x^2/2, psi - pi/2 + arctan 2x) is rho0 and
# rho1 of the tic-toc chart; dh(q) qdot is rho2 and rho3, and the rates of rho0
# and rho1 that `forward_rates` returns.


def test_candidate_constraint_vanishes_on_orbit(tictoc_chart):
    for t in np.linspace(-math.pi, math.pi, 100):
        q, qd, _ = vp.tic_toc_reference(float(t))
        _, rho = tictoc_chart.forward(q, qd)
        assert np.abs(rho[:2]).max() < 1e-13
        # The velocity stays tangent: dh(q) qdot = 0.
        assert np.abs(rho[2:4]).max() < 1e-13


def test_candidate_jacobian_matches_finite_differences(tictoc_chart):
    rng = np.random.default_rng(2)
    for _ in range(10):
        q = rng.uniform(-1.5, 1.5, 3)
        qd = rng.uniform(-1.5, 1.5, 3)
        _, rho, rates = tictoc_chart.forward_rates(q, qd, rng.uniform(-1.5, 1.5, 3))
        h = 1e-7
        fd = (tictoc_chart.forward(q + h * qd, qd)[1][:2]
              - tictoc_chart.forward(q - h * qd, qd)[1][:2]) / (2.0 * h)
        assert np.abs(rates[1:3] - fd).max() < 1e-7
        assert np.abs(rho[2:4] - fd).max() < 1e-7


def test_accessibility_determinant_at_crossing(pvtol):
    q, qd, _ = vp.tic_toc_reference(0.0)
    det = vp.accessibility_det_closed_form(q, qd)
    assert abs(det + 12.0) < 1e-12
    num = vp.accessibility_det_numeric(pvtol, q, qd)
    assert abs(num - det) / abs(det) < 1e-4


def test_accessibility_agreement_along_orbit(pvtol):
    for t in np.linspace(-1.2, 1.2, 9):
        q, qd, _ = vp.tic_toc_reference(float(t))
        closed = vp.accessibility_det_closed_form(q, qd)
        num = vp.accessibility_det_numeric(pvtol, q, qd)
        assert abs(num - closed) < 1e-4 * max(1.0, abs(closed))


def test_accessibility_zeros_only_at_rest_points():
    # det(t) along the orbit changes sign only where cos t = 0.
    ts = np.linspace(-0.5 * math.pi, 1.5 * math.pi, 2001)
    dets = []
    for t in ts:
        q, qd, _ = vp.tic_toc_reference(float(t))
        dets.append(vp.accessibility_det_closed_form(q, qd))
    dets = np.asarray(dets)
    inner = np.abs(np.cos(ts)) > 0.05
    assert np.abs(dets[inner]).min() > 1e-4
    sign_changes = np.nonzero(np.diff(np.sign(dets)) != 0)[0]
    for i in sign_changes:
        t_mid = 0.5 * (ts[i] + ts[i + 1])
        assert min(abs(t_mid - 0.5 * math.pi), abs(t_mid - 1.5 * math.pi)) < 2e-3


def test_certificate_positive_on_reference_orbit(pvtol, reference_orbit):
    cert = vp.certify_no_regular_vhc(pvtol, reference_orbit)
    assert cert.verdict
    assert len(cert.passes) == 2
    d = cert.to_json_dict()
    assert d["verdict"] == "no_regular_vhc"
    assert all(p["hypotheses_ok"] for p in d["singular_passes"])
    assert set(d["tolerances"]) == {"annihilator_residual", "speed", "gravity_distance"}


def test_certificate_generic_annihilator_matches_closed_form(pvtol, reference_orbit):
    # Without the closed-form annihilator the scan uses the cofactor vector,
    # whose orientation stays continuous through the singular passes.
    generic = dataclasses.replace(pvtol, annihilator=None)
    cert = vp.certify_no_regular_vhc(generic, reference_orbit)
    closed = vp.certify_no_regular_vhc(pvtol, reference_orbit)
    assert cert.verdict
    assert len(cert.passes) == len(closed.passes) == 2
    for p, c in zip(cert.passes, closed.passes):
        assert abs(p.time - c.time) < 1e-8
        assert abs(p.speed - math.sqrt(5.0)) < 1e-12
        assert abs(p.gravity_distance - 1.0) < 1e-12


def test_gravity_distance_is_the_least_squares_residual(pvtol):
    # The reference: G's residual off Im B by least squares, for gravity in any
    # direction, with the closed-form annihilator and with the cofactor one.
    rng = np.random.default_rng(5)
    for q, g in zip(rng.uniform(-3.0, 3.0, (20, 3)), rng.normal(size=(20, 3))):
        for annihilator in (pvtol.annihilator, None):
            sys = dataclasses.replace(pvtol, annihilator=annihilator, gravity=lambda q: g)
            B = sys.input_map(q)
            coeff, *_ = np.linalg.lstsq(B, g, rcond=None)
            assert abs(_gravity_distance(sys, q) - np.linalg.norm(g - B @ coeff)) < 1e-14


@pytest.mark.parametrize("t0", [0.0, math.pi + 1e-3])
def test_certificate_independent_of_anchor(pvtol, t0):
    # At t0 = pi + 1e-3 the pass at 3 pi lies in the last grid interval, the
    # one that wraps from t0 + period (1 - 1/2048) back to t0 + period.
    orbit = vp.tic_toc_orbit()
    orbit.t0 = t0
    cert = vp.certify_no_regular_vhc(pvtol, orbit)
    assert cert.verdict
    assert len(cert.passes) == 2
    assert all(t0 <= p.time < t0 + orbit.period for p in cert.passes)
    # |time| reduced to [0, pi] modulo 2 pi: one pass at 0, one at pi.
    phases = sorted(abs(math.remainder(p.time, 2.0 * math.pi)) for p in cert.passes)
    assert phases[0] < 1e-8 and abs(phases[1] - math.pi) < 1e-8


class _NoCrossingOrbit:
    """Horizontal oscillation: the unactuated momentum only vanishes at rest."""

    t0 = 0.0
    period = 2.0 * math.pi

    @staticmethod
    def state_at(t):
        zero = np.zeros_like(t)
        return (np.array([np.sin(t), zero, zero]).T,
                np.array([np.cos(t), zero, zero]).T)


class _TangentGravityOrbit:
    """Momentum crossings happen where gravity lies in the actuated subspace."""

    t0 = 0.0
    period = 2.0 * math.pi

    @staticmethod
    def state_at(t):
        zero = np.zeros_like(t)
        return (np.array([np.cos(t), zero, np.sin(t)]).T,
                np.array([-np.sin(t), zero, np.cos(t)]).T)


def test_certificate_inconclusive_without_moving_crossings(pvtol):
    cert = vp.certify_no_regular_vhc(pvtol, _NoCrossingOrbit())
    assert not cert.verdict
    assert len(cert.passes) == 0
    assert cert.to_json_dict()["verdict"] == "inconclusive"


def test_certificate_inconclusive_when_hypotheses_fail(pvtol):
    cert = vp.certify_no_regular_vhc(pvtol, _TangentGravityOrbit())
    assert not cert.verdict
    assert len(cert.passes) >= 1
    assert any(p.gravity_distance < 1e-8 for p in cert.passes)

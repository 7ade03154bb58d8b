"""The adaptive loop against a closed-form optimal triplet.

Every other error in the suite is measured against a discrete overkill
solve.  Here the continuous triplet of :func:`helpers.closed_form_problem`
is known, so the estimator's decay and its ratio to the exact error are
checked against the true solution.  The bounds were measured at the cap
below (slopes -0.506 for eta and -0.511 for the H1 error of ``u``, eta over
the total error in 3.66-4.98 over 43 iterations) and leave margin.
"""

import numpy as np
import pytest

from fluxrec.driver import LoopConfig

from helpers import (
    CLOSED_FORM_BETA,
    closed_form_f,
    closed_form_grad_p,
    closed_form_grad_u,
    closed_form_measurement,
    closed_form_p,
    closed_form_q,
    closed_form_run,
    closed_form_u,
    closed_form_u_a,
    closed_form_z,
    gauss_rule,
)

CAP = 8000


@pytest.fixture(scope="module")
def doerfler_run():
    config = LoopConfig(strategy="doerfler", theta=0.5, tol=1e-12,
                        max_iters=100, max_triangles=CAP)
    history, rows = closed_form_run(config)
    assert history.stop_reason == "max_triangles"
    return rows


def _slope(n, values):
    """Least-squares slope of log ``values`` against log ``n`` over the
    second half of the run."""
    half = len(n) // 2
    return np.polyfit(np.log(n[half:]), np.log(values[half:]), 1)[0]


class TestData:
    x = np.linspace(0.0, 1.0, 11)
    pts = np.array([(x, y) for x in np.linspace(0.05, 0.95, 7)
                    for y in np.linspace(0.05, 0.95, 7)]).T

    def test_gamma_i_conditions(self):
        """``du/dy = q`` (so ``alpha du/dn = -q``), ``dp/dy = 0`` and
        ``beta q = p`` on the bottom side."""
        y = np.zeros_like(self.x)
        h = 1e-5
        du_dy = (closed_form_u(self.x, h) - closed_form_u(self.x, -h)) / (2 * h)
        assert np.allclose(du_dy, closed_form_q(self.x, y), atol=1e-8)
        assert np.allclose(closed_form_grad_u(self.x, y)[1],
                           closed_form_q(self.x, y), rtol=0, atol=1e-15)
        assert np.abs(closed_form_grad_p(self.x, y)[1]).max() < 1e-18
        assert np.allclose(CLOSED_FORM_BETA * closed_form_q(self.x, y),
                           closed_form_p(self.x, y), rtol=1e-15, atol=0)

    @pytest.mark.parametrize("fun, grad", [
        (closed_form_u, closed_form_grad_u),
        (closed_form_p, closed_form_grad_p)], ids=["u", "p"])
    def test_gradients_match_differences(self, fun, grad):
        x, y = self.pts
        h = 1e-5
        gx, gy = grad(x, y)
        scale = np.abs(np.concatenate([gx, gy])).max()
        assert np.allclose((fun(x + h, y) - fun(x - h, y)) / (2 * h), gx,
                           rtol=0, atol=1e-8 * scale)
        assert np.allclose((fun(x, y + h) - fun(x, y - h)) / (2 * h), gy,
                           rtol=0, atol=1e-8 * scale)

    def test_state_and_costate_equations(self):
        """``f + alpha lap u = 0`` and ``lap p = 0``, by the five-point
        difference."""
        x, y = self.pts
        h = 1e-3

        def lap(fun):
            return (fun(x + h, y) + fun(x - h, y) + fun(x, y + h)
                    + fun(x, y - h) - 4.0 * fun(x, y)) / h ** 2

        assert np.abs(closed_form_f(x, y) + lap(closed_form_u)).max() < 1e-4
        p_max = np.abs(closed_form_p(x, y)).max()
        assert np.abs(lap(closed_form_p)).max() < 1e-4 * p_max

    @pytest.mark.parametrize("side, normal", [
        ("left", (-1.0, 0.0)), ("top", (0.0, 1.0)), ("right", (1.0, 0.0))])
    def test_gamma_a_data(self, side, normal):
        """``u_a = u + du/dn`` and ``z = u - (dp/dn + p)`` on each GammaA
        side, the normal derivatives by central differences."""
        s = np.linspace(0.05, 0.95, 7)
        x, y = {"left": (0 * s, s), "top": (s, 0 * s + 1),
                "right": (0 * s + 1, s)}[side]
        h = 1e-5
        nx, ny = normal

        def dn(fun):
            return (fun(x + h * nx, y + h * ny)
                    - fun(x - h * nx, y - h * ny)) / (2 * h)

        u = closed_form_u(x, y)
        assert np.allclose(closed_form_u_a(x, y), u + dn(closed_form_u),
                           rtol=0, atol=1e-8)
        assert np.allclose(closed_form_z(x, y),
                           u - dn(closed_form_p) - closed_form_p(x, y),
                           rtol=0, atol=1e-8)

    def test_measurement_interpolates_z(self):
        """The sampled measurement is within 1e-4 of ``z`` in L2(GammaA),
        by 3-point Gauss on 2,000 parts of each side (5.7e-5 measured)."""
        meas = closed_form_measurement()
        t, w = gauss_rule(3)
        s = ((np.arange(2000)[:, None] + t) / 2000).ravel()
        ws = np.tile(w, 2000) / 2000
        err_sq = 0.0
        for x, y in ((0 * s, s), (s, 0 * s + 1), (0 * s + 1, s)):
            err_sq += (ws * (meas(x, y) - closed_form_z(x, y)) ** 2).sum()
        assert np.sqrt(err_sq) < 1e-4


def test_estimator_and_error_decay(doerfler_run):
    """Under Doerfler marking, eta and the exact H1 error of ``u`` fall at
    least like ``n_vertices^-0.45``, the optimal rate being -1/2."""
    n, eta, err_u, _ = doerfler_run.T
    assert _slope(n, eta) <= -0.45
    assert _slope(n, err_u) <= -0.45


def test_estimator_over_exact_error_in_band(doerfler_run):
    """eta is reliable and efficient: its ratio to the total exact error
    stays in one band on every iteration."""
    _, eta, _, err = doerfler_run.T
    ratio = eta / err
    assert ratio.min() >= 3.0 and ratio.max() <= 6.0

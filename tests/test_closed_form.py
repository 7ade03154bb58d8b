"""The adaptive loop against a closed-form optimal triplet.

Every other error in the suite is measured against a discrete overkill
solve.  Here the continuous triplets of :func:`helpers.closed_form_problem`
on the square and the L-shape are known, so the estimator's decay and its
ratio to the exact error are checked against the true solution, under
Doerfler and maximum marking with theta = 0.5.  The bounds were measured at
the cap below and leave margin:

========  ========  =====  =========  =============  ===========
domain    marking   iters  slope eta  slope err_u    eta / error
========  ========  =====  =========  =============  ===========
square    Doerfler  43     -0.506     -0.511         3.66-4.98
square    maximum   15     -0.514     -0.515         4.05-4.95
L-shape   Doerfler  40     -0.503     -0.516         2.19-4.91
L-shape   maximum   22     -0.499     -0.522         2.09-4.85
========  ========  =====  =========  =============  ===========

On the L-shape, uniform refinement at 3,201 vertices leaves an L2(GammaI)
flux error of 2.94e-2; Doerfler has 2.79e-3 at 2,824 vertices and maximum
marking 4.55e-3 at 3,104.
"""

import functools

import numpy as np
import pytest

from fluxrec.driver import LoopConfig

from helpers import (
    CLOSED_FORM_BETA,
    CLOSED_FORM_SIDES,
    CLOSED_FORMS,
    closed_form_grad_p,
    closed_form_measurement,
    closed_form_p,
    closed_form_q,
    closed_form_run,
    closed_form_u_a,
    closed_form_z,
    corner_s,
    gauss_rule,
)

CAP = 8000
RUNS = [("square", "doerfler"), ("square", "maximum"),
        ("lshape", "doerfler"), ("lshape", "maximum")]
# marking name -> (strategy, theta); uniform marks every triangle
MARKINGS = {"doerfler": ("doerfler", 0.5), "maximum": ("maximum", 0.5),
            "uniform": ("maximum", 0.0)}
# domain -> band of eta over the total exact error on every iteration
BANDS = {"square": (3.0, 6.0), "lshape": (1.5, 6.0)}


@functools.cache
def adaptive_rows(domain, marking):
    """``(n_vertices, eta, err_u, err_q, err)`` per iteration of the run
    to ``CAP`` triangles, computed once per session."""
    strategy, theta = MARKINGS[marking]
    config = LoopConfig(strategy=strategy, theta=theta, tol=1e-12,
                        max_iters=100, max_triangles=CAP)
    history, rows = closed_form_run(config, domain)
    assert history.stop_reason == "max_triangles"
    return rows


def _slope(n, values):
    """Least-squares slope of log ``values`` against log ``n`` over the
    second half of the run."""
    half = len(n) // 2
    return np.polyfit(np.log(n[half:]), np.log(values[half:]), 1)[0]


class TestData:
    domain = "square"
    x = np.linspace(0.0, 1.0, 11)
    pts = np.array([(x, y) for x in np.linspace(0.05, 0.95, 7)
                    for y in np.linspace(0.05, 0.95, 7)]).T

    def test_gamma_i_conditions(self):
        """``du/dy = q`` (so ``alpha du/dn = -q``), ``dp/dy = 0`` and
        ``beta q = p`` on the bottom side."""
        u, grad_u, _ = CLOSED_FORMS[self.domain]
        y = np.zeros_like(self.x)
        h = 1e-5
        du_dy = (u(self.x, h) - u(self.x, -h)) / (2 * h)
        assert np.allclose(du_dy, closed_form_q(self.x, y), atol=1e-8)
        assert np.allclose(grad_u(self.x, y)[1],
                           closed_form_q(self.x, y), rtol=0, atol=1e-15)
        assert np.abs(closed_form_grad_p(self.x, y)[1]).max() < 1e-18
        assert np.allclose(CLOSED_FORM_BETA * closed_form_q(self.x, y),
                           closed_form_p(self.x, y), rtol=1e-15, atol=0)

    @pytest.mark.parametrize("which", ["u", "p"])
    def test_gradients_match_differences(self, which):
        fun, grad = {"u": CLOSED_FORMS[self.domain][:2],
                     "p": (closed_form_p, closed_form_grad_p)}[which]
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
        u, _, f = CLOSED_FORMS[self.domain]
        x, y = self.pts
        h = 1e-3

        def lap(fun):
            return (fun(x + h, y) + fun(x - h, y) + fun(x, y + h)
                    + fun(x, y - h) - 4.0 * fun(x, y)) / h ** 2

        assert np.abs(f(x, y) + lap(u)).max() < 1e-4
        p_max = np.abs(closed_form_p(x, y)).max()
        assert np.abs(lap(closed_form_p)).max() < 1e-4 * p_max

    def _check_gamma_a_data(self, x, y, normal, h):
        """``u_a = u + du/dn`` and ``z = u - (dp/dn + p)`` at GammaA points
        of one side, the normal derivatives by central differences."""
        nx, ny = normal
        u = CLOSED_FORMS[self.domain][0]

        def dn(fun):
            return (fun(x + h * nx, y + h * ny)
                    - fun(x - h * nx, y - h * ny)) / (2 * h)

        assert np.allclose(closed_form_u_a(x, y, self.domain),
                           u(x, y) + dn(u), rtol=0, atol=1e-8)
        assert np.allclose(closed_form_z(x, y, self.domain),
                           u(x, y) - dn(closed_form_p) - closed_form_p(x, y),
                           rtol=0, atol=1e-8)

    @pytest.mark.parametrize("side, normal", [
        ("left", (-1.0, 0.0)), ("top", (0.0, 1.0)), ("right", (1.0, 0.0))])
    def test_gamma_a_data(self, side, normal):
        s = np.linspace(0.05, 0.95, 7)
        x, y = {"left": (0 * s, s), "top": (s, 0 * s + 1),
                "right": (0 * s + 1, s)}[side]
        self._check_gamma_a_data(x, y, normal, 1e-5)

    def test_measurement_interpolates_z(self):
        """The sampled measurement is within 1e-4 of ``z`` in L2(GammaA),
        by 3-point Gauss on 2,000 parts of each side (5.7e-5 measured on
        the square, 4.8e-5 on the L-shape)."""
        meas = closed_form_measurement(self.domain)
        t, w = gauss_rule(3)
        s = ((np.arange(2000)[:, None] + t) / 2000).ravel()
        ws = np.tile(w, 2000) / 2000
        err_sq = 0.0
        for a, b in np.array(CLOSED_FORM_SIDES[self.domain], dtype=float):
            x, y = a[:, None] + s * (b - a)[:, None]
            err_sq += np.hypot(*(b - a)) * (ws * (
                meas(x, y) - closed_form_z(x, y, self.domain)) ** 2).sum()
        assert np.sqrt(err_sq) < 1e-4


class TestLShapeData(TestData):
    """The L-shape's ``u`` adds the corner function, less its GammaI
    normal derivative, to the square's; ``p`` and ``q`` are the square's.
    Points keep at least 0.15 from the reentrant corner (1/2, 1/2), where
    the five-point ``f + lap u`` is at most 5.4e-5 (measured)."""

    domain = "lshape"
    pts = np.array([(x, y) for x in np.linspace(0.05, 0.95, 7)
                    for y in np.linspace(0.05, 0.95, 7)
                    if x < 0.4 or y < 0.4]).T

    def test_corner_function(self):
        """``s`` vanishes on both inner edges and is harmonic (five-point
        Laplacian at most 5.6e-5 measured)."""
        t = np.linspace(0.5, 1.0, 11)
        assert np.abs(corner_s(0.5 + 0 * t, t)).max() < 1e-15
        assert np.abs(corner_s(t, 0.5 + 0 * t)).max() < 1e-15
        x, y = self.pts
        h = 1e-3
        lap = (corner_s(x + h, y) + corner_s(x - h, y) + corner_s(x, y + h)
               + corner_s(x, y - h) - 4.0 * corner_s(x, y)) / h ** 2
        assert np.abs(lap).max() < 1e-4

    @pytest.mark.parametrize("side", range(5))
    def test_gamma_a_data(self, side):
        """On each side of :data:`CLOSED_FORM_SIDES`, with a step of 1e-6,
        as the inner sides come within 0.025 of the corner."""
        a, b = np.array(CLOSED_FORM_SIDES["lshape"][side], dtype=float)
        x, y = a[:, None] + np.linspace(0.05, 0.95, 7) * (b - a)[:, None]
        normal = np.array([a[1] - b[1], b[0] - a[0]]) / np.hypot(*(b - a))
        self._check_gamma_a_data(x, y, normal, 1e-6)


@pytest.mark.parametrize("domain, marking", RUNS)
def test_estimator_and_error_decay(domain, marking):
    """eta and the exact H1 error of ``u`` fall at least like
    ``n_vertices^-0.45``, the optimal rate being -1/2."""
    n, eta, err_u, _, _ = adaptive_rows(domain, marking).T
    assert _slope(n, eta) <= -0.45
    assert _slope(n, err_u) <= -0.45


@pytest.mark.parametrize("domain, marking", RUNS)
def test_estimator_over_exact_error_in_band(domain, marking):
    """eta is reliable and efficient: its ratio to the total exact error
    stays in one band on every iteration."""
    _, eta, _, _, err = adaptive_rows(domain, marking).T
    ratio = eta / err
    lo, hi = BANDS[domain]
    assert ratio.min() >= lo and ratio.max() <= hi


@pytest.mark.parametrize("marking", ["doerfler", "maximum"])
def test_lshape_adaptive_flux_error_below_uniform(marking):
    """On the L-shape, adaptive refinement at no more vertices than the
    uniform run's last mesh has at least four times less L2(GammaI) flux
    error than uniform refinement."""
    n_uniform, _, _, err_q_uniform, _ = adaptive_rows("lshape", "uniform")[-1]
    n, _, _, err_q, _ = adaptive_rows("lshape", marking).T
    assert 4.0 * err_q[n <= n_uniform][-1] <= err_q_uniform

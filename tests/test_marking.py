import math

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fluxrec.driver import LoopConfig
from fluxrec.estimator import ElementIndicators
from fluxrec.mesh import MeshError
from fluxrec.marking import STRATEGIES, MarkingDecision, mark

from helpers import oracle_mark


def indicators_from(eta):
    """ElementIndicators carrying the given per-element eta values."""
    eta = np.asarray(eta, dtype=float)
    zeros_f = np.zeros(eta.size)
    return ElementIndicators(eta1_sq=eta ** 2,
                             eta2_sq=np.zeros(eta.size),
                             osc_f_sq=zeros_f,
                             osc_j1_sq=np.zeros(0), osc_j2_sq=np.zeros(0))


eta_arrays = arrays(
    dtype=float,
    shape=st.integers(min_value=1, max_value=40),
    elements=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)


class TestMaximum:
    def test_half_threshold(self):
        dec = mark(indicators_from([1, 2, 3, 4]), "maximum", 0.5)
        assert list(dec.marked) == [1, 2, 3]

    def test_theta_zero_marks_all(self):
        dec = mark(indicators_from([1, 2, 3, 4]), "maximum", 0.0)
        assert list(dec.marked) == [0, 1, 2, 3]

    def test_theta_one_marks_maxima(self):
        dec = mark(indicators_from([1, 4, 2, 4]), "maximum", 1.0)
        assert list(dec.marked) == [1, 3]

    def test_theta_out_of_range(self):
        with pytest.raises(ValueError):
            mark(indicators_from([1.0]), "maximum", 1.5)

    def test_all_zero_marks_nothing(self):
        dec = mark(indicators_from([0, 0, 0]), "maximum", 0.5)
        assert dec.marked.size == 0


class TestEquidistribution:
    def test_terminates_below_tol(self):
        dec = mark(indicators_from([1, 2, 3, 4]), "equidistribution", 0.5,
                   tol=10.0)
        assert dec.terminate
        assert dec.marked.size == 0

    def test_threshold_arithmetic(self):
        # global eta = sqrt(30) > 2; threshold = 1 * 2 / 2 = 1: all marked
        dec = mark(indicators_from([1, 2, 3, 4]), "equidistribution", 1.0,
                   tol=2.0)
        assert not dec.terminate
        assert list(dec.marked) == [0, 1, 2, 3]

    def test_partial_marking_includes_argmax(self):
        # threshold = 1 * 4 / 2 = 2: elements with eta in {2, 3, 4}
        dec = mark(indicators_from([1, 2, 3, 4]), "equidistribution", 1.0,
                   tol=4.0)
        assert not dec.terminate
        assert list(dec.marked) == [1, 2, 3]
        assert 3 in dec.marked  # the argmax

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            mark(indicators_from([1.0]), "equidistribution", 0.5, tol=0.0)


class TestModifiedEquidistribution:
    def test_threshold_arithmetic(self):
        # threshold = 0.5 * sqrt(30) / 2 = 1.369: marks eta in {2, 3, 4}
        dec = mark(indicators_from([1, 2, 3, 4]), "modified_equidistribution",
                   0.5)
        assert list(dec.marked) == [1, 2, 3]

    def test_theta_zero_marks_all(self):
        dec = mark(indicators_from([1, 2, 3, 4]), "modified_equidistribution",
                   0.0)
        assert list(dec.marked) == [0, 1, 2, 3]

    def test_uniform_indicators_all_marked(self):
        for theta in (0.0, 0.3, 0.7, 1.0):
            dec = mark(indicators_from([2.0, 2.0, 2.0]),
                       "modified_equidistribution", theta)
            assert list(dec.marked) == [0, 1, 2]

    @pytest.mark.parametrize("n, value", [(3, 1.5), (6, 0.1), (31, 1.5)])
    def test_uniform_indicators_above_roundoff(self, n, value):
        """theta = 1 marks every equal indicator, also where the rounded
        global estimator over sqrt(n) comes out above them."""
        dec = mark(indicators_from(np.full(n, value)),
                   "modified_equidistribution", 1.0)
        assert list(dec.marked) == list(range(n))


class TestDoerfler:
    def test_half_fraction(self):
        dec = mark(indicators_from([4, 3, 2, 1]), "doerfler", 0.5)
        assert list(dec.marked) == [0]

    def test_larger_fraction(self):
        dec = mark(indicators_from([4, 3, 2, 1]), "doerfler", 0.9)
        assert list(dec.marked) == [0, 1]

    def test_theta_one_marks_all_nonzero(self):
        dec = mark(indicators_from([4, 0, 2, 0]), "doerfler", 1.0)
        assert list(dec.marked) == [0, 2]

    def test_theta_zero_rejected(self):
        with pytest.raises(ValueError):
            mark(indicators_from([1.0]), "doerfler", 0.0)

    def test_both_conditions_verbatim(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            eta = rng.uniform(0.0, 10.0, size=rng.integers(1, 30))
            theta = rng.uniform(0.05, 1.0)
            ind = indicators_from(eta)
            dec = mark(ind, "doerfler", theta)
            marked_sq = (eta[dec.marked] ** 2).sum()
            assert np.sqrt(marked_sq) >= theta * ind.eta - 1e-12
            unmarked = np.setdiff1d(np.arange(eta.size), dec.marked)
            if dec.marked.size and unmarked.size:
                assert eta[dec.marked].min() >= eta[unmarked].max()


class TestSharedProperties:
    @given(eta=eta_arrays, theta=st.floats(0.0, 1.0))
    @hyp_settings(max_examples=120, deadline=None)
    def test_marking_condition_maximum(self, eta, theta):
        ind = indicators_from(eta)
        dec = mark(ind, "maximum", theta)
        self._check_marking_condition(ind, dec.marked)

    @given(eta=eta_arrays, theta=st.floats(0.0, 1.0))
    @hyp_settings(max_examples=120, deadline=None)
    def test_marking_condition_modified_equidistribution(self, eta, theta):
        ind = indicators_from(eta)
        dec = mark(ind, "modified_equidistribution", theta)
        self._check_marking_condition(ind, dec.marked)

    @given(eta=eta_arrays, theta=st.floats(0.0, 1.0),
           tol=st.floats(1e-6, 1e6))
    @hyp_settings(max_examples=120, deadline=None)
    def test_marking_condition_equidistribution(self, eta, theta, tol):
        ind = indicators_from(eta)
        dec = mark(ind, "equidistribution", theta, tol)
        if not dec.terminate:
            assert dec.marked.size > 0
            self._check_marking_condition(ind, dec.marked)

    @given(eta=eta_arrays, theta=st.floats(0.01, 1.0))
    @hyp_settings(max_examples=120, deadline=None)
    def test_marking_condition_doerfler(self, eta, theta):
        ind = indicators_from(eta)
        dec = mark(ind, "doerfler", theta)
        self._check_marking_condition(ind, dec.marked)

    @staticmethod
    def _check_marking_condition(ind, marked):
        # compare against the per-element values the marker actually saw
        eta = np.sqrt(ind.eta_sq)
        if eta.max() == 0.0:
            assert marked.size == 0
            return
        assert marked.size > 0
        unmarked = np.setdiff1d(np.arange(eta.size), marked)
        if unmarked.size:
            assert eta[unmarked].max() <= eta[marked].max() + 1e-15

    @given(eta=eta_arrays, t1=st.floats(0.0, 1.0), t2=st.floats(0.0, 1.0))
    @hyp_settings(max_examples=120, deadline=None)
    def test_theta_monotonicity(self, eta, t1, t2):
        if t1 > t2:
            t1, t2 = t2, t1
        ind = indicators_from(eta)
        for strategy in ("maximum", "modified_equidistribution"):
            low = mark(ind, strategy, t1)
            high = mark(ind, strategy, t2)
            assert set(high.marked) <= set(low.marked)
        low = mark(ind, "equidistribution", t1, tol=1.0)
        high = mark(ind, "equidistribution", t2, tol=1.0)
        if not low.terminate:
            assert set(high.marked) <= set(low.marked)

    def test_determinism(self):
        rng = np.random.default_rng(23)
        eta = rng.uniform(0, 5, size=25)
        for strategy, args in (("maximum", (0.4,)),
                               ("modified_equidistribution", (0.6,)),
                               ("doerfler", (0.7,))):
            a = mark(indicators_from(eta), strategy, *args)
            b = mark(indicators_from(eta), strategy, *args)
            assert np.array_equal(a.marked, b.marked)
            assert a.terminate == b.terminate

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown marking strategy"):
            mark(indicators_from([1.0]), "random", 0.5)


def outcome(marker, *args):
    """The marked ids and ``terminate`` of a decision, or the type of the
    exception raised instead."""
    try:
        decision = marker(*args)
    except Exception as exc:
        return type(exc)
    return decision.marked.tolist(), decision.terminate


# squared indicators: integer ties, subnormals and values whose sum over
# two arrays overflows to inf, next to arbitrary non-negative floats
squared = st.one_of(
    st.integers(0, 3).map(float),
    st.sampled_from([5e-324, 1e-310, 2.2e-308, 1e300, 1.7e308]),
    st.floats(0.0, 1.7e308),
)


class TestOracle:
    @given(shape=st.integers(0, 40), data=st.data(),
           strategy=st.sampled_from(STRATEGIES + ("random",)),
           theta=st.one_of(st.sampled_from([0.0, 1.0, -0.1, 1.5, math.nan]),
                           st.floats(0.0, 1.0)),
           tol=st.one_of(st.sampled_from([0.0, math.nan]),
                         st.floats(1e-8, 1e2), st.floats(0.0, 1e300)))
    @hyp_settings(max_examples=500, deadline=None)
    def test_mark_matches_the_four_oracles(self, shape, data, strategy,
                                           theta, tol):
        eta1_sq, eta2_sq = (
            data.draw(arrays(float, shape, elements=squared))
            if data.draw(st.booleans()) else np.zeros(shape)
            for _ in range(2))
        ind = ElementIndicators(eta1_sq, eta2_sq, np.zeros(shape),
                                np.zeros(0), np.zeros(0))
        # inf and nan from overflowing sums are part of the comparison
        with np.errstate(over="ignore", invalid="ignore"):
            assert (outcome(mark, ind, strategy, theta, tol)
                    == outcome(oracle_mark, ind, strategy, theta, tol))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_one_validator(strategy):
    """A config and a marking call reject the same theta and tol."""
    bad = [dict(theta=theta) for theta in (-0.1, 1.5, math.nan)]
    if strategy == "doerfler":
        bad.append(dict(theta=0.0))
    if strategy == "equidistribution":
        bad += [dict(theta=0.5, tol=tol) for tol in (0.0, math.nan)]
    for kwargs in bad:
        with pytest.raises(ValueError):
            LoopConfig(strategy=strategy, **kwargs)
        with pytest.raises(ValueError):
            mark(indicators_from([1.0, 2.0]), strategy, **kwargs)


class TestMarkingDecision:
    @pytest.mark.parametrize("bad, dtype", [
        (np.array([False, True, True]), "bool"), ([1.7, 3.2], "float64")])
    def test_mask_and_floats_rejected(self, bad, dtype):
        with pytest.raises(MeshError, match=f"integers, got dtype {dtype}"):
            MarkingDecision(bad)

    @pytest.mark.parametrize("ids", [[], np.array([3, 1, 3], dtype=np.int8),
                                     np.array([1, 3], dtype=np.uint32)])
    def test_integer_ids_of_any_width(self, ids):
        marked = MarkingDecision(ids).marked
        assert marked.dtype == np.int64
        assert marked.tolist() == sorted(set(np.asarray(ids).tolist()))

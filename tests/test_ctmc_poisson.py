"""Fox-Glynn style Poisson weights vs scipy oracle."""

import math

import numpy as np
import pytest
import scipy.stats as stats
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ctmc import poisson_weights
from repro.ctmc.poisson import poisson_truncation_point
from repro.errors import ParameterError


class TestTruncationPoint:
    def test_zero_lambda(self):
        assert poisson_truncation_point(0.0) == 0

    def test_tail_below_eps(self):
        for lam in (0.1, 1.0, 17.3, 400.0, 12_345.0):
            k = poisson_truncation_point(lam, 1e-10)
            assert stats.poisson.sf(k, lam) <= 1e-10

    def test_not_absurdly_large(self):
        # Truncation should stay within a few sigma of the mean.
        lam = 10_000.0
        k = poisson_truncation_point(lam, 1e-12)
        assert k < lam + 60.0 * np.sqrt(lam)

    def test_invalid_args(self):
        with pytest.raises(ParameterError):
            poisson_truncation_point(-1.0)
        with pytest.raises(ParameterError):
            poisson_truncation_point(1.0, eps=0.0)


class TestWeights:
    def test_zero_lambda(self):
        left, right, w = poisson_weights(0.0)
        assert (left, right) == (0, 0)
        np.testing.assert_allclose(w, [1.0])

    @pytest.mark.parametrize("lam", [0.01, 0.5, 1.0, 5.0, 50.0, 1000.0, 250_000.0])
    def test_matches_scipy_pmf(self, lam):
        left, right, w = poisson_weights(lam, eps=1e-13)
        ks = np.arange(left, right + 1)
        ref = stats.poisson.pmf(ks, lam)
        # Renormalised truncation: compare shape after normalising the oracle.
        # lgamma round-off accumulates over ~1e5 terms; 1e-7 relative is
        # still far tighter than the 1e-13 truncation mass.
        np.testing.assert_allclose(w, ref / ref.sum(), rtol=1e-7, atol=1e-300)

    @pytest.mark.parametrize("lam", [0.3, 7.0, 999.0])
    def test_weights_sum_to_one(self, lam):
        _, _, w = poisson_weights(lam)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert (w >= 0).all()

    def test_mode_included(self):
        for lam in (3.7, 42.0, 5000.0):
            left, right, _ = poisson_weights(lam, eps=1e-6)
            assert left <= int(lam) <= right

    def test_matches_the_lgamma_loop(self):
        # The log-pmf comes from one vectorised gammaln call; the scalar
        # math.lgamma loop it replaced is the reference, with the right
        # end walked down from the scan's end one term at a time.
        def lgamma_loop(lam, eps):
            scan_end = poisson_truncation_point(lam, eps / 2.0)
            ks = np.arange(0, scan_end + 1)
            log_pmf = (
                ks * math.log(lam) - lam - np.array([math.lgamma(k + 1) for k in ks])
            )
            pmf = np.exp(log_pmf - log_pmf.max())
            total = pmf.sum()
            cumulative = np.cumsum(pmf) / total
            left = min(int(np.flatnonzero(cumulative >= eps / 2.0)[0]), int(lam))
            log_beyond = (
                (scan_end + 1) * math.log(lam) - lam - math.lgamma(scan_end + 2)
            )
            dropped = math.exp(log_beyond) / (1.0 - lam / (scan_end + 2))
            right = scan_end
            while right > int(lam) and dropped + pmf[right] / total <= eps / 2.0:
                dropped += pmf[right] / total
                right -= 1
            w = pmf[left : right + 1]
            return left, right, w / w.sum()

        for lam in np.geomspace(0.01, 5000.0, 250):
            left, right, w = poisson_weights(float(lam))
            ref_left, ref_right, ref = lgamma_loop(float(lam), 1e-12)
            assert (left, right) == (ref_left, ref_right), lam
            np.testing.assert_allclose(w, ref, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("eps", [1e-6, 1e-10, 1e-12])
    def test_right_is_the_smallest_certified_point(self, eps):
        # scipy's exact tails are the oracle. The certified right drop,
        # the exact mass up to the scan's end plus the geometric bound
        # beyond it, is at most eps/2, and one step less it would exceed
        # eps/2 (in a few cases only the bound keeps the exact tail at
        # right − 1 from passing). `left` keeps its rule: the first k
        # whose cdf reaches eps/2, or the mode if that is less.
        for lam in np.geomspace(1e-2, 1e5, 400):
            lam = float(lam)
            left, right, w = poisson_weights(lam, eps)
            mode = int(lam)
            assert left <= mode <= right and w.shape == (right - left + 1,)
            scan_end = poisson_truncation_point(lam, eps / 2.0)
            ratio = 1.0 - lam / (scan_end + 2)
            beyond_bound = stats.poisson.pmf(scan_end + 1, lam) / ratio
            beyond_exact = stats.poisson.sf(scan_end, lam)

            def certified_drop(k):
                return stats.poisson.sf(k, lam) - beyond_exact + beyond_bound

            drop = certified_drop(right)
            assert stats.poisson.sf(right, lam) <= drop <= eps / 2.0, lam
            if right > mode:
                assert certified_drop(right - 1) > eps / 2.0, lam
            cdf = stats.poisson.cdf(np.arange(mode + 1), lam)
            reached = np.flatnonzero(cdf >= eps / 2.0)
            assert left == (int(reached[0]) if reached.size else mode), lam

    def test_invalid_args(self):
        with pytest.raises(ParameterError):
            poisson_weights(-2.0)
        with pytest.raises(ParameterError):
            poisson_weights(1.0, eps=2.0)


@settings(max_examples=50, deadline=None)
@given(lam=st.floats(min_value=1e-3, max_value=1e5, allow_nan=False))
def test_property_mass_and_support(lam):
    left, right, w = poisson_weights(lam, eps=1e-12)
    assert 0 <= left <= right
    assert w.shape == (right - left + 1,)
    assert w.sum() == pytest.approx(1.0, abs=1e-9)
    # Dropped mass on each side is at most eps/2.
    assert stats.poisson.cdf(left - 1, lam) <= 0.5e-12
    assert stats.poisson.sf(right, lam) <= 0.5e-12

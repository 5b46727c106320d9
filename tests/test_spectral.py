import numpy as np
import pytest

from rexsim.spectral import interior_maxima, line_fit


class TestLineFit:
    def test_matches_polyfit(self):
        rng = np.random.default_rng(5)
        x = np.linspace(-2.0, 3.0, 40)
        y = 1.7 * x - 0.4 + rng.normal(0.0, 0.05, x.size)
        slope, intercept, _, rms = line_fit(x, y)
        ref_slope, ref_intercept = np.polyfit(x, y, 1)
        assert slope == pytest.approx(ref_slope, rel=1e-12)
        assert intercept == pytest.approx(ref_intercept, rel=1e-12)
        residuals = y - (ref_slope * x + ref_intercept)
        assert rms == pytest.approx(np.sqrt(np.mean(residuals**2)), rel=1e-10)

    def test_through_origin_closed_form(self):
        rng = np.random.default_rng(6)
        x = np.linspace(0.1, 1.0, 25)
        y = 3.2 * x + rng.normal(0.0, 0.02, x.size)
        slope, intercept, slope_se, _ = line_fit(x, y, through_origin=True)
        sxx = float(np.dot(x, x))
        ref_slope = float(np.dot(x, y)) / sxx
        ssr = float(np.sum((y - ref_slope * x) ** 2))
        assert intercept == 0.0
        assert slope == pytest.approx(ref_slope, rel=1e-12)
        assert slope_se == pytest.approx(np.sqrt(ssr / (x.size - 1) / sxx), rel=1e-12)

    def test_exact_line_has_zero_error(self):
        x = np.arange(6.0)
        slope, intercept, slope_se, rms = line_fit(x, 2.0 * x + 1.0)
        assert (slope, intercept) == pytest.approx((2.0, 1.0), abs=1e-12)
        assert slope_se == pytest.approx(0.0, abs=1e-12)
        assert rms == pytest.approx(0.0, abs=1e-12)


class TestInteriorMaxima:
    def test_plateau_and_valley(self):
        #            0    1    2    3    4    5    6    7    8
        a = np.array([5.0, 1.0, 3.0, 3.0, 2.0, 0.0, 4.0, 1.0, 9.0])
        # the plateau 2-3 counts once, at its left end; the boundary samples
        # (the global maximum at 8 included) never count
        assert interior_maxima(a).tolist() == [2, 6]
        # negated, the valleys at 1, 5 and 7 become the maxima
        assert interior_maxima(-a).tolist() == [1, 5, 7]

    def test_short_and_flat_arrays(self):
        assert interior_maxima(np.array([1.0, 2.0])).size == 0
        assert interior_maxima(np.zeros(5)).size == 0

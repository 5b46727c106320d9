import math

import numpy as np
import pytest
from scipy import stats

from rexsim.config import default_document
from rexsim.errors import FitError, ValidationError
from rexsim.photonstats import (
    BackgroundModel,
    CountRecord,
    EmitterLevelScheme,
    bunching_lag_constant,
    coupling_histogram,
    g2_estimator,
    g2_zero_analytic,
    sfs_generate,
    simulate_emitter_stream,
)

PERIOD = 40e-6  # 25 kHz repetition
NO_BACKGROUND = BackgroundModel()


def poisson_record(mean: float, n: int, seed: int) -> CountRecord:
    counts = np.random.default_rng(seed).poisson(mean, n)
    return CountRecord(counts=counts, period=PERIOD, seed=seed)


class TestEmitterStream:
    def test_deterministic_unit_emitter(self):
        scheme = EmitterLevelScheme(p_excite=1.0, p_detect=1.0, p_shelve=0.0)
        record = simulate_emitter_stream(scheme, NO_BACKGROUND, 5000, PERIOD, seed=1)
        assert np.all(record.counts == 1)

    def test_binomial_mean(self):
        scheme = EmitterLevelScheme(p_excite=0.7, p_detect=0.3, p_shelve=0.0)
        n = 200_000
        record = simulate_emitter_stream(scheme, NO_BACKGROUND, n, PERIOD, seed=2)
        expected = 0.7 * 0.3
        sigma = np.sqrt(expected * (1 - expected) / n)
        assert abs(record.counts.mean() - expected) < 3 * sigma

    def test_reference_rate_500_per_second(self):
        """0.02 detected photons per pulse at 25 kHz -> 500 counts/s."""
        scheme = EmitterLevelScheme(p_excite=0.556, p_detect=0.036, p_shelve=0.0)
        n = 500_000
        record = simulate_emitter_stream(scheme, NO_BACKGROUND, n, PERIOD, seed=3)
        expected = 0.556 * 0.036
        sigma = np.sqrt(expected / n)
        assert abs(record.counts.mean() - expected) < 3 * sigma
        assert record.mean_rate == pytest.approx(500, rel=0.05)

    def test_reproducible_from_seed(self):
        scheme = EmitterLevelScheme(p_excite=0.5, p_detect=0.4, p_shelve=0.05, shelf_recovery=2e3)
        bg = BackgroundModel(mean_per_pulse=0.01)
        a = simulate_emitter_stream(scheme, bg, 50_000, PERIOD, seed=7)
        b = simulate_emitter_stream(scheme, bg, 50_000, PERIOD, seed=7)
        c = simulate_emitter_stream(scheme, bg, 50_000, PERIOD, seed=8)
        assert np.array_equal(a.counts, b.counts)
        assert not np.array_equal(a.counts, c.counts)

    def test_shelving_reduces_rate(self):
        bright = EmitterLevelScheme(p_excite=0.6, p_detect=0.5, p_shelve=0.0)
        blinky = EmitterLevelScheme(p_excite=0.6, p_detect=0.5, p_shelve=0.2, shelf_recovery=1e3)
        rate_bright = simulate_emitter_stream(bright, NO_BACKGROUND, 100_000, PERIOD, 5).counts.mean()
        rate_blinky = simulate_emitter_stream(blinky, NO_BACKGROUND, 100_000, PERIOD, 5).counts.mean()
        assert rate_blinky < 0.8 * rate_bright

    def test_rejects_empty_run(self):
        scheme = EmitterLevelScheme(p_excite=0.5, p_detect=0.5)
        with pytest.raises(ValidationError):
            simulate_emitter_stream(scheme, NO_BACKGROUND, 0, PERIOD, seed=1)


class TestG2Estimator:
    def test_poisson_stream_is_flat(self):
        record = poisson_record(0.2, 400_000, seed=11)
        trace = g2_estimator(record, max_lag=40)
        sigma = trace.extra["sigma"]
        assert np.all(np.abs(trace.y[1:] - 1.0) < 3.5 * sigma[1:])
        assert abs(trace.y[0] - 1.0) < 3.5 * sigma[0]

    def test_ideal_single_emitter_antibunches(self):
        scheme = EmitterLevelScheme(p_excite=0.8, p_detect=0.9, p_shelve=0.0)
        record = simulate_emitter_stream(scheme, NO_BACKGROUND, 300_000, PERIOD, seed=12)
        trace = g2_estimator(record, max_lag=30)
        assert trace.y[0] == 0.0

    def test_signal_plus_background_matches_analytic(self):
        rho = 0.954
        signal = 0.02
        scheme = EmitterLevelScheme(p_excite=0.5, p_detect=signal / 0.5, p_shelve=0.0)
        bg = BackgroundModel(mean_per_pulse=signal * (1 - rho) / rho)
        record = simulate_emitter_stream(scheme, bg, 4_000_000, PERIOD, seed=13)
        trace = g2_estimator(record, max_lag=50)
        expected = g2_zero_analytic(rho)
        assert abs(trace.y[0] - expected) < 3 * trace.extra["sigma"][0]

    def test_unbiased_over_seeded_runs(self):
        """Mean over 100 seeds is within 3 sigma of 1 at every lag."""
        runs = np.empty((100, 13))
        for seed in range(100):
            record = poisson_record(0.3, 40_000, seed=1000 + seed)
            runs[seed] = g2_estimator(record, max_lag=12, min_norm_coincidences=1e3).y
        mean = runs.mean(axis=0)
        sem = runs.std(axis=0, ddof=1) / 10.0
        assert np.all(np.abs(mean - 1.0) < 3 * sem + 1e-12)

    def test_rejects_thin_normalization_window(self):
        record = poisson_record(0.001, 20_000, seed=14)
        with pytest.raises(FitError):
            g2_estimator(record, max_lag=20)

    def test_analytic_examples(self):
        assert g2_zero_analytic(1.0) == 0.0
        assert g2_zero_analytic(0.0) == 1.0
        assert g2_zero_analytic(0.954) == pytest.approx(0.090, abs=5e-4)


BUNCHY = EmitterLevelScheme(
    p_excite=0.6, p_detect=0.5, p_shelve=0.02, shelf_recovery=5000.0
)


class TestBunching:
    def test_shelving_produces_bunching_shoulder(self):
        record = simulate_emitter_stream(BUNCHY, NO_BACKGROUND, 2_000_000, PERIOD, seed=21)
        trace = g2_estimator(record, max_lag=80)
        sigma = trace.extra["sigma"]
        early = slice(1, 8)
        assert np.all(trace.y[early] > 1.0 + 3 * sigma[early])

    def test_no_shelving_never_bunches(self):
        scheme = EmitterLevelScheme(p_excite=0.6, p_detect=0.5, p_shelve=0.0)
        record = simulate_emitter_stream(scheme, NO_BACKGROUND, 2_000_000, PERIOD, seed=22)
        trace = g2_estimator(record, max_lag=80)
        sigma = trace.extra["sigma"]
        assert not np.any(trace.y[1:] > 1.0 + 3 * sigma[1:])

    def test_shoulder_lag_scales_inversely_with_recovery(self):
        """Doubling the recovery rate halves the bunching lag constant.

        Shelving events are kept rare relative to recovery so the telegraph
        correlation time is recovery-dominated (1/R_s up to the small
        shelving-rate offset)."""
        lags = {}
        for rate in (10e3, 20e3):
            scheme = EmitterLevelScheme(
                p_excite=0.9, p_detect=0.9, p_shelve=0.05, shelf_recovery=rate
            )
            record = simulate_emitter_stream(scheme, NO_BACKGROUND, 3_000_000, PERIOD, seed=23)
            trace = g2_estimator(record, max_lag=60)
            lags[rate] = bunching_lag_constant(trace)
        ratio = lags[10e3] / lags[20e3]
        assert ratio == pytest.approx(2.0, rel=0.20)

    def test_lag_follows_shelving_chain_at_default_config(self):
        """The fitted lag is the chain's -T/ln(1 - p(1 - q) - q).

        p = p_excite p_shelve shelves an active ion and q = 1 - exp(-R T)
        recovers a shelved one between pulses. The fit must stop where the
        shoulder ends: later noise lags that cross the threshold flatten it
        (they once gave 5.7 times the chain's lag here)."""
        doc = default_document()
        scheme, period = doc.emitter_scheme(), doc.pulse_period()
        record = simulate_emitter_stream(scheme, doc.background(), 2_000_000, period, seed=12345)
        trace = g2_estimator(record, max_lag=100, min_norm_coincidences=0.0)
        q = -math.expm1(-scheme.shelf_recovery * period)
        lam = 1.0 - scheme.p_excite * scheme.p_shelve * (1.0 - q) - q
        expected = -period / math.log(lam)
        assert expected / 1.5 <= bunching_lag_constant(trace) <= 1.5 * expected


class TestSfs:
    def test_poisson_variance_chi_square(self):
        """Pearson dispersion against the known means, 5% two-sided level."""
        trace = sfs_generate(1.13e4, 2.9, 5.0, 35.0, 0.05, seed=31)
        expected = trace.extra["expected"]
        heavy = expected >= 5.0
        x2 = float(np.sum((trace.y[heavy] - expected[heavy]) ** 2 / expected[heavy]))
        dof = int(np.count_nonzero(heavy))
        assert stats.chi2.ppf(0.025, dof) < x2 < stats.chi2.ppf(0.975, dof)

    def test_windowed_std_matches_sqrt_mean(self):
        trace = sfs_generate(1.13e4, 2.9, 5.0, 35.0, 0.05, seed=32)
        expected = trace.extra["expected"]
        window = expected >= 5.0
        residual_std = np.std(trace.y[window] - expected[window])
        assert residual_std == pytest.approx(np.sqrt(expected[window].mean()), rel=0.15)

    def test_zero_amplitude(self):
        trace = sfs_generate(0.0, 2.9, 5.0, 35.0, 0.5, seed=33)
        assert np.all(trace.y == 0.0)

    def test_power_law_recovery_from_binned_means(self):
        """Across-seed bin means recover the exponent within 0.1."""
        from rexsim.dynamics import fit_power_law

        total = None
        n_runs = 60
        for seed in range(n_runs):
            trace = sfs_generate(1.13e4, 2.9, 2.0, 30.0, 0.2, seed=seed)
            total = trace.y if total is None else total + trace.y
        means = total / n_runs
        usable = means > 0
        fit = fit_power_law(trace.x[usable], means[usable])
        assert fit.exponent == pytest.approx(2.9, abs=0.1)

    def test_shot_noise_column(self):
        trace = sfs_generate(1.13e4, 2.9, 5.0, 35.0, 0.1, seed=34)
        assert np.allclose(trace.extra["shot_noise"], np.sqrt(trace.extra["expected"]))

    def test_worker_invariance(self):
        serial = sfs_generate(1.13e4, 2.9, 5.0, 35.0, 0.01, seed=35, workers=1)
        parallel = sfs_generate(1.13e4, 2.9, 5.0, 35.0, 0.01, seed=35, workers=4)
        assert np.array_equal(serial.y, parallel.y)


class TestCouplingHistogram:
    def test_uniform_placement_shape(self):
        """Smoothed histogram decreases monotonically toward high PL."""
        trace = coupling_histogram(400_000, seed=42)
        smooth = np.convolve(trace.y, np.ones(3) / 3, mode="valid")
        assert np.all(np.diff(smooth) < 0)
        # integrable peak near zero: the dimmest bin holds the largest share
        assert trace.y[0] == trace.y.max()

    def test_convergence_with_samples(self):
        half = coupling_histogram(200_000, seed=43)
        full = coupling_histogram(400_000, seed=44)
        assert np.max(np.abs(half.y - full.y)) < 0.02

    def test_worker_invariance(self):
        serial = coupling_histogram(150_000, seed=45, workers=1)
        parallel = coupling_histogram(150_000, seed=45, workers=3)
        assert np.array_equal(serial.y, parallel.y)
        assert np.array_equal(serial.extra["count"], parallel.extra["count"])

    def test_sample_floor(self):
        with pytest.raises(ValidationError):
            coupling_histogram(100, seed=1)


class TestDeterminism:
    def test_identical_records_across_reruns(self):
        scheme = EmitterLevelScheme(p_excite=0.55, p_detect=0.036, p_shelve=0.1, shelf_recovery=1400.0)
        bg = BackgroundModel(mean_per_pulse=0.001)
        first = simulate_emitter_stream(scheme, bg, 200_000, PERIOD, seed=99)
        second = simulate_emitter_stream(scheme, bg, 200_000, PERIOD, seed=99)
        assert np.array_equal(first.counts, second.counts)

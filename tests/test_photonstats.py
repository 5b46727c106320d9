import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from rexsim.config import default_document
from rexsim.errors import FitError, ValidationError
from rexsim import photonstats
from rexsim.photonstats import (
    CHUNK,
    SPARSE_MAX_OCCUPANCY,
    STITCH_MAX_BACKGROUND,
    CountRecord,
    EmitterLevelScheme,
    bunching_lag_constant,
    coupling_histogram,
    g2_estimator,
    g2_zero_analytic,
    sfs_generate,
    shelving_lag_analytic,
    simulate_emitter_stream,
)

PERIOD = 40e-6  # 25 kHz repetition
NO_BACKGROUND = 0.0


class NoPool:
    """Stands in for ThreadPoolExecutor where no thread may start."""

    def __init__(self, max_workers):
        raise AssertionError(f"a pool of {max_workers} threads started")


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
        bg = 0.01
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

    def test_rejects_nan_recovery_and_period(self):
        """A NaN recovery probability has no raw-word threshold."""
        with pytest.raises(ValidationError, match="recovery"):
            EmitterLevelScheme(p_excite=0.5, p_detect=0.5, p_shelve=0.1, shelf_recovery=math.nan)
        scheme = EmitterLevelScheme(p_excite=0.5, p_detect=0.5, p_shelve=0.1)
        with pytest.raises(ValidationError, match="period"):
            simulate_emitter_stream(scheme, NO_BACKGROUND, 1000, math.nan, seed=1)

    def test_rejects_negative_background(self):
        scheme = EmitterLevelScheme(p_excite=0.5, p_detect=0.5)
        with pytest.raises(ValidationError, match="background counts per pulse"):
            simulate_emitter_stream(scheme, -0.01, 1000, PERIOD, seed=1)

    @pytest.mark.parametrize("background", [1e18, 1e19, math.inf, math.nan])
    def test_rejects_background_numpy_cannot_draw(self, background):
        scheme = EmitterLevelScheme(p_excite=0.5, p_detect=0.5)
        with pytest.raises(ValidationError, match=r"\[0, 1e18\)"):
            simulate_emitter_stream(scheme, background, 1000, PERIOD, seed=1)


class TestCountRecord:
    """Counts must be non-negative integers; g2's pair sums rely on it."""

    @pytest.mark.parametrize("counts", [
        np.array([math.nan] * 1000 + [1.0] * 10),  # passed the sign check, mean_rate nan
        np.full(1000, 0.5),                         # g2(0) came out as -1
    ], ids=["nan", "half"])
    def test_rejects_non_integer_counts(self, counts):
        with pytest.raises(ValidationError, match="counts must be integers") as caught:
            CountRecord(counts=counts, period=PERIOD, seed=0)
        assert "\n" not in str(caught.value)

    def test_rejects_negative_counts(self):
        counts = np.zeros(1000, dtype=np.int64)
        counts[-1] = -1
        with pytest.raises(ValidationError, match="non-negative"):
            CountRecord(counts=counts, period=PERIOD, seed=0)

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint16, np.uint64])
    def test_accepts_integer_counts(self, dtype):
        record = CountRecord(counts=np.array([0, 2, 1, 1], dtype=dtype), period=PERIOD, seed=0)
        assert record.mean_rate == 1.0 / PERIOD


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
        bg = signal * (1 - rho) / rho
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
        with pytest.raises(FitError, match="lags 15-20, .*longer record or a larger max_lag"):
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

    @pytest.mark.parametrize("p_shelve", [0.1, 0.4], ids=["default", "high-shelve"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fitted_lag_within_factor_of_analytic(self, p_shelve, seed):
        """The benchmark's bound: on a record as long as `rexsim g2` draws, the
        fit lies within a factor 1.5 of the chain."""
        doc = default_document()
        scheme = replace(doc.emitter_scheme(), p_shelve=p_shelve)
        period = doc.pulse_period()
        record = simulate_emitter_stream(scheme, doc.background(), 5_000_000, period, seed)
        trace = g2_estimator(record, max_lag=100, min_norm_coincidences=0.0)
        lag = bunching_lag_constant(trace)
        expected = shelving_lag_analytic(
            scheme.p_excite, scheme.p_shelve, scheme.shelf_recovery, period)
        assert expected / 1.5 <= lag <= 1.5 * expected

    def test_analytic_lag_limits(self):
        # never shelving: the lag is the recovery time 1/R
        assert shelving_lag_analytic(0.0, 0.5, 1400.0, 40e-6) == pytest.approx(1 / 1400.0)
        # every pulse shelves an active ion: lambda = 0, no memory past one pulse
        assert shelving_lag_analytic(1.0, 1.0, 1400.0, 40e-6) == 0.0
        q = -math.expm1(-1400.0 * 40e-6)
        lam = 1.0 - 0.55 * 0.1 * (1.0 - q) - q
        assert shelving_lag_analytic(0.55, 0.1, 1400.0, 40e-6) == pytest.approx(
            -40e-6 / math.log(lam), rel=1e-12)
        with pytest.raises(ValidationError):
            shelving_lag_analytic(0.5, 0.1, 1400.0, 0.0)


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
        assert fit.value == pytest.approx(2.9, abs=0.1)

    def test_shot_noise_column(self):
        trace = sfs_generate(1.13e4, 2.9, 5.0, 35.0, 0.1, seed=34)
        assert np.allclose(trace.extra["shot_noise"], np.sqrt(trace.extra["expected"]))


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

    def test_threads_bounded_by_cpu_count(self, monkeypatch):
        """A huge worker count must not start a thread per chunk."""
        monkeypatch.setattr(photonstats, "_cpu_count", lambda: 4)
        requested = []

        class SerialPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(photonstats, "ThreadPoolExecutor", SerialPool)
        bounded = coupling_histogram(200_000, seed=46, workers=10**6)
        serial = coupling_histogram(200_000, seed=46, workers=1)
        assert requested == [4]
        assert np.array_equal(bounded.extra["count"], serial.extra["count"])

    def test_pool_size_one_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(photonstats, "ThreadPoolExecutor", NoPool)
        coupling_histogram(200_000, seed=46, workers=1)
        monkeypatch.setattr(photonstats, "_cpu_count", lambda: 1)
        coupling_histogram(200_000, seed=46, workers=4)
        scheme = EmitterLevelScheme(p_excite=0.55, p_detect=0.3, p_shelve=0.1)
        simulate_emitter_stream(scheme, 0.05, 3 * CHUNK, PERIOD, seed=46)
        simulate_emitter_stream(scheme, 0.001, 3 * CHUNK, PERIOD, seed=46)
        sparse = poisson_record(0.02, 3 * CHUNK, seed=46)
        g2_estimator(sparse, 100, min_norm_coincidences=0.0)

    def test_seed_checked_before_any_thread(self, monkeypatch):
        monkeypatch.setattr(photonstats, "ThreadPoolExecutor", NoPool)
        monkeypatch.setattr(photonstats, "_cpu_count", lambda: 2)
        scheme = EmitterLevelScheme(p_excite=0.55, p_detect=0.3, p_shelve=0.1)
        with pytest.raises(ValidationError, match="seed"):
            coupling_histogram(200_000, seed=-1, workers=2)
        with pytest.raises(ValidationError, match="seed"):
            simulate_emitter_stream(scheme, 0.05, 3 * CHUNK, PERIOD, seed=2**64)

    def test_sample_floor(self):
        with pytest.raises(ValidationError):
            coupling_histogram(100, seed=1)


class TestDeterminism:
    def test_identical_records_across_reruns(self):
        scheme = EmitterLevelScheme(p_excite=0.55, p_detect=0.036, p_shelve=0.1, shelf_recovery=1400.0)
        bg = 0.001
        first = simulate_emitter_stream(scheme, bg, 200_000, PERIOD, seed=99)
        second = simulate_emitter_stream(scheme, bg, 200_000, PERIOD, seed=99)
        assert np.array_equal(first.counts, second.counts)


# Reference implementations: the pulse-by-pulse shelving walk and the
# lag-by-lag coincidence sum that the array code replaced.


def reference_shelf_activity(emitted, shelve_draw, recover_draw):
    n = emitted.size
    active = np.ones(n, dtype=bool)
    shelf_candidates = np.flatnonzero(emitted & shelve_draw)
    recover_idx = np.flatnonzero(recover_draw)
    pos = 0
    while True:
        nxt = np.searchsorted(shelf_candidates, pos)
        if nxt == shelf_candidates.size:
            break
        j = shelf_candidates[nxt]
        r = np.searchsorted(recover_idx, j + 1)
        k = recover_idx[r] if r < recover_idx.size else n
        active[j + 1 : k] = False
        pos = k
    return active


def reference_coincidences(counts, max_lag):
    c = counts.astype(np.float64)
    out = np.empty(max_lag + 1)
    out[0] = float(np.dot(c, c) - c.sum())
    for m in range(1, max_lag + 1):
        out[m] = float(np.dot(c[:-m], c[m:]))
    return out


def single_draw_below(seed, stream_id, p, n):
    key = np.array([seed, stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random(n) < p


def reference_stream(scheme, background, n, period, seed):
    excite = single_draw_below(seed, 0, scheme.p_excite, n)
    detect = single_draw_below(seed, 1, scheme.p_detect, n)
    active = True
    if scheme.p_shelve > 0.0:
        shelve = single_draw_below(seed, 2, scheme.p_shelve, n)
        recover = single_draw_below(seed, 3, -math.expm1(-scheme.shelf_recovery * period), n)
        active = reference_shelf_activity(excite, shelve, recover)
    counts = (excite & detect & active).astype(np.int64)
    if background > 0.0:
        key = np.array([seed, 4], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        counts = counts + rng.poisson(background, n)
    return counts


class TestShelvingWalk:
    @pytest.mark.parametrize("p_shelve, q_recover", [
        (0.1, 0.05), (0.5, 0.001), (0.01, 0.5), (0.9, 0.9),
    ])
    def test_matches_reference_walk(self, p_shelve, q_recover):
        rng = np.random.default_rng(51)
        n = 100_000
        emitted = rng.random(n) < 0.6
        shelve = rng.random(n) < p_shelve
        recover = rng.random(n) < q_recover
        active = photonstats._shelf_activity(
            np.flatnonzero(emitted & shelve), np.flatnonzero(recover), n)
        assert active.dtype == bool
        assert np.array_equal(active, reference_shelf_activity(emitted, shelve, recover))

    @staticmethod
    def walk(n, candidates, recoveries):
        emitted = np.zeros(n, dtype=bool)
        emitted[candidates] = True
        recover = np.zeros(n, dtype=bool)
        recover[recoveries] = True
        active = photonstats._shelf_activity(
            np.array(candidates, dtype=np.intp), np.array(recoveries, dtype=np.intp), n)
        assert np.array_equal(active, reference_shelf_activity(emitted, emitted, recover))
        return np.flatnonzero(~active).tolist()

    def test_no_candidates(self):
        assert self.walk(10, [], [3, 7]) == []

    def test_no_recoveries_stays_dark_to_the_end(self):
        assert self.walk(10, [2, 5], []) == [3, 4, 5, 6, 7, 8, 9]

    def test_candidate_on_last_pulse(self):
        assert self.walk(10, [9], [4]) == []
        assert self.walk(10, [1, 9], [4]) == [2, 3]

    def test_recovery_right_after_shelving(self):
        assert self.walk(10, [2], [3]) == []
        assert self.walk(10, [2, 3, 6], [3, 5, 8]) == [4, 7]

    def test_candidates_inside_a_dark_run_are_ignored(self):
        assert self.walk(12, [1, 3, 4, 6], [6, 10]) == [2, 3, 4, 5, 7, 8, 9]

    def test_candidate_on_a_recovery_pulse(self):
        """The run it starts begins one pulse after the previous run ends."""
        assert self.walk(10, [2, 5], [5, 8]) == [3, 4, 6, 7]
        assert self.walk(10, [0, 1], [1, 3]) == [2]  # an empty run, then one from 2

    def test_empty_runs_at_the_ends(self):
        assert self.walk(10, [0], [1]) == []
        assert self.walk(10, [8, 9], [9]) == []  # the last candidate's run would start at n


# 0.001 is stitched from the pieces' draws whichever side of the crossover
# 0.05 falls on
BACKGROUNDS = (0.05, 0.001)


class TestChunkedDraws:
    N = 3 * CHUNK + 5

    @pytest.mark.parametrize("stream_id", [0, 1, 2, 3])
    def test_piece_equals_its_slice_of_the_single_draw(self, stream_id):
        """A generator set to a piece's counter draws that slice of one Philox draw."""
        key = np.array([77, stream_id], dtype=np.uint64)
        single = np.random.Generator(np.random.Philox(key=key)).random(self.N)
        for start in (0, CHUNK, 3 * CHUNK):
            piece = photonstats._stream(77, stream_id, start).random(self.N - start)
            assert np.array_equal(piece, single[start:])

    @pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, 3 * CHUNK + 5])
    @pytest.mark.parametrize("pool_size", [1, 2, 3])
    def test_record_independent_of_pool_size(self, monkeypatch, pool_size, n):
        """At 10 Hz recovery dark runs span about 2500 pulses and cross pieces."""
        monkeypatch.setattr(photonstats, "_cpu_count", lambda: pool_size)
        scheme = EmitterLevelScheme(
            p_excite=0.55, p_detect=0.3, p_shelve=0.1, shelf_recovery=10.0
        )
        for background in BACKGROUNDS:
            expected = reference_stream(scheme, background, n, PERIOD, 12345)
            record = simulate_emitter_stream(scheme, background, n, PERIOD, 12345)
            assert np.array_equal(record.counts, expected)

    def test_pieces_stay_apart_under_frequent_thread_switches(self, monkeypatch):
        """Eight threads write disjoint slices of one array, switching every microsecond."""
        monkeypatch.setattr(photonstats, "_cpu_count", lambda: 8)
        scheme = EmitterLevelScheme(
            p_excite=0.55, p_detect=0.3, p_shelve=0.1, shelf_recovery=10.0
        )
        n = 6 * CHUNK + 3
        expected = {bg: reference_stream(scheme, bg, n, PERIOD, 5) for bg in BACKGROUNDS}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                for background in BACKGROUNDS:
                    record = simulate_emitter_stream(scheme, background, n, PERIOD, 5)
                    assert np.array_equal(record.counts, expected[background])
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("p_shelve, background", [(0.0, 0.0), (0.1, 0.0), (0.1, 0.05)])
    def test_stream_matches_single_draw_reference(self, p_shelve, background):
        scheme = EmitterLevelScheme(
            p_excite=0.55, p_detect=0.3, p_shelve=p_shelve, shelf_recovery=1400.0
        )
        expected = reference_stream(scheme, background, self.N, PERIOD, 12345)
        record = simulate_emitter_stream(scheme, background, self.N, PERIOD, 12345)
        assert record.counts.dtype == np.int64
        assert np.array_equal(record.counts, expected)


# Probabilities at the edges of the raw-word thresholds: the least double,
# the least nonzero `random()`, one where p 2^53 is an integer (so the
# comparison must stay strict), the largest below 1, and 1, whose threshold
# 2^53 << 11 would not fit in uint64.
EDGE_PROBABILITIES = (0.0, 5e-324, 2.0**-53, 0.25, np.nextafter(1.0, 0.0), 1.0)


class TestThresholds:
    @staticmethod
    def words_around(k):
        """Words whose top 53 bits are k - 1, k and k + 1, at both ends of their low 11 bits."""
        tops = np.array([t for t in (k - 1, k, k + 1) if 0 <= t < 2**53], dtype=np.uint64)
        low = np.array([0, 2047], dtype=np.uint64)
        return (tops[:, None] << np.uint64(11) | low).ravel()

    @pytest.mark.parametrize("p", EDGE_PROBABILITIES + (0.3, 1e-300))
    def test_below_equals_comparing_the_doubles(self, p):
        k = min(math.ceil(p * 2**53), 2**53 - 1)
        words = np.concatenate([self.words_around(k), np.array([0, 2**64 - 1], dtype=np.uint64)])
        doubles = (words >> np.uint64(11)) * 2.0**-53
        assert np.array_equal(photonstats._below(words, p), doubles < p)

    @pytest.mark.parametrize("enlam", [
        math.exp(-5e-324), math.exp(-1e-17), math.exp(-2.0**-52), np.nextafter(1.0, 0.0),
        math.exp(-0.001), 0.75, math.exp(-12.0), 0.0,
    ])
    def test_hot_equals_comparing_the_doubles(self, enlam):
        k = min(math.floor(enlam * 2**53), 2**53 - 1)
        words = np.concatenate([self.words_around(k), np.array([0, 2**64 - 1], dtype=np.uint64)])
        doubles = (words >> np.uint64(11)) * 2.0**-53
        i, values = photonstats._hot(words, enlam)
        assert np.array_equal(i, np.flatnonzero(doubles > enlam))
        assert np.array_equal(values, doubles[i])

    @pytest.mark.parametrize("p_shelve", EDGE_PROBABILITIES)
    @pytest.mark.parametrize("p_excite", EDGE_PROBABILITIES)
    def test_stream_matches_reference_at_edge_probabilities(self, monkeypatch, p_excite, p_shelve):
        n = CHUNK + 5
        for p_detect in EDGE_PROBABILITIES:
            scheme = EmitterLevelScheme(p_excite, p_detect, p_shelve, shelf_recovery=1400.0)
            expected = reference_stream(scheme, NO_BACKGROUND, n, PERIOD, 12345)
            for pool_size in (1, 2, 3):
                monkeypatch.setattr(photonstats, "_cpu_count", lambda: pool_size)
                record = simulate_emitter_stream(scheme, NO_BACKGROUND, n, PERIOD, 12345)
                assert np.array_equal(record.counts, expected)


DARK = EmitterLevelScheme(p_excite=0.0, p_detect=0.5)  # the record is the background


class TestBackgroundDraw:
    """Stitched from the pieces or drawn serially, the background is one Poisson draw."""

    # exp(-mean) rounds to 1 at 5e-324 and 1e-17, so no double is hot; at
    # 2^-52 it is 1 - 2^-52, so the largest double is
    @pytest.mark.parametrize("n", [1, 5, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
    @pytest.mark.parametrize("mean", [
        5e-324, 1e-17, 2.0**-52, 1e-6, 1e-3, 0.02,
        np.nextafter(STITCH_MAX_BACKGROUND, 0.0), STITCH_MAX_BACKGROUND, 3.0, 9.99, 10.0, 12.0,
    ])
    def test_equals_one_poisson_draw(self, mean, n):
        for seed in (12345, 2**64 - 1):
            record = simulate_emitter_stream(DARK, mean, n, PERIOD, seed)
            assert np.array_equal(record.counts, reference_stream(DARK, mean, n, PERIOD, seed))

    @pytest.mark.parametrize("pool_size", [1, 2, 3])
    def test_stitch_at_a_large_mean(self, monkeypatch, pool_size):
        """At mean 0.3 a quarter of the doubles are hot: runs are long and cross n."""
        monkeypatch.setattr(photonstats, "STITCH_MAX_BACKGROUND", 10.0)
        monkeypatch.setattr(photonstats, "_cpu_count", lambda: pool_size)
        mean, seed = 0.3, 7
        key = np.array([seed, 4], dtype=np.uint64)
        hot = np.random.Generator(np.random.Philox(key=key)).random(4 * CHUNK) > math.exp(-mean)
        n = 3 * CHUNK + int(np.flatnonzero(hot[3 * CHUNK - 1:-1] & hot[3 * CHUNK:])[0])
        assert hot[n - 1] and hot[n]  # the draw goes on past n inside a hot run
        assert np.any(hot[:n - 5] & hot[1:n - 4] & hot[2:n - 3] & hot[3:n - 2] & hot[4:n - 1])
        record = simulate_emitter_stream(DARK, mean, n, PERIOD, seed)
        assert np.array_equal(record.counts, reference_stream(DARK, mean, n, PERIOD, seed))


class TestSparseCoincidences:
    @staticmethod
    def record(mean, occupancy, n=20_000):
        """Poisson counts kept on a random share `occupancy` of the pulses."""
        rng = np.random.default_rng(61)
        return rng.poisson(mean, n) * (rng.random(n) < occupancy)

    @pytest.mark.parametrize("max_lag", [4, 100, 1000])
    @pytest.mark.parametrize("mean", [0.5, 3.0])
    @pytest.mark.parametrize("occupancy", [0.02, 1.0], ids=["sparse", "dense"])
    def test_both_paths_match_reference(self, monkeypatch, max_lag, mean, occupancy):
        counts = self.record(mean, occupancy)
        assert counts.max() >= 2
        dense = np.count_nonzero(counts) / counts.size > SPARSE_MAX_OCCUPANCY
        assert dense == (occupancy == 1.0)
        expected = reference_coincidences(counts, max_lag)
        for pool_size in (1, 2, 3, 4, 5):
            monkeypatch.setattr(photonstats, "_cpu_count", lambda: pool_size)
            # 0: always the dot loop, 1: always the pair sum
            for threshold in (SPARSE_MAX_OCCUPANCY, 0.0, 1.0):
                monkeypatch.setattr(photonstats, "SPARSE_MAX_OCCUPANCY", threshold)
                assert np.array_equal(photonstats._coincidences(counts, max_lag), expected)

    @pytest.mark.parametrize("pool_size", [1, 2, 3])
    def test_pairs_across_part_boundaries(self, monkeypatch, pool_size):
        """Each thread sums the pairs that start in its pulse range; their partners lie past it."""
        monkeypatch.setattr(photonstats, "_cpu_count", lambda: pool_size)
        counts = np.zeros(2 * CHUNK, dtype=np.int64)
        counts[::21] = np.resize([1, 2, 3], counts[::21].size)  # 1, 2 or 3 every 21 pulses
        sample = counts[::64]
        assert np.count_nonzero(sample) <= SPARSE_MAX_OCCUPANCY * sample.size
        events = np.flatnonzero(counts)
        step = -(-counts.size // pool_size)
        bounds = range(step, counts.size, step)
        assert all(events[events >= b][0] - events[events < b][-1] <= 100 for b in bounds)
        expected = reference_coincidences(counts, 100)
        assert np.count_nonzero(expected) == 5  # lags 0, 21, 42, 63 and 84
        assert np.array_equal(photonstats._coincidences(counts, 100), expected)

    @pytest.mark.parametrize("pool_size", [1, 2, 3, 4, 5])
    def test_lag_beyond_the_range_length(self, monkeypatch, pool_size):
        """At max_lag 900 on 1000 pulses a range's pairs reach through the later ranges."""
        monkeypatch.setattr(photonstats, "_cpu_count", lambda: pool_size)
        monkeypatch.setattr(photonstats, "SPARSE_MAX_OCCUPANCY", 1.0)  # always the pair sum
        counts = np.zeros(1000, dtype=np.int64)
        # both sides of every range bound at 1-5 threads, and the first and last pulses
        steps = [-(-1000 // size) for size in range(2, 6)]  # range lengths at 2-5 threads
        bounds = {b for step in steps for b in range(step, 1000, step)}
        edges = sorted({0, 999} | bounds | {b - 1 for b in bounds})
        counts[edges] = np.resize([1, 2, 3, 5], len(edges))
        counts[np.random.default_rng(62).choice(1000, 40, replace=False)] += 1
        expected = reference_coincidences(counts, 900)
        assert np.array_equal(photonstats._coincidences(counts, 900), expected)

    def test_estimator_identical_on_either_path(self, monkeypatch):
        record = CountRecord(counts=self.record(0.5, 0.05, 200_000), period=PERIOD, seed=0)
        monkeypatch.setattr(photonstats, "SPARSE_MAX_OCCUPANCY", 0.0)
        dense = g2_estimator(record, 100, min_norm_coincidences=0.0)
        monkeypatch.setattr(photonstats, "SPARSE_MAX_OCCUPANCY", 1.0)
        sparse = g2_estimator(record, 100, min_norm_coincidences=0.0)
        assert np.array_equal(dense.y, sparse.y)
        assert np.array_equal(dense.extra["sigma"], sparse.extra["sigma"])

    @pytest.mark.parametrize("pool_size", [1, 2, 3])
    @pytest.mark.parametrize("threshold", [0.0, 1.0], ids=["dense", "sparse"])
    def test_sum_of_squares_below_2_53(self, monkeypatch, pool_size, threshold):
        """Sums stay exact below the bound; at it, and where an int64 square overflows, g2 refuses."""
        monkeypatch.setattr(photonstats, "_cpu_count", lambda: pool_size)
        monkeypatch.setattr(photonstats, "SPARSE_MAX_OCCUPANCY", threshold)
        counts = np.zeros(1000, dtype=np.int64)
        counts[[0, 999]] = 2**26 - 1  # sum of squares 2^53 - 2^28 + 2, split across the ranges
        expected = reference_coincidences(counts, 10)
        assert np.array_equal(photonstats._coincidences(counts, 10), expected)
        for big in (2**26, 4 * 10**9):  # 2^53 exactly; (4e9)^2 wraps in int64
            counts[[0, 999]] = big
            record = CountRecord(counts=counts, period=PERIOD, seed=0)
            with pytest.raises(ValidationError, match="squared counts per pulse below 2\\^53"):
                g2_estimator(record, 10, min_norm_coincidences=0.0)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16, np.uint64])
    def test_small_integer_dtypes(self, monkeypatch, dtype):
        """Products of counts that fit their dtype need not: 100 * 100 wraps in int8."""
        monkeypatch.setattr(photonstats, "SPARSE_MAX_OCCUPANCY", 1.0)  # always the pair sum
        counts = np.zeros(1000, dtype=dtype)
        counts[[10, 13, 500, 999]] = [100, 100, 3, 127]
        expected = reference_coincidences(counts, 5)
        assert expected[0] > 0 and expected[3] == 10_000
        assert np.array_equal(photonstats._coincidences(counts, 5), expected)

    def test_single_event_has_no_pairs(self):
        counts = np.zeros(100, dtype=np.int64)
        counts[50] = 3
        expected = np.zeros(11)
        expected[0] = 6.0
        assert np.array_equal(photonstats._coincidences(counts, 10), expected)

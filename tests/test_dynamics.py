import math

import numpy as np
import pytest

from rexsim.dynamics import (
    GROUND,
    BlochState,
    FitResult,
    PulseSegment,
    PulseSequence,
    TwoLevelParams,
    bloch_evolve,
    evolve_sequence,
    extract_rabi_frequencies,
    extract_t2star,
    fit_power_law,
    fit_pure_dephasing,
    fit_t2_from_echo,
    ramsey_beat_frequency,
    rabi_nutation_scan,
    simulate_echo_decay,
    simulate_ramsey,
    single_ion_threshold,
)
from rexsim.cavity import g0_from_rabi
from rexsim.errors import FitError, InconsistencyError, ValidationError
from rexsim.quantities import angular_from_ordinary as ang
from rexsim.spinbath import eseem_envelope
from rexsim.trace import TimeTrace

METHODS = ("exact", "adaptive")


class TestBlochClosedForms:
    @pytest.mark.parametrize("method", METHODS)
    def test_undriven_decay(self, method):
        p = TwoLevelParams(rabi=0.0, t1=5e-6, t2=7e-6)
        state = bloch_evolve(BlochState(0, 0, 1.0), p, 3e-6, method=method)
        expected = -1.0 + 2.0 * math.exp(-3e-6 / 5e-6)
        assert state.w == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("method", METHODS)
    def test_undamped_rabi_flopping(self, method):
        omega = ang(10e6)
        p = TwoLevelParams(rabi=omega)
        for t in (0.11e-6, 0.35e-6, 0.8e-6):
            state = bloch_evolve(GROUND, p, t, method=method)
            assert state.w == pytest.approx(-math.cos(omega * t), abs=1e-6)

    @pytest.mark.parametrize("method", METHODS)
    def test_driven_steady_state(self, method):
        """Textbook saturation formulas as the independent oracle."""
        omega, delta, t1, t2 = ang(3e6), ang(1e6), 5e-6, 8e-6
        p = TwoLevelParams(rabi=omega, detuning=delta, t1=t1, t2=t2)
        state = bloch_evolve(GROUND, p, 300e-6, method=method)
        den = 1 + (delta * t2) ** 2 + omega**2 * t1 * t2
        assert state.u == pytest.approx(-omega * delta * t2**2 / den, rel=1e-6, abs=1e-12)
        assert state.v == pytest.approx(-omega * t2 / den, rel=1e-6, abs=1e-12)
        assert state.w == pytest.approx(-(1 + (delta * t2) ** 2) / den, rel=1e-6)

    def test_ideal_pi_pulse_inverts(self):
        omega = ang(50e6)
        p = TwoLevelParams(rabi=omega, t1=1.0, t2=2.0)
        state = bloch_evolve(GROUND, p, math.pi / omega)
        assert state.w == pytest.approx(1.0, abs=1e-3)

    def test_methods_agree_on_random_segments(self, rng):
        for _ in range(25):
            t1 = rng.uniform(1e-6, 100e-6)
            p = TwoLevelParams(
                rabi=rng.uniform(0, ang(60e6)),
                detuning=rng.uniform(-ang(5e6), ang(5e6)),
                t1=t1,
                t2=rng.uniform(0.3, 1.0) * 2 * t1,
            )
            duration = rng.uniform(1e-9, 400e-9)
            exact = bloch_evolve(GROUND, p, duration, method="exact")
            adaptive = bloch_evolve(GROUND, p, duration, method="adaptive")
            assert np.allclose(exact.as_array(), adaptive.as_array(), atol=1e-7)


class TestBlochNorm:
    def test_norm_never_exceeds_unit_ball(self, rng):
        worst = 0.0
        for _ in range(500):
            t1 = rng.uniform(0.5e-6, 200e-6)
            t2 = rng.uniform(0.1, 1.0) * 2 * t1
            segments = tuple(
                PulseSegment(
                    duration=rng.uniform(1e-9, 2e-6),
                    rabi=rng.uniform(0, ang(100e6)) if rng.random() < 0.75 else 0.0,
                    phase=rng.uniform(0, 2 * math.pi),
                    detuning=rng.uniform(-ang(10e6), ang(10e6)),
                )
                for _ in range(4)
            )
            state = evolve_sequence(GROUND, PulseSequence(segments), t1, t2)
            worst = max(worst, state.norm())
        assert worst <= 1.0 + 1e-9

    def test_population_stays_physical(self, rng):
        p = TwoLevelParams(rabi=ang(40e6), detuning=ang(2e6), t1=3e-6, t2=5e-6)
        state = GROUND
        for _ in range(30):
            state = bloch_evolve(state, p, 100e-9)
            assert 0.0 <= state.excited_population <= 1.0 + 1e-12


class TestSequences:
    def test_hard_pulse_ramsey_matches_fringe_model(self):
        """Two instantaneous pi/2 pulses reproduce the interference model."""
        omega = ang(500e6)
        quarter = (math.pi / 2) / omega
        detuning_hz = 300e3
        for delay in (0.4e-6, 1.1e-6, 2.6e-6):
            seq = PulseSequence(
                (
                    PulseSegment(duration=quarter, rabi=omega),
                    PulseSegment(duration=delay, detuning=ang(detuning_hz)),
                    PulseSegment(duration=quarter, rabi=omega),
                )
            )
            state = evolve_sequence(GROUND, seq, math.inf, math.inf)
            model = 0.5 * (1 + math.cos(2 * math.pi * detuning_hz * delay))
            assert state.excited_population == pytest.approx(model, abs=1e-6)

    def test_phase_shifted_second_pulse(self):
        omega = ang(500e6)
        quarter = (math.pi / 2) / omega
        seq = PulseSequence(
            (
                PulseSegment(duration=quarter, rabi=omega),
                PulseSegment(duration=quarter, rabi=omega, phase=math.pi),
            )
        )
        state = evolve_sequence(GROUND, seq, math.inf, math.inf)
        # opposite phase undoes the first rotation
        assert state.w == pytest.approx(-1.0, abs=1e-6)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValidationError):
            PulseSequence(())

    def test_t2_clamp_and_rejection(self):
        clamped = TwoLevelParams(t1=1e-6, t2=2.05e-6)
        assert clamped.t2 == 2e-6
        with pytest.raises(InconsistencyError):
            TwoLevelParams(t1=1e-6, t2=2.5e-6)


class TestRabiNutation:
    def test_peaks_at_odd_pi_areas(self):
        g0 = ang(28.5e6)
        pulse = 250e-9
        nbar = np.linspace(0.0, 0.2, 4000)
        scan = rabi_nutation_scan(g0, nbar, pulse, t1=1e-3, t2=2e-3)
        nb, omegas = extract_rabi_frequencies(scan, pulse)
        areas = 2 * g0 * np.sqrt(nb) * pulse
        for k, area in enumerate(areas):
            assert area == pytest.approx((k + 1) * math.pi, rel=0.02)

    def test_zero_photons_zero_pl(self):
        scan = rabi_nutation_scan(ang(28.5e6), np.array([0.0, 0.001]), 250e-9, 2.1e-6, 4.0e-6)
        assert scan.y[0] == pytest.approx(0.0, abs=1e-12)

    def test_g0_round_trip_through_fit(self):
        g0 = ang(28.5e6)
        pulse = 250e-9
        nbar = np.linspace(0.0, 0.2, 4000)
        scan = rabi_nutation_scan(g0, nbar, pulse, t1=1e-3, t2=2e-3)
        fitted, _ = g0_from_rabi(*extract_rabi_frequencies(scan, pulse))
        assert fitted == pytest.approx(g0, rel=0.02)

    def test_damping_lowers_contrast(self):
        nbar = np.linspace(0.0, 0.05, 500)
        weak = rabi_nutation_scan(ang(28.5e6), nbar, 250e-9, t1=1e-3, t2=2e-3)
        strong = rabi_nutation_scan(ang(28.5e6), nbar, 250e-9, t1=0.5e-6, t2=1e-6)
        assert strong.y.max() < weak.y.max()



class TestBatchedPropagation:
    """One batched matrix exponential against one bloch_evolve call per point or segment."""

    @pytest.mark.parametrize("t1, t2", [(2.1e-6, 4.0e-6), (math.inf, math.inf)],
                             ids=["damped", "undamped"])
    @pytest.mark.parametrize("detuning", [0.0, ang(1.3e6)], ids=["resonant", "detuned"])
    def test_scan_is_bitwise_the_per_point_loop(self, t1, t2, detuning):
        g0, pulse = ang(28.5e6), 250e-9  # the rexsim rabi defaults
        nbar = np.linspace(0.0, 0.2, 400)
        scan = rabi_nutation_scan(g0, nbar, pulse, t1, t2, detuning)
        loop = [
            bloch_evolve(
                GROUND,
                TwoLevelParams(rabi=2.0 * g0 * math.sqrt(n), detuning=detuning, t1=t1, t2=t2),
                pulse,
            ).excited_population
            for n in nbar
        ]
        assert np.array_equal(scan.y, loop)

    def test_sequence_is_bitwise_segment_by_segment(self):
        rng = np.random.default_rng(14)
        for k in range(200):
            t1 = rng.uniform(0.5e-6, 200e-6)
            t2 = rng.uniform(0.1, 1.0) * 2 * t1
            segments = [
                PulseSegment(
                    duration=0.0 if i == k % 4 else rng.uniform(1e-9, 2e-6),
                    rabi=rng.uniform(0, ang(100e6)) if rng.random() < 0.75 else 0.0,
                    phase=rng.uniform(0, 2 * math.pi),
                    detuning=rng.uniform(-ang(10e6), ang(10e6)),
                )
                for i in range(4)
            ]
            state = GROUND
            for seg in segments:
                p = TwoLevelParams(rabi=seg.rabi, detuning=seg.detuning, t1=t1, t2=t2)
                state = bloch_evolve(state, p, seg.duration, phase=seg.phase)
            assert evolve_sequence(GROUND, PulseSequence(tuple(segments)), t1, t2) == state


DRIVEN = TwoLevelParams(rabi=1e7, t1=1e-6, t2=1e-6)
REJECTED = {
    "segment-nan": lambda: PulseSegment(math.nan),
    "segment-inf": lambda: PulseSegment(math.inf),
    "evolve-nan": lambda: bloch_evolve(GROUND, DRIVEN, math.nan),
    "evolve-inf": lambda: bloch_evolve(GROUND, DRIVEN, math.inf),
    "scan-pulse-nan": lambda: rabi_nutation_scan(ang(28.5e6), [0.1], math.nan, 2.1e-6, 4e-6),
    "scan-pulse-inf": lambda: rabi_nutation_scan(ang(28.5e6), [0.1], math.inf, 2.1e-6, 4e-6),
    "t1-nan": lambda: TwoLevelParams(t1=math.nan, t2=1e-6),
    "t2-nan": lambda: TwoLevelParams(t1=1e-6, t2=math.nan),
}


@pytest.mark.parametrize("make", REJECTED.values(), ids=REJECTED)
def test_non_finite_bloch_inputs_rejected(make):
    with pytest.raises(ValidationError):
        make()


class TestRamsey:
    def test_envelope_nodes_at_beat_period(self):
        beat = 740e3
        delays = np.linspace(1e-9, 12e-6, 6000)
        trace = simulate_ramsey(delays, t2_star=4e-6, beat=beat)
        fringe = 2 * trace.y - 1
        near_node = np.abs(np.cos(math.pi * beat * delays)) < 0.02
        assert np.all(np.abs(fringe[near_node]) < 0.02)
        # consecutive node clusters are spaced by 1/beat = 1.35 us
        node_times = delays[near_node]
        gaps = np.diff(node_times)
        real_gaps = gaps[gaps > 0.5e-6]
        assert real_gaps.size >= 7
        assert np.allclose(real_gaps, 1 / beat, rtol=0.03)

    def test_no_beat_is_monotone(self):
        delays = np.linspace(1e-9, 12e-6, 300)
        trace = simulate_ramsey(delays, t2_star=4e-6, beat=0.0, detuning=0.0)
        assert np.all(np.diff(trace.y) < 0)
        assert np.allclose(2 * trace.y - 1, np.exp(-delays / 4e-6), rtol=1e-12)

    def test_beat_frequency_detection(self):
        delays = np.arange(1, 3200) * 12.5e-9
        trace = simulate_ramsey(delays, t2_star=4e-6, beat=741.5e3)
        bin_width = 1.0 / (delays[-1] - delays[0])
        assert abs(ramsey_beat_frequency(trace) - 741.5e3) <= bin_width


class TestExtractT2Star:
    def test_noiseless_recovery(self):
        delays = np.linspace(0.05e-6, 12e-6, 960)
        trace = simulate_ramsey(delays, t2_star=4.0e-6, beat=740e3)
        fit = extract_t2star(trace)
        assert fit.value == pytest.approx(4.0e-6, rel=0.01)

    def test_matches_log_linear_on_pure_exponential(self):
        t = np.linspace(0.1e-6, 10e-6, 200)
        envelope = 0.7 * np.exp(-t / 3.3e-6)
        trace = TimeTrace(x=t, y=envelope, y_name="envelope")
        fit = extract_t2star(trace)
        slope = np.polyfit(t, np.log(envelope), 1)[0]
        assert fit.value == pytest.approx(-1.0 / slope, rel=1e-9)

    def test_noisy_recovery_within_two_sigma(self):
        """Monte Carlo calibration: estimates stay within 2 sigma of truth and
        the reported standard error covers the replica spread."""
        delays = np.linspace(0.05e-6, 12e-6, 960)
        clean = simulate_ramsey(delays, t2_star=4.0e-6, beat=740e3)
        estimates, errors = [], []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            noisy = TimeTrace(
                x=clean.x, y=clean.y * (1 + 0.05 * rng.standard_normal(clean.y.size))
            )
            fit = extract_t2star(noisy)
            estimates.append(fit.value)
            errors.append(fit.stderr)
        estimates = np.asarray(estimates)
        sigma = estimates.std(ddof=1)
        assert abs(np.mean(estimates) - 4.0e-6) < 2 * sigma
        # at least 17/20 replicas inside their own 2-sigma band (~95% coverage)
        covered = np.abs(estimates - 4.0e-6) < 2 * np.asarray(errors)
        assert covered.sum() >= 17
        assert sigma == pytest.approx(np.mean(errors), rel=0.6)

    def test_rejects_growing_envelope(self):
        t = np.linspace(0.1e-6, 10e-6, 50)
        with pytest.raises(FitError):
            extract_t2star(TimeTrace(x=t, y=np.exp(t / 5e-6)))

    def test_needs_enough_points(self):
        with pytest.raises(FitError):
            extract_t2star(TimeTrace(x=np.linspace(0, 1e-6, 5), y=np.ones(5)))


class TestEchoDecay:
    def test_unmodulated_log_slope(self):
        t12 = np.linspace(0.2e-6, 30e-6, 400)
        trace = simulate_echo_decay(t12, t2=25.4e-6)
        slope = np.polyfit(t12, np.log(trace.y), 1)[0]
        assert slope == pytest.approx(-4 / 25.4e-6, rel=1e-9)

    def test_fit_round_trip(self):
        t12 = np.linspace(0.2e-6, 30e-6, 400)
        trace = simulate_echo_decay(t12, t2=25.4e-6)
        fit = fit_t2_from_echo(trace, t_min=4e-6)
        assert fit.value == pytest.approx(25.4e-6, rel=0.02)

    def test_fit_with_modulation(self):
        t12 = np.linspace(0.05e-6, 30e-6, 600)
        envelope = eseem_envelope(741.5e3, 789.5e3, 0.2, t12)
        trace = simulate_echo_decay(t12, t2=25.4e-6, envelope=envelope)
        fit = fit_t2_from_echo(trace, t_min=4e-6)
        assert fit.value == pytest.approx(25.4e-6, rel=0.05)

    def test_envelope_on_a_shifted_grid_is_rejected(self):
        # 9 ns off a 50 ns grid lies within np.allclose's default atol of 1e-8
        t12 = np.linspace(0.05e-6, 30e-6, 600)
        envelope = eseem_envelope(741.5e3, 789.5e3, 0.2, t12 + 9e-9)
        with pytest.raises(ValidationError, match="same t12 grid"):
            simulate_echo_decay(t12, t2=25.4e-6, envelope=envelope)

    def test_early_window_flags_larger_residuals(self):
        """ESEEM that damps away leaves a clean tail; fitting the head is flagged."""
        t12 = np.linspace(0.05e-6, 30e-6, 600)
        mims = eseem_envelope(741.5e3, 789.5e3, 0.4, t12)
        damped = 1.0 + (mims.y - 1.0) * np.exp(-t12 / 3e-6)
        trace = simulate_echo_decay(
            t12, t2=25.4e-6, envelope=TimeTrace(x=t12, y=damped, y_name="envelope")
        )
        head = fit_t2_from_echo(trace, t_min=0.0)
        tail = fit_t2_from_echo(trace, t_min=4e-6)
        assert head.residual_rms > 2 * tail.residual_rms
        assert tail.value == pytest.approx(25.4e-6, rel=0.02)

    def test_modulation_spectrum_content(self):
        from rexsim.spectral import spectral_peaks, modulation_spectrum

        dg, de = 741.5e3, 789.5e3
        t12 = np.arange(1, 4001) * 50e-9
        envelope = eseem_envelope(dg, de, 0.2, t12)
        trace = simulate_echo_decay(t12, t2=25.4e-6, envelope=envelope)
        flattened = trace.y / np.exp(-4 * t12 / 25.4e-6)
        freq, amp = modulation_spectrum(t12, flattened)
        peaks = spectral_peaks(freq, amp, rel_threshold=0.1)
        bin_width = freq[1] - freq[0]
        expected = np.array([de - dg, dg, de, de + dg])
        assert len(peaks) == len(expected)
        assert np.all(np.abs(np.sort(peaks) - np.sort(expected)) <= bin_width)

    def test_fit_needs_points_beyond_window(self):
        t12 = np.linspace(0.2e-6, 10e-6, 50)
        trace = simulate_echo_decay(t12, t2=20e-6)
        with pytest.raises(FitError):
            fit_t2_from_echo(trace, t_min=9.9e-6)


class TestEchoRamseyConsistency:
    def test_echo_beats_at_twice_ramsey_rate(self):
        """The echo envelope oscillates at the full splitting, the Ramsey
        fringe at half of it (the echo forms after twice the delay)."""
        from rexsim.spectral import dominant_beat

        dg = 741.5e3
        t = np.arange(1, 6400) * 12.5e-9
        ramsey = simulate_ramsey(t, t2_star=1e3, beat=dg)  # negligible decay
        echo_env = eseem_envelope(dg, dg, 0.3, t)  # degenerate: single beat at dg
        f_ramsey = dominant_beat(t, ramsey.y)
        f_echo = dominant_beat(t, echo_env.y)
        assert f_echo == pytest.approx(2 * f_ramsey, rel=0.02)
        assert f_ramsey == pytest.approx(dg / 2, rel=0.02)


class TestPureDephasingFit:
    def test_exact_recovery(self):
        gamma_star = 9.7e3
        t1 = np.array([2e-6, 5e-6, 20e-6, 60e-6, 90e-6])
        t2 = 1.0 / (math.pi * (gamma_star + 1.0 / (2 * math.pi * t1)))
        fit = fit_pure_dephasing(np.column_stack([t1, t2]))
        assert fit.value == pytest.approx(gamma_star, rel=1e-9)

    def test_radiative_limit_gives_zero(self):
        t1 = np.array([2e-6, 10e-6, 50e-6])
        fit = fit_pure_dephasing(np.column_stack([t1, 2 * t1]))
        assert fit.value == pytest.approx(0.0, abs=1e-6)

    def test_noisy_recovery_within_two_sigma(self):
        rng = np.random.default_rng(3)
        gamma_star = 9.7e3
        t1 = np.linspace(2e-6, 90e-6, 12)
        y = 1.0 / (2 * math.pi * t1) + gamma_star + 0.6e3 * rng.standard_normal(t1.size)
        t2 = 1.0 / (math.pi * y)
        fit = fit_pure_dephasing(np.column_stack([t1, t2]))
        assert abs(fit.value - gamma_star) < 2 * fit.stderr

    def test_needs_two_points(self):
        with pytest.raises(FitError):
            fit_pure_dephasing(np.array([[1e-6, 2e-6]]))


class TestPowerLaw:
    def test_exact_recovery(self):
        delta = np.geomspace(1.0, 30.0, 40)
        counts = 1.13e4 * delta**-2.9
        fit = fit_power_law(delta, counts)
        assert fit.exponent == pytest.approx(2.9, rel=1e-9)
        assert fit.amplitude == pytest.approx(1.13e4, rel=1e-6)

    def test_constant_data(self):
        delta = np.geomspace(1.0, 30.0, 20)
        fit = fit_power_law(delta, np.full(20, 7.0))
        assert fit.exponent == pytest.approx(0.0, abs=1e-9)

    def test_poisson_noise_recovery(self):
        rng = np.random.default_rng(5)
        delta = np.geomspace(1.0, 20.0, 120)
        counts = rng.poisson(1.13e4 * delta**-2.9).astype(float)
        usable = counts > 0
        fit = fit_power_law(delta[usable], counts[usable])
        assert fit.exponent == pytest.approx(2.9, abs=0.1)

    def test_rejects_non_positive(self):
        with pytest.raises(ValidationError):
            fit_power_law(np.array([1.0, 2.0]), np.array([1.0, 0.0]))


class TestSingleIonThreshold:
    def test_unit_amplitude(self):
        assert single_ion_threshold(1.0, 2.9) == 1.0

    def test_reference_threshold(self):
        assert single_ion_threshold(1.13e4, 2.9) == pytest.approx(25.0, rel=0.01)

    def test_large_exponent_limit(self):
        assert single_ion_threshold(50.0, 2000.0) == pytest.approx(1.0, rel=1e-2)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            single_ion_threshold(-1.0, 2.9)


def test_fit_result_is_frozen():
    fit = FitResult(value=1.0, stderr=0.1, residual_rms=0.0, n_points=3)
    with pytest.raises(Exception):
        fit.value = 2.0

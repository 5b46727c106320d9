"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
tolerance is fixed here, not computed at run time.
"""

import math
import subprocess
import sys

import numpy as np
from scipy import stats

from rexsim import photonstats
from rexsim.cavity import (
    cavity_lifetime,
    cooperativity,
    detection_budget,
    g0_from_rabi,
    kappa_from_q,
    max_coupling_g0,
    max_purcell,
    measured_purcell,
)
from rexsim.cli import main
from rexsim.config import default_document
from rexsim.dynamics import (
    GROUND,
    BlochState,
    PulseSegment,
    PulseSequence,
    TwoLevelParams,
    bloch_evolve,
    evolve_sequence,
    extract_t2star,
    fit_power_law,
    fit_pure_dephasing,
    fit_t2_from_echo,
    ramsey_beat_frequency,
    simulate_echo_decay,
    simulate_ramsey,
)
from rexsim.photonstats import (
    CountRecord,
    EmitterLevelScheme,
    g2_estimator,
    g2_zero_analytic,
    sfs_generate,
    simulate_emitter_stream,
)
from rexsim.quantities import angular_from_ordinary as ang
from rexsim.spectral import modulation_spectrum, spectral_peaks
from rexsim.spectroscopy import (
    LocalFieldModel,
    dipole_moment,
    local_field_correction,
    radiative_lifetime,
    zeeman_splitting,
)
from rexsim.spinbath import (
    SpinBathSite,
    electronic_moment,
    eseem_envelope,
    flipflop_added_dephasing,
    flipflop_gamma_sd,
    flipflop_tm,
    sublevel_count_and_range,
    superhyperfine_splitting,
)

CHI_REAL = local_field_correction(2.1785, LocalFieldModel.REAL)
PERIOD = 40e-6


def check(criterion: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion:>2}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def rel(value, reference):
    return abs(value - reference) / reference


def test_criterion_01_oscillator_strength(material):
    from rexsim.spectroscopy import oscillator_strength

    f = oscillator_strength(material, CHI_REAL)
    check(1, rel(f, 3.7e-5) <= 0.02, f"f = {f:.4g} vs 3.7e-5 (2%)")


def test_criterion_02_radiative_lifetime_and_branching(material, transition):
    t_rad = radiative_lifetime(
        transition.oscillator_strength, 2.1785, 880e-9, LocalFieldModel.REAL
    )
    ok = rel(t_rad, 237e-6) <= 0.02 and rel(transition.branching_ratio, 0.38) <= 0.02
    check(
        2,
        ok,
        f"T_rad = {t_rad * 1e6:.2f} us vs 237 us (2%), beta = "
        f"{transition.branching_ratio:.4f} vs 0.38 (2%)",
    )


def test_criterion_03_dipole_moment(material, transition):
    mu = dipole_moment(transition.oscillator_strength, material.angular_frequency)
    check(3, rel(mu, 1.59e-31) <= 0.02, f"mu = {mu:.4g} C m vs 1.59e-31 (2%)")


def test_criterion_04_coupling_and_purcell(material, transition):
    omega = material.angular_frequency
    g0 = max_coupling_g0(transition.dipole_moment, 2.1785, omega, 0.056e-18)
    f_direct = max_purcell(880e-9, 2.1785, CHI_REAL, 3900, 0.056e-18)
    f_cross = 4 * g0**2 * transition.radiative_lifetime / kappa_from_q(omega, 3900)
    ok = (
        rel(g0, ang(52.7e6)) <= 0.02
        and rel(f_direct, 189) <= 0.03
        and rel(f_cross, f_direct) <= 0.03
    )
    check(
        4,
        ok,
        f"g0 = 2pi x {g0 / (2 * math.pi * 1e6):.2f} MHz vs 52.7 (2%), "
        f"F = {f_direct:.1f} vs 189 (3%), cross-route F = {f_cross:.1f} (3%)",
    )


def test_criterion_05_cavity_lifetime_and_measured_purcell(transition):
    t_cav = cavity_lifetime(ang(52.7e6), ang(90e9), 0.38, 90e-6)
    f_meas = measured_purcell(2.1e-6, 90e-6, transition.branching_ratio, transition.radiative_lifetime)
    ok = rel(t_cav, 1.25e-6) <= 0.05 and rel(f_meas, 111) <= 0.02
    check(
        5,
        ok,
        f"T_cav = {t_cav * 1e6:.3f} us vs 1.25 us (5%), measured F = {f_meas:.1f} vs 111 (2%)",
    )


def test_criterion_06_cooperativity():
    c = cooperativity(ang(28.5e6), ang(90e9), 25.4e-6)
    c10 = cooperativity(ang(28.5e6), ang(9e9), 25.4e-6)
    ok = rel(c, 2.9) <= 0.03 and rel(c10, 29) <= 0.10
    check(6, ok, f"C = {c:.3f} vs 2.9 (3%), C(Qx10) = {c10:.2f} vs 29 (10%)")


def test_criterion_07_indistinguishability_and_zeeman():
    from rexsim.cavity import indistinguishability

    indist = indistinguishability(4.0e-6, 2.1e-6)
    splitting = zeeman_splitting(2.36, 0.39)
    ok = (
        abs(indist - 4.0 / 4.2) < 1e-12
        and round(indist, 3) == 0.952
        and rel(splitting, 12.88e9) <= 0.005
    )
    check(
        7,
        ok,
        f"T2/(2 T1) = {indist:.6f} (= 0.952), Zeeman = {splitting / 1e9:.3f} GHz vs 12.88 (0.5%)",
    )


def test_criterion_08_detection_budget():
    _, total = detection_budget(default_document().detection_chain())
    ok = abs(total - 0.036) <= 0.005
    check(8, ok, f"budget = {total:.4f} vs 0.036 (0.005 absolute)")


def test_criterion_09_superhyperfine():
    ground = electronic_moment(2.36)
    excited = electronic_moment(0.9)
    y_site = SpinBathSite("Y", 0.5, 2.1e6, 3.9e-10)
    v_site = SpinBathSite("V", 3.5, 11.2e6, 3.14e-10)
    zero_field = superhyperfine_splitting(y_site, ground, 0.0)
    dg = superhyperfine_splitting(y_site, ground, 0.39)
    de = superhyperfine_splitting(y_site, excited, 0.39)
    count, smallest, largest = sublevel_count_and_range(v_site, ground, 0.39)
    ok = (
        rel(zero_field, 80e3) <= 0.15
        and rel(dg, 740e3) <= 0.10
        and rel(de, 790e3) <= 0.10
        and count == 8
        and smallest >= 3e6
        and largest <= 35e6
    )
    check(
        9,
        ok,
        f"zero-field = {zero_field / 1e3:.1f} kHz vs 80 (15%), Dg = {dg / 1e3:.1f} kHz vs 740 "
        f"(10%), De = {de / 1e3:.1f} kHz vs 790 (10%), V levels = {count}, "
        f"V splittings [{smallest / 1e6:.2f}, {largest / 1e6:.2f}] MHz in [3, 35]",
    )


def test_criterion_10_eseem_ramsey_consistency():
    ground = electronic_moment(2.36)
    excited = electronic_moment(0.9)
    y_site = SpinBathSite("Y", 0.5, 2.1e6, 3.9e-10)
    dg = superhyperfine_splitting(y_site, ground, 0.39)
    de = superhyperfine_splitting(y_site, excited, 0.39)

    delays = np.arange(1, 3200) * 12.5e-9
    ramsey = simulate_ramsey(delays, t2_star=4.0e-6, beat=dg)
    beat = ramsey_beat_frequency(ramsey)
    bin_ramsey = 1.0 / (delays[-1] - delays[0])
    ramsey_ok = abs(beat - 740e3) <= bin_ramsey

    t12 = np.arange(1, 4001) * 50e-9
    envelope = eseem_envelope(dg, de, 0.2, t12)
    echo = simulate_echo_decay(t12, t2=25.4e-6, envelope=envelope)
    flattened = echo.y / np.exp(-4 * t12 / 25.4e-6)
    freq, amp = modulation_spectrum(t12, flattened)
    peaks = np.sort(spectral_peaks(freq, amp, rel_threshold=0.1))
    expected = np.sort([dg, de, de - dg, de + dg])
    bin_echo = freq[1] - freq[0]
    echo_ok = peaks.size == 4 and np.all(np.abs(peaks - expected) <= bin_echo)
    check(
        10,
        ramsey_ok and echo_ok,
        f"Ramsey peak = {beat / 1e3:.1f} kHz (740 +- {bin_ramsey / 1e3:.0f} kHz bin); echo "
        f"spectrum peaks = {np.round(peaks / 1e3, 1).tolist()} kHz vs "
        f"{np.round(expected / 1e3, 1).tolist()} (one {bin_echo / 1e3:.0f} kHz bin each)",
    )


def test_criterion_11_flipflop_model():
    gamma0 = 1e3
    x = 1e-6
    tm = flipflop_tm(gamma0, x * math.pi * gamma0**2, 1.0)
    limit_err = abs(1.0 / (math.pi * tm) - gamma0) / gamma0
    params = default_document().flipflop_params()
    added = flipflop_added_dephasing(
        params.intrinsic_linewidth, flipflop_gamma_sd(params), params.flip_rate
    )
    ok = limit_err < 1e-4 and 15.0 <= added <= 60.0
    check(
        11,
        ok,
        f"limit error = {limit_err:.2e} (< 1e-4 at x = 1e-6); added dephasing = "
        f"{added:.1f} Hz within factor 2 of 30 Hz (Gamma_0 = "
        f"{params.intrinsic_linewidth / 1e3:.0f} kHz, free parameter)",
    )


def test_criterion_12_fit_round_trips():
    details = []
    ok = True

    # gamma*: exact then noisy
    t1 = np.linspace(2e-6, 90e-6, 12)
    t2 = 1.0 / (math.pi * (9.7e3 + 1.0 / (2 * math.pi * t1)))
    fit = fit_pure_dephasing(np.column_stack([t1, t2]))
    ok &= rel(fit.value, 9.7e3) <= 0.02
    rng = np.random.default_rng(1)
    y = 1.0 / (2 * math.pi * t1) + 9.7e3 * (1 + 0.05 * rng.standard_normal(t1.size))
    noisy = fit_pure_dephasing(np.column_stack([t1, 1.0 / (math.pi * y)]))
    ok &= abs(noisy.value - 9.7e3) <= 2 * noisy.stderr
    details.append(f"gamma* = {fit.value / 1e3:.3f} kHz")

    # power-law exponent
    delta = np.geomspace(1.0, 30.0, 50)
    fit = fit_power_law(delta, 1.13e4 * delta**-2.9)
    ok &= rel(fit.value, 2.9) <= 0.02
    noisy_counts = 1.13e4 * delta**-2.9 * (1 + 0.05 * rng.standard_normal(delta.size))
    noisy = fit_power_law(delta, noisy_counts)
    ok &= abs(noisy.value - 2.9) <= 2 * noisy.stderr
    details.append(f"p = {fit.value:.3f}")

    # T2* from Ramsey fringes
    delays = np.linspace(0.05e-6, 12e-6, 960)
    clean = simulate_ramsey(delays, t2_star=4.0e-6, beat=740e3)
    fit = extract_t2star(clean)
    ok &= rel(fit.value, 4.0e-6) <= 0.02
    noisy_trace = simulate_ramsey(delays, t2_star=4.0e-6, beat=740e3)
    noisy_trace.y *= 1 + 0.05 * rng.standard_normal(delays.size)
    noisy = extract_t2star(noisy_trace)
    ok &= abs(noisy.value - 4.0e-6) <= 2 * max(noisy.stderr, 0.01 * 4.0e-6)
    details.append(f"T2* = {fit.value * 1e6:.3f} us")

    # T2 from echo decay
    t12 = np.linspace(0.2e-6, 30e-6, 500)
    echo = simulate_echo_decay(t12, t2=25.4e-6)
    fit = fit_t2_from_echo(echo, t_min=4e-6)
    ok &= rel(fit.value, 25.4e-6) <= 0.02
    noisy_echo = simulate_echo_decay(t12, t2=25.4e-6)
    noisy_echo.y *= 1 + 0.05 * rng.standard_normal(t12.size)
    noisy = fit_t2_from_echo(noisy_echo, t_min=4e-6)
    ok &= abs(noisy.value - 25.4e-6) <= 2 * max(noisy.stderr, 0.01 * 25.4e-6)
    details.append(f"T2 = {fit.value * 1e6:.3f} us")

    # g0 from Rabi rates
    nbar = np.linspace(0.05, 4.0, 25)
    rabi = 2 * ang(28.5e6) * np.sqrt(nbar)
    g0, _ = g0_from_rabi(nbar, rabi)
    ok &= rel(g0, ang(28.5e6)) <= 0.02
    noisy_rabi = rabi * (1 + 0.05 * rng.standard_normal(nbar.size))
    g0n, g0err = g0_from_rabi(nbar, noisy_rabi)
    ok &= abs(g0n - ang(28.5e6)) <= 2 * g0err
    details.append(f"g0 = 2pi x {g0 / (2 * math.pi * 1e6):.2f} MHz")

    check(12, ok, "noiseless within 2%, 5% noise within 2 sigma: " + ", ".join(details))


def test_criterion_13_photon_statistics():
    # Poisson calibration: flat correlation
    counts = np.random.default_rng(100).poisson(0.25, 400_000)
    record = CountRecord(counts=counts, period=PERIOD, seed=100)
    flat = g2_estimator(record, max_lag=30)
    poisson_ok = bool(np.all(np.abs(flat.y - 1.0) < 3.5 * flat.extra["sigma"]))

    # Monte Carlo vs analytic antibunching at rho = 0.954
    rho = 0.954
    signal = 0.02
    scheme = EmitterLevelScheme(p_excite=0.5, p_detect=signal / 0.5, p_shelve=0.0)
    background = signal * (1 - rho) / rho
    record = simulate_emitter_stream(scheme, background, 6_000_000, PERIOD, seed=101)
    trace = g2_estimator(record, max_lag=50)
    analytic = g2_zero_analytic(rho)
    anti_ok = abs(trace.y[0] - analytic) <= 3 * trace.extra["sigma"][0]

    # bunching shoulder below 600 us with shelving, absent without
    shelving = EmitterLevelScheme(p_excite=0.6, p_detect=0.5, p_shelve=0.05, shelf_recovery=1.0 / 600e-6)
    bunchy = g2_estimator(
        simulate_emitter_stream(shelving, 0.0, 3_000_000, PERIOD, seed=102),
        max_lag=100,
    )
    below = bunchy.x[1:] < 600e-6
    shoulder_ok = bool(
        np.all(bunchy.y[1:][below] > 1.0 + 3 * bunchy.extra["sigma"][1:][below])
    )
    plain = EmitterLevelScheme(p_excite=0.6, p_detect=0.5, p_shelve=0.0)
    flat2 = g2_estimator(
        simulate_emitter_stream(plain, 0.0, 3_000_000, PERIOD, seed=103),
        max_lag=100,
    )
    no_shoulder_ok = not bool(np.any(flat2.y[1:] > 1.0 + 3 * flat2.extra["sigma"][1:]))

    # SFS Poisson dispersion at the 5% level
    sfs = sfs_generate(1.13e4, 2.9, 5.0, 35.0, 0.05, seed=104)
    expected = sfs.extra["expected"]
    heavy = expected >= 5.0
    x2 = float(np.sum((sfs.y[heavy] - expected[heavy]) ** 2 / expected[heavy]))
    dof = int(np.count_nonzero(heavy))
    sfs_ok = stats.chi2.ppf(0.025, dof) < x2 < stats.chi2.ppf(0.975, dof)

    ok = poisson_ok and anti_ok and shoulder_ok and no_shoulder_ok and sfs_ok
    check(
        13,
        ok,
        f"Poisson flat: {poisson_ok}; g2(0) = {trace.y[0]:.4f} vs {analytic:.4f} "
        f"(3 sigma = {3 * trace.extra['sigma'][0]:.4f}); shoulder<600us: {shoulder_ok}; "
        f"no shelving no shoulder: {no_shoulder_ok}; SFS chi2/dof = {x2 / dof:.3f}: {sfs_ok}",
    )


def test_criterion_14_bloch_solver(rng):
    worst_closed_form = 0.0
    for method in ("exact", "adaptive"):
        p = TwoLevelParams(rabi=0.0, t1=5e-6, t2=7e-6)
        state = bloch_evolve(BlochState(0, 0, 1.0), p, 3e-6, method=method)
        worst_closed_form = max(
            worst_closed_form,
            abs(state.w - (-1 + 2 * math.exp(-3e-6 / 5e-6))) / abs(-1 + 2 * math.exp(-0.6)),
        )
        omega = ang(10e6)
        state = bloch_evolve(GROUND, TwoLevelParams(rabi=omega), 0.35e-6, method=method)
        worst_closed_form = max(
            worst_closed_form, abs(state.w + math.cos(omega * 0.35e-6))
        )
        omega, delta, t1, t2 = ang(3e6), ang(1e6), 5e-6, 8e-6
        state = bloch_evolve(
            GROUND, TwoLevelParams(rabi=omega, detuning=delta, t1=t1, t2=t2), 300e-6, method=method
        )
        den = 1 + (delta * t2) ** 2 + omega**2 * t1 * t2
        worst_closed_form = max(
            worst_closed_form, abs(state.w - (-(1 + (delta * t2) ** 2) / den)) / abs(state.w)
        )
    closed_ok = worst_closed_form < 1e-6

    worst_norm = 0.0
    for _ in range(10_000):
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
        worst_norm = max(worst_norm, state.norm())
    norm_ok = worst_norm <= 1.0 + 1e-9
    check(
        14,
        closed_ok and norm_ok,
        f"closed-form worst rel error = {worst_closed_form:.2e} (< 1e-6); worst Bloch norm "
        f"over 1e4 random sequences = 1 + {worst_norm - 1:.2e} (<= 1 + 1e-9)",
    )


def test_criterion_15_worker_determinism(tmp_path, monkeypatch, capsys):
    payloads = {}
    config = tmp_path / "fast.ini"
    config.write_text(
        "[simulation]\np_detect = 0.5\nbackground_per_pulse = 0.02\n", encoding="utf-8"
    )
    # histogram runs a thread per CPU, so it runs in process with the CPU count
    # pinned to 1 and to 4; sfs and g2 run twice as separate processes
    for run, cpus in enumerate((1, 4)):
        monkeypatch.setattr(photonstats, "_cpu_count", lambda: cpus)
        out = tmp_path / f"histogram_{run}.csv"
        assert main(["histogram", "--samples", "200000", "--seed", "11", "--out", str(out)]) == 0
        payloads[("histogram", run)] = out.read_bytes()
    capsys.readouterr()
    jobs = {
        "sfs": ["sfs", "--bin-mhz", "50"],
        "g2": ["g2", "--config", str(config), "--pulses", "400000", "--max-lag", "40"],
    }
    for name, argv in jobs.items():
        for run in range(2):
            out = tmp_path / f"{name}_{run}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "rexsim.cli", *argv, "--seed", "11", "--out", str(out)],
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            payloads[(name, run)] = out.read_bytes()
    ok = all(payloads[(name, 0)] == payloads[(name, 1)] for name in ("histogram", *jobs))
    check(15, ok, "histogram CSVs byte-identical on 1 and 4 threads, "
                  "sfs and g2 CSVs byte-identical across two runs at seed 11")

"""Optical Bloch dynamics, time-domain experiment simulators and fitters.

The driven two-level emitter is described by the Bloch vector (u, v, w) with
w = -1 the ground state and equations of motion

    du/dt = -u/T2 + Delta v
    dv/dt = -v/T2 - Delta u + Omega w
    dw/dt = -Omega v - (w + 1)/T1

for a resonant drive of Rabi rate Omega (rad/s) detuned by Delta (rad/s).
Pulse sequences are piecewise constant, so each segment is propagated with
the exact matrix exponential of the affine system (machine precision and
strictly contractive, which keeps the Bloch vector inside the unit ball);
a pulse, a nutation scan or a sequence takes one batched exponential. An
adaptive Runge-Kutta path is kept for cross-validation. scipy is imported
where it is called, so importing this module loads numpy only.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FitError, ValidationError
from .quantities import AngularRate, OrdinaryFrequency, check_radiative_limit
from .spectral import dominant_beat, interior_maxima, line_fit
from .trace import TimeTrace


@dataclass(frozen=True)
class TwoLevelParams:
    """Drive and relaxation parameters of the two-level emitter.

    T2 above the radiative limit 2*T1 is clamped to 2*T1 within a 5%
    tolerance band and rejected beyond it. Infinite lifetimes are allowed
    (undamped dynamics); NaN is not.
    """

    rabi: AngularRate = 0.0
    detuning: AngularRate = 0.0
    t1: float = math.inf
    t2: float = math.inf

    def __post_init__(self):
        if not (self.t1 > 0.0 and self.t2 > 0.0):
            raise ValidationError(f"T1 and T2 must be positive, got {self.t1} s and {self.t2} s")
        check_radiative_limit(self.t1, self.t2)
        object.__setattr__(self, "t2", min(self.t2, 2.0 * self.t1))


@dataclass(frozen=True)
class PulseSegment:
    """One piecewise-constant drive interval; rabi = 0 means free evolution."""

    duration: float
    rabi: AngularRate = 0.0
    phase: float = 0.0
    detuning: AngularRate = 0.0

    def __post_init__(self):
        if not 0.0 <= self.duration < math.inf:
            raise ValidationError(f"segment duration must be in [0, inf), got {self.duration}")


@dataclass(frozen=True)
class PulseSequence:
    segments: tuple[PulseSegment, ...]

    def __post_init__(self):
        if len(self.segments) == 0:
            raise ValidationError("pulse sequence must contain at least one segment")


@dataclass(frozen=True)
class BlochState:
    u: float = 0.0
    v: float = 0.0
    w: float = -1.0

    def as_array(self) -> np.ndarray:
        return np.array([self.u, self.v, self.w], dtype=float)

    def norm(self) -> float:
        return math.sqrt(self.u**2 + self.v**2 + self.w**2)

    @property
    def excited_population(self) -> float:
        return (1.0 + self.w) / 2.0


GROUND = BlochState(0.0, 0.0, -1.0)


def _generators(rabi, detuning, phase, t1: float, t2: float) -> np.ndarray:
    """Stacked generators G of d(u, v, w, 1)/dt = G (u, v, w, 1), shape (..., 4, 4)."""
    g1 = 0.0 if math.isinf(t1) else 1.0 / t1
    g2 = 0.0 if math.isinf(t2) else 1.0 / t2
    ox = rabi * np.cos(phase)
    oy = rabi * np.sin(phase)
    gen = np.zeros(np.shape(ox) + (4, 4))
    gen[..., 0, 0] = gen[..., 1, 1] = -g2
    gen[..., 2, 2] = gen[..., 2, 3] = -g1
    gen[..., 0, 1], gen[..., 1, 0] = detuning, -detuning
    gen[..., 0, 2], gen[..., 2, 0] = oy, -oy
    gen[..., 1, 2], gen[..., 2, 1] = ox, -ox
    return gen


def _propagators(gens: np.ndarray, durations) -> np.ndarray:
    """exp(G t) for each stacked generator: the module's one matrix exponential.

    scipy's expm runs the same Pade code on every slice, so a batch has the
    bits of one call per generator.
    """
    from scipy.linalg import expm

    return expm(gens * np.asarray(durations, dtype=float)[..., None, None])


def bloch_evolve(
    state: BlochState,
    p: TwoLevelParams,
    duration: float,
    method: str = "exact",
    phase: float = 0.0,
) -> BlochState:
    """Evolve a Bloch state under constant drive for ``duration`` seconds.

    method "exact" uses the matrix exponential of the augmented affine
    system (exact for constant coefficients); "adaptive" integrates with an
    embedded Runge-Kutta pair at rtol 1e-8 and atol 1e-10 and exists mainly
    to cross-check the exact path.
    """
    if not 0.0 <= duration < math.inf:
        raise ValidationError(f"duration must be finite and non-negative, got {duration}")
    if duration == 0.0:
        return state
    gen = _generators(p.rabi, p.detuning, phase, p.t1, p.t2)
    if method == "exact":
        return BlochState(*(_propagators(gen, duration) @ np.append(state.as_array(), 1.0))[:3])
    if method == "adaptive":
        from scipy.integrate import solve_ivp

        a, b = gen[:3, :3], gen[:3, 3]
        sol = solve_ivp(lambda t, y: a @ y + b, (0.0, duration), state.as_array(),
                        method="RK45", rtol=1e-8, atol=1e-10)
        if not sol.success:
            raise FitError(f"Bloch integrator failed: {sol.message}")
        return BlochState(*sol.y[:, -1])
    raise ValidationError(f"unknown method '{method}'")


def evolve_sequence(
    state: BlochState, sequence: PulseSequence, t1: float, t2: float
) -> BlochState:
    """Apply each segment of a pulse sequence in order."""
    p = TwoLevelParams(t1=t1, t2=t2)
    drive = np.array([(s.rabi, s.detuning, s.phase, s.duration) for s in sequence.segments])
    for prop in _propagators(_generators(*drive[:, :3].T, p.t1, p.t2), drive[:, 3]):
        state = BlochState(*(prop @ np.append(state.as_array(), 1.0))[:3])
    return state


def steady_state(p: TwoLevelParams) -> BlochState:
    """Analytic steady state of the driven, damped Bloch equations."""
    if math.isinf(p.t1) or math.isinf(p.t2):
        raise ValidationError("steady state requires finite T1 and T2")
    gen = _generators(p.rabi, p.detuning, 0.0, p.t1, p.t2)
    return BlochState(*np.linalg.solve(gen[:3, :3], -gen[:3, 3]))


def rabi_nutation_scan(
    g0: AngularRate,
    nbar: np.ndarray,
    pulse_duration: float,
    t1: float,
    t2: float,
    detuning: AngularRate = 0.0,
) -> TimeTrace:
    """Excited population after a square pulse, versus cavity photon number.

    The intracavity field drives the emitter at Omega = 2 g0 sqrt(nbar);
    the recorded photoluminescence is proportional to the excited population
    at the end of the pulse.
    """
    if not 0.0 < pulse_duration < math.inf:
        raise ValidationError(f"pulse duration must be positive and finite, got {pulse_duration}")
    nbar = np.asarray(nbar, dtype=float)
    if np.any(nbar < 0.0):
        raise ValidationError("photon numbers must be non-negative")
    p = TwoLevelParams(t1=t1, t2=t2)
    gens = _generators(2.0 * g0 * np.sqrt(nbar), detuning, 0.0, p.t1, p.t2)
    final = _propagators(gens, pulse_duration) @ np.append(GROUND.as_array(), 1.0)
    return TimeTrace(
        x=nbar,
        y=(1.0 + final[..., 2]) / 2.0,
        x_name="nbar",
        x_unit="photons",
        y_name="excited_population",
        y_unit="dimensionless",
        metadata={
            "g0_rad_s": g0,
            "pulse_s": pulse_duration,
            "t1_s": t1,
            "t2_s": t2,
            "detuning_rad_s": detuning,
        },
    )


def extract_rabi_frequencies(
    scan: TimeTrace, pulse_duration: float
) -> tuple[np.ndarray, np.ndarray]:
    """Rabi rates from the extrema of a nutation scan.

    Peaks correspond to odd multiples of pi pulse area and valleys to even
    multiples; walking the extrema in order of increasing nbar assigns the
    areas pi, 2pi, 3pi, ... so Omega = area / pulse_duration at each
    extremum. Returns (nbar values, Omega values in rad/s).
    """
    extrema = np.union1d(interior_maxima(scan.y), interior_maxima(-scan.y))
    if extrema.size == 0:
        raise FitError("no Rabi extrema found in scan")
    areas = math.pi * np.arange(1, extrema.size + 1)
    return scan.x[extrema], areas / pulse_duration


def simulate_ramsey(
    delays: np.ndarray,
    t2_star: float,
    beat: OrdinaryFrequency = 0.0,
    detuning: OrdinaryFrequency = 0.0,
) -> TimeTrace:
    """Normalized Ramsey fringes for two pi/2 pulses separated by ``delays``.

    The probed doublet is split by ``beat`` (Hz), giving the two-frequency
    interference S(t) = (1 + cos(2 pi detuning t) cos(pi beat t) exp(-t/T2*)) / 2
    whose envelope has nodes spaced by 1/beat.
    """
    if t2_star <= 0.0:
        raise ValidationError("T2* must be positive")
    delays = np.asarray(delays, dtype=float)
    fringe = (
        np.cos(2.0 * math.pi * detuning * delays)
        * np.cos(math.pi * beat * delays)
        * np.exp(-delays / t2_star)
    )
    return TimeTrace(
        x=delays,
        y=0.5 * (1.0 + fringe),
        x_name="delay",
        x_unit="s",
        y_name="ramsey_signal",
        y_unit="dimensionless",
        metadata={"t2_star_s": t2_star, "beat_hz": beat, "detuning_hz": detuning},
    )


@dataclass(frozen=True)
class FitResult:
    """Point estimate with standard error and residual diagnostics."""

    value: float
    stderr: float
    residual_rms: float
    n_points: int
    extras: dict = field(default_factory=dict)


def _log_linear_fit(t: np.ndarray, amplitude: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line through (t, log amplitude): slope, slope SE, rms."""
    mask = amplitude > 0.0
    if np.count_nonzero(mask) < 2:
        raise FitError("not enough positive points for a log-linear fit")
    slope, _, slope_se, rms = line_fit(t[mask], np.log(amplitude[mask]))
    return slope, slope_se, rms


def extract_t2star(trace: TimeTrace) -> FitResult:
    """Inhomogeneous dephasing time from the decay of a fringe pattern.

    An oscillating trace is referenced to its mean (the fringes average
    out) and fitted globally to A cos(2 pi f t + phi) exp(-t/T2*), with the
    fringe frequency seeded from the spectrum; the fitted f, amplitude and
    phase are reported in ``extras``. A monotone trace is treated as a bare
    envelope and fitted by log-linear regression.
    """
    if len(trace) < 8:
        raise FitError("need at least 8 points to extract T2*")
    mean = float(np.mean(trace.y))
    sign_changes = int(np.count_nonzero(np.diff(np.sign(trace.y - mean)) != 0))
    detrended = trace.y - (mean if sign_changes >= 4 else 0.0)
    sign_changes = int(np.count_nonzero(np.diff(np.sign(detrended)) != 0))
    if sign_changes >= 4:
        return _fit_damped_fringe(trace.x, detrended)
    env = np.abs(detrended)
    slope, slope_se, rms = _log_linear_fit(trace.x, env)
    if slope >= 0.0:
        raise FitError("envelope does not decay; cannot extract T2*")
    return FitResult(
        value=-1.0 / slope,
        stderr=slope_se / slope**2,
        residual_rms=rms,
        n_points=int(trace.x.size),
    )


def _fit_damped_fringe(t: np.ndarray, signal: np.ndarray) -> FitResult:
    """Nonlinear least squares of A cos(2 pi f t + phi) exp(-t/tau) + c.

    The free offset c absorbs the residual baseline error left by the mean
    subtraction (the fringe does not average to exactly zero over a finite
    window), which matters downstream when the envelope is divided out.
    """
    from scipy.optimize import curve_fit

    f0 = dominant_beat(t, signal)

    def model(tt, amplitude, frequency, phase, tau, offset):
        return (
            amplitude * np.cos(2.0 * math.pi * frequency * tt + phase) * np.exp(-tt / tau)
            + offset
        )

    p0 = (float(np.max(np.abs(signal))), f0, 0.0, float(t[-1] - t[0]) / 3.0, 0.0)
    try:
        popt, pcov = curve_fit(model, t, signal, p0=p0, maxfev=20000)
    except RuntimeError as exc:
        raise FitError(f"fringe fit did not converge: {exc}") from None
    tau = popt[3]
    if not np.isfinite(tau) or tau <= 0.0:
        raise FitError("envelope does not decay; cannot extract T2*")
    residuals = signal - model(t, *popt)
    return FitResult(
        value=float(tau),
        stderr=float(np.sqrt(pcov[3, 3])),
        residual_rms=float(np.sqrt(np.mean(residuals**2))),
        n_points=int(t.size),
        extras={
            "amplitude": float(abs(popt[0])),
            "fringe_frequency_hz": float(abs(popt[1])),
            "phase_rad": float(popt[2]),
            "offset": float(popt[4]),
        },
    )


def ramsey_beat_frequency(trace: TimeTrace) -> float:
    """Beat frequency of a Ramsey fringe pattern, in Hz.

    The fringe envelope |cos(pi beat t)| repeats at the beat frequency, so
    squaring the detrended signal puts a spectral line exactly there. The
    envelope decay and residual baseline are divided out first (using the
    fitted fringe model) so that their spectral feet cannot outgrow the
    beat line.
    """
    fit = extract_t2star(trace)
    baseline = float(np.mean(trace.y)) + fit.extras.get("offset", 0.0)
    flattened = (trace.y - baseline) * np.exp(trace.x / fit.value)
    return dominant_beat(trace.x, flattened**2)


def simulate_echo_decay(
    t12: np.ndarray, t2: float, envelope: TimeTrace | None = None
) -> TimeTrace:
    """Two-pulse photon-echo intensity versus inter-pulse delay t12.

    I(t12) = exp(-4 t12 / T2) V(t12)^2 with V the superhyperfine echo
    envelope: a TimeTrace on the same t12 grid, or None for V = 1. The
    factor 4 reflects the intensity convention: the echo amplitude decays
    as exp(-2 t12/T2) over the total dephasing-rephasing time 2*t12.
    """
    if t2 <= 0.0:
        raise ValidationError("T2 must be positive")
    t12 = np.asarray(t12, dtype=float)
    intensity = np.exp(-4.0 * t12 / t2)
    if envelope is not None:
        if envelope.x.shape != t12.shape or not np.allclose(envelope.x, t12):
            raise ValidationError("envelope must be sampled on the same t12 grid")
        intensity = intensity * envelope.y**2
    return TimeTrace(
        x=t12,
        y=intensity,
        x_name="t12",
        x_unit="s",
        y_name="echo_intensity",
        y_unit="dimensionless",
        metadata={"t2_s": t2, "modulated": envelope is not None},
    )


def fit_t2_from_echo(trace: TimeTrace, t_min: float = 0.0) -> FitResult:
    """T2 from the linear section of a log-intensity echo decay.

    Restricts the log-linear regression to t12 >= t_min (discarding the
    superhyperfine-modulated head); T2 = -4/slope. The residual rms in the
    report flags fits contaminated by modulation.
    """
    if math.isnan(t_min):
        raise ValidationError("fit window start t_min is NaN")
    mask = trace.x >= t_min
    if np.count_nonzero(mask) < 5:
        raise FitError(f"need at least 5 points beyond t_min = {t_min:.3g} s")
    slope, slope_se, rms = _log_linear_fit(trace.x[mask], trace.y[mask])
    if slope >= 0.0:
        raise FitError("echo intensity does not decay")
    t2 = -4.0 / slope
    return FitResult(
        value=t2,
        stderr=4.0 * slope_se / slope**2,
        residual_rms=rms,
        n_points=int(np.count_nonzero(mask)),
    )


def fit_pure_dephasing(points: np.ndarray) -> FitResult:
    """Pure dephasing rate gamma* from paired (T1, T2) measurements.

    Fits 1/(pi T2) = 1/(2 pi T1) + gamma* with unit slope, i.e. gamma* is
    the mean of y - x; the standard error is that of the mean. Input is an
    (n, 2) array of (T1, T2) in seconds; the result is in Hz.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2 or points.shape[0] < 2:
        raise FitError("need at least two (T1, T2) pairs")
    if np.any(points <= 0.0):
        raise ValidationError("lifetimes must be positive")
    t1, t2 = points[:, 0], points[:, 1]
    offsets = 1.0 / (math.pi * t2) - 1.0 / (2.0 * math.pi * t1)
    gamma_star = float(np.mean(offsets))
    stderr = float(np.std(offsets, ddof=1) / math.sqrt(offsets.size))
    rms = float(np.sqrt(np.mean((offsets - gamma_star) ** 2)))
    return FitResult(value=gamma_star, stderr=stderr, residual_rms=rms, n_points=offsets.size)


@dataclass(frozen=True)
class PowerLawFit:
    exponent: float
    amplitude: float
    exponent_stderr: float
    residual_rms: float
    n_points: int


def fit_power_law(detuning: np.ndarray, counts: np.ndarray) -> PowerLawFit:
    """Fit N(Delta) = A * Delta^-p by linear regression in log-log space."""
    detuning = np.asarray(detuning, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if detuning.size != counts.size or detuning.size < 2:
        raise FitError("need at least two (detuning, count) points")
    if np.any(detuning <= 0.0) or np.any(counts <= 0.0):
        raise ValidationError("power-law data must be strictly positive")
    slope, intercept, slope_se, rms = line_fit(np.log(detuning), np.log(counts))
    return PowerLawFit(
        exponent=-slope,
        amplitude=math.exp(intercept),
        exponent_stderr=slope_se,
        residual_rms=rms,
        n_points=int(detuning.size),
    )


def single_ion_threshold(amplitude: float, exponent: float) -> float:
    """Detuning beyond which fewer than one ion falls in the excitation bandwidth.

    Solves A * Delta^-p = 1, so Delta* = A^(1/p) in whatever detuning unit
    the amplitude was fitted in.
    """
    if amplitude <= 0.0 or exponent <= 0.0:
        raise ValidationError("amplitude and exponent must be positive")
    return amplitude ** (1.0 / exponent)

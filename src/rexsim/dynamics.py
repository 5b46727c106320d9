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
adaptive Runge-Kutta path is kept for cross-validation; it is the only code
here that imports scipy, where it is called. Everything else, the damped
fringe fit included, runs on numpy alone.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FitError, ValidationError
from .quantities import AngularRate, OrdinaryFrequency, check_radiative_limit
from .spectral import interior_maxima, line_fit, modulation_spectrum
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


# Higham (2005), SIAM J. Matrix Anal. Appl. 26:1179: the [13/13] Pade
# coefficients over b0, so that exp(0) is exactly the identity, and the
# largest 1-norm at which that approximant is accurate to double precision.
_PADE13 = np.array([
    64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800,
    129060195264000, 10559470521600, 670442572800, 33522128640, 1323241920,
    40840800, 960960, 16380, 182, 1,
]) / 64764752532480000
_THETA13 = 5.371920351148152


def _propagators(gens: np.ndarray, durations) -> np.ndarray:
    """exp(G t) for each stacked generator: the module's one matrix exponential.

    Scaling and squaring of the Pade-13 approximant, each slice by its own
    power of two, so a batch has the bits of one call per generator.
    """
    a = gens * np.asarray(durations, dtype=float)[..., None, None]
    norm = np.max(np.sum(np.abs(a), axis=-2), axis=-1)
    if not np.all(norm < 2.0**52):
        raise ValidationError(
            f"propagator argument too large (1-norm {np.max(norm):.3g} of G t, limit 2^52):"
            " its phase has no significant bits left")
    # the least s with norm / 2^s <= theta13; frexp, since log2 of a
    # zero-duration slice's norm would divide by zero
    mantissa, exponent = np.frexp(norm / _THETA13)
    squarings = np.maximum(exponent - (mantissa == 0.5), 0)
    a = a / np.ldexp(1.0, squarings)[..., None, None]
    b, eye = _PADE13, np.eye(4)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2
             + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + eye
    r = np.linalg.solve(v - u, v + u)
    for k in range(int(squarings.max(initial=0))):
        r = np.where((squarings > k)[..., None, None], r @ r, r)
    return r


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
    vec = np.append(state.as_array(), 1.0)
    for prop in _propagators(_generators(*drive[:, :3].T, p.t1, p.t2), drive[:, 3]):
        vec = prop @ vec
        vec[3] = 1.0  # as bloch_evolve's fresh (u, v, w, 1), for its bits
    return BlochState(*vec[:3])


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
    if beat < 0.0:
        raise ValidationError(f"beat is a splitting and cannot be negative, got {beat} Hz")
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


# The damped-tone fit's Levenberg-Marquardt stops once a step would move each
# frequency and tau by less than _FRINGE_XTOL of its value. Its damping never
# drops below _FRINGE_MIN_DAMPING, so the rejections that end a run stay few.
# Noisy detuned fringes can wander a flat valley for a few hundred steps.
_FRINGE_XTOL = 1e-9
_FRINGE_MIN_DAMPING = 1e-9
_FRINGE_MAX_STEPS = 1000
# The pencil seeds on at most this many block means; the refine uses every sample.
_PENCIL_MAX_POINTS = 1024


@dataclass(frozen=True)
class FitResult:
    """Point estimate with standard error and residual diagnostics."""

    value: float
    stderr: float
    residual_rms: float
    n_points: int
    extras: dict = field(default_factory=dict)


def extract_t2star(trace: TimeTrace) -> FitResult:
    """Dephasing time T2* of a Ramsey trace, from one damped-tone fit.

    Fits c + exp(-t/T2*) sum_k (a_k cos 2 pi f_k t + b_k sin 2 pi f_k t) with
    one or two tones; a tone at f = 0 is a trace with no beat. The tones of
    simulate_ramsey lie at beat/2 -+ detuning, which the trace alone cannot
    tell apart, so |detuning| < beat/2 is assumed. ``extras`` holds
    ``beat_hz``, the sum of the tones (twice a single tone), ``detuning_hz``,
    half their difference, the ascending ``tones_hz`` and the ``offset`` c.

    A matrix pencil seeds f_k and tau. Variable projection (Golub & Pereyra
    1973, SIAM J. Numer. Anal. 10:413) refines them: the 2K + 1 amplitudes
    come from one linear least squares per trial (f_k, tau), and
    Levenberg-Marquardt moves (f_k, tau) along Kaufman's projected Jacobian.
    A zero tone's sine column is all zero, hence lstsq and pinv. The stderr
    of tau comes from the full Jacobian with s^2 = SSR / (n - 3K - 2).
    """
    if len(trace) < 8:
        raise FitError("need at least 8 points to extract T2*")
    t, y = trace.x, trace.y
    if np.ptp(y) == 0.0:
        raise FitError("trace is flat; cannot extract T2*")
    omega = 2.0 * math.pi * t

    def project(theta):
        """Basis, linear coefficients, residuals and the (f_k, tau) model slopes."""
        phase, envelope = np.outer(omega, theta[:-1]), np.exp(-t / theta[-1])[:, None]
        cos, sin = np.cos(phase) * envelope, np.sin(phase) * envelope
        basis = np.column_stack([cos, sin, np.ones_like(t)])
        coef = np.linalg.lstsq(basis, y, rcond=None)[0]
        a, b = np.split(coef[:-1], 2)
        slopes = np.column_stack(
            [omega[:, None] * (b * cos - a * sin), t / theta[-1] ** 2 * (cos @ a + sin @ b)])
        return basis, slopes, y - basis @ coef, coef

    damping = 1e-3
    try:
        theta = _pencil_seed(t, y)
        basis, slopes, residuals, coef = project(theta)
        for _ in range(_FRINGE_MAX_STEPS):
            jac = slopes - basis @ np.linalg.lstsq(basis, slopes, rcond=None)[0]
            jtj = jac.T @ jac
            step = np.linalg.lstsq(jtj + damping * np.diag(np.diag(jtj)), jac.T @ residuals,
                                   rcond=None)[0]
            if np.all(np.abs(step) <= _FRINGE_XTOL * np.abs(theta)):
                break
            trial = theta + step
            if trial[-1] > 0.0:
                fitted = project(trial)
                if fitted[2] @ fitted[2] < residuals @ residuals:
                    theta, (basis, slopes, residuals, coef) = trial, fitted
                    damping = max(0.1 * damping, _FRINGE_MIN_DAMPING)
                    continue
            damping *= 10.0
        else:
            raise FitError(f"fringe fit did not converge in {_FRINGE_MAX_STEPS} steps")
        jac = np.column_stack([slopes, basis])
        scale = np.linalg.norm(jac, axis=0)
        scale[scale == 0.0] = 1.0
        cov = np.linalg.pinv((jac / scale).T @ (jac / scale)) / np.outer(scale, scale)
    except np.linalg.LinAlgError as exc:
        raise FitError(f"fringe fit is degenerate: {exc}") from None
    # trials with tau <= 0 are rejected, so a growing envelope drives tau up
    # until the fit degenerates or tau leaves the floats
    tau, tones = theta[-1], np.sort(np.abs(theta[:-1]))
    if not math.isfinite(tau):
        raise FitError("envelope does not decay; cannot extract T2*")
    ssr = float(residuals @ residuals)
    return FitResult(
        value=float(tau),
        stderr=math.sqrt(cov[tones.size, tones.size] * ssr / (t.size - 3 * tones.size - 2)),
        residual_rms=math.sqrt(ssr / t.size),
        n_points=int(t.size),
        extras={
            "beat_hz": 2.0 * float(np.mean(tones)),
            "detuning_hz": float(np.ptp(tones)) / 2.0,
            "tones_hz": tuple(tones.tolist()),
            "offset": float(coef[-1]),
        },
    )


def _pencil_seed(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Seed (f_1, ..., f_K, tau) of ``extract_t2star`` by a matrix pencil.

    Hua & Sarkar (1990), IEEE Trans. ASSP 38:814: the poles z = exp(s dt) are
    the eigenvalues of the one-row shift of the leading right singular
    vectors of the trace's Hankel matrix H, of width n/3, from eigh of H^T H.
    H's column means are removed first: the offset is the same in every row,
    so no pole stands for it, and the fits take it as a constant column. BIC
    picks 1, 2 or 4 poles (a bare decay, one tone or two), with the residual
    floored at rounding level. Weightless poles are dropped. The pencil sees
    at most _PENCIL_MAX_POINTS block means, each at most a quarter period of
    the highest frequency above 0.1 of the spectral peak, so no tone aliases;
    the tail past that many blocks is left out.
    """
    amplitude = modulation_spectrum(t, y)[1]  # and checks that the grid is uniform
    cycles = np.flatnonzero(amplitude >= 0.1 * amplitude.max())[-1]
    block = max(1, min(-(-y.size // _PENCIL_MAX_POINTS), y.size // (4 * max(cycles, 1))))
    n, dt = min(y.size // block, _PENCIL_MAX_POINTS), block * (t[1] - t[0])
    y = y[: n * block].reshape(n, block).mean(axis=1) / np.max(np.abs(y))
    width = n // 3
    hankel = np.lib.stride_tricks.sliding_window_view(y, width + 1)
    hankel = hankel - hankel.mean(axis=0)
    vectors = np.linalg.eigh(hankel.T @ hankel)[1]
    best = math.inf
    for order in [order for order in (1, 2, 4) if order <= width]:
        v = vectors[:, -order:]
        z = np.linalg.eigvals(np.linalg.pinv(v[:-1]) @ v[1:]).astype(complex)
        # each column peaks at 1, where it starts or ends, so none overflows
        vander = z ** (np.arange(n)[:, None] - (n - 1) * (np.abs(z) > 1.0))
        basis = np.column_stack([vander, np.ones(n)])
        amp = np.linalg.lstsq(basis, y, rcond=None)[0]
        residual = y - (basis @ amp).real
        bic = n * math.log(max(residual @ residual / n, 1e-20)) + 2 * order * math.log(n)
        if bic < best:
            best, poles, weights = bic, z, np.abs(amp[:-1]) * np.linalg.norm(vander, axis=0)
    keep = weights > 1e-8 * weights.max()
    s, weights = np.log(poles[keep]) / dt, weights[keep]
    tones = s[s.imag >= 0.0][np.argsort(-weights[s.imag >= 0.0])[:2]]
    if not tones.real.sum() < 0.0:
        raise FitError("envelope does not decay; cannot extract T2*")
    return np.append(tones.imag / (2.0 * math.pi), -tones.size / tones.real.sum())


def ramsey_beat_frequency(trace: TimeTrace) -> float:
    """Beat frequency of a Ramsey trace in Hz: ``extract_t2star``'s ``beat_hz``."""
    return extract_t2star(trace).extras["beat_hz"]


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
        if not np.array_equal(envelope.x, t12):
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
    t12, intensity = trace.x[mask], trace.y[mask]
    positive = intensity > 0.0
    if np.count_nonzero(positive) < 2:
        raise FitError("not enough positive points for a log-linear fit")
    slope, _, slope_se, rms = line_fit(t12[positive], np.log(intensity[positive]))
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


def fit_power_law(detuning: np.ndarray, counts: np.ndarray) -> FitResult:
    """Fit N(Delta) = A * Delta^-p by linear regression in log-log space.

    ``value`` is the exponent p and ``stderr`` its standard error; A is
    ``extras["amplitude"]``.
    """
    detuning = np.asarray(detuning, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if detuning.size != counts.size or detuning.size < 2:
        raise FitError("need at least two (detuning, count) points")
    if np.any(detuning <= 0.0) or np.any(counts <= 0.0):
        raise ValidationError("power-law data must be strictly positive")
    slope, intercept, slope_se, rms = line_fit(np.log(detuning), np.log(counts))
    return FitResult(
        value=-slope,
        stderr=slope_se,
        residual_rms=rms,
        n_points=int(detuning.size),
        extras={"amplitude": math.exp(intercept)},
    )


def single_ion_threshold(amplitude: float, exponent: float) -> float:
    """Detuning beyond which fewer than one ion falls in the excitation bandwidth.

    Solves A * Delta^-p = 1, so Delta* = A^(1/p) in whatever detuning unit
    the amplitude was fitted in.
    """
    if amplitude <= 0.0 or exponent <= 0.0:
        raise ValidationError("amplitude and exponent must be positive")
    return amplitude ** (1.0 / exponent)

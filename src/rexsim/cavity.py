"""Cavity-QED figures of merit.

Purcell factors, vacuum coupling rate, intracavity photon number,
Purcell-shortened lifetime, cooperativity, indistinguishability, the photon
detection budget and quality-factor scaling projections. Rates are angular
(rad/s) unless a name says otherwise.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import EPS0, HBAR
from .errors import FitError, InconsistencyError, ValidationError
from .quantities import MEASUREMENT_TOLERANCE, AngularRate, check_radiative_limit
from .spectral import line_fit


def kappa_from_q(omega0: AngularRate, q_factor: float) -> AngularRate:
    """Total cavity energy decay rate kappa = omega0/Q."""
    if q_factor <= 0.0:
        raise ValidationError(f"Q must be positive, got {q_factor}")
    return omega0 / q_factor


@dataclass(frozen=True)
class CavityDevice:
    """Nanophotonic resonator record.

    kappa is the measured total decay rate, the one every figure of merit
    uses; it must agree with omega0/Q within the measurement tolerance
    (measured decay rates are rounded independently of Q).
    """

    q_factor: float
    mode_volume: float        # m^3
    resonance: AngularRate    # rad/s
    input_fraction: float     # kappa_in / kappa
    kappa: AngularRate        # rad/s

    def __post_init__(self):
        if self.q_factor <= 0.0:
            raise ValidationError(f"Q must be positive, got {self.q_factor}")
        if self.mode_volume <= 0.0:
            raise ValidationError(f"mode volume must be positive, got {self.mode_volume}")
        if self.resonance <= 0.0:
            raise ValidationError(f"resonance must be positive, got {self.resonance}")
        if not 0.0 < self.input_fraction <= 1.0:
            raise ValidationError(
                f"input coupling fraction must lie in (0, 1], got {self.input_fraction}"
            )
        derived = kappa_from_q(self.resonance, self.q_factor)
        deviation = abs(self.kappa - derived) / derived
        if deviation > MEASUREMENT_TOLERANCE:
            raise InconsistencyError(
                f"supplied kappa {self.kappa:.4g} rad/s disagrees with omega0/Q = "
                f"{derived:.4g} rad/s by {deviation:.1%} (> {MEASUREMENT_TOLERANCE:.0%})"
            )

    @property
    def input_rate(self) -> AngularRate:
        """kappa_in in rad/s."""
        return self.input_fraction * self.kappa


@dataclass(frozen=True)
class CoherenceSummary:
    """Measured coherence numbers for one emitter condition.

    pure_dephasing (gamma*) and the homogeneous linewidth gamma_h = 1/(pi*T2)
    are ordinary frequencies in Hz.
    """

    t1: float
    t2: float
    pure_dephasing: float

    def __post_init__(self):
        if self.t1 <= 0.0 or self.t2 <= 0.0:
            raise ValidationError("T1 and T2 must be positive")
        check_radiative_limit(self.t1, self.t2)
        if self.pure_dephasing > self.homogeneous_linewidth:
            raise InconsistencyError(
                f"pure dephasing {self.pure_dephasing:.3g} Hz exceeds the homogeneous "
                f"linewidth 1/(pi T2) = {self.homogeneous_linewidth:.3g} Hz"
            )

    @property
    def homogeneous_linewidth(self) -> float:
        """gamma_h = 1/(pi*T2) in Hz."""
        return 1.0 / (math.pi * self.t2)


@dataclass(frozen=True)
class DetectionChain:
    """Ordered photon-collection stages, each an efficiency in (0, 1]."""

    stages: tuple[tuple[str, float], ...]

    def __post_init__(self):
        for name, eff in self.stages:
            if not 0.0 < eff <= 1.0:
                raise ValidationError(f"stage '{name}' efficiency {eff} outside (0, 1]")


def max_purcell(
    wavelength: float, refractive_index: float, chi_l: float, q_factor: float, mode_volume: float
) -> float:
    """Maximum Purcell factor for a perfectly aligned dipole at the antinode.

    F = (3 / (4 pi^2 chi_L^2)) * (lambda/n)^3 * Q/V
    """
    if min(wavelength, refractive_index, chi_l, q_factor, mode_volume) <= 0.0:
        raise ValidationError("all Purcell inputs must be positive")
    return (
        3.0
        / (4.0 * math.pi**2 * chi_l**2)
        * (wavelength / refractive_index) ** 3
        * q_factor
        / mode_volume
    )


def max_coupling_g0(
    dipole_moment: float, refractive_index: float, omega0: AngularRate, mode_volume: float
) -> AngularRate:
    """Vacuum coupling rate g0 = (mu/n) * sqrt(omega0 / (2 hbar eps0 V)), rad/s."""
    if min(refractive_index, omega0, mode_volume) <= 0.0:
        raise ValidationError("refractive index, frequency and volume must be positive")
    if dipole_moment < 0.0:
        raise ValidationError("dipole moment must be non-negative")
    return (dipole_moment / refractive_index) * math.sqrt(
        omega0 / (2.0 * HBAR * EPS0 * mode_volume)
    )


def mean_photon_number(
    power_in: float, kappa_in: AngularRate, kappa: AngularRate, omega0: AngularRate
) -> float:
    """Intracavity mean photon number n = 4 P_in kappa_in / (hbar omega0 kappa^2)."""
    if power_in < 0.0:
        raise ValidationError("input power must be non-negative")
    if min(kappa_in, kappa, omega0) <= 0.0:
        raise ValidationError("rates must be positive")
    return 4.0 * power_in * kappa_in / (HBAR * omega0 * kappa**2)


def cavity_lifetime(
    g0: AngularRate, kappa: AngularRate, beta: float, t1_bulk: float
) -> float:
    """Lifetime of the emitter on resonance with the cavity.

    T_cav = (4 g0^2 / kappa + (1 - beta)/T1_bulk)^-1: the Purcell-enhanced
    resonant channel in parallel with the unenhanced branching channels.
    """
    if not 0.0 < beta <= 1.0:
        raise ValidationError(f"branching ratio must lie in (0, 1], got {beta}")
    if kappa <= 0.0 or t1_bulk <= 0.0:
        raise ValidationError("kappa and T1 must be positive")
    rate = 4.0 * g0**2 / kappa + (1.0 - beta) / t1_bulk
    return 1.0 / rate


def measured_purcell(t_cav: float, t1_bulk: float, beta: float, t_rad: float) -> float:
    """Purcell factor inferred from a measured cavity-shortened lifetime.

    Inverts the cavity_lifetime relation with 4 g0^2/kappa = F/T_rad:
    F = (1/T_cav - (1 - beta)/T1_bulk) * T_rad.
    """
    if t_cav <= 0.0 or t1_bulk <= 0.0 or t_rad <= 0.0:
        raise ValidationError("lifetimes must be positive")
    enhanced_rate = 1.0 / t_cav - (1.0 - beta) / t1_bulk
    if enhanced_rate < 0.0:
        raise InconsistencyError(
            "measured lifetime implies a negative cavity emission rate "
            "(T_cav > T1/(1 - beta)); inputs are not physical"
        )
    return enhanced_rate * t_rad


def g0_from_rabi(nbar: np.ndarray, rabi: np.ndarray) -> tuple[AngularRate, AngularRate]:
    """Fit g0 from Rabi rates measured at several photon numbers.

    Least-squares slope of Omega versus sqrt(nbar) through the origin;
    g0 = slope/2. Returns (g0, standard error), both rad/s.
    """
    nbar = np.asarray(nbar, dtype=float)
    rabi = np.asarray(rabi, dtype=float)
    if nbar.size < 2 or rabi.size != nbar.size:
        raise FitError("need at least two (nbar, Omega) points")
    if np.any(nbar <= 0.0):
        raise ValidationError("photon numbers must be positive")
    slope, _, slope_err, _ = line_fit(np.sqrt(nbar), rabi, through_origin=True)
    return slope / 2.0, slope_err / 2.0


def cooperativity(g0: AngularRate, kappa: AngularRate, t2: float) -> float:
    """Single-emitter cooperativity C = 4 g0^2 / (kappa * gamma_h).

    gamma_h = 1/(pi*T2) as an ordinary frequency, i.e. 2/T2 as an angular
    rate; both g0 and kappa are angular, so C is convention-free.
    """
    if kappa <= 0.0 or t2 <= 0.0:
        raise ValidationError("kappa and T2 must be positive")
    gamma_h_angular = 2.0 / t2
    return 4.0 * g0**2 / (kappa * gamma_h_angular)


def indistinguishability(t2: float, t1: float) -> float:
    """Spectral indistinguishability T2/(2*T1), clamped to [0, 1].

    Tolerates T2 up to 5% above the radiative limit (error bars); beyond
    that the inputs are rejected.
    """
    if t1 <= 0.0 or t2 <= 0.0:
        raise ValidationError("T1 and T2 must be positive")
    check_radiative_limit(t1, t2)
    return min(t2 / (2.0 * t1), 1.0)


def detection_budget(chain: DetectionChain) -> tuple[list[tuple[str, float, float]], float]:
    """Multiply the stage efficiencies.

    Returns (rows, total): one (name, efficiency, running product) row per
    stage, and the overall efficiency, 1.0 for an empty chain.
    """
    rows = []
    cumulative = 1.0
    for name, eff in chain.stages:
        cumulative *= eff
        rows.append((name, eff, cumulative))
    return rows, cumulative


def project_q_scaling(
    device: CavityDevice,
    coherence: CoherenceSummary,
    g0: AngularRate,
    beta: float,
    t1_bulk: float,
    factor: float,
) -> tuple[float, float, float]:
    """Project (T_cav, C, I) for a cavity with Q scaled by ``factor``.

    kappa scales as 1/factor; T_cav follows the cavity_lifetime relation;
    C uses the (Q-independent) measured T2; the indistinguishability is
    Gamma_rad/(Gamma_rad + gamma*) with Gamma_rad = 1/(2 pi T_cav) and the
    pure dephasing gamma* taken as Q-independent (it is set by the nuclear
    spin bath, not the cavity).
    """
    if not factor > 0.0:
        raise ValidationError(f"scaling factor must be positive, got {factor}")
    kappa_scaled = device.kappa / factor
    t_cav = cavity_lifetime(g0, kappa_scaled, beta, t1_bulk)
    coop = cooperativity(g0, kappa_scaled, coherence.t2)
    gamma_rad = 1.0 / (2.0 * math.pi * t_cav)
    indist = gamma_rad / (gamma_rad + coherence.pure_dephasing)
    return t_cav, coop, indist

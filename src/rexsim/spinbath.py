"""Ligand nuclear-spin couplings and dopant flip-flop dephasing.

The dopant's electronic spin is treated as a classical effective dipole of
magnitude g*mu_B/2 perturbing the nuclear Zeeman interaction of nearby host
nuclei (a single representative site stands in for the shell of equivalent
neighbours). The flip-flop model maps mutual spin flips of dopant pairs onto
a Lorentzian spectral-diffusion linewidth.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR, MU_B, MU_0
from .errors import ValidationError
from .quantities import OrdinaryFrequency, sech_squared_thermal
from .trace import TimeTrace


@dataclass(frozen=True)
class SpinBathSite:
    """One representative ligand nuclear-spin site.

    gyromagnetic_ratio is in Hz/T; theta is the angle between the electronic
    moment direction and the ion-ligand vector.
    """

    species: str
    spin: float
    gyromagnetic_ratio: float  # Hz/T
    distance: float            # m
    theta: float = 0.0         # rad

    def __post_init__(self):
        if self.distance <= 0.0:
            raise ValidationError(f"site distance must be positive, got {self.distance}")
        if self.spin <= 0.0 or round(2.0 * self.spin) != 2.0 * self.spin:
            raise ValidationError(f"nuclear spin must be a positive half-integer, got {self.spin}")


def electronic_moment(g_factor: float) -> float:
    """Effective moment g*mu_B/2 of one Kramers-doublet level in J/T (spin 1/2)."""
    return g_factor * MU_B / 2.0


@dataclass(frozen=True)
class FlipFlopParams:
    """Inputs to the dopant flip-flop spectral-diffusion model.

    intrinsic_linewidth (Gamma_0) is a free parameter of the model; the
    shipped default follows the measured superhyperfine-limited dephasing
    scale (about 10 kHz) rather than any published value.
    """

    intrinsic_linewidth: float  # Hz
    dopant_density: float       # 1/m^3
    flip_rate: float            # Hz, R = 1/T1_spin
    temperature: float          # K
    b_field: float              # T
    g_ground: float
    g_excited: float

    def __post_init__(self):
        for name in (
            "intrinsic_linewidth",
            "dopant_density",
            "flip_rate",
            "temperature",
            "b_field",
            "g_ground",
            "g_excited",
        ):
            if getattr(self, name) <= 0.0:
                raise ValidationError(f"{name} must be positive, got {getattr(self, name)}")


def dipolar_field(moment: float, site: SpinBathSite) -> float:
    """Axial component at the site of the point-dipole field of a moment in J/T, tesla.

    (mu0/4pi) * (mu/r^3) * (3 cos^2 theta - 1): factor 2 on axis, -1 in the
    equatorial plane, zero at the magic angle.
    """
    geometry = 3.0 * math.cos(site.theta) ** 2 - 1.0
    return MU_0 / (4.0 * math.pi) * moment / site.distance**3 * geometry


def superhyperfine_splitting(
    site: SpinBathSite, moment: float, b_field: float
) -> OrdinaryFrequency:
    """Nuclear doublet splitting gamma_n * |B_eff| in Hz, for an electronic
    moment in J/T (see electronic_moment).

    The effective field combines the applied field with the electronic
    dipolar field along the quantization axis. For the electronic branch
    probed here the dipolar contribution opposes the applied-field
    projection, so B_eff = B - B_dip(theta); at zero field the splitting is
    purely dipolar, at high field it approaches gamma_n * B.
    """
    if b_field < 0.0:
        raise ValidationError(f"field must be non-negative, got {b_field} T")
    b_eff = b_field - dipolar_field(moment, site)
    return site.gyromagnetic_ratio * abs(b_eff)


def sublevel_count_and_range(
    site: SpinBathSite, moment: float, b_field: float
) -> tuple[int, OrdinaryFrequency, OrdinaryFrequency]:
    """Number of superhyperfine sublevels and the spread of their splittings.

    A spin-I nucleus gives 2I+1 equally spaced levels; pairwise splittings
    then range from the adjacent-level value gamma_n*|B_eff| up to the full
    ladder span 2I * gamma_n * |B_eff|. Returns (count, smallest, largest)
    with the splittings in Hz.
    """
    count = int(round(2.0 * site.spin + 1.0))
    adjacent = superhyperfine_splitting(site, moment, b_field)
    return count, adjacent, (count - 1) * adjacent


def eseem_envelope(
    delta_g: OrdinaryFrequency,
    delta_e: OrdinaryFrequency,
    depth: float,
    tau: np.ndarray,
) -> TimeTrace:
    """Two-pulse echo envelope modulation for one coupled nucleus.

    V(tau) = 1 - (k/4) [2 - 2cos(2 pi dg tau) - 2cos(2 pi de tau)
                          + cos(2 pi (dg - de) tau) + cos(2 pi (dg + de) tau)]

    carrying beats at dg, de and their sum and difference. k = depth is the
    modulation depth; V stays within [1 - 2k, 1] (so |V| <= 1 for k <= 1).
    """
    if not 0.0 <= depth <= 1.0:
        raise ValidationError(f"modulation depth must lie in [0, 1], got {depth}")
    tau = np.asarray(tau, dtype=float)
    wg = 2.0 * math.pi * delta_g
    we = 2.0 * math.pi * delta_e
    bracket = (
        2.0
        - 2.0 * np.cos(wg * tau)
        - 2.0 * np.cos(we * tau)
        + np.cos((wg - we) * tau)
        + np.cos((wg + we) * tau)
    )
    signal = 1.0 - depth / 4.0 * bracket
    return TimeTrace(
        x=tau,
        y=signal,
        x_name="tau",
        x_unit="s",
        y_name="echo_envelope",
        y_unit="dimensionless",
        metadata={"delta_g_hz": delta_g, "delta_e_hz": delta_e, "depth": depth},
    )


def flipflop_gamma_sd(params: FlipFlopParams) -> OrdinaryFrequency:
    """Spectral-diffusion linewidth from dopant-dopant magnetic dipolar coupling.

    Gamma_SD = (pi mu0 |g_g - g_e| g_g mu_B^2 n / (9 sqrt(3) hbar))
               * sech^2(g_g mu_B B / (2 k T)),  reported in Hz.
    """
    thermal = sech_squared_thermal(params.g_ground, params.b_field, params.temperature)
    prefactor = (
        math.pi
        * MU_0
        * abs(params.g_ground - params.g_excited)
        * params.g_ground
        * MU_B**2
        * params.dopant_density
        / (9.0 * math.sqrt(3.0) * HBAR)
    )
    return prefactor * thermal


def flipflop_tm(
    gamma0: OrdinaryFrequency, gamma_sd: OrdinaryFrequency, flip_rate: float
) -> float:
    """Effective phase-memory time of the Lorentzian spectral-diffusion model.

    T_M = (2 Gamma_0 / (Gamma_SD R)) * (sqrt(1 + Gamma_SD R / (pi Gamma_0^2)) - 1)

    As Gamma_SD*R -> 0 this recovers 1/(pi T_M) -> Gamma_0.
    """
    if gamma0 <= 0.0 or flip_rate < 0.0 or gamma_sd < 0.0:
        raise ValidationError("linewidths must be positive and rates non-negative")
    product = gamma_sd * flip_rate
    if product == 0.0:
        return 1.0 / (math.pi * gamma0)
    x = product / (math.pi * gamma0**2)
    # expm1/log1p keeps sqrt(1+x)-1 accurate down to x ~ 1e-300
    sqrt_term = math.expm1(0.5 * math.log1p(x))
    return 2.0 * gamma0 / product * sqrt_term


def flipflop_added_dephasing(
    gamma0: OrdinaryFrequency, gamma_sd: OrdinaryFrequency, flip_rate: float
) -> OrdinaryFrequency:
    """Dephasing added by flip-flops: 1/(pi T_M) - Gamma_0, in Hz."""
    tm = flipflop_tm(gamma0, gamma_sd, flip_rate)
    return 1.0 / (math.pi * tm) - gamma0


def superhyperfine_dephasing_bound(t1: float, t2: float) -> OrdinaryFrequency:
    """Dephasing rate in excess of the lifetime limit: 1/(pi T2) - 1/(2 pi T1), Hz."""
    if t1 <= 0.0 or t2 <= 0.0:
        raise ValidationError("lifetimes must be positive")
    return 1.0 / (math.pi * t2) - 1.0 / (2.0 * math.pi * t1)

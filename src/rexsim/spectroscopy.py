"""Transition parameters from measurable material inputs.

The derivation chain runs: integrated absorption -> oscillator strength ->
radiative lifetime -> branching ratio, with the transition dipole moment
obtained from the oscillator strength. All inputs and outputs are SI; the
local-field correction accounts for the dopant sitting inside a polarizable
host crystal.
"""

import math
from dataclasses import dataclass
from enum import Enum

from .constants import C_LIGHT, EPS0, E_CHARGE, HBAR, M_E, MU_B, H_PLANCK
from .errors import InconsistencyError, ValidationError
from .quantities import MEASUREMENT_TOLERANCE, AngularRate, OrdinaryFrequency


class LocalFieldModel(str, Enum):
    VIRTUAL = "virtual"
    REAL = "real"
    NONE = "none"


@dataclass(frozen=True)
class MaterialSpec:
    """Host plus dopant spectroscopic inputs.

    absorption_area   integrated absorption coefficient, Hz/m
    ion_density       dopant number density, 1/m^3
    refractive_index  at the transition wavelength, for the relevant polarization
    wavelength        vacuum wavelength, m
    t1_fluorescence   measured fluorescence lifetime of the upper level, s
    g_ground          ground-state g-factor perpendicular to the c-axis
    """

    absorption_area: float
    ion_density: float
    refractive_index: float
    wavelength: float
    t1_fluorescence: float
    g_ground: float

    def __post_init__(self):
        # absorption_area = 0 is allowed (no absorption -> f = 0)
        if self.absorption_area < 0.0:
            raise ValidationError(f"absorption area must be non-negative, got {self.absorption_area}")
        for name in ("ion_density", "wavelength", "t1_fluorescence", "g_ground"):
            if getattr(self, name) <= 0.0:
                raise ValidationError(f"{name} must be positive, got {getattr(self, name)}")
        if self.refractive_index <= 1.0:
            raise ValidationError(
                f"refractive index must exceed 1, got {self.refractive_index}"
            )

    @property
    def angular_frequency(self) -> AngularRate:
        """Transition angular frequency 2*pi*c/lambda in rad/s."""
        return 2.0 * math.pi * C_LIGHT / self.wavelength


@dataclass(frozen=True)
class DerivedTransition:
    """Computed transition record produced by derive_transition."""

    oscillator_strength: float
    dipole_moment: float      # C m
    radiative_lifetime: float  # s
    branching_ratio: float
    angular_frequency: AngularRate
    local_field_model: LocalFieldModel


def local_field_correction(refractive_index: float, model: LocalFieldModel) -> float:
    """Local-field factor chi_L relating macroscopic and microscopic fields.

    Virtual cavity: (n^2 + 2)/3. Real cavity: 3n^2/(2n^2 + 1), the usual
    choice for substitutional ions. Both reduce to 1 in vacuum (n = 1).
    """
    n = refractive_index
    if n < 1.0:
        raise ValidationError(f"refractive index must be >= 1, got {n}")
    if model == LocalFieldModel.VIRTUAL:
        return (n * n + 2.0) / 3.0
    if model == LocalFieldModel.REAL:
        return 3.0 * n * n / (2.0 * n * n + 1.0)
    return 1.0


def oscillator_strength(material: MaterialSpec, chi_l: float) -> float:
    """Oscillator strength from the integrated absorption coefficient.

    f = 4*pi*eps0 * (m_e c / (pi e^2)) * (1/N) * (n/chi_L^2) * integral(alpha dnu)
    """
    prefactor = 4.0 * math.pi * EPS0 * M_E * C_LIGHT / (math.pi * E_CHARGE**2)
    return (
        prefactor
        * (1.0 / material.ion_density)
        * (material.refractive_index / chi_l**2)
        * material.absorption_area
    )


def radiative_lifetime(
    oscillator_strength_f: float,
    refractive_index: float,
    wavelength: float,
    model: LocalFieldModel,
) -> float:
    """Radiative lifetime of the transition in seconds.

    1/T_rad = (2 pi e^2 / (eps0 m_e c)) * chi_L^2 * (1/n) * (n^2/lambda^2) * f/3
    """
    if oscillator_strength_f <= 0.0:
        raise ValidationError(
            f"oscillator strength must be positive, got {oscillator_strength_f}"
        )
    chi_l = local_field_correction(refractive_index, model)
    rate = (
        (2.0 * math.pi * E_CHARGE**2 / (EPS0 * M_E * C_LIGHT))
        * chi_l**2
        * (refractive_index / wavelength**2)
        * (oscillator_strength_f / 3.0)
    )
    return 1.0 / rate


def branching_ratio(t1: float, t_rad: float) -> float:
    """Fraction of spontaneous emission returning to the probed ground level.

    beta = T1/T_rad. Values up to 5% above 1 are clamped to 1 (measurement
    noise); larger excess raises InconsistencyError.
    """
    if t1 <= 0.0 or t_rad <= 0.0:
        raise ValidationError("lifetimes must be positive")
    if t1 > (1.0 + MEASUREMENT_TOLERANCE) * t_rad:
        raise InconsistencyError(
            f"measured T1 = {t1:.3g} s exceeds radiative lifetime {t_rad:.3g} s "
            f"by more than {MEASUREMENT_TOLERANCE:.0%}"
        )
    return min(t1 / t_rad, 1.0)


def dipole_moment(oscillator_strength_f: float, angular_frequency: AngularRate) -> float:
    """Transition dipole moment mu = sqrt(hbar e^2 f / (2 m_e omega)) in C m."""
    if oscillator_strength_f <= 0.0 or angular_frequency <= 0.0:
        raise ValidationError("oscillator strength and frequency must be positive")
    return math.sqrt(
        HBAR * E_CHARGE**2 * oscillator_strength_f / (2.0 * M_E * angular_frequency)
    )


def zeeman_splitting(g_factor: float, b_field_t: float) -> OrdinaryFrequency:
    """Kramers-doublet Zeeman splitting g*mu_B*B/h as an ordinary frequency."""
    if b_field_t < 0.0:
        raise ValidationError(f"field must be non-negative, got {b_field_t} T")
    return g_factor * MU_B * b_field_t / H_PLANCK


def derive_transition(
    material: MaterialSpec, model: LocalFieldModel = LocalFieldModel.REAL
) -> DerivedTransition:
    """Run the full chain absorption -> f -> T_rad -> beta and f -> mu."""
    chi_l = local_field_correction(material.refractive_index, model)
    f = oscillator_strength(material, chi_l)
    t_rad = radiative_lifetime(f, material.refractive_index, material.wavelength, model)
    beta = branching_ratio(material.t1_fluorescence, t_rad)
    omega = material.angular_frequency
    mu = dipole_moment(f, omega)
    return DerivedTransition(
        oscillator_strength=f,
        dipole_moment=mu,
        radiative_lifetime=t_rad,
        branching_ratio=beta,
        angular_frequency=omega,
        local_field_model=model,
    )

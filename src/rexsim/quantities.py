"""Frequency conventions and thermal occupation helpers.

Every rate stored inside the package is angular (rad/s); conversion to and
from ordinary frequency (Hz) happens once, at I/O boundaries. The two type
aliases below mark which convention a value is in.
"""

import math

from .constants import H_PLANCK, K_B, MU_B
from .errors import InconsistencyError, ValidationError

AngularRate = float       # rad/s
OrdinaryFrequency = float  # Hz

TWO_PI = 2.0 * math.pi

# Measured lifetimes carry error bars: a lifetime ratio (T1/T_rad, T2/2T1)
# may exceed its physical bound by up to this factor, as noise, before the
# inputs are rejected as inconsistent.
LIFETIME_TOLERANCE = 1.05


def check_radiative_limit(t1: float, t2: float) -> None:
    """Reject T2 beyond the radiative limit 2*T1 by more than LIFETIME_TOLERANCE."""
    if t2 > LIFETIME_TOLERANCE * 2.0 * t1:
        raise InconsistencyError(
            f"T2 = {t2:.3g} s exceeds the radiative limit 2*T1 = {2 * t1:.3g} s "
            f"by more than {LIFETIME_TOLERANCE - 1:.0%}"
        )


def angular_from_ordinary(frequency_hz: OrdinaryFrequency) -> AngularRate:
    """Convert an ordinary frequency in Hz to an angular rate in rad/s."""
    return TWO_PI * frequency_hz


def ordinary_from_angular(rate: AngularRate) -> OrdinaryFrequency:
    """Convert an angular rate in rad/s to an ordinary frequency in Hz."""
    return rate / TWO_PI


def boltzmann_population_ratio(splitting_hz: OrdinaryFrequency, temperature_k: float) -> float:
    """Thermal population ratio exp(-h*splitting/(k*T)) of two levels.

    ``splitting_hz`` is the level separation as an ordinary frequency.
    Raises ValidationError for non-positive temperature.
    """
    if temperature_k <= 0.0:
        raise ValidationError(f"temperature must be positive, got {temperature_k} K")
    return math.exp(-H_PLANCK * splitting_hz / (K_B * temperature_k))


def temperature_from_population_ratio(ratio: float, splitting_hz: OrdinaryFrequency) -> float:
    """Invert boltzmann_population_ratio: temperature in K from a measured ratio."""
    if not 0.0 < ratio < 1.0:
        raise ValidationError(f"population ratio must lie in (0, 1), got {ratio}")
    if splitting_hz <= 0.0:
        raise ValidationError(f"splitting must be positive, got {splitting_hz} Hz")
    return -H_PLANCK * splitting_hz / (K_B * math.log(ratio))


def sech_squared_thermal(g_factor: float, b_field_t: float, temperature_k: float) -> float:
    """Thermal depolarization factor sech^2(g*mu_B*B / (2*k*T)), in (0, 1].

    Evaluated as 4 e^(-2|x|) / (1 + e^(-2|x|))^2, which cannot overflow;
    for arguments beyond ~355 the true value underflows to 0.
    """
    if temperature_k <= 0.0:
        raise ValidationError(f"temperature must be positive, got {temperature_k} K")
    argument = abs(g_factor * MU_B * b_field_t / (2.0 * K_B * temperature_k))
    decay = math.exp(-2.0 * argument)
    return 4.0 * decay / (1.0 + decay) ** 2

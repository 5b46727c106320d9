import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from rexsim.cavity import CavityDevice
from rexsim.quantities import angular_from_ordinary
from rexsim.spectroscopy import LocalFieldModel, MaterialSpec, derive_transition

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def material():
    """Measured inputs of the reference crystal (absorption area in Hz/m)."""
    return MaterialSpec(
        absorption_area=102e9 * 100.0,
        ion_density=1.24e23,
        refractive_index=2.1785,
        wavelength=880e-9,
        t1_fluorescence=90e-6,
        g_ground=2.36,
        g_excited=0.9,
    )


@pytest.fixture(scope="session")
def transition(material):
    return derive_transition(material, LocalFieldModel.REAL)


@pytest.fixture(scope="session")
def device(material):
    return CavityDevice(
        q_factor=3900.0,
        mode_volume=0.056e-18,
        resonance=material.angular_frequency,
        input_fraction=0.45,
        kappa=angular_from_ordinary(90e9),
    )


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)

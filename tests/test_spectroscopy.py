import dataclasses
import math

import pytest

from rexsim.errors import InconsistencyError, ValidationError
from rexsim.spectroscopy import (
    LocalFieldModel,
    MaterialSpec,
    branching_ratio,
    derive_transition,
    dipole_moment,
    local_field_correction,
    oscillator_strength,
    radiative_lifetime,
    zeeman_splitting,
)


class TestLocalField:
    def test_vacuum_limit(self):
        assert local_field_correction(1.0, LocalFieldModel.REAL) == 1.0
        assert local_field_correction(1.0, LocalFieldModel.VIRTUAL) == 1.0

    def test_real_cavity(self):
        assert local_field_correction(2.1785, LocalFieldModel.REAL) == pytest.approx(
            1.3570, abs=1e-4
        )

    def test_virtual_cavity(self):
        assert local_field_correction(2.1785, LocalFieldModel.VIRTUAL) == pytest.approx(
            2.2486, abs=1e-4
        )

    def test_none_model(self):
        assert local_field_correction(2.1785, LocalFieldModel.NONE) == 1.0

    @pytest.mark.parametrize("n", [1.05, 1.5, 2.1785, 3.5])
    def test_real_below_virtual(self, n):
        assert local_field_correction(n, LocalFieldModel.REAL) < local_field_correction(
            n, LocalFieldModel.VIRTUAL
        )

    def test_rejects_subunity_index(self):
        with pytest.raises(ValidationError):
            local_field_correction(0.9, LocalFieldModel.REAL)


class TestDerivationChain:
    def test_oscillator_strength_reference_value(self, material):
        chi = local_field_correction(material.refractive_index, LocalFieldModel.REAL)
        assert oscillator_strength(material, chi) == pytest.approx(3.7e-5, rel=0.02)

    def test_zero_absorption(self, material):
        dark = dataclasses.replace(material, absorption_area=0.0)
        assert oscillator_strength(dark, 1.3570) == 0.0

    def test_inverse_in_density(self, material):
        chi = local_field_correction(material.refractive_index, LocalFieldModel.REAL)
        doubled = dataclasses.replace(material, ion_density=2 * material.ion_density)
        assert oscillator_strength(doubled, chi) == pytest.approx(
            oscillator_strength(material, chi) / 2.0, rel=1e-12
        )

    def test_radiative_lifetime_reference_value(self):
        assert radiative_lifetime(3.7e-5, 2.1785, 880e-9, LocalFieldModel.REAL) == pytest.approx(
            237e-6, rel=0.02
        )

    def test_halving_f_doubles_lifetime(self):
        t = radiative_lifetime(3.7e-5, 2.1785, 880e-9, LocalFieldModel.REAL)
        assert radiative_lifetime(1.85e-5, 2.1785, 880e-9, LocalFieldModel.REAL) == pytest.approx(
            2 * t, rel=1e-12
        )

    def test_full_chain_branching(self, transition):
        assert transition.branching_ratio == pytest.approx(0.38, rel=0.02)

    def test_branching_examples(self):
        assert branching_ratio(90e-6, 237e-6) == pytest.approx(0.38, rel=0.01)
        assert branching_ratio(100e-6, 100e-6) == 1.0
        assert branching_ratio(45e-6, 237e-6) == pytest.approx(0.19, rel=0.01)

    def test_branching_clamps_noise(self):
        assert branching_ratio(1.04, 1.0) == 1.0

    def test_branching_rejects_inconsistency(self):
        with pytest.raises(InconsistencyError):
            branching_ratio(1.06, 1.0)

    def test_dipole_moment_reference_value(self, material):
        mu = dipole_moment(3.7e-5, material.angular_frequency)
        assert mu == pytest.approx(1.59e-31, rel=0.02)

    def test_dipole_square_root_scaling(self, material):
        omega = material.angular_frequency
        assert dipole_moment(4 * 3.7e-5, omega) == pytest.approx(
            2 * dipole_moment(3.7e-5, omega), rel=1e-12
        )

    def test_dipole_round_trip(self, material):
        from rexsim.constants import E_CHARGE, HBAR, M_E

        omega = material.angular_frequency
        f = 3.7e-5
        mu = dipole_moment(f, omega)
        assert 2 * M_E * omega * mu**2 / (HBAR * E_CHARGE**2) == pytest.approx(f, rel=1e-12)

    def test_chain_invariants(self, transition, material):
        assert transition.oscillator_strength > 0
        assert 0 < transition.branching_ratio <= 1
        assert transition.radiative_lifetime >= material.t1_fluorescence

    def test_monotone_in_absorption_area(self, material):
        # finite-difference sign check of the closed form
        chi = local_field_correction(material.refractive_index, LocalFieldModel.REAL)
        bigger = dataclasses.replace(material, absorption_area=material.absorption_area * 1.01)
        assert oscillator_strength(bigger, chi) > oscillator_strength(material, chi)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            radiative_lifetime(-1e-5, 2.1785, 880e-9, LocalFieldModel.REAL)
        with pytest.raises(ValidationError):
            dipole_moment(0.0, 1e15)
        with pytest.raises(ValidationError):
            MaterialSpec(
                absorption_area=1.0,
                ion_density=1e23,
                refractive_index=0.99,
                wavelength=880e-9,
                t1_fluorescence=90e-6,
                g_ground=2.36,
            )


class TestZeeman:
    def test_reference_value(self):
        assert zeeman_splitting(2.36, 0.39) == pytest.approx(12.88e9, rel=0.005)

    def test_zero_field(self):
        assert zeeman_splitting(2.36, 0.0) == 0.0

    def test_unit_constants(self):
        assert zeeman_splitting(1.0, 1.0) == pytest.approx(13.996e9, rel=1e-4)

    def test_rejects_negative_field(self):
        with pytest.raises(ValidationError):
            zeeman_splitting(2.36, -0.1)


def test_virtual_model_chain_differs(material):
    real = derive_transition(material, LocalFieldModel.REAL)
    virtual = derive_transition(material, LocalFieldModel.VIRTUAL)
    # virtual-cavity chi is larger, so f is smaller for the same absorption
    assert virtual.oscillator_strength < real.oscillator_strength
    assert virtual.local_field_correction == local_field_correction(
        material.refractive_index, LocalFieldModel.VIRTUAL
    )


def test_wavelength_monotonicity(material):
    # T_rad grows with wavelength at fixed f (1/T ~ 1/lambda^2)
    t_short = radiative_lifetime(3.7e-5, 2.1785, 870e-9, LocalFieldModel.REAL)
    t_long = radiative_lifetime(3.7e-5, 2.1785, 890e-9, LocalFieldModel.REAL)
    assert t_long > t_short
    ratio = t_long / t_short
    assert ratio == pytest.approx((890 / 870) ** 2, rel=1e-12)
    assert math.isfinite(ratio)

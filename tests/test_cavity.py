import itertools
import math
import warnings

import numpy as np
import pytest

from rexsim.cavity import (
    BudgetReport,
    CavityDevice,
    CoherenceSummary,
    DetectionChain,
    cavity_lifetime,
    cooperativity,
    detection_budget,
    g0_from_rabi,
    indistinguishability,
    kappa_from_q,
    max_coupling_g0,
    max_purcell,
    mean_photon_number,
    measured_purcell,
    project_q_scaling,
)
from rexsim.config import default_document
from rexsim.errors import FitError, InconsistencyError, ValidationError
from rexsim.quantities import angular_from_ordinary as ang
from rexsim.quantities import ordinary_from_angular as ord_
from rexsim.spectroscopy import LocalFieldModel, local_field_correction

CHI_REAL = local_field_correction(2.1785, LocalFieldModel.REAL)


class TestKappa:
    def test_measured_rate_is_rounded(self):
        kappa = kappa_from_q(ang(340.703e12), 3900.0)
        assert ord_(kappa) == pytest.approx(87.4e9, rel=1e-3)
        # the quoted 90 GHz is a rounded measurement; agree within 5%
        assert ord_(kappa) == pytest.approx(90e9, rel=0.05)

    def test_lossless_limit(self):
        assert kappa_from_q(ang(340.703e12), 1e18) == pytest.approx(0.0, abs=1e-2)

    def test_q_scaling(self):
        assert ord_(kappa_from_q(ang(340.703e12), 39000.0)) == pytest.approx(8.74e9, rel=1e-3)

    def test_measured_kappa_within_tolerance_is_silent(self):
        # the measured 90 GHz differs from omega0/Q by 3%; the cavity report prints both
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            device = default_document().cavity_device()
        assert ord_(device.total_decay) == pytest.approx(90e9)


class TestPurcellAndCoupling:
    def test_max_purcell_reference_value(self):
        assert max_purcell(880e-9, 2.1785, CHI_REAL, 3900, 0.056e-18) == pytest.approx(189, rel=0.03)

    def test_linear_in_q(self):
        f1 = max_purcell(880e-9, 2.1785, CHI_REAL, 3900, 0.056e-18)
        f2 = max_purcell(880e-9, 2.1785, CHI_REAL, 7800, 0.056e-18)
        assert f2 == pytest.approx(2 * f1, rel=1e-12)

    def test_g0_reference_value(self, material, transition):
        g0 = max_coupling_g0(
            transition.dipole_moment, 2.1785, material.angular_frequency, 0.056e-18
        )
        assert ord_(g0) == pytest.approx(52.7e6, rel=0.02)

    def test_g0_volume_scaling(self, material, transition):
        omega = material.angular_frequency
        g0 = max_coupling_g0(transition.dipole_moment, 2.1785, omega, 0.056e-18)
        g0_big = max_coupling_g0(transition.dipole_moment, 2.1785, omega, 4 * 0.056e-18)
        assert g0_big == pytest.approx(g0 / 2, rel=1e-12)

    def test_g0_zero_dipole(self, material):
        assert max_coupling_g0(0.0, 2.1785, material.angular_frequency, 0.056e-18) == 0.0

    def test_cross_route_identity(self, material, transition):
        """The closed-form Purcell factor equals 4 g0^2 T_rad / kappa."""
        omega = material.angular_frequency
        g0 = max_coupling_g0(transition.dipole_moment, 2.1785, omega, 0.056e-18)
        kappa = kappa_from_q(omega, 3900.0)
        direct = max_purcell(880e-9, 2.1785, CHI_REAL, 3900, 0.056e-18)
        via_g0 = 4 * g0**2 * transition.radiative_lifetime / kappa
        assert via_g0 == pytest.approx(direct, rel=0.03)

    @pytest.mark.parametrize("q,v_um3", [(2000, 0.03), (5000, 0.1), (20000, 0.056)])
    def test_cross_route_identity_other_devices(self, material, transition, q, v_um3):
        omega = material.angular_frequency
        volume = v_um3 * 1e-18
        g0 = max_coupling_g0(transition.dipole_moment, 2.1785, omega, volume)
        direct = max_purcell(material.wavelength, 2.1785, CHI_REAL, q, volume)
        via_g0 = 4 * g0**2 * transition.radiative_lifetime / kappa_from_q(omega, q)
        assert via_g0 == pytest.approx(direct, rel=0.03)


class TestMeanPhotonNumber:
    def test_unity_at_reference_power(self, material):
        nbar = mean_photon_number(71.8e-9, ang(40e9), ang(90e9), material.angular_frequency)
        assert nbar == pytest.approx(1.0, rel=0.02)

    def test_zero_power(self, material):
        assert mean_photon_number(0.0, ang(40e9), ang(90e9), material.angular_frequency) == 0.0

    def test_linear_in_power(self, material):
        one = mean_photon_number(50e-9, ang(40e9), ang(90e9), material.angular_frequency)
        two = mean_photon_number(100e-9, ang(40e9), ang(90e9), material.angular_frequency)
        assert two == pytest.approx(2 * one, rel=1e-12)


class TestCavityLifetime:
    def test_reference_prediction(self):
        t_cav = cavity_lifetime(ang(52.7e6), ang(90e9), 0.38, 90e-6)
        assert t_cav == pytest.approx(1.28e-6, rel=0.01)
        assert t_cav == pytest.approx(1.25e-6, rel=0.05)

    def test_no_cavity_channel(self):
        assert cavity_lifetime(0.0, ang(90e9), 0.38, 90e-6) == pytest.approx(145e-6, rel=0.01)

    def test_measured_g0_route(self):
        assert cavity_lifetime(ang(28.5e6), ang(90e9), 0.38, 90e-6) == pytest.approx(
            4.28e-6, rel=0.01
        )

    def test_monotone_decreasing_in_g0_increasing_in_kappa(self):
        base = cavity_lifetime(ang(30e6), ang(90e9), 0.38, 90e-6)
        assert cavity_lifetime(ang(40e6), ang(90e9), 0.38, 90e-6) < base
        assert cavity_lifetime(ang(30e6), ang(120e9), 0.38, 90e-6) > base


class TestMeasuredPurcell:
    def test_reference_value(self, transition):
        f = measured_purcell(2.1e-6, 90e-6, transition.branching_ratio, transition.radiative_lifetime)
        assert f == pytest.approx(111, rel=0.02)

    def test_no_enhancement_limit(self, transition):
        beta = transition.branching_ratio
        t_flat = 90e-6 / (1 - beta) * (1 - 1e-12)
        assert measured_purcell(t_flat, 90e-6, beta, transition.radiative_lifetime) == pytest.approx(
            0.0, abs=1e-3
        )

    def test_consistency_with_theoretical_route(self, transition):
        # frozen from direct evaluation: T_cav = 1.28 us implies F = 183.5
        f = measured_purcell(1.28e-6, 90e-6, 0.38, 237e-6)
        assert f == pytest.approx(183.5, rel=0.01)
        assert f == pytest.approx(189.0, rel=0.04)

    def test_rejects_non_physical(self, transition):
        # beyond T1/(1-beta) = 145 us the inferred cavity rate turns negative
        with pytest.raises(InconsistencyError):
            measured_purcell(150e-6, 90e-6, 0.38, 237e-6)


class TestG0FromRabi:
    def test_exact_recovery(self):
        g0 = ang(28.5e6)
        nbar = np.array([0.01, 0.05, 0.1, 0.5, 1.0, 4.0])
        rabi = 2 * g0 * np.sqrt(nbar)
        fitted, err = g0_from_rabi(nbar, rabi)
        assert fitted == pytest.approx(g0, rel=1e-12)
        assert err == pytest.approx(0.0, abs=1e-6)

    def test_linearity(self):
        nbar = np.array([0.1, 0.4, 1.0])
        rabi = 2 * ang(20e6) * np.sqrt(nbar)
        doubled, _ = g0_from_rabi(nbar, 2 * rabi)
        single, _ = g0_from_rabi(nbar, rabi)
        assert doubled == pytest.approx(2 * single, rel=1e-12)

    def test_noisy_recovery_within_two_sigma(self):
        rng = np.random.default_rng(42)
        g0 = ang(28.5e6)
        nbar = np.linspace(0.05, 4.0, 25)
        rabi = 2 * g0 * np.sqrt(nbar) * (1 + 0.05 * rng.standard_normal(nbar.size))
        fitted, err = g0_from_rabi(nbar, rabi)
        assert abs(fitted - g0) < 2 * err

    def test_insufficient_points(self):
        with pytest.raises(FitError):
            g0_from_rabi(np.array([1.0]), np.array([1.0]))


class TestCooperativity:
    def test_reference_value(self):
        assert cooperativity(ang(28.5e6), ang(90e9), 25.4e-6) == pytest.approx(2.9, rel=0.03)

    def test_proportional_to_t2(self):
        c = cooperativity(ang(28.5e6), ang(90e9), 25.4e-6)
        assert cooperativity(ang(28.5e6), ang(90e9), 12.7e-6) == pytest.approx(c / 2, rel=1e-12)

    def test_q_times_ten(self):
        c10 = cooperativity(ang(28.5e6), ang(9e9), 25.4e-6)
        assert c10 == pytest.approx(29, rel=0.10)

    def test_convention_invariance(self):
        """Dimensionless C is unchanged re-expressing all rates ordinary<->angular."""
        angular = cooperativity(ang(28.5e6), ang(90e9), 25.4e-6)
        # same formula evaluated with ordinary rates: gamma_h = 1/(pi T2) Hz
        ordinary = 4 * (28.5e6) ** 2 / (90e9 / (math.pi * 25.4e-6))
        assert angular == pytest.approx(ordinary, rel=1e-12)


class TestIndistinguishability:
    def test_reference_value(self):
        assert indistinguishability(4.0e-6, 2.1e-6) == pytest.approx(0.952, abs=5e-4)

    def test_radiative_limit(self):
        assert indistinguishability(4.2e-6, 2.1e-6) == 1.0

    def test_half_limit(self):
        assert indistinguishability(2.1e-6, 2.1e-6) == 0.5

    def test_clamps_tolerance_band(self):
        assert indistinguishability(4.3e-6, 2.1e-6) == 1.0

    def test_rejects_beyond_tolerance(self):
        with pytest.raises(InconsistencyError):
            indistinguishability(4.5e-6, 2.1e-6)


MEASURED_STAGES = (
    ("cavity_out", 0.45),
    ("waveguide_fiber", 0.19),
    ("fiber_path", 0.80),
    ("circulator", 0.65),
    ("detector", 0.82),
)


class TestDetectionBudget:
    def test_measured_chain(self):
        budget = detection_budget(DetectionChain(stages=MEASURED_STAGES))
        assert budget.total == pytest.approx(0.0365, abs=5e-5)
        assert isinstance(budget, BudgetReport)
        assert len(budget.rows) == 5
        assert budget.rows[-1][2] == budget.total

    def test_empty_chain(self):
        assert detection_budget(DetectionChain(stages=())).total == 1.0

    def test_improved_chain(self):
        chain = DetectionChain(
            stages=(("a", 0.80), ("b", 0.97), ("c", 0.90), ("d", 0.95), ("e", 0.95))
        )
        assert detection_budget(chain).total == pytest.approx(0.63, abs=0.005)

    def test_permutation_invariant(self):
        reference = detection_budget(DetectionChain(stages=MEASURED_STAGES)).total
        for perm in itertools.permutations(MEASURED_STAGES):
            assert detection_budget(DetectionChain(stages=perm)).total == pytest.approx(
                reference, rel=1e-12
            )

    def test_rejects_bad_stage(self):
        with pytest.raises(ValidationError):
            DetectionChain(stages=(("bad", 1.2),))


class TestQScaling:
    @pytest.fixture()
    def coherence(self):
        return CoherenceSummary(t1=90e-6, t2=25.4e-6, pure_dephasing=9.7e3)

    def test_identity_at_factor_one(self, device, coherence, transition):
        g0 = ang(28.5e6)
        report = project_q_scaling(device, coherence, g0, transition.branching_ratio, 90e-6, 1.0)
        assert report.kappa == device.total_decay
        assert report.cooperativity == pytest.approx(
            cooperativity(g0, device.total_decay, coherence.t2), rel=1e-12
        )
        assert report.t_cav == pytest.approx(
            cavity_lifetime(g0, device.total_decay, transition.branching_ratio, 90e-6), rel=1e-12
        )

    def test_factor_ten_cooperativity(self, device, coherence, transition):
        report = project_q_scaling(
            device, coherence, ang(28.5e6), transition.branching_ratio, 90e-6, 10.0
        )
        assert report.cooperativity == pytest.approx(29, rel=0.10)

    def test_factor_ten_indistinguishability(self, device, coherence, transition):
        report = project_q_scaling(
            device, coherence, ang(52.7e6), transition.branching_ratio, 90e-6, 10.0
        )
        assert report.indistinguishability == pytest.approx(0.992, abs=5e-4)

    def test_rejects_bad_factor(self, device, coherence):
        with pytest.raises(ValidationError):
            project_q_scaling(device, coherence, ang(28.5e6), 0.38, 90e-6, 0.0)


class TestDeviceInvariants:
    def test_kappa_within_tolerance_accepted(self, device):
        assert ord_(device.total_decay) == pytest.approx(90e9, rel=1e-12)

    def test_kappa_beyond_tolerance_rejected(self, material):
        with pytest.raises(InconsistencyError, match=r"\(> 5%\)"):
            CavityDevice(
                q_factor=3900.0,
                mode_volume=0.056e-18,
                resonance=material.angular_frequency,
                input_fraction=0.45,
                kappa=ang(120e9),
            )

    def test_kappa_derived_when_absent(self, material):
        dev = CavityDevice(
            q_factor=3900.0,
            mode_volume=0.056e-18,
            resonance=material.angular_frequency,
            input_fraction=0.45,
        )
        assert dev.total_decay == pytest.approx(material.angular_frequency / 3900.0, rel=1e-12)

    def test_input_fraction_bounds(self, material):
        with pytest.raises(ValidationError):
            CavityDevice(
                q_factor=3900.0,
                mode_volume=0.056e-18,
                resonance=material.angular_frequency,
                input_fraction=1.2,
            )

    def test_coherence_radiative_limit(self):
        with pytest.raises(InconsistencyError):
            CoherenceSummary(t1=2.1e-6, t2=25.4e-6)

    def test_coherence_rejects_dephasing_above_linewidth(self):
        # gamma_h = 1/(pi * 25.4 us) = 12.5 kHz bounds gamma* from above
        with pytest.raises(InconsistencyError):
            CoherenceSummary(t1=90e-6, t2=25.4e-6, pure_dephasing=20e3)
        ok = CoherenceSummary(t1=90e-6, t2=25.4e-6, pure_dephasing=9.7e3)
        assert ok.homogeneous_linewidth == pytest.approx(12.53e3, rel=1e-3)

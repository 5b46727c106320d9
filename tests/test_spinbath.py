import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rexsim.errors import ValidationError
from rexsim.spinbath import (
    FlipFlopParams,
    SpinBathSite,
    dipolar_field,
    electronic_moment,
    eseem_envelope,
    flipflop_added_dephasing,
    flipflop_gamma_sd,
    flipflop_tm,
    sublevel_count_and_range,
    superhyperfine_dephasing_bound,
    superhyperfine_splitting,
)

GROUND = electronic_moment(2.36)
EXCITED = electronic_moment(0.9)
Y_SITE = SpinBathSite("Y", 0.5, 2.1e6, 3.9e-10, theta=0.0)
V_SITE = SpinBathSite("V", 3.5, 11.2e6, 3.14e-10)

# frozen by direct evaluation of the formula with the shipped constants
GAMMA_SD_AT_HALF_KELVIN = 312773.6


class TestDipolarField:
    def test_on_axis_value(self):
        # mu0/(4 pi) * (1.18 mu_B / r^3) * 2 at 3.9 angstrom
        assert dipolar_field(GROUND, Y_SITE) * 1e3 == pytest.approx(36.9, abs=0.05)

    def test_magic_angle_node(self):
        magic = SpinBathSite("Y", 0.5, 2.1e6, 3.9e-10, theta=math.acos(1 / math.sqrt(3)))
        assert dipolar_field(GROUND, magic) == pytest.approx(0.0, abs=1e-12)

    def test_linear_in_moment(self):
        half = electronic_moment(1.18)
        assert dipolar_field(half, Y_SITE) == pytest.approx(
            dipolar_field(GROUND, Y_SITE) / 2, rel=1e-12
        )

    def test_equatorial_sign(self):
        equatorial = SpinBathSite("Y", 0.5, 2.1e6, 3.9e-10, theta=math.pi / 2)
        on_axis = dipolar_field(GROUND, Y_SITE)
        assert dipolar_field(GROUND, equatorial) == pytest.approx(-on_axis / 2, rel=1e-12)


class TestSuperhyperfine:
    def test_zero_field_ground(self):
        assert superhyperfine_splitting(Y_SITE, GROUND, 0.0) / 1e3 == pytest.approx(80, rel=0.15)
        assert superhyperfine_splitting(Y_SITE, GROUND, 0.0) / 1e3 == pytest.approx(77.5, abs=0.1)

    def test_zero_field_excited(self):
        assert superhyperfine_splitting(Y_SITE, EXCITED, 0.0) / 1e3 == pytest.approx(30, rel=0.15)

    def test_splittings_at_390_mt(self):
        assert superhyperfine_splitting(Y_SITE, GROUND, 0.39) / 1e3 == pytest.approx(740, rel=0.10)
        assert superhyperfine_splitting(Y_SITE, EXCITED, 0.39) / 1e3 == pytest.approx(790, rel=0.10)

    def test_high_field_limit(self):
        """Splitting approaches the bare nuclear Zeeman value gamma_n * B."""
        dip = dipolar_field(GROUND, Y_SITE)
        for factor in (60.0, 120.0, 1000.0):
            b = factor * dip
            splitting = superhyperfine_splitting(Y_SITE, GROUND, b)
            assert splitting == pytest.approx(Y_SITE.gyromagnetic_ratio * b, rel=1.05 / factor)
        b = 120.0 * dip
        assert superhyperfine_splitting(Y_SITE, GROUND, b) == pytest.approx(
            Y_SITE.gyromagnetic_ratio * b, rel=0.01
        )

    def test_nuclear_zeeman_reference_at_390_mt(self):
        assert Y_SITE.gyromagnetic_ratio * 0.39 / 1e3 == pytest.approx(819, rel=0.001)

    def test_continuity_in_field(self):
        fields = np.linspace(0.0, 0.5, 2001)
        values = np.array([superhyperfine_splitting(Y_SITE, GROUND, b) for b in fields])
        steps = np.abs(np.diff(values))
        # bounded slope: |d splitting / dB| <= gamma_n
        assert steps.max() <= Y_SITE.gyromagnetic_ratio * (fields[1] - fields[0]) * 1.001


class TestSublevels:
    def test_vanadium_count(self):
        assert sublevel_count_and_range(V_SITE, GROUND, 0.39)[0] == 8

    def test_vanadium_range_at_390_mt(self):
        _, smallest, largest = sublevel_count_and_range(V_SITE, GROUND, 0.39)
        assert smallest >= 3e6
        assert largest <= 35e6

    def test_yttrium_doublet(self):
        assert sublevel_count_and_range(Y_SITE, GROUND, 0.39)[0] == 2

    def test_span_is_ladder_times_adjacent(self):
        _, smallest, largest = sublevel_count_and_range(V_SITE, GROUND, 0.39)
        assert largest == pytest.approx(7 * smallest, rel=1e-12)


class TestEseemEnvelope:
    def test_no_coupling(self):
        tau = np.linspace(0.0, 20e-6, 101)
        trace = eseem_envelope(750e3, 790e3, 0.0, tau)
        assert np.all(trace.y == 1.0)

    def test_zero_delay_normalization(self):
        for depth in (0.1, 0.5, 1.0):
            trace = eseem_envelope(750e3, 790e3, depth, np.array([0.0, 1e-6]))
            assert trace.y[0] == pytest.approx(1.0, abs=1e-12)

    def test_exact_spectral_content(self):
        """On a commensurate grid the spectrum holds the four beats and nothing else."""
        dt = 25e-9
        tau = np.arange(1600) * dt
        trace = eseem_envelope(750e3, 1000e3, 0.3, tau)
        spectrum = np.abs(np.fft.rfft(trace.y - trace.y.mean()))
        freq = np.fft.rfftfreq(tau.size, dt)
        hot = freq[spectrum > 1e-9 * spectrum.max()]
        assert set(np.round(hot / 1e3).astype(int)) == {250, 750, 1000, 1750}

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=0, max_value=400))
    def test_bounded(self, depth, i):
        tau = np.linspace(0.0, 40e-6, 401)
        trace = eseem_envelope(741.5e3, 789.5e3, depth, tau)
        assert abs(trace.y[i]) <= 1.0 + 1e-12

    def test_rejects_bad_depth(self):
        with pytest.raises(ValidationError):
            eseem_envelope(750e3, 790e3, 1.2, np.linspace(0, 1e-6, 10))


class TestFlipFlop:
    @pytest.fixture()
    def params(self):
        return FlipFlopParams(
            intrinsic_linewidth=10e3,
            dopant_density=6.3e23,
            flip_rate=1.0 / 98e-3,
            temperature=0.5,
            b_field=0.39,
            g_ground=2.36,
            g_excited=0.9,
        )

    def test_gamma_sd_frozen_value(self, params):
        assert flipflop_gamma_sd(params) == pytest.approx(GAMMA_SD_AT_HALF_KELVIN, rel=1e-4)

    def test_high_temperature_maximal(self, params):
        hot = FlipFlopParams(
            intrinsic_linewidth=10e3,
            dopant_density=6.3e23,
            flip_rate=params.flip_rate,
            temperature=1e6,
            b_field=0.39,
            g_ground=2.36,
            g_excited=0.9,
        )
        assert flipflop_gamma_sd(hot) > flipflop_gamma_sd(params)
        assert flipflop_gamma_sd(hot) == pytest.approx(
            GAMMA_SD_AT_HALF_KELVIN / 0.6976, rel=1e-3
        )

    def test_linear_in_density(self, params):
        doubled = FlipFlopParams(
            intrinsic_linewidth=10e3,
            dopant_density=2 * 6.3e23,
            flip_rate=params.flip_rate,
            temperature=0.5,
            b_field=0.39,
            g_ground=2.36,
            g_excited=0.9,
        )
        assert flipflop_gamma_sd(doubled) == pytest.approx(2 * flipflop_gamma_sd(params), rel=1e-12)

    def test_small_x_limit(self):
        """1/(pi T_M) -> Gamma_0 with relative error x/4 as x -> 0."""
        gamma0 = 1e3
        for x in (1e-6, 1e-9):
            product = x * math.pi * gamma0**2
            tm = flipflop_tm(gamma0, product, 1.0)
            assert abs(1.0 / (math.pi * tm) - gamma0) / gamma0 < 1e-4

    def test_small_x_added_dephasing_expansion(self):
        gamma0, gamma_sd, rate = 10e3, 1e3, 1e-2
        expected = gamma_sd * rate / (4 * math.pi * gamma0)
        assert flipflop_added_dephasing(gamma0, gamma_sd, rate) == pytest.approx(
            expected, rel=1e-3
        )

    def test_added_dephasing_within_factor_two(self, params):
        added = flipflop_added_dephasing(
            params.intrinsic_linewidth, flipflop_gamma_sd(params), params.flip_rate
        )
        assert 15.0 <= added <= 60.0

    def test_static_bath(self):
        assert flipflop_tm(1e3, 5e4, 0.0) == pytest.approx(1.0 / (math.pi * 1e3), rel=1e-12)

    def test_monotone_in_gamma_sd_and_rate(self):
        base = flipflop_tm(1e3, 5e4, 10.0)
        assert flipflop_tm(1e3, 1e5, 10.0) < base
        assert flipflop_tm(1e3, 5e4, 20.0) < base

    @given(
        st.floats(min_value=1e2, max_value=1e5),
        st.floats(min_value=1e1, max_value=1e7),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_added_dephasing_non_negative(self, gamma0, gamma_sd, rate):
        assert flipflop_added_dephasing(gamma0, gamma_sd, rate) >= -1e-9 * gamma0


class TestDephasingBound:
    def test_reference_value(self):
        assert superhyperfine_dephasing_bound(90e-6, 27e-6) == pytest.approx(10.0e3, rel=0.03)

    def test_radiative_limit(self):
        assert superhyperfine_dephasing_bound(50e-6, 100e-6) == pytest.approx(0.0, abs=1e-9)

    def test_doped_vs_undoped_upper_bound(self):
        excess = 1.0 / (math.pi * 25.4e-6) - 1.0 / (math.pi * 27.0e-6)
        assert excess == pytest.approx(742.6, rel=0.01)
        assert excess < 1e3


class TestSiteValidation:
    def test_rejects_zero_distance(self):
        with pytest.raises(ValidationError):
            SpinBathSite("Y", 0.5, 2.1e6, 0.0)

    def test_rejects_non_half_integer_spin(self):
        with pytest.raises(ValidationError):
            SpinBathSite("Y", 0.7, 2.1e6, 3.9e-10)

    def test_moment_is_half_g_bohr_magneton(self):
        from rexsim.constants import MU_B

        assert GROUND == pytest.approx(1.18 * MU_B, rel=1e-12)

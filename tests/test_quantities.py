import math

import pytest
import scipy.constants as sc
from hypothesis import given
from hypothesis import strategies as st

from rexsim.constants import C_LIGHT, E_CHARGE, EPS0, H_PLANCK, HBAR, K_B, M_E, MU_0, MU_B
from rexsim.errors import InconsistencyError, ValidationError
from rexsim.quantities import (
    MEASUREMENT_TOLERANCE,
    angular_from_ordinary,
    boltzmann_population_ratio,
    check_radiative_limit,
    ordinary_from_angular,
    sech_squared_thermal,
)


class TestConstants:
    @pytest.mark.parametrize(
        "ours, scipy_value",
        [
            (EPS0, sc.epsilon_0),
            (M_E, sc.m_e),
            (E_CHARGE, sc.e),
            (C_LIGHT, sc.c),
            (HBAR, sc.hbar),
            (H_PLANCK, sc.h),
            (K_B, sc.k),
            (MU_B, sc.physical_constants["Bohr magneton"][0]),
            (MU_0, sc.mu_0),
        ],
    )
    def test_matches_codata_to_six_digits(self, ours, scipy_value):
        assert ours == pytest.approx(scipy_value, rel=1e-6)

    def test_bohr_magneton_frequency(self):
        # 13.996 GHz/T to four significant digits
        assert MU_B / H_PLANCK / 1e9 == pytest.approx(13.996, abs=5e-4)


class TestConversions:
    def test_zero(self):
        assert angular_from_ordinary(0.0) == 0.0

    def test_90_ghz(self):
        assert angular_from_ordinary(90e9) == pytest.approx(5.655e11, rel=1e-3)

    @given(st.floats(min_value=1e-6, max_value=1e18, allow_nan=False))
    def test_round_trip_is_identity(self, f):
        # exact to 1 ulp: a single multiply and divide by the same 2*pi
        assert ordinary_from_angular(angular_from_ordinary(f)) == pytest.approx(
            f, rel=1e-15
        )


class TestBoltzmann:
    def test_zeeman_population_at_half_kelvin(self):
        # h * 12.88 GHz / k = 0.618 K -> exp(-1.236) at 0.5 K
        assert boltzmann_population_ratio(12.88e9, 0.5) == pytest.approx(0.290, abs=5e-4)

    def test_degenerate_levels(self):
        assert boltzmann_population_ratio(0.0, 1.0) == 1.0

    def test_rejects_non_positive_temperature(self):
        with pytest.raises(ValidationError):
            boltzmann_population_ratio(1e9, 0.0)

    @given(
        st.floats(min_value=1e6, max_value=1e11),
        st.floats(min_value=1e6, max_value=1e11),
        st.floats(min_value=0.05, max_value=100.0),
    )
    def test_decreasing_in_splitting(self, f, df, t):
        # ranges keep the exponent away from float underflow where the
        # mathematical strict ordering ties out at subnormals
        assert boltzmann_population_ratio(f + df, t) < boltzmann_population_ratio(f, t)

    @given(
        st.floats(min_value=1e8, max_value=1e11),
        st.floats(min_value=0.05, max_value=50.0),
        st.floats(min_value=0.05, max_value=50.0),
    )
    def test_increasing_in_temperature(self, f, t, dt):
        assert boltzmann_population_ratio(f, t + dt) > boltzmann_population_ratio(f, t)


class TestSechSquared:
    def test_infinite_temperature_limit(self):
        assert sech_squared_thermal(2.36, 0.39, 1e9) == pytest.approx(1.0, abs=1e-9)

    def test_reference_value(self):
        # argument g mu_B B / 2kT = 0.618 at the measured field and temperature
        assert sech_squared_thermal(2.36, 0.39, 0.5) == pytest.approx(0.698, abs=5e-4)

    def test_zero_moment(self):
        assert sech_squared_thermal(0.0, 0.39, 0.5) == 1.0

    def test_rejects_non_positive_temperature(self):
        with pytest.raises(ValidationError):
            sech_squared_thermal(2.36, 0.39, -1.0)

    @given(
        st.floats(min_value=0.0, max_value=20.0),
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.5, max_value=1e3),
    )
    def test_bounded(self, g, b, t):
        # temperature floor keeps the argument within double-precision range
        assert 0.0 < sech_squared_thermal(g, b, t) <= 1.0

    @given(
        st.floats(min_value=0.1, max_value=20.0),
        st.floats(min_value=0.01, max_value=10.0),
        st.floats(min_value=0.5, max_value=10.0),
    )
    def test_strictly_below_unity_for_finite_argument(self, g, b, t):
        assert sech_squared_thermal(g, b, t) < 1.0

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_unity_at_zero_argument(self, t):
        assert sech_squared_thermal(0.0, 5.0, t) == 1.0
        assert sech_squared_thermal(5.0, 0.0, t) == 1.0

    def test_equals_sech_squared(self):
        from rexsim.constants import K_B, MU_B

        arg = 2.36 * MU_B * 0.39 / (2 * K_B * 0.5)
        assert sech_squared_thermal(2.36, 0.39, 0.5) == pytest.approx(
            1.0 / math.cosh(arg) ** 2, rel=1e-14
        )


class TestRadiativeLimit:
    T1 = 1.2e-6

    def test_tolerance_band(self):
        check_radiative_limit(self.T1, (1.0 + MEASUREMENT_TOLERANCE) * 2.0 * self.T1)
        with pytest.raises(InconsistencyError, match="radiative limit .* by more than 5%"):
            check_radiative_limit(self.T1, 1.001 * (1.0 + MEASUREMENT_TOLERANCE) * 2.0 * self.T1)

    def test_every_caller_shares_the_band(self):
        from rexsim.cavity import CoherenceSummary, indistinguishability
        from rexsim.dynamics import TwoLevelParams

        inside, beyond = 2.08 * self.T1, 2.12 * self.T1
        assert TwoLevelParams(t1=self.T1, t2=inside).t2 == 2.0 * self.T1
        assert indistinguishability(inside, self.T1) == 1.0
        CoherenceSummary(t1=self.T1, t2=inside)
        for build in (
            lambda: TwoLevelParams(t1=self.T1, t2=beyond),
            lambda: CoherenceSummary(t1=self.T1, t2=beyond),
            lambda: indistinguishability(beyond, self.T1),
        ):
            with pytest.raises(InconsistencyError):
                build()

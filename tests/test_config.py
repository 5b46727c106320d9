import math

import pytest

from rexsim.config import (
    default_document,
    parse_config,
    parse_config_text,
    serialize,
)
from rexsim.errors import ConfigError
from rexsim.spinbath import electronic_moment


class TestParsing:
    def test_default_document_has_all_sections(self):
        doc = default_document()
        assert set(doc.values) == {
            "material",
            "cavity",
            "field",
            "spinbath",
            "detection",
            "simulation",
        }

    def test_shipped_default_serialization_parses(self):
        text = serialize(default_document())
        doc = parse_config_text(text)
        assert doc == default_document()

    def test_round_trip_with_overrides(self):
        text = "[cavity]\nq_factor = 7800\n[field]\nb_field_mt = 200\n"
        doc = parse_config_text(text)
        again = parse_config_text(serialize(doc))
        assert again == doc
        assert again.si("cavity", "q_factor") == 7800

    def test_unknown_key_reports_line_number(self):
        text = "[cavity]\nq_factor = 3900\nbogus_key = 1\n"
        with pytest.raises(ConfigError, match="line 3.*bogus_key"):
            parse_config_text(text)

    def test_unknown_section_reports_line_number(self):
        with pytest.raises(ConfigError, match="line 1.*mystery"):
            parse_config_text("[mystery]\n")

    def test_negative_q_rejected_naming_key(self):
        with pytest.raises(ConfigError, match="q_factor"):
            parse_config_text("[cavity]\nq_factor = -1\n")

    def test_non_numeric_value(self):
        with pytest.raises(ConfigError, match="line 2.*expects a number"):
            parse_config_text("[cavity]\nq_factor = huge\n")

    @pytest.mark.parametrize("line", ["refractive_index = nan", "q_factor = inf"])
    def test_non_finite_value(self, line):
        section = "material" if "refractive" in line else "cavity"
        with pytest.raises(ConfigError, match="line 2.*must be finite"):
            parse_config_text(f"[{section}]\n{line}\n")

    def test_non_integer_for_integer_key(self):
        with pytest.raises(ConfigError, match="line 2.*seed.*expects an integer"):
            parse_config_text("[simulation]\nseed = 4.5\n")

    def test_duplicate_key(self):
        text = "[cavity]\nq_factor = 3900\n[field]\n[cavity]\nq_factor = 7800\n"
        with pytest.raises(ConfigError, match="line 5.*q_factor.*already set on line 2"):
            parse_config_text(text)

    def test_key_before_section(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("q_factor = 1\n")

    def test_choice_key_validated(self):
        with pytest.raises(ConfigError, match="local_field_model"):
            parse_config_text("[material]\nlocal_field_model = imaginary\n")

    def test_comments_and_blank_lines(self):
        text = "# leading comment\n\n[field]\ntemperature_k = 1.2  # inline\n"
        doc = parse_config_text(text)
        assert doc.si("field", "temperature_k") == 1.2

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_config(str(tmp_path / "absent.ini"))

    def test_file_parse(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[simulation]\nseed = 7\n", encoding="utf-8")
        assert parse_config(str(path)).seed() == 7

    def test_byte_order_mark_is_ignored(self, tmp_path):
        text = "[material]\nlocal_field_model = virtual\n[simulation]\nseed = 7\n"
        path = tmp_path / "bom.ini"
        path.write_text("\ufeff" + text, encoding="utf-8")
        assert parse_config(str(path)) == parse_config_text(text)


class TestUnitConversion:
    def test_wavelength_nm_to_m(self):
        doc = default_document()
        assert doc.si("material", "wavelength_nm") == pytest.approx(880e-9)

    def test_absorption_area_ghz_cm_to_si(self):
        doc = default_document()
        assert doc.si("material", "absorption_area_ghz_cm") == pytest.approx(1.02e13)

    def test_field_mt_to_t(self):
        doc = default_document()
        assert doc.si("field", "b_field_mt") == pytest.approx(0.39)

    def test_angle_deg_to_rad(self):
        doc = parse_config_text("[spinbath]\nsite_theta_deg = 90\n")
        assert doc.si("spinbath", "site_theta_deg") == pytest.approx(math.pi / 2)

    def test_mode_volume_um3_to_m3(self):
        doc = default_document()
        assert doc.si("cavity", "mode_volume_um3") == pytest.approx(0.056e-18)


class TestAccessors:
    def test_material(self):
        material = default_document().material()
        assert material.refractive_index == 2.1785
        assert material.t1_fluorescence == pytest.approx(90e-6)

    def test_cavity_device_prefers_measured_kappa(self):
        device = default_document().cavity_device()
        assert device.kappa == pytest.approx(2 * math.pi * 90e9)

    def test_detection_chain_matches_measured_stages(self):
        from rexsim.cavity import detection_budget

        chain = default_document().detection_chain()
        assert len(chain.stages) == 5
        assert detection_budget(chain)[1] == pytest.approx(0.0365, abs=5e-5)

    def test_sites_and_moments(self):
        doc = default_document()
        assert doc.yttrium_site().gyromagnetic_ratio == pytest.approx(2.1e6)
        assert doc.vanadium_site().spin == 3.5
        assert doc.ground_moment() == electronic_moment(2.36)

    def test_flipflop_params(self):
        params = default_document().flipflop_params()
        assert params.flip_rate == pytest.approx(1 / 98e-3)
        assert params.intrinsic_linewidth == pytest.approx(10e3)

    def test_emitter_scheme_and_period(self):
        doc = default_document()
        assert doc.pulse_period() == pytest.approx(40e-6)
        assert doc.emitter_scheme().p_detect == pytest.approx(0.036)

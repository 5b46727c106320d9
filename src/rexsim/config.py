"""INI-style configuration: parsing, validation and typed accessors.

Keys embed their unit in the name (wavelength_nm, b_field_mt, ...) and are
converted to SI once, here. Unknown sections or keys are rejected with the
offending line number; every key has a default taken from the measured
device so an empty file is a valid configuration.
"""

import math
from dataclasses import dataclass

from .cavity import CavityDevice, CoherenceSummary, DetectionChain
from .errors import ConfigError
from .photonstats import BackgroundModel, EmitterLevelScheme
from .quantities import angular_from_ordinary
from .spectroscopy import LocalFieldModel, MaterialSpec
from .spinbath import ElectronicMoment, FlipFlopParams, SpinBathSite


@dataclass(frozen=True)
class ConfigKey:
    section: str
    name: str
    default: float | str | int
    si_factor: float = 1.0
    minimum: float | None = None
    exclusive: bool = True
    choices: tuple[str, ...] | None = None
    comment: str = ""

    @property
    def is_number(self) -> bool:
        return not isinstance(self.default, str)


_DEG = math.pi / 180.0

# One entry per allowed key. si_factor converts the config value to SI
# (ordinary frequencies; conversion to angular happens in the accessors).
KEY_TABLE: tuple[ConfigKey, ...] = (
    ConfigKey("material", "absorption_area_ghz_cm", 102.0, 1e9 * 100.0, 0.0, False,
              comment="integrated absorption of the probed transition, GHz/cm"),
    ConfigKey("material", "ion_density_per_m3", 1.24e23, 1.0, 0.0,
              comment="dopant density of the absorption reference sample"),
    ConfigKey("material", "refractive_index", 2.1785, 1.0, 1.0,
              comment="host index for the probed polarization"),
    ConfigKey("material", "wavelength_nm", 880.0, 1e-9, 0.0,
              comment="vacuum wavelength of the optical transition"),
    ConfigKey("material", "t1_bulk_us", 90.0, 1e-6, 0.0,
              comment="fluorescence lifetime far from the cavity"),
    ConfigKey("material", "g_ground", 2.36, 1.0, 0.0,
              comment="ground-state g-factor perpendicular to the c-axis"),
    ConfigKey("material", "g_excited", 0.9, 1.0, 0.0,
              comment="excited-state g-factor; fitted-consistency value, not a measured one"),
    ConfigKey("material", "local_field_model", "real",
              choices=tuple(m.value for m in LocalFieldModel), comment="local-field correction variant"),

    ConfigKey("cavity", "q_factor", 3900.0, 1.0, 0.0, comment="loaded quality factor"),
    ConfigKey("cavity", "mode_volume_um3", 0.056, 1e-18, 0.0, comment="simulated mode volume"),
    ConfigKey("cavity", "kappa_ghz", 90.0, 1e9, 0.0,
              comment="measured total energy decay rate; wins over q_factor"),
    ConfigKey("cavity", "kappa_in_fraction", 0.45, 1.0, 0.0,
              comment="input-mirror share of the total decay"),
    ConfigKey("cavity", "resonance_ghz", 340703.0, 1e9, 0.0,
              comment="cavity resonance frequency"),

    ConfigKey("field", "b_field_mt", 390.0, 1e-3, 0.0, False, comment="applied magnetic field"),
    ConfigKey("field", "temperature_k", 0.5, 1.0, 0.0, comment="sample temperature"),

    ConfigKey("spinbath", "y_gyromagnetic_mhz_t", 2.1, 1e6, 0.0,
              comment="yttrium nuclear gyromagnetic ratio, MHz/T"),
    ConfigKey("spinbath", "y_distance_angstrom", 3.9, 1e-10, 0.0,
              comment="nearest-neighbour yttrium distance"),
    ConfigKey("spinbath", "v_gyromagnetic_mhz_t", 11.2, 1e6, 0.0,
              comment="vanadium nuclear gyromagnetic ratio, MHz/T"),
    ConfigKey("spinbath", "v_distance_angstrom", 3.14, 1e-10, 0.0,
              comment="nearest-neighbour vanadium distance"),
    ConfigKey("spinbath", "v_spin", 3.5, 1.0, 0.0),
    ConfigKey("spinbath", "site_theta_deg", 0.0, _DEG, None,
              comment="moment-to-ligand angle of the representative site"),
    ConfigKey("spinbath", "modulation_depth", 0.2, 1.0, 0.0, False,
              comment="echo-envelope modulation depth (amplitude only, not beat frequencies)"),
    ConfigKey("spinbath", "nd_density_per_m3", 6.3e23, 1.0, 0.0,
              comment="dopant density of the device crystal"),
    ConfigKey("spinbath", "spin_t1_ms", 98.0, 1e-3, 0.0, comment="dopant spin lifetime"),
    ConfigKey("spinbath", "gamma0_khz", 10.0, 1e3, 0.0,
              comment="flip-flop intrinsic linewidth Gamma_0; free model parameter "
                      "set to the measured superhyperfine-limited dephasing scale"),

    ConfigKey("detection", "stage_cavity_out", 0.45, 1.0, 0.0, comment="cavity to waveguide"),
    ConfigKey("detection", "stage_waveguide_fiber", 0.19, 1.0, 0.0, comment="waveguide to fiber"),
    ConfigKey("detection", "stage_fiber_path", 0.80, 1.0, 0.0, comment="fiber splices and connectors"),
    ConfigKey("detection", "stage_circulator", 0.65, 1.0, 0.0, comment="circulator transmission"),
    ConfigKey("detection", "stage_detector", 0.82, 1.0, 0.0, comment="detector efficiency"),

    ConfigKey("simulation", "t1_cavity_us", 2.1, 1e-6, 0.0,
              comment="lifetime of the cavity-coupled ion"),
    ConfigKey("simulation", "t2_us", 25.4, 1e-6, 0.0,
              comment="homogeneous coherence time without cavity enhancement"),
    ConfigKey("simulation", "t2_undoped_us", 27.0, 1e-6, 0.0,
              comment="coherence time of the nominally undoped reference crystal"),
    ConfigKey("simulation", "t2_star_us", 4.0, 1e-6, 0.0, comment="Ramsey dephasing time"),
    ConfigKey("simulation", "gamma_star_khz", 9.7, 1e3, 0.0, comment="pure dephasing rate"),
    ConfigKey("simulation", "g0_measured_mhz", 28.5, 1e6, 0.0,
              comment="vacuum coupling rate fitted from Rabi data (ordinary MHz)"),
    ConfigKey("simulation", "pulse_ns", 250.0, 1e-9, 0.0, comment="square excitation pulse length"),
    ConfigKey("simulation", "repetition_khz", 25.0, 1e3, 0.0, comment="pulse repetition rate"),
    ConfigKey("simulation", "sfs_amplitude", 1.13e4, 1.0, 0.0,
              comment="power-law amplitude, ions per bandwidth at 1 GHz detuning"),
    ConfigKey("simulation", "sfs_exponent", 2.9, 1.0, 0.0, comment="inhomogeneous tail exponent"),
    ConfigKey("simulation", "p_excite", 0.55, 1.0, 0.0, comment="excitation probability per pulse"),
    ConfigKey("simulation", "p_detect", 0.036, 1.0, 0.0,
              comment="photon detection probability per emission"),
    ConfigKey("simulation", "p_shelve", 0.1, 1.0, 0.0, False,
              comment="shelving probability per emission"),
    ConfigKey("simulation", "shelf_recovery_hz", 1400.0, 1.0, 0.0,
              comment="dark-state recovery rate; places the bunching shoulder near 355 us"),
    ConfigKey("simulation", "background_per_pulse", 0.001, 1.0, 0.0, False,
              comment="weakly coupled ion background, counts per pulse"),
    ConfigKey("simulation", "seed", 12345, 1.0, 0.0, False, comment="master random seed"),
)

_LOOKUP = {(k.section, k.name): k for k in KEY_TABLE}
_SECTIONS = tuple(dict.fromkeys(k.section for k in KEY_TABLE))


@dataclass
class ConfigDocument:
    """Validated configuration: raw values per section plus SI accessors."""

    values: dict

    def raw(self, section: str, name: str):
        return self.values[section][name]

    def si(self, section: str, name: str) -> float:
        """Value converted to SI units via the key table."""
        key = _LOOKUP[(section, name)]
        value = self.values[section][name]
        if not key.is_number:
            raise ConfigError(f"key {section}.{name} is not numeric")
        return float(value) * key.si_factor

    # ---- typed accessors -------------------------------------------------

    def material(self) -> MaterialSpec:
        return MaterialSpec(
            absorption_area=self.si("material", "absorption_area_ghz_cm"),
            ion_density=self.si("material", "ion_density_per_m3"),
            refractive_index=self.si("material", "refractive_index"),
            wavelength=self.si("material", "wavelength_nm"),
            t1_fluorescence=self.si("material", "t1_bulk_us"),
            g_ground=self.si("material", "g_ground"),
        )

    def local_field_model(self) -> LocalFieldModel:
        return LocalFieldModel(self.raw("material", "local_field_model"))

    def cavity_device(self) -> CavityDevice:
        return CavityDevice(
            q_factor=self.si("cavity", "q_factor"),
            mode_volume=self.si("cavity", "mode_volume_um3"),
            resonance=angular_from_ordinary(self.si("cavity", "resonance_ghz")),
            input_fraction=self.si("cavity", "kappa_in_fraction"),
            kappa=angular_from_ordinary(self.si("cavity", "kappa_ghz")),
        )

    def detection_chain(self) -> DetectionChain:
        stage_keys = [k for k in KEY_TABLE if k.section == "detection" and k.name.startswith("stage_")]
        stages = tuple(
            (k.name.removeprefix("stage_"), self.si("detection", k.name)) for k in stage_keys
        )
        return DetectionChain(stages=stages)

    def coherence(self) -> CoherenceSummary:
        return CoherenceSummary(
            t1=self.si("material", "t1_bulk_us"),
            t2=self.si("simulation", "t2_us"),
            pure_dephasing=self.si("simulation", "gamma_star_khz"),
        )

    def ground_moment(self) -> ElectronicMoment:
        return ElectronicMoment("ground", self.si("material", "g_ground"))

    def excited_moment(self) -> ElectronicMoment:
        return ElectronicMoment("excited", self.si("material", "g_excited"))

    def yttrium_site(self) -> SpinBathSite:
        return SpinBathSite(
            species="Y",
            spin=0.5,  # 89Y has I = 1/2; only its doublet splitting is computed
            gyromagnetic_ratio=self.si("spinbath", "y_gyromagnetic_mhz_t"),
            distance=self.si("spinbath", "y_distance_angstrom"),
            theta=self.si("spinbath", "site_theta_deg"),
        )

    def vanadium_site(self) -> SpinBathSite:
        return SpinBathSite(
            species="V",
            spin=self.si("spinbath", "v_spin"),
            gyromagnetic_ratio=self.si("spinbath", "v_gyromagnetic_mhz_t"),
            distance=self.si("spinbath", "v_distance_angstrom"),
            theta=self.si("spinbath", "site_theta_deg"),
        )

    def flipflop_params(self) -> FlipFlopParams:
        return FlipFlopParams(
            intrinsic_linewidth=self.si("spinbath", "gamma0_khz"),
            dopant_density=self.si("spinbath", "nd_density_per_m3"),
            flip_rate=1.0 / self.si("spinbath", "spin_t1_ms"),
            temperature=self.si("field", "temperature_k"),
            b_field=self.si("field", "b_field_mt"),
            g_ground=self.si("material", "g_ground"),
            g_excited=self.si("material", "g_excited"),
        )

    def emitter_scheme(self) -> EmitterLevelScheme:
        return EmitterLevelScheme(
            p_excite=self.si("simulation", "p_excite"),
            p_detect=self.si("simulation", "p_detect"),
            p_shelve=self.si("simulation", "p_shelve"),
            shelf_recovery=self.si("simulation", "shelf_recovery_hz"),
        )

    def background(self) -> BackgroundModel:
        return BackgroundModel(mean_per_pulse=self.si("simulation", "background_per_pulse"))

    def pulse_period(self) -> float:
        return 1.0 / self.si("simulation", "repetition_khz")

    def seed(self) -> int:
        return int(self.raw("simulation", "seed"))


def _validate(key: ConfigKey, value, line: int | None):
    if key.choices is not None:
        if value not in key.choices:
            raise ConfigError(
                f"key '{key.section}.{key.name}' must be one of {key.choices}, got '{value}'",
                line,
            )
        return value
    if key.minimum is not None:
        bad = value <= key.minimum if key.exclusive else value < key.minimum
        if bad:
            bound = "greater than" if key.exclusive else "at least"
            raise ConfigError(
                f"key '{key.section}.{key.name}' must be {bound} {key.minimum}, got {value}",
                line,
            )
    return value


def default_document() -> ConfigDocument:
    values = {section: {} for section in _SECTIONS}
    for key in KEY_TABLE:
        values[key.section][key.name] = key.default
    return ConfigDocument(values=values)


def changed_keys(doc: ConfigDocument) -> list[str]:
    """'[section] name = value' for each key whose value differs from its default."""
    return [f"[{k.section}] {k.name} = {doc.raw(k.section, k.name)}"
            for k in KEY_TABLE if doc.raw(k.section, k.name) != k.default]


def parse_config_text(text: str) -> ConfigDocument:
    """Parse and validate configuration text; defaults fill missing keys."""
    doc = default_document()
    section = None
    first_line = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section '[{section}]'", lineno)
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got '{line}'", lineno)
        if section is None:
            raise ConfigError("key appears before any [section] header", lineno)
        name, _, value_text = line.partition("=")
        name = name.strip()
        value_text = value_text.strip()
        key = _LOOKUP.get((section, name))
        if key is None:
            raise ConfigError(f"unknown key '{name}' in section '[{section}]'", lineno)
        if (section, name) in first_line:
            raise ConfigError(
                f"key '{section}.{name}' already set on line {first_line[section, name]}", lineno
            )
        first_line[section, name] = lineno
        if key.is_number:
            try:
                value = float(value_text)
            except ValueError:
                raise ConfigError(
                    f"key '{section}.{name}' expects a number, got '{value_text}'", lineno
                ) from None
            if not math.isfinite(value):
                raise ConfigError(f"key '{section}.{name}' must be finite, got '{value_text}'", lineno)
            if isinstance(key.default, int):
                if not value.is_integer():
                    raise ConfigError(
                        f"key '{section}.{name}' expects an integer, got '{value_text}'", lineno
                    )
                value = int(value)
        else:
            value = value_text
        doc.values[section][name] = _validate(key, value, lineno)
    return doc


def parse_config(path: str) -> ConfigDocument:
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        return parse_config_text(handle.read())


def serialize(doc: ConfigDocument) -> str:
    """Render a document back to text; parse(serialize(doc)) == doc."""
    lines = []
    for section in _SECTIONS:
        lines.append(f"[{section}]")
        for key in KEY_TABLE:
            if key.section != section:
                continue
            value = doc.values[section][key.name]
            suffix = f"  # {key.comment}" if key.comment else ""
            lines.append(f"{key.name} = {value}{suffix}")
        lines.append("")
    return "\n".join(lines)

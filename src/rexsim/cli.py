"""Command-line front end.

One subcommand per experiment or derivation in the source material, plus
``golden``: the ``REFERENCES`` rows of six of them at their default flags.
Only ``main`` writes output: reports to stdout, notes to stderr, curves to CSV.

Exit codes: 0 success, 2 unknown subcommand or bad flags (argparse), 3
validation/configuration failure or unusable path, 4 numeric failure
(including overflow, division by zero, numpy floating-point errors and golden
rows outside tolerance).
"""

import argparse
import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__, cavity, dynamics, photonstats, spinbath
from .config import ConfigDocument, changed_keys, default_document, parse_config, serialize
from .csvio import read_trace_csv, write_trace_csv
from .errors import NumericError, RexsimError, ValidationError
from .quantities import angular_from_ordinary, ordinary_from_angular
from .spectroscopy import derive_transition, zeeman_splitting
from .trace import TimeTrace

EXIT_OK = 0
EXIT_VALIDATION = 3
EXIT_NUMERIC = 4

# Paper values the reported quantities are checked against, in the order
# ``golden`` prints them: name -> (reference, tolerance, kind).
REFERENCES = {
    "oscillator_strength": (3.7e-5, 0.02, "rel"),
    "radiative_lifetime": (237.0, 0.02, "rel"),
    "branching_ratio": (0.38, 0.02, "rel"),
    "dipole_moment": (1.59e-31, 0.02, "rel"),
    "ground_zeeman_splitting": (12.88, 0.005, "rel"),
    "g0_theoretical": (52.7, 0.02, "rel"),
    "purcell_max": (189.0, 0.03, "rel"),
    "purcell_cross_route": (189.0, 0.03, "rel"),
    "t_cav_predicted": (1.25, 0.05, "rel"),
    "purcell_measured": (111.0, 0.02, "rel"),
    "cooperativity": (2.9, 0.03, "rel"),
    "indistinguishability": (0.952, 0.005, "rel"),
    "power_for_one_photon": (71.8, 0.02, "rel"),
    "cooperativity_qx10": (29.0, 0.10, "rel"),
    "y_zero_field_ground": (80.0, 0.15, "rel"),
    "y_zero_field_excited": (30.0, 0.15, "rel"),
    "delta_g": (740.0, 0.10, "rel"),
    "delta_e": (790.0, 0.10, "rel"),
    "v_sublevels": (8.0, 0.0, "abs"),
    "dephasing_bound": (10.0, 0.03, "rel"),
    "added_dephasing": (30.0, 2.0, "factor"),
    "overall_efficiency": (0.036, 0.005, "abs"),
    "flip_flop_upper_bound": (1.0, None, "upper"),
    "single_ion_threshold": (25.0, 0.05, "rel"),
}


@dataclass
class ReportRow:
    """One reported quantity, optionally checked against a reference value.

    kind selects the tolerance semantics: 'rel' (relative), 'abs'
    (absolute), 'factor' (value within [ref/tol, ref*tol]) or 'upper'
    (value must stay below the reference).
    """

    name: str
    value: float
    unit: str = ""
    reference: float | None = None
    tolerance: float | None = None
    kind: str = "rel"

    @property
    def deviation(self) -> float | None:
        if self.reference in (None, 0.0):
            return None
        return (self.value - self.reference) / self.reference

    @property
    def passed(self) -> bool | None:
        if self.reference is None:
            return None
        if self.kind == "upper":
            return self.value < self.reference
        if self.kind == "abs":
            return abs(self.value - self.reference) <= self.tolerance
        if self.kind == "factor":
            return self.reference / self.tolerance <= self.value <= self.reference * self.tolerance
        return abs(self.deviation) <= self.tolerance


@dataclass
class RunReport:
    title: str
    rows: list = field(default_factory=list)
    preamble: list = field(default_factory=list)  # stdout lines before the table
    notes: list = field(default_factory=list)  # stderr lines after it
    curve: TimeTrace | None = None  # what --out writes

    def add(self, name: str, value: float, unit: str = ""):
        self.rows.append(ReportRow(name, value, unit))

    def check(self, name: str, value: float, unit: str = ""):
        """Add a row held to its REFERENCES entry; a name not listed there is unchecked."""
        self.rows.append(ReportRow(name, value, unit, *REFERENCES.get(name, ())))

    @property
    def all_passed(self) -> bool:
        return all(row.passed is not False for row in self.rows)

    def render(self) -> str:
        header = ("quantity", "value", "unit", "reference", "deviation", "status")
        table = [header]
        for row in self.rows:
            dev = row.deviation
            status = "" if row.passed is None else ("PASS" if row.passed else "FAIL")
            table.append(
                (
                    row.name,
                    f"{row.value:.6g}",
                    row.unit,
                    "" if row.reference is None else f"{row.reference:.6g}",
                    "" if dev is None else f"{dev:+.2%}",
                    status,
                )
            )
        widths = [max(len(r[i]) for r in table) for i in range(len(header))]
        lines = [*self.preamble, self.title]
        for i, entry in enumerate(table):
            lines.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(entry)).rstrip())
            if i == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines)


# --------------------------------------------------------------------------
# shared derivations


def _transition(doc: ConfigDocument):
    return derive_transition(doc.material(), doc.local_field_model())


def _delta_g_delta_e(doc: ConfigDocument, b_field: float) -> tuple[float, float]:
    site = doc.yttrium_site()
    dg = spinbath.superhyperfine_splitting(site, doc.ground_moment(), b_field)
    de = spinbath.superhyperfine_splitting(site, doc.excited_moment(), b_field)
    return dg, de


# --------------------------------------------------------------------------
# subcommands


def cmd_spectro(args, doc: ConfigDocument) -> RunReport:
    material = doc.material()
    model = doc.local_field_model()
    tr = _transition(doc)
    b_field = doc.si("field", "b_field_mt")
    report = RunReport(f"transition parameters ({model.value}-cavity local field)")
    report.add("local_field_correction", tr.local_field_correction, "")
    report.check("oscillator_strength", tr.oscillator_strength)
    report.check("radiative_lifetime", tr.radiative_lifetime * 1e6, "us")
    report.check("branching_ratio", tr.branching_ratio)
    report.check("dipole_moment", tr.dipole_moment, "C m")
    report.add("transition_frequency", ordinary_from_angular(tr.angular_frequency) / 1e12, "THz")
    report.check("ground_zeeman_splitting", zeeman_splitting(material.g_ground, b_field) / 1e9, "GHz")
    return report


def cmd_cavity(args, doc: ConfigDocument) -> RunReport:
    material = doc.material()
    tr = _transition(doc)
    device = doc.cavity_device()
    kappa = device.kappa
    g0_max = cavity.max_coupling_g0(
        tr.dipole_moment, material.refractive_index, tr.angular_frequency, device.mode_volume
    )
    g0_meas = angular_from_ordinary(doc.si("simulation", "g0_measured_mhz"))
    f_max = cavity.max_purcell(
        material.wavelength, material.refractive_index, tr.local_field_correction,
        device.q_factor, device.mode_volume,
    )
    kappa_q = cavity.kappa_from_q(device.resonance, device.q_factor)
    t1_bulk = material.t1_fluorescence
    t_cav = cavity.cavity_lifetime(g0_max, kappa, tr.branching_ratio, t1_bulk)
    t1_cav = doc.si("simulation", "t1_cavity_us")
    t2 = doc.si("simulation", "t2_us")
    t2_star = doc.si("simulation", "t2_star_us")
    coherence = doc.coherence()

    report = RunReport("cavity QED figures of merit")
    report.add("kappa_from_q", ordinary_from_angular(kappa_q) / 1e9, "GHz")
    report.add("kappa_used", ordinary_from_angular(kappa) / 1e9, "GHz")
    report.check("g0_theoretical", ordinary_from_angular(g0_max) / 1e6, "MHz")
    report.check("purcell_max", f_max)
    report.check("purcell_cross_route", 4.0 * g0_max**2 * tr.radiative_lifetime / kappa_q)
    report.check("t_cav_predicted", t_cav * 1e6, "us")
    report.check(
        "purcell_measured",
        cavity.measured_purcell(t1_cav, t1_bulk, tr.branching_ratio, tr.radiative_lifetime),
    )
    report.check("cooperativity", cavity.cooperativity(g0_meas, kappa, t2))
    report.check("indistinguishability", cavity.indistinguishability(t2_star, t1_cav))
    nbar_per_watt = cavity.mean_photon_number(1.0, device.input_rate, kappa, device.resonance)
    report.check("power_for_one_photon", 1e9 / nbar_per_watt, "nW")
    scale = args.q_scale
    _, coop_scaled, _ = cavity.project_q_scaling(
        device, coherence, g0_meas, tr.branching_ratio, t1_bulk, scale)
    t_cav_scaled, _, indist_scaled = cavity.project_q_scaling(
        device, coherence, g0_max, tr.branching_ratio, t1_bulk, scale)
    report.check(f"cooperativity_qx{scale:g}", coop_scaled)
    report.add(f"indistinguishability_qx{scale:g}", indist_scaled, "")
    report.add(f"t_cav_qx{scale:g}", t_cav_scaled * 1e9, "ns")
    return report


def cmd_budget(args, doc: ConfigDocument) -> RunReport:
    rows, total = cavity.detection_budget(doc.detection_chain())
    report = RunReport("photon detection budget", preamble=[
        "stage,efficiency,cumulative",
        *(f"{name},{eff!r},{cum!r}" for name, eff, cum in rows),
        f"total,,{total!r}",
    ])
    report.curve = TimeTrace(
        x=np.arange(1, len(rows) + 1),
        y=[cum for _, _, cum in rows],
        x_name="stage_index",
        x_unit="",
        y_name="cumulative_efficiency",
        y_unit="dimensionless",
        metadata={name: eff for name, eff, _ in rows},
    )
    report.check("overall_efficiency", total)
    return report


def cmd_rabi(args, doc: ConfigDocument) -> RunReport:
    pulse = doc.si("simulation", "pulse_ns")
    report = RunReport("Rabi nutation")
    if args.fit_input:
        trace = read_trace_csv(args.fit_input)
        pulse = trace.metadata.get("pulse_s", pulse)
    if not isinstance(pulse, (int, float)) or not 0.0 < pulse < math.inf:
        raise ValidationError(f"pulse length must be positive and finite, got {pulse!r} s")
    if not args.fit_input:
        g0 = angular_from_ordinary(doc.si("simulation", "g0_measured_mhz"))
        nbar = np.linspace(0.0, args.nbar_max, args.points)
        trace = report.curve = dynamics.rabi_nutation_scan(
            g0,
            nbar,
            pulse,
            t1=doc.si("simulation", "t1_cavity_us"),
            t2=doc.si("simulation", "t2_star_us"),
        )
        report.add("g0_input", ordinary_from_angular(g0) / 1e6, "MHz")
    try:
        nb, omegas = dynamics.extract_rabi_frequencies(trace, pulse)
        g0_fit, g0_err = cavity.g0_from_rabi(nb, omegas)
        report.add("g0_fitted", ordinary_from_angular(g0_fit) / 1e6, "MHz")
        report.add("g0_fit_stderr", ordinary_from_angular(g0_err) / 1e6, "MHz")
        report.add("n_extrema", float(len(nb)), "")
    except RexsimError as exc:
        report.notes.append(f"note: no Rabi extraction ({exc})")
    report.add("pulse_length", pulse * 1e9, "ns")
    return report


def cmd_ramsey(args, doc: ConfigDocument) -> RunReport:
    report = RunReport("Ramsey interference")
    if args.fit_input:
        trace = read_trace_csv(args.fit_input)
    else:
        beat = args.beat_khz * 1e3 if args.beat_khz is not None else (
            _delta_g_delta_e(doc, doc.si("field", "b_field_mt"))[0]
        )
        delays = np.linspace(0.0, args.delay_max_us * 1e-6, args.points + 1)[1:]
        trace = report.curve = dynamics.simulate_ramsey(
            delays,
            t2_star=doc.si("simulation", "t2_star_us"),
            beat=beat,
            detuning=args.detuning_khz * 1e3,
        )
        report.add("beat_input", beat / 1e3, "kHz")
    fit = dynamics.extract_t2star(trace)
    if not args.fit_input:
        # after the fit, so a trace that decays before its first delay stays a
        # flat-trace FitError; a tone above the grid's Nyquist frequency aliases
        tone, delay_max = beat / 2.0 + abs(args.detuning_khz * 1e3), args.delay_max_us * 1e-6
        if tone * 2.0 * delay_max >= args.points:
            raise ValidationError(
                f"the highest tone, beat/2 + |detuning| = {tone / 1e3:.6g} kHz, is not below "
                f"the delay grid's Nyquist frequency {args.points / (2e3 * delay_max):.6g} kHz; "
                "raise --points or lower --delay-max-us"
            )
    report.add("beat_fitted", fit.extras["beat_hz"] / 1e3, "kHz")
    report.add("detuning_fitted", fit.extras["detuning_hz"] / 1e3, "kHz")
    report.add("t2_star_fitted", fit.value * 1e6, "us")
    report.add("t2_star_stderr", fit.stderr * 1e6, "us")
    return report


def cmd_echo(args, doc: ConfigDocument) -> RunReport:
    report = RunReport("two-pulse photon echo")
    t_min = args.t_min_us * 1e-6
    if args.fit_input:
        trace = read_trace_csv(args.fit_input)
    else:
        t2 = doc.si("simulation", "t2_us")
        t12 = np.linspace(0.0, args.t12_max_us * 1e-6, args.points + 1)[1:]
        envelope = None
        if not args.no_modulation:
            dg, de = _delta_g_delta_e(doc, doc.si("field", "b_field_mt"))
            depth = doc.si("spinbath", "modulation_depth")
            envelope = spinbath.eseem_envelope(dg, de, depth, t12)
            report.add("delta_g", dg / 1e3, "kHz")
            report.add("delta_e", de / 1e3, "kHz")
        trace = report.curve = dynamics.simulate_echo_decay(t12, t2, envelope=envelope)
    fit = dynamics.fit_t2_from_echo(trace, t_min)
    report.add("t2_fitted", fit.value * 1e6, "us")
    report.add("t2_stderr", fit.stderr * 1e6, "us")
    report.add("fit_residual_rms", fit.residual_rms, "")
    report.add("fit_window_start", t_min * 1e6, "us")
    return report


def cmd_g2(args, doc: ConfigDocument) -> RunReport:
    scheme = doc.emitter_scheme()
    if args.no_shelving:
        scheme = replace(scheme, p_shelve=0.0)
    background = doc.background()
    period = doc.pulse_period()
    seed = args.seed if args.seed is not None else doc.seed()
    record = photonstats.simulate_emitter_stream(scheme, background, args.pulses, period, seed)
    trace = photonstats.g2_estimator(record, args.max_lag)
    signal = scheme.p_excite * scheme.p_detect
    rho = signal / (signal + background)
    report = RunReport("pulsed intensity autocorrelation", curve=trace)
    report.add("mean_counts_per_pulse", float(np.mean(record.counts)), "")
    report.add("g2_zero", float(trace.y[0]), "")
    report.add("g2_zero_sigma", float(trace.extra["sigma"][0]), "")
    if scheme.p_shelve == 0.0:
        report.add("g2_zero_analytic", photonstats.g2_zero_analytic(rho), "")
    else:
        try:
            report.add(
                "bunching_lag_constant",
                photonstats.bunching_lag_constant(trace) * 1e6,
                "us",
            )
        except RexsimError as exc:
            report.notes.append(f"note: no bunching fit ({exc})")
        lag = photonstats.shelving_lag_analytic(
            scheme.p_excite, scheme.p_shelve, scheme.shelf_recovery, period)
        report.add("bunching_lag_analytic", lag * 1e6, "us")
    return report


def cmd_sfs(args, doc: ConfigDocument) -> RunReport:
    seed = args.seed if args.seed is not None else doc.seed()
    amplitude, exponent = doc.si("simulation", "sfs_amplitude"), doc.si("simulation", "sfs_exponent")
    trace = photonstats.sfs_generate(
        amplitude=amplitude,
        exponent=exponent,
        detuning_min=args.delta_min_ghz,
        detuning_max=args.delta_max_ghz,
        bin_width=args.bin_mhz / 1e3,
        seed=seed,
    )
    # single-realization fit restricted to well-populated bins; the tail is
    # shot-noise dominated and would bias a log-log regression
    usable = (trace.extra["expected"] >= 5.0) & (trace.y > 0)
    fit = dynamics.fit_power_law(trace.x[usable], trace.y[usable])
    report = RunReport("statistical fine structure", curve=trace)
    report.add("bins", float(len(trace)), "")
    report.add("fitted_exponent", fit.value, "")
    report.add("fitted_exponent_stderr", fit.stderr, "")
    report.check("single_ion_threshold", dynamics.single_ion_threshold(amplitude, exponent), "GHz")
    return report


def cmd_histogram(args, doc: ConfigDocument) -> RunReport:
    seed = args.seed if args.seed is not None else doc.seed()
    trace = photonstats.coupling_histogram(samples=args.samples, seed=seed, bins=args.bins)
    report = RunReport("coupling-strength (PL intensity) histogram", curve=trace)
    report.add("samples", float(args.samples), "")
    report.add("dim_fraction", float(trace.y[0]), "")
    report.add("bright_fraction", float(trace.y[-1]), "")
    return report


def cmd_spinbath(args, doc: ConfigDocument) -> RunReport:
    b_field = doc.si("field", "b_field_mt")
    ground = doc.ground_moment()
    excited = doc.excited_moment()
    y_site = doc.yttrium_site()
    v_site = doc.vanadium_site()
    dg0 = spinbath.superhyperfine_splitting(y_site, ground, 0.0)
    de0 = spinbath.superhyperfine_splitting(y_site, excited, 0.0)
    dg, de = _delta_g_delta_e(doc, b_field)
    count, smallest, largest = spinbath.sublevel_count_and_range(v_site, ground, b_field)
    report = RunReport("superhyperfine structure")
    report.check("y_zero_field_ground", dg0 / 1e3, "kHz")
    report.check("y_zero_field_excited", de0 / 1e3, "kHz")
    report.check("delta_g", dg / 1e3, "kHz")
    report.check("delta_e", de / 1e3, "kHz")
    report.check("v_sublevels", float(count))
    report.add("v_min_splitting", smallest / 1e6, "MHz")
    report.add("v_max_splitting", largest / 1e6, "MHz")
    bound = spinbath.superhyperfine_dephasing_bound(
        doc.si("material", "t1_bulk_us"), doc.si("simulation", "t2_undoped_us")
    )
    report.check("dephasing_bound", bound / 1e3, "kHz")
    b_grid = np.linspace(0.0, max(b_field, 0.5), args.points)
    dg_b = [spinbath.superhyperfine_splitting(y_site, ground, b) for b in b_grid]
    report.curve = TimeTrace(
        x=b_grid * 1e3,
        y=np.asarray(dg_b) / 1e3,
        x_name="b_field",
        x_unit="mT",
        y_name="ground_splitting",
        y_unit="kHz",
        metadata={"theta_rad": y_site.theta, "distance_m": y_site.distance},
    )
    return report


def cmd_flipflop(args, doc: ConfigDocument) -> RunReport:
    params = doc.flipflop_params()
    gamma_sd = spinbath.flipflop_gamma_sd(params)
    tm = spinbath.flipflop_tm(params.intrinsic_linewidth, gamma_sd, params.flip_rate)
    added = spinbath.flipflop_added_dephasing(
        params.intrinsic_linewidth, gamma_sd, params.flip_rate
    )
    report = RunReport("dopant flip-flop spectral diffusion")
    report.add("gamma_sd", gamma_sd / 1e3, "kHz")
    report.add("t_m", tm * 1e6, "us")
    report.check("added_dephasing", added, "Hz")
    report.add("gamma0_assumed", params.intrinsic_linewidth / 1e3, "kHz")
    doped = 1.0 / (math.pi * doc.si("simulation", "t2_us"))
    undoped = 1.0 / (math.pi * doc.si("simulation", "t2_undoped_us"))
    report.check("flip_flop_upper_bound", (doped - undoped) / 1e3, "kHz")
    temps = np.linspace(args.t_min_k, args.t_max_k, args.points)
    added_t = []
    for t in temps:
        p = replace(params, temperature=float(t))
        added_t.append(
            spinbath.flipflop_added_dephasing(
                p.intrinsic_linewidth, spinbath.flipflop_gamma_sd(p), p.flip_rate
            )
        )
    report.curve = TimeTrace(
        x=temps,
        y=added_t,
        x_name="temperature",
        x_unit="K",
        y_name="added_dephasing",
        y_unit="Hz",
        metadata={"gamma0_hz": params.intrinsic_linewidth, "b_field_t": params.b_field},
    )
    return report


def cmd_golden(args, doc: ConfigDocument) -> RunReport:
    """The REFERENCES rows of the subcommands that check them, run at their default flags."""
    parser = build_parser()
    rows = {}
    for name in ("spectro", "cavity", "budget", "sfs", "spinbath", "flipflop"):
        rows.update((row.name, row) for row in HANDLERS[name](parser.parse_args([name]), doc).rows)
    report = RunReport("golden regression sweep", [rows[name] for name in REFERENCES])
    if args.write_config:
        with open(args.write_config, "w", encoding="utf-8") as handle:
            handle.write(serialize(doc))
        report.notes.append(f"wrote {args.write_config}")
    return report


# --------------------------------------------------------------------------
# parser


def _count(text: str) -> int:
    # below 2^59: at 2^60 float64 elements numpy raises ValueError, not MemoryError
    value = int(text)
    if not 1 <= value < 2**59:
        raise argparse.ArgumentTypeError(f"must be at least 1 and below 2^59, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rexsim",
        description="single rare-earth-ion cavity QED calculator and simulator",
    )
    parser.add_argument("--version", action="version", version=f"rexsim {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI configuration file (defaults: measured device)")
    writes = argparse.ArgumentParser(add_help=False, parents=[common])
    writes.add_argument("--out", help="CSV output path")
    monte_carlo = argparse.ArgumentParser(add_help=False, parents=[writes])
    monte_carlo.add_argument("--seed", type=int, help="override the master random seed")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sub.add_parser("spectro", parents=[common], help="transition parameter derivation chain")

    p = sub.add_parser("cavity", parents=[common], help="cavity QED figures of merit")
    p.add_argument("--q-scale", type=float, default=10.0, help="Q scaling factor for projections")

    sub.add_parser("budget", parents=[writes], help="photon detection budget (CSV on stdout)")

    p = sub.add_parser("rabi", parents=[writes], help="Rabi nutation versus photon number")
    p.add_argument("--nbar-max", type=float, default=0.2)
    p.add_argument("--points", type=_count, default=400)
    p.add_argument("--fit-input", help="fit an existing rabi CSV instead of simulating")

    p = sub.add_parser("ramsey", parents=[writes], help="Ramsey fringes and T2* extraction")
    p.add_argument("--delay-max-us", type=float, default=12.0)
    p.add_argument("--points", type=_count, default=960)
    p.add_argument("--beat-khz", type=float, default=None,
                   help="beat frequency; default: computed superhyperfine ground splitting")
    p.add_argument("--detuning-khz", type=float, default=0.0)
    p.add_argument("--fit-input", help="fit an existing ramsey CSV instead of simulating")

    p = sub.add_parser("echo", parents=[writes], help="two-pulse echo decay and T2 fit")
    p.add_argument("--t12-max-us", type=float, default=30.0)
    p.add_argument("--points", type=_count, default=600)
    p.add_argument("--t-min-us", type=float, default=4.0, help="start of the linear fit window")
    p.add_argument("--no-modulation", action="store_true")
    p.add_argument("--fit-input", help="fit an existing echo CSV instead of simulating")

    p = sub.add_parser("g2", parents=[monte_carlo], help="pulsed photon correlation Monte Carlo")
    p.add_argument("--pulses", type=_count, default=5_000_000)
    p.add_argument("--max-lag", type=_count, default=100)
    p.add_argument("--no-shelving", action="store_true")

    p = sub.add_parser(
        "sfs", parents=[monte_carlo], help="statistical fine structure of the line tail"
    )
    p.add_argument("--delta-min-ghz", type=float, default=5.0)
    p.add_argument("--delta-max-ghz", type=float, default=35.0)
    p.add_argument("--bin-mhz", type=float, default=100.0)

    p = sub.add_parser("histogram", parents=[monte_carlo], help="ion-cavity coupling histogram")
    p.add_argument("--samples", type=_count, default=200_000)
    p.add_argument("--bins", type=_count, default=25)

    p = sub.add_parser("spinbath", parents=[writes], help="superhyperfine splitting table")
    p.add_argument("--points", type=_count, default=100)

    p = sub.add_parser("flipflop", parents=[writes], help="flip-flop dephasing model")
    p.add_argument("--t-min-k", type=float, default=0.1)
    p.add_argument("--t-max-k", type=float, default=4.0)
    p.add_argument("--points", type=_count, default=80)

    p = sub.add_parser("golden", parents=[common], help="compare all quantities to references")
    p.add_argument("--write-config", help="write the effective configuration to a file")

    return parser


HANDLERS = {
    "spectro": cmd_spectro,
    "cavity": cmd_cavity,
    "budget": cmd_budget,
    "rabi": cmd_rabi,
    "ramsey": cmd_ramsey,
    "echo": cmd_echo,
    "g2": cmd_g2,
    "sfs": cmd_sfs,
    "histogram": cmd_histogram,
    "spinbath": cmd_spinbath,
    "flipflop": cmd_flipflop,
    "golden": cmd_golden,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    defaults = vars(parser.parse_args([args.subcommand]))
    flags = [f"--{k.replace('_', '-')}={v}" for k, v in vars(args).items() if v != defaults[k]]
    blame = ""
    try:
        # every float flag before it reaches a grid
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValidationError(f"--{name.replace('_', '-')} must be finite, got {value}")
        doc = parse_config(args.config) if args.config else default_document()
        off = [f"{what} off their defaults: {', '.join(names)}"
               for what, names in (("config keys", changed_keys(doc)), ("flags", flags)) if names]
        if off:
            blame = f" ({'; '.join(off)})"
        # a numpy overflow or invalid value raises FloatingPointError (exit 4), not a warning
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            report = HANDLERS[args.subcommand](args, doc)
        if report.curve is not None and args.out:
            write_trace_csv(args.out, report.curve, args.subcommand)
            print(f"wrote {args.out}", file=sys.stderr)
        try:
            print(report.render(), flush=True)
        except BrokenPipeError:
            # the reader closed stdout (`rexsim golden | head -1`); aim stdout at
            # devnull so the interpreter's final flush cannot raise again, and
            # keep this run's own exit code
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        for note in report.notes:
            print(note, file=sys.stderr)
        if not report.all_passed:
            print(f"one or more quantities fell outside tolerance{blame}", file=sys.stderr)
            return EXIT_NUMERIC
    except ValidationError as exc:
        print(f"error: {exc}{blame}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:  # a user-named path (--config, --fit-input, --out, --write-config) or a full disk
        reason = exc.strerror or exc
        where = "" if exc.filename is None else f"cannot open {exc.filename}: "
        print(f"error: {where}{reason}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericError, ArithmeticError, MemoryError) as exc:
        if isinstance(exc, OverflowError) and len(exc.args) == 2:  # float overflow: (errno, text)
            exc = exc.args[1]
        print(f"numeric error: {exc}{blame}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

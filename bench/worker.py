"""In-process legs of the benchmark, run in a fresh interpreter per call.

    python3 bench/worker.py setup <workload>      imports + default_document()
    python3 bench/worker.py import-cli            times a fresh `import rexsim.cli`
    python3 bench/worker.py photon|bloch|clilayers --seed N --trace 0|1
        --tmp DIR --result FILE

run.py starts these with PYTHONPATH pointing at the checkout's src/. The
legs workers warm up, print "ready", then run one round for each "round"
line on standard input (answering with one line) until "done". Each round
repeats the same operations on the same inputs. Only calls into the program
are timed; checks run after the timed calls. The result file holds
per-round samples, operation counts, spans (traced runs) and versions.
"""

import argparse
import json
import math
import os
import sys
import time

perf = time.perf_counter

# Inputs of the photon rounds: 5M pulses is the `rexsim g2` default;
# 5M histogram samples as `rexsim histogram --samples 5000000`.
PULSES = 5_000_000
HIST_SAMPLES = 5_000_000
HIST_BINS = 25
HIST_REPEATS = 2              # leg (c) per round, each a sample of both histogram metrics
SFS_RANGE = (5.0, 35.0, 0.1)  # GHz: the `rexsim sfs` defaults
G2_LAG_SHELVING = 100
G2_LAG_PLAIN = 1000

# Inputs of the Bloch rounds.
NBAR = (0.0, 0.2, 400)        # the `rexsim rabi` defaults
MAP_DETUNINGS = 3             # damped rows besides zero detuning, drawn from the seed
UNDAMPED_ROWS = 2
SEQUENCES = 1000              # random 4-segment sequences per round
FIT_REPEATS = 10              # legs (c)-(d) per round, together one fits_per_s sample
ADAPTIVE_SAMPLES = 2
RAMSEY_GRID = (12e-6, 960)    # the `rexsim ramsey` defaults
ECHO_GRID = (30e-6, 600)      # the `rexsim echo` defaults
ECHO_T_MIN = 4e-6

WORKLOAD_MODULES = {
    "cli-defaults": ("rexsim.cli",),
    "photon-mc": ("rexsim.photonstats", "rexsim.config"),
}


def setup_probe(workload: str):
    import importlib

    for name in WORKLOAD_MODULES[workload]:
        importlib.import_module(name)
    from rexsim.config import default_document

    default_document()
    print("ready", flush=True)


def import_probe():
    start = perf()
    import rexsim.cli  # noqa: F401

    print(repr(perf() - start), flush=True)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# --------------------------------------------------------------------------
# photon rounds


class PhotonLegs:
    def __init__(self, seed: int, tracer, ops):
        import dataclasses

        import numpy as np

        import oracles
        from rexsim import photonstats
        from rexsim.config import default_document
        from rexsim.errors import RexsimError

        self.ps, self.seed, self.tracer, self.ops = photonstats, seed, tracer, ops
        self.error = RexsimError
        doc = default_document()
        self.default_seed = doc.seed()
        self.shelving = doc.emitter_scheme()
        self.plain = dataclasses.replace(self.shelving, p_shelve=0.0)
        self.background = doc.background()
        self.period = doc.pulse_period()
        self.b = doc.si("simulation", "background_per_pulse")
        self.recovery = doc.si("simulation", "shelf_recovery_hz")
        self.sfs_amplitude = doc.si("simulation", "sfs_amplitude")
        self.sfs_exponent = doc.si("simulation", "sfs_exponent")
        self.workers = nproc()
        lo, hi, width = SFS_RANGE
        centers = lo + width * (np.arange(int(round((hi - lo) / width))) + 0.5)
        self.sfs_expected = self.sfs_amplitude * centers ** (-self.sfs_exponent)
        self.hist_p = oracles.histogram_probabilities(HIST_BINS)
        self.oracles = oracles

    def warm_up(self):
        ps = self.ps
        rec = ps.simulate_emitter_stream(self.shelving, self.background, 200_000, self.period, 1)
        ps.g2_estimator(rec, G2_LAG_PLAIN, min_norm_coincidences=0.0)
        try:
            ps.bunching_lag_constant(ps.g2_estimator(rec, G2_LAG_SHELVING, min_norm_coincidences=0.0))
        except self.error:
            pass
        ps.simulate_emitter_stream(self.plain, self.background, 200_000, self.period, 1)
        for workers in (1, self.workers):
            ps.coupling_histogram(20_000, 1, HIST_BINS, workers)
        self.sfs(1)

    def sfs(self, seed):
        lo, hi, width = SFS_RANGE
        return self.ps.sfs_generate(self.sfs_amplitude, self.sfs_exponent, lo, hi, width, seed)

    def round(self) -> dict:
        ps, span, o, ops = self.ps, self.tracer.span, self.oracles, self.ops
        sch, bg, T = self.shelving, self.background, self.period

        # (a) shelving pipeline at the default config, its seed included
        start = perf()
        with span("photon.leg_a"):
            with span("photonstats.simulate_emitter_stream.shelving"):
                rec_a = ps.simulate_emitter_stream(sch, bg, PULSES, T, self.default_seed)
            with span("photonstats.g2_estimator.lag100"):
                g2_a = ps.g2_estimator(rec_a, G2_LAG_SHELVING)
            with span("photonstats.bunching_lag_constant"):
                try:
                    tau = ps.bunching_lag_constant(g2_a)
                except self.error as exc:
                    tau = exc
        leg_a = perf() - start

        # (b) plain pipeline
        start = perf()
        with span("photon.leg_b"):
            with span("photonstats.simulate_emitter_stream.plain"):
                rec_b = ps.simulate_emitter_stream(self.plain, bg, PULSES, T, self.seed)
            with span("photonstats.g2_estimator.lag1000"):
                g2_b = ps.g2_estimator(rec_b, G2_LAG_PLAIN)
        leg_b = perf() - start

        # (c) coupling histogram, one thread and nproc threads, HIST_REPEATS times
        leg_c1, leg_cn, hists = [], [], []
        with span("photon.leg_c"):
            for _ in range(HIST_REPEATS):
                start = perf()
                with span("photonstats.coupling_histogram.w1"):
                    h1 = ps.coupling_histogram(HIST_SAMPLES, self.seed, HIST_BINS, 1)
                leg_c1.append(perf() - start)
                start = perf()
                with span("photonstats.coupling_histogram.wN"):
                    hn = ps.coupling_histogram(HIST_SAMPLES, self.seed, HIST_BINS, self.workers)
                leg_cn.append(perf() - start)
                hists.append((h1, hn))

        # (d) statistical fine structure at the CLI defaults
        with span("photon.leg_d"):
            with span("photonstats.sfs_generate"):
                sfs = self.sfs(self.seed)
        self.tracer.count("photonstats.pulses", 2 * PULSES)
        self.tracer.count("photonstats.samples", 2 * HIST_REPEATS * HIST_SAMPLES)

        pe, pd = sch.p_excite, sch.p_detect
        ops.check("a.mean_counts", o.mean_counts_shelving(
            float(rec_a.counts.mean()), PULSES, pe, pd, sch.p_shelve, self.recovery, T, self.b))
        expected_tau = o.bunching_lag(pe, sch.p_shelve, self.recovery, T)
        if isinstance(tau, Exception):
            verdict = (False, f"bunching_lag_constant raised {tau}")
        else:
            verdict = o.bunching_lag_check(tau, expected_tau)
        ops.check("a.bunching_lag", verdict, known_fault=True)
        ops.check("b.mean_counts", o.mean_counts_plain(float(rec_b.counts.mean()), PULSES, pe, pd, self.b))
        lo, hi = g2_b.metadata["norm_window"]
        ops.check("b.g2_zero", o.g2_zero(float(g2_b.y[0]), PULSES, pe, pd, self.b, hi - lo + 1))
        h1 = hists[0][0]
        ops.check("c.histogram", o.histogram_fractions(h1.y, HIST_SAMPLES, self.hist_p))
        for h1, hn in hists:
            ops.check("c.workers_identical", o.identical(h1.extra["count"], hn.extra["count"], "histograms"))
        ops.check("d.sfs_dispersion", o.sfs_dispersion(sfs.y, self.sfs_expected))
        return {
            "round_s": leg_a + leg_b + sum(leg_c1) + sum(leg_cn),
            "g2_pulses_per_s": PULSES / leg_a,
            "g2_plain_pulses_per_s": PULSES / leg_b,
            "histogram_samples_per_s": [HIST_SAMPLES / t for t in leg_c1],
            "histogram_parallel_samples_per_s": [HIST_SAMPLES / t for t in leg_cn],
        }


# --------------------------------------------------------------------------
# Bloch rounds


class BlochLegs:
    def __init__(self, seed: int, tracer, ops, tmp: str):
        import numpy as np

        import oracles
        from rexsim import cavity, csvio, dynamics, spectral, spinbath
        from rexsim.config import default_document
        from rexsim.quantities import angular_from_ordinary as ang

        self.np, self.o, self.tracer, self.ops, self.tmp = np, oracles, tracer, ops, tmp
        self.dyn, self.cavity, self.csvio, self.spectral, self.spinbath = (
            dynamics, cavity, csvio, spectral, spinbath)
        doc = default_document()
        self.g0 = ang(doc.si("simulation", "g0_measured_mhz"))
        self.pulse = doc.si("simulation", "pulse_ns")
        self.t1 = doc.si("simulation", "t1_cavity_us")
        self.t2_star = doc.si("simulation", "t2_star_us")
        self.t2 = doc.si("simulation", "t2_us")
        self.depth = doc.si("spinbath", "modulation_depth")
        b_field = doc.si("field", "b_field_mt")
        site = doc.yttrium_site()
        self.dg = spinbath.superhyperfine_splitting(site, doc.ground_moment(), b_field)
        self.de = spinbath.superhyperfine_splitting(site, doc.excited_moment(), b_field)
        self.nbar = np.linspace(*NBAR)
        self.delays = np.linspace(0.0, RAMSEY_GRID[0], RAMSEY_GRID[1] + 1)[1:]
        self.t12 = np.linspace(0.0, ECHO_GRID[0], ECHO_GRID[1] + 1)[1:]

        rng = np.random.default_rng(seed)
        self.damped = [0.0] + [ang(d) for d in rng.uniform(-5e6, 5e6, MAP_DETUNINGS)]
        self.undamped = [ang(d) for d in rng.uniform(-5e6, 5e6, UNDAMPED_ROWS)]
        self.adaptive = [
            (int(rng.integers(len(self.damped))), int(rng.integers(1, NBAR[2])))
            for _ in range(ADAPTIVE_SAMPLES)
        ]
        # the parameter distribution of acceptance criterion 14
        self.sequences = []
        for _ in range(SEQUENCES):
            t1 = rng.uniform(0.5e-6, 200e-6)
            t2 = rng.uniform(0.1, 1.0) * 2 * t1
            segments = tuple(
                dynamics.PulseSegment(
                    duration=rng.uniform(1e-9, 2e-6),
                    rabi=rng.uniform(0, ang(100e6)) if rng.random() < 0.75 else 0.0,
                    phase=rng.uniform(0, 2 * math.pi),
                    detuning=rng.uniform(-ang(10e6), ang(10e6)),
                )
                for _ in range(4)
            )
            self.sequences.append((dynamics.PulseSequence(segments), t1, t2))
        self.segments = (len(self.damped) + len(self.undamped)) * NBAR[2] + 4 * SEQUENCES

    def warm_up(self):
        dyn = self.dyn
        small = dyn.rabi_nutation_scan(self.g0, self.nbar[:40], self.pulse, self.t1, self.t2_star)
        seq, t1, t2 = self.sequences[0]
        dyn.evolve_sequence(dyn.GROUND, seq, t1, t2)
        self.adaptive_point(0.0, 0.1)
        self.fits(small, ramsey=dyn.simulate_ramsey(self.delays, self.t2_star, beat=self.dg),
                  echo=dyn.simulate_echo_decay(self.t12, self.t2))
        path = os.path.join(self.tmp, "warm.csv")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.csvio.render_trace_csv(small, "rabi"))
        self.csvio.read_trace_csv(path)

    def adaptive_point(self, detuning, nbar):
        p = self.dyn.TwoLevelParams(
            rabi=2.0 * self.g0 * math.sqrt(nbar), detuning=detuning, t1=self.t1, t2=self.t2_star)
        return self.dyn.bloch_evolve(self.dyn.GROUND, p, self.pulse, method="adaptive")

    def fits(self, rabi, ramsey, echo) -> dict:
        span, dyn = self.tracer.span, self.dyn
        with span("dynamics.extract_t2star"):
            t2s = dyn.extract_t2star(ramsey)
        with span("dynamics.ramsey_beat_frequency"):
            beat = dyn.ramsey_beat_frequency(ramsey)
        with span("spectral.dominant_beat"):
            fringe = self.spectral.dominant_beat(ramsey.x, ramsey.y)
        with span("dynamics.fit_t2_from_echo"):
            t2 = dyn.fit_t2_from_echo(echo, ECHO_T_MIN)
        pulse = float(rabi.metadata.get("pulse_s", self.pulse))
        with span("dynamics.extract_rabi_frequencies"):
            nb, omegas = dyn.extract_rabi_frequencies(rabi, pulse)
        with span("cavity.g0_from_rabi"):
            g0, g0_err = self.cavity.g0_from_rabi(nb, omegas)
        return {
            "t2_star": (t2s.value, t2s.stderr), "beat": beat, "fringe": fringe,
            "echo_t2": (t2.value, t2.stderr), "g0": (g0, g0_err),
        }

    def fit_legs(self, rabi) -> tuple:
        """Legs (c)-(d): fits of fresh traces, then of the same traces read
        back from CSV."""
        dyn, span = self.dyn, self.tracer.span

        # (c) simulate, then fit
        with span("bloch.leg_c"):
            ramsey = dyn.simulate_ramsey(self.delays, self.t2_star, beat=self.dg)
            with span("spinbath.eseem_envelope"):
                envelope = self.spinbath.eseem_envelope(self.dg, self.de, self.depth, self.t12)
            echo = dyn.simulate_echo_decay(self.t12, self.t2, envelope=envelope)
            fits = self.fits(rabi, ramsey, echo)

        # (d) the same traces through CSV and refitted (the --fit-input path)
        with span("bloch.leg_d"):
            readback = {}
            for name, trace in (("rabi", rabi), ("ramsey", ramsey), ("echo", echo)):
                with span("csvio.render_trace_csv"):
                    text = self.csvio.render_trace_csv(trace, name)
                path = os.path.join(self.tmp, f"{name}.csv")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
                with span("csvio.read_trace_csv"):
                    readback[name] = self.csvio.read_trace_csv(path)
                self.tracer.count("csvio.rows", len(trace))
                self.tracer.count("csvio.bytes", len(text.encode("utf-8")))
            refits = self.fits(readback["rabi"], readback["ramsey"], readback["echo"])
        return fits, refits

    def round(self) -> dict:
        np, dyn, span, o, ops = self.np, self.dyn, self.tracer.span, self.o, self.ops
        t1, t2s, pulse = self.t1, self.t2_star, self.pulse

        # (a) detuning x photon-number Rabi map, damped and undamped rows
        propagate = 0.0
        start = perf()
        with span("bloch.leg_a"):
            damped = []
            for det in self.damped:
                with span("dynamics.rabi_nutation_scan"):
                    damped.append(dyn.rabi_nutation_scan(self.g0, self.nbar, pulse, t1, t2s, det))
            undamped = []
            for det in self.undamped:
                with span("dynamics.rabi_nutation_scan"):
                    undamped.append(
                        dyn.rabi_nutation_scan(self.g0, self.nbar, pulse, math.inf, math.inf, det))
        propagate += perf() - start

        # (b) random 4-segment sequences
        start = perf()
        with span("bloch.leg_b"):
            finals = []
            for seq, s_t1, s_t2 in self.sequences:
                with span("dynamics.evolve_sequence"):
                    finals.append(dyn.evolve_sequence(dyn.GROUND, seq, s_t1, s_t2))
        propagate += perf() - start
        self.tracer.count("dynamics.segments", self.segments)

        # cross-check path, timed apart from the propagation metric
        adaptive = []
        for row, col in self.adaptive:
            with span("dynamics.bloch_evolve.adaptive"):
                adaptive.append(self.adaptive_point(self.damped[row], self.nbar[col]))

        # (c)-(d) FIT_REPEATS times, timed together; the checks read the last
        start = perf()
        for _ in range(FIT_REPEATS):
            fits, refits = self.fit_legs(damped[0])
        fit_time = perf() - start

        for det, trace in zip(self.undamped, undamped):
            ops.check("a.rabi_closed_form",
                      o.rabi_closed_form(trace.y, self.nbar, self.g0, det, pulse))
        for trace in damped:
            # excited population (1 + w)/2 leaves [0, 1] only if |w| > 1
            ops.check("a.population_in_ball", o.inside_ball(np.abs(2.0 * trace.y - 1.0)))
        for (row, col), state in zip(self.adaptive, adaptive):
            ops.check("a.adaptive_agrees",
                      o.agree(state.excited_population, damped[row].y[col], 1e-6, "exact and adaptive"))
        ops.check("b.inside_ball", o.inside_ball([state.norm() for state in finals]))
        bin_hz = 1.0 / (self.delays.size * (self.delays[1] - self.delays[0]))
        ops.check("c.g0", o.relative(fits["g0"][0], self.g0, 0.02, "fitted g0"))
        ops.check("c.t2_star", o.relative(fits["t2_star"][0], t2s, 0.02, "fitted T2*"))
        ops.check("c.beat", o.within_bin(fits["beat"], self.dg, bin_hz, "Ramsey beat"))
        ops.check("c.fringe", o.within_bin(fits["fringe"], self.dg / 2.0, bin_hz, "fringe frequency"))
        ops.check("c.echo_t2", o.echo_t2(fits["echo_t2"][0], self.t12, self.t2, self.dg, self.de,
                                         self.depth, ECHO_T_MIN))
        for name in fits:
            ops.check(f"d.refit_{name}", (refits[name] == fits[name],
                                          f"read-back {refits[name]} vs in memory {fits[name]}"))
        return {
            "round_s": propagate + fit_time,
            "bloch_segments_per_s": self.segments / propagate,
            "fits_per_s": 2 * len(fits) * FIT_REPEATS / fit_time,
        }


# --------------------------------------------------------------------------
# in-process CLI layers (traced runs only)


class CliLayers:
    def __init__(self, tracer, ops):
        from rexsim import cli, config

        self.cli, self.config, self.tracer, self.ops = cli, config, tracer, ops
        self.args = cli.build_parser().parse_args(["golden"])
        self.doc = config.default_document()
        self.text = config.serialize(self.doc)

    def warm_up(self):
        self.cli.cmd_golden(self.args, self.doc)
        self.config.parse_config_text(self.text)

    def round(self) -> dict:
        span = self.tracer.span
        start = perf()
        with span("cli.cmd_golden"):
            report = self.cli.cmd_golden(self.args, self.doc)
        with span("config.parse_config_text"):
            parsed = self.config.parse_config_text(self.text)
        elapsed = perf() - start
        failing = [row.name for row in report.rows if row.passed is not True]
        self.ops.check("golden_rows", (not failing, f"rows not passing: {failing}"))
        self.ops.check("parse_round_trip", (parsed.values == self.doc.values, "parse(serialize(defaults))"))
        return {"round_s": elapsed}


def run_legs(args) -> dict:
    import warnings

    from common import NullTracer, Ops, Tracer

    # cmd_cavity warns about kappa versus Q on every call at the defaults
    warnings.simplefilter("ignore", UserWarning)
    tracer = Tracer() if args.trace else NullTracer()
    ops = Ops()
    if args.kind == "photon":
        legs = PhotonLegs(args.seed, tracer, ops)
    elif args.kind == "bloch":
        legs = BlochLegs(args.seed, tracer, ops, args.tmp)
    else:
        legs = CliLayers(tracer, ops)
    warm = Ops()
    legs.ops, legs.tracer = warm, NullTracer()
    legs.warm_up()
    legs.ops, legs.tracer = ops, tracer
    print("ready", flush=True)
    rounds = []
    for line in sys.stdin:
        if line.strip() != "round":
            break
        rounds.append(legs.round())
        print(len(rounds), flush=True)
    import numpy
    import scipy

    import rexsim

    samples = {}   # a round gives one sample of a metric, or a list of them
    for r in rounds:
        for key, value in r.items():
            samples.setdefault(key, []).extend(value if isinstance(value, list) else [value])
    n = max(len(rounds), 1)
    return {
        "rounds": n,
        "samples": samples,
        "ops": ops.as_dict(),
        "spans": tracer.spans,
        "counts": {name: total / n for name, total in tracer.counts.items()},
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__,
                     "rexsim": rexsim.__version__},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=("setup", "import-cli", "photon", "bloch", "clilayers"))
    parser.add_argument("workload", nargs="?")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--tmp")
    parser.add_argument("--result")
    args = parser.parse_args(argv)
    if args.kind == "setup":
        setup_probe(args.workload)
    elif args.kind == "import-cli":
        import_probe()
    else:
        result = run_legs(args)
        with open(args.result, "w", encoding="utf-8") as handle:
            json.dump(result, handle)


if __name__ == "__main__":
    sys.exit(main())

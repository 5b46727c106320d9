"""Self-test of the benchmark's correctness checks.

Each check is fed a right output, which must pass, and a deliberately wrong
one, which must be reported as a failed operation.

    python3 -m pytest bench/test_oracles.py -q
"""

import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import oracles
from common import Ops, Tracer, self_times, summary

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def failed(verdict, known_fault=False) -> bool:
    """True when the operation is reported as failed."""
    ops = Ops()
    ops.check("op", verdict, known_fault)
    assert ops.attempted == 1
    return ops.failed == 1


def run_cli(*argv) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "rexsim.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    return proc.stdout


@pytest.fixture(scope="module")
def golden_stdout():
    return run_cli("golden")


@pytest.fixture(scope="module")
def budget_stdout():
    return run_cli("budget")


STAGES = {"cavity_out": 0.45, "waveguide_fiber": 0.19, "fiber_path": 0.80,
          "circulator": 0.65, "detector": 0.82}


class TestCliDefaults:
    def test_exit_code(self):
        assert not failed(oracles.exit_code(0))
        assert failed(oracles.exit_code(4))

    def test_golden_passes_on_the_program_output(self, golden_stdout):
        assert not failed(oracles.golden_table(golden_stdout))

    def test_golden_fail_row(self, golden_stdout):
        wrong = golden_stdout.replace("PASS", "FAIL", 1)
        assert failed(oracles.golden_table(wrong))

    def test_golden_wrong_reference(self, golden_stdout):
        lines = golden_stdout.splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith("g0_theoretical"))
        lines[row] = lines[row].replace("52.7 ", "55.3 ")
        assert failed(oracles.golden_table("\n".join(lines)))

    def test_golden_missing_row(self, golden_stdout):
        kept = [line for line in golden_stdout.splitlines() if not line.startswith("purcell_max")]
        assert failed(oracles.golden_table("\n".join(kept)))

    def test_budget(self, budget_stdout):
        assert not failed(oracles.budget_total(budget_stdout, STAGES))
        wrong_total = budget_stdout.replace("total,,0.0364572", "total,,0.0365")
        assert failed(oracles.budget_total(wrong_total, STAGES))
        assert failed(oracles.budget_total(budget_stdout, {**STAGES, "detector": 0.9}))

    CSV = "# rexsim 0.1.0\n# subcommand: rabi\nnbar_photons,excited_population_dimensionless\n"

    def test_csv_rows(self):
        text = self.CSV + "".join(f"{i * 0.1!r},{i * 0.01!r}\n" for i in range(5))
        assert not failed(oracles.csv_rows(text, 5))

    def test_csv_missing_row(self):
        text = self.CSV + "".join(f"{i * 0.1!r},{i * 0.01!r}\n" for i in range(4))
        assert failed(oracles.csv_rows(text, 5))

    def test_csv_not_finite(self):
        text = self.CSV + "0.0,0.0\n0.1,nan\n"
        assert failed(oracles.csv_rows(text, 2))
        assert failed(oracles.csv_rows(self.CSV + "0.0,0.0\n0.1,x\n", 2))


P_EXCITE, P_DETECT, P_SHELVE, RECOVERY, PERIOD, B = 0.55, 0.036, 0.1, 1400.0, 40e-6, 0.001


class TestPhotonMc:
    def test_bunching_lag_of_the_chain(self):
        tau = oracles.bunching_lag(P_EXCITE, P_SHELVE, RECOVERY, PERIOD)
        assert tau == pytest.approx(355e-6, rel=0.01)
        assert not failed(oracles.bunching_lag_check(400e-6, tau), known_fault=True)
        # the value the estimator returns today at the default config
        assert failed(oracles.bunching_lag_check(1.6e-3, tau), known_fault=True)

    def test_known_fault_keeps_the_run_correct(self):
        ops = Ops()
        ops.check("bunching", (False, "estimator fault"), known_fault=True)
        ops.check("other", (False, "wrong output"))
        assert (ops.attempted, ops.failed, ops.unexpected) == (2, 2, 1)

    def test_mean_counts(self):
        active, _, _ = oracles.shelving_chain(P_EXCITE, P_SHELVE, RECOVERY, PERIOD)
        right = active * P_EXCITE * P_DETECT + B
        args = (5_000_000, P_EXCITE, P_DETECT, P_SHELVE, RECOVERY, PERIOD, B)
        assert not failed(oracles.mean_counts_shelving(right, *args))
        # the unshelved mean is 1/active times too high
        assert failed(oracles.mean_counts_shelving(P_EXCITE * P_DETECT + B, *args))
        plain = P_EXCITE * P_DETECT + B
        assert not failed(oracles.mean_counts_plain(plain, 5_000_000, P_EXCITE, P_DETECT, B))
        assert failed(oracles.mean_counts_plain(plain * 1.02, 5_000_000, P_EXCITE, P_DETECT, B))

    def test_g2_zero(self):
        rho = P_EXCITE * P_DETECT / (P_EXCITE * P_DETECT + B)
        args = (5_000_000, P_EXCITE, P_DETECT, B, 26)
        assert not failed(oracles.g2_zero(1 - rho**2, *args))
        assert failed(oracles.g2_zero(0.5, *args))

    def test_g2_zero_sigma_matches_scatter(self):
        # Bernoulli emitter plus Poisson background, drawn here apart from the
        # program; a normalisation of many lags leaves the zero-lag scatter
        s, b, n = 0.2, 0.1, 100_000
        rng = np.random.default_rng(5)
        z = []
        for _ in range(300):
            c = (rng.random(n) < s) + rng.poisson(b, n)
            value = float(np.dot(c, c) - c.sum()) / n / (s + b) ** 2
            _, detail = oracles.g2_zero(value, n, 1.0, s, b, 10**9)
            z.append(float(detail.rsplit("z = ", 1)[1].rstrip(")")))
        assert 0.85 < np.std(z) < 1.15

    def test_histogram_quadrature_matches_sampling(self):
        rng = np.random.default_rng(3)
        n = 400_000
        x, y, z = rng.random(n), rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
        pl = np.cos(2 * math.pi * x) ** 2 * np.exp(-2 * (y**2 + z**2))
        counts, _ = np.histogram(pl, bins=np.linspace(0, 1, 26))
        p = oracles.histogram_probabilities(25)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        assert not failed(oracles.histogram_fractions(counts / n, n, p))

    def test_histogram_swapped_bins(self):
        p = oracles.histogram_probabilities(25)
        swapped = p.copy()
        swapped[[0, 24]] = swapped[[24, 0]]
        assert not failed(oracles.histogram_fractions(p, 5_000_000, p))
        assert failed(oracles.histogram_fractions(swapped, 5_000_000, p))

    def test_histograms_identical(self):
        a = np.arange(25.0)
        b = a.copy()
        b[3] += 1
        assert not failed(oracles.identical(a, a.copy(), "histograms"))
        assert failed(oracles.identical(a, b, "histograms"))

    def test_sfs_dispersion(self):
        centers = 5.0 + 0.1 * (np.arange(300) + 0.5)
        mu = 1.13e4 * centers**-2.9
        counts = np.random.default_rng(5).poisson(mu).astype(float)
        assert not failed(oracles.sfs_dispersion(counts, mu))
        assert failed(oracles.sfs_dispersion(2 * counts, mu))
        # a smooth curve in place of counts is far too regular
        assert failed(oracles.sfs_dispersion(np.round(mu), mu))
        assert failed(oracles.sfs_dispersion(counts[:-1], mu))


G0 = 2 * math.pi * 28.5e6


class TestBlochFit:
    def test_rabi_closed_form(self):
        nbar = np.linspace(0, 0.2, 50)
        delta, pulse = 2 * math.pi * 1e6, 250e-9
        omega2 = 4 * G0**2 * nbar
        w = np.sqrt(omega2 + delta**2)
        right = omega2 / w**2 * np.sin(w * pulse / 2) ** 2
        assert not failed(oracles.rabi_closed_form(right, nbar, G0, delta, pulse))
        assert failed(oracles.rabi_closed_form(right + 1e-8, nbar, G0, delta, pulse))

    def test_unit_ball(self):
        assert not failed(oracles.inside_ball([0.3, 1.0]))
        assert failed(oracles.inside_ball([0.3, 1.0 + 1e-7]))

    def test_adaptive_agreement(self):
        assert not failed(oracles.agree(0.25, 0.25 + 5e-7, 1e-6, "paths"))
        assert failed(oracles.agree(0.25, 0.25 + 5e-6, 1e-6, "paths"))

    def test_g0_off_by_five_percent(self):
        assert not failed(oracles.relative(G0 * 1.001, G0, 0.02, "g0"))
        assert failed(oracles.relative(G0 * 1.05, G0, 0.02, "g0"))

    def test_beat_within_one_bin(self):
        assert not failed(oracles.within_bin(750e3, 741.5e3, 83.3e3, "beat"))
        assert failed(oracles.within_bin(833e3, 741.5e3, 83.3e3, "beat"))

    def test_echo_t2(self):
        t12 = np.linspace(0, 30e-6, 601)[1:]
        t = t12[t12 >= 4e-6]
        log_i = -4 * t / 25.4e-6 + 2 * np.log(oracles.eseem_envelope(741.5e3, 789.5e3, 0.2, t))
        fitted = -4 / np.polyfit(t, log_i, 1)[0]
        args = (t12, 25.4e-6, 741.5e3, 789.5e3, 0.2, 4e-6)
        assert not failed(oracles.echo_t2(fitted, *args))
        assert failed(oracles.echo_t2(fitted * 1.05, *args))

    def test_eseem_envelope_bounds(self):
        tau = np.linspace(0, 30e-6, 3001)
        v = oracles.eseem_envelope(741.5e3, 789.5e3, 0.2, tau)
        assert v.max() <= 1.0 + 1e-12 and v.min() >= 1 - 2 * 0.2 - 1e-12


class TestHarness:
    def test_self_time_subtracts_children(self):
        spans = [["leg", 0.0, 1.0, -1], ["call", 0.1, 0.4, 0], ["call", 0.5, 0.7, 0]]
        times = self_times(spans)
        assert times["leg"] == [pytest.approx(0.5)]
        assert times["call"] == [pytest.approx(0.3), pytest.approx(0.2)]

    def test_tracer_records_parents(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [s[0] for s in tracer.spans] == ["outer", "inner"]
        assert tracer.spans[1][3] == 0 and tracer.spans[0][3] == -1

    def test_summary_high_percentile_needs_ten_beyond(self):
        assert "p90" not in summary(range(99))
        assert "p90" in summary(range(100))
        assert summary([2.0])["median"] == 2.0

    def test_cycle_spreads_every_unit_between_the_subcommands(self):
        import run

        for workload, counts in run.CYCLE.items():
            units = run.cycle_units(workload, trace=False)
            assert [u for u in units if u in run.SUBCOMMANDS] == list(run.SUBCOMMANDS)
            for kind, n in counts.items():
                assert units.count(kind) == n
            assert units[0] == "spectro" and units[-1] not in run.SUBCOMMANDS
            assert not any(a == b for a, b in zip(units, units[1:]))
        traced = run.cycle_units("photon-mc", trace=True)
        assert traced.count("import") == run.TRACE_UNITS["import"]

    def test_extra_g2_runs_count_in_cli_g2_s_not_in_the_pass(self):
        import run

        cli = run.Cli.__new__(run.Cli)
        cli.walls = {name: [1.0, 1.0] for name in run.SUBCOMMANDS}
        cli.walls["g2"] = [3.0, 3.0]
        cli.extra_g2 = [5.0, 5.0, 5.0, 5.0]
        metrics = cli.metrics()
        assert metrics["cli_pass_s"][1] == [14.0, 14.0]
        assert metrics["cli_g2_s"][1] == [3.0, 3.0, 5.0, 5.0, 5.0, 5.0]
        assert metrics["cli_g2_s"][2] == 5.0

    def test_metric_is_the_median_of_the_samples(self):
        import run

        assert run.metric("g2_pulses_per_s", [3.0, 9.0, 5.0, 4.0, 1.0]) == (
            "pulses/s", [3.0, 9.0, 5.0, 4.0, 1.0], 4.0)
        assert run.metric("cli_g2_s", [2.0, 1.0])[2] == 1.5

    def test_refuses_to_run_without_sources(self, tmp_path):
        shutil.copytree(BENCH, tmp_path / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "photon-mc", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode != 0
        assert proc.stdout == ""

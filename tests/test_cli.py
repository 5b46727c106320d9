import contextlib
import errno
import io
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rexsim import cli, photonstats
from rexsim.cli import HANDLERS, REFERENCES, build_parser, cmd_golden, main
from rexsim.config import default_document, parse_config
from rexsim.csvio import read_trace_csv, render_trace_csv, write_trace_csv
from rexsim.dynamics import _PENCIL_MAX_POINTS
from rexsim.trace import TimeTrace


def run_cli(*argv):
    """Run the CLI in a subprocess; returns (exit code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "rexsim.cli", *argv],
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestExitCodes:
    def test_success(self, capsys):
        assert main(["spectro"]) == 0
        assert "oscillator_strength" in capsys.readouterr().out

    def test_unknown_subcommand_exits_2(self):
        code, _, err = run_cli("frobnicate")
        assert code == 2
        assert "invalid choice" in err

    def test_validation_failure_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[cavity]\nq_factor = -1\n", encoding="utf-8")
        assert main(["spectro", "--config", str(bad)]) == 3
        assert "q_factor" in capsys.readouterr().err

    def test_missing_config_exits_3(self, capsys):
        assert main(["spectro", "--config", "/no/such/file.ini"]) == 3
        err = capsys.readouterr().err
        assert "/no/such/file.ini" in err and "No such file or directory" in err

    # directories and missing parents rather than chmod: the suite may run as root
    @pytest.mark.parametrize("argv", [
        ["spectro", "--config", "{dir}"],
        ["spectro", "--config", "{binary}"],
        ["echo", "--fit-input", "{dir}"],
        ["echo", "--fit-input", "{binary}"],
        ["spinbath", "--out", "{dir}/missing/x.csv"],
        ["spinbath", "--out", "{dir}"],
        ["golden", "--write-config", "{dir}"],
    ], ids=["config-directory", "config-not-utf8", "fit-input-directory", "fit-input-not-utf8",
            "out-missing-parent", "out-directory", "write-config-directory"])
    def test_bad_path_exits_3(self, tmp_path, capsys, argv):
        binary = tmp_path / "binary"
        binary.write_bytes(b"\xff\xfe")
        argv = [arg.format(dir=tmp_path, binary=binary) for arg in argv]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_pathless_os_error_names_no_path(self, tmp_path, capsys, monkeypatch):
        def full_disk(path, trace, subcommand):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, "write_trace_csv", full_disk)
        assert main(["spinbath", "--out", str(tmp_path / "x.csv")]) == 3
        assert capsys.readouterr().err == "error: No space left on device\n"

    @pytest.mark.parametrize("config, code", [("", 0), ("[material]\nlocal_field_model = virtual\n", 4)],
                             ids=["defaults", "failing-rows"])
    def test_closed_stdout_keeps_the_exit_code(self, tmp_path, config, code):
        """A reader that closes its end first (`rexsim golden | head -1`) gets no error line."""
        path = tmp_path / "run.ini"
        path.write_text(config, encoding="utf-8")
        proc = subprocess.Popen(
            [sys.executable, "-m", "rexsim.cli", "golden", "--config", str(path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=300) == code
        if code == 0:
            assert err == ""
        else:
            assert err.startswith("one or more quantities fell outside tolerance")

    @pytest.mark.parametrize("argv", [
        ["cavity", "--q-scale", "nan"],
        ["sfs", "--delta-min-ghz", "nan"],
    ], ids=["q-scale", "delta-min"])
    def test_nan_flag_exits_3(self, capsys, argv):
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("error: ")

    # 1e14 elements (728 TiB) exceed the x86-64 user address space, so the
    # allocation fails at once whatever the overcommit setting
    @pytest.mark.parametrize("argv, code", [
        (["g2", "--seed", "-1"], 3),
        (["sfs", "--seed", "-1"], 3),
        (["histogram", "--seed", "-1"], 3),
        (["histogram", "--seed", str(2**64)], 3),
        (["sfs", "--config", "{seed_ini}"], 3),
        (["sfs", "--delta-max-ghz", "inf"], 3),
        (["echo", "--t-min-us", "nan"], 3),
        (["ramsey", "--beat-khz", "-100"], 3),
        (["rabi", "--points", "100000000000000"], 4),
        (["ramsey", "--points", "100000000000000"], 4),
        (["echo", "--points", "100000000000000"], 4),
        (["spinbath", "--out", "{dir}/x.csv", "--points", "100000000000000"], 4),
        (["flipflop", "--out", "{dir}/x.csv", "--points", "100000000000000"], 4),
        (["g2", "--pulses", "100000000000000"], 4),
        (["histogram", "--bins", "100000000000000"], 4),
        (["sfs", "--bin-mhz", "1e-9"], 4),
        (["sfs", "--delta-max-ghz", "1e300"], 3),
    ], ids=["g2-seed", "sfs-seed", "histogram-seed", "seed-2^64", "ini-seed-1e300",
            "delta-max-inf", "t-min-nan", "negative-beat", "rabi-points", "ramsey-points",
            "echo-points", "spinbath-points", "flipflop-points", "g2-pulses", "histogram-bins",
            "sfs-bin-width", "sfs-bins-2^59"])
    def test_out_of_range_input_exits_cleanly(self, tmp_path, capsys, argv, code):
        seed_ini = tmp_path / "seed.ini"
        seed_ini.write_text("[simulation]\nseed = 1e300\n", encoding="utf-8")
        argv = [arg.format(dir=tmp_path, seed_ini=seed_ini) for arg in argv]
        assert main(argv) == code
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["rabi", "--nbar-max", "inf"],
        ["rabi", "--nbar-max", "nan"],
        ["ramsey", "--delay-max-us", "inf"],
        ["ramsey", "--detuning-khz", "inf"],
        ["ramsey", "--beat-khz", "nan"],
        ["echo", "--t12-max-us", "inf"],
        ["flipflop", "--t-max-k", "inf"],
    ], ids=" ".join)
    def test_non_finite_float_flag_is_named(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning may precede the message
            assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert argv[1] in err

    def test_huge_sfs_amplitude_exits_3(self, tmp_path, capsys):
        config = tmp_path / "huge.ini"
        config.write_text("[simulation]\nsfs_amplitude = 1e300\n", encoding="utf-8")
        assert main(["sfs", "--config", str(config)]) == 3
        assert "below 1e18" in capsys.readouterr().err

    @pytest.mark.parametrize("background", ["1e18", "1e19"])
    def test_huge_background_exits_3(self, tmp_path, capsys, background):
        config = tmp_path / "huge.ini"
        config.write_text(f"[simulation]\nbackground_per_pulse = {background}\n", encoding="utf-8")
        assert main(["g2", "--config", str(config)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and "[0, 1e18)" in err

    @pytest.mark.parametrize("text", [
        "[material]\nrefractive_index = nan\n",
        "[cavity]\nq_factor = inf\n",
        "[simulation]\nseed = 4.5\n",
        "[cavity]\nq_factor = 3900\nq_factor = 7800\n",
    ], ids=["nan", "inf", "non-integer", "duplicate"])
    def test_bad_config_value_exits_3(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.ini"
        bad.write_text(text, encoding="utf-8")
        assert main(["cavity", "--config", str(bad)]) == 3
        assert "error: line " in capsys.readouterr().err

    # never --samples at a huge value: the histogram chunk list grows with it
    @pytest.mark.parametrize("argv", [
        ["rabi", "--points", "-1"],
        ["spinbath", "--out", "x.csv", "--points", "-1"],
        ["flipflop", "--out", "x.csv", "--points", "-1"],
        ["ramsey", "--points", "0"],
        ["g2", "--max-lag", "0"],
        ["histogram", "--samples", "0"],
        ["rabi", "--points", "10000000000000000000"],
        ["spinbath", "--out", "x.csv", "--points", "10000000000000000000"],
        ["histogram", "--bins", "10000000000000000000"],
        ["g2", "--pulses", "10000000000000000000"],
        ["g2", "--pulses", "5000000000000000000"],
    ], ids=" ".join)
    def test_count_out_of_range_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {argv[-2]}: must be at least 1" in capsys.readouterr().err

    def test_failed_run_writes_no_csv(self, tmp_path, capsys):
        out = tmp_path / "echo.csv"
        assert main(["echo", "--t-min-us", "29.99", "--out", str(out)]) == 4
        assert not out.exists()
        assert capsys.readouterr().err.startswith("numeric error: ")

    def test_numeric_failure_exits_4(self, capsys):
        # far too short a record for the requested normalization window
        assert main(["g2", "--pulses", "30000", "--max-lag", "20"]) == 4
        assert "coincidences" in capsys.readouterr().err

    def test_numeric_failure_names_the_flags(self, capsys):
        assert main(["cavity", "--q-scale", "1e308"]) == 4
        assert "(flags off their defaults: --q-scale=1e+308)" in capsys.readouterr().err

    def test_numpy_overflow_exits_4_with_one_line(self, capsys):
        # the trace overflows to a constant, so this now guards the FitError
        # for a flat trace; the next test covers a numpy floating-point error
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning may precede the message
            assert main(["ramsey", "--delay-max-us", "1e300"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numeric error: ") and err.count("\n") == 1
        assert err.endswith("(flags off their defaults: --delay-max-us=1e+300)\n")

    def test_numpy_floating_point_error_exits_4_with_one_line(self, capsys, monkeypatch):
        # no shipped input is known to reach a numpy floating-point error, so a
        # handler stands in for one
        monkeypatch.setitem(HANDLERS, "spectro", lambda args, doc: np.exp(np.array([1e300])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["spectro"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "numeric error: overflow encountered in exp\n"


class TestGolden:
    def test_all_rows_within_tolerance(self, capsys):
        assert main(["golden"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        reference_rows = [line for line in out.splitlines() if "PASS" in line]
        assert len(reference_rows) >= 12

    def test_write_config(self, tmp_path):
        target = tmp_path / "effective.ini"
        assert main(["golden", "--write-config", str(target)]) == 0
        assert "[material]" in target.read_text(encoding="utf-8")

    def test_prints_exactly_the_reference_table(self):
        report = cmd_golden(build_parser().parse_args(["golden"]), default_document())
        assert [row.name for row in report.rows] == list(REFERENCES)
        assert len(report.rows) == 24
        assert all(row.passed is True for row in report.rows)

    def test_rows_are_what_the_subcommands_print(self, capsys):
        def checked_rows(subcommand):
            assert main([subcommand]) == 0
            lines = capsys.readouterr().out.splitlines()
            return {cells[0]: cells for cells in map(str.split, lines) if cells and cells[0] in REFERENCES}

        golden = checked_rows("golden")
        printed = {}
        for subcommand in ("spectro", "cavity", "budget", "sfs", "spinbath", "flipflop"):
            printed.update(checked_rows(subcommand))
        assert list(golden) == list(REFERENCES)
        assert golden == {name: printed[name] for name in REFERENCES}

    def test_flipflop_checks_the_flip_flop_upper_bound(self):
        report = HANDLERS["flipflop"](build_parser().parse_args(["flipflop"]), default_document())
        row = {row.name: row for row in report.rows}["flip_flop_upper_bound"]
        doped, undoped = 1 / (np.pi * 25.4e-6), 1 / (np.pi * 27.0e-6)
        assert row.value == pytest.approx((doped - undoped) / 1e3)
        assert (row.reference, row.unit, row.passed) == (1.0, "kHz", True)

    def test_rows_outside_the_table_are_unchecked(self):
        doc = default_document()

        def rows(*argv):
            args = build_parser().parse_args(argv)
            return {row.name: row for row in HANDLERS[args.subcommand](args, doc).rows}

        echo = rows("echo")
        assert echo["delta_g"].reference is None and echo["delta_e"].reference is None
        assert rows("cavity", "--q-scale", "5")["cooperativity_qx5"].reference is None
        assert rows("cavity")["cooperativity_qx10"].passed is True


@pytest.fixture
def fast_config(tmp_path):
    """An INI at which g2 reaches its coincidence floor in 400000 pulses."""
    config = tmp_path / "fast.ini"
    config.write_text("[simulation]\np_detect = 0.5\nbackground_per_pulse = 0.02\n",
                      encoding="utf-8")
    return config


# rabi at 3 points has too few extrema, so its report carries a note
@pytest.mark.parametrize("argv", [
    ["spectro"], ["cavity"], ["budget", "--out"], ["rabi", "--points", "3", "--out"],
    ["ramsey", "--out"], ["echo", "--out"], ["g2", "--pulses", "400000", "--max-lag", "40", "--out"],
    ["sfs", "--out"], ["histogram", "--out"], ["spinbath", "--out"], ["flipflop", "--out"],
], ids=lambda argv: argv[0])
def test_only_main_writes_output(tmp_path, capsys, fast_config, argv):
    """A handler returns its report, notes and curve; main prints them and writes the CSV."""
    config, out = fast_config, tmp_path / "curve.csv"
    argv = [*argv, *([str(out)] if argv[-1] == "--out" else []), "--config", str(config)]
    args = build_parser().parse_args(argv)
    report = HANDLERS[args.subcommand](args, parse_config(str(config)))
    assert capsys.readouterr() == ("", "")
    assert not out.exists()
    assert main(argv) == 0
    printed, err = capsys.readouterr()
    assert printed == report.render() + "\n"
    assert err.splitlines() == [f"wrote {out}"] * out.exists() + report.notes
    assert out.exists() == (report.curve is not None)


class TestCsvContract:
    def test_metadata_then_single_header(self, tmp_path):
        out = tmp_path / "rabi.csv"
        assert main([
            "rabi", "--nbar-max", "9", "--points", "50", "--out", str(out),
        ]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        meta = [l for l in lines if l.startswith("#")]
        body = [l for l in lines if not l.startswith("#")]
        assert meta[0].startswith("# rexsim ")
        assert any(l.startswith("# subcommand: rabi") for l in meta)
        assert any("pulse_s" in l for l in meta)
        assert body[0].startswith("nbar_photons,")
        assert len(body) == 1 + 50  # header plus one row per scan point

    def test_round_trip_read(self, tmp_path):
        trace = TimeTrace(
            x=np.array([1.0, 2.0, 3.0]),
            y=np.array([0.5, 0.25, 0.125]),
            x_name="lag",
            x_unit="s",
            y_name="g2",
            y_unit="dimensionless",
            metadata={"alpha": 1.5, "note": "x", "seed": 5},
            extra={"sigma": np.array([0.1, 0.2, 0.3])},
        )
        path = tmp_path / "trace.csv"
        write_trace_csv(str(path), trace, "g2")
        back = read_trace_csv(str(path))
        assert np.allclose(back.x, trace.x)
        assert np.allclose(back.y, trace.y)
        assert np.allclose(back.extra["sigma"], trace.extra["sigma"])
        assert back.metadata["alpha"] == 1.5
        assert back.metadata["seed"] == 5

    def test_byte_order_mark_is_ignored(self, tmp_path):
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        assert main(["echo", "--points", "50", "--out", str(plain)]) == 0
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        a, b = read_trace_csv(str(plain)), read_trace_csv(str(bom))
        assert (a.x_name, a.x_unit, a.y_name, a.y_unit) == (b.x_name, b.x_unit, b.y_name, b.y_unit)
        assert a.metadata == b.metadata
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    # every subcommand that writes a CSV, at small sizes
    @pytest.mark.parametrize("argv", [
        ["budget"], ["rabi", "--points", "50"], ["ramsey", "--points", "100"],
        ["echo", "--points", "50"], ["g2", "--pulses", "400000", "--max-lag", "40"],
        ["sfs", "--bin-mhz", "250"], ["histogram", "--samples", "20000"],
        ["spinbath", "--points", "10"], ["flipflop", "--points", "10"],
    ], ids=lambda argv: argv[0])
    def test_rerun_byte_identical(self, tmp_path, capsys, fast_config, argv):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main([*argv, "--config", str(fast_config), "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["g2", "--pulses", "400000", "--max-lag", "40"], ["sfs"], ["histogram"],
    ], ids=lambda argv: argv[0])
    def test_seed_is_one_param_line(self, tmp_path, capsys, fast_config, argv):
        out = tmp_path / "seeded.csv"
        assert main([*argv, "--config", str(fast_config), "--seed", "9", "--out", str(out)]) == 0
        meta = [line for line in out.read_text(encoding="utf-8").splitlines() if line[0] == "#"]
        assert all(line.startswith(("# rexsim ", "# subcommand: ", "# param ")) for line in meta)
        assert [line for line in meta if "seed" in line] == ["# param seed = 9"]
        assert read_trace_csv(str(out)).metadata["seed"] == 9

    def test_shortest_round_trip_floats(self):
        trace = TimeTrace(x=np.array([0.1, 0.2]), y=np.array([1 / 3, 2 / 3]))
        text = render_trace_csv(trace, "test")
        data_line = text.splitlines()[-1]
        assert data_line.split(",")[1] == repr(2 / 3)


class TestWorkerDeterminism:
    def test_histogram_payload_independent_of_workers(self, tmp_path, capsys, monkeypatch):
        payloads = []
        for cpus in (1, 4):  # histogram runs one thread per CPU
            monkeypatch.setattr(photonstats, "_cpu_count", lambda: cpus)
            out = tmp_path / f"histogram_{cpus}.csv"
            assert main(["histogram", "--samples", "150000", "--seed", "3", "--out", str(out)]) == 0
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1]


class TestFitInput:
    def test_echo_fit_from_csv(self, tmp_path):
        out = tmp_path / "echo.csv"
        assert main(["echo", "--points", "500", "--out", str(out)]) == 0
        assert main(["echo", "--fit-input", str(out)]) == 0

    def test_ramsey_fit_from_csv(self, tmp_path, capsys):
        out = tmp_path / "ramsey.csv"
        assert main(["ramsey", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["ramsey", "--fit-input", str(out)]) == 0
        assert "t2_star_fitted" in capsys.readouterr().out

    def test_ramsey_fit_input_off_a_uniform_grid_exits_3(self, tmp_path, capsys):
        csv = tmp_path / "ramsey.csv"
        assert main(["ramsey", "--out", str(csv)]) == 0
        lines = csv.read_text(encoding="utf-8").splitlines(keepends=True)
        csv.write_text("".join(lines[:100] + lines[110:]), encoding="utf-8")  # ten rows gone
        capsys.readouterr()
        assert main(["ramsey", "--fit-input", str(csv)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "uniform grid" in err

    def test_missing_fit_input_exits_3(self, tmp_path, capsys):
        missing = tmp_path / "absent.csv"
        assert main(["echo", "--fit-input", str(missing)]) == 3
        err = capsys.readouterr().err
        assert "No such file or directory" in err and str(missing) in err

    def test_non_numeric_cell_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "echo.csv"
        bad.write_text("# rexsim 0.1.0\nt12_s,echo_intensity_dimensionless\n"
                       "1e-06,0.5\n2e-06,oops\n", encoding="utf-8")
        assert main(["echo", "--fit-input", str(bad)]) == 3
        err = capsys.readouterr().err
        assert str(bad) in err and "line 4" in err

    @pytest.mark.parametrize("subcommand, text, where", [
        ("echo", "t12_s,echo_intensity_dimensionless\n1e-06,0.5\n2e-06,0.4,0.1\n", "line 3"),
        ("echo", "t12_s\n1e-06\n2e-06\n", "line 1"),
        ("rabi", "# param pulse_s = abc\nnbar_photons,p_excited\n0.0,0.0\n0.1,0.5\n", "'abc'"),
        ("rabi", "# param pulse_s = 0.0\nnbar_photons,p_excited\n0.0,0.0\n0.1,0.5\n", "0.0"),
    ], ids=["ragged-rows", "one-column-header", "non-numeric-pulse", "zero-pulse"])
    def test_malformed_fit_input_exits_3(self, tmp_path, capsys, subcommand, text, where):
        bad = tmp_path / "bad.csv"
        bad.write_text(text, encoding="utf-8")
        assert main([subcommand, "--fit-input", str(bad)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and where in err

    # the INI rejects all but 1e-320 ns, which cmd_rabi rejects as it underflows to 0 s
    @pytest.mark.parametrize("pulse_ns", ["0", "-250", "nan", "inf", "1e-320"])
    def test_rabi_rejects_bad_pulse_length(self, tmp_path, capsys, pulse_ns):
        config = tmp_path / "pulse.ini"
        config.write_text(f"[simulation]\npulse_ns = {pulse_ns}\n", encoding="utf-8")
        assert main(["rabi", "--points", "50", "--config", str(config)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "pulse_ns" in err

    def test_rabi_fit_from_csv(self, tmp_path, capsys):
        out = tmp_path / "rabi.csv"
        assert main(["rabi", "--points", "600", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["rabi", "--fit-input", str(out)]) == 0
        assert "g0_fitted" in capsys.readouterr().out


class TestRamsey:
    """One damped-tone fit recovers the beat, detuning and T2* that `ramsey` simulated."""

    @staticmethod
    def printed(capsys, *argv):
        assert main(["ramsey", *argv]) == 0
        lines = capsys.readouterr().out.splitlines()[3:]  # past the title and the header
        return {cells[0]: float(cells[1]) for cells in map(str.split, lines)}

    @pytest.mark.parametrize("argv, detuning", [
        (["--detuning-khz", "50"], 50.0),
        (["--detuning-khz", "200"], 200.0),
        (["--beat-khz", "0"], 0.0),
    ], ids=["detuning-50", "detuning-200", "beat-0"])
    def test_recovers_the_simulated_trace(self, capsys, argv, detuning):
        rows = self.printed(capsys, *argv)
        assert rows["beat_fitted"] == pytest.approx(rows["beat_input"], abs=1.0)
        assert rows["detuning_fitted"] == pytest.approx(detuning, abs=1.0)
        assert rows["t2_star_fitted"] == pytest.approx(4.0, rel=0.02)

    @pytest.mark.parametrize("beat_khz", ["1e9", "1e300"])
    def test_tone_above_the_grid_nyquist_exits_3(self, capsys, beat_khz):
        """An aliased tone would be fitted as if it were real (1e9 kHz fitted 0)."""
        assert main(["ramsey", "--beat-khz", beat_khz]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--points" in err and "--delay-max-us" in err

    def test_long_trace_seeds_on_block_means(self, capsys, monkeypatch):
        """100000 points fit with the pencil's Hankel matrix still 1024/3 columns wide."""
        widths, eigh = [], np.linalg.eigh

        def spy(matrix):
            widths.append(matrix.shape[0])
            return eigh(matrix)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        rows = self.printed(capsys, "--points", "100000")
        assert widths and max(widths) <= _PENCIL_MAX_POINTS // 3 + 1
        assert rows["beat_fitted"] == pytest.approx(rows["beat_input"], abs=1.0)
        assert rows["t2_star_fitted"] == pytest.approx(4.0, rel=0.02)

    def test_long_dense_trace_seeds_without_aliasing(self, tmp_path, capsys):
        """1024 block means of 3000 us would sample the 371 kHz tones every 2.93 us."""
        config = tmp_path / "long.ini"
        config.write_text("[simulation]\nt2_star_us = 1000\n", encoding="utf-8")
        rows = self.printed(capsys, "--config", str(config), "--delay-max-us", "3000",
                            "--points", "300000")
        assert rows["beat_fitted"] == pytest.approx(rows["beat_input"], abs=1.0)
        assert rows["t2_star_fitted"] == pytest.approx(1000.0, rel=0.01)


@given(content=st.one_of(st.text().map(str.encode), st.binary()))
def test_arbitrary_input_file_exits_cleanly(tmp_path_factory, content):
    """Any text or bytes as --config or --fit-input ends in exit 0, 3 or 4, never a traceback."""
    path = tmp_path_factory.getbasetemp() / "arbitrary-input"
    path.write_bytes(content)
    for argv in (["golden", "--config"], ["echo", "--fit-input"], ["rabi", "--fit-input"],
                 ["ramsey", "--fit-input"]):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main([*argv, str(path)]) in (0, 3, 4)


class TestBudgetOutput:
    def test_stdout_is_csv_table(self, capsys):
        assert main(["budget"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "stage,efficiency,cumulative"
        assert lines[1].startswith("cavity_out,0.45,")
        total_line = [l for l in lines if l.startswith("total,")][0]
        assert float(total_line.split(",")[2]) == pytest.approx(0.0365, abs=5e-5)

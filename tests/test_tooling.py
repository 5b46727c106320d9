"""Guards on how the package is put together: import cost, the demos, the CLI and INI surface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from rexsim.cli import HANDLERS, build_parser, main
from rexsim.config import KEY_TABLE, ConfigDocument, parse_config_text, serialize
from rexsim.csvio import strip_timestamp

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, timeout=300, env=env, cwd=ROOT
    )


def test_config_and_photonstats_import_no_scipy():
    """Parsing a configuration and the photon Monte Carlo stay numpy-only."""
    proc = run_python(
        "-c",
        "import sys, rexsim.config, rexsim.photonstats; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_and_golden_load_no_scipy():
    """The CLI and ten subcommands stay numpy-only; scipy loads only in rabi and ramsey."""
    numpy_only = [name for name in HANDLERS if name not in ("rabi", "ramsey")]
    assert len(numpy_only) == 10
    proc = run_python(
        "-c",
        "import sys, rexsim.cli\n"
        f"for name in {numpy_only!r}:\n"
        "    assert rexsim.cli.main([name]) == 0, name\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = run_python(str(demo))
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_cli_surface():
    """--out only where a CSV is written, --seed and --workers only on Monte Carlo."""
    parser = build_parser()

    def accepts(subcommand, *flag):
        return parser.parse_known_args([subcommand, *flag])[1] == []

    writers = {"budget", "rabi", "ramsey", "echo", "g2", "sfs", "histogram", "spinbath", "flipflop"}
    monte_carlo = {"g2", "sfs", "histogram"}
    assert {s for s in HANDLERS if accepts(s, "--out", "x.csv")} == writers
    assert {s for s in HANDLERS if accepts(s, "--seed", "5")} == monte_carlo
    assert {s for s in HANDLERS if accepts(s, "--workers", "2")} == monte_carlo
    assert all(accepts(s, "--config", "x.ini") for s in HANDLERS)


@pytest.mark.parametrize("argv", [
    ["spectro", "--seed", "5"],
    ["cavity", "--out", "x.csv"],
    ["golden", "--out", "y.csv"],
    ["golden", "--q-scale", "5"],
])
def test_cli_rejects_flags_it_would_ignore(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _perturbed(key, value):
    if key.choices is not None:
        return next(choice for choice in key.choices if choice != value)
    if isinstance(key.default, int) or key.name.endswith("_spin"):  # spins stay half-integer
        return value + 1
    return value * 1.01 if value else 1.0


def test_every_config_key_moves_an_output(tmp_path, capsys):
    """Each INI key, perturbed alone, changes some subcommand's stdout or CSV."""
    base = parse_config_text("[simulation]\np_detect = 0.5\nbackground_per_pulse = 0.02\n")
    config, out = tmp_path / "sweep.ini", tmp_path / "sweep.csv"
    g2 = ["g2", "--pulses", "400000", "--max-lag", "40"]
    # cheapest first
    runs = [["spectro"], ["cavity"], ["golden"]] + [
        [*argv, "--out", str(out)]
        for argv in (["budget"], ["spinbath"], ["flipflop"], ["sfs"], ["echo"], ["ramsey"],
                     ["histogram"], [*g2, "--no-shelving"], g2, ["rabi"])
    ]

    def outputs(doc, argv):
        config.write_text(serialize(doc), encoding="utf-8")
        out.unlink(missing_ok=True)
        code = main([*argv, "--config", str(config)])
        assert code != 3, capsys.readouterr().err
        csv = strip_timestamp(out.read_text(encoding="utf-8")) if out.exists() else ""
        return code, capsys.readouterr().out, csv

    baseline = {}
    dead = []
    for key in KEY_TABLE:
        values = {section: dict(entries) for section, entries in base.values.items()}
        values[key.section][key.name] = _perturbed(key, base.raw(key.section, key.name))
        doc = ConfigDocument(values=values)
        for i, argv in enumerate(runs):
            if i not in baseline:
                baseline[i] = outputs(base, argv)
            if outputs(doc, argv) != baseline[i]:
                break
        else:
            dead.append(f"{key.section}.{key.name}")
    assert dead == []


def test_extreme_config_values_exit_cleanly(tmp_path, capsys):
    """Each numeric INI key at 1e-300 and at 1e300 exits 0, 3 or 4; no exception escapes main,
    and every exit-4 message names the key behind it.

    A seed outside [0, 2^64) is bad input, so golden and sfs, which draw with it, must exit 3.
    """
    config = tmp_path / "extreme.ini"
    escaped = []
    for key in KEY_TABLE:
        if not key.is_number:
            continue
        for value in ("1e-300", "1e300"):
            config.write_text(f"[{key.section}]\n{key.name} = {value}\n", encoding="utf-8")
            for subcommand in ("golden", "spinbath", "echo", "sfs"):
                try:
                    code = main([subcommand, "--config", str(config)])
                except Exception as exc:
                    code = repr(exc)
                err = capsys.readouterr().err
                allowed = (3,) if key.name == "seed" and subcommand in ("golden", "sfs") else (0, 3, 4)
                named = code != 4 or (f"[{key.section}] {key.name} = " in err and "(34," not in err)
                if code not in allowed or not named:
                    escaped.append(f"{key.section}.{key.name} = {value} ({subcommand}: {code} {err!r})")
                    break
    assert escaped == []

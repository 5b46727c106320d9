"""Guards on how the package is put together: import cost, the demos and the CLI surface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from rexsim.cli import HANDLERS, build_parser, main

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
])
def test_cli_rejects_flags_it_would_ignore(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err

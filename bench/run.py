"""rexsim benchmark: end-to-end metrics per workload, per-layer metrics when traced.

    python3 bench/run.py --workload cli-defaults|photon-mc|all
                         --seed N --seconds S --trace 0|1 [--record FILE]

Run from the root of a checkout; the program is imported from its src/.
Every run reports every end-to-end metric (--trace 0) or every per-layer
metric (--trace 1), so every run holds units of three kinds: single CLI
subcommands, photon rounds and Bloch rounds. A run repeats one cycle of the
workload: a pass over the 12 subcommands with the workload's extra `g2`
runs, photon rounds, Bloch rounds and set-up probes spread between them, one
unit at a time. It runs the whole number of cycles that ends nearest to
--seconds after its start, the workers' warm-up included, at least one.
Every cycle of a workload attempts the same operations, so `failed` is the
same share of `attempted` in every run. The last line of standard output
is a JSON object with the keys correct, attempted, failed and metrics; each
run also writes a JSON record (default: .bench_out/records/).
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

from common import Ops, self_times, summary

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(BENCH, "worker.py")

DEADLINE_S = 170.0
# Units of one cycle besides the pass over the 12 subcommands. An "extra-g2"
# unit is one more `rexsim g2` run outside the pass: one g2 run per pass gave
# too few samples of cli_g2_s for a steady median.
CYCLE = {
    "cli-defaults": {"extra-g2": 2, "photon": 1, "bloch": 6, "setup": 1},
    "photon-mc": {"extra-g2": 2, "photon": 2, "bloch": 4, "setup": 2},
}
# Added to every cycle of a traced run; a clilayers unit is CLI_LAYER_ROUNDS
# in-process rounds of cmd_golden and parse_config_text.
TRACE_UNITS = {"import": 2, "clilayers": 1}
CLI_LAYER_ROUNDS = 20

# The 12 subcommands in pass order, with the rows their CSV must hold at the
# default flags (None: writes no CSV). Monte Carlo subcommands get --seed.
SUBCOMMANDS = {
    "spectro": None,
    "cavity": None,
    "budget": 5,        # one row per detection stage
    "rabi": 400,        # --points
    "ramsey": 960,      # --points
    "echo": 600,        # --points
    "g2": 101,          # --max-lag 100, lags 0..100
    "sfs": 300,         # (35 - 5) GHz / 100 MHz bins
    "histogram": 25,    # --bins
    "spinbath": 100,    # --points
    "flipflop": 80,     # --points
    "golden": None,
}
SEEDED = {"g2", "sfs", "histogram"}
CALC = ("spectro", "cavity", "budget", "spinbath", "flipflop", "golden")
SIM = ("rabi", "ramsey", "echo", "sfs", "histogram")

# name: (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "cli_pass_s": ("s", "lower"),
    "cli_calc_s": ("s", "lower"),
    "cli_sim_s": ("s", "lower"),
    "cli_g2_s": ("s", "lower"),
    "g2_pulses_per_s": ("pulses/s", "higher"),
    "g2_plain_pulses_per_s": ("pulses/s", "higher"),
    "histogram_samples_per_s": ("samples/s", "higher"),
    "histogram_parallel_samples_per_s": ("samples/s", "higher"),
    "bloch_segments_per_s": ("segments/s", "higher"),
}
# Reported by traced runs beside the layers: over four ten-run sets its
# run-to-run spread reached 29%, beyond the 0.25 bound an end-to-end metric
# may have, since leg (d) writes and reads files on the host's shared disk.
LAYER_RATES = {"fits_per_s": "fits/s"}
LAYER_TIMES = (
    "cli.import", "cli.cmd_golden", "config.parse_config_text",
    "photonstats.simulate_emitter_stream.shelving", "photonstats.g2_estimator.lag100",
    "photonstats.simulate_emitter_stream.plain", "photonstats.g2_estimator.lag1000",
    "photonstats.bunching_lag_constant", "photonstats.coupling_histogram.w1",
    "photonstats.coupling_histogram.wN", "photonstats.sfs_generate",
    "dynamics.rabi_nutation_scan", "dynamics.evolve_sequence", "dynamics.extract_t2star",
    "dynamics.ramsey_beat_frequency", "dynamics.fit_t2_from_echo",
    "dynamics.extract_rabi_frequencies", "dynamics.bloch_evolve.adaptive",
    "cavity.g0_from_rabi", "spinbath.eseem_envelope", "spectral.dominant_beat",
    "csvio.render_trace_csv", "csvio.read_trace_csv",
)
LAYER_COUNTS = {
    "photonstats.pulses": "count", "photonstats.samples": "count",
    "dynamics.segments": "count", "csvio.rows": "count", "csvio.bytes": "bytes",
}


class BenchError(Exception):
    pass


class Runner:
    """Starts the program's processes and waits for each; one runs at a time."""

    def __init__(self, tmp: str):
        self.tmp = tmp
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, BENCH, os.environ.get("PYTHONPATH")) if p)
        # one BLAS thread: only the parallel histogram leg may use more
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its time limit")
        return left

    def spawn(self, argv, stdout, stderr, stdin=subprocess.DEVNULL):
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=self.env,
                                stdin=stdin, stdout=stdout, stderr=stderr, text=True)
        timer = threading.Timer(self.remaining(), proc.kill)
        timer.start()
        return proc, timer

    @staticmethod
    def reap(proc, timer):
        """Waits for the process; returns (exit code, max RSS in MB)."""
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode < 0:
            raise BenchError(f"{proc.args[1:3]} was killed (time limit)")
        return proc.returncode, usage.ru_maxrss / 1024.0

    def run(self, argv, stdout_path=os.devnull, ready=False):
        """One-shot process: (exit code, wall s, s until its first line, max RSS MB)."""
        with open(stdout_path, "w") as out, open(self.stderr_path(), "w") as err:
            start = time.perf_counter()
            proc, timer = self.spawn(argv, subprocess.PIPE if ready else out, err)
            first_line = None
            if ready:
                proc.stdout.readline()
                first_line = time.perf_counter() - start
                proc.stdout.read()
                proc.stdout.close()
            code, rss = self.reap(proc, timer)
            wall = time.perf_counter() - start
        return code, wall, first_line, rss

    def stderr_path(self, name="stderr") -> str:
        return os.path.join(self.tmp, f"{name}.txt")

    def stderr_tail(self, name="stderr") -> str:
        with open(self.stderr_path(name)) as handle:
            return handle.read()[-2000:]


class Worker:
    """A legs worker (see worker.py): warms up, then runs one round per request."""

    def __init__(self, runner, kind, seed, trace, rounds_per_unit=1):
        self.runner, self.kind, self.rounds_per_unit = runner, kind, rounds_per_unit
        self.result_path = os.path.join(runner.tmp, f"{kind}.json")
        self.err = open(runner.stderr_path(kind), "w")
        argv = [WORKER, kind, "--seed", str(seed), "--trace", str(int(trace)),
                "--tmp", runner.tmp, "--result", self.result_path]
        self.proc, self.timer = runner.spawn(argv, subprocess.PIPE, self.err, subprocess.PIPE)

    def expect(self):
        if not self.proc.stdout.readline():
            self.err.flush()
            raise BenchError(f"worker {self.kind} stopped:\n{self.runner.stderr_tail(self.kind)}")

    def unit(self):
        for _ in range(self.rounds_per_unit):
            self.proc.stdin.write("round\n")
            self.proc.stdin.flush()
            self.expect()

    def finish(self, ops: Ops) -> dict:
        self.proc.stdin.write("done\n")
        self.proc.stdin.close()
        self.proc.stdout.read()
        self.proc.stdout.close()
        code, rss = self.runner.reap(self.proc, self.timer)
        self.err.close()
        if code != 0:
            raise BenchError(f"worker {self.kind} exited {code}:\n"
                             f"{self.runner.stderr_tail(self.kind)}")
        with open(self.result_path) as handle:
            result = json.load(handle)
        ops.merge(result["ops"])
        result["peak_rss_mb"] = rss
        return result

    def close(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
            self.timer.cancel()
        self.err.close()


class Cli:
    """Runs one subcommand as a fresh process and checks its output."""

    def __init__(self, runner, seed, ops):
        self.runner, self.seed, self.ops = runner, seed, ops
        self.walls = {name: [] for name in SUBCOMMANDS}   # runs within passes
        self.extra_g2 = []
        self.rss = []
        self.stages = default_stages()

    def unit(self, name, extra=False):
        import oracles

        argv = ["-m", "rexsim.cli", name]
        csv_path = os.path.join(self.runner.tmp, f"{name}.csv")
        if SUBCOMMANDS[name] is not None:
            argv += ["--out", csv_path]
        if name in SEEDED:
            argv += ["--seed", str(self.seed)]
        stdout_path = os.path.join(self.runner.tmp, f"{name}.out")
        code, wall, _, rss = self.runner.run(argv, stdout_path)
        (self.extra_g2 if extra else self.walls[name]).append(wall)
        self.rss.append(rss)

        if not self.ops.check(f"{name}.exit", oracles.exit_code(code)):
            return
        with open(stdout_path) as handle:
            stdout = handle.read()
        if name == "golden":
            self.ops.check("golden.rows", oracles.golden_table(stdout))
        if name == "budget":
            self.ops.check("budget.total", oracles.budget_total(stdout, self.stages))
        if SUBCOMMANDS[name] is not None:
            with open(csv_path) as handle:
                self.ops.check(f"{name}.csv", oracles.csv_rows(handle.read(), SUBCOMMANDS[name]))

    def metrics(self) -> dict:
        passes = [sum(run) for run in zip(*self.walls.values())]
        return {
            "cli_pass_s": metric("cli_pass_s", passes),
            "cli_calc_s": metric("cli_calc_s", [w for name in CALC for w in self.walls[name]]),
            "cli_sim_s": metric("cli_sim_s", [w for name in SIM for w in self.walls[name]]),
            "cli_g2_s": metric("cli_g2_s", self.walls["g2"] + self.extra_g2),
        }


class Probes:
    """Fresh-interpreter probes: set-up time, or the time of `import rexsim.cli`."""

    def __init__(self, runner, argv, ready):
        self.runner, self.argv, self.ready = runner, argv, ready
        self.samples = []

    def unit(self):
        path = os.path.join(self.runner.tmp, "probe.out")
        code, _, first_line, _ = self.runner.run(self.argv, path, ready=self.ready)
        if code != 0:
            raise BenchError(f"probe {self.argv[1]} exited {code}:\n{self.runner.stderr_tail()}")
        if self.ready:
            self.samples.append(first_line)
        else:
            with open(path) as handle:
                self.samples.append(float(handle.read()))


def default_stages() -> dict:
    """Default detection-stage efficiencies, read from the configuration."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from rexsim.config import default_document

    return dict(default_document().detection_chain().stages)


def metric(name, samples):
    """(unit, samples, value): the median of the run's samples.

    The host's speed changes by up to 1.7x for seconds to minutes at a time
    when neighbours load the shared cores. Over six ten-run sets the median
    moved less from run to run than the fastest sample on most metrics: the
    fastest of many short samples depends on whether the run caught a brief
    fast spell.
    """
    return END_TO_END[name][0], samples, statistics.median(samples)


def cycle_units(workload: str, trace: bool) -> list:
    """One cycle: the subcommands in pass order, with the other units taken
    kind by kind in turn and spread evenly between them."""
    counts = dict(CYCLE[workload], **(TRACE_UNITS if trace else {}))
    others = []
    while any(counts.values()):
        for kind, left in counts.items():
            if left:
                others.append(kind)
                counts[kind] = left - 1
    names = list(SUBCOMMANDS)
    units = []
    for i, name in enumerate(names):
        units.append(name)
        units += others[len(others) * i // len(names):len(others) * (i + 1) // len(names)]
    return units


def run_workload(workload, seed, seconds, trace, runner) -> dict:
    start = time.perf_counter()   # the workers' warm-up counts towards --seconds
    ops = Ops()
    cli = Cli(runner, seed, ops)
    setup = Probes(runner, [WORKER, "setup", workload], ready=True)
    imports = Probes(runner, [WORKER, "import-cli"], ready=False)
    workers = {}
    try:
        for kind in ("photon", "bloch"):
            workers[kind] = Worker(runner, kind, seed, trace)
        if trace:
            workers["clilayers"] = Worker(runner, "clilayers", seed, True, CLI_LAYER_ROUNDS)
        for w in workers.values():   # the workers warm up side by side
            w.expect()

        actions = {"setup": setup.unit, "import": imports.unit,
                   "extra-g2": lambda: cli.unit("g2", extra=True)}
        actions.update((kind, w.unit) for kind, w in workers.items())
        units = cycle_units(workload, trace)
        cycles = []
        while True:
            began = time.perf_counter()
            for unit in units:
                if unit in SUBCOMMANDS:
                    cli.unit(unit)
                else:
                    actions[unit]()
            cycles.append(time.perf_counter() - began)
            if time.perf_counter() - start + statistics.mean(cycles) / 2 > seconds:
                break
        results = {kind: w.finish(ops) for kind, w in workers.items()}
    finally:
        for w in workers.values():
            w.close()

    metrics, versions = cli.metrics(), {}
    passes = metrics["cli_pass_s"][1]
    for res in results.values():
        versions.update(res["versions"])
        for name, values in res["samples"].items():
            if name in END_TO_END:
                metrics[name] = metric(name, values)
    metrics["setup_s"] = ("s", setup.samples, statistics.median(setup.samples))
    rss = max(cli.rss) if workload == "cli-defaults" else results["photon"]["peak_rss_mb"]
    metrics["peak_rss_mb"] = ("MB", [rss], rss)

    layers = {}
    if trace:
        times = {"cli.import": imports.samples}
        counts = {}
        for res in results.values():
            for name, values in self_times(res["spans"]).items():
                times.setdefault(name, []).extend(values)
            counts.update(res["counts"])
        for name in LAYER_TIMES:
            if not times.get(name):
                raise BenchError(f"no spans named {name}")
            layers[f"{name}_s"] = ("s", times[name], statistics.median(times[name]))
        for name, unit in LAYER_COUNTS.items():
            if name not in counts:
                raise BenchError(f"no count named {name}")
            layers[name] = (unit, [counts[name]], counts[name])
        for name, unit in LAYER_RATES.items():
            values = results["bloch"]["samples"][name]
            layers[name] = (unit, values, statistics.median(values))

    round_s = {kind: summary(res["samples"]["round_s"]) for kind, res in results.items()}
    round_s["cli"] = summary(passes)
    return {
        "workload": workload,
        "ops": ops,
        "metrics": metrics,
        "layers": layers,
        "spans": {kind: res["spans"] for kind, res in results.items()},
        "cycles": len(cycles),
        "cycle_s": summary(cycles),
        "round_s": round_s,
        "versions": versions,
    }


def provenance(seed: int, versions: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **versions,
        "git_commit": git_commit(),
        "seed": seed,
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*CYCLE, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="path of the JSON run record")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rexsim", "__init__.py")):
        print(f"error: no rexsim sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2

    tmp = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    runner = Runner(tmp)
    workloads = tuple(CYCLE) if args.workload == "all" else (args.workload,)
    runner.deadline += DEADLINE_S * (len(workloads) - 1)
    try:
        results = [run_workload(w, args.seed, args.seconds, args.trace, runner)
                   for w in workloads]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return report(args, results)


def report(args, results) -> int:
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "workloads": {},
    }
    versions = {}
    final_metrics = {}
    correct = True
    attempted = failed = 0
    for res in results:
        versions.update(res["versions"])
        ops = res["ops"]
        correct = correct and ops.unexpected == 0
        attempted += ops.attempted
        failed += ops.failed
        table = res["layers"] if args.trace else res["metrics"]
        stats = {}
        for name, (unit, values, value) in table.items():
            stats[name] = {"unit": unit, "value": value, **summary(values)}
            key = name if len(results) == 1 else f"{res['workload']}.{name}"
            final_metrics[key] = {"value": value, "unit": unit}
        record["workloads"][res["workload"]] = {
            **ops.as_dict(),
            "cycles": res["cycles"],
            "cycle_s": res["cycle_s"],
            "round_s": res["round_s"],
            "metrics": stats,
        }
    record["provenance"] = provenance(args.seed, versions)

    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    name = f"{stamp}-{args.workload}-s{args.seed}-t{args.trace}"
    record_path = args.record or os.path.join(OUT, "records", f"{name}.json")
    os.makedirs(os.path.dirname(os.path.abspath(record_path)), exist_ok=True)
    if args.trace:
        spans_path = os.path.join(OUT, "spans", f"{name}.json")
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        with open(spans_path, "w") as handle:
            json.dump([{"workload": r["workload"], "spans": r["spans"]} for r in results], handle)
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
    with open(record_path, "w") as handle:
        json.dump(record, handle, indent=1)

    for res in results:
        wl = record["workloads"][res["workload"]]
        print(f"# {res['workload']}: {wl['cycles']} cycles, {wl['attempted']} operations, "
              f"{wl['failed']} failed ({wl['unexpected']} not known faults)")
        for failure in wl["failures"][:5]:
            tag = "known fault" if failure["known_fault"] else "FAILED"
            print(f"#   {tag}: {failure['op']}: {failure['detail']}")
        for name, st in wl["metrics"].items():
            print(f"{res['workload']:13s} {name:48s} {st['value']:14.6g} {st['unit']}")
    print(f"# record: {os.path.relpath(os.path.abspath(record_path), ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": final_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""snrloss benchmark: the `validate` and `sweep` commands, end to end and
layer by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload validate-ger --seed 1 --seconds 30 --trace 0

One client drives ``snrloss.cli.main(argv)`` in this process as a closed
loop: each command starts when the previous one has returned.  Every
command of a run is the same (config, seed), so every output must repeat
the first one byte for byte.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates plain and traced commands and prints the per-layer
metrics (see ``bench/tracing.py``).  The last line of standard output is
one JSON object; a full record with the environment stamp goes to
``bench/results/``.  See ``bench/README.md`` for why each workload is here.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

SETUP_SPAWNS = 3
MIN_TIMED = 3  # timed commands per run, whatever --seconds says
# Median SpeedProbe time on the host the bounds were set on (2-CPU Xeon VM,
# Python 3.11.7, numpy 2.4.6, scipy 1.17.1): times are reported at the host
# speed at which the probe takes this long.
PROBE_REF_S = 0.027


@dataclass(frozen=True)
class Workload:
    command: str  # "validate" or "sweep"
    config: str  # file under bench/configs
    size: int  # --trials for validate, --realizations for sweep
    min_size: int  # smallest size the command accepts or that still exercises every layer
    target: tuple  # span-name prefixes of the layer this workload stresses

    def argv(self, seed, size):
        flag = "--trials" if self.command == "validate" else "--realizations"
        return [self.command, "--config", str(BENCH / "configs" / self.config),
                "--seed", str(seed), flag, str(size)]

    def work(self, size):
        """Trials of both samplers for validate; realizations for sweep."""
        return 2 * size if self.command == "validate" else size

    def realizations(self, size):
        """Scenario pairs one command builds."""
        return 1 if self.command == "validate" else size


# Why each workload is here, and at this size: bench/README.md.
WORKLOADS = {
    "validate-ger": Workload("validate", "ger_blockdiag_16x32.json", 20_000, 10_000,
                             ("approximation.pearson_cdf",)),
    "validate-general": Workload("validate", "eigenvalue_16x32.json", 20_000, 10_000,
                                 ("montecarlo.simulate_loss_direct",)),
    "sweep-general": Workload("sweep", "inverse_wishart_16x32.json", 500, 3,
                              ("approximation.loss_mean",)),
}


def pin_blas_threads() -> None:
    """Run OpenBLAS with one thread, through this process's environment
    only (children inherit it); numpy must not be loaded yet.

    With OpenBLAS's default of one thread per CPU, each BLAS call waits for
    its slowest thread, so on a shared 2-CPU machine the time of a
    BLAS-bound sweep follows the load on the second CPU.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"


def blas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment(seed) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_library": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }


def measure_setup(spawns, probe) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter until ``snrloss.cli`` is
    imported in it, once per spawn, and the probe times around the spawns."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    code = "import snrloss.cli, time; print(repr(time.monotonic()))"
    times, probes = [], [probe()]
    for _ in range(spawns):
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip()) - start)
        probes.append(probe())
    return times, probes


class SpeedProbe:
    """Fixed work, independent of snrloss, whose time tracks host speed.

    The speed of the shared host drifts by ±20% over minutes, longer than a
    run, so raw times of runs made minutes apart spread that much whatever
    the program does.  The probe runs before and after every timed command
    and set-up spawn, and each time is reported at reference speed (see
    :func:`at_reference_speed`).  Its work resembles the workloads':
    interpreted Python, a ``scipy.special`` ufunc over an array and small
    LAPACK calls.
    """

    def __init__(self):
        import numpy as np
        from scipy.special import gammaincc

        rng = np.random.default_rng(0)
        self._eigh = np.linalg.eigh
        self._gammaincc = gammaincc
        self._a, self._x = rng.uniform(1.0, 20.0, 60_000), rng.uniform(0.0, 40.0, 60_000)
        m = rng.standard_normal((64, 16, 16))
        self._m = m @ m.transpose(0, 2, 1)

    def __call__(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        self._gammaincc(self._a, self._x)
        self._eigh(self._m)
        return time.perf_counter() - start


def at_reference_speed(times, probes) -> list[float]:
    """Scale ``times[i]`` by ``PROBE_REF_S`` over the mean of the probe
    times just before and after it (``probes`` has one more entry)."""
    return [t * 2.0 * PROBE_REF_S / (before + after) for t, before, after in zip(times, probes, probes[1:])]


def gate(workload: Workload, size, rc, out: str, reference: str | None) -> tuple[list[str], int]:
    """Why one command's result is wrong (empty when it is right), and how
    many realizations it skipped.

    A command fails if it exits nonzero, if validate reports ``"pass":
    false``, if a sweep row is not finite and in range, or if its bytes
    differ from the first command of the run.
    """
    problems = []
    skipped = 0
    if rc != 0:
        problems.append(f"exit code {rc}")
    if reference is not None and out != reference:
        problems.append("output bytes differ from the first repeat")
    if workload.command == "validate":
        try:
            report = json.loads(out)
        except json.JSONDecodeError:
            return problems + ["validate output is not JSON"], skipped
        if report.get("pass") is not True:
            problems.append('validate reported "pass": false')
        if report.get("trials") != size or not report.get("comparisons"):
            problems.append("validate report is incomplete")
        return problems, skipped
    lines = out.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# skipped_degenerate="):
        return problems + ["sweep output has no header"], skipped
    skipped = int(lines[0].split("=", 1)[1])
    rows = [line.split(",") for line in lines[2:]]
    if len(rows) + skipped != size:
        problems.append(f"sweep gave {len(rows)} rows and {skipped} skips for {size} realizations")
    for row in rows:
        try:
            gamma_db, a_eff, nu, mu, mean_loss = (float(x) for x in row[1:])
        except ValueError:
            problems.append(f"sweep row {row[0]} is malformed")
            break
        finite = all(math.isfinite(x) for x in (gamma_db, a_eff, nu, mu, mean_loss))
        if not (finite and a_eff > 0 and nu > 0 and mu > 0 and 0.0 < mean_loss < 1.0):
            problems.append(f"sweep row {row[0]} is not finite and in range")
            break
    return problems, skipped


def worst_ks(out: str) -> float:
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        return 0.0
    return max((c["ks"] for c in report.get("comparisons", ())), default=0.0)


class Runner:
    """The closed loop: runs one command at a time and gates each result."""

    def __init__(self, cli, workload: Workload, seed, size):
        self.cli, self.workload, self.size = cli, workload, size
        self.argv = workload.argv(seed, size)
        self.reference = None
        self.attempted = self.failed = self.skipped = 0
        self.problems = []

    def run(self, call=None):
        """One command; returns (wall seconds, CPU seconds, output)."""
        stdout, stderr = io.StringIO(), io.StringIO()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                rc = call(self.cli.main, self.argv) if call else self.cli.main(self.argv)
            except Exception:  # a traceback is a failed command, not a dead benchmark
                traceback.print_exc()
                rc = "exception"
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        cpu = (after.ru_utime - usage.ru_utime) + (after.ru_stime - usage.ru_stime)
        out = stdout.getvalue()
        problems, skipped = gate(self.workload, self.size, rc, out, self.reference)
        if self.reference is None:
            self.reference = out
        self.attempted += 1
        self.skipped += skipped
        if problems:
            self.failed += 1
            self.problems.append(problems + [stderr.getvalue().strip()[-500:]])
        return wall, cpu, out

    def gate_summary(self) -> dict:
        realizations = self.attempted * self.workload.realizations(self.size)
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "fail_ratio": self.failed / self.attempted,
            "skip_ratio": self.skipped / realizations if self.workload.command == "sweep" else 0.0,
            "output_sha256": hashlib.sha256(self.reference.encode()).hexdigest(),
            "problems": self.problems[:5],
        }


def repeat_until(deadline, step, minimum):
    """Call ``step()`` until the next call would end past ``deadline``
    (judged by the median call so far), but at least ``minimum`` times."""
    durations = []
    while len(durations) < minimum or time.perf_counter() + statistics.median(durations) <= deadline:
        start = time.perf_counter()
        step()
        durations.append(time.perf_counter() - start)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(runner: Runner, seconds, probe, setup) -> tuple[dict, dict]:
    first_wall, _, _ = runner.run()  # warm-up: LAPACK and lazy imports settle
    probes, samples = [probe()], []

    def step():
        samples.append(runner.run())
        probes.append(probe())

    repeat_until(time.perf_counter() + seconds, step, MIN_TIMED)
    walls, cpus = [wall for wall, _, _ in samples], [cpu for _, cpu, _ in samples]
    command_s = statistics.median(at_reference_speed(walls, probes))
    metrics = {
        "setup_s": metric(statistics.median(at_reference_speed(*setup)), "s"),
        "command_s": metric(command_s, "s"),
        "work_per_s": metric(runner.workload.work(runner.size) / command_s, "1/s"),
        "cpu_s": metric(statistics.median(at_reference_speed(cpus, probes)), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = {"setup_s": setup[0], "setup_probe_s": setup[1], "first_command_s": first_wall,
           "wall_s": walls, "cpu_s": cpus, "probe_s": probes}
    return metrics, raw


PER_LAYER_UNITS = {"us_per_point": "us", "us_per_trial": "us", "us_per_call": "us", "ms_per_call": "ms",
                   "self_s": "s", "overhead_s": "s", "calls": "count", "gammaincc_per_point": "count",
                   "direct_words_per_trial": "count", "calls_per_realization": "count",
                   "target_share": "ratio", "ks_worst": "1", "fail_ratio": "ratio", "skip_ratio": "ratio"}


def per_layer(runner: Runner, seconds) -> tuple[dict, dict]:
    import tracing  # imports numpy, so only after pin_blas_threads

    tracer = tracing.Tracer()
    runner.run()  # warm-up, untraced
    plain, traced, outputs = [], [], []

    def pair():
        plain.append(runner.run()[0])
        patches = tracing.install(tracer)
        try:
            wall, _, out = runner.run(call=tracer.command)
        finally:
            tracing.uninstall(patches)
        traced.append(wall)
        outputs.append(out)

    repeat_until(time.perf_counter() + seconds, pair, 2)
    realizations = runner.workload.realizations(runner.size)
    values = tracing.median_metrics([tracing.command_metrics(c, realizations, runner.workload.target)
                                     for c in tracer.commands])
    values["montecarlo.ks_worst"] = statistics.median(worst_ks(out) for out in outputs)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    summary = runner.gate_summary()
    values["gate.fail_ratio"] = summary["fail_ratio"]
    values["gate.skip_ratio"] = summary["skip_ratio"]
    metrics = {name: metric(value, PER_LAYER_UNITS[name.rsplit(".", 1)[1]]) for name, value in values.items()}
    raw = {"plain_wall_s": plain, "traced_wall_s": traced, "spans_last_command": tracer.commands[-1]["spans"]}
    return metrics, raw


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, size=None, setup_spawns=SETUP_SPAWNS) -> int:
    """Run one workload; ``size`` and ``setup_spawns`` shrink it for tests."""
    args = parse_args(argv)
    if not (SRC / "snrloss" / "cli.py").is_file():
        print(f"benchmark: no snrloss sources at {SRC}; run it from a full checkout", file=sys.stderr)
        return 2
    pin_blas_threads()
    if not args.trace:
        probe = SpeedProbe()
        setup = measure_setup(setup_spawns, probe)
    sys.path.insert(0, str(SRC))
    import snrloss.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "snrloss":
        print(f"benchmark: imported snrloss from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    runner = Runner(cli, workload, args.seed, size or workload.size)
    if args.trace:
        metrics, raw = per_layer(runner, args.seconds)
    else:
        metrics, raw = end_to_end(runner, args.seconds, probe, setup)
    summary = runner.gate_summary()
    record = {
        "workload": args.workload,
        "argv": runner.argv,
        "trace": args.trace,
        "environment": environment(args.seed),
        "gate": summary,
        "metrics": metrics,
        "raw": raw,
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"# {args.workload} seed={args.seed} commands={summary['attempted']} failed={summary['failed']} "
          f"skip_ratio={summary['skip_ratio']:.4g} sha256={summary['output_sha256'][:16]} -> {os.path.relpath(path, ROOT)}")
    for problems in summary["problems"]:
        print(f"# failure: {problems}")
    print(json.dumps({"correct": summary["failed"] == 0, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

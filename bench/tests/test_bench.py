"""Smoke test of the benchmark: every workload at its minimum size, and the
correctness gate.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
VALIDATE = run.WORKLOADS["validate-ger"]
SWEEP = run.WORKLOADS["sweep-general"]


def _validate_report(passed):
    return json.dumps({"pass": passed, "trials": 10_000,
                       "comparisons": [{"ks": 0.01, "pass": passed}]}) + "\n"


def _sweep_output(mean_loss="0.5"):
    return ("# skipped_degenerate=0\nrealization,gamma_db,a_eff,nu,mu,mean_loss\n"
            f"0,1.0,2.0,3.0,40.0,{mean_loss}\n")


def test_spec_names_match_the_workload_table():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert SPEC["command"][1:] == ["bench/run.py"]


def test_gate_accepts_good_outputs():
    good = _validate_report(True)
    assert run.gate(VALIDATE, 10_000, 0, good, good) == ([], 0)
    assert run.gate(SWEEP, 1, 0, _sweep_output(), None) == ([], 0)


def test_gate_fails_a_pass_false_report():
    bad = _validate_report(False)
    problems, _ = run.gate(VALIDATE, 10_000, 2, bad, None)
    assert 'validate reported "pass": false' in problems


def test_gate_fails_repeats_with_different_bytes():
    first, second = _sweep_output("0.5"), _sweep_output("0.50000001")
    problems, _ = run.gate(SWEEP, 1, 0, second, first)
    assert problems == ["output bytes differ from the first repeat"]


@pytest.mark.parametrize("mean_loss", ["nan", "inf", "1.5"])
def test_gate_fails_a_sweep_row_out_of_range(mean_loss):
    problems, _ = run.gate(SWEEP, 1, 0, _sweep_output(mean_loss), None)
    assert problems == ["sweep row 0 is not finite and in range"]


def test_runner_counts_a_changed_output_as_failed(monkeypatch):
    import snrloss.cli as cli

    runner = run.Runner(cli, SWEEP, seed=0, size=SWEEP.min_size)
    runner.run()
    monkeypatch.setattr(runner, "argv", SWEEP.argv(seed=1, size=SWEEP.min_size))
    runner.run()
    summary = runner.gate_summary()
    assert (summary["attempted"], summary["failed"]) == (2, 1)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_every_metric_is_reported_with_its_unit(name, trace, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)],
                      size=run.WORKLOADS[name].min_size, setup_spawns=1)
    assert rc == 0
    result = json.loads(stdout.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    record = json.loads(next(tmp_path.glob("*.json")).read_text(encoding="utf-8"))
    assert set(record["environment"]) >= {"nproc", "blas_library", "blas_threads", "OPENBLAS_NUM_THREADS",
                                          "python", "numpy", "scipy", "seed"}
    assert len(record["gate"]["output_sha256"]) == 64

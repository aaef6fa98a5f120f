"""Golden-output regression guard for the CLI.

Runs ``analyze`` (json and csv), ``pdf``, ``simulate``, ``sweep`` and
``validate`` on small fixed configs at fixed seeds and compares every parsed
number against ``tests/data/cli_golden.json`` at rel 1e-12; text fields,
booleans and exit codes must match exactly; a command that exits without
writing its output file is recorded with output null.  A change that alters the
random stream or a reported number on purpose regenerates the file with

    PYTHONPATH=src python tests/test_cli_golden.py

which first prints, per case, how many numbers changed against the current
file and the largest relative and absolute change.  The absolute change
tells rounding noise on an exact zero (a relative change of inf or
hundreds, an absolute one near 1e-15 or below) from a real move.

A change meant to leave every output as it is shows that with

    PYTHONPATH=src python tests/test_cli_golden.py --check

which prints the same summary, writes nothing, and exits 1 unless every
case matches the file bit for bit: each number, text field, stderr line
and exit code.
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

from snrloss.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
REL = 1e-12

_ARRAY = {"n_elements": 8, "n_training": 20}
_CONFIGS = {
    "none": {"kind": "none"},
    "mpdr": {"kind": "mpdr", "gamma_db": 1.0, "soi_power_db": 10.0},
    "surprise": {"kind": "surprise", "angle_deg": 14.0, "power_db": 10.0},
    "surprise_not_ger": {"kind": "surprise", "angle_deg": 14.0, "power_db": 10.0, "enforce_ger": False},
    "ger_blockdiag": {"kind": "ger_blockdiag", "gamma_range_db": [-6, 6]},
    "eigenvalue": {"kind": "eigenvalue", "alpha_range_db": [-6, 6]},
    "inverse_wishart": {"kind": "inverse_wishart", "gamma_range_db": [-6, 6]},
    # strong interferers and dof = N: realizations 2, 6, 15, 34 and 36 fail
    # the fit
    "inverse_wishart_skips": {"kind": "inverse_wishart", "dof": 8},
    # strong interferers and an 80 dB eigenvalue spread: the training
    # covariances break the Cholesky factorization, but nothing forms them
    # before the fit, which 24 of 37 realizations and analyze's pair fail
    "eigenvalue_breakdown": {"kind": "eigenvalue", "alpha_range_db": [-80, 0]},
}
# the GER families under the strong interferers (m * sum(delta) <= 1.5e-11):
# they pin is_ger and the GER fits at a high dynamic range
_CONFIGS.update({f"{name}_strong": _CONFIGS[name] for name in ("mpdr", "surprise", "ger_blockdiag")})
_ANALYZED = tuple(_CONFIGS)
# swept only: a 300 dB eigenvalue spread, at which Omega's block rounds to a
# negative eigenvalue in some realizations, so they fail before their fit
_CONFIGS["eigenvalue_omega_breakdown"] = {"kind": "eigenvalue", "alpha_range_db": [-300, 0]}
_STRONG = {**_ARRAY, "interference_powers_db": [100, 90, 95]}
_ARRAYS = {name: _STRONG for name in _CONFIGS if name.endswith("_strong")}
_ARRAYS.update(inverse_wishart_skips=_STRONG, eigenvalue_breakdown=_STRONG, eigenvalue_omega_breakdown=_STRONG)
_RANDOM = ("ger_blockdiag", "eigenvalue", "inverse_wishart")

CASES = (
    [(f"analyze-json-{name}", name, ["analyze", "--seed", "7"]) for name in _ANALYZED]
    + [(f"analyze-csv-{name}", name, ["analyze", "--seed", "3", "--format", "csv"])
       for name in ("mpdr", "ger_blockdiag", "eigenvalue")]
    + [(f"pdf-{name}", name, ["pdf", "--grid", "16", "--seed", "5"])
       for name in ("none", "mpdr", "surprise", "ger_blockdiag", "inverse_wishart")]
    + [(f"sweep-{name}", name, ["sweep", "--realizations", "5", "--seed", "11"]) for name in _RANDOM]
    # 37 realizations cross the boundaries of sweep's 16-realization blocks
    + [(f"sweep37-{name}", name, ["sweep", "--realizations", "37", "--seed", "11"])
       for name in (*_RANDOM, "inverse_wishart_skips", "eigenvalue_breakdown", "eigenvalue_omega_breakdown")]
    + [(f"simulate-{sampler}-ger_blockdiag", "ger_blockdiag",
        ["simulate", "--trials", "200", "--seed", "4", "--sampler", sampler])
       for sampler in ("direct", "representation")]
    + [(f"validate-{name}", name, ["validate", "--trials", "10000", "--seed", "2"])
       for name in ("none", "mpdr", "surprise", "ger_blockdiag", "eigenvalue")]
)


def _parse(text):
    """Nested JSON, or rows of comma-separated fields with numbers as floats."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        pass
    rows = []
    for line in text.splitlines():
        fields = []
        for field in line.split(","):
            try:
                fields.append(float(field))
            except ValueError:
                fields.append(field)
        rows.append(fields)
    return rows


def run_case(tmp_dir, name, argv):
    config = tmp_dir / f"{name}.json"
    config.write_text(json.dumps({"array": _ARRAYS.get(name, _ARRAY), "mismatch": _CONFIGS[name]}))
    out = tmp_dir / "out.txt"
    out.unlink(missing_ok=True)  # a command that fails writes nothing
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(argv + ["--config", str(config), "--out", str(out)])
    output = _parse(out.read_text()) if out.exists() else None
    return {"exit": code, "output": output, "stderr": stderr.getvalue()}


def _assert_close(got, want, where):
    if isinstance(want, bool) or want is None or isinstance(want, str):
        assert got == want, where
    elif isinstance(want, (int, float)):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert math.isclose(got, want, rel_tol=REL, abs_tol=0.0), f"{where}: {got!r} != {want!r}"
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    else:
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_cases_match_golden_file(golden):
    assert sorted(golden) == sorted(case_id for case_id, _, _ in CASES)


@pytest.mark.parametrize("case_id,name,argv", CASES, ids=[case[0] for case in CASES])
def test_cli_output_matches_golden(tmp_path, golden, case_id, name, argv):
    _assert_close(run_case(tmp_path, name, argv), golden[case_id], case_id)


def _numbers(value):
    """Every number in a parsed output, in a fixed order."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return []
    if isinstance(value, (int, float)):
        return [float(value)]
    if isinstance(value, list):
        return [n for item in value for n in _numbers(item)]
    return [n for key in sorted(value) for n in _numbers(value[key])]


def _change_summary(old, new):
    """One line on how many numbers of a case changed and by how much."""
    if old is None:
        return "new case"
    before, after = _numbers(old), _numbers(new)
    if len(before) != len(after):
        return f"structure changed: {len(before)} -> {len(after)} numbers"
    changed = [(b, a) for b, a in zip(before, after) if a != b]
    relative = max((abs(a - b) / abs(b) if b else math.inf for b, a in changed), default=0.0)
    absolute = max((abs(a - b) for b, a in changed), default=0.0)
    return (f"{len(changed)} of {len(after)} numbers changed, largest relative change {relative:.3g}, "
            f"largest absolute change {absolute:.3g}")


def _bits(result):
    """A case's result as its golden-file text: equal texts mean every
    number, text field and exit code is equal bit for bit."""
    return json.dumps(result, sort_keys=True)


if __name__ == "__main__":
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description="Regenerate, or with --check compare against, the golden file.")
    parser.add_argument("--check", action="store_true",
                        help="write nothing; exit 1 unless every case matches the golden file bit for bit")
    check = parser.parse_args().check
    with tempfile.TemporaryDirectory() as tmp:
        results = {case_id: run_case(Path(tmp), name, argv) for case_id, name, argv in CASES}
    current = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    cases = sorted(set(current) | set(results))
    differing = [case_id for case_id in cases if _bits(current.get(case_id)) != _bits(results.get(case_id))]
    for case_id, result in results.items():
        note = "; differs from the file" if case_id in differing else ""
        print(f"{case_id}: {_change_summary(current.get(case_id), result)}{note}")
    for case_id in sorted(set(current) - set(results)):
        print(f"{case_id}: dropped")
    if check:
        print(f"{len(differing)} of {len(cases)} cases changed", file=sys.stderr)
        sys.exit(1 if differing else 0)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(results)} cases to {GOLDEN}", file=sys.stderr)

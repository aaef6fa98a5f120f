"""Property test: every valid scenario ends in a result or a typed exit.

Hypothesis draws arrays of 2-32 elements, K from N to 4N training
snapshots, up to three interferers at 0-130 dB and every mismatch family.
Each ``analyze`` and ``simulate`` run must either exit 0 with finite numbers
or exit 3 with an ``[error_code]`` line on stderr; an uncaught exception
(a traceback) fails the test.  A pair without mismatch satisfies the
generalized eigenrelation by construction, so wherever ``analyze`` exits 0
on one it must report ``is_ger``.  ``sweep`` runs on the three random
families with their own parameters drawn too, and must give the same
output and stderr whatever its block size.  The runs are derandomized so
that the suite sees the same examples every time.
"""

import contextlib
import io
import json
import math
import os
import re
import tempfile

from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from snrloss import cli
from snrloss.cli import MISMATCH_KINDS, main

_ANGLE = st.floats(-90.0, 90.0)
_POWER_DB = st.floats(0.0, 130.0)
_CODE_LINE = re.compile(r"^(unfittable|error): \[\w+\] ", re.MULTILINE)


@st.composite
def configs(draw, kinds=MISMATCH_KINDS):
    n = draw(st.integers(2, 32))
    k = draw(st.integers(n, 4 * n))
    interferers = draw(st.integers(0, 3))
    kind = draw(st.sampled_from(kinds))
    mismatch = {"kind": kind}
    if kind == "mpdr":
        mismatch.update(soi_power_db=draw(st.floats(-20.0, 60.0)), gamma_db=draw(st.floats(-10.0, 10.0)))
    elif kind == "surprise":
        mismatch.update(angle_deg=draw(_ANGLE), power_db=draw(_POWER_DB), enforce_ger=draw(st.booleans()))
    array = {
        "n_elements": n,
        "n_training": k,
        "interference_angles_deg": draw(st.lists(_ANGLE, min_size=interferers, max_size=interferers)),
        "interference_powers_db": draw(st.lists(_POWER_DB, min_size=interferers, max_size=interferers)),
    }
    return {"array": array, "mismatch": mismatch}, draw(st.integers(0, 2**16))


@st.composite
def sweep_configs(draw):
    """A config of a random family, with the family's own parameters drawn."""
    config, seed = draw(configs(kinds=("ger_blockdiag", "eigenvalue", "inverse_wishart")))
    n, mismatch = config["array"]["n_elements"], config["mismatch"]
    db_range = draw(st.lists(st.floats(-40.0, 40.0), min_size=2, max_size=2).map(sorted))
    if mismatch["kind"] == "eigenvalue":
        mismatch["alpha_range_db"] = db_range
    else:
        mismatch["gamma_range_db"] = db_range
        mismatch["dof" if mismatch["kind"] == "inverse_wishart" else "w11_dof"] = draw(st.integers(n, 4 * n))
    return config, seed


def _numbers(value):
    if isinstance(value, dict):
        for item in value.values():
            yield from _numbers(item)
    elif isinstance(value, list):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, float):
        yield value


def _run(args):
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(args)
    return code, stderr.getvalue()


@settings(max_examples=25, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs())
def test_every_config_ends_in_a_result_or_a_typed_exit(drawn):
    config, seed = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        out = os.path.join(tmp, "out")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        common = ["--config", path, "--seed", str(seed), "--out", out]
        for args in (["analyze"], ["simulate", "--trials", "200", "--sampler", "direct"],
                     ["simulate", "--trials", "200", "--sampler", "representation"]):
            code, stderr = _run(args + common + ["--format", "json"])
            assert code in (0, 3), (args, code, stderr)
            if code == 3:
                assert _CODE_LINE.search(stderr), (args, stderr)
                continue
            with open(out, encoding="utf-8") as handle:
                numbers = list(_numbers(json.load(handle)))
            assert numbers and all(math.isfinite(x) for x in numbers), args


@settings(max_examples=25, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs(kinds=("none",)))
def test_a_pair_without_mismatch_is_ger_wherever_analyze_succeeds(drawn):
    config, seed = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        out = os.path.join(tmp, "out")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        code, stderr = _run(["analyze", "--config", path, "--seed", str(seed), "--out", out])
        assert code in (0, 3), (code, stderr)
        if code == 0:
            with open(out, encoding="utf-8") as handle:
                assert json.load(handle)["is_ger"] is True, config


@settings(max_examples=15, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sweep_configs())
def test_every_sweep_ends_in_rows_or_a_typed_exit_whatever_the_block_size(drawn):
    config, seed = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        runs = []
        for block in (16, 2):
            out = os.path.join(tmp, f"sweep{block}.json")
            with mock.patch.object(cli, "SWEEP_BLOCK", block):
                code, stderr = _run(["sweep", "--config", path, "--seed", str(seed), "--realizations", "5",
                                     "--format", "json", "--out", out])
            assert code in (0, 3), (code, stderr)
            if code == 3:
                assert _CODE_LINE.search(stderr), stderr
                assert not os.path.exists(out)
                runs.append((code, stderr, None))
                continue
            with open(out, encoding="utf-8") as handle:
                report = json.load(handle)
            assert len(report["realizations"]) + report["skipped_degenerate"] == 5
            assert all(math.isfinite(x) for x in _numbers(report)), report
            runs.append((code, stderr, report))
        assert runs[1] == runs[0], config

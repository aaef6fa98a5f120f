"""Property test: every valid scenario ends in a result or a typed exit.

Hypothesis draws arrays of 2-32 elements, K from N to 4N training
snapshots, up to three interferers at 0-130 dB and every mismatch family.
Each ``analyze`` and ``simulate`` run must either exit 0 with finite numbers
or exit 3 with an ``[error_code]`` line on stderr; an uncaught exception
(a traceback) fails the test.  A pair without mismatch satisfies the
generalized eigenrelation by construction, so wherever ``analyze`` exits 0
on one it must report ``is_ger``.  The runs are derandomized so that the
suite sees the same examples every time.
"""

import contextlib
import io
import json
import math
import os
import re
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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

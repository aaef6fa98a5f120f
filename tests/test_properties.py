"""Property test: every valid scenario ends in a result or a typed exit.

Hypothesis draws arrays of 2-32 elements, K from N to 4N training
snapshots, up to three interferers at 0-130 dB and every mismatch family,
with each family's own parameters.  Each ``analyze``, ``pdf`` and
``simulate`` run must either exit 0 with finite numbers or exit 3 with an
``[error_code]`` line on stderr; an uncaught exception (a traceback) fails
the test.  ``pdf`` builds the same pair and fits as ``analyze``, so
``analyze`` must exit 0 wherever ``pdf`` does.  A pair
without mismatch, an ``mpdr`` pair, a surprise pair with ``enforce_ger`` and
a ``ger_blockdiag`` pair satisfy the generalized eigenrelation by
construction, so wherever ``analyze`` exits 0 on one it must report
``is_ger``.  ``sweep`` runs on the three random families and must give the
same output and stderr whatever its block size.  On well-conditioned
configs each family's Omega matches the generic whitening of
``oracles.build_omega``.  The runs are derandomized so that the suite sees
the same examples every time.
"""

import contextlib
import io
import json
import math
import os
import re
import tempfile

from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from snrloss import cli
from snrloss.cli import MISMATCH_KINDS, main
from snrloss.errors import DegenerateQ
from snrloss.mismatch import build_omega
from snrloss.sampling import RngStream

import oracles

_ANGLE = st.floats(-90.0, 90.0)
_POWER_DB = st.floats(0.0, 130.0)
_CODE_LINE = re.compile(r"^(unfittable|error): \[\w+\] ", re.MULTILINE)


@st.composite
def configs(draw, kinds=MISMATCH_KINDS, max_elements=32, powers_db=_POWER_DB, family_db=40.0):
    """A config of one of ``kinds`` with the family's own parameters drawn,
    dB values of the random families within +-``family_db``."""
    n = draw(st.integers(2, max_elements))
    k = draw(st.integers(n, 4 * n))
    interferers = draw(st.integers(0, 3))
    kind = draw(st.sampled_from(kinds))
    mismatch = {"kind": kind}
    if kind == "mpdr":
        mismatch.update(soi_power_db=draw(st.floats(-20.0, 60.0)), gamma_db=draw(st.floats(-10.0, 10.0)))
    elif kind == "surprise":
        mismatch.update(angle_deg=draw(_ANGLE), power_db=draw(powers_db), enforce_ger=draw(st.booleans()))
    elif kind != "none":
        db = st.floats(-family_db, family_db)
        db_range = st.lists(db, min_size=2, max_size=2).map(sorted)
        if kind == "eigenvalue":
            mismatch["alpha_range_db"] = draw(db_range)
        else:
            if draw(st.booleans()):
                mismatch["gamma_range_db"] = draw(db_range)
            else:
                mismatch["gamma_db"] = draw(db)
            mismatch["dof" if kind == "inverse_wishart" else "w11_dof"] = draw(st.integers(n, 4 * n))
    array = {
        "n_elements": n,
        "n_training": k,
        "interference_angles_deg": draw(st.lists(_ANGLE, min_size=interferers, max_size=interferers)),
        "interference_powers_db": draw(st.lists(powers_db, min_size=interferers, max_size=interferers)),
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
        codes = {}
        for args in (["analyze"], ["pdf", "--grid", "8"], ["simulate", "--trials", "200", "--sampler", "direct"],
                     ["simulate", "--trials", "200", "--sampler", "representation"]):
            code, stderr = _run(args + common + ["--format", "json"])
            codes[args[0]] = code
            assert code in (0, 3), (args, code, stderr)
            if code == 3:
                assert _CODE_LINE.search(stderr), (args, stderr)
                continue
            with open(out, encoding="utf-8") as handle:
                numbers = list(_numbers(json.load(handle)))
            assert numbers and all(math.isfinite(x) for x in numbers), args
        assert codes["analyze"] == 0 or codes["pdf"] != 0, config


def _enforcing_ger(drawn):
    config, seed = drawn
    if config["mismatch"]["kind"] == "surprise":
        config["mismatch"]["enforce_ger"] = True
    return config, seed


@settings(max_examples=45, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs(kinds=("none", "mpdr", "surprise", "ger_blockdiag")).map(_enforcing_ger))
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
@given(configs(kinds=("ger_blockdiag", "eigenvalue", "inverse_wishart")))
def test_every_sweep_ends_in_rows_or_a_typed_exit_whatever_the_block_size(drawn):
    config, seed = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        runs = []
        for block in (cli.SWEEP_BLOCK, 2):
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


# the oracle whitens by chol(sigma_t) and solves against it, and each of its
# factorizations and solves loses about kappa * eps, kappa the larger 2-norm
# condition number of sigma and sigma_t; 600 scratch draws over these ranges
# stayed below 8 kappa eps
_OMEGA_RTOL = 32.0 * np.finfo(float).eps


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs(max_elements=16, powers_db=st.floats(0.0, 30.0), family_db=10.0))
def test_each_family_omega_matches_the_generic_whitening(drawn):
    """lam (relative to its largest), sum(delta) (relative to 1 + sum(delta)),
    omega22 and omega_2_1 within 32 kappa eps of the oracle, on configs with
    interferers up to 30 dB and family parameters within +-10 dB."""
    config, seed = drawn
    if config["mismatch"]["kind"] == "mpdr":
        config["mismatch"]["soi_power_db"] = min(config["mismatch"]["soi_power_db"], 20.0)
    _, base = cli.build_base(config)
    try:
        pair = cli.build_pair(config, base, RngStream(seed, 0))
    except DegenerateQ:  # a surprise interferer along the SoI has nothing left to add
        reject()
    omega, oracle = build_omega(pair), oracles.build_omega(pair)
    tol = _OMEGA_RTOL * max(np.linalg.cond(pair.operating.sigma), np.linalg.cond(pair.training.sigma))
    assert np.max(np.abs(omega.lam - oracle.lam)) <= tol * oracle.lam.max(), config
    assert abs(omega.delta.sum() - oracle.delta.sum()) <= tol * (1.0 + oracle.delta.sum()), config
    np.testing.assert_allclose(omega.omega22, oracle.omega22, rtol=tol, atol=0)
    np.testing.assert_allclose(omega.omega_2_1, oracle.omega_2_1, rtol=tol, atol=0)

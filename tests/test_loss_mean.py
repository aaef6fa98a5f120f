"""The mean of the loss law: a pinned 40-digit mpmath table and a slice of
it recomputed, the reflection and monotonicity identities, the cost at large
dofs and the CLI means at large a_eff.

``data/loss_mean_mpmath.json`` is written by ``data/make_loss_mean_table.py``
(which needs mpmath).
"""

import contextlib
import importlib.util
import io
import json
import math
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snrloss.approximation import LossDistribution, loss_mean
from snrloss.cli import main

DATA = Path(__file__).parent / "data"
TABLE = json.loads((DATA / "loss_mean_mpmath.json").read_text())


def _law(a_eff, nu, mu):
    return LossDistribution(a_eff=a_eff, num_dof=nu, den_dof=mu, kind="fitted_general")


def _reference(a_eff, nu, mu):
    """The table's mean at these parameters (matched to rel 1e-12)."""
    for point in TABLE["points"]:
        if all(math.isclose(got, point[key], rel_tol=1e-12)
               for got, key in ((a_eff, "a_eff"), (nu, "nu"), (mu, "mu"))):
            return float(point["mean"])
    raise KeyError(f"no table point at (a_eff, nu, mu) = ({a_eff!r}, {nu!r}, {mu!r})")


def test_matches_mpmath_table():
    errors = []
    for point in TABLE["points"]:
        want = float(point["mean"])
        got = loss_mean(_law(point["a_eff"], point["nu"], point["mu"]))
        errors.append((abs(got - want) / want, point["a_eff"], point["nu"], point["mu"], point["why"]))
    assert len(errors) >= 100
    worst = max(errors)
    assert worst[0] <= 2e-15, worst


def test_table_matches_its_generator():
    """The first point of each ``why`` group, and every point of the groups
    where the former series cancelled or was slow, recomputed by the script
    that wrote the table, to the digits it stores."""
    spec = importlib.util.spec_from_file_location("make_loss_mean_table", DATA / "make_loss_mean_table.py")
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    assert TABLE["digits"] == generator.DIGITS
    every_point = ("small mean, a < 1/4", "large dofs")
    seen, checked = set(), 0
    for point in TABLE["points"]:
        if point["why"] in seen and point["why"] not in every_point:
            continue
        seen.add(point["why"])
        value = generator.exact_mean(point["a_eff"], point["nu"], point["mu"])
        assert generator.mp.nstr(value, TABLE["digits"]) == point["mean"], point
        checked += 1
    assert checked == 30


@pytest.mark.parametrize("a_eff, nu, mu", [
    (0.49, 1000.0, 9.0), (0.284, 893.8, 0.51), (0.26, 1000.0, 9.0),
    (0.0105, 630.5, 0.714), (0.149, 821.9, 1.64), (0.11308125420431793, 895.7122917069988, 5.707754236569094),
])
def test_small_mean_band_has_no_cancellation(a_eff, nu, mu):
    """Every term of the rule is positive, so a small mean keeps its relative
    accuracy; the former reflection 1 - E(1/a, mu, nu) lost 1.8e-15 to
    1.4e-14 at the first three points and 6.5e-14, 1.0e-14 and 1.3e-14 at
    the last three."""
    want = _reference(a_eff, nu, mu)
    assert abs(loss_mean(_law(a_eff, nu, mu)) - want) <= 2e-15 * want


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.floats(-6.0, 12.0), st.floats(0.5, 1000.0), st.floats(0.5, 1000.0), st.floats(1e-3, 1.0),
       st.floats(-20.0, 20.0))
def test_reflection_and_monotonicity(log10_a, nu, mu, step, log2_b):
    a = 10.0**log10_a
    mean = loss_mean(_law(a, nu, mu))
    assert 0.0 < mean < 1.0
    assert loss_mean(_law(a * (1.0 + step), nu, mu)) < mean
    b = 2.0**log2_b
    assert abs(loss_mean(_law(b, nu, mu)) + loss_mean(_law(1.0 / b, mu, nu)) - 1.0) <= 1e-14


def _analyze(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out.json"
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(["analyze", "--config", str(path), "--out", str(out)])
    return code, (json.loads(out.read_text()) if code == 0 else None), stderr.getvalue()


@pytest.mark.parametrize("name", sorted(TABLE["cli_configs"]))
def test_cli_mean_at_large_a_eff(tmp_path, name):
    """At 16x32: mpdr at 60 dB SoI (a_eff 1e7) and surprise at 130 dB
    (a_eff 7.8e12); at 2x200000: mpdr at 60 dB SoI (a_eff 1e6, nu 2 and
    mu 4e5, which takes millions of terms)."""
    code, report, stderr = _analyze(tmp_path, TABLE["cli_configs"][name])
    assert code == 0, stderr
    laws = [law for law in (*report["fits"].values(), report.get("exact", {})) if "mean_loss" in law]
    assert len(laws) >= 2
    for law in laws:
        assert law["a_eff"] > 1e6
        want = _reference(law["a_eff"], law["nu"], law["mu"])
        assert math.isclose(law["mean_loss"], want, rel_tol=1e-12), (law, want)


@pytest.mark.parametrize("a_eff", [4e6, 4e7])
def test_large_dofs_are_cheap(a_eff):
    """At (a, 2, a) the former series took 0.56 s and 6.2 s a call."""
    law = _law(a_eff, 2.0, a_eff)
    want = _reference(a_eff, 2.0, a_eff)
    start = time.perf_counter()
    means = [loss_mean(law) for _ in range(10)]
    assert time.perf_counter() - start < 1.0
    assert all(abs(mean - want) <= 2e-15 * want for mean in means)

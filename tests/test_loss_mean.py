"""The mean of the loss law: a pinned 40-digit mpmath table, the reflection
and monotonicity identities, the series' term limit and the CLI means at
large a_eff.

``data/loss_mean_mpmath.json`` is written by ``data/make_loss_mean_table.py``
(which needs mpmath); these tests only read it.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snrloss import approximation
from snrloss.approximation import LossDistribution, loss_mean
from snrloss.cli import main
from snrloss.errors import NoConvergence

TABLE = json.loads((Path(__file__).parent / "data" / "loss_mean_mpmath.json").read_text())


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
    assert worst[0] <= 1e-13, worst


@pytest.mark.parametrize("a_eff, nu, mu", [(0.49, 1000.0, 9.0), (0.284, 893.8, 0.51), (0.26, 1000.0, 9.0)])
def test_small_mean_band_has_no_cancellation(a_eff, nu, mu):
    """For 1/4 <= a_eff < 1/2 the mean is a sum of positive terms, so a small
    mean keeps its relative accuracy; the reflection 1 - E(1/a, mu, nu)
    loses 1.8e-15 to 1.4e-14 at these points."""
    want = _reference(a_eff, nu, mu)
    assert abs(loss_mean(_law(a_eff, nu, mu)) - want) <= 2e-15 * want


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.floats(-6.0, 12.0), st.floats(0.5, 1000.0), st.floats(0.5, 1000.0), st.floats(1e-3, 1.0),
       st.floats(-2.0, 2.0))
def test_reflection_and_monotonicity(log10_a, nu, mu, step, log2_b):
    a = 10.0**log10_a
    mean = loss_mean(_law(a, nu, mu))
    assert 0.0 < mean < 1.0
    assert loss_mean(_law(a * (1.0 + step), nu, mu)) < mean
    # below a = 1/4 the mean is defined by the reflection, so it is checked
    # where both sides are summed: 1/4 <= b < 1 by the series in 1 - b,
    # 1 < 1/b <= 4 by the direct or the split series
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


@pytest.mark.parametrize("a_eff, nu, mu", [(300.0, 3.3, 6.5), (1e9, 2.0, 36.0), (1000001.0, 2.0, 400000.0)])
def test_term_limit_raises_no_convergence(monkeypatch, a_eff, nu, mu):
    """The direct series, and the split form's series on [0, t0] at a small
    and at a large number of degrees of freedom."""
    law = _law(a_eff, nu, mu)
    assert loss_mean(law) == pytest.approx(_reference(a_eff, nu, mu), rel=1e-13)
    monkeypatch.setattr(approximation, "_term_limit", lambda log_x: 64.0)
    with pytest.raises(NoConvergence):
        loss_mean(law)


def test_non_finite_series_raises_no_convergence():
    with pytest.raises(NoConvergence):
        approximation._hypergeometric_series(math.log(0.5), math.nan, 1.0)


def test_cli_exits_3_past_term_limit(monkeypatch, tmp_path):
    monkeypatch.setattr(approximation, "_term_limit", lambda log_x: 0.0)
    code, _, stderr = _analyze(tmp_path, TABLE["cli_configs"]["mpdr_60db"])
    assert code == 3
    assert stderr.startswith("error: [no_convergence] ")

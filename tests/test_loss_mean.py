"""The mean of the loss law: a pinned 40-digit mpmath table and a slice of
it recomputed, the reflection and monotonicity identities, the cost at large
dofs, the CLI means at large a_eff, the power-law tail at small dofs and the
shifted fit's mean against an mpmath integral of its density.

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

from oracles import shifted_mean_mp
from snrloss.approximation import LossDistribution, loss_mean
from snrloss.cli import analyze_report, main
from test_cli_golden import _ARRAY, _ARRAYS, _CONFIGS

DATA = Path(__file__).parent / "data"
TABLE = json.loads((DATA / "loss_mean_mpmath.json").read_text())
BENCH_GER = Path(__file__).parents[1] / "bench" / "configs" / "ger_blockdiag_16x32.json"


def _generator():
    spec = importlib.util.spec_from_file_location("make_loss_mean_table", DATA / "make_loss_mean_table.py")
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    return generator


def _law(a_eff, nu, mu):
    return LossDistribution(a_eff, nu, mu)


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
    generator = _generator()
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


def test_generator_lists_the_table_points():
    """The script's points, the CLI laws it reads included, are the
    table's, in its order; no mpmath value is computed."""
    generator = _generator()
    stored = [((point["a_eff"], point["nu"], point["mu"]), point["why"]) for point in TABLE["points"]]
    assert generator.table_points() == stored
    assert TABLE["cli_configs"] == generator.CLI_CONFIGS


@pytest.mark.parametrize("nu, mu", [(0.1, 0.1), (0.05, 0.05), (1e-3, 1e-3), (0.05, 0.15)])
def test_small_dofs_take_the_power_law_tail(nu, mu):
    """Below nu + mu of about 0.2 the right end's doubling used to pass
    y = 709 and overflow; past max(1, 1/a) e^40 the tail is summed in
    closed form.  At a = 1 the loss is Beta(mu/2, nu/2)."""
    assert abs(loss_mean(_law(1.0, nu, mu)) - mu / (nu + mu)) <= 2e-15 * (mu / (nu + mu))


def test_small_dofs_match_mpmath():
    want = float(_generator().exact_mean(3.0, 0.15, 0.05))
    assert abs(loss_mean(_law(3.0, 0.15, 0.05)) - want) <= 2e-15 * want


_GER_GOLDEN = ("none", "mpdr", "surprise", "ger_blockdiag", "mpdr_strong", "surprise_strong", "ger_blockdiag_strong")


@pytest.mark.parametrize("config, seed", [
    *(({"array": _ARRAYS.get(name, _ARRAY), "mismatch": _CONFIGS[name]}, 7) for name in _GER_GOLDEN),
    *((json.loads(BENCH_GER.read_text()), seed) for seed in (1, 2, 3)),
    *((TABLE["cli_configs"][name], 0) for name in ("mpdr_60db", "surprise_130db")),
], ids=[*_GER_GOLDEN, *(f"bench-ger_blockdiag_16x32-{seed}" for seed in (1, 2, 3)), "mpdr_60db", "surprise_130db"])
def test_shifted_fit_mean_matches_mpmath_integral_of_its_density(config, seed):
    """``analyze``'s shifted-fit mean, rebuilt from the numbers it reports,
    against 50-digit quadrature of x f(x) under the count-sum density:
    a route independent of the Laplace identity ``loss_mean`` sums.  The
    golden GER configs at the golden seed, the benchmark's GER config, and
    two of the table's 16x32 configs at a_eff 1e7 and 7.8e12."""
    report = analyze_report(config, seed)
    fit = report["fits"]["pearson"]
    p = 2.0 * (report["n_training"] - report["n_elements"] + 2)
    law = LossDistribution(fit["a1"], fit["nu_prime"], p, report["omega"]["omega_2_1"], fit["a2"])
    assert loss_mean(law) == fit["mean_loss"]
    want, error = shifted_mean_mp(law)
    assert error < 1e-40 * want
    assert abs(fit["mean_loss"] - want) <= 2e-15 * want


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
    mu 4e5, which takes millions of terms).  The table holds the laws
    without a shift; the shifted fit's mean has the test above."""
    code, report, stderr = _analyze(tmp_path, TABLE["cli_configs"][name])
    assert code == 0, stderr
    laws = [law for law in (*report["fits"].values(), report.get("exact", {})) if "a_eff" in law]
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

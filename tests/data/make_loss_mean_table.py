"""Write ``loss_mean_mpmath.json``: reference means of the loss law at 40 digits.

The loss [1 + a chi2(nu)/chi2(mu)]^-1 has mean
alpha/((alpha+beta) a) 2F1(1, alpha+1; alpha+beta+1; 1 - 1/a) with
alpha = mu/2 and beta = nu/2.  This script evaluates it with mpmath at 40
digits, checks each value against the reflection
E(a, nu, mu) = 1 - E(1/a, mu, nu), and writes the table that
``tests/test_loss_mean.py`` compares ``approximation.loss_mean`` with.

mpmath is not a dependency of the package, and the tests only read the
table.  Regenerate with

    PYTHONPATH=src python tests/data/make_loss_mean_table.py [OUT]

where OUT defaults to the table beside this script.  The points are:
the edges where the former quadrature mean failed and where scipy's
``hyp2f1`` failed, the laws ``analyze`` reports for three large-a_eff
configs (two at 16x32, one at 2 elements and 200000 snapshots, where the
former series needed millions of terms), both sides of the former series'
route switches, small means below a_eff = 1/2, where the former reflection
E(a, nu, mu) = 1 - E(1/a, mu, nu) below a_eff = 1/4 cancelled, large dofs
where the former series took seconds a call, extreme corners, and the first
rows of a 16x32 ``inverse_wishart`` sweep.  Those rows are stored here as
the sweep drew them when the table was written, since its draws have
changed since.  The shifted fit's law has no hypergeometric mean; the tests
check its mean against an mpmath integral of its density instead, so the
table leaves it out.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import mpmath as mp

from snrloss.cli import main

DIGITS = 40
TABLE = Path(__file__).with_name("loss_mean_mpmath.json")

# configs whose laws the CLI regression tests look up in the table (which
# carries them, so the tests need not import this script)
CLI_CONFIGS = {
    "mpdr_60db": {"array": {"n_elements": 16, "n_training": 32},
                  "mismatch": {"kind": "mpdr", "soi_power_db": 60, "gamma_db": -10}},
    "surprise_130db": {"array": {"n_elements": 16, "n_training": 32},
                       "mismatch": {"kind": "surprise", "angle_deg": 14, "power_db": 130}},
    "mpdr_60db_2x200000": {"array": {"n_elements": 2, "n_training": 200000},
                           "mismatch": {"kind": "mpdr", "soi_power_db": 60}},
}
# (a_eff, nu, mu) of rows 0-4 of ``sweep --seed 901`` on the 16x32
# inverse_wishart config with gamma_range_db [-6, 6]
SWEEP_ROWS = [
    (0.9992579998592591, 54.42538690074068, 38.73042049597161),
    (1.511369117920677, 39.735900694298586, 44.101953709964896),
    (1.1098337950024306, 59.333922782630474, 48.45997573661575),
    (1.4834134328612383, 38.44321496674462, 40.58378882946564),
    (1.2574632649549604, 36.163263826893186, 36.39835567098868),
]


def exact_mean(a, nu, mu):
    """The mean at DIGITS + 20 working digits, whatever mpmath's precision."""
    with mp.workdps(DIGITS + 20):
        a, alpha, beta = mp.mpf(a), mp.mpf(mu) / 2, mp.mpf(nu) / 2
        return alpha / ((alpha + beta) * a) * mp.hyp2f1(1, alpha + 1, alpha + beta + 1, 1 - 1 / a)


def _cli_json(argv, config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv + ["--config", str(path), "--format", "json"])
    if code != 0:
        raise SystemExit(f"{argv} exited {code}")
    return json.loads(out.getvalue())


def cli_points():
    for name, config in CLI_CONFIGS.items():
        report = _cli_json(["analyze", "--seed", "0"], config)
        laws = {f"fits.{key}": law for key, law in report["fits"].items()}
        if "exact" in report:
            laws["exact"] = report["exact"]
        for key, law in laws.items():
            if "a_eff" in law:  # not the shifted fit, which reports a1, nu_prime and a2
                yield (law["a_eff"], law["nu"], law["mu"]), f"cli {name} {key}"
    for row, point in enumerate(SWEEP_ROWS):
        yield point, f"sweep inverse_wishart 16x32 seed 901 row {row}"


def grid_points():
    # former quadrature failures and the regions around them
    yield (1e-3, 0.5, 200.0), "quadrature edge"
    yield (1000.0, 120.0, 6.5), "quadrature edge"
    for a in (0.32, 0.1, 0.01):
        for mu in (6.5, 36.0, 200.0):
            yield (a, 0.5, mu), "quadrature edge region, nu = 0.5"
    for a in (3e-3, 1e-4):
        for nu in (3.3, 30.0, 120.0):
            yield (a, nu, 200.0), "quadrature edge region, mu = 200"
    # scipy hyp2f1 failures and the corners of the grid where it failed
    yield (31.6, 120.0, 200.0), "hyp2f1 NaN"
    yield (300.0, 3.3, 6.5), "slowest direct series"
    for a in (0.05, 300.0):
        for nu in (3.3, 666.0):
            for mu in (6.5, 272.0):
                yield (a, nu, mu), "hyp2f1 grid corner"
    # extreme corners, and integer or nearly integer beta (s = 0 in the former binomial part)
    for a in (1e-8, 1e13):
        for nu in (0.5, 1000.0):
            for mu in (6.5, 272.0):
                yield (a, nu, mu), "extreme corner"
    for a in (10.0, 1e4, 1e9):
        for nu in (2.0, 4.0, 2.0 + 1e-11):
            yield (a, nu, 36.0), "integer half dof"
    # both sides of the former switch to the split series at a u0 = 1, u0 = min(1/2, 2/(nu+mu)),
    # and of its mirror image below a = 1/2
    for nu, mu in ((0.5, 6.5), (3.3, 36.0), (30.0, 36.0), (1.0, 272.0), (1000.0, 9.0)):
        u0 = min(0.5, 2.0 / (nu + mu))
        for k in (0.9, 0.999, 1.001, 1.1, 4.0):
            yield (k / u0, nu, mu), "split switch"
            yield (u0 / k, mu, nu), "split switch, reflected"
    # both sides of a = 1/2 (the former reflection switch) and a = 1 (the former direct series)
    for nu, mu in ((30.0, 36.0), (0.5, 200.0)):
        for a in (0.499, 0.5, 0.501, 0.999, 1.0, 1.001, 1.999, 2.0):
            yield (a, nu, mu), "reflection and direct switch"
    # both sides of a = 1/4 (the former reflection), and small means in 1/4 <= a < 1/2,
    # where the reflection 1 - E(1/a, mu, nu) cancelled to 1.4e-14
    for nu, mu in ((30.0, 36.0), (0.5, 200.0)):
        for a in (0.249, 0.25, 0.251):
            yield (a, nu, mu), "reflection switch"
    for a, nu, mu in ((0.49, 1000.0, 9.0), (0.284, 893.8, 0.51), (0.26, 1000.0, 9.0)):
        yield (a, nu, mu), "small mean, 1/4 <= a < 1/2"
    # small means below a = 1/4, where the former reflection cancelled to 1.0e-14 to 6.5e-14
    for a, nu, mu in ((0.0105, 630.5, 0.714), (0.149, 821.9, 1.64),
                      (0.11308125420431793, 895.7122917069988, 5.707754236569094)):
        yield (a, nu, mu), "small mean, a < 1/4"
    # large dofs, where the former series took 0.56 s and 6.2 s a call
    for a in (4e6, 4e7):
        yield (a, 2.0, a), "large dofs"


def table_points():
    """The table's ((a_eff, nu, mu), why) in order, each point once."""
    points, seen = [], set()
    for (a, nu, mu), why in list(grid_points()) + list(cli_points()):
        key = (float(a), float(nu), float(mu))
        if key not in seen:
            seen.add(key)
            points.append((key, why))
    return points


def main_table(out):
    mp.mp.dps = DIGITS + 20
    points = []
    for key, why in table_points():
        value = exact_mean(*key)
        mirror = 1 - exact_mean(1 / mp.mpf(key[0]), key[2], key[1])
        if abs(value - mirror) > mp.mpf(10) ** -DIGITS * abs(value):
            raise SystemExit(f"reflection check failed at {key}: {value} vs {mirror}")
        points.append({"a_eff": key[0], "nu": key[1], "mu": key[2],
                       "mean": mp.nstr(value, DIGITS), "why": why})
    table = {"digits": DIGITS, "cli_configs": CLI_CONFIGS, "points": points}
    out.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {len(points)} points to {out}", file=sys.stderr)


if __name__ == "__main__":
    main_table(Path(sys.argv[1]) if len(sys.argv) > 1 else TABLE)

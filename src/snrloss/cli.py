"""Command-line front end.

Subcommands
-----------
analyze   build the scenario, decompose it and report every applicable fit
pdf       emit density curves on a grid as CSV (approx / exact / empirical)
simulate  draw loss samples and export them as a single-column CSV
validate  run both samplers and KS-test them against every reference
sweep     repeat random mismatch draws, reporting fit parameters + mean loss

Scenario configs are JSON documents with an ``array`` block and a
``mismatch`` block; unknown keys are rejected.  Every command is a pure
function of (config, seed): byte-identical inputs give byte-identical
outputs.

Exit codes: 0 success, 2 validation failure, 3 degenerate or unfittable,
4 config or usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .approximation import LossDistribution, analyze, loss_mean, scaled_f_laws
from .errors import ConfigError, DegenerateCumulants, InsufficientSamples, InvalidFit, NotPositiveDefinite, SnrLossError
from .mismatch import build_omega, to_quadratic_form
from .montecarlo import (
    empirical_summary,
    ks_statistic,
    pair_digest,
    simulate_loss_direct,
    simulate_loss_representation,
    two_sample_ks,
)
from .sampling import RngStream, each_stream
from .scenarios import (
    DEFAULT_INTERFERENCE_ANGLES_DEG,
    DEFAULT_INTERFERENCE_POWERS_DB,
    ArrayScenario,
    Covariance,
    eigenvalue_mismatch,
    interference_covariance,
    inverse_wishart_mismatch,
    mpdr_mismatch,
    no_mismatch,
    random_ger_blockdiag_mismatch,
    sample_uniform_db,
    steering_vector,
    surprise_interference,
)

# realizations ``sweep`` builds and decomposes as one stack
SWEEP_BLOCK = 16

MISMATCH_KINDS = ("none", "mpdr", "surprise", "ger_blockdiag", "eigenvalue", "inverse_wishart")

_ARRAY_KEYS = {
    "n_elements",
    "soi_angle_deg",
    "interference_angles_deg",
    "interference_powers_db",
    "n_training",
}
_MISMATCH_KEYS = {
    "none": set(),
    "mpdr": {"gamma_db", "soi_power_db"},
    "surprise": {"angle_deg", "power_db", "enforce_ger"},
    "ger_blockdiag": {"gamma_db", "gamma_range_db", "w11_dof"},
    "eigenvalue": {"alpha_db", "alpha_range_db"},
    "inverse_wishart": {"gamma_db", "gamma_range_db", "dof"},
}
_REQUIRED_MISMATCH_KEYS = {"mpdr": ("soi_power_db",), "surprise": ("angle_deg", "power_db")}


def _fail_config(message):
    raise ConfigError(message)


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except OSError as exc:
        _fail_config(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        _fail_config(f"config is not valid JSON: {exc}")
    validate_config(config)
    return config


def _check_number(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        _fail_config(f"{where} must be a finite number, got {value!r}")


def _check_integer(value, minimum, where):
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        _fail_config(f"{where} must be an integer >= {minimum}, got {value!r}")


def _check_numbers(values, where) -> int:
    """Check a list of finite numbers and return its length."""
    if not isinstance(values, (list, tuple)):
        _fail_config(f"{where} must be a list of numbers, got {values!r}")
    for value in values:
        _check_number(value, where)
    return len(values)


def _check_db(values, where):
    """Check that dB numbers have a finite nonzero linear value 10^(dB/10): just
    outside (-3233, 3082.5) it overflows or rounds to 0."""
    for value in np.ravel(values).tolist():
        if not -3233.0 < value < 3082.5:
            _fail_config(f"{where} value {value!r} dB lies outside (-3233, 3082.5)")


def validate_config(config) -> None:
    """Reject unknown keys and values of the wrong type, length or range."""
    if not isinstance(config, dict):
        _fail_config("config must be a JSON object")
    unknown = set(config) - {"array", "mismatch"}
    if unknown:
        _fail_config(f"unknown top-level keys: {sorted(unknown)}")
    array = config.get("array")
    if not isinstance(array, dict):
        _fail_config("missing 'array' block")
    unknown = set(array) - _ARRAY_KEYS
    if unknown:
        _fail_config(f"unknown array keys: {sorted(unknown)}")
    n = array.get("n_elements")
    _check_integer(n, 2, "array.n_elements")
    _check_integer(array.get("n_training"), n, "array.n_training")
    if "soi_angle_deg" in array:
        _check_number(array["soi_angle_deg"], "array.soi_angle_deg")
    n_angles = _check_numbers(array.get("interference_angles_deg", DEFAULT_INTERFERENCE_ANGLES_DEG),
                            "array.interference_angles_deg")
    powers = array.get("interference_powers_db", DEFAULT_INTERFERENCE_POWERS_DB)
    n_powers = _check_numbers(powers, "array.interference_powers_db")
    _check_db(powers, "array.interference_powers_db")
    if n_angles != n_powers:
        _fail_config("interference angle and power lists must have equal length")

    mismatch = config.get("mismatch", {"kind": "none"})
    if not isinstance(mismatch, dict) or "kind" not in mismatch:
        _fail_config("mismatch block needs a 'kind'")
    kind = mismatch["kind"]
    if kind not in MISMATCH_KINDS:
        _fail_config(f"unknown mismatch kind {kind!r}; expected one of {MISMATCH_KINDS}")
    unknown = set(mismatch) - _MISMATCH_KEYS[kind] - {"kind"}
    if unknown:
        _fail_config(f"unknown keys for mismatch kind {kind!r}: {sorted(unknown)}")
    for required in _REQUIRED_MISMATCH_KEYS.get(kind, ()):
        if required not in mismatch:
            _fail_config(f"{kind} mismatch needs '{required}'")
    for key, value in mismatch.items():
        where = f"mismatch.{key}"
        if key in ("gamma_range_db", "alpha_range_db"):
            if _check_numbers(value, where) != 2 or value[0] > value[1]:
                _fail_config(f"{where} must be [low, high] with low <= high, got {value!r}")
        elif key == "alpha_db":
            if _check_numbers(value, where) != n:
                _fail_config(f"{where} needs one value per element ({n}), got {len(value)}")
        elif key in ("w11_dof", "dof"):
            _check_integer(value, n, where)
        elif key == "enforce_ger":
            if not isinstance(value, bool):
                _fail_config(f"{where} must be true or false, got {value!r}")
        elif key != "kind":
            _check_number(value, where)
        if key.endswith("_db"):
            _check_db(value, where)
    for fixed, span in (("gamma_db", "gamma_range_db"), ("alpha_db", "alpha_range_db")):
        if fixed in mismatch and span in mismatch:
            _fail_config(f"mismatch gives both '{fixed}' and '{span}'; give one of them")


def config_digest(config) -> str:
    import hashlib

    canonical = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(canonical).hexdigest()[:16]


def _db_to_linear(db):
    return 10.0 ** (db / 10.0)


def build_base(config):
    """Array scenario and its factored operating covariance, from a validated
    config; every pair a command draws shares this one factor."""
    scenario = ArrayScenario(**config["array"])  # the array keys are its fields
    v = steering_vector(scenario.soi_angle_deg, scenario.n_elements)
    return scenario, Covariance(interference_covariance(scenario), v)


# near the accepted dB bounds the arithmetic overflows; the non-finite result
# fails the finiteness check of cholesky, the checks of sample_wishart_factor
# or the checks of build_omega
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def build_pair(config, base: Covariance, rng):
    """Scenario pair on ``base``; random families draw from rng.  Given a
    sequence of streams, a random family builds their block: one pair whose
    training side stacks one covariance per stream."""
    mismatch = config.get("mismatch", {"kind": "none"})
    kind = mismatch["kind"]
    if kind == "none":
        return no_mismatch(base)
    if kind == "mpdr":
        gamma = _db_to_linear(float(mismatch.get("gamma_db", 0.0)))
        soi_power = _db_to_linear(float(mismatch["soi_power_db"])) / base.v_sigma_v
        return mpdr_mismatch(base, soi_power=soi_power, gamma=gamma)
    if kind == "surprise":
        amplitude = 10.0 ** (float(mismatch["power_db"]) / 20.0)
        q_raw = amplitude * steering_vector(float(mismatch["angle_deg"]), base.v.size)
        return surprise_interference(base, q_raw, enforce_ger=bool(mismatch.get("enforce_ger", True)))
    if kind in ("ger_blockdiag", "inverse_wishart"):
        if "gamma_db" in mismatch:
            gamma = _db_to_linear(float(mismatch["gamma_db"]))
        else:
            gamma = sample_uniform_db(rng, *mismatch.get("gamma_range_db", ()))
        if kind == "ger_blockdiag":
            return random_ger_blockdiag_mismatch(base, gamma, rng, w11_dof=mismatch.get("w11_dof"))
        return inverse_wishart_mismatch(base, gamma, rng, dof=mismatch.get("dof"))
    if kind != "eigenvalue":  # pragma: no cover - guarded by validate_config
        _fail_config(f"unhandled mismatch kind {kind!r}")
    if "alpha_db" in mismatch:
        fixed = _db_to_linear(np.asarray(mismatch["alpha_db"], dtype=float))
        alpha = each_stream(rng, lambda generator: fixed)  # one copy a stream, for a block
    else:
        alpha = sample_uniform_db(rng, *mismatch.get("alpha_range_db", ()), size=base.v.size)
    return eigenvalue_mismatch(base, alpha=alpha)


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def _write_text(out, text):
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            _fail_config(f"cannot write output: {exc}")


def _csv_float(x):
    return format(float(x), ".17e")


def _flatten(report, prefix=""):
    """Flatten a nested report into sorted dotted-key rows for CSV output."""
    rows = []
    if isinstance(report, dict):
        for key in sorted(report):
            rows.extend(_flatten(report[key], f"{prefix}{key}."))
    elif isinstance(report, (list, tuple)):
        for index, item in enumerate(report):
            rows.extend(_flatten(item, f"{prefix}{index}."))
    else:
        rows.append((prefix[:-1], report))
    return rows


def _write_report(out, report, fmt):
    report = _jsonable(report)
    if fmt == "json":
        _write_text(out, json.dumps(report, sort_keys=True, indent=2) + "\n")
    else:
        lines = ["key,value"]
        for key, value in _flatten(report):
            value = _csv_float(value) if isinstance(value, float) else value
            lines.append(f"{key},{value}")
        _write_text(out, "\n".join(lines) + "\n")


def _law(dist: LossDistribution) -> dict:
    """Report entry of a loss law: its parameters and mean."""
    return {"a_eff": dist.a_eff, "nu": dist.num_dof, "mu": dist.den_dof, "mean_loss": loss_mean(dist)}


def analyze_report(config, seed) -> dict:
    """Report of the scenario's Omega blocks, cumulants, fits and exact law."""
    scenario, base = build_base(config)
    pair = build_pair(config, base, RngStream(seed, 0))
    result = analyze(pair, scenario.n_training)
    omega, kappa, fits, refs = result.omega, result.kappa, result.fits, result.refs
    report = {
        "package_version": __version__,
        "seed": seed,
        "config_digest": config_digest(config),
        "scenario_digest": pair_digest(pair),
        "n_elements": scenario.n_elements,
        "n_training": scenario.n_training,
        "mismatch_kind": pair.kind,
        "is_ger": result.spec.is_ger,
        "omega": {
            "omega_2_1": omega.omega_2_1,
            "omega_22": omega.omega22,
            "lam": omega.lam,
            "delta": omega.delta,
        },
        "cumulants": {"k1": kappa.k1, "k2": kappa.k2, "k3": kappa.k3},
        "fits": {"scaled_f": {"a": fits["scaled_f"].a, **_law(refs["scaled_f"])}},
    }
    if "pearson" in fits:
        pearson = fits["pearson"]
        report["fits"]["scaled_chi2"] = {"a": fits["scaled_chi2"].a, **_law(refs["scaled_chi2"])}
        report["fits"]["pearson"] = {"a1": pearson.a1, "nu_prime": pearson.dof, "a2": pearson.a2}
    if "exact" in refs:
        report["exact"] = {"kind": refs["exact"].kind, **_law(refs["exact"])}
    return report


def cmd_analyze(args) -> int:
    config = load_config(args.config)
    report = analyze_report(config, args.seed)
    _write_report(args.out, report, args.format)
    return 0


def cmd_pdf(args) -> int:
    _check_integer(args.grid, 1, "--grid")
    _check_integer(args.bins, 1, "--bins")
    _check_integer(args.trials, 0, "--trials")
    explicit = (("--a-eff", args.a_eff), ("--nu", args.nu), ("--mu", args.mu))
    if args.config is not None:
        if any(value is not None for _, value in explicit):
            _fail_config("--a-eff/--nu/--mu cannot be combined with --config")
        config = load_config(args.config)
        scenario, base = build_base(config)
        pair = build_pair(config, base, RngStream(args.seed, 0))
        refs = analyze(pair, scenario.n_training).refs
    else:
        if any(value is None for _, value in explicit):
            _fail_config("either --config or all of --a-eff/--nu/--mu are required")
        if args.trials:
            _fail_config("--trials needs --config: explicit parameters give no scenario to simulate")
        for flag, value in explicit:
            if not (math.isfinite(value) and value > 0):
                _fail_config(f"{flag} must be finite and > 0, got {value!r}")
        refs = {"scaled_f": LossDistribution(a_eff=args.a_eff, num_dof=args.nu, den_dof=args.mu,
                                             kind="fitted_general")}

    grid = np.linspace(0.0, 1.0, args.grid + 2)[1:-1]
    columns = {"ell": grid, "pdf_approx": refs["scaled_f"].pdf(grid)}
    if "exact" in refs:
        columns["pdf_exact"] = refs["exact"].pdf(grid)
    if "pearson" in refs:
        columns["pdf_pearson"] = refs["pearson"].pdf(grid)
    if args.trials:
        samples = simulate_loss_direct(pair, scenario.n_training, args.trials, RngStream(args.seed, 1))
        counts, edges = np.histogram(samples, bins=args.bins, range=(0.0, 1.0), density=True)
        indices = np.clip(np.digitize(grid, edges) - 1, 0, args.bins - 1)
        columns["pdf_empirical"] = counts[indices]

    if args.format == "json":
        _write_report(args.out, columns, "json")
        return 0
    header = ",".join(columns)
    rows = [",".join(_csv_float(col[i]) for col in columns.values()) for i in range(grid.size)]
    _write_text(args.out, header + "\n" + "\n".join(rows) + "\n")
    return 0


def cmd_simulate(args) -> int:
    _check_integer(args.trials, 0, "--trials")
    config = load_config(args.config)
    scenario, base = build_base(config)
    pair = build_pair(config, base, RngStream(args.seed, 0))
    sampler_rng = RngStream(args.seed, 1)
    if args.sampler == "direct":
        sampler, samples = "direct_scm", simulate_loss_direct(pair, scenario.n_training, args.trials, sampler_rng)
    else:
        spec = to_quadratic_form(build_omega(pair)[0], scenario.n_training)
        sampler, samples = "representation", simulate_loss_representation(spec, args.trials, sampler_rng)
    provenance = {"sampler": sampler, "seed": args.seed, "trials": args.trials, "scenario_digest": pair_digest(pair)}
    if args.format == "json":
        _write_report(args.out, {**provenance, "values": samples}, "json")
        return 0
    lines = [f"# {key}={value}" for key, value in provenance.items()] + ["ell"]
    lines.extend(_csv_float(x) for x in samples)
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_validate(args) -> int:
    if args.trials < 10_000:
        _fail_config("validate needs at least 10^4 trials")
    if not 0.0 < args.ks_threshold <= 1.0:
        _fail_config(f"--ks-threshold must lie in (0, 1], got {args.ks_threshold!r}")
    config = load_config(args.config)
    scenario, base = build_base(config)
    pair = build_pair(config, base, RngStream(args.seed, 0))
    result = analyze(pair, scenario.n_training)
    direct = simulate_loss_direct(pair, scenario.n_training, args.trials, RngStream(args.seed, 1))
    represented = simulate_loss_representation(result.spec, args.trials, RngStream(args.seed, 2))

    comparisons = []
    all_pass = True
    for sampler_name, samples in (("direct_scm", direct), ("representation", represented)):
        for ref_name, ref in sorted(result.refs.items()):
            distance = ks_statistic(samples, ref)
            ok = bool(distance < args.ks_threshold)
            all_pass &= ok
            comparisons.append({
                "sampler": sampler_name,
                "reference": ref_name,
                "ks": distance,
                "threshold": args.ks_threshold,
                "pass": ok,
            })
    statistic, pvalue = two_sample_ks(direct, represented)
    sampler_ok = bool(pvalue > 0.001)
    all_pass &= sampler_ok

    summary = empirical_summary(direct)
    main_ref = "exact" if "exact" in result.refs else "scaled_f"
    ks_vs_reference = next(c["ks"] for c in comparisons
                           if c["sampler"] == "direct_scm" and c["reference"] == main_ref)
    report = {
        "package_version": __version__,
        "seed": args.seed,
        "config_digest": config_digest(config),
        "scenario_digest": pair_digest(pair),
        "trials": args.trials,
        "comparisons": comparisons,
        "sampler_agreement": {
            "statistic": statistic,
            "pvalue": pvalue,
            "threshold": 0.001,
            "pass": sampler_ok,
        },
        "empirical": {**summary, "ks_vs_reference": ks_vs_reference},
        "pass": bool(all_pass),
    }
    _write_report(args.out, report, args.format)
    return 0 if all_pass else 2


def cmd_sweep(args) -> int:
    """Fit the scaled-F law of each random realization, in blocks of
    ``SWEEP_BLOCK``.  Realization i is drawn from RngStream(seed, i); each
    block is built, decomposed and fitted as one stack.  One rule handles
    failures: an error goes to the realizations its ``rows`` name, or to
    every realization of the block when it names none, and the block is
    redone without them, so each realization gets the law or the error it
    gets alone.  A realization that is degenerate, unfittable or not
    positive definite is skipped with a line on stderr; any other error
    ends the command."""
    _check_integer(args.realizations, 0, "--realizations")
    config = load_config(args.config)
    kind = config.get("mismatch", {}).get("kind")
    if kind not in ("ger_blockdiag", "eigenvalue", "inverse_wishart"):
        _fail_config("sweep needs a random mismatch family (ger_blockdiag, eigenvalue, inverse_wishart)")

    try:
        scenario, base = build_base(config)
        base_error = None
    except NotPositiveDefinite as exc:  # every realization would fail on sigma alone
        base_error = exc

    def realizations(indices):
        """(index, gamma, law or error) of each realization in ``indices``."""
        results, left = {}, list(indices)
        while left:
            try:
                if base_error is not None:
                    raise base_error
                pair = build_pair(config, base, [RngStream(args.seed, index) for index in left])
                laws = scaled_f_laws(build_omega(pair), scenario.n_training)
            except (SnrLossError, ValueError) as exc:
                rows = getattr(exc, "rows", None)
                results.update(dict.fromkeys(left if rows is None else [left[row] for row in rows], (None, exc)))
                left = [index for index in left if index not in results]
            else:
                results.update(zip(left, zip(pair.params.get("gamma", [None] * len(left)), laws)))
                left = []
        return [(index, *results[index]) for index in indices]

    rows = []
    skipped = 0
    for start in range(0, args.realizations, SWEEP_BLOCK):
        for index, gamma, dist in realizations(range(start, min(start + SWEEP_BLOCK, args.realizations))):
            if isinstance(dist, (DegenerateCumulants, InvalidFit, NotPositiveDefinite)):
                skipped += 1
                print(f"# realization {index} skipped: {dist.code}", file=sys.stderr)
                continue
            if isinstance(dist, Exception):
                raise dist
            gamma_db = 10.0 * np.log10(gamma) if gamma is not None else None
            rows.append({"realization": index, "gamma_db": gamma_db, **_law(dist)})

    if args.format == "json":
        _write_report(args.out, {"skipped_degenerate": skipped, "realizations": rows}, "json")
        return 0
    lines = [f"# skipped_degenerate={skipped}", "realization,gamma_db,a_eff,nu,mu,mean_loss"]
    for row in rows:
        fields = ["" if value is None else _csv_float(value) for value in list(row.values())[1:]]
        lines.append(",".join([str(row["realization"])] + fields))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigError (exit 4) instead of exiting 2,
    the validation-failure code."""

    def error(self, message):
        _fail_config(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="snrloss", description=__doc__,
                             formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config_required=True, default_format="json"):
        p.add_argument("--config", required=config_required, help="scenario config JSON")
        p.add_argument("--seed", type=int, default=0, help="base RNG seed")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default=default_format,
                       help=f"output format (default {default_format})")

    p = sub.add_parser("analyze", help="decompose the scenario and fit every applicable family")
    add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("pdf", help="emit density curves on a grid as CSV")
    add_common(p, config_required=False, default_format="csv")
    p.add_argument("--grid", type=int, default=512, help="number of grid points in (0,1)")
    p.add_argument("--bins", type=int, default=200, help="histogram bins for the empirical column")
    p.add_argument("--trials", type=int, default=0, help="add an empirical column from this many draws")
    p.add_argument("--a-eff", type=float, default=None, dest="a_eff")
    p.add_argument("--nu", type=float, default=None)
    p.add_argument("--mu", type=float, default=None)
    p.set_defaults(func=cmd_pdf)

    p = sub.add_parser("simulate", help="draw loss samples, export single-column CSV")
    add_common(p, default_format="csv")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--sampler", choices=("direct", "representation"), default="direct")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("validate", help="KS-test both samplers against every reference")
    add_common(p)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--ks-threshold", type=float, default=0.02, dest="ks_threshold")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("sweep", help="random mismatch realizations: fits and mean loss as CSV")
    add_common(p, default_format="csv")
    p.add_argument("--realizations", type=int, default=100)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if not 0 <= args.seed < 2**64:  # RngStream keys on the seed modulo 2^64
            _fail_config(f"--seed must lie in [0, 2^64), got {args.seed}")
        return args.func(args)
    except (ConfigError, MemoryError) as exc:  # a size too big for memory is a bad input
        print(f"config error: [{ConfigError.code}] {exc}", file=sys.stderr)
        return 4
    except (DegenerateCumulants, InvalidFit, InsufficientSamples) as exc:
        print(f"unfittable: [{exc.code}] {exc}", file=sys.stderr)
        return 3
    except SnrLossError as exc:
        print(f"error: [{exc.code}] {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

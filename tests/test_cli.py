import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from snrloss import approximation, cli
from snrloss.cli import main
from snrloss.errors import NotPositiveDefinite
from snrloss.sampling import RngStream


def write_config(tmp_path, mismatch, name="config.json", n_elements=16, n_training=32):
    config = {
        "array": {"n_elements": n_elements, "n_training": n_training},
        "mismatch": mismatch,
    }
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def run(args):
    return main(args)


class TestAnalyze:
    def test_no_mismatch_forced_parameters(self, tmp_path):
        config = write_config(tmp_path, {"kind": "none"})
        out = tmp_path / "report.json"
        assert run(["analyze", "--config", config, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        fit = report["fits"]["scaled_f"]
        assert fit["a_eff"] == pytest.approx(1.0, abs=1e-8)
        assert fit["nu"] == pytest.approx(30.0, rel=1e-8)
        assert fit["mu"] == pytest.approx(36.0, rel=1e-8)
        assert report["is_ger"] is True

    def test_mpdr_ten_db(self, tmp_path):
        config = write_config(tmp_path, {"kind": "mpdr", "gamma_db": 0.0, "soi_power_db": 10.0})
        out = tmp_path / "report.json"
        assert run(["analyze", "--config", config, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["exact"]["a_eff"] == pytest.approx(11.0, rel=1e-10)
        assert report["fits"]["scaled_f"]["a_eff"] == pytest.approx(11.0, rel=1e-6)

    def test_ger_blockdiag_has_both_ger_fits(self, tmp_path):
        config = write_config(tmp_path, {"kind": "ger_blockdiag", "gamma_db": 2.0})
        out = tmp_path / "report.json"
        assert run(["analyze", "--config", config, "--seed", "7", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["is_ger"] is True
        assert "scaled_chi2" in report["fits"]
        assert "pearson" in report["fits"]

    def test_generic_mismatch_reports_is_ger_false_and_no_ger_fits(self, tmp_path):
        config = write_config(tmp_path, {"kind": "eigenvalue", "alpha_range_db": [-6, 6]})
        out = tmp_path / "report.json"
        assert run(["analyze", "--config", config, "--seed", "7", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["is_ger"] is False
        assert set(report["fits"]) == {"scaled_f"}

    def test_deterministic_bytes(self, tmp_path):
        config = write_config(tmp_path, {"kind": "inverse_wishart", "gamma_range_db": [-6, 6]})
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert run(["analyze", "--config", config, "--seed", "3", "--out", str(out1)]) == 0
        assert run(["analyze", "--config", config, "--seed", "3", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_format(self, tmp_path):
        config = write_config(tmp_path, {"kind": "none"})
        out = tmp_path / "report.csv"
        assert run(["analyze", "--config", config, "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "key,value"
        rows = dict(line.split(",", 1) for line in lines[1:])
        assert float(rows["fits.scaled_f.a_eff"]) == pytest.approx(1.0, abs=1e-8)

    def test_digests_a_training_covariance_it_cannot_factor(self, tmp_path, capsys):
        # seed 32's training covariance falls below the Cholesky pivot floor
        # once factored; the scenario digest reads its bytes alone, while the
        # direct sampler needs its factor
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "array": {"n_elements": 8, "n_training": 20, "interference_powers_db": [100, 90, 95]},
            "mismatch": {"kind": "inverse_wishart", "dof": 8},
        }))
        common = ["--config", str(path), "--seed", "32", "--out", str(tmp_path / "out")]
        assert run(["analyze", *common]) == 0
        assert run(["simulate", "--trials", "200", "--sampler", "representation", *common]) == 0
        assert capsys.readouterr().err == ""
        assert run(["simulate", "--trials", "200", "--sampler", "direct", *common]) == 3
        assert run(["validate", "--trials", "10000", *common]) == 3
        assert capsys.readouterr().err.count("error: [not_positive_definite] ") == 2


class TestConfigValidation:
    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "array": {"n_elements": 16, "n_training": 32, "bogus": 1},
            "mismatch": {"kind": "none"},
        }))
        assert run(["analyze", "--config", str(path)]) == 4

    def test_unknown_mismatch_key_rejected(self, tmp_path):
        config = write_config(tmp_path, {"kind": "mpdr", "soi_power_db": 10.0, "extra": 2})
        assert run(["analyze", "--config", config]) == 4

    def test_missing_file(self, tmp_path):
        assert run(["analyze", "--config", str(tmp_path / "absent.json")]) == 4

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(["analyze", "--config", str(path)]) == 4

    def test_unknown_kind(self, tmp_path):
        config = write_config(tmp_path, {"kind": "martian"})
        assert run(["analyze", "--config", config]) == 4

    @pytest.mark.parametrize("array,mismatch", [
        ({}, {"kind": "mpdr", "soi_power_db": "x"}),
        ({}, {"kind": "mpdr", "soi_power_db": float("inf")}),
        ({}, {"kind": "ger_blockdiag", "gamma_range_db": [1]}),
        ({}, {"kind": "inverse_wishart", "gamma_range_db": [6, -6]}),
        ({}, {"kind": "eigenvalue", "alpha_db": [1.0, 2.0, 3.0]}),
        ({}, {"kind": "inverse_wishart", "dof": 3}),
        ({}, {"kind": "ger_blockdiag", "w11_dof": 20.5}),
        ({}, {"kind": "surprise", "angle_deg": 14.0, "power_db": 5.0, "enforce_ger": 1}),
        ({"n_training": 10}, {"kind": "none"}),
        ({"n_elements": 1, "n_training": 10}, {"kind": "none"}),
        ({"n_elements": "16"}, {"kind": "none"}),
        ({"n_training": 32.7}, {"kind": "none"}),
        ({"interference_angles_deg": [-12.0, 9.0]}, {"kind": "none"}),
        # a fixed value and its range
        ({}, {"kind": "inverse_wishart", "gamma_db": 3, "gamma_range_db": [-40, -30]}),
        ({}, {"kind": "ger_blockdiag", "gamma_db": 3, "gamma_range_db": [-40, -30]}),
        ({}, {"kind": "eigenvalue", "alpha_db": [0.0] * 16, "alpha_range_db": [-6, 6]}),
    ])
    def test_bad_value_rejected(self, tmp_path, array, mismatch):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"array": {"n_elements": 16, "n_training": 32, **array},
                                    "mismatch": mismatch}))
        assert run(["analyze", "--config", str(path)]) == 4

    @pytest.mark.parametrize("args", [
        ["pdf", "--grid", "0"],
        ["pdf", "--grid", "-3"],
        ["pdf", "--bins", "0", "--trials", "100"],
        ["pdf", "--trials", "-5"],
        ["validate", "--bins", "0"],
        ["simulate", "--trials", "-5"],
        ["sweep", "--realizations", "-2"],
        ["validate", "--ks-threshold", "nan"],
        ["validate", "--ks-threshold", "-1"],
        ["validate", "--ks-threshold", "0"],
        ["validate", "--ks-threshold", "1.5"],
        ["pdf", "--a-eff", "2", "--nu", "30", "--mu", "36"],
        ["pdf", "--mu", "36"],
    ])
    def test_out_of_range_flag_rejected(self, tmp_path, args):
        config = write_config(tmp_path, {"kind": "eigenvalue"})
        assert run(args + ["--config", config]) == 4

    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
    @pytest.mark.parametrize("flag", ["--a-eff", "--nu", "--mu"])
    def test_bad_explicit_parameter_rejected(self, flag, value):
        params = {"--a-eff": "11", "--nu": "30", "--mu": "36", flag: value}
        assert run(["pdf", "--grid", "8", *(item for pair in params.items() for item in pair)]) == 4

    @pytest.mark.parametrize("args", [
        ["validate", "--trials", "abc", "--config", "c.json"],
        ["analyze", "--format", "xml", "--config", "c.json"],
        ["analyze"],
        ["martian"],
        ["pdf", "--a-eff", "2", "--nu", "30", "--mu", "36", "--trials", "1000"],
    ])
    def test_usage_error_exits_4(self, args, capsys):
        assert run(args) == 4
        assert capsys.readouterr().err.startswith("config error: [config_error] ")

    @pytest.mark.parametrize("command", [["analyze"], ["sweep", "--realizations", "2"]])
    @pytest.mark.parametrize("where", ["missing_directory", "directory"])
    def test_unwritable_out_exits_4(self, tmp_path, capsys, command, where):
        config = write_config(tmp_path, {"kind": "eigenvalue"})
        out = tmp_path / "missing" / "out" if where == "missing_directory" else tmp_path
        assert run([*command, "--config", config, "--out", str(out)]) == 4
        assert capsys.readouterr().err.startswith("config error: [config_error] cannot write output: ")

    # 10^15 values take petabytes, so numpy refuses them at once and touches
    # no memory; a size the machine could overcommit would not fail that way
    @pytest.mark.parametrize("args", [
        ["simulate", "--trials", "1000000000000000"],
        ["simulate", "--trials", "1000000000000000", "--sampler", "representation"],
        ["validate", "--trials", "1000000000000000"],
        ["pdf", "--grid", "1000000000000000"],
        ["pdf", "--trials", "100", "--bins", "1000000000000000"],
    ])
    def test_size_too_big_for_memory_exits_4(self, tmp_path, capsys, args):
        config = write_config(tmp_path, {"kind": "none"})
        assert run([*args, "--config", config, "--out", str(tmp_path / "out")]) == 4
        assert capsys.readouterr().err.startswith("config error: [config_error] Unable to allocate ")

    @pytest.mark.parametrize("seed,code", [("0", 0), (str(2**64 - 1), 0), ("-1", 4), (str(2**64), 4)])
    def test_seed_must_lie_in_the_range_of_distinct_streams(self, tmp_path, capsys, seed, code):
        # RngStream keys on the seed modulo 2^64: 2^64 would draw what 0 draws
        config = write_config(tmp_path, {"kind": "inverse_wishart"})
        assert run(["analyze", "--config", config, "--seed", seed, "--out", str(tmp_path / "report.json")]) == code
        if code:
            assert capsys.readouterr().err == f"config error: [config_error] --seed must lie in [0, 2^64), got {seed}\n"

    @pytest.mark.parametrize("where,mismatch,array", [
        ("mismatch.gamma_db", {"kind": "mpdr", "gamma_db": 4000, "soi_power_db": 10.0}, {}),
        ("mismatch.gamma_db", {"kind": "inverse_wishart", "gamma_db": -4000}, {}),
        ("mismatch.soi_power_db", {"kind": "mpdr", "soi_power_db": 4000}, {}),
        ("mismatch.power_db", {"kind": "surprise", "angle_deg": 14.0, "power_db": 8000}, {}),
        ("array.interference_powers_db", {"kind": "none"},
         {"interference_angles_deg": [20.0], "interference_powers_db": [4000]}),
        ("mismatch.gamma_range_db", {"kind": "ger_blockdiag", "gamma_range_db": [3900, 4000]}, {}),
        ("mismatch.alpha_db", {"kind": "eigenvalue", "alpha_db": [4000, 0, 0, 0]}, {}),
        ("mismatch.alpha_db", {"kind": "eigenvalue", "alpha_db": [-4000, 0, 0, 0]}, {}),
        ("mismatch.alpha_range_db", {"kind": "eigenvalue", "alpha_range_db": [-4000, 0]}, {}),
    ])
    def test_db_value_without_finite_linear_value_rejected(self, tmp_path, capsys, where, mismatch, array):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"array": {"n_elements": 4, "n_training": 10, **array}, "mismatch": mismatch}))
        assert run(["analyze", "--config", str(path)]) == 4
        assert capsys.readouterr().err.startswith(f"config error: [config_error] {where} value ")

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_0(self, flag):
        with pytest.raises(SystemExit) as exc:
            run([flag])
        assert exc.value.code == 0


def read_csv_columns(path):
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return {
        name: np.array([float(row[i]) if row[i] else np.nan for row in rows])
        for i, name in enumerate(header)
    }


class TestPdf:
    def test_grid_integrates_to_one(self, tmp_path):
        config = write_config(tmp_path, {"kind": "none"})
        out = tmp_path / "pdf.csv"
        assert run(["pdf", "--config", config, "--grid", "512", "--out", str(out)]) == 0
        cols = read_csv_columns(out)
        total = np.trapezoid(cols["pdf_approx"], cols["ell"])
        assert total == pytest.approx(1.0, abs=1e-3)
        assert np.allclose(cols["pdf_exact"], cols["pdf_approx"], rtol=1e-5)

    def test_mpdr_gamma_sweep_orders_means(self, tmp_path):
        means = []
        for gamma_db in (-3.0, 0.0, 3.0):
            config = write_config(tmp_path, {"kind": "mpdr", "gamma_db": gamma_db, "soi_power_db": 10.0},
                                  name=f"mpdr{gamma_db}.json")
            out = tmp_path / f"report{gamma_db}.json"
            assert run(["analyze", "--config", config, "--out", str(out)]) == 0
            means.append(json.loads(out.read_text())["exact"]["mean_loss"])
        # larger gamma attenuates the SoI contamination: mean loss improves
        assert means[0] < means[1] < means[2]

    def test_surprise_power_shifts_down(self, tmp_path):
        means = []
        for power_db in (5.0, 15.0):
            config = write_config(tmp_path, {"kind": "surprise", "angle_deg": 14.0, "power_db": power_db},
                                  name=f"surprise{power_db}.json")
            out = tmp_path / f"sreport{power_db}.json"
            assert run(["analyze", "--config", config, "--out", str(out)]) == 0
            means.append(json.loads(out.read_text())["fits"]["scaled_f"]["mean_loss"])
        assert means[1] < means[0]

    def test_explicit_parameters(self, tmp_path):
        out = tmp_path / "pdf.csv"
        assert run(["pdf", "--a-eff", "11", "--nu", "30", "--mu", "36", "--grid", "64",
                    "--out", str(out)]) == 0
        cols = read_csv_columns(out)
        assert cols["ell"].size == 64

    @pytest.mark.parametrize("params", [["--a-eff", "1", "--nu", "3", "--mu", "1e308"],
                                        ["--a-eff", "2", "--nu", "1e308", "--mu", "30"]])
    def test_huge_dof_density_is_finite(self, tmp_path, params):
        # the law sits at one end of [0, 1], so the density is 0 on the grid
        out = tmp_path / "pdf.csv"
        assert run(["pdf", *params, "--grid", "16", "--out", str(out)]) == 0
        assert np.array_equal(read_csv_columns(out)["pdf_approx"], np.zeros(16))

    def test_json_format(self, tmp_path):
        out = tmp_path / "pdf.json"
        assert run(["pdf", "--a-eff", "1", "--nu", "30", "--mu", "36", "--grid", "16",
                    "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["ell"]) == 16
        assert len(payload["pdf_approx"]) == 16

    def test_empirical_column(self, tmp_path):
        config = write_config(tmp_path, {"kind": "none"})
        out = tmp_path / "pdf.csv"
        assert run(["pdf", "--config", config, "--grid", "32", "--trials", "20000",
                    "--out", str(out)]) == 0
        cols = read_csv_columns(out)
        assert "pdf_empirical" in cols
        bulk = (cols["ell"] > 0.4) & (cols["ell"] < 0.7)
        assert np.allclose(cols["pdf_empirical"][bulk], cols["pdf_exact"][bulk], rtol=0.25, atol=0.1)


class TestSimulate:
    def test_csv_export_and_determinism(self, tmp_path):
        config = write_config(tmp_path, {"kind": "none"})
        out1 = tmp_path / "s1.csv"
        out2 = tmp_path / "s2.csv"
        args = ["simulate", "--config", config, "--trials", "500", "--sampler", "representation"]
        assert run(args + ["--seed", "5", "--out", str(out1)]) == 0
        assert run(args + ["--seed", "5", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[4] == "ell"
        values = np.array([float(x) for x in lines[5:]])
        assert values.size == 500
        assert np.all((values > 0) & (values < 1))

    # at N = 2 the loss is Beta(K, 1), and 1 - loss is about 1/K.  Direct
    # draw 301 of seed 5 is 1 - 1.7e-17 exactly (mpmath, from the same
    # draws), which rounds onto 1; the other draws are over 5.7e-17 below 1.
    @pytest.mark.parametrize("sampler,n_training,trials,seed", [
        pytest.param("representation", 10**12, 10_000, 1, id="representation-1000000000000-10000"),
        pytest.param("direct", 10**13, 1_000, 5, id="direct-10000000000000-1000"),
    ])
    def test_draws_rounded_onto_one_exit_3(self, tmp_path, capsys, sampler, n_training, trials, seed):
        config = write_config(tmp_path, {"kind": "none"}, n_elements=2, n_training=n_training)
        args = ["simulate", "--config", config, "--seed", str(seed), "--sampler", sampler, "--trials", str(trials)]
        assert run(args + ["--out", str(tmp_path / "s.csv")]) == 3
        assert capsys.readouterr().err == (
            f"error: [out_of_support] 1 of {trials} {sampler} sampler draws rounded onto 0 or 1\n")


class TestValidate:
    def test_no_mismatch_passes(self, tmp_path):
        config = write_config(tmp_path, {"kind": "none"})
        out = tmp_path / "validate.json"
        code = run(["validate", "--config", config, "--trials", "20000", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        references = {c["reference"] for c in report["comparisons"]}
        assert {"exact", "scaled_f", "scaled_chi2", "pearson"} <= references

    def test_too_few_trials_rejected(self, tmp_path):
        config = write_config(tmp_path, {"kind": "none"})
        assert run(["validate", "--config", config, "--trials", "5000"]) == 4


def _count_matrices(monkeypatch, name):
    """Replace ``np.linalg.<name>`` by a wrapper that records every matrix it
    is given, each matrix of a stack on its own; returns the record."""
    original = getattr(np.linalg, name)
    matrices = []

    def counting(a, *args, **kwargs):
        matrices.extend(np.reshape(a, (-1,) + np.shape(a)[-2:]))  # (N-1)-blocks included
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return matrices


class TestFactorizations:
    """Each covariance is Cholesky-factored at most once per command.  A
    command builds its operating covariance, factored, once
    (``build_base``); a pair holds that and its training covariance, each
    factored once, and every later layer reads their ``chol``, ``white_v``
    and ``v_sigma_v``.  Without mismatch both sides are one object, so
    ``none`` factors once.  The other families factor their training
    covariance when it is first read, as the direct sampler and the
    scenario digest read it, and ``ger_blockdiag`` then also W11 as it
    inverts it; ``inverse_wishart`` factors W as it draws it.  A
    surprise pair's base is its training side, and its operating covariance
    is the one it factors.  ``sweep`` reads no training covariance: Omega
    comes from each family's own whitened form."""

    @pytest.fixture
    def factored(self, monkeypatch):
        return _count_matrices(monkeypatch, "cholesky")

    @pytest.mark.parametrize("mismatch,most", [
        ({"kind": "none"}, 1),
        ({"kind": "mpdr", "soi_power_db": 10.0}, 2),
        ({"kind": "surprise", "angle_deg": 14.0, "power_db": 10.0}, 2),
        ({"kind": "ger_blockdiag"}, 3),
        ({"kind": "eigenvalue"}, 2),
        ({"kind": "inverse_wishart"}, 3),
    ])
    def test_validate_factors_each_matrix_once(self, tmp_path, factored, mismatch, most):
        config = write_config(tmp_path, mismatch)
        out = tmp_path / "validate.json"
        assert run(["validate", "--config", config, "--trials", "10000", "--out", str(out)]) in (0, 2)
        assert len(factored) <= most

    def test_sweep_eigen_decomposes_sigma_once_per_command(self, tmp_path, monkeypatch):
        # sigma once, then each realization's whitened block
        decomposed = _count_matrices(monkeypatch, "eigh")
        realizations = 10
        config = write_config(tmp_path, {"kind": "eigenvalue"})
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--config", config, "--realizations", str(realizations), "--out", str(out)]) == 0
        assert len(decomposed) <= 1 + realizations

    def test_sweep_factors_sigma_once_per_command(self, tmp_path, factored):
        # sigma once, then each realization's W, over two blocks; no training covariance
        realizations = 20
        config = write_config(tmp_path, {"kind": "inverse_wishart"})
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--config", config, "--realizations", str(realizations), "--out", str(out)]) == 0
        assert len(factored) <= 1 + realizations

    @pytest.mark.parametrize("realizations", [10, 20])
    def test_sweep_factors_the_blockdiag_frame_once_per_command(self, tmp_path, factored, realizations):
        # sigma once and nothing else: Omega is blockdiag(W11, w22), so W11 is
        # eigendecomposed, not factored, and no training covariance is built
        config = write_config(tmp_path, {"kind": "ger_blockdiag"})
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--config", config, "--realizations", str(realizations), "--out", str(out)]) == 0
        assert len(factored) == 1

    def test_a_failing_sweep_factors_each_matrix_once_per_attempt(self, tmp_path, capsys, monkeypatch, factored):
        # a 300 dB eigenvalue spread: in some blocks Omega's block rounds to a
        # negative eigenvalue, in others the fit fails.  A block is redone
        # without the realizations each error names, so every pass is its
        # block less the rows earlier passes dropped.  sigma is factored and
        # eigendecomposed once; each realization's Omega block is
        # eigendecomposed once per pass it takes part in
        decomposed = _count_matrices(monkeypatch, "eigh")
        original, passes = cli.build_pair, []

        def recording(config, base, rng):
            passes.append([stream.stream_id for stream in rng])
            return original(config, base, rng)

        monkeypatch.setattr(cli, "build_pair", recording)
        realizations = 37
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "array": {"n_elements": 8, "n_training": 20, "interference_powers_db": [100, 90, 95]},
            "mismatch": {"kind": "eigenvalue", "alpha_range_db": [-300, 0]},
        }))
        out = tmp_path / "sweep.csv"
        args = ["sweep", "--config", str(path), "--realizations", str(realizations), "--seed", "11"]
        assert run(args + ["--out", str(out)]) == 0
        assert "skipped: not_positive_definite" in capsys.readouterr().err
        assert len(factored) == 1
        assert [len(rows) for rows in passes] == [16, 11, 8, 4, 16, 9, 4, 2, 5, 3, 1]
        for before, after in zip(passes, passes[1:]):
            if after[0] // cli.SWEEP_BLOCK == before[0] // cli.SWEEP_BLOCK:  # the block again, less what failed
                assert set(after) < set(before)
        assert len(decomposed) == 1 + sum(len(rows) for rows in passes)


class TestSweep:
    def test_zero_realizations_header_only(self, tmp_path):
        config = write_config(tmp_path, {"kind": "eigenvalue"})
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--config", config, "--realizations", "0", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# skipped_degenerate=0"
        assert lines[1] == "realization,gamma_db,a_eff,nu,mu,mean_loss"
        assert len(lines) == 2

    def test_deterministic_bytes(self, tmp_path):
        config = write_config(tmp_path, {"kind": "ger_blockdiag"})
        out1 = tmp_path / "sweep1.csv"
        out2 = tmp_path / "sweep2.csv"
        args = ["sweep", "--config", config, "--realizations", "4", "--seed", "11"]
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_fits_a_realization_without_forming_its_training_covariance(self, tmp_path, capsys):
        # at seed 2, realization 93's training covariance falls below the
        # Cholesky pivot floor once formed; sweep never forms it, and fits the
        # realization; six others are skipped because their fits fail
        config = {
            "array": {"n_elements": 16, "n_training": 32, "interference_powers_db": [95, 85, 90]},
            "mismatch": {"kind": "inverse_wishart", "dof": 16},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--config", str(path), "--realizations", "94", "--seed", "2", "--out", str(out)]) == 0
        assert capsys.readouterr().err == "".join(
            f"# realization {index} skipped: invalid_fit\n" for index in (0, 8, 10, 46, 48, 81))
        lines = out.read_text().splitlines()
        assert lines[0] == "# skipped_degenerate=6"
        assert len(lines) == 2 + 88
        assert lines[-1].startswith("93,")
        pair = cli.build_pair(config, cli.build_base(config)[1], RngStream(2, 93))
        with pytest.raises(NotPositiveDefinite):
            pair.training.chol

    def test_skips_every_realization_when_sigma_is_not_positive_definite(self, tmp_path, capsys):
        # sigma itself fails the Cholesky pivot floor, so no realization can be built
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "array": {"n_elements": 16, "n_training": 32, "interference_powers_db": [160, 150, 155]},
            "mismatch": {"kind": "inverse_wishart"},
        }))
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--config", str(path), "--realizations", "3", "--out", str(out)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"# realization {index} skipped: not_positive_definite" for index in range(3)]
        assert out.read_text().splitlines() == ["# skipped_degenerate=3", "realization,gamma_db,a_eff,nu,mu,mean_loss"]

    @pytest.mark.parametrize("mismatch", [
        {"kind": "inverse_wishart", "dof": 8},
        {"kind": "ger_blockdiag"},
        {"kind": "eigenvalue"},
        {"kind": "eigenvalue", "alpha_range_db": [-80, 0]},
        {"kind": "eigenvalue", "alpha_range_db": [-300, 0]},
    ])
    def test_output_does_not_depend_on_the_block_size(self, tmp_path, capsys, monkeypatch, mismatch):
        # with these interferers realizations 2, 6, 15, 34 and 36 of the first
        # family fail the fit; with an 80 dB eigenvalue spread 24 of the 37
        # fail it, and with a 300 dB spread some blocks fail before their fit,
        # where Omega's block rounds to a negative eigenvalue
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "array": {"n_elements": 8, "n_training": 20, "interference_powers_db": [100, 90, 95]},
            "mismatch": mismatch,
        }))
        outputs = []
        for block in (cli.SWEEP_BLOCK, 1, 7):
            monkeypatch.setattr(cli, "SWEEP_BLOCK", block)
            out = tmp_path / f"sweep{block}.csv"
            assert run(["sweep", "--config", str(path), "--realizations", "37", "--seed", "11", "--out", str(out)]) == 0
            outputs.append((out.read_bytes(), capsys.readouterr().err))
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    @pytest.mark.parametrize("array,mismatch,calls", [
        # three blocks of 16, 16 and 5 realizations, each fitted as one stack
        ({"n_elements": 16, "n_training": 32}, {"kind": "inverse_wishart"}, [16, 16, 5]),
        # the golden config whose realizations 2, 6, 15, 34 and 36 fail the
        # fit: blocks 0 and 2 are fitted as a stack, whose error names the
        # failing realizations, and fitted again without them; block 1 is
        # fitted as one stack of 16
        ({"n_elements": 8, "n_training": 20, "interference_powers_db": [100, 90, 95]},
         {"kind": "inverse_wishart", "dof": 8},
         [16, 13, 16, 5, 3]),
    ])
    def test_fits_each_block_once(self, tmp_path, capsys, monkeypatch, array, mismatch, calls):
        original, blocks = cli.scaled_f_laws, []

        def counting(omega, n_training):
            blocks.append(len(omega))
            return original(omega, n_training)

        monkeypatch.setattr(cli, "scaled_f_laws", counting)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"array": array, "mismatch": mismatch}))
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--config", str(path), "--realizations", "37", "--seed", "11", "--out", str(out)]) == 0
        assert blocks == calls
        skips = [line for line in capsys.readouterr().err.splitlines() if line.startswith("# realization")]
        assert len(skips) == (5 if "dof" in mismatch else 0)

    def test_a_skip_heavy_sweep_fits_each_block_at_most_three_times(self, tmp_path, capsys, monkeypatch):
        # the golden eigenvalue_breakdown config at 500 realizations: 276 fail
        # the fit, in every block, each block in at most two distinct checks
        original_pair, original_fit, blocks, fitted = cli.build_pair, cli.scaled_f_laws, [], []

        def recording(config, base, rng):
            blocks.append(rng[0].stream_id // cli.SWEEP_BLOCK)
            return original_pair(config, base, rng)

        def counting(omega, n_training):
            fitted.append(blocks[-1])
            return original_fit(omega, n_training)

        monkeypatch.setattr(cli, "build_pair", recording)
        monkeypatch.setattr(cli, "scaled_f_laws", counting)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "array": {"n_elements": 8, "n_training": 20, "interference_powers_db": [100, 90, 95]},
            "mismatch": {"kind": "eigenvalue", "alpha_range_db": [-80, 0]},
        }))
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--config", str(path), "--realizations", "500", "--seed", "11", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "# skipped_degenerate=276"
        assert capsys.readouterr().err.count("skipped: invalid_fit") == 276
        assert sorted(set(fitted)) == list(range(32))
        assert max(fitted.count(block) for block in range(32)) <= 3

    def test_a_ger_sweep_makes_no_ger_fit(self, tmp_path, monkeypatch):
        # sweep prints the scaled-F law alone; analyze of the pair makes both GER fits
        calls = []
        for name in ("scaled_chi2_two_moment", "pearson_three_moment"):
            def counting(*args, name=name, original=getattr(approximation, name)):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(approximation, name, counting)
        config = write_config(tmp_path, {"kind": "ger_blockdiag"})
        out = str(tmp_path / "out")
        assert run(["sweep", "--config", config, "--realizations", "20", "--out", out]) == 0
        assert calls == []
        assert run(["analyze", "--config", config, "--out", out]) == 0
        assert calls == ["scaled_chi2_two_moment", "pearson_three_moment"]

    @pytest.mark.parametrize("kind", ["inverse_wishart", "ger_blockdiag", "eigenvalue"])
    def test_an_error_that_is_not_a_skip_ends_the_sweep(self, tmp_path, capsys, monkeypatch, kind):
        # K = N + 1 gives p = 6, for which the third cumulant of Q is infinite
        original, blocks = cli.scaled_f_laws, []

        def counting(omega, n_training):
            blocks.append(len(omega))
            return original(omega, n_training)

        monkeypatch.setattr(cli, "scaled_f_laws", counting)
        config = write_config(tmp_path, {"kind": kind}, n_elements=8, n_training=9)
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--config", config, "--realizations", "3", "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("unfittable: [insufficient_samples] ")
        assert not out.exists()
        # the error depends only on (N, K) and names no rows, so it goes to
        # every realization of the block at once
        assert blocks == [3]

    @pytest.mark.parametrize("key", ["alpha_range_db", "gamma_range_db"])
    def test_a_range_from_zero_to_negative_zero_is_one_point(self, tmp_path, key):
        # 0.0 <= -0.0 passes the config check, but numpy's uniform rejects the range
        kind = "eigenvalue" if key == "alpha_range_db" else "inverse_wishart"
        config = write_config(tmp_path, {"kind": kind, key: [0.0, -0.0]})
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--config", config, "--realizations", "2", "--out", str(out)]) == 0
        assert read_csv_columns(out)["mean_loss"].size == 2

    def test_rejects_deterministic_kind(self, tmp_path):
        config = write_config(tmp_path, {"kind": "none"})
        assert run(["sweep", "--config", config]) == 4

    def test_means_degrade_under_mismatch(self, tmp_path):
        config = write_config(tmp_path, {"kind": "eigenvalue", "alpha_range_db": [-6, 6]})
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--config", config, "--realizations", "6", "--out", str(out)]) == 0
        cols = read_csv_columns(out)
        assert cols["mean_loss"].size == 6
        assert np.all(cols["mean_loss"] < 18.0 / 33.0)


_DB_KEYS = {
    "none": (),
    "mpdr": ("gamma_db", "soi_power_db"),
    "surprise": ("power_db",),
    "ger_blockdiag": ("gamma_db", "gamma_range_db"),
    "eigenvalue": ("alpha_db", "alpha_range_db"),
    "inverse_wishart": ("gamma_db", "gamma_range_db"),
}
_REQUIRED = {"mpdr": {"soi_power_db": 10.0}, "surprise": {"angle_deg": 14.0, "power_db": 10.0}}


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestExtremeDbValues:
    """Every dB key of every family, far outside the physical range, ends in
    a report or a typed error, never a traceback: exit 0 or 3 while its
    linear value is a finite nonzero float, and exit 4 once it is not."""

    @pytest.mark.parametrize("value", [350, -350, 600, -600, 1000, -1000, 3080, -3230, 4000, -4000])
    @pytest.mark.parametrize("kind,key", [(kind, key) for kind, keys in _DB_KEYS.items()
                                          for key in (*keys, "interference_powers_db")])
    def test_exits_with_a_code(self, tmp_path, capsys, kind, key, value):
        array = {"n_elements": 4, "n_training": 10}
        mismatch = {"kind": kind, **_REQUIRED.get(kind, {})}
        if key == "interference_powers_db":
            array[key] = [value, 25.0, 30.0]
        elif key.endswith("_range_db"):
            mismatch[key] = [value, value]
        elif key == "alpha_db":
            mismatch[key] = [value, 0.0, 0.0, 0.0]
        else:
            mismatch[key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"array": array, "mismatch": mismatch}))
        # the direct sampler forms the training covariance, which analyze and sweep may not
        commands = [["analyze"], ["simulate", "--trials", "10"]]
        if kind in ("ger_blockdiag", "eigenvalue", "inverse_wishart"):
            commands.append(["sweep", "--realizations", "3"])
        for command in commands:
            code = run([*command, "--config", str(path), "--out", str(tmp_path / "out")])
            assert code in ((4,) if abs(value) == 4000 else (0, 3))
        assert "Traceback" not in capsys.readouterr().err

    def test_sweep_skips_breakdowns_by_code(self, tmp_path, capsys):
        # at -1100 dB the eigenvalues of W11 reach 1e110 and the cumulants of
        # Q overflow; at -3085 dB the scale of W11 is finite (4e306 at -3078)
        # but W11 overflows a float, which is as not positive definite as a
        # scale that rounds to inf
        out = tmp_path / "out"
        for gamma_db, codes in ((-1100, {"invalid_fit", "not_positive_definite"}),
                                (-3085, {"not_positive_definite"})):
            for n_elements, n_training in ((16, 32), (8, 20)):
                config = write_config(tmp_path, {"kind": "ger_blockdiag", "gamma_db": gamma_db},
                                      n_elements=n_elements, n_training=n_training)
                assert run(["sweep", "--config", config, "--realizations", "4", "--out", str(out)]) == 0
                lines = capsys.readouterr().err.splitlines()
                assert [line.rsplit(": ", 1)[0] for line in lines] == [
                    f"# realization {index} skipped" for index in range(4)]
                assert {line.rsplit(": ", 1)[1] for line in lines} <= codes
                assert out.read_text().splitlines()[0] == "# skipped_degenerate=4"
                if gamma_db == -3085:
                    assert run(["analyze", "--config", config, "--out", str(out)]) == 3
                    assert capsys.readouterr().err.startswith("error: [not_positive_definite] ")


class TestStartup:
    """Which of the slower imports each command loads: ``scipy.special``
    only where a cdf or pdf is evaluated (``pdf`` and ``validate``),
    ``scipy.stats`` and ``scipy.linalg`` never, ``concurrent.futures`` only
    for the direct sampler, and ``hashlib`` not on import.  Every command
    then loads ``hashlib`` at its first draw, since ``numpy.random`` imports
    it through ``secrets`` and ``hmac``.  Before ``pdf``, no file of scipy's
    package is mapped into the process: ``analyze``, ``sweep`` and
    ``simulate`` run no compiled scipy code.

    The commands run in a fresh interpreter, because in this one other tests
    have usually imported all of these already.  Only the module sets are
    checked, never a time."""

    SCRIPT = textwrap.dedent("""
        import importlib.util
        import json
        import os
        import sys

        from snrloss.cli import main

        MODULES = ("concurrent.futures", "hashlib", "scipy.linalg", "scipy.special", "scipy.stats")
        # scipy's package directory, found without importing scipy (numpy's
        # libscipy_openblas lies outside it, under numpy.libs)
        SCIPY = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0], "")
        config, out = sys.argv[1], sys.argv[2]
        steps, mapped = {}, {}

        def scipy_files():
            # the files under SCIPY mapped into this process; None where
            # /proc/self/maps does not exist
            if not os.path.exists("/proc/self/maps"):
                return None
            with open("/proc/self/maps") as maps:
                lines = [line.split(None, 5) for line in maps]
            return sorted({fields[5].strip() for fields in lines if len(fields) == 6 and fields[5].startswith(SCIPY)})

        def step(name, *args):
            code = main([*args, "--config", config, "--out", out]) if args else None
            steps[name] = [code, [module for module in MODULES if module in sys.modules]]
            mapped[name] = scipy_files()

        step("import")
        step("analyze", "analyze")
        step("sweep", "sweep", "--realizations", "3")
        step("simulate representation", "simulate", "--trials", "200", "--sampler", "representation")
        step("simulate direct", "simulate", "--trials", "200", "--sampler", "direct")
        step("pdf", "pdf", "--grid", "16")
        step("validate", "validate", "--trials", "10000")
        import scipy.special
        import snrloss.approximation
        gammaincc = snrloss.approximation.gammaincc is scipy.special.gammaincc
        alias = snrloss.approximation.PearsonLossDistribution is snrloss.approximation.LossDistribution
        print(json.dumps({"steps": steps, "mapped": mapped, "gammaincc": gammaincc, "alias": alias}))
    """)

    @pytest.fixture(scope="class")
    def startup(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("startup")
        config = write_config(tmp_path, {"kind": "inverse_wishart"}, n_elements=8, n_training=20)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", self.SCRIPT, config, str(tmp_path / "out")],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    def test_no_command_loads_scipy_stats_or_scipy_linalg(self, startup):
        # the triangular solves are numpy's, so no command loads scipy.linalg
        steps = startup["steps"]
        for name, (_, modules) in steps.items():
            assert "scipy.stats" not in modules and "scipy.linalg" not in modules, name
        assert steps["validate"] == [0, ["concurrent.futures", "hashlib", "scipy.special"]]

    def test_only_cdf_and_pdf_evaluation_imports_scipy_special(self, startup):
        steps = startup["steps"]
        assert steps["import"] == [None, []]
        assert steps["analyze"] == [0, ["hashlib"]]
        assert steps["sweep"] == [0, ["hashlib"]]
        assert steps["simulate representation"] == [0, ["hashlib"]]
        assert steps["simulate direct"] == [0, ["concurrent.futures", "hashlib"]]
        assert steps["pdf"] == [0, ["concurrent.futures", "hashlib", "scipy.special"]]

    def test_no_command_before_pdf_maps_a_scipy_file(self, startup):
        mapped = startup["mapped"]
        if mapped["import"] is None:
            pytest.skip("/proc/self/maps does not exist")
        for name in ("import", "analyze", "sweep", "simulate representation", "simulate direct"):
            assert mapped[name] == [], name
        assert mapped["pdf"], "scipy.special's files are mapped once pdf loads it"

    def test_gammaincc_is_scipy_special_gammaincc(self, startup):
        assert startup["gammaincc"] is True

    def test_pearson_loss_distribution_is_the_one_law_class(self, startup):
        # bench/tracing.py wraps the cdf of the shifted fit's former class
        assert startup["alias"] is True


def test_no_module_imports_scipy_stats():
    # finds an import on a path no command above runs, without running it
    imported = []
    for path in Path(approximation.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported += [(path.name, f"{node.module}.{alias.name}") for alias in node.names]
    assert imported
    assert [(name, module) for name, module in imported
            if module == "scipy.stats" or module.startswith("scipy.stats.")] == []

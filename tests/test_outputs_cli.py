import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import seqbvs
from seqbvs.cli import main
from seqbvs.config import KNOWN_KEYS, build_config, parse_config_text
from seqbvs.data_gen import DGPConfig, equicorrelated_cov
from seqbvs.errors import ConfigError, DataError
from seqbvs.experiment import ExperimentConfig, MissingnessConfig, ReplicationResult, aggregate, run_experiment
from seqbvs.imputation import ImputationConfig
from seqbvs.inclusion import METHODS, InclusionTrajectory
from seqbvs.outputs import (
    analyze_directory,
    emit_outputs,
    read_trajectories_csv,
    write_tables_csv,
    write_trajectories_csv,
)
from seqbvs.svg import _Canvas, crossing_totals_chart, trajectory_chart


def tiny_config(**overrides):
    base = dict(
        reps=2,
        n_min=19,
        n_max=26,
        dgp=DGPConfig(p=3, beta=np.array([2.0, 0.0, 1.0]), sigma2=1.0, cov=equicorrelated_cov(3, 0.4)),
        imp=ImputationConfig(M=2, sweeps=2),
        missing=MissingnessConfig(rate=0.25),
        base_seed=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


TINY_CONFIG_TEXT = """
# tiny run for fast end-to-end checks
run.reps=2
run.n_min=19
run.n_max=26
run.base_seed=3
dgp.p=3
dgp.beta=2,0,1
dgp.sigma2=1.0
dgp.rho=0.4
missing.rate=0.25
imp.M=2
imp.sweeps=2
smcs.alpha=0.1
smcs.varsigma=0.65
"""
# without the equicorrelation, for cases that give a covariance file
_NO_RHO = TINY_CONFIG_TEXT.replace("dgp.rho=0.4\n", "")


@pytest.fixture(scope="module")
def tiny_run():
    cfg = tiny_config()
    results = run_experiment(cfg)
    return cfg, results, aggregate(results)


class TestOutputs:
    def test_trajectories_schema_arithmetic(self, tiny_run, tmp_path):
        cfg, results, stats = tiny_run
        out = emit_outputs(results, stats, tmp_path, cfg, plots=False)
        lines = out["trajectories"].read_text().strip().splitlines()
        assert lines[0] == "rep,n,t,method,covariate,prob,set_size"
        assert len(lines) == 1 + cfg.reps * cfg.t_max * 4 * cfg.dgp.p

    def test_empty_results_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_trajectories_csv([], path)
        assert path.read_text() == "rep,n,t,method,covariate,prob,set_size\n"

    def test_tables_layout(self, tiny_run, tmp_path):
        _, _, stats = tiny_run
        path = tmp_path / "tables.csv"
        write_tables_csv(stats, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "table,method," + ",".join(f"x{k}" for k in range(1, stats.p + 1))
        assert len(lines) == 1 + 2 * len(METHODS)
        assert {ln.split(",")[0] for ln in lines[1:]} == {"mean_crossings", "final_inclusion_freq"}

    def test_manifest_contents(self, tiny_run, tmp_path):
        cfg, results, stats = tiny_run
        out = emit_outputs(results, stats, tmp_path, cfg, plots=False)
        manifest = json.loads(out["manifest"].read_text())
        assert manifest["package"] == "seqbvs"
        assert manifest["config"]["reps"] == 2
        assert manifest["crossing_tie_rule"].startswith("prob == 0.5")
        assert "seed_rule" in manifest and "numpy_version" in manifest

    def test_csv_roundtrip_preserves_results(self, tiny_run, tmp_path):
        cfg, results, stats = tiny_run
        path = tmp_path / "traj.csv"
        write_trajectories_csv(results, path)
        back = read_trajectories_csv(path)
        assert len(back) == len(results)
        for orig, rec in zip(results, back):
            assert rec.rep == orig.rep
            np.testing.assert_array_equal(rec.set_sizes, orig.set_sizes)
            for meth in METHODS:
                np.testing.assert_allclose(
                    rec.trajectories[meth].probs, orig.trajectories[meth].probs, rtol=1e-11
                )
                np.testing.assert_array_equal(rec.crossings[meth], orig.crossings[meth])
                np.testing.assert_array_equal(rec.final_included[meth], orig.final_included[meth])

    def test_read_back_is_float_of_written_text(self, tiny_run, tmp_path):
        cfg, results, _ = tiny_run
        res = results[0]
        smcs = res.trajectories["smcs"].probs.copy()
        smcs[3:5] = np.nan  # an emptied confidence set
        bvs = res.trajectories["bvs"].probs.copy()
        bvs[0, :3] = [-0.0, 5e-324, 0.1 + 0.2]  # a signed zero, the least subnormal, a 17-digit sum
        trajectories = {
            **res.trajectories,
            "smcs": InclusionTrajectory("smcs", smcs),
            "bvs": InclusionTrajectory("bvs", bvs),
        }
        path = tmp_path / "traj.csv"
        write_trajectories_csv([ReplicationResult(**{**vars(res), "trajectories": trajectories})], path)
        lines = path.read_text().splitlines()[1:]
        cells = [line.split(",")[5] for line in lines]
        written = np.stack([trajectories[meth].probs for meth in METHODS], axis=1).ravel()
        assert cells == [f"{v:.12g}" for v in written.tolist()]
        assert cells[:3] == ["-0", "4.94065645841e-324", "0.3"]
        text = np.array([float(cell) for cell in cells])
        back = read_trajectories_csv(path)[0]
        cube = np.stack([back.trajectories[meth].probs for meth in METHODS], axis=1)  # (T, methods, p)
        assert np.isnan(text).sum() == 2 * cfg.dgp.p
        np.testing.assert_array_equal(cube.ravel().view(np.uint64), text.view(np.uint64))

    def test_analyze_recomputes_tables(self, tiny_run, tmp_path):
        cfg, results, stats = tiny_run
        emit_outputs(results, stats, tmp_path, cfg, plots=False)
        re_stats = analyze_directory(tmp_path)
        for meth in METHODS:
            np.testing.assert_allclose(
                re_stats.mean_crossings[meth], stats.mean_crossings[meth], atol=1e-9
            )
            np.testing.assert_allclose(re_stats.final_freq[meth], stats.final_freq[meth], atol=1e-9)

    def test_svg_well_formed(self, tiny_run, tmp_path):
        cfg, results, stats = tiny_run
        out = emit_outputs(results, stats, tmp_path, cfg, plots=True)
        assert len(out["plots"]) == cfg.reps * 4
        for path in out["plots"][:4]:
            root = ET.fromstring(path.read_text())
            assert root.tag.endswith("svg")
            assert root.get("version") == "1.1"
        fig = out["crossing_totals_plot"]
        ET.fromstring(fig.read_text())


class TestReaderErrors:
    @pytest.fixture
    def run_dir(self, tiny_run, tmp_path):
        cfg, results, stats = tiny_run
        emit_outputs(results, stats, tmp_path, cfg, plots=False)
        return tmp_path

    def _replace_row(self, run_dir, index, edit):
        path = run_dir / "trajectories.csv"
        lines = path.read_text().splitlines(keepends=True)
        lines[index] = edit(lines[index])
        path.write_text("".join(lines))
        return path

    @pytest.mark.parametrize(
        "edit",
        [
            lambda row: row.rsplit(",", 1)[0] + "\n",  # six fields
            lambda row: row.rstrip("\n") + ",1\n",  # eight fields
            lambda row: row.replace(row.split(",")[5], "high"),  # non-numeric prob
            lambda row: "x" + row,  # non-numeric rep
            lambda row: ",".join(row.split(",")[:4] + ["0"] + row.split(",")[5:]),  # covariate 0
        ],
        ids=["six_fields", "eight_fields", "non_numeric_prob", "non_numeric_rep", "covariate_zero"],
    )
    def test_malformed_row(self, run_dir, edit):
        path = self._replace_row(run_dir, 5, edit)
        with pytest.raises(DataError, match="trajectories.csv"):
            read_trajectories_csv(path)

    @pytest.mark.parametrize("name", ["lasso", "zero_outs", "BVS"])
    def test_unknown_method(self, run_dir, name):
        path = self._replace_row(run_dir, 2, lambda row: row.replace(",bvs,", f",{name},"))
        with pytest.raises(DataError, match=f"unknown method '{name}'.*trajectories.csv"):
            read_trajectories_csv(path)

    def test_missing_and_repeated_cells(self, run_dir):
        path = run_dir / "trajectories.csv"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]))
        with pytest.raises(DataError, match="trajectories.csv"):
            read_trajectories_csv(path)
        path.write_text("".join(lines[:-1] + lines[-2:-1]))
        with pytest.raises(DataError, match="repeats"):
            read_trajectories_csv(path)

    def test_header_only_reads_no_results(self, tmp_path):
        path = tmp_path / "trajectories.csv"
        write_trajectories_csv([], path)
        assert read_trajectories_csv(path) == []

    @pytest.mark.parametrize("command", [["analyze"], ["plot", "--rep", "0"]])
    def test_cli_reports_malformed_row(self, run_dir, command, capsys):
        self._replace_row(run_dir, 5, lambda row: row.rsplit(",", 1)[0] + "\n")
        assert main([command[0], "--in", str(run_dir)] + command[1:]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed row in ") and "trajectories.csv" in err


class TestSvg:
    def test_points_match_scalar_maps(self):
        canvas = _Canvas("t", 19.0, 100.0, 0.0, 1.7, "n", "y")
        rng = np.random.default_rng(4)
        xs = np.arange(19, 101, dtype=float)
        ys = rng.random(xs.size) * 1.7
        want = [f"{canvas._px(float(x)):.2f},{canvas._py(float(y)):.2f}" for x, y in zip(xs, ys)]
        assert canvas._points(xs, ys) == " ".join(want)

    def test_trajectory_chart_handles_nan(self):
        ns = np.arange(19, 25)
        probs = np.full((6, 3), 0.4)
        probs[2, 1] = np.nan
        svg = trajectory_chart(ns, probs, np.array([True, False, False]), (1,), "demo & test")
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert "&amp;" in svg

    def test_crossing_totals_chart(self):
        ts = np.arange(1, 9)
        series = {
            "bvs": (np.linspace(0, 5, 8), np.full(8, 1.0)),
            "mixed": (np.linspace(0, 2, 8), np.full(8, 0.5)),
        }
        ET.fromstring(crossing_totals_chart(ts, series, "totals"))


class TestConfigFile:
    def test_parse_and_build(self):
        kv = parse_config_text(TINY_CONFIG_TEXT)
        cfg = build_config(kv)
        assert cfg.reps == 2
        assert cfg.dgp.p == 3
        np.testing.assert_array_equal(cfg.dgp.beta, [2, 0, 1])
        assert cfg.missing.rate == 0.25
        assert cfg.imp.M == 2

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            build_config({"dgp.period": "7"})

    def test_bad_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("reps 20")

    def test_profile_defaults_pass_through(self):
        cfg = build_config({}, profile="full")
        assert cfg.reps == 100
        assert cfg.imp.M == 50

    def test_lambda_key(self):
        cfg = build_config({"smcs.lambda": "0.4"})
        assert cfg.smcs.lam == 0.4

    def test_cov_csv(self, tmp_path):
        cov = equicorrelated_cov(3, 0.2)
        path = tmp_path / "cov.csv"
        np.savetxt(path, cov, delimiter=",")
        cfg = build_config({"dgp.p": "3", "dgp.beta": "1,0,2", "dgp.cov_csv": str(path)})
        np.testing.assert_allclose(cfg.dgp.cov, cov)

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(TINY_CONFIG_TEXT)
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out_dir), "--reps", "1", "--no-plots"]) == 0
        config = json.loads((out_dir / "manifest.json").read_text())["config"]
        assert config["n_max"] == 26 and config["reps"] == 1

    def test_readme_block_builds_and_names_every_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## Config files", 1)[1].split("```\n", 2)[1]
        cfg = build_config(parse_config_text(block))
        assert cfg.g_rule == "scaled:4" and cfg.pooling == "mixture"
        named = {line.lstrip("# ").split("=", 1)[0] for line in block.splitlines() if "=" in line}
        assert set(KNOWN_KEYS) <= named


class TestCli:
    def test_simulate_analyze_plot(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(TINY_CONFIG_TEXT)
        out_dir = tmp_path / "out"
        rc = main(["simulate", "--config", str(cfg_path), "--out", str(out_dir), "--no-plots"])
        assert rc == 0
        assert (out_dir / "trajectories.csv").exists()
        assert (out_dir / "tables.csv").exists()
        assert (out_dir / "manifest.json").exists()

        assert main(["analyze", "--in", str(out_dir)]) == 0
        assert main(["plot", "--in", str(out_dir), "--rep", "1"]) == 0
        plots = list((out_dir / "plots").glob("rep001_*.svg"))
        assert len(plots) == 4

    def test_simulate_shows_progress(self, tmp_path):
        # run_experiment logs progress; the simulate command installs the handler
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(TINY_CONFIG_TEXT)
        env = {**os.environ, "PYTHONPATH": str(Path(seqbvs.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "seqbvs.cli", "simulate", "--config", str(cfg_path),
             "--out", str(tmp_path / "out"), "--no-plots"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == ["replication 1/2 done", "replication 2/2 done"]

    def test_plot_missing_rep(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(TINY_CONFIG_TEXT)
        out_dir = tmp_path / "out"
        main(["simulate", "--config", str(cfg_path), "--out", str(out_dir), "--no-plots"])
        assert main(["plot", "--in", str(out_dir), "--rep", "9"]) == 2

    def test_cli_reps_and_seed_override(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(TINY_CONFIG_TEXT)
        out_dir = tmp_path / "o1"
        rc = main(
            ["simulate", "--config", str(cfg_path), "--out", str(out_dir), "--reps", "1",
             "--seed", "11", "--no-plots"]
        )
        assert rc == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["config"]["reps"] == 1
        assert manifest["config"]["base_seed"] == 11

    def test_error_reported_as_exit_2(self, tmp_path):
        rc = main(["analyze", "--in", str(tmp_path / "missing")])
        assert rc == 2

    @pytest.mark.parametrize(
        "text, cov_text, message",
        [
            (_NO_RHO + "dgp.cov_csv=cov.csv\n", "1,0,0\n0,1,x\n0,0,1\n", "cov.csv"),
            (_NO_RHO + "dgp.cov_csv=cov.csv\n", "1,2,0\n2,1,0\n0,0,1\n", "positive definite"),
            (_NO_RHO + "dgp.cov_csv=cov.csv\n", "1,0,0\n0,1,nan\n0,nan,1\n", "cov must be finite"),
            (TINY_CONFIG_TEXT + "dgp.cov_csv=cov.csv\n", "1,0,0\n0,1,0\n0,0,1\n", "exclude each other"),
            (TINY_CONFIG_TEXT + "run.model_prior=scott_berger\n", None, "model_prior"),
            (TINY_CONFIG_TEXT + "missing.mechanism=foo\n", None, "mechanism must be one of"),
            (TINY_CONFIG_TEXT + "missing.rate=1.5\n", None, "missingness rate"),
            (TINY_CONFIG_TEXT + "imp.min_n=5\n", None, "imp.min_n must exceed p + 2"),
            (TINY_CONFIG_TEXT + "imp.min_n=20\n", None, "below the imputation minimum"),
            (TINY_CONFIG_TEXT + "smcs.lambda=nan\n", None, "lam must be finite"),
            (TINY_CONFIG_TEXT + "smcs.varsigma=nan\n", None, "varsigma must be positive and finite"),
            (TINY_CONFIG_TEXT + "smcs.varsigma=0\n", None, "varsigma must be positive and finite"),
            (TINY_CONFIG_TEXT + "smcs.varsigma=-0.65\n", None, "varsigma must be positive and finite"),
            (TINY_CONFIG_TEXT + "dgp.beta=2,nan,1\n", None, "beta must be finite"),
            (TINY_CONFIG_TEXT + "dgp.beta=2,0,inf\n", None, "beta must be finite"),
            (TINY_CONFIG_TEXT + "dgp.sigma2=inf\n", None, "sigma2 must be positive and finite"),
            (TINY_CONFIG_TEXT + "run.g_rule=fixed:nan\n", None, "g rule parameter must be positive and finite"),
            (TINY_CONFIG_TEXT + "run.g_rule=scaled:inf\n", None, "g rule parameter must be positive and finite"),
            (
                TINY_CONFIG_TEXT + "dgp.p=21\ndgp.beta=" + ",".join(["1"] * 21)
                + "\nimp.min_n=24\nrun.n_min=24\nrun.n_max=30\n",
                None,
                "p must be in 1..20",
            ),
        ],
        ids=[
            "non_numeric_cov_csv",
            "indefinite_cov_csv",
            "nan_cov_csv",
            "rho_with_cov_csv",
            "unknown_model_prior",
            "unknown_mechanism",
            "rate_above_one",
            "min_n_at_p_plus_2",
            "n_min_below_min_n",
            "nan_lambda",
            "nan_varsigma",
            "zero_varsigma",
            "negative_varsigma",
            "nan_beta",
            "inf_beta",
            "inf_sigma2",
            "nan_fixed_g",
            "inf_scaled_g",
            "p_above_max_p",
        ],
    )
    def test_bad_config_reported_as_exit_2(self, tmp_path, capsys, monkeypatch, text, cov_text, message):
        # rejected while the config is built, before any replication runs
        def no_run(*args, **kwargs):
            raise AssertionError("run_experiment reached with an invalid config")

        monkeypatch.setattr("seqbvs.cli.run_experiment", no_run)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(text)
        if cov_text is not None:
            (tmp_path / "cov.csv").write_text(cov_text)
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir), "--no-plots"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

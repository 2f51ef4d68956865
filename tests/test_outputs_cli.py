import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import seqbvs
from seqbvs import svg as svg_module
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
    write_crossing_totals_csv,
    write_tables_csv,
    write_trajectories_csv,
)
from seqbvs.svg import _Canvas, crossing_totals_chart, trajectory_chart

from oracles import crossing_events_reference, per_point_crossing_totals_chart, per_point_trajectory_chart


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


def _clear_frames():
    for cache in (svg_module._x_frame, svg_module._axes, svg_module._trajectory_frame):
        cache.cache_clear()


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
        set_sizes = res.set_sizes.copy()
        set_sizes[3:5] = 0
        bvs = res.trajectories["bvs"].probs.copy()
        bvs[0, :3] = [-0.0, 5e-324, 0.1 + 0.2]  # a signed zero, the least subnormal, a 17-digit sum
        trajectories = {
            **res.trajectories,
            "smcs": InclusionTrajectory("smcs", smcs),
            "bvs": InclusionTrajectory("bvs", bvs),
        }
        path = tmp_path / "traj.csv"
        write_trajectories_csv(
            [ReplicationResult(**{**vars(res), "trajectories": trajectories, "set_sizes": set_sizes})], path
        )
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

    def test_one_pass_counts_match_reference(self, tmp_path):
        # rep ids 3, 6, ..., 72: the smcs set of the first rep starts empty,
        # the second's is empty throughout, so each of its smcs columns is all
        # NaN, and the others' empty for a random span, or never; exact 0.5
        # ties are drawn as often as the rest.  More than 8 reps, so that a
        # reduction over a strided (reps, T) view would sum in another order
        t_count, p = 30, 3
        rng = np.random.default_rng(11)
        rep_ids = list(range(3, 75, 3))
        results = []
        for i, rep in enumerate(rep_ids):
            probs = {meth: rng.choice([0.2, 0.4999, 0.5, 0.8], size=(t_count, p)) for meth in METHODS}
            sizes = np.full(t_count, 5, dtype=np.int64)
            if i < 2:
                empty = slice(0, 5) if i == 0 else slice(None)
            else:
                start = int(rng.integers(0, t_count))
                empty = slice(start, start + int(rng.integers(0, 6)))
            probs["smcs"][empty] = np.nan
            sizes[empty] = 0
            results.append(ReplicationResult.from_probs(rep, 19, 19 + t_count - 1, probs, sizes))
        path = tmp_path / "traj.csv"
        write_trajectories_csv(results, path)
        back = read_trajectories_csv(path)
        assert [r.rep for r in back] == rep_ids
        for res in results + back:
            for meth in METHODS:
                traj = res.trajectories[meth].probs
                want = [crossing_events_reference(traj[:, k]).sum() for k in range(p)]
                np.testing.assert_array_equal(res.crossings[meth], want)
        stats = aggregate(back)
        for meth in METHODS:
            # the per-rep loop the whole-run count replaces, reduced over a (reps, T) array
            cum = np.array(
                [np.cumsum(sum(crossing_events_reference(r.trajectories[meth].probs[:, k]) for k in range(p)))
                 for r in back],
                dtype=float,
            )
            assert np.array_equal(stats.cum_mean[meth], cum.mean(axis=0))
            assert np.array_equal(stats.cum_sd[meth], cum.std(axis=0, ddof=1))

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

    def test_plots_rewrite_byte_identical(self, tiny_run, tmp_path):
        cfg, results, stats = tiny_run
        _clear_frames()  # the first call builds the frames' text, the second reuses it
        trees = []
        for name in ("a", "b"):
            emit_outputs(results, stats, tmp_path / name, cfg, plots=True)
            plots = tmp_path / name / "plots"
            trees.append({path.name: path.read_bytes() for path in sorted(plots.iterdir())})
        assert len(trees[0]) == cfg.reps * 4 + 1
        assert trees[0] == trees[1]

    def test_tables_match_per_value_format(self, tiny_run, tmp_path):
        _, _, stats = tiny_run
        write_tables_csv(stats, tmp_path / "tables.csv")
        write_crossing_totals_csv(stats, tmp_path / "totals.csv")
        want = ["table,method," + ",".join(f"x{k}" for k in range(1, stats.p + 1))]
        for table, per_method in (("mean_crossings", stats.mean_crossings), ("final_inclusion_freq", stats.final_freq)):
            want += [f"{table},{meth}," + ",".join(f"{v:.12g}" for v in per_method[meth]) for meth in METHODS]
        assert (tmp_path / "tables.csv").read_text() == "\n".join(want) + "\n"
        want = ["method,t,mean_total,sd_total"]
        for meth in METHODS:
            want += [
                f"{meth},{t + 1},{stats.cum_mean[meth][t]:.12g},{stats.cum_sd[meth][t]:.12g}"
                for t in range(stats.t_max)
            ]
        assert (tmp_path / "totals.csv").read_text() == "\n".join(want) + "\n"


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
            # the other rows of (rep 0, t 1) keep their n and set size
            lambda row: ",".join(row.split(",")[:1] + ["55"] + row.split(",")[2:]),
            lambda row: row.rsplit(",", 1)[0] + ",7\n",
            lambda row: ",".join(row.split(",")[:1] + ["55"] + row.split(",")[2:6]) + ",7\n",
            # loadtxt encodes the method as latin-1, which has no lambda
            lambda row: ",".join(row.split(",")[:3] + ["\u03bbasso"] + row.split(",")[4:]),
        ],
        ids=[
            "six_fields",
            "eight_fields",
            "non_numeric_prob",
            "non_numeric_rep",
            "covariate_zero",
            "one_row_n",
            "one_row_set_size",
            "one_row_n_and_set_size",
            "non_latin1_method",
        ],
    )
    def test_malformed_row(self, run_dir, edit):
        path = self._replace_row(run_dir, 5, edit)
        with pytest.raises(DataError, match="trajectories.csv"):
            read_trajectories_csv(path)

    def test_n_off_the_count(self, run_dir):
        # every row of (rep 0, t 2) agrees on an n that is not n(t = 1) + 1
        path = run_dir / "trajectories.csv"
        lines = path.read_text().splitlines(keepends=True)
        for i, row in enumerate(lines):
            cells = row.split(",")
            if cells[0] == "0" and cells[2] == "2":
                lines[i] = ",".join(cells[:1] + ["55"] + cells[2:])
        path.write_text("".join(lines))
        with pytest.raises(DataError, match=r"trajectories.csv has an n that is not n\(t = 1\) \+ t - 1"):
            read_trajectories_csv(path)

    @pytest.mark.parametrize("name", ["lasso", "zero_outs", "BVS", "z\u00e9ro", "zero_out_x"])
    def test_unknown_method(self, run_dir, name):
        # a name longer than 9 characters is cut to 9, which no method name is
        path = self._replace_row(run_dir, 2, lambda row: row.replace(",bvs,", f",{name},"))
        with pytest.raises(DataError, match=f"unknown method '{name[:9]}'.*trajectories.csv"):
            read_trajectories_csv(path)

    @pytest.mark.parametrize(
        "nan_in, emptied",
        [("bvs", False), ("zero_out", False), ("mixed", False), ("smcs", False), (None, True), ("smcs", True)],
        ids=[
            "nan_in_bvs",
            "nan_in_zero_out",
            "nan_in_mixed",
            "smcs_nan_in_nonempty_set",
            "smcs_value_in_empty_set",
            "smcs_partly_nan_in_empty_set",
        ],
    )
    def test_nan_off_the_empty_smcs_sets(self, run_dir, nan_in, emptied):
        # covariate 2 of one method reads NaN at (rep 0, t 1), and/or every row there reads set size 0
        path = run_dir / "trajectories.csv"
        lines = path.read_text().splitlines(keepends=True)
        for i, row in enumerate(lines[1:], 1):
            cells = row.rstrip("\n").split(",")
            if cells[0] == "0" and cells[2] == "1":
                assert cells[5] != "nan" and cells[6] != "0"
                prob = "nan" if cells[3:5] == [nan_in, "2"] else cells[5]
                lines[i] = ",".join(cells[:5] + [prob, "0" if emptied else cells[6]]) + "\n"
        path.write_text("".join(lines))
        what = "an smcs NaN pattern that disagrees with set_size == 0" if nan_in in (None, "smcs") else f"NaN in {nan_in}"
        with pytest.raises(DataError, match=f"trajectories.csv has {what} at rep 0, t 1$"):
            read_trajectories_csv(path)

    @pytest.mark.parametrize("value", ["inf", "-inf", "1.5", "-0.25"])
    @pytest.mark.parametrize("meth", ["bvs", "smcs"])
    def test_probability_outside_unit_interval(self, run_dir, meth, value):
        # covariate 2 of one method reads `value` at (rep 1, t 3)
        path = run_dir / "trajectories.csv"
        lines = path.read_text().splitlines(keepends=True)
        hits = 0
        for i, row in enumerate(lines[1:], 1):
            cells = row.split(",")
            if cells[0] == "1" and cells[2] == "3" and cells[3:5] == [meth, "2"]:
                lines[i] = ",".join(cells[:5] + [value] + cells[6:])
                hits += 1
        assert hits == 1
        path.write_text("".join(lines))
        with pytest.raises(DataError, match=rf"trajectories.csv has a probability outside \[0, 1\] in {meth} at rep 1, t 3$"):
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
        rng = np.random.default_rng(4)
        xs = np.arange(19, 101, dtype=float)
        canvas = _Canvas("t", xs, 0.0, 1.7, "n", "y")
        ys = rng.random(xs.size) * 1.7
        want = [f"{canvas._px(float(x)):.2f},{canvas._py(float(y)):.2f}" for x, y in zip(xs, ys)]
        # the all-finite template and the join of the finite points' cells give the same text
        assert svg_module._points(canvas.x.cells, canvas._py(ys), canvas.x.template) == " ".join(want)
        assert svg_module._points(canvas.x.cells, canvas._py(ys)) == " ".join(want)

    def test_trajectory_chart_handles_nan(self):
        ns = np.arange(19, 25)
        probs = np.full((6, 3), 0.4)
        probs[2, 1] = np.nan
        svg = trajectory_chart(ns, probs, np.array([True, False, False]), (1,), "demo & test")
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert "&amp;" in svg

    def test_trajectory_chart_matches_per_point_oracle(self):
        ns = np.arange(19, 101)
        probs = np.random.default_rng(7).random((ns.size, 6))
        probs[10:30, 0] = np.nan  # NaN span inside the series
        probs[:, 1] = np.nan
        probs[[5, 60], 1] = [0.2, 0.9]  # exactly 2 finite points: drawn
        probs[:, 2] = np.nan
        probs[40, 2] = 0.7  # 1 finite point: skipped
        probs[:, 3] = np.nan  # all NaN: skipped
        probs[[0, -1], 4] = [0.0, 1.0]
        active = np.array([True, False, True, False, True, False])
        args = (ns, probs, active, (1, 5), "rep 3, method smcs")
        svg = trajectory_chart(*args)
        assert svg == per_point_trajectory_chart(*args)
        assert svg.count("<polyline") == 4

    def test_shared_frames_match_per_point_oracle(self):
        # two x grids in one call sequence; every chart as the oracle draws it, with the frames cold and warm
        rng = np.random.default_rng(12)
        charts = []
        for ns in (np.arange(19, 101), np.arange(5, 31), np.arange(19, 101)):
            finite = rng.random((ns.size, 5))
            gapped = finite.copy()
            gapped[3:9, 0] = np.nan  # a gap inside the series
            gapped[:4, 1] = np.nan  # leading NaN, as an emptied smcs set gives
            gapped[:, 2] = np.nan
            gapped[[1, -2], 2] = [0.1, 0.8]  # exactly 2 finite points: drawn
            gapped[:, 3] = np.nan
            gapped[4, 3] = 0.5  # 1 finite point: skipped
            for probs, active, emphasize in (
                (finite, np.array([True, False, True, False, False]), (1,)),
                (gapped, np.array([True, False, True, False, False]), (1,)),
                (finite, np.array([False, True, False, False, True]), (2, 5)),
                (gapped, np.zeros(5, dtype=bool), ()),
                (finite, np.array([True, False, True, False, False]), ()),
            ):
                charts.append((trajectory_chart, per_point_trajectory_chart, (ns, probs, active, emphasize, "rep 0 & 1")))
            ts = np.arange(1, ns.size + 1)
            series = {
                "bvs": (np.linspace(0.0, 5.0, ts.size), np.full(ts.size, 1.0)),
                "mixed": (np.linspace(0.0, 2.0, ts.size), np.linspace(0.0, 0.4, ts.size)),
            }
            charts.append((crossing_totals_chart, per_point_crossing_totals_chart, (ts, series, "totals")))
        for chart, oracle, args in charts:
            _clear_frames()
            assert chart(*args) == oracle(*args)
        _clear_frames()
        for _ in range(2):  # the first pass fills the frames, the second draws from them only
            hits = svg_module._trajectory_frame.cache_info().hits
            for chart, oracle, args in charts:
                assert chart(*args) == oracle(*args)
        assert svg_module._trajectory_frame.cache_info().hits - hits == 15
        assert svg_module._x_frame.cache_info().currsize == 4  # two n grids, two t grids

    def test_frame_caches_are_bounded(self):
        _clear_frames()
        size = svg_module._FRAME_CACHE_SIZE
        for i in range(3 * size):
            ns = np.arange(19, 30 + i)
            probs = np.full((ns.size, 3), 0.25)
            trajectory_chart(ns, probs, np.array([i % 2 == 0, True, False]), (i % 3 + 1,), "chart")
            crossing_totals_chart(ns, {"bvs": (probs[:, 0] * i, probs[:, 1])}, "totals")
        for cache in (svg_module._x_frame, svg_module._axes, svg_module._trajectory_frame):
            info = cache.cache_info()
            assert info.maxsize == size and info.currsize == size

    def test_crossing_totals_chart(self):
        # matches the per-point oracle
        ts = np.arange(1, 83)
        series = {
            "bvs": (np.linspace(0.0, 5.0, ts.size), np.full(ts.size, 1.0)),  # band clipped at 0 early on
            "mixed": (np.linspace(0.0, 2.0, ts.size), np.linspace(0.0, 0.4, ts.size)),
        }
        svg = crossing_totals_chart(ts, series, "totals")
        assert svg == per_point_crossing_totals_chart(ts, series, "totals")
        ET.fromstring(svg)


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
        assert cfg.g_rule == "unit-info" and cfg.pooling == "mixture"
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

    def test_plot_rewrites_simulate_plots(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(TINY_CONFIG_TEXT)
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
        before = {path.name: path.read_bytes() for path in (out_dir / "plots").iterdir()}
        assert main(["plot", "--in", str(out_dir), "--rep", "1"]) == 0
        after = {path.name: path.read_bytes() for path in (out_dir / "plots").iterdir()}
        assert after == before

    def test_plot_without_manifest_colours_by_final_bvs(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(TINY_CONFIG_TEXT)
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir), "--no-plots"]) == 0
        (out_dir / "manifest.json").unlink()
        assert main(["plot", "--in", str(out_dir), "--rep", "1", "--method", "smcs"]) == 0
        res = [r for r in read_trajectories_csv(out_dir / "trajectories.csv") if r.rep == 1][0]
        want = trajectory_chart(
            np.arange(res.n_min, res.n_max + 1), res.trajectories["smcs"].probs, res.final_included["bvs"], (),
            "rep 1, method smcs",
        )
        assert (out_dir / "plots" / "rep001_smcs.svg").read_text() == want

    def test_plot_reports_unreadable_manifest(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(TINY_CONFIG_TEXT)
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir), "--no-plots"]) == 0
        (out_dir / "manifest.json").write_text('{"config": {}}\n')
        assert main(["plot", "--in", str(out_dir), "--rep", "1"]) == 2
        assert "cannot read config.dgp.beta from" in capsys.readouterr().err

    @pytest.mark.parametrize("beta", [[2.0, 0.0, 1.0, 0.0, 1.0], [2.0, 0.0]], ids=["longer", "shorter"])
    def test_plot_refuses_beta_of_another_length(self, tmp_path, capsys, beta):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(TINY_CONFIG_TEXT)
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir), "--no-plots"]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        manifest["config"]["dgp"]["beta"] = beta
        (out_dir / "manifest.json").write_text(json.dumps(manifest))
        assert main(["plot", "--in", str(out_dir), "--rep", "1"]) == 2
        assert capsys.readouterr().err == f"error: dgp.beta has {len(beta)} entries, but rep 1 has 3 covariates\n"
        assert not (out_dir / "plots").exists()

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
             "--seed", "11", "--no-plots", "--workers", "3"]
        )
        assert rc == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["config"]["reps"] == 1
        assert manifest["config"]["base_seed"] == 11
        assert manifest["workers"] == 1  # one replication runs serially

    def test_manifest_smcs_and_missing_blocks(self, tmp_path):
        # defaults for every smcs and missing key; only the run is shrunk
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("run.n_max=20\nimp.M=2\nimp.sweeps=1\n")
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir), "--reps", "1", "--no-plots"]) == 0
        config = json.loads((out_dir / "manifest.json").read_text())["config"]
        assert config["smcs"] == {"alpha": 0.1, "lam": 1.0 / (8.0 * 0.65**2), "varsigma": 0.65}
        assert config["missing"]["mechanism"] == "mcar"

    def test_negative_seed_refused(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(TINY_CONFIG_TEXT)
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir), "--seed", "-1", "--no-plots"]) == 2
        assert "base_seed must be >= 0" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_error_reported_as_exit_2(self, tmp_path):
        rc = main(["analyze", "--in", str(tmp_path / "missing")])
        assert rc == 2

    @pytest.mark.parametrize("workers", ["0", "-3", "two"])
    def test_workers_below_one_refused_when_parsed(self, tmp_path, capsys, workers):
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--out", str(out_dir), "--workers", workers])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            (TINY_CONFIG_TEXT + "run.model_prior=scott_berger\n", "model_prior"),
            (TINY_CONFIG_TEXT + "missing.mechanism=foo\n", "mechanism must be one of"),
            (TINY_CONFIG_TEXT + "missing.mechanism=MCAR\n", "mechanism must be one of ('mcar', 'mar_y')"),
            (TINY_CONFIG_TEXT + "missing.mechanism=MAR-Y\n", "mechanism must be one of ('mcar', 'mar_y')"),
            (TINY_CONFIG_TEXT + "missing.rate=1.5\n", "missingness rate"),
            (TINY_CONFIG_TEXT + "imp.min_n=5\n", "imp.min_n must exceed p + 2"),
            (TINY_CONFIG_TEXT + "imp.min_n=20\n", "below the imputation minimum"),
            (TINY_CONFIG_TEXT + "smcs.varsigma=nan\n", "varsigma must be positive and finite"),
            (TINY_CONFIG_TEXT + "smcs.varsigma=0\n", "varsigma must be positive and finite"),
            (TINY_CONFIG_TEXT + "smcs.varsigma=-0.65\n", "varsigma must be positive and finite"),
            (TINY_CONFIG_TEXT + "dgp.beta=2,nan,1\n", "beta must be finite"),
            (TINY_CONFIG_TEXT + "dgp.beta=2,0,inf\n", "beta must be finite"),
            (TINY_CONFIG_TEXT + "dgp.sigma2=inf\n", "sigma2 must be positive and finite"),
            (TINY_CONFIG_TEXT + "run.g_rule=fixed:6\n", "g_rule must be one of ('unit-info',)"),
            (
                TINY_CONFIG_TEXT + "dgp.p=21\ndgp.beta=" + ",".join(["1"] * 21)
                + "\nimp.min_n=24\nrun.n_min=24\nrun.n_max=30\n",
                "p must be in 1..20",
            ),
            (TINY_CONFIG_TEXT + "run.base_seed=-1\n", "base_seed must be >= 0"),
        ],
        ids=[
            "unknown_model_prior",
            "unknown_mechanism",
            "upper_case_mechanism",
            "dashed_mechanism",
            "rate_above_one",
            "min_n_at_p_plus_2",
            "n_min_below_min_n",
            "nan_varsigma",
            "zero_varsigma",
            "negative_varsigma",
            "nan_beta",
            "inf_beta",
            "inf_sigma2",
            "unknown_g_rule",
            "p_above_max_p",
            "negative_base_seed",
        ],
    )
    def test_bad_config_reported_as_exit_2(self, tmp_path, capsys, monkeypatch, text, message):
        # rejected while the config is built, before any replication runs
        def no_run(*args, **kwargs):
            raise AssertionError("run_experiment reached with an invalid config")

        monkeypatch.setattr("seqbvs.cli.run_experiment", no_run)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(text)
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir), "--no-plots"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import seqbvs
from seqbvs import svg as svg_module
from seqbvs.cli import main
from seqbvs.config import KNOWN_KEYS, build_config, parse_config_text
from seqbvs.data_gen import DGPConfig, equicorrelated_cov, gen_covariates, gen_responses
from seqbvs.errors import ConfigError, DataError, OutputError
from seqbvs.experiment import (
    _STREAM_COVARIATES,
    _STREAM_IMPUTE_BASE,
    _STREAM_MASK,
    _STREAM_NOISE,
    ExperimentConfig,
    MissingnessConfig,
    ReplicationResult,
    aggregate,
    count_crossings,
    default_config,
    run_experiment,
)
from seqbvs.imputation import ImputationConfig
from seqbvs.inclusion import METHODS, InclusionTrajectory
from seqbvs.outputs import (
    CROSSING_TOTALS_CSV,
    MANIFEST_JSON,
    TABLES_CSV,
    TRAJECTORIES_CSV,
    analyze_directory,
    emit_outputs,
    read_trajectories_csv,
    write_crossing_totals_csv,
    write_replication_plots,
    write_tables_csv,
    write_trajectories_csv,
)
from seqbvs.svg import crossing_totals_chart, trajectory_chart, trajectory_frame

from oracles import crossing_events_reference, per_point_crossing_totals_chart, per_point_trajectory_chart


def tiny_config(**overrides):
    base = dict(
        reps=2,
        n_min=19,
        n_max=26,
        dgp=DGPConfig(p=3, beta=np.array([2.0, 0.0, 1.0]), sigma2=1.0, rho=0.4),
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


# sha256 of the charts drawn in test_chart_bytes_are_pinned
PINNED_TRAJECTORY_SHA256 = "5ba41cf61eb2ab30d9403581be03acc695e68a66d564a2678c96353a2ee69ce1"
PINNED_TOTALS_SHA256 = "a1d9d4176fac50413e985141a40ebac45c4eec5b322c8b8f349ec5d3d79b0806"


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

    @pytest.mark.parametrize("case", ["another_shape", "repeated_rep"])
    def test_writer_refuses_what_the_reader_refuses(self, tiny_run, tmp_path, case):
        # read_trajectories_csv refuses the rows of either list, so the writer
        # refuses the list before it opens the file, which keeps its bytes
        _, results, _ = tiny_run
        if case == "another_shape":
            r = results[0]
            shorter = {meth: InclusionTrajectory(meth, traj.probs[:-1]) for meth, traj in r.trajectories.items()}
            bad = results + [ReplicationResult(5, r.n_min, r.n_max - 1, shorter, r.set_sizes[:-1])]
            message = "reps differ in (T, p): rep 5 has"
        else:
            bad = results + [results[0]]
            message = f"reps repeat an id: rep {results[0].rep} comes more than once"
        path = tmp_path / "traj.csv"
        write_trajectories_csv(results, path)
        before = path.read_bytes()
        for refuse in (lambda: write_trajectories_csv(bad, path), lambda: aggregate(bad)):
            with pytest.raises(DataError, match=re.escape(message)):
                refuse()
        assert path.read_bytes() == before

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
        for tag in (_STREAM_COVARIATES, _STREAM_NOISE, _STREAM_MASK, _STREAM_IMPUTE_BASE):
            assert re.search(rf"\b{tag}\b", manifest["seed_rule"]), tag

    def test_csv_roundtrip_preserves_results(self, tmp_path):
        # a desk run whose confidence sets empty: every field of a record
        # read back equals the run's, the probabilities to their 12 digits
        cfg = build_config(parse_config_text("smcs.varsigma=0.15\nrun.n_max=40\nrun.reps=2\n"))
        results = run_experiment(cfg)
        assert all(r.set_sizes[-1] == 0 for r in results)
        path = tmp_path / "traj.csv"
        write_trajectories_csv(results, path)
        back = read_trajectories_csv(path)
        assert len(back) == len(results)
        for orig, rec in zip(results, back):
            for field in dataclasses.fields(ReplicationResult):
                got, want = getattr(rec, field.name), getattr(orig, field.name)
                if field.name != "trajectories":
                    np.testing.assert_array_equal(got, want, err_msg=field.name)
                    continue
                assert {meth: traj.method for meth, traj in got.items()} == dict(zip(METHODS, METHODS))
                for meth in METHODS:
                    np.testing.assert_allclose(got[meth].probs, want[meth].probs, rtol=1e-11)

    @pytest.mark.parametrize("layout", ["descending_reps", "two_runs_concatenated"])
    def test_reps_read_back_in_file_order(self, tiny_run, tmp_path, layout):
        # the writer's rows of a [rep 1, rep 0] list, or of reps 0-1 followed by those of reps 2-3
        _, results, _ = tiny_run
        path = tmp_path / "traj.csv"
        if layout == "descending_reps":
            written = results[::-1]
            write_trajectories_csv(written, path)
        else:
            later = [ReplicationResult(r.rep + 2, r.n_min, r.n_max, r.trajectories, r.set_sizes) for r in results]
            written = results + later
            write_trajectories_csv(later, tmp_path / "later.csv")
            write_trajectories_csv(results, path)
            with open(path, "a") as fh:
                fh.write((tmp_path / "later.csv").read_text().split("\n", 1)[1])
        back = read_trajectories_csv(path)
        assert [r.rep for r in back] == [r.rep for r in written]
        for orig, rec in zip(written, back):
            assert (rec.n_min, rec.n_max) == (orig.n_min, orig.n_max)
            np.testing.assert_array_equal(rec.set_sizes, orig.set_sizes)
            for meth in METHODS:
                np.testing.assert_allclose(rec.trajectories[meth].probs, orig.trajectories[meth].probs, rtol=1e-11)

    def test_read_back_is_float_of_written_text(self, tiny_run, tmp_path):
        cfg, results, _ = tiny_run
        res = results[0]
        smcs = res.trajectories["smcs"].probs.copy()
        smcs[-2:] = np.nan  # a confidence set emptied for the last two steps
        set_sizes = res.set_sizes.copy()
        set_sizes[-2:] = 0
        bvs = res.trajectories["bvs"].probs.copy()
        bvs[0, :3] = [-0.0, 5e-324, 0.1 + 0.2]  # a signed zero, the least subnormal, a 17-digit sum
        trajectories = {
            **res.trajectories,
            "smcs": InclusionTrajectory("smcs", smcs),
            "bvs": InclusionTrajectory("bvs", bvs),
        }
        path = tmp_path / "traj.csv"
        write_trajectories_csv([ReplicationResult(res.rep, res.n_min, res.n_max, trajectories, set_sizes)], path)
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
        # rep ids 3, 6, ..., 72: the smcs set of the first rep ends empty,
        # the second's is empty throughout, so each of its smcs columns is all
        # NaN, and the others' empty from a random t on, or never (the sets
        # are nested, so once empty a set stays empty); exact 0.5 ties are
        # drawn as often as the rest.  More than 8 reps, so that a reduction
        # over a strided (reps, T) view would sum in another order
        t_count, p = 30, 3
        rng = np.random.default_rng(11)
        rep_ids = list(range(3, 75, 3))
        results = []
        for i, rep in enumerate(rep_ids):
            probs = {meth: rng.choice([0.2, 0.4999, 0.5, 0.8], size=(t_count, p)) for meth in METHODS}
            sizes = np.full(t_count, 5, dtype=np.int64)
            if i < 2:
                empty = slice(t_count - 5, None) if i == 0 else slice(None)
            else:
                empty = slice(int(rng.integers(0, t_count + 1)), None)
            probs["smcs"][empty] = np.nan
            sizes[empty] = 0
            trajectories = {meth: InclusionTrajectory(meth, probs[meth]) for meth in METHODS}
            results.append(ReplicationResult(rep, 19, 19 + t_count - 1, trajectories, sizes))
        path = tmp_path / "traj.csv"
        write_trajectories_csv(results, path)
        back = read_trajectories_csv(path)
        assert [r.rep for r in back] == rep_ids
        for res in results + back:
            for meth in METHODS:
                traj = res.trajectories[meth].probs
                want = [crossing_events_reference(traj[:, k]).sum() for k in range(p)]
                np.testing.assert_array_equal(count_crossings(traj), want)
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
            # and the totals as a lone (reps,) array
            totals = cum[:, -1].copy()
            assert stats.total_mean[meth] == float(totals.mean())
            assert stats.total_var[meth] == float(totals.var(ddof=1))

    def test_analyze_recomputes_tables(self, tiny_run, tmp_path):
        cfg, results, stats = tiny_run
        # analyze rewrites, from the CSV alone, the bytes the run wrote
        emit_outputs(results, stats, tmp_path, cfg, plots=False)
        names = ("tables.csv", "crossing_totals.csv")
        written = {name: (tmp_path / name).read_bytes() for name in names}
        for name in names:
            (tmp_path / name).unlink()
        analyze_directory(tmp_path)
        for name in names:
            assert (tmp_path / name).read_bytes() == written[name], name

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
        trees = []
        for name in ("a", "b"):
            emit_outputs(results, stats, tmp_path / name, cfg, plots=True)
            plots = tmp_path / name / "plots"
            trees.append({path.name: path.read_bytes() for path in sorted(plots.iterdir())})
        assert len(trees[0]) == cfg.reps * 4 + 1
        assert trees[0] == trees[1]

    def test_rerun_into_a_directory_writes_a_fresh_directory_bytes(self, tiny_run, tmp_path):
        cfg, results, stats = tiny_run
        big_cfg = tiny_config(reps=3, base_seed=5)
        big = run_experiment(big_cfg)
        emit_outputs(big, aggregate(big), tmp_path / "d", big_cfg)
        before = {path: path.stat().st_size for path in (tmp_path / "d").rglob("*") if path.is_file()}
        for name in ("d", "e"):
            emit_outputs(results, stats, tmp_path / name, cfg)
        fresh = [path for path in (tmp_path / "e").rglob("*") if path.is_file()]
        assert len(fresh) == 4 + cfg.reps * 4 + 1
        for path in fresh:
            assert (tmp_path / "d" / path.relative_to(tmp_path / "e")).read_bytes() == path.read_bytes(), path.name
        assert any(path.stat().st_size < size for path, size in before.items())
        # the replication past the new count keeps its plots
        stale = tmp_path / "d" / "plots" / "rep002_bvs.svg"
        assert stale.stat().st_size == before[stale]

    def test_write_that_raises_leaves_only_its_prefix(self, tiny_run, tmp_path):
        _, results, _ = tiny_run
        path = tmp_path / "traj.csv"
        write_trajectories_csv(results, path)
        # a record whose set sizes were swapped out after its checks: the writer fails at it, after the first is written
        broken = dataclasses.replace(results[1])
        broken.set_sizes = None
        with pytest.raises(AttributeError):
            write_trajectories_csv([results[0], broken], path)
        write_trajectories_csv(results[:1], tmp_path / "first.csv")
        assert path.read_bytes() == (tmp_path / "first.csv").read_bytes()

    @pytest.mark.parametrize("name", [TRAJECTORIES_CSV, TABLES_CSV, CROSSING_TOTALS_CSV, MANIFEST_JSON])
    def test_unwritable_output_raises_output_error(self, tiny_run, tmp_path, name):
        cfg, results, stats = tiny_run
        (tmp_path / name).mkdir()
        with pytest.raises(OutputError, match=f"cannot write .*{name}"):
            emit_outputs(results, stats, tmp_path, cfg, plots=False)

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

    @pytest.mark.parametrize(
        "rep, t, size, what",
        [("0", "3", "5000", "outside 0..8"), ("1", "2", "-4", "outside 0..8"), ("1", "3", "8", "that grows with t")],
        ids=["above_the_model_count", "negative", "grows_with_t"],
    )
    def test_impossible_set_size(self, run_dir, rep, t, size, what):
        # every row of one (rep, t) of the p = 3 run agrees on the set size
        path = run_dir / "trajectories.csv"
        lines = path.read_text().splitlines(keepends=True)
        for i, row in enumerate(lines[1:], 1):
            cells = row.rstrip("\n").split(",")
            if cells[0] == rep and cells[2] == t:
                assert 0 < int(cells[6]) < 8
                lines[i] = ",".join(cells[:6] + [size]) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(DataError, match=f"trajectories.csv has a set size {what} at rep {rep}, t {t}$"):
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

    @pytest.mark.parametrize(
        "reorder",
        [
            lambda rows: rows[:5] + [rows[6], rows[5]] + rows[7:],
            # the 12 rows of (rep 0, t 2) before those of (rep 0, t 1)
            lambda rows: rows[12:24] + rows[:12] + rows[24:],
            # rep 0's block again after rep 1's
            lambda rows: rows + rows[: len(rows) // 2],
        ],
        ids=["adjacent_rows_swapped", "t_blocks_swapped", "rep_id_repeated"],
    )
    def test_rows_out_of_the_writers_order(self, run_dir, reorder, capsys):
        path = run_dir / "trajectories.csv"
        header, *rows = path.read_text().splitlines(keepends=True)
        path.write_text(header + "".join(reorder(rows)))
        with pytest.raises(DataError, match="trajectories.csv repeats, skips or reorders"):
            read_trajectories_csv(path)
        assert main(["analyze", "--in", str(run_dir)]) == 2
        assert "trajectories.csv" in capsys.readouterr().err

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

    @pytest.mark.parametrize("index", [0, 3], ids=["header", "row_3"])
    def test_bytes_not_utf8(self, run_dir, capsys, index):
        # the first readline decodes a whole buffer, so an early row fails there as the header does
        path = run_dir / "trajectories.csv"
        lines = path.read_bytes().splitlines(keepends=True)
        lines[index] = lines[index].replace(b",", b"\xe9,", 1)
        path.write_bytes(b"".join(lines))
        with pytest.raises(DataError, match="trajectories.csv"):
            read_trajectories_csv(path)
        assert main(["analyze", "--in", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "trajectories.csv" in err


class TestSvg:
    def test_points_match_scalar_maps(self):
        rng = np.random.default_rng(4)
        xs = np.arange(19, 101, dtype=float)
        frame = svg_module._x_frame(xs)
        ys = rng.random(xs.size) * 1.7
        py = svg_module._map_y(ys, 0.0, 1.7)
        want = [
            f"{svg_module._map_x(float(x), frame.lo, frame.hi):.2f},{svg_module._map_y(float(y), 0.0, 1.7):.2f}"
            for x, y in zip(xs, ys)
        ]
        # the all-finite template and the join of the finite points' cells give the same text
        assert svg_module._points(frame.cells, py, frame.template) == " ".join(want)
        assert svg_module._points(frame.cells, py) == " ".join(want)

    def test_chart_bytes_are_pinned(self):
        # inputs from arithmetic alone, so the digests hold across platforms
        ns = np.arange(19, 101, dtype=float)
        steps = np.arange(ns.size, dtype=float)
        probs = np.column_stack([(steps * (k + 3) % 17) / 16 for k in range(5)])
        probs[10:20, 1] = np.nan  # a gap inside the series
        probs[:, 2] = np.nan
        probs[[3, 70], 2] = [0.25, 0.75]  # exactly 2 finite points: drawn
        probs[:, 3] = np.nan
        probs[40, 3] = 0.5  # 1 finite point: skipped
        active = np.array([True, False, True, False, True])
        traj = trajectory_chart(trajectory_frame(ns, active, (1, 5)), probs, "rep 0 & <bvs>")  # emphasized lines 1 and 5
        ts = steps + 1
        totals = crossing_totals_chart(
            ts,
            {
                "bvs": (ts / 20, np.full(ts.size, 1.0)),  # band clipped at 0 early on
                "mixed": (ts / 41, ts / 200),
                "other": (ts / 82, np.zeros(ts.size)),
            },
            "totals",
        )
        digests = [hashlib.sha256(text.encode()).hexdigest() for text in (traj, totals)]
        assert digests == [PINNED_TRAJECTORY_SHA256, PINNED_TOTALS_SHA256]

    def test_trajectory_chart_handles_nan(self):
        ns = np.arange(19, 25)
        probs = np.full((6, 3), 0.4)
        probs[2, 1] = np.nan
        svg = trajectory_chart(trajectory_frame(ns, np.array([True, False, False]), (1,)), probs, "demo & test")
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
        svg = trajectory_chart(trajectory_frame(ns, active, (1, 5)), probs, "rep 3, method smcs")
        assert svg == per_point_trajectory_chart(ns, probs, active, (1, 5), "rep 3, method smcs")
        assert svg.count("<polyline") == 4

    def test_shared_frames_match_per_point_oracle(self):
        # two x grids; every chart as the oracle draws it, on a frame built for
        # it and on one frame shared by all the probability sets of its colouring
        rng = np.random.default_rng(12)
        for ns in (np.arange(19, 101), np.arange(5, 31)):
            finite = rng.random((ns.size, 5))
            gapped = finite.copy()
            gapped[3:9, 0] = np.nan  # a gap inside the series
            gapped[:4, 1] = np.nan  # leading NaN, as an emptied smcs set gives
            gapped[:, 2] = np.nan
            gapped[[1, -2], 2] = [0.1, 0.8]  # exactly 2 finite points: drawn
            gapped[:, 3] = np.nan
            gapped[4, 3] = 0.5  # 1 finite point: skipped
            for active, emphasize in (
                (np.array([True, False, True, False, False]), (1,)),
                (np.array([False, True, False, False, True]), (2, 5)),
                (np.zeros(5, dtype=bool), ()),
            ):
                shared = trajectory_frame(ns, active, emphasize)
                for probs in (finite, gapped, 1.0 - finite):
                    want = per_point_trajectory_chart(ns, probs, active, emphasize, "rep 0 & 1")
                    assert trajectory_chart(trajectory_frame(ns, active, emphasize), probs, "rep 0 & 1") == want
                    assert trajectory_chart(shared, probs, "rep 0 & 1") == want
            ts = np.arange(1, ns.size + 1)
            series = {
                "bvs": (np.linspace(0.0, 5.0, ts.size), np.full(ts.size, 1.0)),
                "mixed": (np.linspace(0.0, 2.0, ts.size), np.linspace(0.0, 0.4, ts.size)),
            }
            assert crossing_totals_chart(ts, series, "totals") == per_point_crossing_totals_chart(ts, series, "totals")

    def test_replication_plots_reuse_and_rebuild_frames(self, tmp_path, monkeypatch):
        # a frame is reused by consecutive replications of one grid and
        # colouring and rebuilt where either changes; every chart is the oracle's
        rng = np.random.default_rng(21)

        def result(rep, n_min, n_max, final_bvs):
            probs = {meth: rng.random((n_max - n_min + 1, 3)) for meth in METHODS}
            probs["bvs"][-1] = final_bvs
            trajectories = {meth: InclusionTrajectory(meth, probs[meth]) for meth in METHODS}
            return ReplicationResult(rep, n_min, n_max, trajectories, np.full(n_max - n_min + 1, 4, dtype=np.int64))

        built = []

        def counted_frame(*args):
            built.append(args)
            return svg_module.trajectory_frame(*args)

        monkeypatch.setattr("seqbvs.outputs.trajectory_frame", counted_frame)
        # final bvs calls: actives 1, 3 (a tie at 0.5 counts as active) and 2, 3
        a, b = [0.9, 0.2, 0.5], [0.1, 0.8, 0.6]
        for beta, results, frames in (
            # coloured by the final bvs call: A, A, B, A builds A, B and A again
            (None, [result(0, 19, 40, a), result(1, 19, 40, a), result(2, 19, 40, b), result(3, 19, 40, a)], 3),
            # coloured by beta, whatever the final calls: one frame per grid
            (np.array([2.0, 0.0, 1.0]), [result(4, 19, 40, a), result(5, 19, 40, b), result(6, 5, 30, a)], 2),
        ):
            built.clear()
            paths = write_replication_plots(results, tmp_path, beta)
            assert len(paths) == 4 * len(results)
            assert len(built) == frames
            for res in results:
                ns = np.arange(res.n_min, res.n_max + 1)
                active, strong = (res.trajectories["bvs"].probs[-1] >= 0.5, ()) if beta is None else (beta != 0.0, (1,))
                for meth in METHODS:
                    title = f"rep {res.rep}, method {meth}"
                    want = per_point_trajectory_chart(ns, res.trajectories[meth].probs, active, strong, title)
                    assert (tmp_path / "plots" / f"rep{res.rep:03d}_{meth}.svg").read_text() == want

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

    def test_key_given_twice_takes_its_last_value(self):
        kv = parse_config_text("run.reps=3\nimp.M=4\nrun.reps=5\n")
        assert kv == {"run.reps": "5", "imp.M": "4"}
        assert build_config(kv).reps == 5

    @pytest.mark.parametrize("key", KNOWN_KEYS)
    def test_default_text_builds_the_default(self, key):
        # each key's parser reads the text of its field's default back as that default
        section, name = key.split(".", 1)

        def field_of(cfg):
            return getattr(cfg if section == "run" else getattr(cfg, section), name)

        default = field_of(default_config())
        text = ",".join(map(str, default)) if isinstance(default, np.ndarray) else str(default)
        value = field_of(build_config({key: text}))
        assert type(value) is type(default)
        np.testing.assert_array_equal(value, default)

    @pytest.mark.parametrize(
        "key, text, message",
        [
            ("run.reps", "1.5", "run.reps: expected an integer"),
            ("smcs.alpha", "x", "smcs.alpha: expected a number"),
            ("dgp.beta", "1,,2", "dgp.beta"),
        ],
    )
    def test_unparsable_value_names_its_key(self, key, text, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            build_config({key: text})

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
        assert config["dgp"]["rho"] == 0.4
        np.testing.assert_array_equal(config["dgp"]["cov"], equicorrelated_cov(3, 0.4))

    def test_readme_block_builds_and_names_every_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## Config files", 1)[1].split("```\n", 2)[1]
        cfg = build_config(parse_config_text(block))
        assert cfg.g_rule == "unit-info" and cfg.pooling == "mixture"
        named = {line.lstrip("# ").split("=", 1)[0] for line in block.splitlines() if "=" in line}
        assert set(KNOWN_KEYS) <= named


def test_readme_library_block_runs(capsys):
    # the documented API stays callable, on data from the default DGP
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```\n", 1)[0]
    dgp = DGPConfig()
    rng = np.random.default_rng(0)
    X = gen_covariates(40, dgp.cov, rng)
    namespace = {"X": X, "y": gen_responses(X, dgp, rng)}
    exec(block, namespace)
    state = namespace["state"]
    assert state.t == 1 and state.member.shape == (1024,)
    size, fractions = capsys.readouterr().out.split("\n", 1)
    assert int(size) == np.count_nonzero(state.member)
    assert fractions.startswith("[")


def test_import_leaves_out_the_process_pool():
    # only run_experiment with workers > 1 imports the pool, and with it multiprocessing and socket
    env = {**os.environ, "PYTHONPATH": str(Path(seqbvs.__file__).parents[1])}
    code = (
        "import sys, seqbvs, seqbvs.cli; "
        "print(sorted({'concurrent.futures.process', 'multiprocessing', 'socket'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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
            trajectory_frame(np.arange(res.n_min, res.n_max + 1), res.trajectories["bvs"].probs[-1] >= 0.5, ()),
            res.trajectories["smcs"].probs,
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

    def test_plot_of_a_single_t(self, tmp_path):
        rows = [f"0,19,1,{meth},{k},{prob},3" for meth in METHODS for k, prob in ((1, 0.7), (2, 0.2))]
        (tmp_path / "trajectories.csv").write_text("rep,n,t,method,covariate,prob,set_size\n" + "\n".join(rows) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["plot", "--in", str(tmp_path), "--rep", "0"]) == 0
        plots = sorted(path.name for path in (tmp_path / "plots").iterdir())
        assert plots == ["crossing_totals.svg"] + [f"rep000_{meth}.svg" for meth in sorted(METHODS)]
        for name in plots:
            ET.fromstring((tmp_path / "plots" / name).read_text())

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
            (
                TINY_CONFIG_TEXT + "dgp.p=10\ndgp.beta=" + ",".join(["1"] * 10) + "\nrun.n_min=18\n",
                "n_min=18 is below the imputation minimum 19 at p=10",
            ),
            (
                TINY_CONFIG_TEXT + "dgp.p=20\ndgp.beta=" + ",".join(["1"] * 20) + "\nrun.n_min=22\n",
                "n_min=22 is below the imputation minimum 23 at p=20",
            ),
            (TINY_CONFIG_TEXT + "imp.min_n=19\n", "unknown config keys: ['imp.min_n']"),
            (TINY_CONFIG_TEXT + "smcs.varsigma=nan\n", "varsigma must be positive and finite"),
            (TINY_CONFIG_TEXT + "smcs.varsigma=0\n", "varsigma must be positive and finite"),
            (TINY_CONFIG_TEXT + "smcs.varsigma=-0.65\n", "varsigma must be positive and finite"),
            (TINY_CONFIG_TEXT + "dgp.beta=2,nan,1\n", "beta must be finite"),
            (TINY_CONFIG_TEXT + "dgp.beta=2,0,inf\n", "beta must be finite"),
            (TINY_CONFIG_TEXT + "dgp.sigma2=inf\n", "sigma2 must be positive and finite"),
            (TINY_CONFIG_TEXT + "run.g_rule=fixed:6\n", "unknown config keys: ['run.g_rule']"),
            (
                TINY_CONFIG_TEXT + "dgp.p=21\ndgp.beta=" + ",".join(["1"] * 21)
                + "\nrun.n_min=24\nrun.n_max=30\n",
                "p must be in 1..20",
            ),
            (TINY_CONFIG_TEXT + "run.base_seed=-1\n", "base_seed must be >= 0"),
            (TINY_CONFIG_TEXT + "dgp.rho=1\n", "rho=1.0 does not give a positive definite matrix for p=3"),
            (TINY_CONFIG_TEXT + "dgp.rho=nan\n", "rho=nan does not give a positive definite matrix for p=3"),
            (TINY_CONFIG_TEXT + "dgp.rho=-0.6\n", "rho=-0.6 does not give a positive definite matrix for p=3"),
            (
                TINY_CONFIG_TEXT + "dgp.p=10\ndgp.beta=" + ",".join(["1"] * 10) + f"\ndgp.rho={np.nextafter(1.0, 0.0)}\n",
                "does not give a positive definite matrix for p=10",
            ),
        ],
        ids=[
            "unknown_model_prior",
            "unknown_mechanism",
            "upper_case_mechanism",
            "dashed_mechanism",
            "rate_above_one",
            "n_min_below_floor",
            "n_min_below_floor_at_max_p",
            "retired_min_n",
            "nan_varsigma",
            "zero_varsigma",
            "negative_varsigma",
            "nan_beta",
            "inf_beta",
            "inf_sigma2",
            "unknown_g_rule",
            "p_above_max_p",
            "negative_base_seed",
            "rho_one",
            "nan_rho",
            "rho_below_lower_bound",
            "rho_below_one_at_p10",
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

    def test_max_p_simulates_from_its_floor(self, tmp_path):
        # run.n_min alone reaches the floor max(19, p + 3) = 23; n_min_below_floor_at_max_p refuses 22
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("dgp.p=20\ndgp.beta=" + ",".join(["1"] * 20) + "\nrun.n_min=23\nrun.n_max=24\nimp.M=1\n")
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir), "--reps", "1", "--no-plots"]) == 0
        assert json.loads((out_dir / "manifest.json").read_text())["config"]["imp"] == {"M": 1, "sweeps": 5}

    def test_config_not_utf8_reported_as_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_bytes(b"# caf\xe9\n" + TINY_CONFIG_TEXT.encode())
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--no-plots"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "run.cfg is not UTF-8 text" in err


# The tables.csv text and the per-rep final confidence-set sizes of the shared
# desk run (seed 0).  Mean crossings and final frequencies are counts over 20
# reps, so the text moves only when a crossing or a final call flips, not with
# roundoff; a change that moves either (the imputer's draw, the pooling, the
# E-process) updates them on purpose.
DESK_TABLES = """\
table,method,x1,x2,x3,x4,x5,x6,x7,x8,x9,x10
mean_crossings,bvs,18.55,11.25,11.5,11.95,12.5,14.65,9.35,11.35,8.5,8.2
mean_crossings,smcs,2,2.8,1.6,1.65,1.85,1.9,1.8,3,1.65,1.15
mean_crossings,zero_out,12.45,10.05,7.35,8.1,7.5,10.9,8.15,9.5,5.85,5.3
mean_crossings,mixed,17.5,9.8,10.8,11.45,12.6,13.65,8,11.05,8.95,7.85
final_inclusion_freq,bvs,0.9,1,0.1,0.05,0.2,0.75,1,0.05,0.25,0.05
final_inclusion_freq,smcs,0.7,1,0.1,0.15,0.15,0.7,1,0.1,0.15,0.15
final_inclusion_freq,zero_out,0.8,1,0.15,0.1,0.2,0.8,1,0,0.1,0.05
final_inclusion_freq,mixed,0.9,1,0.1,0.05,0.2,0.75,1,0.05,0.25,0.05
"""
DESK_FINAL_SET_SIZES = [2, 8, 4, 3, 6, 3, 5, 4, 7, 7, 8, 7, 4, 4, 5, 4, 6, 1, 11, 8]


def test_desk_outputs_are_pinned(desk_run, tmp_path):
    _, results, stats = desk_run
    write_tables_csv(stats, tmp_path / TABLES_CSV)
    assert (tmp_path / TABLES_CSV).read_text() == DESK_TABLES
    assert [int(res.set_sizes[-1]) for res in results] == DESK_FINAL_SET_SIZES

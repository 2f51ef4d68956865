"""Persisted run outputs: trajectories CSV, report tables, plots, manifest.

All numeric output is decimal text with 12 significant digits.  The
trajectories CSV is the canonical record; `analyze` recomputes the report
tables from it alone.  The CSVs and SVGs are functions of the results and
the config alone, so reruns write them byte-identical; the report tables
fill one %-template per line (per method for the crossing totals), and the
plots of one call go into one plots/ directory made once.

Every file goes through one writer, `_rewrite`, which writes over an
existing file in place and then cuts it at the end of the new text, so a
rerun into an existing directory leaves each file it writes with the same
bytes a fresh directory gets, without paying to empty the file first.  A
rerun leaves alone the files it does not write, such as the plots of
replications past its count, or the plots of a run without plots.

The 4 x reps trajectory charts of a run share one x grid (n_min..n_max)
and, coloured by dgp.beta, one set of actives and emphasized covariates,
so one plotting call formats their frame once and draws every chart on
it: the x half of every point, the points template, the axes, the 0.5
rule, the legend, the draw order and each line's colour and width.  A new
frame is formatted only when a replication's grid or colouring differs
from the one before it, and none is kept past the call.  Once per chart
come its title and its own probabilities.  The one crossing-totals chart
formats its frame itself.

The CSV and the arrays it holds are both whole-array: the writer joins the
rows of one (rep, t) into one string, in one fixed order (rep, then t, then
method, then covariate), and the reader parses the file in one np.loadtxt
pass and reshapes it in that order into a (reps, T, methods, p) grid.  It
refuses rows in any other order, and each (rep, method) slice of the grid's
probabilities is a (T, p) trajectory, copied by its record, NaN where the
smcs confidence set was empty.
Reps come back in file order.  A probability read back equals float() of
its 12-digit text bit for bit, NaN included, and every other field of a
record read back equals the run's.  The reader checks the file's format,
and ReplicationResult the values, as in any record.
"""

from __future__ import annotations

import json
import os
import platform
import warnings
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DataError, OutputError
from .experiment import SEED_RULE, CrossingStats, ExperimentConfig, ReplicationResult, aggregate, check_run_records
from .inclusion import METHODS, InclusionTrajectory
from .svg import crossing_totals_chart, trajectory_chart, trajectory_frame

TRAJECTORIES_CSV = "trajectories.csv"
TABLES_CSV = "tables.csv"
CROSSING_TOTALS_CSV = "crossing_totals.csv"
MANIFEST_JSON = "manifest.json"
PLOTS_DIR = "plots"

_TRAJECTORIES_HEADER = "rep,n,t,method,covariate,prob,set_size"
# S9: the longest method name has 8 characters, so a longer field reads as
# an unknown name instead of being cut to a known one.  loadtxt encodes the
# field as latin-1: another latin-1 name reads as unknown too, and a name
# outside latin-1 fails the parse as a malformed row
_TRAJECTORY_DTYPE = np.dtype(
    [("rep", "i8"), ("n", "i8"), ("t", "i8"), ("method", "S9"), ("covariate", "i8"), ("prob", "f8"), ("set_size", "i8")]
)
_METHOD_BYTES = np.array(METHODS, dtype="S")


def _in_place(path, flags: int) -> int:
    """open()'s opener for mode "w" without O_TRUNC: an existing file is written over, not emptied first."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


@contextmanager
def _rewrite(path: Path):
    """The one writer of every output file: a text stream over `path`, cut at its end on exit.

    The file is opened without truncation, so rewriting it writes over its
    blocks instead of freeing them and allocating new ones.  On exit, also
    when the body raises, a file that held text when opened is truncated
    where the writing stopped, so no byte of an older, longer text is left
    past the new one; a new (empty) file has nothing to cut.  An OSError
    while opening, writing or truncating raises OutputError naming the file.
    """
    try:
        with open(path, "w", encoding="utf-8", newline="", opener=_in_place) as fh:
            had_text = os.fstat(fh.fileno()).st_size > 0
            try:
                yield fh
            finally:
                if had_text:
                    fh.truncate()
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def write_trajectories_csv(results: list[ReplicationResult], path) -> None:
    """Canonical long-format record: rep,n,t,method,covariate,prob,set_size.

    Rows run over rep, then t, then method, then covariate.  Each (rep, t)
    is written as one string: its "rep,n,t," prefix and ",set_size" suffix
    join the rep's "method,covariate,%.12g" cells into one %-template, which
    a single % call fills with the probabilities (12 significant digits;
    '%.12g' % v is f"{v:.12g}", NaN included).  A list that
    read_trajectories_csv would refuse, of records whose (T, p) differ or
    that repeat a rep id, raises DataError (check_run_records) before the
    file is opened.
    """
    path = Path(path)
    check_run_records(results)
    with _rewrite(path) as fh:
        fh.write(_TRAJECTORIES_HEADER + "\n")
        for res in results:
            probs = np.stack([res.trajectories[meth].probs for meth in METHODS], axis=1)  # (T, methods, p)
            cells = [f"{meth},{k + 1},%.12g" for meth in METHODS for k in range(probs.shape[2])]
            rows = probs.reshape(probs.shape[0], -1).tolist()
            for t_idx, (row, size) in enumerate(zip(rows, res.set_sizes.tolist())):
                prefix = f"{res.rep},{res.n_min + t_idx},{t_idx + 1},"
                suffix = f",{size}\n"
                fh.write((prefix + (suffix + prefix).join(cells) + suffix) % tuple(row))


def write_tables_csv(stats: CrossingStats, path) -> None:
    """Report tables, wide layout: table,method,x1..xp.

    Each line is one %-template of p '%.12g' cells filled by one % call
    ('%.12g' % v is f"{v:.12g}").
    """
    path = Path(path)
    cols = ",".join(f"x{k}" for k in range(1, stats.p + 1))
    cells = ",".join(["%.12g"] * stats.p) + "\n"
    with _rewrite(path) as fh:
        fh.write(f"table,method,{cols}\n")
        for table, per_method in (("mean_crossings", stats.mean_crossings), ("final_inclusion_freq", stats.final_freq)):
            for meth in METHODS:
                fh.write(f"{table},{meth}," + cells % tuple(per_method[meth].tolist()))


def write_crossing_totals_csv(stats: CrossingStats, path) -> None:
    """Per-t mean and sd of the cumulative total crossings, per method.

    A method's T lines are one %-template filled by one % call over its
    interleaved (mean, sd) values.
    """
    path = Path(path)
    with _rewrite(path) as fh:
        fh.write("method,t,mean_total,sd_total\n")
        for meth in METHODS:
            lines = "".join(f"{meth},{t_idx + 1},%.12g,%.12g\n" for t_idx in range(stats.t_max))
            fh.write(lines % tuple(np.column_stack([stats.cum_mean[meth], stats.cum_sd[meth]]).ravel().tolist()))


def write_manifest(config: ExperimentConfig, path, extra: dict | None = None) -> None:
    path = Path(path)
    manifest = {
        "package": "seqbvs",
        "version": __version__,
        "config": asdict(config),
        "seed_rule": SEED_RULE,
        "crossing_tie_rule": "prob == 0.5 counts as active",
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
    }
    if extra:
        manifest.update(extra)
    with _rewrite(path) as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True, default=lambda o: o.tolist()) + "\n")


def read_dgp_beta(directory) -> np.ndarray | None:
    """The data-generating beta recorded in a run directory's manifest, or None without one."""
    path = Path(directory) / MANIFEST_JSON
    if not path.exists():
        return None
    try:
        return np.array(json.loads(path.read_text())["config"]["dgp"]["beta"], dtype=float)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise DataError(f"cannot read config.dgp.beta from {path}: {exc}") from exc


def _plots_dir(outdir) -> Path:
    plots = Path(outdir) / PLOTS_DIR
    try:
        plots.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot create {plots}: {exc}") from exc
    return plots


def write_replication_plots(
    results: list[ReplicationResult], outdir, beta: np.ndarray | None, methods: tuple[str, ...] = METHODS
) -> list[Path]:
    """plots/repNNN_<method>.svg: each replication's inclusion trajectories per method.

    With the data-generating `beta`, its nonzero entries are drawn as actives
    and those of largest |beta| with a thicker stroke; a beta of another
    length than the trajectories' covariate count raises DataError.  Without
    it (a run directory with no manifest), each replication is coloured by
    its final bvs call.  plots/ is created once per call.  Consecutive
    replications with the same (n_min, n_max, colouring) are drawn on one
    frame.
    """
    active, strong = None, ()
    if beta is not None:
        beta = np.asarray(beta, dtype=float)
        for res in results:
            p = res.trajectories["bvs"].probs.shape[1]
            if beta.shape != (p,):
                raise DataError(f"dgp.beta has {beta.size} entries, but rep {res.rep} has {p} covariates")
        active = beta != 0.0
        strong = tuple(int(k) + 1 for k in np.flatnonzero(active & (np.abs(beta) == np.max(np.abs(beta)))))
    plots = _plots_dir(outdir)
    paths = []
    frame_key = None
    for res in results:
        colours = res.trajectories["bvs"].probs[-1] >= 0.5 if active is None else active
        key = (res.n_min, res.n_max, tuple(colours.tolist()))
        if key != frame_key:
            frame_key, frame = key, trajectory_frame(np.arange(res.n_min, res.n_max + 1), colours, strong)
        for meth in methods:
            svg = trajectory_chart(frame, res.trajectories[meth].probs, f"rep {res.rep}, method {meth}")
            path = plots / f"rep{res.rep:03d}_{meth}.svg"
            with _rewrite(path) as fh:
                fh.write(svg)
            paths.append(path)
    return paths


def write_crossing_totals_plot(stats: CrossingStats, outdir) -> Path:
    ts = np.arange(1, stats.t_max + 1)
    svg = crossing_totals_chart(
        ts,
        {meth: (stats.cum_mean[meth], stats.cum_sd[meth]) for meth in ("bvs", "mixed")},
        "cumulative total crossings (mean, +-1 sd)",
    )
    path = _plots_dir(outdir) / "crossing_totals.svg"
    with _rewrite(path) as fh:
        fh.write(svg)
    return path


def emit_outputs(
    results: list[ReplicationResult],
    stats: CrossingStats,
    outdir,
    config: ExperimentConfig,
    plots: bool = True,
    extra_manifest: dict | None = None,
) -> dict[str, object]:
    """Write the full output bundle; returns the paths written."""
    outdir = Path(outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot create {outdir}: {exc}") from exc

    written: dict[str, object] = {}
    write_trajectories_csv(results, outdir / TRAJECTORIES_CSV)
    written["trajectories"] = outdir / TRAJECTORIES_CSV
    write_tables_csv(stats, outdir / TABLES_CSV)
    write_crossing_totals_csv(stats, outdir / CROSSING_TOTALS_CSV)
    written["tables"] = outdir / TABLES_CSV
    written["crossing_totals"] = outdir / CROSSING_TOTALS_CSV
    write_manifest(config, outdir / MANIFEST_JSON, extra=extra_manifest)
    written["manifest"] = outdir / MANIFEST_JSON
    if plots and results:
        written["plots"] = write_replication_plots(results, outdir, config.dgp.beta)
        written["crossing_totals_plot"] = write_crossing_totals_plot(stats, outdir)
    return written


def read_trajectories_csv(path) -> list[ReplicationResult]:
    """Rebuild per-replication results from the CSV, reps in file order.

    One np.loadtxt pass reads the rows into a structured array, with no
    Python object per row.  The rows must run in the writer's order, over
    rep, then t = 1..T, then method, then covariate = 1..p, with one
    distinct rep id per block, so they reshape to a (reps, T, methods, p)
    grid, whose (rep, method) slices each record copies as its (T, p)
    trajectories.  A malformed row (wrong field count, a non-numeric field,
    an unknown method), rows out of that order, rows of one (rep, t) that
    disagree on n or set_size, an n other than n(t = 1) + t - 1, or a record
    that breaks a rule of ReplicationResult raises DataError naming the
    file, as do bytes that are not UTF-8, the writer's encoding.
    """
    path = Path(path)
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise OutputError(f"cannot read {path}: {exc}") from exc
    with fh:
        try:
            header = fh.readline().strip()
        except UnicodeDecodeError as exc:  # the first readline decodes a whole buffer, not just the header
            raise DataError(f"{path} is not UTF-8 text: {exc}") from exc
        if header != _TRAJECTORIES_HEADER:
            raise DataError(f"unexpected trajectories header in {path}: {header!r}")
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                rows = np.loadtxt(fh, dtype=_TRAJECTORY_DTYPE, delimiter=",", comments=None, ndmin=1)
        except ValueError as exc:
            raise DataError(f"malformed row in {path}: {exc}") from exc
    if rows.size == 0:
        return []

    # in the writer's order the rows are the (reps, T, methods, p) grid: t,
    # method and covariate are known per cell, rep is one distinct id per block
    t_max, p = int(rows["t"].max()), int(rows["covariate"].max())
    whole = min(t_max, p) >= 1 and rows.size % (t_max * len(METHODS) * p) == 0
    if whole:
        grid = rows.reshape(-1, t_max, len(METHODS), p)
        rep_ids = grid["rep"][:, 0, 0, 0]
    if not whole or len(set(rep_ids.tolist())) < rep_ids.size or not (
        (grid["rep"] == rep_ids[:, None, None, None])
        & (grid["t"] == np.arange(1, t_max + 1)[:, None, None])
        & (grid["method"] == _METHOD_BYTES[:, None])
        & (grid["covariate"] == np.arange(1, p + 1))
    ).all():
        known = np.isin(rows["method"], _METHOD_BYTES)
        if not known.all():
            raise DataError(f"unknown method {rows['method'][np.argmin(known)].decode('latin-1')!r} in {path}")
        raise DataError(f"{path} repeats, skips or reorders a (rep, t, method, covariate) cell of the writer's order")
    # every row of a (rep, t) must carry the n and set size of its first row
    n_at, sizes = grid["n"][:, :, 0, 0], grid["set_size"][:, :, 0, 0]  # (reps, T)
    if np.any(grid["n"] != n_at[:, :, None, None]) or np.any(grid["set_size"] != sizes[:, :, None, None]):
        raise DataError(f"{path} gives one (rep, t) more than one n or set_size")
    if np.any(n_at != n_at[:, :1] + np.arange(t_max)):
        raise DataError(f"{path} has an n that is not n(t = 1) + t - 1")
    # a rep's (T, methods, p) block with methods first is one (T, p) view per method
    trajectories = [dict(zip(METHODS, map(InclusionTrajectory, METHODS, b.swapaxes(0, 1)))) for b in grid["prob"]]
    try:
        return [
            ReplicationResult(rep, int(n[0]), int(n[-1]), traj, size)
            for rep, n, traj, size in zip(rep_ids.tolist(), n_at, trajectories, sizes)
        ]
    except DataError as exc:  # the record's rule, reported against the file: "<record> has <rule> at rep r, t t"
        raise DataError(f"{path} has {str(exc).partition(' has ')[2]}") from exc


def analyze_directory(directory) -> CrossingStats:
    """Recompute the report tables from a run directory's trajectories CSV."""
    directory = Path(directory)
    results = read_trajectories_csv(directory / TRAJECTORIES_CSV)
    stats = aggregate(results)
    write_tables_csv(stats, directory / TABLES_CSV)
    write_crossing_totals_csv(stats, directory / CROSSING_TOTALS_CSV)
    return stats

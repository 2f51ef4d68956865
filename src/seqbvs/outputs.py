"""Persisted run outputs: trajectories CSV, report tables, plots, manifest.

All numeric output is decimal text with 12 significant digits.  The
trajectories CSV is the canonical record; `analyze` recomputes the report
tables from it alone.  The CSVs and SVGs are functions of the results and
the config alone, so reruns write them byte-identical; the report tables
fill one %-template per line (per method for the crossing totals), and the
plots of one call go into one plots/ directory made once.

The 4 x reps trajectory charts of a run share one x grid (n_min..n_max)
and, coloured by dgp.beta, one set of actives and emphasized covariates,
so their frame is formatted once per run in svg's bounded caches: the x
half of every point, the points template, the axes, the 0.5 rule, the
legend, the draw order and each line's colour and width.  Once per chart
come its title and its own probabilities.

The CSV and the arrays it holds are both whole-array: the writer joins the
rows of one (rep, t) into one string, and the reader parses the file in one
np.loadtxt pass and scatters it into a (reps, methods, T, p) probability
cube whose (rep, method) slices are the (T, p) trajectories, NaN where the
smcs confidence set was empty.  A probability read back equals float() of
its 12-digit text bit for bit, NaN included.
"""

from __future__ import annotations

import json
import math
import platform
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DataError, OutputError
from .experiment import CrossingStats, ExperimentConfig, ReplicationResult, aggregate
from .inclusion import METHODS, PROB_SLACK
from .svg import crossing_totals_chart, trajectory_chart

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
_METHOD_BYTES = tuple(meth.encode() for meth in METHODS)


def _open_for_write(path: Path):
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def write_trajectories_csv(results: list[ReplicationResult], path) -> None:
    """Canonical long-format record: rep,n,t,method,covariate,prob,set_size.

    Rows run over rep, then t, then method, then covariate.  Each (rep, t)
    is written as one string: its "rep,n,t," prefix and ",set_size" suffix
    join the rep's "method,covariate,%.12g" cells into one %-template, which
    a single % call fills with the probabilities (12 significant digits;
    '%.12g' % v is f"{v:.12g}", NaN included).
    """
    path = Path(path)
    with _open_for_write(path) as fh:
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
    with _open_for_write(path) as fh:
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
    with _open_for_write(path) as fh:
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
        "seed_rule": "SeedSequence([base_seed, rep_index, tag]); tags: 1 covariates, "
        "2 noise, 3 mask, 1000+n imputation at sample size n",
        "crossing_tie_rule": "prob == 0.5 counts as active",
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
    }
    if extra:
        manifest.update(extra)
    try:
        with open(path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True, default=lambda o: o.tolist())
            fh.write("\n")
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


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


def _write_text(path: Path, text: str) -> Path:
    with _open_for_write(path) as fh:
        fh.write(text)
    return path


def write_replication_plots(
    results: list[ReplicationResult], outdir, beta: np.ndarray | None, methods: tuple[str, ...] = METHODS
) -> list[Path]:
    """plots/repNNN_<method>.svg: each replication's inclusion trajectories per method.

    With the data-generating `beta`, its nonzero entries are drawn as actives
    and those of largest |beta| with a thicker stroke; a beta of another
    length than the trajectories' covariate count raises DataError.  Without
    it (a run directory with no manifest), each replication is coloured by
    its final bvs call.  plots/ is created once per call.
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
    for res in results:
        ns = np.arange(res.n_min, res.n_max + 1)
        colours = res.final_included["bvs"] if active is None else active
        for meth in methods:
            svg = trajectory_chart(ns, res.trajectories[meth].probs, colours, strong, f"rep {res.rep}, method {meth}")
            paths.append(_write_text(plots / f"rep{res.rep:03d}_{meth}.svg", svg))
    return paths


def write_crossing_totals_plot(stats: CrossingStats, outdir) -> Path:
    ts = np.arange(1, stats.t_max + 1)
    svg = crossing_totals_chart(
        ts,
        {meth: (stats.cum_mean[meth], stats.cum_sd[meth]) for meth in ("bvs", "mixed")},
        "cumulative total crossings (mean, +-1 sd)",
    )
    return _write_text(_plots_dir(outdir) / "crossing_totals.svg", svg)


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
    """Rebuild per-replication results (crossings included) from the CSV.

    One np.loadtxt pass reads the rows into a structured array, with no
    Python object per row.  Every (rep, method, t, covariate) cell must
    appear exactly once, for t = 1..T and covariate = 1..p; the
    probabilities are scattered into a (reps, methods, T, p) cube, and each
    replication gets its crossings from one count on its (T, methods, p)
    stack.  A malformed row (wrong field count, a non-numeric field, an
    unknown method), an incomplete cube, rows of one (rep, t) that disagree
    on n or set_size, an n other than n(t = 1) + t - 1, a probability
    outside [0, 1] (±inf included), NaN in bvs, zero_out or mixed, or an
    smcs row whose NaN entries do not match set_size == 0 (NaN throughout
    an emptied set, none in any other) raises DataError naming the file.
    """
    path = Path(path)
    try:
        fh = open(path)
    except OSError as exc:
        raise OutputError(f"cannot read {path}: {exc}") from exc
    with fh:
        header = fh.readline().strip()
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

    meth_idx = np.full(rows.size, -1)
    for i, meth in enumerate(_METHOD_BYTES):
        meth_idx[rows["method"] == meth] = i
    if np.any(meth_idx < 0):
        raise DataError(f"unknown method {rows['method'][np.argmax(meth_idx < 0)].decode('latin-1')!r} in {path}")
    rep_ids, rep_idx = np.unique(rows["rep"], return_inverse=True)
    t_idx = rows["t"] - 1
    cov_idx = rows["covariate"] - 1
    if t_idx.min() < 0 or cov_idx.min() < 0:
        raise DataError(f"t and covariate must be >= 1 in {path}")
    shape = (rep_ids.size, len(METHODS), int(t_idx.max()) + 1, int(cov_idx.max()) + 1)
    if rows.size != math.prod(shape):
        raise DataError(f"{path} has {rows.size} rows, not one per cell of (rep, method, t, covariate) {shape}")
    flat = np.ravel_multi_index((rep_idx, meth_idx, t_idx, cov_idx), shape)
    if np.any(np.bincount(flat, minlength=rows.size) != 1):
        raise DataError(f"{path} repeats a (rep, method, t, covariate) cell")
    cube = np.empty(shape)
    cube.flat[flat] = rows["prob"]
    # every row of a (rep, t) must carry the n and set size kept for it
    rep_t = rep_idx * shape[2] + t_idx
    n_at = np.empty(shape[0] * shape[2], dtype=np.int64)
    sizes = np.empty_like(n_at)
    n_at[rep_t] = rows["n"]
    sizes[rep_t] = rows["set_size"]
    if np.any(n_at[rep_t] != rows["n"]) or np.any(sizes[rep_t] != rows["set_size"]):
        raise DataError(f"{path} gives one (rep, t) more than one n or set_size")
    n_at = n_at.reshape(shape[0], shape[2])  # (reps, T)
    sizes = sizes.reshape(shape[0], shape[2])
    if np.any(n_at != n_at[:, :1] + np.arange(shape[2])):
        raise DataError(f"{path} has an n that is not n(t = 1) + t - 1")
    # every probability is NaN or lies in [0, 1]; ±inf parses as a float but does not
    outside = (cube < -PROB_SLACK) | (cube > 1.0 + PROB_SLACK)
    if outside.any():
        r, i, t_at = np.argwhere(outside)[0][:3]
        raise DataError(f"{path} has a probability outside [0, 1] in {METHODS[i]} at rep {rep_ids[r]}, t {t_at + 1}")
    # NaN only where the smcs confidence set is empty, and there in every covariate
    nan = np.isnan(cube)
    empty = (sizes == 0)[:, :, None]
    for i, meth in enumerate(METHODS):
        bad = nan[:, i] != empty if meth == "smcs" else nan[:, i]
        if bad.any():
            r, t_at = np.argwhere(bad)[0][:2]
            what = "an smcs NaN pattern that disagrees with set_size == 0" if meth == "smcs" else f"NaN in {meth}"
            raise DataError(f"{path} has {what} at rep {rep_ids[r]}, t {t_at + 1}")

    return [
        ReplicationResult.from_probs(rep, int(n_at[r, 0]), int(n_at[r, -1]), dict(zip(METHODS, cube[r])), sizes[r])
        for r, rep in enumerate(rep_ids.tolist())
    ]


def analyze_directory(directory) -> CrossingStats:
    """Recompute the report tables from a run directory's trajectories CSV."""
    directory = Path(directory)
    results = read_trajectories_csv(directory / TRAJECTORIES_CSV)
    stats = aggregate(results)
    write_tables_csv(stats, directory / TABLES_CSV)
    write_crossing_totals_csv(stats, directory / CROSSING_TOTALS_CSV)
    return stats

"""Persisted run outputs: trajectories CSV, report tables, plots, manifest.

All numeric output is decimal text with 12 significant digits.  The
trajectories CSV is the canonical record; `analyze` recomputes the report
tables from it alone.
"""

from __future__ import annotations

import json
import platform
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DataError, OutputError
from .experiment import CrossingStats, ExperimentConfig, ReplicationResult, aggregate
from .inclusion import METHODS, InclusionTrajectory
from .svg import crossing_totals_chart, trajectory_chart

TRAJECTORIES_CSV = "trajectories.csv"
TABLES_CSV = "tables.csv"
CROSSING_TOTALS_CSV = "crossing_totals.csv"
MANIFEST_JSON = "manifest.json"
PLOTS_DIR = "plots"


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _open_for_write(path: Path):
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def write_trajectories_csv(results: list[ReplicationResult], path) -> None:
    """Canonical long-format record: rep,n,t,method,covariate,prob,set_size."""
    path = Path(path)
    with _open_for_write(path) as fh:
        fh.write("rep,n,t,method,covariate,prob,set_size\n")
        for res in results:
            p = res.trajectories["bvs"].probs.shape[1]
            for t_idx in range(res.trajectories["bvs"].probs.shape[0]):
                n = res.n_min + t_idx
                size = int(res.set_sizes[t_idx])
                for meth in METHODS:
                    row = res.trajectories[meth].probs[t_idx]
                    for k in range(p):
                        fh.write(f"{res.rep},{n},{t_idx + 1},{meth},{k + 1},{_fmt(row[k])},{size}\n")


def write_tables_csv(stats: CrossingStats, path) -> None:
    """Report tables, wide layout: table,method,x1..xp."""
    path = Path(path)
    cols = ",".join(f"x{k}" for k in range(1, stats.p + 1))
    with _open_for_write(path) as fh:
        fh.write(f"table,method,{cols}\n")
        for meth in METHODS:
            vals = ",".join(_fmt(v) for v in stats.mean_crossings[meth])
            fh.write(f"mean_crossings,{meth},{vals}\n")
        for meth in METHODS:
            vals = ",".join(_fmt(v) for v in stats.final_freq[meth])
            fh.write(f"final_inclusion_freq,{meth},{vals}\n")


def write_crossing_totals_csv(stats: CrossingStats, path) -> None:
    """Per-t mean and sd of the cumulative total crossings, per method."""
    path = Path(path)
    with _open_for_write(path) as fh:
        fh.write("method,t,mean_total,sd_total\n")
        for meth in METHODS:
            for t_idx in range(stats.t_max):
                fh.write(
                    f"{meth},{t_idx + 1},{_fmt(stats.cum_mean[meth][t_idx])},"
                    f"{_fmt(stats.cum_sd[meth][t_idx])}\n"
                )


def _config_dict(config: ExperimentConfig) -> dict:
    raw = asdict(config)

    def clean(obj):
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, dict):
            return {k: clean(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [clean(v) for v in obj]
        if isinstance(obj, (np.floating, np.integer)):
            return obj.item()
        return obj

    return clean(raw)


def write_manifest(config: ExperimentConfig, path, extra: dict | None = None) -> None:
    path = Path(path)
    manifest = {
        "package": "seqbvs",
        "version": __version__,
        "config": _config_dict(config),
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
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def write_replication_plots(results: list[ReplicationResult], config: ExperimentConfig, outdir) -> list[Path]:
    plots = Path(outdir) / PLOTS_DIR
    try:
        plots.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot create {plots}: {exc}") from exc
    active = np.array(config.dgp.true_model.bits, dtype=bool)
    strong = tuple(
        k + 1 for k, b in enumerate(config.dgp.beta) if abs(b) == np.max(np.abs(config.dgp.beta)) and b != 0
    )
    paths = []
    for res in results:
        ns = np.arange(res.n_min, res.n_max + 1)
        for meth in METHODS:
            svg = trajectory_chart(
                ns,
                res.trajectories[meth].probs,
                active,
                strong,
                f"rep {res.rep}, method {meth}",
            )
            path = plots / f"rep{res.rep:03d}_{meth}.svg"
            with _open_for_write(path) as fh:
                fh.write(svg)
            paths.append(path)
    return paths


def write_crossing_totals_plot(stats: CrossingStats, outdir) -> Path:
    plots = Path(outdir) / PLOTS_DIR
    plots.mkdir(parents=True, exist_ok=True)
    ts = np.arange(1, stats.t_max + 1)
    svg = crossing_totals_chart(
        ts,
        {meth: (stats.cum_mean[meth], stats.cum_sd[meth]) for meth in ("bvs", "mixed")},
        "cumulative total crossings (mean, +-1 sd)",
    )
    path = plots / "crossing_totals.svg"
    with _open_for_write(path) as fh:
        fh.write(svg)
    return path


def emit_outputs(
    results: list[ReplicationResult],
    stats: CrossingStats | None,
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
    if stats is not None:
        write_tables_csv(stats, outdir / TABLES_CSV)
        write_crossing_totals_csv(stats, outdir / CROSSING_TOTALS_CSV)
        written["tables"] = outdir / TABLES_CSV
        written["crossing_totals"] = outdir / CROSSING_TOTALS_CSV
    write_manifest(config, outdir / MANIFEST_JSON, extra=extra_manifest)
    written["manifest"] = outdir / MANIFEST_JSON
    if plots and results:
        written["plots"] = write_replication_plots(results, config, outdir)
        if stats is not None:
            written["crossing_totals_plot"] = write_crossing_totals_plot(stats, outdir)
    return written


def read_trajectories_csv(path) -> list[ReplicationResult]:
    """Rebuild per-replication results (crossings included) from the CSV."""
    path = Path(path)
    try:
        fh = open(path)
    except OSError as exc:
        raise OutputError(f"cannot read {path}: {exc}") from exc
    with fh:
        header = fh.readline().strip()
        if header != "rep,n,t,method,covariate,prob,set_size":
            raise DataError(f"unexpected trajectories header in {path}: {header!r}")
        cells: dict[int, dict] = {}
        for line in fh:
            rep_s, n_s, t_s, meth, cov_s, prob_s, size_s = line.rstrip("\n").split(",")
            rep, n, t, cov = int(rep_s), int(n_s), int(t_s), int(cov_s)
            entry = cells.setdefault(rep, {"n_by_t": {}, "size_by_t": {}, "probs": {}})
            entry["n_by_t"][t] = n
            entry["size_by_t"][t] = int(size_s)
            entry["probs"].setdefault(meth, {})[(t, cov)] = float(prob_s)

    from .experiment import count_crossings  # local import to avoid a cycle

    results = []
    for rep in sorted(cells):
        entry = cells[rep]
        ts = sorted(entry["n_by_t"])
        t_max = len(ts)
        p = max(cov for (_, cov) in entry["probs"]["bvs"])
        n_min = entry["n_by_t"][ts[0]]
        n_max = entry["n_by_t"][ts[-1]]
        trajectories = {}
        crossings = {}
        final_included = {}
        had_nan = {}
        for meth in METHODS:
            mat = np.full((t_max, p), np.nan)
            for (t, cov), v in entry["probs"][meth].items():
                mat[t - 1, cov - 1] = v
            trajectories[meth] = InclusionTrajectory(meth, mat)
            crossings[meth] = np.array([count_crossings(mat[:, k]) for k in range(p)])
            final_included[meth] = mat[-1] >= 0.5
            had_nan[meth] = bool(np.isnan(mat).any())
        set_sizes = np.array([entry["size_by_t"][t] for t in ts], dtype=np.int64)
        results.append(
            ReplicationResult(
                rep=rep,
                n_min=n_min,
                n_max=n_max,
                trajectories=trajectories,
                set_sizes=set_sizes,
                crossings=crossings,
                final_included=final_included,
                had_nan=had_nan,
            )
        )
    return results


def analyze_directory(directory) -> CrossingStats:
    """Recompute the report tables from a run directory's trajectories CSV."""
    directory = Path(directory)
    results = read_trajectories_csv(directory / TRAJECTORIES_CSV)
    stats = aggregate(results)
    write_tables_csv(stats, directory / TABLES_CSV)
    write_crossing_totals_csv(stats, directory / CROSSING_TOTALS_CSV)
    return stats

"""Benchmark of the seqbvs sequential study, one workload per process.

    python3 perfbench/run.py --workload desk_stream --seed 1 --seconds 40 --trace 0

Runs closed-loop rounds of one workload (see workloads.py and README.md)
for --seconds, checks the outputs, prints one info line and then, as the
last line, a JSON object with the keys correct, attempted, failed and
metrics.  --trace 0 gives the end-to-end metrics, medians in reference
seconds (clock.py); --trace 1 alternates untraced and traced rounds and
gives the per-layer metrics, in wall seconds.  Exits 1 when a
correctness check fails and 2 when seqbvs cannot be imported from src/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from clock import SpeedMeter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "steps_per_s": "1/s",
    "rep_s.p50": "s",
    "emit_s": "s",
    "analyze_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "experiment.run_replication.busy_s": "s",
    "imputation.impute.calls": "count",
    "imputation.impute.busy_s": "s",
    "imputation.impute.share": "fraction",
    "imputation.fits": "count",
    "imputation.us_per_fit": "us",
    "bayes_lm.model_sweep.calls": "count",
    "bayes_lm.model_sweep.busy_s": "s",
    "bayes_lm.model_sweep.share": "fraction",
    "bayes_lm.model_sweep.ms_per_call": "ms",
    "bayes_lm.model_sweep.models_per_s": "1/s",
    "bayes_lm.gram.busy_s": "s",
    "bayes_lm.pool.busy_s": "s",
    "smcs.busy_s": "s",
    "smcs.us_per_step": "us",
    "smcs.final_set_size.mean": "count",
    "inclusion.busy_s": "s",
    "inclusion.zero_out_fallbacks": "count",
    "data_gen.busy_s": "s",
    "experiment.self_s": "s",
    "experiment.step_ms.p50": "ms",
    "experiment.step_ms.p90": "ms",
    "experiment.aggregate.busy_s": "s",
    "outputs.write_trajectories.busy_s": "s",
    "outputs.plots.busy_s": "s",
    "outputs.read_trajectories.busy_s": "s",
    "outputs.bytes_written": "bytes",
    "outputs.rows_per_s": "1/s",
    "trace.overhead": "ratio",
}


def _pin_threads() -> None:
    # must run before numpy is first imported, here and in the set-up children
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def time_setup(args, meter: SpeedMeter) -> tuple[float, float]:
    """Span of a fresh interpreter doing the set-up (imports included)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    with meter.paused():
        start = perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        return start, perf_counter()


class Recorder:
    """Spans of the timed units of one run, kept separately for untraced and traced rounds.

    A span is (start, end) in perf_counter seconds; it is read in seconds
    only when the run has ended, because a unit's speed is read from the
    meter's chunks on both sides of it.
    """

    def __init__(self) -> None:
        self.rounds: list[dict[str, list[tuple[float, float]]]] = []
        self.bytes_written = 0
        self.rows = 0
        self.final_sizes: list[int] = []

    def samples(self, seconds, wl, config) -> dict[str, list[float]]:
        """Per-unit and per-round samples, with each span read by seconds(start, end)."""
        out: dict[str, list[float]] = {"rep": [], "emit": [], "analyze": [], "round": [], "steps_per_s": []}
        for spans in self.rounds:
            secs = {kind: [seconds(*span) for span in unit_spans] for kind, unit_spans in spans.items()}
            round_s = sum(sum(unit_secs) for unit_secs in secs.values())
            out["emit"] += secs["emit"]
            out["analyze"] += secs["analyze"]
            out["round"].append(round_s)
            if wl.simulate:
                out["rep"] += secs["rep"]
                out["steps_per_s"].append(len(secs["rep"]) * config.t_max / sum(secs["rep"]))
            else:
                out["rep"].append(round_s / config.reps)
                out["steps_per_s"].append(wl.out_repeats * config.reps * config.t_max / round_s)
        return out


class Run:
    """One workload's closed loop: the next call starts when the last returns."""

    def __init__(self, workload, inputs, outdir: Path) -> None:
        self.workload = workload
        self.inputs = inputs
        self.outdir = outdir
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, str] = {}
        self.digests: set[str] = set()

    def fail_check(self, name: str, reason: str | None) -> None:
        if reason is not None and name not in self.failures:
            self.failures[name] = reason

    def _unit(self, fn, *args):
        """One attempted unit; a raised error counts it as failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # a failed unit must not stop the loop
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None

    def round(self, rec: Recorder, tracer=None) -> None:
        import checks
        from seqbvs.experiment import aggregate, run_replication
        from seqbvs.outputs import CROSSING_TOTALS_CSV, TABLES_CSV, TRAJECTORIES_CSV, analyze_directory, emit_outputs

        def call(name, fn):
            return fn if tracer is None else tracer.wrap(name, fn)

        wl, config, out = self.workload, self.inputs.config, self.outdir
        spans: dict[str, list[tuple[float, float]]] = {"rep": [], "aggregate": [], "emit": [], "analyze": []}
        if wl.simulate:
            results = []
            for rep in range(config.reps):
                start = perf_counter()
                res = self._unit(call("experiment.run_replication", run_replication), config, rep)
                spans["rep"].append((start, perf_counter()))
                if res is None:
                    return
                results.append(res)
        else:
            results = self.inputs.replay
        self.fail_check("results", checks.check_results(results, self.inputs.m))
        rec.final_sizes.extend(int(r.set_sizes[-1]) for r in results)

        def round_trip():
            start = perf_counter()
            stats = call("experiment.aggregate", aggregate)(results)
            mid = perf_counter()
            call("outputs.emit_outputs", emit_outputs)(results, stats, out, config, plots=wl.plots)
            emitted = perf_counter()
            written = {name: (out / name).read_bytes() for name in (TABLES_CSV, CROSSING_TOTALS_CSV)}
            rec.bytes_written += sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
            again = perf_counter()
            call("outputs.analyze_directory", analyze_directory)(out)
            end = perf_counter()
            for name, before in written.items():
                after = (out / name).read_bytes()
                rec.bytes_written += len(after)
                if after != before:
                    self.fail_check("analyze_tables", f"{name} rewritten by analyze differs from the in-memory aggregate")
            spans["aggregate"].append((start, mid))
            spans["emit"].append((mid, emitted))
            spans["analyze"].append((again, end))

        for _ in range(wl.out_repeats):
            self._unit(round_trip)
            if self.failed:
                return
        rec.rows += 2 * wl.out_repeats * len(results) * config.t_max * 4 * config.dgp.p
        rec.rounds.append(spans)
        self.digests.add(checks.file_sha256(out / TRAJECTORIES_CSV))


def end_to_end(setup_s: list[float], samples: dict[str, list[float]]) -> dict[str, float]:
    """Medians of the run."""
    import resource

    return {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(samples["round"]),
        "steps_per_s": statistics.median(samples["steps_per_s"]),
        "rep_s.p50": statistics.median(samples["rep"]),
        "emit_s": statistics.median(samples["emit"]),
        "analyze_s": statistics.median(samples["analyze"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, traced: Recorder, config, traced_rates: list[float], plain_rates: list[float]) -> dict[str, float]:
    """Layer metrics per traced round, from the spans and counts; rates are steps_per_s per round."""
    spans = tracer.finished()
    rounds = len(traced.rounds)

    def busy(name: str) -> float:
        return sum(s.seconds for s in spans if s.name == name)

    rep_ids = {i for i, s in enumerate(spans) if s.name == "experiment.run_replication"}
    rep_wall = sum(spans[i].seconds for i in rep_ids)
    children = [s for s in spans if s.parent in rep_ids]
    step_ms = []
    for rep in rep_ids:
        kids = [s for s in spans if s.parent == rep]
        starts = [s.start for s in kids if s.name == "imputation.impute"]
        ends = starts[1:] + [kids[-1].end] if kids else []
        step_ms += [(b - a) * 1e3 for a, b in zip(starts, ends)]
    impute_calls = sum(1 for s in spans if s.name == "imputation.impute")
    sweep_calls = sum(1 for s in spans if s.name == "bayes_lm.model_sweep")
    fits = tracer.counts["imputation.fits"]
    steps = len(rep_ids) * config.t_max
    rw_s = busy("outputs.write_trajectories") + busy("outputs.read_trajectories")

    def share(x: float) -> float:
        return x / rep_wall if rep_wall else 0.0

    def ratio(x: float, y: float) -> float:
        return x / y if y else 0.0

    return {
        "experiment.run_replication.busy_s": rep_wall / rounds,
        "imputation.impute.calls": impute_calls / rounds,
        "imputation.impute.busy_s": busy("imputation.impute") / rounds,
        "imputation.impute.share": share(busy("imputation.impute")),
        "imputation.fits": fits / rounds,
        "imputation.us_per_fit": ratio(busy("imputation.impute") * 1e6, fits),
        "bayes_lm.model_sweep.calls": sweep_calls / rounds,
        "bayes_lm.model_sweep.busy_s": busy("bayes_lm.model_sweep") / rounds,
        "bayes_lm.model_sweep.share": share(busy("bayes_lm.model_sweep")),
        "bayes_lm.model_sweep.ms_per_call": ratio(busy("bayes_lm.model_sweep") * 1e3, sweep_calls),
        "bayes_lm.model_sweep.models_per_s": ratio(tracer.counts["bayes_lm.models"], busy("bayes_lm.model_sweep")),
        "bayes_lm.gram.busy_s": busy("bayes_lm.gram") / rounds,
        "bayes_lm.pool.busy_s": busy("bayes_lm.pool") / rounds,
        "smcs.busy_s": busy("smcs") / rounds,
        "smcs.us_per_step": ratio(busy("smcs") * 1e6, steps),
        "smcs.final_set_size.mean": statistics.mean(traced.final_sizes),
        "inclusion.busy_s": busy("inclusion") / rounds,
        "inclusion.zero_out_fallbacks": tracer.counts["inclusion.zero_out_fallbacks"] / rounds,
        "data_gen.busy_s": busy("data_gen") / rounds,
        "experiment.self_s": (rep_wall - sum(s.seconds for s in children)) / rounds,
        "experiment.step_ms.p50": statistics.median(step_ms) if step_ms else 0.0,
        "experiment.step_ms.p90": _quantile(step_ms, 0.9) if step_ms else 0.0,
        "experiment.aggregate.busy_s": busy("experiment.aggregate") / rounds,
        "outputs.write_trajectories.busy_s": busy("outputs.write_trajectories") / rounds,
        "outputs.plots.busy_s": busy("outputs.plots") / rounds,
        "outputs.read_trajectories.busy_s": busy("outputs.read_trajectories") / rounds,
        "outputs.bytes_written": traced.bytes_written / rounds,
        "outputs.rows_per_s": ratio(traced.rows, rw_s),
        "trace.overhead": statistics.median(traced_rates) / statistics.median(plain_rates),
    }


def environment_info() -> dict:
    import numpy as np

    try:
        from seqbvs import _kernels as kernels
    except ImportError:  # a later change may drop the module and its backend names
        kernels = None
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "sweep_backend": getattr(kernels, "ACTIVE_BACKEND", None),
        "has_numba": getattr(kernels, "HAS_NUMBA", None),
    }


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    _pin_threads()
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        import seqbvs
    except ImportError as exc:
        print(f"error: cannot import seqbvs from {SRC}: {exc}", file=sys.stderr)
        return 2
    if SRC.resolve() not in Path(seqbvs.__file__).resolve().parents:
        print(f"error: seqbvs was imported from {seqbvs.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import checks
    import workloads
    from clock import CALIB_REF_S, SpeedMeter
    from spans import Tracer, traced_layers

    workload = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        workloads.setup(workload, args.seed, args.smoke)
        return 0

    setup_spans: list[tuple[float, float]] = []
    inputs = workloads.setup(workload, args.seed, args.smoke)
    (HERE / "_runs").mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "_runs"))
    # the traced run reads wall seconds: the meter's chunks would land inside the spans
    meter = None if args.trace else SpeedMeter()
    run = Run(workload, inputs, outdir)
    for x_mat, y, g in inputs.sweep:
        run.fail_check("sweep", checks.check_sweep(x_mat, y, g))

    plain, traced, tracer = Recorder(), Recorder(), Tracer()
    try:
        with meter or nullcontext():
            deadline = perf_counter() + args.seconds
            min_rounds = 4 if args.trace else 2
            round_wall: list[float] = []
            while len(round_wall) < min_rounds or perf_counter() + statistics.median(round_wall) <= deadline:
                start = perf_counter()
                if args.trace and len(round_wall) % 2 == 1:
                    with traced_layers(tracer):
                        run.round(traced, tracer)
                else:
                    run.round(plain)
                round_wall.append(perf_counter() - start)
                if run.failed:
                    break
                if meter is not None and len(setup_spans) < SETUP_REPEATS:
                    # spread over the run, so that one slow spell does not set the median
                    setup_spans.append(time_setup(args, meter))
            while meter is not None and len(setup_spans) < SETUP_REPEATS:
                setup_spans.append(time_setup(args, meter))
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    if len(run.digests) > 1:
        run.fail_check("repeat_digest", f"rounds gave {len(run.digests)} different trajectories digests")
    correct = not run.failures and not run.failed

    def wall(start: float, end: float) -> float:
        return meter.reference_s(start, end)[0] if meter is not None else end - start

    def reference(start: float, end: float) -> float:
        return meter.reference_s(start, end)[1] if meter is not None else end - start

    config = inputs.config
    wall_samples = plain.samples(wall, workload, config)
    ref_samples = plain.samples(reference, workload, config)
    if args.trace:
        traced_rates = traced.samples(wall, workload, config)["steps_per_s"]
        metrics = per_layer(tracer, traced, config, traced_rates, wall_samples["steps_per_s"]) if not run.failed else {}
        units = LAYER_UNITS
    else:
        metrics = end_to_end([reference(*span) for span in setup_spans], ref_samples) if not run.failed else {}
        units = E2E_UNITS
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(plain.rounds) + len(traced.rounds),
        "failed_frac": run.failed / run.attempted,
        "trajectories_sha256": sorted(run.digests),
        "calib_s": meter.summary() if meter is not None else None,
        "calib_ref_s": CALIB_REF_S,
        "round_wall_s": round_wall,
        "wall_samples_s": {"setup": [wall(*span) for span in setup_spans], **{k: wall_samples[k] for k in ("rep", "emit", "analyze")}},
        "ref_samples_s": {"setup": [reference(*span) for span in setup_spans], **{k: ref_samples[k] for k in ("rep", "emit", "analyze")}},
        "check_failures": run.failures,
        **environment_info(),
    }
    print(json.dumps({"info": info}))
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units if name in metrics},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())

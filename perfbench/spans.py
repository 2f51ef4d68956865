"""In-memory spans around the calls the benchmark makes into seqbvs layers.

The tracer wraps the public functions as they are bound in
``seqbvs.experiment`` and ``seqbvs.outputs`` (the names those modules look
up at call time), so no code inside the package changes.  Spans nest by a
stack: a replication span holds the layer calls made while it runs.  A name
that a module no longer binds is skipped and its layer reads zero.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counts in memory; they are reduced when the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, on_call: Callable | None = None) -> Callable:
        """fn recorded as a span named `name`; on_call(tracer, args, result) adds counts."""

        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx] = Span(name, start, perf_counter(), parent)
                self._stack.pop()
            if on_call is not None:
                on_call(self, args, result)
            return result

        return traced

    def finished(self) -> list[Span]:
        return [s for s in self.spans if s is not None]


def _count_fits(tracer: Tracer, args: tuple, result) -> None:
    # one conditional fit per (completion, sweep, column with missing cells)
    data, config = args[0], args[1]
    cols_with_missing = int((~data.mask.all(axis=0)).sum())
    tracer.counts["imputation.fits"] += config.M * config.sweeps * cols_with_missing


def _count_models(tracer: Tracer, args: tuple, result) -> None:
    tracer.counts["bayes_lm.models"] += len(result)


def _count_fallback(tracer: Tracer, args: tuple, result) -> None:
    tracer.counts["inclusion.zero_out_fallbacks"] += int(result.fallback)


# (module attribute, span name, count hook) for every layer call to record
EXPERIMENT_CALLS = (
    ("gen_covariates", "data_gen", None),
    ("gen_responses", "data_gen", None),
    ("apply_missingness", "data_gen", None),
    ("impute", "imputation.impute", _count_fits),
    ("model_sweep", "bayes_lm.model_sweep", _count_models),
    ("pool_log_bf", "bayes_lm.pool", None),
    ("posterior_from_imputations", "bayes_lm.pool", None),
    ("loss_from_log_marginals", "smcs", None),
    ("step", "smcs", None),
    ("confidence_set", "smcs", None),
    ("bvs_inclusion", "inclusion", None),
    ("smcs_inclusion", "inclusion", None),
    ("zero_out", "inclusion", _count_fallback),
    ("mixed_inclusion", "inclusion", None),
)
OUTPUTS_CALLS = (
    ("write_trajectories_csv", "outputs.write_trajectories", None),
    ("write_replication_plots", "outputs.plots", None),
    ("write_crossing_totals_plot", "outputs.plots", None),
    ("read_trajectories_csv", "outputs.read_trajectories", None),
    ("aggregate", "experiment.aggregate", None),
)


@contextmanager
def traced_layers(tracer: Tracer):
    """Swap the layer functions bound in seqbvs.experiment/outputs for traced ones."""
    from seqbvs import experiment, outputs

    saved = []

    def patch(module, attr, value):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    try:
        for module, calls in ((experiment, EXPERIMENT_CALLS), (outputs, OUTPUTS_CALLS)):
            for attr, name, hook in calls:
                fn = getattr(module, attr, None)
                if fn is not None:
                    patch(module, attr, tracer.wrap(name, fn, hook))
        gram = getattr(experiment, "GramStats", None)
        if gram is not None:
            # run_replication calls GramStats.from_data; give it a traced stand-in
            proxy = type("GramStats", (), {"from_data": staticmethod(tracer.wrap("bayes_lm.gram", gram.from_data))})
            patch(experiment, "GramStats", proxy)
        yield tracer
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)

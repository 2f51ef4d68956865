"""Flat key=value config files with dotted sections.

Example::

    run.reps=20
    dgp.sigma2=2.5
    dgp.rho=0.5
    missing.rate=0.4
    imp.M=50
    smcs.alpha=0.1
    smcs.varsigma=0.65

Precedence: profile defaults < config file < explicit CLI overrides.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .data_gen import DGPConfig, equicorrelated_cov
from .errors import ConfigError
from .experiment import ExperimentConfig, MissingnessConfig, default_config
from .imputation import ImputationConfig
from .smcs import SmcsConfig

_RUN_INT = {"run.reps": "reps", "run.n_min": "n_min", "run.n_max": "n_max", "run.base_seed": "base_seed"}
_RUN_STR = {
    "run.g_rule": "g_rule",
    "run.model_prior": "model_prior",
    "run.loss_mode": "loss_mode",
    "run.pooling": "pooling",
}

KNOWN_KEYS = (
    sorted(_RUN_INT)
    + sorted(_RUN_STR)
    + [
        "dgp.p",
        "dgp.beta",
        "dgp.sigma2",
        "dgp.rho",
        "dgp.cov_csv",
        "missing.rate",
        "missing.mechanism",
        "imp.M",
        "imp.sweeps",
        "imp.min_n",
        "imp.min_col_obs",
        "smcs.alpha",
        "smcs.lambda",
        "smcs.varsigma",
    ]
)


def parse_config_text(text: str) -> dict[str, str]:
    """key=value lines; blank lines and '#' comments ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _to_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from exc


def _to_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from exc


def build_config(
    kv: dict[str, str],
    profile: str = "desk",
    config_dir: Path | None = None,
) -> ExperimentConfig:
    """ExperimentConfig from parsed keys on top of the profile defaults."""
    unknown = set(kv) - set(KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}; known: {KNOWN_KEYS}")

    base = default_config(profile)

    p = _to_int("dgp.p", kv["dgp.p"]) if "dgp.p" in kv else base.dgp.p
    if "dgp.beta" in kv:
        beta = np.array([_to_float("dgp.beta", v) for v in kv["dgp.beta"].split(",")])
    elif p == base.dgp.p:
        beta = base.dgp.beta
    else:
        raise ConfigError("dgp.beta must be given when dgp.p differs from the default")
    sigma2 = _to_float("dgp.sigma2", kv["dgp.sigma2"]) if "dgp.sigma2" in kv else base.dgp.sigma2
    if "dgp.cov_csv" in kv:
        cov_path = Path(kv["dgp.cov_csv"])
        if not cov_path.is_absolute() and config_dir is not None:
            cov_path = config_dir / cov_path
        try:
            cov = np.loadtxt(cov_path, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"dgp.cov_csv: cannot parse {cov_path}: {exc}") from exc
    elif "dgp.rho" in kv:
        cov = equicorrelated_cov(p, _to_float("dgp.rho", kv["dgp.rho"]))
    elif p == base.dgp.p:
        cov = base.dgp.cov
    else:
        cov = equicorrelated_cov(p)
    dgp = DGPConfig(p=p, beta=beta, sigma2=sigma2, cov=cov)

    imp = ImputationConfig(
        M=_to_int("imp.M", kv["imp.M"]) if "imp.M" in kv else base.imp.M,
        sweeps=_to_int("imp.sweeps", kv["imp.sweeps"]) if "imp.sweeps" in kv else base.imp.sweeps,
        min_n=_to_int("imp.min_n", kv["imp.min_n"]) if "imp.min_n" in kv else base.imp.min_n,
        min_col_obs=_to_int("imp.min_col_obs", kv["imp.min_col_obs"])
        if "imp.min_col_obs" in kv
        else base.imp.min_col_obs,
    )

    smcs_kwargs: dict = {"alpha": _to_float("smcs.alpha", kv["smcs.alpha"]) if "smcs.alpha" in kv else base.smcs.alpha}
    if "smcs.lambda" in kv:
        smcs_kwargs["lam"] = _to_float("smcs.lambda", kv["smcs.lambda"])
        smcs_kwargs["varsigma"] = (
            _to_float("smcs.varsigma", kv["smcs.varsigma"]) if "smcs.varsigma" in kv else None
        )
    elif "smcs.varsigma" in kv:
        smcs_kwargs["varsigma"] = _to_float("smcs.varsigma", kv["smcs.varsigma"])
    smcs = SmcsConfig(**smcs_kwargs)

    missing = MissingnessConfig(
        rate=_to_float("missing.rate", kv["missing.rate"]) if "missing.rate" in kv else base.missing.rate,
        mechanism=kv.get("missing.mechanism", base.missing.mechanism),
    )

    cfg = ExperimentConfig(
        reps=_to_int("run.reps", kv["run.reps"]) if "run.reps" in kv else base.reps,
        n_min=_to_int("run.n_min", kv["run.n_min"]) if "run.n_min" in kv else base.n_min,
        n_max=_to_int("run.n_max", kv["run.n_max"]) if "run.n_max" in kv else base.n_max,
        dgp=dgp,
        imp=imp,
        smcs=smcs,
        missing=missing,
        g_rule=kv.get("run.g_rule", base.g_rule),
        model_prior=kv.get("run.model_prior", base.model_prior),
        base_seed=_to_int("run.base_seed", kv["run.base_seed"]) if "run.base_seed" in kv else base.base_seed,
        loss_mode=kv.get("run.loss_mode", base.loss_mode),
        pooling=kv.get("run.pooling", base.pooling),
    )
    return cfg


def load_config(path, profile: str = "desk") -> ExperimentConfig:
    """Parse and build an ExperimentConfig from a config file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return build_config(parse_config_text(text), profile=profile, config_dir=path.parent)

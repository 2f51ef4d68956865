"""Flat key=value config files with dotted sections.

Example::

    run.reps=20
    dgp.sigma2=2.5
    dgp.rho=0.5
    missing.rate=0.4
    imp.M=50
    smcs.alpha=0.1
    smcs.varsigma=0.65

Each setting has one key: smcs.varsigma sets the E-process scale (lambda is
derived from it), dgp.rho the equicorrelated covariance, and
missing.mechanism takes one of the names in data_gen.MECHANISMS as spelled.

Precedence: profile defaults < config file < explicit CLI overrides.  The
CLI passes its overrides as keys layered over the file's, so both go
through `build_config`.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .data_gen import equicorrelated_cov
from .errors import ConfigError
from .experiment import ExperimentConfig, default_config


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


def _to_str(key: str, value: str) -> str:
    return value


# key -> (ExperimentConfig section, or None for a top-level field; field; parser)
_FIELDS = {
    "run.reps": (None, "reps", _to_int),
    "run.n_min": (None, "n_min", _to_int),
    "run.n_max": (None, "n_max", _to_int),
    "run.base_seed": (None, "base_seed", _to_int),
    "run.g_rule": (None, "g_rule", _to_str),
    "run.model_prior": (None, "model_prior", _to_str),
    "run.loss_mode": (None, "loss_mode", _to_str),
    "run.pooling": (None, "pooling", _to_str),
    "dgp.sigma2": ("dgp", "sigma2", _to_float),
    "missing.rate": ("missing", "rate", _to_float),
    "missing.mechanism": ("missing", "mechanism", _to_str),
    "imp.M": ("imp", "M", _to_int),
    "imp.sweeps": ("imp", "sweeps", _to_int),
    "imp.min_n": ("imp", "min_n", _to_int),
    "imp.min_col_obs": ("imp", "min_col_obs", _to_int),
    "smcs.alpha": ("smcs", "alpha", _to_float),
    "smcs.varsigma": ("smcs", "varsigma", _to_float),
}
# keys that tie several fields together, applied by hand in build_config
_TIED = ("dgp.p", "dgp.beta", "dgp.rho")

KNOWN_KEYS = tuple(_FIELDS) + _TIED


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


def _dgp_fields(kv: dict[str, str], base: ExperimentConfig) -> dict:
    """p, beta and cov, which must agree in size, from the dgp.* keys."""
    p = _to_int("dgp.p", kv["dgp.p"]) if "dgp.p" in kv else base.dgp.p
    if "dgp.beta" in kv:
        beta = np.array([_to_float("dgp.beta", v) for v in kv["dgp.beta"].split(",")])
    elif p == base.dgp.p:
        beta = base.dgp.beta
    else:
        raise ConfigError("dgp.beta must be given when dgp.p differs from the default")
    if "dgp.rho" in kv:
        cov = equicorrelated_cov(p, _to_float("dgp.rho", kv["dgp.rho"]))
    else:
        cov = base.dgp.cov if p == base.dgp.p else equicorrelated_cov(p)
    return {"p": p, "beta": beta, "cov": cov}


def build_config(kv: dict[str, str], profile: str = "desk") -> ExperimentConfig:
    """ExperimentConfig from parsed keys on top of the profile defaults.

    Every section is rebuilt with dataclasses.replace, so each one validates
    its own fields (and SmcsConfig derives lam from varsigma).
    """
    unknown = set(kv) - set(KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}; known: {list(KNOWN_KEYS)}")

    base = default_config(profile)
    top: dict = {}
    sections: dict[str, dict] = {"dgp": {}, "imp": {}, "smcs": {}, "missing": {}}
    for key, value in kv.items():
        if key in _FIELDS:
            section, name, parse = _FIELDS[key]
            (top if section is None else sections[section])[name] = parse(key, value)
    sections["dgp"].update(_dgp_fields(kv, base))
    rebuilt = {section: replace(getattr(base, section), **changes) for section, changes in sections.items()}
    return replace(base, **rebuilt, **top)

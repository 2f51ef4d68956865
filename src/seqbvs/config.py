"""Flat key=value config files with dotted sections.

Example::

    run.reps=20
    dgp.sigma2=2.5
    dgp.rho=0.5
    missing.rate=0.4
    imp.M=50
    smcs.alpha=0.1
    smcs.varsigma=0.65

The keys are the init fields of ExperimentConfig (run.<field>) and of its
sections dgp, imp, smcs and missing (<section>.<field>); derived fields
(dgp.cov, dgp.true_model, smcs.lam) have no key.  Each value is parsed by
its field's type: int, float, text, or comma-separated floats for
dgp.beta.  dgp.beta must be given when dgp.p differs from the default,
since the two must agree in length.  A key given twice takes its last value.

Precedence: profile defaults < config file < explicit CLI overrides.  The
CLI passes its overrides as keys layered over the file's, so both go
through `build_config`.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass, replace
from typing import get_type_hints

import numpy as np

from .errors import ConfigError
from .experiment import ExperimentConfig, default_config


def _init_types(cls) -> dict[str, type]:
    """Init field name -> its annotated type, for a config dataclass."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls) if f.init}


_RUN = _init_types(ExperimentConfig)
_SECTIONS = tuple(name for name, kind in _RUN.items() if is_dataclass(kind))
_KEY_TYPES = {f"run.{name}": kind for name, kind in _RUN.items() if name not in _SECTIONS} | {
    f"{section}.{name}": kind for section in _SECTIONS for name, kind in _init_types(_RUN[section]).items()
}

KNOWN_KEYS = tuple(_KEY_TYPES)


def parse_config_text(text: str) -> dict[str, str]:
    """key=value lines; blank lines and '#' comments ignored; a repeated key keeps its last value."""
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


def _parse(key: str, value: str):
    """The value of a key as its field's type (np.ndarray: comma-separated floats)."""
    kind = _KEY_TYPES[key]
    try:
        if kind is np.ndarray:
            return np.array([float(v) for v in value.split(",")])
        return kind(value)
    except ValueError as exc:
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key}: expected {expected}, got {value!r}") from exc


def build_config(kv: dict[str, str], profile: str = "desk") -> ExperimentConfig:
    """ExperimentConfig from parsed keys on top of the profile defaults.

    Every section is rebuilt with dataclasses.replace, so each one validates
    its own fields and derives the rest (dgp.cov from dgp.p and dgp.rho,
    smcs.lam from smcs.varsigma).
    """
    unknown = set(kv) - set(KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}; known: {list(KNOWN_KEYS)}")

    base = default_config(profile)
    changes: dict[str, dict] = {"run": {}, **{section: {} for section in _SECTIONS}}
    for key, value in kv.items():
        section, name = key.split(".", 1)
        changes[section][name] = _parse(key, value)
    if "beta" not in changes["dgp"] and changes["dgp"].get("p", base.dgp.p) != base.dgp.p:
        raise ConfigError("dgp.beta must be given when dgp.p differs from the default")
    rebuilt = {section: replace(getattr(base, section), **changes[section]) for section in _SECTIONS}
    return replace(base, **rebuilt, **changes["run"])

"""Run configuration: scan step, prime cutoff and output, with file and
flag overrides. The evaluator's numerics are constants in zeta.py.

Config files are flat ``key = value`` text; unknown keys are rejected so
typos fail loudly. The ZH_CONFIG environment variable points at a default
file; explicit --config wins over it and --set flags win over both.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .errors import UsageError


@dataclass(frozen=True)
class RunConfig:
    scan_step: float = 0.01
    prime_cutoff: int = 10 ** 6
    output_dir: str = "out"
    format: str = "json"

    def __post_init__(self):
        # the floor keeps locate_zeros' finest grid, three halvings at
        # T = 40, within 3.2e6 points
        if not 1e-4 <= self.scan_step <= 0.05:  # also rejects nan
            raise UsageError("scan_step must lie in [1e-4, 0.05]")
        if not (isinstance(self.prime_cutoff, int) and self.prime_cutoff >= 2):
            raise UsageError("prime_cutoff must be an integer >= 2")
        if self.format not in ("json", "csv"):
            raise UsageError("format must be json or csv")

    def cache_key(self) -> tuple:
        """What a ZetaEvaluator depends on."""
        return (self.scan_step,)

    def digest(self) -> str:
        payload = ";".join(f"{f.name}={getattr(self, f.name)!r}"
                           for f in fields(self))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def default_config() -> RunConfig:
    """RunConfig from the file ZH_CONFIG names, read again on every call."""
    return load_config(os.environ.get("ZH_CONFIG"))


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(name: str, raw: str):
    if name not in _FIELD_TYPES:
        raise UsageError(f"unknown config key {name!r}")
    kind = _FIELD_TYPES[name]
    raw = raw.strip()
    try:
        if kind == "int":  # 1e6 is an int; 2.7 is not
            value = float(raw) if ("e" in raw or "." in raw) else int(raw)
            if value != int(value):
                raise ValueError
            return int(value)
        if kind == "float":
            return float(raw)
    except (ValueError, OverflowError):
        raise UsageError(f"bad value for {name}: {raw!r}") from None
    return raw


def load_config(path: str | os.PathLike | None,
                overrides: dict | None = None) -> RunConfig:
    """RunConfig from a flat key=value file plus explicit overrides."""
    values = {}
    if path:
        text = Path(path).read_text()
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key = value")
            key, _, raw = line.partition("=")
            key = key.strip()
            values[key] = _coerce(key, raw)
    if overrides:
        for key, raw in overrides.items():
            values[key] = _coerce(key, str(raw))
    return replace(RunConfig(), **values) if values else RunConfig()

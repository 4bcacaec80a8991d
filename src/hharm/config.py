"""Run configuration: a small validated dataclass loadable from JSON."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .fields import (_GEOMETRY, ELL_MAX, N_T_MAX, Grid, _check_geometry, _check_int,
                     _check_positive)

__all__ = ["ConfigError", "RunConfig", "SCHEMA"]

SCHEMA = "hharm-config/1"


class ConfigError(ValueError):
    """Raised for malformed, unknown-key or out-of-range configuration."""


@dataclass(frozen=True)
class RunConfig:
    d: int = 1
    L_max: int = 64
    n_rho: int = 256
    r_max: float = 12.0
    n_s: int = 512
    s_half: float = 40.0
    n_t: int = 9
    t_final: float = 0.5
    seed: int = 42
    suites: tuple = ("all",)

    def __post_init__(self):
        # Grid's geometry rule and the shared checks, then the config's own
        try:
            _check_geometry(*(getattr(self, k) for k in _GEOMETRY))
            for name, low, high in (("L_max", 0, ELL_MAX), ("n_t", 2, N_T_MAX),
                                    ("seed", 0, None)):
                _check_int(name, getattr(self, name), low, high)
            _check_positive("t_final", self.t_final)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.n_rho < 8:
            raise ConfigError(f"n_rho must be >= 8, got {self.n_rho!r}")
        if self.n_s < 8 or self.n_s & (self.n_s - 1):
            raise ConfigError("n_s must be a power of two and >= 8")
        names = self.suites
        if not (isinstance(names, (list, tuple)) and all(isinstance(n, str) for n in names)):
            raise ConfigError(f"suites must be a list or tuple of suite names, got {names!r}")
        if not names or len(set(names)) != len(names):
            raise ConfigError(f"suites must name at least one suite, each once, got {names!r}")
        object.__setattr__(self, "suites", tuple(names))

    def grid(self) -> Grid:
        return Grid(**{k: getattr(self, k) for k in _GEOMETRY})

    def as_dict(self) -> dict:
        return {"schema": SCHEMA, **asdict(self)}

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        """Load a config file, rejecting unknown keys and wrong schemas."""
        try:
            raw = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top level must be an object")
        schema = raw.pop("schema", SCHEMA)
        if schema != SCHEMA:
            raise ConfigError(f"{path}: schema {schema!r} != {SCHEMA!r}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigError(f"{path}: unknown keys {unknown}")
        try:
            return cls(**raw)
        except TypeError as exc:
            raise ConfigError(f"{path}: {exc}") from exc

"""Run configuration: a small validated dataclass loadable from JSON."""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .fields import Grid, radial_weights_finite

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
        for name in ("d", "L_max", "n_rho", "n_s", "n_t", "seed"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):  # JSON true is not 1
                raise ConfigError(f"{name} must be an integer")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.d < 1:
            raise ConfigError("d must be >= 1")
        if self.L_max < 0:
            raise ConfigError("L_max must be >= 0")
        if self.n_rho < 8:
            raise ConfigError("n_rho must be >= 8")
        if self.n_s < 8 or self.n_s & (self.n_s - 1):
            raise ConfigError("n_s must be a power of two and >= 8")
        for name in ("r_max", "s_half", "t_final"):
            v = getattr(self, name)
            # a bound, not math.isfinite: an int beyond a float overflows it
            if not (isinstance(v, (int, float)) and 0 < v <= sys.float_info.max):
                raise ConfigError(f"{name} must be finite and positive")
        if self.n_t < 2:
            raise ConfigError("n_t must be >= 2")
        if not radial_weights_finite(self.d, self.r_max):
            raise ConfigError(f"radial weights overflow at d={self.d}, r_max={self.r_max}")
        object.__setattr__(self, "suites", tuple(self.suites))

    def grid(self) -> Grid:
        return Grid(
            d=self.d,
            n_rho=self.n_rho,
            r_max=self.r_max,
            n_s=self.n_s,
            s_half=self.s_half,
        )

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

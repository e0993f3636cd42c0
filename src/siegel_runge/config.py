"""Run configuration shared by the command-line entry points."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

from .errors import InvalidInputError


@dataclass(frozen=True)
class RunConfig:
    """Tolerances and the sampling seed used by CLI commands."""

    tolerance: float = 1e-10
    rel_tol_vanishing: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.tolerance <= 0.0 or self.rel_tol_vanishing <= 0.0:
            raise InvalidInputError("tolerances must be positive")

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise InvalidInputError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

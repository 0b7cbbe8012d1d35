"""Shared defaults: tolerances, net parameters, the stock gate set, cache dir."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .sk import GateSet
from .su2 import rot_x, rot_y

DEFAULT_NET_MAX_LEN = 12
CACHE_ENV_VAR = "TWOLEVEL_CACHE_DIR"


def default_gate_set() -> GateSet:
    """Two pi/4 rotations about orthogonal axes.

    Density of the generated subgroup is a documented precondition, not
    something the package verifies; this pair is the usual generic choice.
    """
    return GateSet.from_letters([("rx", rot_x(np.pi / 4.0)), ("ry", rot_y(np.pi / 4.0))])


def cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "twolevel"

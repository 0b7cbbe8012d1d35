"""Shared defaults: net parameters, the stock gate set, the net cache."""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import sk
from .su2 import rot_x, rot_y

DEFAULT_NET_MAX_LEN = 12
CACHE_ENV_VAR = "TWOLEVEL_CACHE_DIR"


def default_gate_set() -> sk.GateSet:
    """Two pi/4 rotations about orthogonal axes.

    Density of the generated subgroup is a documented precondition, not
    something the package verifies; this pair is the usual generic choice.
    """
    return sk.GateSet.from_letters([("rx", rot_x(np.pi / 4.0)), ("ry", rot_y(np.pi / 4.0))])


def cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "twolevel"


def cached_net(gate_set: sk.GateSet, max_len: int = DEFAULT_NET_MAX_LEN) -> sk.BasicNet:
    """The net for (gate set, max_len, DEDUP_TOL, NET_FORMAT): loaded from ``cache_dir()``,
    or built and written there atomically; a bad cache file or a failed write warns on stderr."""
    import hashlib  # here, so that importing the package does not load OpenSSL

    canon = (json.dumps(gate_set.to_json(), sort_keys=True)
             + f"|{max_len}|{sk.DEDUP_TOL!r}|{sk.BasicNet.NET_FORMAT}")
    digest = hashlib.sha256(canon.encode()).hexdigest()[:16]
    cache = cache_dir()
    path = cache / f"net_{digest}.npz"
    if path.exists():
        try:
            return sk.BasicNet.load(path)
        except Exception as exc:  # stale or corrupt cache: rebuild
            print(f"warning: ignoring bad net cache {path}: {exc}", file=sys.stderr)
    net = sk.build_net(gate_set, max_len)
    try:
        cache.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache, suffix=".npz")
        os.close(fd)
        try:
            net.save(tmp)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        print(f"warning: could not cache net: {exc}", file=sys.stderr)
    return net

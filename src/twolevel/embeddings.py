"""Two-level gates: coordinate embeddings, frame realizations, tensor placements.

A two-level unitary acts on a single two-plane and fixes its orthogonal
complement pointwise.  Coordinate planes span{e_p, e_q} are the synthesis
workhorse; arbitrary planes are reached through Stiefel frames via
``I + F (S - I) F^dag``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import as_2x2, as_matrix, check_plane, matrix_to_json, scaled_tol
from .errors import InvalidInput

@dataclass
class TwoLevelFactor:
    """One Givens factor: a 2x2 unitary block pinned to coordinates (p, q), 1-based."""

    p: int
    q: int
    block: np.ndarray

    def __post_init__(self):
        check_plane(self.p, self.q)
        self.block = as_2x2(self.block, "block")

    def to_json(self) -> dict:
        return {"p": self.p, "q": self.q, "block": matrix_to_json(self.block)}



def embed_coordinate(p: int, q: int, v, n: int) -> np.ndarray:
    """Place the 2x2 block ``v`` on rows/columns (p, q) of I_n (1-based, p < q)."""
    check_plane(p, q, n)
    v = as_2x2(v, "block")
    u = np.eye(n, dtype=np.complex128)
    i, j = p - 1, q - 1
    u[i, i] = v[0, 0]
    u[i, j] = v[0, 1]
    u[j, i] = v[1, 0]
    u[j, j] = v[1, 1]
    return u


def embed_frame(f, s, tol: float | None = None) -> np.ndarray:
    """Realize ``s`` on the plane spanned by the frame columns: I + F (S - I) F^dag.

    ``f`` is an N x 2 array with orthonormal columns; the result acts as ``s``
    on Ran(F) and as the identity on its orthogonal complement.
    """
    f = as_matrix(f)
    if f.shape[1] != 2 or f.shape[0] < 2:
        raise InvalidInput(f"frame must be N x 2 with N >= 2, got {f.shape}")
    n = f.shape[0]
    defect = float(np.abs(f.conj().T @ f - np.eye(2)).max())
    if defect > scaled_tol(n, tol):
        raise InvalidInput(f"frame columns are not orthonormal: defect {defect:.3e}")
    s = as_2x2(s, "internal action")
    return np.eye(n, dtype=np.complex128) + f @ (s - np.eye(2)) @ f.conj().T


def tensor_place(j: int, v, n: int) -> np.ndarray:
    """Kronecker placement of a 2x2 gate at tensor factor j of n (1-based)."""
    if not (1 <= j <= n):
        raise InvalidInput(f"require 1 <= j <= {n}, got {j}")
    v = as_2x2(v, "gate")
    left = np.eye(2 ** (j - 1), dtype=np.complex128)
    right = np.eye(2 ** (n - j), dtype=np.complex128)
    return np.kron(np.kron(left, v), right)

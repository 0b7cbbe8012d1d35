"""Exact Givens/QR factorization of unitaries into two-level factors.

``factor`` eliminates subdiagonal entries column by column with complex
Givens rotations, leaving a diagonal remainder D, so that
``U = T_1 ... T_K D`` with each ``T_k`` a coordinate two-level special
unitary and ``K <= N(N-1)/2``.  Elimination order is fixed: columns left
to right, rows bottom to top against the pivot row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import assert_unitary, check_plane
from .embeddings import TwoLevelFactor
from .errors import InvalidInput, NumericalFailure

#: Subdiagonal entries below this modulus are skipped without emitting a factor.
ELIMINATION_SKIP = 1e-12

#: Residual off-diagonal mass allowed in the triangular remainder.
TRIANGULAR_TOL = 1e-9


@dataclass
class Factorization:
    """U = (prod_k T_k) D: ordered two-level factors and a diagonal remainder."""

    n_dim: int
    factors: list[TwoLevelFactor] = field(default_factory=list)
    diagonal: np.ndarray = None

    def __post_init__(self):
        if self.diagonal is None:
            self.diagonal = np.ones(self.n_dim, dtype=np.complex128)
        self.diagonal = np.asarray(self.diagonal, dtype=np.complex128)
        if self.diagonal.shape != (self.n_dim,):
            raise InvalidInput(f"diagonal must have length {self.n_dim}")
        for f in self.factors:
            check_plane(f.p, f.q, self.n_dim)

    def to_json(self) -> dict:
        return {
            "dim": self.n_dim,
            "factors": [f.to_json() for f in self.factors],
            "diagonal": [[float(z.real), float(z.imag)] for z in self.diagonal],
        }



def factor(u, tol: float | None = None) -> Factorization:
    """Factor a unitary into coordinate two-level SU(2) blocks and a diagonal.

    Each elimination block is the special unitary zeroing one subdiagonal
    entry; near-zero entries (< 1e-12) are skipped.  The final triangular
    remainder is asserted diagonal, not assumed.
    """
    u = assert_unitary(u, tol, what="factor input")
    n = u.shape[0]
    r = u.copy()
    factors: list[TwoLevelFactor] = []
    for c in range(n - 1):
        for row in range(n - 1, c, -1):
            b = r[row, c]
            if abs(b) < ELIMINATION_SKIP:
                r[row, c] = 0.0
                continue
            a = r[c, c]
            rho = np.sqrt(abs(a) ** 2 + abs(b) ** 2)
            g = np.array([[np.conj(a), np.conj(b)], [-b, a]], dtype=np.complex128) / rho
            r[[c, row], :] = g @ r[[c, row], :]
            r[row, c] = 0.0  # eliminated by construction
            factors.append(TwoLevelFactor(c + 1, row + 1, g.conj().T))
    off = float(np.abs(r - np.diag(np.diag(r))).max())
    if off > TRIANGULAR_TOL:
        raise NumericalFailure(f"triangular remainder is not diagonal: off-diagonal {off:.3e}")
    return Factorization(n, factors, np.diag(r).copy())


def reconstruct(f: Factorization) -> np.ndarray:
    """Multiply the factorization back out: (prod_k T_k) diag(d)."""
    m = np.diag(f.diagonal).astype(np.complex128)
    for fac in reversed(f.factors):
        i, j = fac.p - 1, fac.q - 1
        m[[i, j], :] = fac.block @ m[[i, j], :]
    return m

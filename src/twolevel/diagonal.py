"""Diagonal phase bookkeeping and synthesis from two-level phase rotations.

Any diagonal unitary D splits as e^{i theta} D0 with det(D0) = 1, and D0 is
a product of the commuting one-parameter rotations
gamma_1j(t) = diag(e^{it/2}, 1, ..., e^{-it/2}, ..., 1), each supported on
the coordinate plane (1, j) and lying in SU(N).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import as_matrix, check_plane, scaled_tol
from .errors import InvalidInput, NotSpecial, NotUnitary

#: Angle-sum tolerance for det = 1 membership in the special torus.
SPECIAL_TOL = 1e-9


def principal_angle(x):
    """Wrap angles to (-pi, pi], mapping the branch point to +pi."""
    y = np.mod(np.asarray(x, dtype=np.float64) + np.pi, 2.0 * np.pi) - np.pi
    y = np.where(y == -np.pi, np.pi, y)
    return y if y.ndim else float(y)


@dataclass
class DiagonalUnitary:
    """Diagonal unitary stored by its entry angles, each in (-pi, pi].

    One built ``from_entries`` also keeps those entries and returns them
    unchanged, so that a parsed result serializes back to the same numbers.
    """

    angles: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.angles, dtype=np.float64)
        if a.ndim != 1 or a.size < 1 or not np.isfinite(a).all():
            raise InvalidInput("angles must be a finite 1-d array")
        self.angles = np.asarray(principal_angle(a))
        self._entries = None

    @property
    def dim(self) -> int:
        return int(self.angles.size)

    @property
    def entries(self) -> np.ndarray:
        return np.exp(1.0j * self.angles) if self._entries is None else self._entries

    def matrix(self) -> np.ndarray:
        return np.diag(self.entries)

    @classmethod
    def identity(cls, n: int) -> "DiagonalUnitary":
        return cls(np.zeros(n))

    @classmethod
    def from_entries(cls, entries) -> "DiagonalUnitary":
        z = np.asarray(entries, dtype=np.complex128)
        d = cls(np.angle(z))
        if not float(np.abs(np.abs(z) - 1.0).max()) <= scaled_tol(z.size):
            raise InvalidInput("diagonal entries are not unit modulus")
        d._entries = z
        return d

    @classmethod
    def from_matrix(cls, u, tol: float | None = None) -> "DiagonalUnitary":
        """InvalidInput unless ``u`` is square and diagonal, NotUnitary off the unit circle."""
        u = as_matrix(u)
        if u.shape[0] != u.shape[1]:
            raise InvalidInput("diagonal unitary must be square")
        n = u.shape[0]
        eps = scaled_tol(n, tol)
        off = u - np.diag(np.diag(u))
        if off.any() and float(np.abs(off).max()) > eps:
            raise InvalidInput("matrix is not diagonal")
        d = np.diag(u)
        if float(np.abs(np.abs(d) - 1.0).max()) > eps:
            raise NotUnitary("diagonal entries are not unit modulus")
        return cls(np.angle(d))


@dataclass
class PhaseProgram:
    """Global phase plus gamma_1j rotations reproducing a diagonal unitary."""

    global_phase: float
    rotations: list[tuple[int, float]] = field(default_factory=list)

    def evaluate(self, n: int) -> np.ndarray:
        """Multiply out e^{i theta} * prod_j gamma_1j(t_j) as an n x n diagonal."""
        acc = np.zeros(n, dtype=np.float64)
        for j, t in self.rotations:
            check_plane(1, j, n)
            acc[0] += t / 2.0
            acc[j - 1] -= t / 2.0
        return np.diag(np.exp(1.0j * (self.global_phase + acc)))

    def to_json(self) -> dict:
        return {
            "global_phase": float(self.global_phase),
            "rotations": [{"j": int(j), "t": float(t)} for j, t in self.rotations],
        }



def gamma_1j(j: int, t: float, n: int) -> np.ndarray:
    """Two-level SU(N) phase rotation exp(t (i/2)(E_11 - E_jj)), 2 <= j <= n."""
    check_plane(1, j, n)
    d = np.ones(n, dtype=np.complex128)
    d[0] = np.exp(1.0j * t / 2.0)
    d[j - 1] = np.exp(-1.0j * t / 2.0)
    return np.diag(d)


def phase_split(d: DiagonalUnitary) -> tuple[float, DiagonalUnitary]:
    """Split D = e^{i theta} D0 with theta = arg(det D)/N and det(D0) = 1.

    The determinant argument is taken from the angle sum (no product
    cancellation) and canonicalized to (-pi, pi].
    """
    theta = float(principal_angle(float(np.sum(d.angles)))) / d.dim
    return theta, DiagonalUnitary(d.angles - theta)


def synth_special_diagonal(d0: DiagonalUnitary) -> PhaseProgram:
    """Express a det-1 diagonal as a product of gamma_1j rotations.

    Emits t_j = -2 phi_j for each j >= 2 with phi_j != 0; the first entry is
    forced by the determinant constraint and is verified, not assumed.
    """
    det_angle = float(principal_angle(float(np.sum(d0.angles))))
    if abs(det_angle) > SPECIAL_TOL:
        raise NotSpecial(f"diagonal is not special: angle sum {det_angle:.3e} mod 2pi")
    rotations = [(j, -2.0 * float(d0.angles[j - 1])) for j in range(2, d0.dim + 1)
                 if d0.angles[j - 1] != 0.0]
    forced = 0.5 * sum(t for _, t in rotations)
    residue = float(principal_angle(forced - float(d0.angles[0])))
    if abs(residue) > SPECIAL_TOL:
        raise NotSpecial(f"first-entry consistency failed: residue {residue:.3e} mod 2pi")
    return PhaseProgram(0.0, rotations)


def synth_full_diagonal(d: DiagonalUnitary) -> PhaseProgram:
    """Phase-split then synthesize: e^{i theta} * prod gamma_1j(t_j) = D."""
    theta, d0 = phase_split(d)
    prog = synth_special_diagonal(d0)
    return PhaseProgram(theta, prog.rotations)

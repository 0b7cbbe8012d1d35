"""SU(2)/U(2) primitives: phase splitting, minimal logarithms, geodesic energy.

The minimal Hilbert-Schmidt logarithm of an SU(2) element with eigenvalues
e^{+-i alpha}, alpha in [0, pi], has norm alpha; it is unique except at the
cut locus alpha = pi.  Both logs are closed forms in the unit quaternion
q = (a, x, y, z) of V = e^{i theta} (a I - i (x, y, z) . sigma), which
``quat`` reads and ``from_quat`` inverts.  The quaternion is also the only
SU(2) value of the Solovay-Kitaev layer (sk.py): products of SU(2) elements
are Hamilton products of their quaternions, and ||U - V|| = |q_U - q_V|.
Geodesic energy is (1/2) * norm^2 in the pairing <X, Y> = (1/2) Re Tr(X^dag Y).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PAULI, as_2x2, assert_unitary, operator_norm
from .diagonal import principal_angle
from .errors import InvalidInput, NotSpecial

#: Determinant slack accepted for SU(2) membership (gate-set letters, --special).
SU2_DET_TOL = 1e-8

#: Minimal logs stop being unique within this distance of the cut locus.
CUT_LOCUS_TOL = 1e-9


@dataclass
class MinLogResult:
    """Minimal-norm anti-Hermitian generator with its HS norm and uniqueness flag."""

    generator: np.ndarray
    hs_norm: float
    unique: bool


def det2(v: np.ndarray) -> complex:
    """Determinant of a 2x2 matrix."""
    return v[0, 0] * v[1, 1] - v[0, 1] * v[1, 0]


def as_su2(v, tol: float | None = None, what: str = "matrix") -> np.ndarray:
    """``v`` as a 2x2 matrix in SU(2): InvalidInput unless 2x2, NotUnitary unless
    unitary at ``tol``, NotSpecial unless |det - 1| <= SU2_DET_TOL."""
    v = assert_unitary(as_2x2(v, what), tol, what)
    if abs(det2(v) - 1.0) > SU2_DET_TOL:
        raise NotSpecial(f"{what} has det {det2(v):.6g}, not 1")
    return v


def rotation(axis, theta: float) -> np.ndarray:
    """SU(2) rotation exp(-i theta (n.sigma) / 2) about the unit Bloch axis ``n``."""
    n = np.asarray(axis, dtype=np.float64)
    norm = np.linalg.norm(n)
    if norm == 0.0:
        raise InvalidInput("rotation axis must be nonzero")
    return from_quat((np.cos(theta / 2.0), *(np.sin(theta / 2.0) * (n / norm))))


def rot_x(theta: float) -> np.ndarray:
    return rotation((1.0, 0.0, 0.0), theta)


def rot_y(theta: float) -> np.ndarray:
    return rotation((0.0, 1.0, 0.0), theta)


def rot_z(theta: float) -> np.ndarray:
    return rotation((0.0, 0.0, 1.0), theta)


def quat(v) -> np.ndarray:
    """Quaternion (a, x, y, z) of V = a I - i (x, y, z) . sigma, for a 2x2 matrix or a stack."""
    v = np.asarray(v)
    a, x = np.real(v[..., 0, 0] + v[..., 1, 1]), -np.imag(v[..., 0, 1] + v[..., 1, 0])
    y, z = np.real(v[..., 1, 0] - v[..., 0, 1]), np.imag(v[..., 1, 1] - v[..., 0, 0])
    return 0.5 * np.stack((a, x, y, z), axis=-1)


def from_quat(q) -> np.ndarray:
    """Inverse of ``quat``: the matrix a I - i (x, y, z) . sigma."""
    a, x, y, z = q
    return a * np.eye(2) - 1.0j * (x * PAULI["x"] + y * PAULI["y"] + z * PAULI["z"])


def axis_angle(q) -> tuple[float, np.ndarray]:
    """Quaternion (cos alpha, sin alpha n) of an SU(2) element: returns (alpha, n), alpha in [0, pi].

    At q = (+-1, 0, 0, 0) the axis is arbitrary and (0, 0, 1) is returned.
    """
    vec = np.asarray(q[1:], dtype=np.float64)
    r = float(np.linalg.norm(vec))
    n = vec / r if r > 0.0 else np.array([0.0, 0.0, 1.0])
    return float(np.arctan2(r, q[0])), n


def split_phase_u2(v, tol: float | None = None) -> tuple[float, np.ndarray]:
    """Split V in U(2) as e^{i theta} S with S in SU(2).

    e^{i theta} is the principal square root of det(V): theta is half the
    principal argument, so theta lies in (-pi/2, pi/2].
    """
    v = assert_unitary(as_2x2(v), tol)
    theta = 0.5 * float(np.angle(det2(v)))
    s = np.exp(-1.0j * theta) * v
    return theta, s


def minlog_su2(v, tol: float | None = None) -> MinLogResult:
    """Minimal-norm X in su(2) with exp(X) = V; norm equals the eigen-angle.

    The result is flagged non-unique exactly at the cut locus (alpha = pi,
    within CUT_LOCUS_TOL), where every traceless direction of norm pi works.
    """
    v = as_su2(v, tol)
    alpha, n = axis_angle(quat(v))
    return MinLogResult(
        generator=from_quat((0.0, *(alpha * n))), hs_norm=alpha, unique=np.pi - alpha >= CUT_LOCUS_TOL
    )


def minlog_u2(v, tol: float | None = None) -> MinLogResult:
    """Minimal-norm X in u(2) with exp(X) = V; norm^2 = (t0^2 + t1^2) / 2."""
    theta, s = split_phase_u2(v, tol)
    alpha, n = axis_angle(quat(s))
    t0, t1 = principal_angle([theta + alpha, theta - alpha])
    x = 0.5j * (t0 + t1) * np.eye(2) + from_quat((0.0, *(0.5 * (t0 - t1) * n)))
    norm = float(np.sqrt(0.5 * (t0**2 + t1**2)))
    unique = bool(np.pi - max(abs(t0), abs(t1)) >= CUT_LOCUS_TOL)
    return MinLogResult(generator=x, hs_norm=norm, unique=unique)


def geodesic_energy(v, special: bool = False) -> float:
    """Minimal geodesic energy (1/2) ||X||_hs^2 over logs in su(2) or u(2)."""
    if special:
        res = minlog_su2(v)
    else:
        res = minlog_u2(v)
    return 0.5 * res.hs_norm**2


def su2_distance(v, w) -> float:
    """Operator-norm distance between two SU(2) elements."""
    return operator_norm(np.asarray(v) - np.asarray(w))

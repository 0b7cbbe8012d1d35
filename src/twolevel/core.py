"""Dense complex matrix primitives shared by every other module.

Matrices are plain ``numpy`` arrays (``complex128``).  Everything here is
desk scale (dim <= 64, dense): the operator norm goes through a full SVD.
"""

from __future__ import annotations

import sys

import numpy as np

from .errors import InvalidInput, NotUnitary

#: Base tolerance; checks scale it by the matrix dimension.
DEFAULT_TOL = 1e-10

#: Largest base tolerance accepted.  A tolerance is slack for rounding in the
#: input, not an approximation: above this a check would take a matrix far
#: from unitary (diag(2, 1) at tol 1) for a nearby one and answer for that.
MAX_TOL = 1e-6

PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
}


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite, non-empty complex 2-d array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or 0 in m.shape:
        raise InvalidInput(f"expected a non-empty 2-d matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidInput("matrix has non-finite entries")
    return m


def as_2x2(a, what: str = "matrix") -> np.ndarray:
    """``as_matrix`` for a 2x2 block."""
    m = as_matrix(a)
    if m.shape != (2, 2):
        raise InvalidInput(f"{what} must be 2x2, got {m.shape}")
    return m


def check_plane(p: int, q: int, n: int | None = None) -> None:
    """Raise InvalidInput unless (p, q) is a coordinate plane: 1 <= p < q, and q <= n if given."""
    if not (1 <= p < q and (n is None or q <= n)):
        raise InvalidInput(f"require 1 <= p < q{'' if n is None else f' <= {n}'}, got ({p}, {q})")


def scaled_tol(dim: int, tol: float | None = None) -> float:
    """``tol`` (DEFAULT_TOL if None) times the dimension; the one place a
    tolerance enters, so one outside [0, MAX_TOL] raises InvalidInput."""
    tol = DEFAULT_TOL if tol is None else tol
    if not 0.0 <= tol <= MAX_TOL:  # NaN fails too
        raise InvalidInput(f"tolerance must be a number in [0, {MAX_TOL:g}], got {tol!r}")
    return tol * max(dim, 1)


def unitarity_defect(u: np.ndarray) -> float:
    """Entrywise max modulus of U^dag U - I."""
    u = np.asarray(u)
    n = u.shape[0]
    return float(np.abs(u.conj().T @ u - np.eye(n)).max())


def assert_unitary(u, tol: float | None = None, what: str = "matrix") -> np.ndarray:
    u = as_matrix(u)
    if u.shape[0] != u.shape[1]:
        raise NotUnitary(f"{what} is not square: shape {u.shape}")
    defect = unitarity_defect(u)
    if defect > scaled_tol(u.shape[0], tol):
        raise NotUnitary(f"{what} fails unitarity check: defect {defect:.3e}")
    return u


def anti_hermitian_defect(x: np.ndarray) -> float:
    return float(np.abs(x.conj().T + x).max())


def operator_norm(a) -> float:
    """Largest singular value; exact for 1x1 and diagonal inputs."""
    a = as_matrix(a)
    if a.shape == (1, 1):
        return float(abs(a[0, 0]))
    if a.shape[0] == a.shape[1]:
        off = a - np.diag(np.diag(a))
        if not off.any():
            return float(np.abs(np.diag(a)).max())
    return float(np.linalg.svd(a, compute_uv=False)[0])


def hs_norm(x) -> float:
    """Hilbert-Schmidt norm sqrt((1/2) Tr(X^dag X)): sqrt(1/2) times the Frobenius norm."""
    return float(np.sqrt(0.5) * np.linalg.norm(as_matrix(x)))


def mat_exp(x, tol: float | None = None) -> np.ndarray:
    """Exponential of an anti-Hermitian matrix, via Hermitian eigendecomposition."""
    x = as_matrix(x)
    if x.shape[0] != x.shape[1]:
        raise InvalidInput("mat_exp requires a square matrix")
    n = x.shape[0]
    if anti_hermitian_defect(x) > scaled_tol(n, tol):
        raise InvalidInput("mat_exp requires an anti-Hermitian matrix")
    off = x - np.diag(np.diag(x))
    if not off.any():
        return np.diag(np.exp(np.diag(x)))
    h = 1.0j * x
    h = 0.5 * (h + h.conj().T)  # kill the tolerated defect before eigh
    w, q = np.linalg.eigh(h)
    return (q * np.exp(-1.0j * w)) @ q.conj().T


def matrix_to_json(m) -> dict:
    """Encode a square matrix as {"dim": N, "entries": [[re, im], ...]} row-major."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise InvalidInput("matrix JSON format is square-only")
    flat = m.reshape(-1)
    return {
        "dim": int(m.shape[0]),
        "entries": [[float(z.real), float(z.imag)] for z in flat],
    }


def check_json_type(value, kind: type, what: str):
    """Return ``value`` if it has the JSON type ``kind``, else raise InvalidInput.

    ``int`` means a JSON integer, ``float`` a finite JSON number (returned as
    a float) and ``str`` a string; a boolean is none of them.
    """
    if kind is float and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    if kind is not float and type(value) is kind:
        return value
    name = {int: "integer", float: "finite number", str: "string"}[kind]
    raise InvalidInput(f"{what} must be a JSON {name}, got {value!r:.80}")


def complex_from_json(pairs, what: str) -> np.ndarray:
    """Decode a list of ``[re, im]`` JSON number pairs."""
    if not (isinstance(pairs, list) and all(isinstance(z, list) and len(z) == 2 for z in pairs)):
        raise InvalidInput(f"{what} must be a list of [re, im] pairs")
    return np.array([complex(check_json_type(re, float, what), check_json_type(im, float, what))
                     for re, im in pairs], dtype=np.complex128)


def matrix_from_json(obj) -> np.ndarray:
    """Decode the matrix JSON format; raises InvalidInput on malformed data."""
    if not isinstance(obj, dict) or "dim" not in obj or "entries" not in obj:
        raise InvalidInput("matrix JSON must have 'dim' and 'entries' fields")
    n = check_json_type(obj["dim"], int, "matrix dim")
    flat = complex_from_json(obj["entries"], "matrix entries")
    if n < 1 or flat.size != n * n:
        raise InvalidInput(f"expected {n * n} entries for dim {n}, got {flat.size}")
    return flat.reshape(n, n)

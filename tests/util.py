"""Sampling helpers and reference implementations shared across the test suite."""

from __future__ import annotations

import numpy as np
import scipy.linalg

from twolevel.compiler import LiftedWord
from twolevel.sk import TIE_TOL


def haar_unitary(n, rng):
    """Haar-ish random unitary via QR of a complex Gaussian."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def haar_su2(rng):
    """Uniform SU(2) element from a normalized quaternion."""
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    return np.array(
        [[q[0] - 1j * q[3], -q[2] - 1j * q[1]],
         [q[2] - 1j * q[1], q[0] + 1j * q[3]]]
    )


def lifted(letters):
    """The LiftedWord of ``(label, inv, p, q)`` letters, parsed by ``LiftedWord.from_json``."""
    return LiftedWord.from_json([{"label": l, "inv": i, "p": p, "q": q} for l, i, p, q in letters])


def random_frame(n, rng):
    """Random orthonormal 2-frame in C^n."""
    z = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    q, _ = np.linalg.qr(z)
    return q[:, :2]


def su_normalize(u):
    """Remove the determinant phase: det of the result is 1."""
    n = u.shape[0]
    return u * np.exp(-1j * np.angle(np.linalg.det(u)) / n)


def schur_minlog(v, special=False):
    """Reference minimal log of a 2x2 unitary, through its Schur eigenbasis.

    Returns (generator, hs_norm, angles), where ``angles`` are the generator's
    eigen-angles in the eigenbasis order.  With ``special`` the input must be
    in SU(2) and the log is the traceless one, with angles (+alpha, -alpha).
    """
    t, q = scipy.linalg.schur(np.asarray(v, dtype=complex), output="complex")
    angles = np.angle(np.diag(t))
    if special:
        alpha = 0.5 * (abs(angles[0]) + abs(angles[1]))
        if angles[1] > angles[0]:
            q = q[:, ::-1]
        angles = np.array([alpha, -alpha])
    x = (q * (1j * angles)) @ q.conj().T
    x = 0.5 * (x - x.conj().T)
    return x, float(np.sqrt(0.5 * np.sum(angles**2))), angles


def gather_nearest(net, t):
    """Reference ``BasicNet.nearest``: the same windows and tie rule, each
    window gathered from ``net.quats`` by index through its own stable s order."""
    s = np.sqrt(np.clip(2.0 - 2.0 * net.quats[:, 0], 0.0, 4.0))
    order = np.argsort(s, kind="stable")
    s_sorted = s[order]
    s_t = float(np.sqrt(np.clip(2.0 - 2.0 * t[0], 0.0, 4.0)))
    pos = int(np.searchsorted(s_sorted, s_t))
    probe = order[max(0, pos - 64):min(len(net), pos + 64)]
    d2 = 2.0 - 2.0 * (net.quats[probe] @ t)
    best = float(np.sqrt(max(float(d2.min()), 0.0) + TIE_TOL))
    lo = int(np.searchsorted(s_sorted, s_t - best))
    hi = int(np.searchsorted(s_sorted, s_t + best, side="right"))
    window = order[lo:hi]
    if len(window) == 0:
        window = probe
    d2 = 2.0 - 2.0 * (net.quats[window] @ t)
    ties = np.flatnonzero(d2 <= d2.min() + TIE_TOL)
    words = {j: net.word_at(int(window[j])) for j in ties.tolist()}
    k = min(words, key=lambda j: (len(words[j]), words[j].letters))
    return int(window[k]), float(np.sqrt(max(float(d2[k]), 0.0)))

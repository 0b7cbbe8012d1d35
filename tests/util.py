"""Sampling helpers and reference implementations shared across the test suite."""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from twolevel.compiler import LiftedWord
from twolevel.sk import TIE_TOL, BasicNet, _balanced_pair, _qconj, _qdot, _qmul


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


class _SkSession:
    """Reference ``sk._sk``: one SK run as a memoized fixed-depth recursion over the net.

    ``run(target, eps, depth)`` deepens ``_go`` level by level, as ``_sk`` does
    at its top level, but every sub-call runs all of its levels.

    Targets and products are quaternion 4-tuples.  Results are (letter
    codes, quaternion, error); words are assembled by array concatenation,
    the inverse of a word being ``codes[::-1] ^ 1``.
    """

    def __init__(self, net: BasicNet):
        self.net = net
        self.memo: dict = {}

    def run(self, target: tuple, eps: float, depth: int):
        # Each level returns the previous level's result or a strictly better one.
        for d in range(depth + 1):
            res = self._go(target, d)
            if res[2] <= eps:
                break
        return res

    def _go(self, target: tuple, d: int):
        key = (target, d)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        if d == 0:
            idx, err = self.net.nearest(target)
            res = (self.net.codes_at(idx), tuple(self.net.quats[idx].tolist()), err)
        else:
            prev_w, prev_m, prev_e = self._go(target, d - 1)
            delta = _qmul(target, _qconj(prev_m))
            if 2.0 * math.atan2(math.hypot(*delta[1:]), delta[0]) > math.pi / 2.0:
                res = (prev_w, prev_m, prev_e)
            else:
                a, b = _balanced_pair(delta)
                wa, ma, _ = self._go(a, d - 1)
                wb, mb, _ = self._go(b, d - 1)
                m = _qmul(_qmul(_qmul(_qmul(ma, mb), _qconj(ma)), _qconj(mb)), prev_m)
                e = math.sqrt(max(2.0 - 2.0 * _qdot(target, m), 0.0))
                if e < prev_e:
                    res = (np.concatenate((wa, wb, wa[::-1] ^ 1, wb[::-1] ^ 1, prev_w)), m, e)
                else:
                    res = (prev_w, prev_m, prev_e)
        self.memo[key] = res
        return res

"""Independent check of a compilation result, from its JSON schema alone.

The benchmark never trusts the library's own verifier: it rebuilds
``e^{i theta} W D`` from ``CompilationResult.to_json()`` with its own copy of
the default alphabet and its own evaluator, and asserts the certificate
``err <= certified_bound <= eps``.  Only numpy is used here.
"""

from __future__ import annotations

import numpy as np

#: Slack on ``err <= certified_bound`` for float rounding in the rebuild.
ERR_SLACK = 1e-9

#: Largest accepted gap between the library's reported achieved error and ours.
ACHIEVED_SLACK = 1e-8


def _rotation(axis: int, theta: float) -> np.ndarray:
    """exp(-i theta sigma_axis / 2) for axis 0 (x) or 1 (y)."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    if axis == 0:
        return np.array([[c, -1.0j * s], [-1.0j * s, c]])
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


#: The default gate set: pi/4 rotations about x and y.
DEFAULT_ALPHABET = {"rx": _rotation(0, np.pi / 4.0), "ry": _rotation(1, np.pi / 4.0)}


def _chain_product(mats: np.ndarray) -> np.ndarray:
    """Ordered product mats[0] @ mats[1] @ ... by pairwise reduction."""
    while len(mats) > 1:
        if len(mats) % 2:
            mats = np.concatenate([mats, np.eye(2, dtype=np.complex128)[None]])
        mats = mats[0::2] @ mats[1::2]
    return mats[0]


def rebuild(obj: dict) -> np.ndarray:
    """Dense ``e^{i theta} W D`` from a result in the JSON schema."""
    n = int(obj["dim"])
    word = obj["word"]
    if len(word) != int(obj["word_length"]):
        raise ValueError(f"word_length {obj['word_length']} != {len(word)} letters")
    letters = {}
    for lab, x in DEFAULT_ALPHABET.items():
        letters[(lab, False)] = x
        letters[(lab, True)] = x.conj().T
    m = np.eye(n, dtype=np.complex128)
    start = 0
    while start < len(word):
        p, q = int(word[start]["p"]), int(word[start]["q"])
        if not 1 <= p < q <= n:
            raise ValueError(f"letter {start} acts on ({p},{q}) outside dim {n}")
        stop = start
        while stop < len(word) and word[stop]["p"] == p and word[stop]["q"] == q:
            stop += 1
        try:
            run = np.stack([letters[(l["label"], bool(l["inv"]))] for l in word[start:stop]])
        except KeyError as exc:
            raise ValueError(f"unknown letter {exc}") from None
        cols = [p - 1, q - 1]
        m[:, cols] = m[:, cols] @ _chain_product(run)
        start = stop
    diag = np.array([complex(re, im) for re, im in obj["diagonal"]])
    if diag.shape != (n,) or np.abs(np.abs(diag) - 1.0).max() > 1e-9:
        raise ValueError("diagonal must hold dim unit-modulus entries")
    return np.exp(1.0j * float(obj["global_phase"])) * (m * diag[None, :])


def check_result(u: np.ndarray, obj: dict, eps: float, pure: bool = False) -> tuple[float, str]:
    """(independent error, problem) for one result; the problem is "" when it passes."""
    try:
        if int(obj["dim"]) != u.shape[0]:
            return float("nan"), f"dim {obj['dim']} != input dim {u.shape[0]}"
        err = float(np.linalg.svd(u - rebuild(obj), compute_uv=False)[0])
        certified = float(obj["certified_bound"])
        achieved = float(obj["achieved_error"])
        if pure and any(abs(complex(re, im) - 1.0) > 1e-12 for re, im in obj["diagonal"]):
            return err, "pure result carries a non-identity diagonal"
    except (KeyError, TypeError, ValueError) as exc:
        return float("nan"), f"malformed result: {exc}"
    if not err <= certified + ERR_SLACK:
        return err, f"independent error {err:.3e} exceeds certified bound {certified:.3e}"
    if not certified <= eps:
        return err, f"certified bound {certified:.3e} exceeds eps {eps:.3e}"
    if float(obj["requested_eps"]) != eps:
        return err, f"requested_eps {obj['requested_eps']} != {eps}"
    if not abs(achieved - err) <= ACHIEVED_SLACK:
        return err, f"reported achieved error {achieved:.3e} != independent {err:.3e}"
    return err, ""

"""Finite-alphabet approximation of SU(2): epsilon nets and Solovay-Kitaev.

The net enumerates all words up to a length bound over the letters and
their inverses (with immediate back-tracking pruned), deduplicates by
proximity, and supports exact nearest-neighbor lookup in the operator
norm.  Lookup exploits that for U, V in SU(2)

    ||U - V|| = sqrt(2 - Re Tr(U^dag V)),

so distance-to-identity values ("s") give a one-dimensional lower bound
|s_U - s_V| <= ||U - V|| used to prune the scan window.  Nets are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import as_matrix, assert_unitary, matrix_from_json, matrix_to_json
from .errors import AccuracyNotReached, InvalidInput, NetTooLarge, UnknownLetter
from .su2 import SU2_DET_TOL, bloch_components, det2, eigen_angle, from_bloch, rotation, su2_distance

#: Net entries closer than this (operator norm) are merged, keeping the shorter word.
DEDUP_TOL = 1e-6

DEFAULT_NET_CAP = 2_000_000


@dataclass(frozen=True, eq=False)
class GateSet:
    """Ordered, labeled SU(2) alphabet, equal only to itself (see compiler._check_alphabet)."""

    labels: tuple[str, ...]
    matrices: tuple

    def __post_init__(self):
        if len(self.labels) == 0:
            raise InvalidInput("gate set must have at least one letter")
        if len(self.labels) != len(self.matrices):
            raise InvalidInput("one matrix per label required")
        if len(set(self.labels)) != len(self.labels):
            raise InvalidInput("gate-set labels must be unique")
        mats = []
        for lab, m in zip(self.labels, self.matrices):
            m = as_matrix(m)
            if m.shape != (2, 2):
                raise InvalidInput(f"letter {lab!r} must be 2x2, got {m.shape}")
            m = assert_unitary(m, what=f"letter {lab!r}")
            det = det2(m)
            if abs(det - 1.0) > SU2_DET_TOL:
                raise InvalidInput(f"letter {lab!r} is not special unitary (det {det:.6g})")
            mats.append(m)
        object.__setattr__(self, "matrices", tuple(mats))

    @classmethod
    def from_letters(cls, letters) -> "GateSet":
        labels, mats = zip(*letters)
        return cls(tuple(str(s) for s in labels), tuple(mats))

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLetter(f"unknown letter {label!r}") from None

    def to_json(self) -> dict:
        return {
            "letters": [
                {"label": lab, "matrix": matrix_to_json(m)}
                for lab, m in zip(self.labels, self.matrices)
            ]
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GateSet":
        try:
            letters = [(str(e["label"]), matrix_from_json(e["matrix"])) for e in obj["letters"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInput(f"malformed GateSet JSON: {exc}") from exc
        return cls.from_letters(letters)


class GateWord:
    """A word over the alphabet: sequence of (label, inverted) pairs.

    Stored compactly as int16 letter codes ``2 * i + inv`` into the label
    table ``labels`` (the alphabet's labels for words SK builds, the labels
    in order of first use for words built from letters), so that inversion
    and concatenation are array operations.
    """

    __slots__ = ("codes", "labels")

    def __init__(self, letters=()):
        pos: dict = {}
        codes = [2 * pos.setdefault(str(lab), len(pos)) + bool(inv) for lab, inv in letters]
        self.codes = np.array(codes, dtype=np.int16)
        self.labels = tuple(pos)

    @classmethod
    def from_codes(cls, codes, labels) -> "GateWord":
        w = cls.__new__(cls)
        w.codes = np.asarray(codes, dtype=np.int16)
        w.labels = tuple(labels)
        return w

    @property
    def letters(self) -> tuple:
        return tuple((self.labels[c >> 1], bool(c & 1)) for c in self.codes.tolist())

    def __len__(self) -> int:
        return len(self.codes)

    def __eq__(self, other) -> bool:
        return isinstance(other, GateWord) and self.letters == other.letters

    def __repr__(self) -> str:
        return f"GateWord({self.letters!r})"

    def inverse(self) -> "GateWord":
        return GateWord.from_codes(self.codes[::-1] ^ 1, self.labels)

    def __add__(self, other: "GateWord") -> "GateWord":
        return GateWord.concat([self, other])

    @classmethod
    def concat(cls, words) -> "GateWord":
        """Concatenation, by array when the non-empty words share one label table."""
        words = [w for w in words if len(w)]
        if not words:
            return cls()
        if any(w.labels != words[0].labels for w in words):
            return cls([l for w in words for l in w.letters])
        return cls.from_codes(np.concatenate([w.codes for w in words]), words[0].labels)

    def codes_for(self, gate_set: GateSet) -> np.ndarray:
        """The codes over the letter order of ``gate_set``.

        Only labels the word uses are looked up, so UnknownLetter is raised
        exactly when ``gate_set`` lacks a letter of the word.
        """
        index = np.zeros(len(self.labels), dtype=np.int16)
        for i in np.unique(self.codes >> 1).tolist():
            index[i] = gate_set.index_of(self.labels[i])
        return 2 * index[self.codes >> 1] + (self.codes & 1)

    def to_json(self) -> dict:
        return {"letters": [{"label": lab, "inv": inv} for lab, inv in self.letters]}

    @classmethod
    def from_json(cls, obj: dict) -> "GateWord":
        try:
            return cls(tuple((str(e["label"]), bool(e["inv"])) for e in obj["letters"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInput(f"malformed GateWord JSON: {exc}") from exc


def letter_table(gate_set: GateSet) -> np.ndarray:
    """The letters and their daggers stacked so that code ``2 * i + inv`` indexes them."""
    ext = np.empty((2 * len(gate_set.matrices), 2, 2), dtype=np.complex128)
    for i, m in enumerate(gate_set.matrices):
        ext[2 * i] = m
        ext[2 * i + 1] = m.conj().T
    return ext


def _mul2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched 2x2 product a[k] @ b[k], written out (np.matmul is slow on 2x2 stacks)."""
    out = np.empty(a.shape, dtype=np.complex128)
    out[:, 0, 0] = a[:, 0, 0] * b[:, 0, 0] + a[:, 0, 1] * b[:, 1, 0]
    out[:, 0, 1] = a[:, 0, 0] * b[:, 0, 1] + a[:, 0, 1] * b[:, 1, 1]
    out[:, 1, 0] = a[:, 1, 0] * b[:, 0, 0] + a[:, 1, 1] * b[:, 1, 0]
    out[:, 1, 1] = a[:, 1, 0] * b[:, 0, 1] + a[:, 1, 1] * b[:, 1, 1]
    return out


def chain_product(mats: np.ndarray) -> np.ndarray:
    """Ordered product mats[0] @ mats[1] @ ... of a stack of 2x2 matrices.

    Reduces by ordered pairwise halving, (x1 x2)(x3 x4)..., carrying an odd
    last factor up a level: log2(n) batched products instead of n matmuls.
    An empty stack gives the identity and a single factor itself, exactly.
    """
    if len(mats) == 0:
        return np.eye(2, dtype=np.complex128)
    while len(mats) > 1:
        n = len(mats)
        prod = _mul2(mats[0:n - 1:2], mats[1::2])
        mats = np.concatenate((prod, mats[n - 1:])) if n % 2 else prod
    return mats[0]


def evaluate_word(word: GateWord, gate_set: GateSet) -> np.ndarray:
    """Left-to-right product of the word's letters (inverted ones as daggers)."""
    return chain_product(letter_table(gate_set)[word.codes_for(gate_set)])


def _s_values(mats: np.ndarray) -> np.ndarray:
    """Operator-norm distance to the identity, sqrt(2 - Re Tr), of a 2x2 matrix or a stack."""
    tr = np.real(mats[..., 0, 0] + mats[..., 1, 1])
    return np.sqrt(np.clip(2.0 - tr, 0.0, 4.0))


def _su2_dist_formula(v: np.ndarray, w: np.ndarray) -> float:
    tr = float(np.real(np.vdot(v, w)))
    return float(np.sqrt(max(2.0 - tr, 0.0)))


class BasicNet:
    """Immutable enumeration of short words with their evaluated matrices.

    Words are stored as parent-pointer chains: entry i extends entry
    ``parent[i]`` by the extended letter ``code[i]`` (2 * letter_index + inv).
    Entry 0 is the empty word.
    """

    def __init__(self, gate_set: GateSet, max_word_length: int, mats, parent, code, length):
        self.gate_set = gate_set
        self.max_word_length = int(max_word_length)
        self.mats = np.ascontiguousarray(mats, dtype=np.complex128)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.code = np.asarray(code, dtype=np.int16)
        self.length = np.asarray(length, dtype=np.int32)
        # Flat real view: row i is (re, im) interleaved, so that
        # row . row' == Re Tr(A^dag B) for the corresponding matrices.
        self._flat = self.mats.reshape(len(self.mats), 4).view(np.float64)
        s = _s_values(self.mats)
        self._s_order = np.argsort(s, kind="stable")
        self._s_sorted = s[self._s_order]

    def __len__(self) -> int:
        return len(self.mats)

    def codes_at(self, i: int) -> np.ndarray:
        """Letter codes of entry i, read back along its parent chain."""
        codes = []
        while i > 0:
            codes.append(self.code[i])
            i = self.parent[i]
        return np.array(codes[::-1], dtype=np.int16)

    def word_at(self, i: int) -> GateWord:
        return GateWord.from_codes(self.codes_at(i), self.gate_set.labels)

    def nearest(self, v: np.ndarray) -> tuple[int, float]:
        """Exact operator-norm nearest entry: (index, distance).

        A probe window seeds the best distance; the final window
        |s_entry - s_target| <= best provably contains the true argmin.
        """
        v = np.asarray(v, dtype=np.complex128)
        v8 = v.reshape(4).view(np.float64)
        s_t = float(_s_values(v))
        pos = int(np.searchsorted(self._s_sorted, s_t))
        lo0, hi0 = max(0, pos - 64), min(len(self), pos + 64)
        probe = self._s_order[lo0:hi0]
        d2 = 2.0 - self._flat[probe] @ v8
        best = float(np.sqrt(max(float(d2.min()), 0.0)))
        lo = int(np.searchsorted(self._s_sorted, s_t - best))
        hi = int(np.searchsorted(self._s_sorted, s_t + best, side="right"))
        window = self._s_order[lo:hi]
        if len(window) == 0:
            window = probe
        d2 = 2.0 - self._flat[window] @ v8
        dmin = float(d2.min())
        ties = window[d2 <= dmin]
        if len(ties) > 1:
            # Shorter word first, then lexicographic letter sequence.
            def key(i):
                w = self.word_at(int(i))
                return (len(w), w.letters)

            idx = int(min(ties, key=key))
        else:
            idx = int(ties[0])
        return idx, float(np.sqrt(max(dmin, 0.0)))

    def covering_radius(self, samples: int = 200, seed: int = 0) -> float:
        """Sampled estimate of the worst base-approximation distance."""
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(samples):
            q = rng.standard_normal(4)
            q /= np.linalg.norm(q)
            worst = max(worst, self.nearest(from_bloch(q[0], q[1:]))[1])
        return worst

    #: Version of what ``build_net`` enumerates and of the npz layout ``save``
    #: writes; net caches are keyed on it.  Bump it when either changes.
    NET_FORMAT = 1

    def save(self, path) -> None:
        np.savez(
            path,
            mats=self.mats,
            parent=self.parent,
            code=self.code,
            length=self.length,
            max_word_length=np.array([self.max_word_length]),
            gate_set=np.array([json.dumps(self.gate_set.to_json(), sort_keys=True)]),
        )

    @classmethod
    def load(cls, path) -> "BasicNet":
        with np.load(path, allow_pickle=False) as z:
            gs = GateSet.from_json(json.loads(str(z["gate_set"][0])))
            return cls(
                gs,
                int(z["max_word_length"][0]),
                z["mats"],
                z["parent"],
                z["code"],
                z["length"],
            )


def _round_keys(mats: np.ndarray) -> np.ndarray:
    """Quantized byte keys for exact-collision dedup at DEDUP_TOL resolution."""
    flat = mats.reshape(len(mats), 4).view(np.float64)
    q = np.ascontiguousarray(np.round(flat / DEDUP_TOL).astype(np.int64))
    return q.view(np.dtype((np.void, q.dtype.itemsize * q.shape[1]))).reshape(-1)


def build_net(gate_set: GateSet, max_len: int, cap: int = DEFAULT_NET_CAP) -> BasicNet:
    """Enumerate all words of length <= max_len over letters and inverses.

    Immediate back-tracking (a letter followed by its own inverse) is
    pruned; remaining exact collisions are removed by quantized-key
    dedup and near-collisions (< 1e-6 in operator norm) by a
    distance-to-identity window pass, always keeping the earlier
    (shorter) word.  Raises NetTooLarge beyond ``cap`` entries.
    """
    if max_len < 0:
        raise InvalidInput("max_len must be >= 0")
    n_letters = len(gate_set.labels)
    ext = letter_table(gate_set)

    mats = [np.eye(2, dtype=np.complex128)[None, :, :]]
    parent = [np.array([-1], dtype=np.int64)]
    code = [np.array([-1], dtype=np.int16)]
    length = [np.array([0], dtype=np.int32)]
    keys = [_round_keys(mats[0])]
    total = 1

    frontier = np.array([0], dtype=np.int64)
    for level in range(1, max_len + 1):
        if len(frontier) == 0:
            break
        prev_mats = np.concatenate(mats)[frontier]
        prev_codes = np.concatenate(code)[frontier]
        # Parent-major extension keeps enumeration in prefix order.
        cand = np.einsum("mij,ejk->meik", prev_mats, ext)
        cand = cand.reshape(-1, 2, 2)
        cand_parent = np.repeat(frontier, 2 * n_letters)
        cand_code = np.tile(np.arange(2 * n_letters, dtype=np.int16), len(frontier))
        keep = prev_codes[:, None] != (np.arange(2 * n_letters, dtype=np.int16) ^ 1)[None, :]
        keep = keep.reshape(-1)
        cand, cand_parent, cand_code = cand[keep], cand_parent[keep], cand_code[keep]

        acc_keys = np.concatenate(keys)
        cand_keys = _round_keys(cand)
        all_keys = np.concatenate([acc_keys, cand_keys])
        _, first = np.unique(all_keys, return_index=True)
        survive = np.zeros(len(all_keys), dtype=bool)
        survive[first] = True
        survive = survive[len(acc_keys):]
        cand, cand_parent, cand_code, cand_keys = (
            cand[survive], cand_parent[survive], cand_code[survive], cand_keys[survive],
        )

        if len(cand):
            acc_mats = np.concatenate(mats)
            acc_s = _s_values(acc_mats)
            order = np.argsort(acc_s, kind="stable")
            s_sorted = acc_s[order]
            cand_s = _s_values(cand)
            lo = np.searchsorted(s_sorted, cand_s - DEDUP_TOL)
            hi = np.searchsorted(s_sorted, cand_s + DEDUP_TOL, side="right")
            counts = hi - lo
            hit = np.flatnonzero(counts > 0)
            drop = np.zeros(len(cand), dtype=bool)
            if len(hit):
                reps = counts[hit]
                pair_c = np.repeat(hit, reps)
                offs = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
                pair_a = order[np.repeat(lo[hit], reps) + offs]
                cf = cand.reshape(len(cand), 4).view(np.float64)
                af = acc_mats.reshape(len(acc_mats), 4).view(np.float64)
                d2 = 2.0 - np.einsum("ij,ij->i", cf[pair_c], af[pair_a])
                close = d2 < DEDUP_TOL**2
                if close.any():
                    drop[np.unique(pair_c[close])] = True
            if drop.any():
                keep2 = ~drop
                cand, cand_parent, cand_code, cand_keys = (
                    cand[keep2], cand_parent[keep2], cand_code[keep2], cand_keys[keep2],
                )

        if total + len(cand) > cap:
            raise NetTooLarge(
                f"net would exceed the cap of {cap} entries at word length {level}"
            )
        start = total
        total += len(cand)
        mats.append(cand)
        parent.append(cand_parent)
        code.append(cand_code)
        length.append(np.full(len(cand), level, dtype=np.int32))
        keys.append(cand_keys)
        frontier = np.arange(start, total, dtype=np.int64)

    return BasicNet(
        gate_set,
        max_len,
        np.concatenate(mats),
        np.concatenate(parent),
        np.concatenate(code),
        np.concatenate(length),
    )


def _balanced_pair(delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Balanced A, B in SU(2) with A B A^-1 B^-1 = delta.

    Valid in the small-step regime (rotation angle <= pi/2), which the
    caller enforces; the returned rotations have angle O(sqrt(angle(delta))),
    axes fixed to the x/y pair conjugated onto the target axis.
    """
    a, vec = bloch_components(delta)
    alpha = float(np.arccos(np.clip(a, -1.0, 1.0)))
    vnorm = float(np.linalg.norm(vec))
    if alpha < 1e-12 or vnorm < 1e-15:
        eye = np.eye(2, dtype=np.complex128)
        return eye.copy(), eye.copy()
    axis = vec / vnorm
    phi = 2.0 * float(np.arcsin(np.sqrt(np.clip(np.sin(alpha / 2.0), 0.0, 1.0))))
    a0 = rotation((1.0, 0.0, 0.0), phi)
    b0 = rotation((0.0, 1.0, 0.0), phi)
    w = a0 @ b0 @ a0.conj().T @ b0.conj().T
    _, wvec = bloch_components(w)
    wnorm = float(np.linalg.norm(wvec))
    waxis = wvec / wnorm
    dot = float(np.clip(np.dot(waxis, axis), -1.0, 1.0))
    if dot >= 1.0 - 1e-15:
        s = np.eye(2, dtype=np.complex128)
    elif dot <= -1.0 + 1e-15:
        # Opposite axes: rotate by pi about anything perpendicular to the target.
        perp = np.cross(axis, (1.0, 0.0, 0.0))
        if np.linalg.norm(perp) < 1e-9:
            perp = np.cross(axis, (0.0, 1.0, 0.0))
        s = rotation(perp, np.pi)
    else:
        k = np.cross(waxis, axis)
        s = rotation(k / np.linalg.norm(k), float(np.arccos(dot)))
    return s @ a0 @ s.conj().T, s @ b0 @ s.conj().T


class _SkSession:
    """One sk_approximate_with_error run: memoized fixed-depth recursion over the net.

    Results are (letter codes, matrix, error); words are assembled by array
    concatenation, the inverse of a word being ``codes[::-1] ^ 1``.
    """

    def __init__(self, net: BasicNet):
        self.net = net
        self.memo: dict = {}

    def run(self, target: np.ndarray, eps: float, depth: int):
        best = None
        for d in range(depth + 1):
            res = self._go(target, d)
            if best is None or res[2] < best[2]:
                best = res
            if best[2] <= eps:
                break
        return best

    def _go(self, target: np.ndarray, d: int):
        key = (target.tobytes(), d)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        if d == 0:
            idx, err = self.net.nearest(target)
            res = (self.net.codes_at(idx), self.net.mats[idx], err)
        else:
            prev_w, prev_m, prev_e = self._go(target, d - 1)
            delta = target @ prev_m.conj().T
            if 2.0 * eigen_angle(delta) > np.pi / 2.0:
                res = (prev_w, prev_m, prev_e)
            else:
                a, b = _balanced_pair(delta)
                wa, ma, _ = self._go(a, d - 1)
                wb, mb, _ = self._go(b, d - 1)
                m = ma @ mb @ ma.conj().T @ mb.conj().T @ prev_m
                e = _su2_dist_formula(target, m)
                if e < prev_e:
                    res = (np.concatenate((wa, wb, wa[::-1] ^ 1, wb[::-1] ^ 1, prev_w)), m, e)
                else:
                    res = (prev_w, prev_m, prev_e)
        self.memo[key] = res
        return res


def sk_approximate_with_error(v, eps: float, net: BasicNet, depth: int = 5):
    """Word over the net's alphabet within ``eps`` of ``v`` in operator norm.

    Iteratively deepens the commutator recursion up to ``depth``, stopping
    as soon as the target accuracy is met.  Returns ``(word, achieved)``,
    the distance re-checked from the word; raises AccuracyNotReached (with
    the best achieved distance and word) if the budget cannot be met.
    A level whose residual rotates by more than pi/2, outside the
    commutator's regime, keeps the previous level's word.
    """
    v = as_matrix(v)
    if v.shape != (2, 2):
        raise InvalidInput(f"expected a 2x2 matrix, got {v.shape}")
    if not (0.0 < eps < 1.0):
        raise InvalidInput(f"eps must lie in (0, 1), got {eps}")
    if depth < 0:
        raise InvalidInput("depth must be >= 0")
    codes, _, _ = _SkSession(net).run(v, eps, depth)
    word = GateWord.from_codes(codes, net.gate_set.labels)
    achieved = su2_distance(v, evaluate_word(word, net.gate_set))
    if achieved > eps:
        raise AccuracyNotReached(
            f"achieved {achieved:.3e} > requested {eps:.3e} at depth {depth}",
            achieved=achieved,
            word=word,
        )
    return word, achieved

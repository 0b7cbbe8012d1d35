"""Finite-alphabet approximation of SU(2): epsilon nets and Solovay-Kitaev.

Every SU(2) value of this layer is a unit quaternion q = (a, x, y, z) for
a I - i (x, y, z) . sigma (``su2.quat``); products are Hamilton products.
The net enumerates all words up to a length bound over the letters and
their inverses (with immediate back-tracking pruned), deduplicates by
proximity, and supports exact nearest-neighbor lookup in the operator
norm.  Lookup exploits that for U, V in SU(2)

    ||U - V|| = |q_U - q_V| = sqrt(2 - 2 q_U . q_V),

so distance-to-identity values s = sqrt(2 - 2a) give a one-dimensional
lower bound |s_U - s_V| <= ||U - V|| used to prune the scan window.
Matrices appear only where a word meets the gate set, so each reported
error is re-checked from the word alone.  Nets are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import dataclass

import numpy as np

from .core import as_matrix, assert_unitary, matrix_from_json, matrix_to_json
from .errors import AccuracyNotReached, InvalidInput, NetTooLarge, UnknownLetter
from .su2 import SU2_DET_TOL, det2, quat, su2_distance

#: build_net drops a word closer than this (operator norm) to a word it kept before.
DEDUP_TOL = 1e-6

DEFAULT_NET_CAP = 2_000_000
DEFAULT_SK_DEPTH = 5

#: Squared distances within this of the minimum are a tie in ``BasicNet.nearest``.
TIE_TOL = 1e-14


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
    table ``labels``, so that inversion and concatenation are array
    operations.  Words the package builds use their gate set's labels, words
    built from letters their labels in order of first use; ``codes_for``
    maps either onto a gate set's letter order.
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

    @classmethod
    def concat(cls, words) -> "GateWord":
        """Concatenation of words that share one label table (empty words excepted)."""
        words = [w for w in words if len(w)]
        if not words:
            return cls()
        if any(w.labels != words[0].labels for w in words):
            raise InvalidInput("cannot concatenate words over different label tables")
        return cls.from_codes(np.concatenate([w.codes for w in words]), words[0].labels)

    def codes_for(self, gate_set: GateSet) -> np.ndarray:
        """The codes over the letter order of ``gate_set``.

        Only labels the word uses are looked up, so UnknownLetter is raised
        exactly when ``gate_set`` lacks a letter of the word.
        """
        index = np.zeros(len(self.labels), dtype=np.int16)
        for i in np.flatnonzero(np.bincount(self.codes >> 1, minlength=len(index))).tolist():
            index[i] = gate_set.index_of(self.labels[i])
        return 2 * index[self.codes >> 1] + (self.codes & 1)


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


def _s_values(quats: np.ndarray) -> np.ndarray:
    """Operator-norm distance to the identity, sqrt(2 - 2a), of a quaternion or a stack."""
    return np.sqrt(np.clip(2.0 - 2.0 * quats[..., 0], 0.0, 4.0))


def _qmul(p, q):
    """Hamilton product p q: the quaternion of the matrix product.

    Works on 4-tuples of floats and on component-first arrays alike.
    """
    a1, x1, y1, z1 = p
    a2, x2, y2, z2 = q
    return (
        a1 * a2 - x1 * x2 - y1 * y2 - z1 * z2,
        a1 * x2 + x1 * a2 + y1 * z2 - z1 * y2,
        a1 * y2 - x1 * z2 + y1 * a2 + z1 * x2,
        a1 * z2 + x1 * y2 - y1 * x2 + z1 * a2,
    )


def _qconj(q):
    """Conjugate quaternion: the inverse, or the matrix dagger."""
    a, x, y, z = q
    return (a, -x, -y, -z)


def _qdot(p, q):
    """Dot product in one summation order, so tuples and component-first arrays round alike."""
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2] + p[3] * q[3]


class BasicNet:
    """Immutable enumeration of short words with the quaternions of their products.

    Words are stored as parent-pointer chains: entry i extends entry
    ``parent[i]`` by the extended letter ``code[i]`` (2 * letter_index + inv).
    Entry 0 is the empty word.
    """

    #: Version of what ``build_net`` enumerates and of the npz layout ``save``
    #: writes; net caches are keyed on it and ``load`` checks it.  Bump it
    #: when either changes.
    NET_FORMAT = 3

    def __init__(self, gate_set: GateSet, max_word_length: int, quats, parent, code):
        self.gate_set = gate_set
        self.max_word_length = int(max_word_length)
        self.quats = np.ascontiguousarray(quats, dtype=np.float64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.code = np.asarray(code, dtype=np.int16)
        s = _s_values(self.quats)
        self._s_order = np.argsort(s, kind="stable")
        self._s_sorted = s[self._s_order]

    def __len__(self) -> int:
        return len(self.quats)

    def codes_at(self, i: int) -> np.ndarray:
        """Letter codes of entry i, read back along its parent chain."""
        codes = []
        while i > 0:
            codes.append(self.code[i])
            i = self.parent[i]
        return np.array(codes[::-1], dtype=np.int16)

    def word_at(self, i: int) -> GateWord:
        return GateWord.from_codes(self.codes_at(i), self.gate_set.labels)

    def nearest(self, t) -> tuple[int, float]:
        """Exact operator-norm nearest entry to the quaternion ``t``: (index, distance).

        A probe window seeds the best distance; the final window
        |s_entry - s_target| <= best provably contains the true argmin.
        Entries whose squared distance is within TIE_TOL of the minimum tie;
        the shortest word wins, then the least letter sequence, and the
        distance returned is the winner's own.
        """
        t = np.asarray(t)
        if t.shape != (4,) or np.iscomplexobj(t):
            raise InvalidInput(f"nearest takes a real quaternion (su2.quat), got {t.dtype} {t.shape}")
        s_t = float(_s_values(t))
        pos = int(np.searchsorted(self._s_sorted, s_t))
        lo0, hi0 = max(0, pos - 64), min(len(self), pos + 64)
        probe = self._s_order[lo0:hi0]
        d2 = 2.0 - 2.0 * (self.quats[probe] @ t)
        best = float(np.sqrt(max(float(d2.min()), 0.0) + TIE_TOL))
        lo = int(np.searchsorted(self._s_sorted, s_t - best))
        hi = int(np.searchsorted(self._s_sorted, s_t + best, side="right"))
        window = self._s_order[lo:hi]
        if len(window) == 0:
            window = probe
        d2 = 2.0 - 2.0 * (self.quats[window] @ t)
        ties = np.flatnonzero(d2 <= d2.min() + TIE_TOL)
        k = int(ties[0])
        if len(ties) > 1:
            # Mirror-image words (w and its reversal, for x/y letters) are
            # equidistant from a mirror-plane target, so rounding must not pick.
            words = {j: self.word_at(int(window[j])) for j in ties.tolist()}
            k = min(words, key=lambda j: (len(words[j]), words[j].letters))
        return int(window[k]), float(np.sqrt(max(float(d2[k]), 0.0)))

    def covering_radius(self, samples: int = 200, seed: int = 0) -> float:
        """Sampled estimate of the worst base-approximation distance."""
        qs = np.random.default_rng(seed).standard_normal((samples, 4))
        return max((self.nearest(q / np.linalg.norm(q))[1] for q in qs), default=0.0)

    def save(self, path) -> None:
        np.savez(
            path,
            net_format=np.array([self.NET_FORMAT]),
            quats=self.quats,
            parent=self.parent,
            code=self.code,
            max_word_length=np.array([self.max_word_length]),
            gate_set=np.array([json.dumps(self.gate_set.to_json(), sort_keys=True)]),
        )

    @classmethod
    def load(cls, path) -> "BasicNet":
        """Read a net ``save`` wrote.

        Raises InvalidInput if the file is not an npz archive of the members
        ``save`` writes, if its NET_FORMAT differs or is missing, if its arrays
        are not n unit quaternions with n parents and n letter codes of the gate
        set, if a parent pointer does not point back, or if one of 16 sampled
        entries is not its word's.  A path that cannot be opened raises OSError.
        """
        try:
            with np.load(path, allow_pickle=False) as z:
                if "net_format" not in z.files or int(z["net_format"][0]) != cls.NET_FORMAT:
                    raise InvalidInput(f"{path} is not a net file of format {cls.NET_FORMAT}")
                gs = GateSet.from_json(json.loads(str(z["gate_set"][0])))
                quats, parent, code = z["quats"], z["parent"], z["code"]
                max_len = int(z["max_word_length"][0])
        except (EOFError, IndexError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as exc:
            raise InvalidInput(f"{path} is not a readable net file: {exc!r}") from exc
        if not (quats.ndim == 2 and quats.shape[1] == 4 and len(quats) > 0
                and parent.shape == code.shape == quats.shape[:1]
                and quats.dtype.kind == "f" and parent.dtype.kind == code.dtype.kind == "i"):
            raise InvalidInput(f"{path}: quats, parent and code are not (n, 4) floats, (n,) and (n,) ints")
        # |q|^2 within 2e-9 of 1 puts |q| within 1e-9 of 1.
        if not (np.isfinite(quats).all()
                and np.abs(np.einsum("ij,ij->i", quats, quats) - 1.0).max() <= 2e-9):
            raise InvalidInput(f"{path}: quats are not finite unit quaternions")
        if not np.all((code[1:] >= 0) & (code[1:] < 2 * len(gs.labels))):
            raise InvalidInput(f"{path}: letter codes lie outside the gate set")
        net = cls(gs, max_len, quats, parent, code)
        if not np.all((net.parent[1:] >= 0) & (net.parent[1:] < np.arange(1, len(net)))):
            raise InvalidInput(f"{path}: parent pointers do not point to earlier entries")
        table = letter_table(gs)  # net codes index the gate set's own letter order
        for i in np.linspace(0, len(net) - 1, 16).astype(int).tolist():
            if np.abs(quat(chain_product(table[net.codes_at(i)])) - net.quats[i]).max() > 1e-12:
                raise InvalidInput(f"{path}: entry {i} does not match its word")
        return net


#: Generic unit direction; sorting by q . v windows build_net's close pairs.
_DEDUP_AXIS = np.array([1.0, 0.9, 0.8, 0.7]) / np.linalg.norm([1.0, 0.9, 0.8, 0.7])


def _dedup_level(net_quats: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Mask of the candidates, in enumeration order, that the proximity rule keeps.

    A candidate is dropped exactly when 2 - 2 q . q' < DEDUP_TOL**2 for a kept
    q': a net entry, or a kept candidate before it.  As |q . v - q' . v| <=
    |q - q'|, every such pair lies in a q . v window of DEDUP_TOL; 1e-9 more
    absorbs rounding.  Applying the rule to "all kept", then to its own result,
    alternates around the greedy result and stops on it, its only fixed point.
    """
    n = len(net_quats)
    allq = np.concatenate((net_quats, cand))
    key = allq @ _DEDUP_AXIS
    order = np.argsort(key, kind="stable")
    lo = np.searchsorted(key[order], key[n:] - (DEDUP_TOL + 1e-9))
    reps = np.searchsorted(key[order], key[n:] + (DEDUP_TOL + 1e-9), side="right") - lo
    later = np.repeat(np.arange(n, len(allq)), reps)
    earlier = order[np.repeat(lo - np.cumsum(reps) + reps, reps) + np.arange(reps.sum())]
    close = (earlier < later) & (2.0 - 2.0 * _qdot(allq[later].T, allq[earlier].T) < DEDUP_TOL**2)
    later, earlier = later[close], earlier[close]
    keep = np.ones(len(allq), dtype=bool)
    while True:
        nxt = np.ones(len(allq), dtype=bool)
        nxt[later[keep[earlier]]] = False
        if np.array_equal(nxt, keep):
            return keep[n:]
        keep = nxt


def build_net(gate_set: GateSet, max_len: int, cap: int = DEFAULT_NET_CAP) -> BasicNet:
    """Enumerate all words of length <= max_len over letters and inverses.

    Words are enumerated shortest first, each length in prefix order, and
    immediate back-tracking (a letter followed by its own inverse) is
    pruned.  One proximity rule dedups: a word is dropped exactly when it is
    closer than DEDUP_TOL (operator norm) to a word kept before it, so the
    shorter word wins.  Only kept words are extended.  Raises NetTooLarge
    beyond ``cap`` entries.
    """
    if max_len < 0:
        raise InvalidInput("max_len must be >= 0")
    n_ext = 2 * len(gate_set.labels)
    ext = quat(letter_table(gate_set)).T[:, None, :]
    letters = np.arange(n_ext, dtype=np.int16)

    quats = np.array([[1.0, 0.0, 0.0, 0.0]])
    parent = np.array([-1], dtype=np.int64)
    code = np.array([-1], dtype=np.int16)
    start = 0
    for level in range(1, max_len + 1):
        # Prefix order: candidate k extends entry start + k // n_ext by letter k % n_ext.
        cand = np.stack(_qmul(quats[start:].T[:, :, None], ext), axis=-1).reshape(-1, 4)
        fwd = np.flatnonzero(code[start:, None] != (letters ^ 1)[None, :])
        keep = fwd[_dedup_level(quats, cand[fwd])]
        if len(quats) + len(keep) > cap:
            raise NetTooLarge(f"net would exceed the cap of {cap} entries at word length {level}")
        parent = np.concatenate((parent, start + keep // n_ext))
        code = np.concatenate((code, letters[keep % n_ext]))
        start, quats = len(quats), np.concatenate((quats, cand[keep]))

    return BasicNet(gate_set, max_len, quats, parent, code)


def _balanced_pair(delta) -> tuple[tuple, tuple]:
    """Balanced quaternions A, B with A B A^-1 B^-1 = delta.

    Valid in the small-step regime (rotation angle <= pi/2), which the caller
    enforces.  With s = sin(phi/2), c = cos(phi/2), the rotations by phi about
    x and y, (c, s, 0, 0) and (c, 0, s, 0), have a commutator of half-angle
    alpha, sin(alpha/2) = s^2, about m = (s, -s, c)/sqrt(1 + s^2).  Both are
    conjugated onto delta's axis n by h ~ (1 + m.n, m x n), or at n = -m by
    a half turn about (c, 0, -s), which is perpendicular to m.
    """
    a, x, y, z = delta
    r = math.hypot(x, y, z)
    s = math.sqrt(math.sin(0.5 * math.atan2(r, a)))
    c = math.sqrt(1.0 - s * s)
    # h scaled by |M| r, with M = (s, -s, c) and delta's vector (x, y, z); at
    # delta = I (r = 0, s = 0) the half turn gives the identity pair.
    k = math.sqrt(1.0 + s * s) * r
    dot = s * x - s * y + c * z
    if dot <= (-1.0 + 1e-15) * k:
        h = (0.0, c, 0.0, -s)
    else:
        h = (k + dot, -s * z - c * y, c * x - s * z, s * y + s * x)
        norm = math.hypot(*h)
        h = tuple(v / norm for v in h)
    hc = _qconj(h)
    return _qmul(_qmul(h, (c, s, 0.0, 0.0)), hc), _qmul(_qmul(h, (c, 0.0, s, 0.0)), hc)


class _SkSession:
    """One sk_approximate_with_error run: memoized fixed-depth recursion over the net.

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


def sk_approximate_with_error(v, eps: float, net: BasicNet, depth: int = DEFAULT_SK_DEPTH):
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
    codes, _, _ = _SkSession(net).run(tuple(quat(v).tolist()), eps, depth)
    word = GateWord.from_codes(codes, net.gate_set.labels)
    achieved = su2_distance(v, evaluate_word(word, net.gate_set))
    if achieved > eps:
        raise AccuracyNotReached(
            f"achieved {achieved:.3e} > requested {eps:.3e} at depth {depth}",
            achieved=achieved,
            word=word,
        )
    return word, achieved

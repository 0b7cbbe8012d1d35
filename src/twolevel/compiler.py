"""End-to-end compilation: factor, per-block phase split, per-block SK, lift.

The pipeline factors the target exactly into coordinate two-level blocks,
normalizes each block to SU(2) by shuttling determinant phases into the
trailing diagonal, approximates each block over the finite alphabet at
budget eps/K, and lifts the words through the coordinate embeddings.  The
error certificate is the telescoping sum of per-block distances, which the
isometry of coordinate embeddings makes valid in the ambient operator
norm; an independent verifier recomputes the achieved error from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import as_matrix, operator_norm, scaled_tol
from .diagonal import DiagonalUnitary, phase_split, synth_special_diagonal
from .errors import AccuracyNotReached, InvalidIndex, InvalidInput, NumericalFailure
from .givens import Factorization, factor
from .sk import (
    BasicNet,
    GateSet,
    GateWord,
    chain_product,
    letter_table,
    sk_approximate_with_error,
)
from .su2 import split_phase_u2

#: Relative shave on per-block budgets so the float sum of per-block errors
#: can never creep past the requested eps.
_BUDGET_SHAVE = 1.0 - 1e-12


@dataclass
class LiftedLetter:
    """One alphabet letter tagged with its coordinate two-plane (p, q)."""

    label: str
    inverted: bool
    p: int
    q: int

    def __post_init__(self):
        if not (1 <= self.p < self.q):
            raise InvalidIndex(f"require 1 <= p < q, got ({self.p}, {self.q})")

    @classmethod
    def from_json(cls, obj: dict) -> "LiftedLetter":
        try:
            return cls(str(obj["label"]), bool(obj["inv"]), int(obj["p"]), int(obj["q"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInput(f"malformed LiftedLetter JSON: {exc}") from exc


class LiftedWord:
    """A word over the alphabet with the coordinate plane of each letter run.

    ``word`` holds all letters in order as int16 codes (a GateWord), and
    ``segments`` the ``(p, q, start, stop)`` of its maximal same-plane runs,
    in order, so that how a word was assembled never changes how it is
    evaluated.  Iterating yields LiftedLetter objects, and a lifted word
    compares equal to the list of them.
    """

    __slots__ = ("word", "segments")

    def __init__(self, word: GateWord = GateWord(), segments=()):
        self.word = word
        self.segments: list[tuple[int, int, int, int]] = []
        for p, q, start, stop in segments:
            if self.segments and self.segments[-1][:2] == (p, q):
                start = self.segments.pop()[2]
            self.segments.append((p, q, start, stop))

    @classmethod
    def from_letters(cls, letters) -> "LiftedWord":
        """Build from a sequence of LiftedLetter; a LiftedWord is returned as is."""
        if isinstance(letters, LiftedWord):
            return letters
        letters = list(letters)
        word = GateWord([(l.label, l.inverted) for l in letters])
        return cls(word, [(l.p, l.q, i, i + 1) for i, l in enumerate(letters)])

    @classmethod
    def join(cls, parts) -> "LiftedWord":
        segments, offset = [], 0
        for w in parts:
            segments += [(p, q, start + offset, stop + offset) for p, q, start, stop in w.segments]
            offset += len(w)
        return cls(GateWord.concat([w.word for w in parts]), segments)

    def __len__(self) -> int:
        return len(self.word)

    def __iter__(self):
        letters = self.word.letters
        for p, q, start, stop in self.segments:
            for label, inv in letters[start:stop]:
                yield LiftedLetter(label, inv, p, q)

    def __eq__(self, other) -> bool:
        if isinstance(other, (LiftedWord, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def to_json(self) -> list:
        codes, labels, out = self.word.codes.tolist(), self.word.labels, []
        for p, q, start, stop in self.segments:  # per segment, one letter dict per code
            table = [{"label": l, "inv": i, "p": p, "q": q} for l in labels for i in (False, True)]
            out += [table[c].copy() for c in codes[start:stop]]
        return out


@dataclass
class CompilationResult:
    """Lifted word, diagonal remainder, global phase, and error accounting.

    ``word`` may be given as a list of LiftedLetter; it is stored as a
    LiftedWord.
    """

    dim: int
    word: LiftedWord = field(default_factory=LiftedWord)
    diagonal: DiagonalUnitary = None
    global_phase: float = 0.0
    requested_eps: float = 0.0
    certified_bound: float = 0.0
    achieved_error: float = 0.0
    word_length: int = 0
    block_count: int = 0

    def __post_init__(self):
        if self.diagonal is None:
            self.diagonal = DiagonalUnitary.identity(self.dim)
        self.word = LiftedWord.from_letters(self.word)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "word": self.word.to_json(),
            "diagonal": [[float(z.real), float(z.imag)] for z in self.diagonal.entries],
            "global_phase": float(self.global_phase),
            "requested_eps": float(self.requested_eps),
            "certified_bound": float(self.certified_bound),
            "achieved_error": float(self.achieved_error),
            "word_length": int(self.word_length),
            "block_count": int(self.block_count),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CompilationResult":
        """Parse a result, rejecting a diagonal of the wrong size or off the
        unit circle and a ``word_length`` that disagrees with the word."""
        try:
            dim = int(obj["dim"])
            diagonal = DiagonalUnitary.from_entries([complex(re, im) for re, im in obj["diagonal"]])
            result = cls(
                dim=dim,
                word=[LiftedLetter.from_json(l) for l in obj["word"]],
                diagonal=diagonal,
                global_phase=float(obj["global_phase"]),
                requested_eps=float(obj["requested_eps"]),
                certified_bound=float(obj["certified_bound"]),
                achieved_error=float(obj["achieved_error"]),
                word_length=int(obj["word_length"]),
                block_count=int(obj["block_count"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInput(f"malformed CompilationResult JSON: {exc}") from exc
        if diagonal.dim != dim:
            raise InvalidInput(f"diagonal has {diagonal.dim} entries for dim {dim}")
        if result.word_length != len(result.word):
            raise InvalidInput(f"word_length {result.word_length} != {len(result.word)} letters")
        return result


def lift_word(word: GateWord, p: int, q: int) -> LiftedWord:
    """Put every letter of a word on the coordinate plane (p, q)."""
    if not (1 <= p < q):
        raise InvalidIndex(f"require 1 <= p < q, got ({p}, {q})")
    return LiftedWord(word, [(p, q, 0, len(word))] if len(word) else [])


def _specialize_blocks(fact: Factorization) -> tuple[list[tuple[int, int, np.ndarray]], np.ndarray]:
    """Normalize factor blocks to SU(2), shuttling det phases into the diagonal.

    Moving a two-level phase past downstream factors conjugates their
    blocks by the accumulated diagonal restricted to (p, q); determinants
    are unchanged, so the emitted blocks are special unitary.
    """
    n = fact.n_dim
    acc = np.ones(n, dtype=np.complex128)
    blocks: list[tuple[int, int, np.ndarray]] = []
    for f in fact.factors:
        i, j = f.p - 1, f.q - 1
        theta, s = split_phase_u2(f.block)
        d2 = np.array([acc[i], acc[j]])
        s = (d2[:, None] * s) * np.conj(d2)[None, :]
        blocks.append((f.p, f.q, s))
        ph = np.exp(1.0j * theta)
        acc[i] *= ph
        acc[j] *= ph
    return blocks, acc * fact.diagonal


def _check_alphabet(gate_set: GateSet, net: BasicNet) -> None:
    """The net must have been built from the same alphabet it is used with."""
    if gate_set.labels != net.gate_set.labels or any(
        np.abs(a - b).max() > 1e-12
        for a, b in zip(gate_set.matrices, net.gate_set.matrices)
    ):
        raise InvalidInput("net was built from a different gate set")


def _sk_blocks(blocks, budget_each: float, net: BasicNet, depth: int):
    """SK-approximate each SU(2) block; returns (words, errors) or raises with a report."""
    eye = np.eye(2)
    words: list[GateWord] = []
    errors: list[float] = []
    failures = []
    for k, (p, q, s) in enumerate(blocks):
        dist_to_id = operator_norm(s - eye)
        if dist_to_id <= budget_each:
            words.append(GateWord())
            errors.append(dist_to_id)
            continue
        try:
            w, err = sk_approximate_with_error(s, budget_each, net, depth)
            words.append(w)
            errors.append(err)
        except AccuracyNotReached as exc:
            failures.append((k, p, q, budget_each, exc.achieved))
    if failures:
        detail = "; ".join(
            f"block {k} at ({p},{q}): achieved {a:.3e} > budget {b:.3e}"
            for k, p, q, b, a in failures
        )
        raise AccuracyNotReached(
            f"{len(failures)} block(s) missed the SK budget: {detail}", blocks=failures
        )
    return words, errors


def _compile(u, eps: float, gate_set: GateSet, net: BasicNet, depth: int,
             pure: bool) -> CompilationResult:
    """The one compile pipeline; ``pure`` absorbs the diagonal into the word.

    Budgets: eps/K per Givens block, or (eps/2)/K when pure; the G gamma
    blocks of a pure compile get (eps/2)/G, or eps/G when K = 0.  The
    certificate ``achieved <= certified <= eps`` is checked before returning.
    """
    u = as_matrix(u)
    if not (0.0 < eps < 1.0):
        raise InvalidInput(f"eps must lie in (0, 1), got {eps}")
    if depth < 0:
        raise InvalidInput("depth must be >= 0")
    _check_alphabet(gate_set, net)
    fact = factor(u)
    blocks, diag = _specialize_blocks(fact)
    k = len(blocks)
    words: list[GateWord] = []
    errors: list[float] = []
    if k:
        words, errors = _sk_blocks(blocks, (eps / 2.0 if pure else eps) / k * _BUDGET_SHAVE,
                                   net, depth)
    diagonal = DiagonalUnitary(np.angle(diag))
    theta = 0.0
    if pure:
        theta, d0 = phase_split(diagonal)
        prog = synth_special_diagonal(d0)
        gamma_blocks = [
            (1, j, np.diag([np.exp(1.0j * t / 2.0), np.exp(-1.0j * t / 2.0)]))
            for j, t in prog.rotations
        ]
        if gamma_blocks:
            budget = (eps / 2.0 if k else eps) / len(gamma_blocks)
            g_words, g_errors = _sk_blocks(gamma_blocks, budget * _BUDGET_SHAVE, net, depth)
            blocks, words, errors = blocks + gamma_blocks, words + g_words, errors + g_errors
        diagonal = DiagonalUnitary.identity(fact.n_dim)
    word = LiftedWord.join([lift_word(w, p, q) for (p, q, _), w in zip(blocks, words)])
    result = CompilationResult(
        dim=fact.n_dim,
        word=word,
        diagonal=diagonal,
        global_phase=theta,
        requested_eps=eps,
        certified_bound=float(sum(errors)),
        word_length=len(word),
        block_count=k,
    )
    result.achieved_error = verify(u, result, gate_set)
    if not (result.achieved_error <= result.certified_bound + scaled_tol(result.dim)
            and result.certified_bound <= eps):
        raise NumericalFailure(
            f"certificate failed: achieved {result.achieved_error:.3e}, "
            f"certified {result.certified_bound:.3e}, eps {eps:.3e}"
        )
    return result


def compile(u, eps: float, gate_set: GateSet, net: BasicNet, depth: int = 5) -> CompilationResult:
    """Compile ``u`` to a lifted word and diagonal with ||U - W D|| <= eps.

    The per-block budget is eps/K for the K emitted factors; blocks already
    within budget of the identity compile to the empty word.  The certified
    bound is the telescoping sum of per-block achieved errors, and the
    achieved error is recomputed by the independent verifier.
    """
    return _compile(u, eps, gate_set, net, depth, pure=False)


def compile_pure(u, eps: float, gate_set: GateSet, net: BasicNet, depth: int = 5) -> CompilationResult:
    """Compile to a pure word and global phase: ||U - e^{i theta} W|| <= eps.

    Half of eps covers the Givens blocks, half the diagonal synthesis: the
    diagonal remainder is split off its global phase, expressed through
    gamma_1j rotations, and each rotation's SU(2) block is SK-approximated
    and lifted on the (1, j) plane.
    """
    return _compile(u, eps, gate_set, net, depth, pure=True)


def evaluate_lifted(word, gate_set: GateSet, n: int) -> np.ndarray:
    """Left-to-right product of embedded letters as a dense N x N matrix.

    Each same-plane run is multiplied out as a batched 2x2 product, then
    applied to the plane's two columns in one update.  ``word`` is a
    LiftedWord or a sequence of LiftedLetter.
    """
    word = LiftedWord.from_letters(word)
    mats = letter_table(gate_set)[word.word.codes_for(gate_set)]
    m = np.eye(n, dtype=np.complex128)
    for p, q, start, stop in word.segments:
        if q > n:
            raise InvalidIndex(f"lifted letter ({p},{q}) exceeds dim {n}")
        cols = [p - 1, q - 1]
        m[:, cols] = m[:, cols] @ chain_product(mats[start:stop])
    return m


def verify(u, result: CompilationResult, gate_set: GateSet) -> float:
    """Recompute ||U - e^{i theta} W D|| from the word alone (no bookkeeping)."""
    u = as_matrix(u)
    if u.shape != (result.dim, result.dim):
        raise InvalidInput(f"dimension mismatch: matrix {u.shape} vs result dim {result.dim}")
    if result.diagonal.dim != result.dim:
        raise InvalidInput(f"diagonal has {result.diagonal.dim} entries for dim {result.dim}")
    m = evaluate_lifted(result.word, gate_set, result.dim)
    m = m * result.diagonal.entries[None, :]
    m = np.exp(1.0j * result.global_phase) * m
    return operator_norm(u - m)

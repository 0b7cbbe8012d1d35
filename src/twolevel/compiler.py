"""End-to-end compilation: factor, one SU(2) block table, per-block SK, lift.

The pipeline factors the target exactly into coordinate two-level blocks,
which are special unitary as factored, approximates each block over the
finite alphabet within its budget (eps/K for K blocks), and lifts the words
through the coordinate embeddings.  The error certificate is the
telescoping sum of per-block distances, which the isometry of coordinate
embeddings makes valid in the ambient operator norm; an independent
verifier recomputes the achieved error from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (as_count, as_matrix, check_json_type, check_plane, complex_from_json,
                   operator_norm, scaled_tol)
from .diagonal import DiagonalUnitary, phase_split, synth_special_diagonal
from .errors import AccuracyNotReached, InvalidInput, NumericalFailure
from .givens import Factorization, factor
from .sk import (
    DEFAULT_SK_DEPTH,
    BasicNet,
    GateSet,
    GateWord,
    chain_product,
    letter_table,
    sk_approximate_with_error,
)

#: Relative shave on per-block budgets so the float sum of per-block errors
#: can never creep past the requested eps.
_BUDGET_SHAVE = 1.0 - 1e-12

#: The JSON type of each scalar of a result, as ``check_json_type`` reads it.
_RESULT_SCALARS = dict.fromkeys(("dim", "word_length", "block_count"), int) | dict.fromkeys(
    ("global_phase", "requested_eps", "certified_bound", "achieved_error"), float)


class LiftedWord:
    """A word over the alphabet with the coordinate plane of each letter run.

    ``word`` holds all letters in order as int16 codes (a GateWord), and
    ``segments`` the ``(p, q, start, stop)`` of its maximal same-plane runs,
    in order, so that how a word was assembled never changes how it is
    evaluated.
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
    def from_json(cls, items) -> "LiftedWord":
        """Parse ``to_json``'s letter dicts: a str label, a bool inv, ints 1 <= p < q."""
        try:
            rows = [(d["label"], d["inv"], d["p"], d["q"]) for d in items]
        except (KeyError, TypeError) as exc:
            raise InvalidInput(f"malformed lifted letter: {exc!r}") from exc
        for i, (label, inv, p, q) in enumerate(rows):
            if not (isinstance(label, str) and isinstance(inv, bool)
                    and type(p) is type(q) is int and 1 <= p < q):
                raise InvalidInput(f"malformed lifted letter {i}: {rows[i]}")
        return cls(GateWord(r[:2] for r in rows), [(*r[2:], i, i + 1) for i, r in enumerate(rows)])

    @classmethod
    def join(cls, parts) -> "LiftedWord":
        segments, offset = [], 0
        for w in parts:
            segments += [(p, q, start + offset, stop + offset) for p, q, start, stop in w.segments]
            offset += len(w)
        return cls(GateWord.concat([w.word for w in parts]), segments)

    def __len__(self) -> int:
        return len(self.word)

    @property
    def letters(self) -> tuple:
        """The letters in order as ``(label, inverted, p, q)`` tuples."""
        letters = self.word.letters
        return tuple((label, inv, p, q) for p, q, start, stop in self.segments
                     for label, inv in letters[start:stop])

    def to_json(self) -> list:
        codes, labels, out = self.word.codes.tolist(), self.word.labels, []
        for p, q, start, stop in self.segments:  # per segment, one letter dict per code
            table = [{"label": l, "inv": i, "p": p, "q": q} for l in labels for i in (False, True)]
            out += [table[c].copy() for c in codes[start:stop]]
        return out


@dataclass
class CompilationResult:
    """Lifted word, diagonal remainder, global phase, and error accounting."""

    dim: int
    word: LiftedWord = field(default_factory=LiftedWord)
    diagonal: DiagonalUnitary = None
    global_phase: float = 0.0
    requested_eps: float = 0.0
    certified_bound: float = 0.0
    achieved_error: float = 0.0
    block_count: int = 0

    def __post_init__(self):
        if self.diagonal is None:
            self.diagonal = DiagonalUnitary.identity(self.dim)

    @property
    def word_length(self) -> int:
        return len(self.word)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "word": self.word.to_json(),
            "diagonal": [[float(z.real), float(z.imag)] for z in self.diagonal.entries],
            "global_phase": float(self.global_phase),
            "requested_eps": float(self.requested_eps),
            "certified_bound": float(self.certified_bound),
            "achieved_error": float(self.achieved_error),
            "word_length": len(self.word),
            "block_count": int(self.block_count),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CompilationResult":
        """Parse a result, rejecting a scalar or diagonal part of another JSON
        type than ``to_json`` writes (``core.check_json_type``), a diagonal of
        the wrong size or off the unit circle and a ``word_length`` that
        disagrees with the word."""
        try:
            scalars = {key: check_json_type(obj[key], kind, key)
                       for key, kind in _RESULT_SCALARS.items()}
            diagonal = DiagonalUnitary.from_entries(complex_from_json(obj["diagonal"], "diagonal"))
            word = LiftedWord.from_json(obj["word"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInput(f"malformed CompilationResult JSON: {exc}") from exc
        word_length = scalars.pop("word_length")
        result = cls(word=word, diagonal=diagonal, **scalars)
        if diagonal.dim != result.dim:
            raise InvalidInput(f"diagonal has {diagonal.dim} entries for dim {result.dim}")
        if word_length != len(word):
            raise InvalidInput(f"word_length {word_length} != {len(word)} letters")
        return result


def lift_word(word: GateWord, p: int, q: int) -> LiftedWord:
    """Put every letter of a word on the coordinate plane (p, q)."""
    check_plane(p, q)
    return LiftedWord(word, [(p, q, 0, len(word))] if len(word) else [])


def _specialize_blocks(fact: Factorization, eps: float, pure: bool):
    """The compile's SU(2) block table and the part that stays exact.

    Returns ``(blocks, diagonal, global_phase)`` with one ``(p, q, su2_block,
    budget)`` row per block to approximate, each row at eps/rows.  The Givens
    blocks are special unitary as factored.  When pure, the diagonal is split
    as e^{i theta} D0 and the gauge of the plane-(1, j) blocks absorbs D0: the
    table is walked with a running diagonal Y (from I), each block is
    conjugated by Y, and a (1, j) block becomes B_eff diag(e^{-i phi},
    e^{i phi}) with phi the angle left at j by Y D0, then Y <- R_1j(phi) Y.
    The residual Y D0 is 1 at every absorbed j, and its gamma_1j rows (only
    for coordinates without a (1, j) block) follow; the diagonal left is the
    identity.
    """
    diagonal = DiagonalUnitary(np.angle(fact.diagonal))
    theta = 0.0
    rows = [(f.p, f.q, f.block) for f in fact.factors]
    if pure:
        theta, d0 = phase_split(diagonal)
        y = np.zeros(fact.n_dim)  # the angles of Y
        for k, (p, q, s) in enumerate(rows):
            plane = [p - 1, q - 1]
            s = s * np.exp(1.0j * (y[plane, None] - y[None, plane]))
            if p == 1:
                phi = d0.angles[q - 1] + y[q - 1]
                s = s * np.exp([-1.0j * phi, 1.0j * phi])
                y[0] += phi
                y[q - 1] -= phi
            rows[k] = (p, q, s)
        rotations = synth_special_diagonal(DiagonalUnitary(d0.angles + y)).rotations
        rows += [(1, j, np.diag([np.exp(1.0j * t / 2.0), np.exp(-1.0j * t / 2.0)]))
                 for j, t in rotations]
        diagonal = DiagonalUnitary.identity(fact.n_dim)
    budget = eps / max(len(rows), 1) * _BUDGET_SHAVE
    return [(*row, budget) for row in rows], diagonal, theta


def _check_alphabet(gate_set: GateSet, net: BasicNet) -> None:
    """The net must have been built from the same alphabet it is used with."""
    if gate_set.labels != net.gate_set.labels or any(
        np.abs(a - b).max() > 1e-12
        for a, b in zip(gate_set.matrices, net.gate_set.matrices)
    ):
        raise InvalidInput("net was built from a different gate set")


def _sk_blocks(blocks, net: BasicNet, depth: int):
    """SK-approximate each row of the block table within its budget; returns
    (words, errors), or raises a report that numbers each missed block by its row."""
    eye = np.eye(2)
    words: list[GateWord] = []
    errors: list[float] = []
    failures = []
    for k, (p, q, s, budget) in enumerate(blocks):
        dist_to_id = operator_norm(s - eye)
        try:
            w, err = ((GateWord(), dist_to_id) if dist_to_id <= budget
                      else sk_approximate_with_error(s, budget, net, depth))
        except AccuracyNotReached as exc:
            failures.append((k, p, q, budget, exc.achieved))
            continue
        words.append(w)
        errors.append(err)
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

    One SK pass approximates the block table of ``_specialize_blocks``.  The
    certificate ``achieved <= certified <= eps`` is checked before returning.
    """
    u = as_matrix(u)
    if not (0.0 < eps < 1.0):
        raise InvalidInput(f"eps must lie in (0, 1), got {eps}")
    depth = as_count(depth, "depth")
    _check_alphabet(gate_set, net)
    fact = factor(u)
    blocks, diagonal, theta = _specialize_blocks(fact, eps, pure)
    words, errors = _sk_blocks(blocks, net, depth)
    result = CompilationResult(
        dim=fact.n_dim,
        word=LiftedWord.join([lift_word(w, p, q) for (p, q, _, _), w in zip(blocks, words)]),
        diagonal=diagonal,
        global_phase=theta,
        requested_eps=eps,
        certified_bound=float(sum(errors)),
        block_count=len(fact.factors),
    )
    result.achieved_error = verify(u, result, gate_set)
    if not (result.achieved_error <= result.certified_bound + scaled_tol(result.dim)
            and result.certified_bound <= eps):
        raise NumericalFailure(
            f"certificate failed: achieved {result.achieved_error:.3e}, "
            f"certified {result.certified_bound:.3e}, eps {eps:.3e}"
        )
    return result


def compile(u, eps: float, gate_set: GateSet, net: BasicNet,
            depth: int = DEFAULT_SK_DEPTH) -> CompilationResult:
    """Compile ``u`` to a lifted word and diagonal with ||U - W D|| <= eps.

    The per-block budget is eps/K for the K emitted factors; blocks already
    within budget of the identity compile to the empty word.  The certified
    bound is the telescoping sum of per-block achieved errors, and the
    achieved error is recomputed by the independent verifier.
    """
    return _compile(u, eps, gate_set, net, depth, pure=False)


def compile_pure(u, eps: float, gate_set: GateSet, net: BasicNet,
                 depth: int = DEFAULT_SK_DEPTH) -> CompilationResult:
    """Compile to a pure word and global phase: ||U - e^{i theta} W|| <= eps.

    The diagonal remainder's special part is absorbed by the gauge of the
    plane-(1, j) Givens blocks (``_specialize_blocks``), so a dense input
    needs no extra blocks; gamma_1j rotations are added only for coordinates
    without a (1, j) block.  Every row of the one block table gets eps/rows.
    """
    return _compile(u, eps, gate_set, net, depth, pure=True)


def evaluate_lifted(word: LiftedWord, gate_set: GateSet, n: int) -> np.ndarray:
    """Left-to-right product of embedded letters as a dense N x N matrix.

    Each same-plane run gathers its letters' matrices, is multiplied out as a
    batched 2x2 product, then applied to the plane's two columns in one
    update; only one run's matrices are held at a time.
    """
    table, codes = letter_table(gate_set), word.word.codes_for(gate_set)
    m = np.eye(n, dtype=np.complex128)
    for p, q, start, stop in word.segments:
        check_plane(p, q, n)
        cols = [p - 1, q - 1]
        m[:, cols] = m[:, cols] @ chain_product(table[codes[start:stop]])
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

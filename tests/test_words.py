"""Property tests of the compact word representation and its evaluators.

The batched evaluators (pairwise halving per same-plane run) are checked
against a plain sequential left-to-right product kept here.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twolevel import build_net, compiler, su2
from twolevel.compiler import CompilationResult, LiftedWord, lift_word, verify
from twolevel.errors import InvalidInput
from twolevel.sk import GateSet, GateWord, evaluate_word

from util import haar_su2, haar_unitary, lifted

ALPHABET = GateSet.from_letters(
    [(lab, haar_su2(np.random.default_rng(k))) for k, lab in enumerate(("a", "b", "c"))]
)
DIM = 5
PLANES = [(p, q) for q in range(2, DIM + 1) for p in range(1, q)]

letters = st.tuples(st.sampled_from(ALPHABET.labels), st.booleans())
words = st.lists(letters, max_size=300)
lifted_letters = st.builds(
    lambda lab, inv, plane: (lab, inv, *plane),
    st.sampled_from(ALPHABET.labels),
    st.booleans(),
    st.sampled_from(PLANES),
)


def letter_matrix(label, inv, gate_set=ALPHABET):
    x = gate_set.matrices[gate_set.labels.index(label)]
    return x.conj().T if inv else x


def sequential_word(letters):
    m = np.eye(2, dtype=complex)
    for lab, inv in letters:
        m = m @ letter_matrix(lab, inv)
    return m


def sequential_lifted(letters, n):
    m = np.eye(n, dtype=complex)
    for lab, inv, p, q in letters:
        e = np.eye(n, dtype=complex)
        e[np.ix_([p - 1, q - 1], [p - 1, q - 1])] = letter_matrix(lab, inv)
        m = m @ e
    return m


def alphabet_word(letters):
    """A word over the alphabet's own label table, as the package builds them."""
    codes = [2 * ALPHABET.labels.index(lab) + inv for lab, inv in letters]
    return GateWord.from_codes(codes, ALPHABET.labels)


@settings(max_examples=200, deadline=None)
@given(words)
def test_evaluate_word_matches_sequential_product(letters):
    got = evaluate_word(GateWord(letters), ALPHABET)
    assert np.abs(got - sequential_word(letters)).max() <= 1e-12


@given(st.lists(letters, max_size=1))
def test_evaluate_word_is_exact_on_empty_and_single_letters(letters):
    assert np.array_equal(evaluate_word(GateWord(letters), ALPHABET), sequential_word(letters))


@settings(max_examples=100, deadline=None)
@given(words, words)
def test_word_codes_inverse_and_concatenation(w1, w2):
    a, b = alphabet_word(w1), alphabet_word(w2)
    assert GateWord.concat([a, b]).letters == tuple(w1) + tuple(w2)
    a_inv = GateWord.from_codes(a.codes[::-1] ^ 1, a.labels)  # as the SK recursion inverts
    assert a_inv.letters == tuple((lab, not inv) for lab, inv in reversed(w1))
    assert np.abs(evaluate_word(a_inv, ALPHABET) - sequential_word(w1).conj().T).max() <= 1e-12


def test_concat_rejects_two_label_tables():
    a, b = GateWord([("a", False)]), GateWord([("b", True)])
    with pytest.raises(InvalidInput):
        GateWord.concat([a, b])
    with pytest.raises(InvalidInput):
        GateWord.concat([alphabet_word([("a", False)]), a])
    assert GateWord.concat([GateWord(), a, GateWord()]).letters == (("a", False),)


@settings(max_examples=200, deadline=None)
@given(st.lists(lifted_letters, max_size=200), st.integers(DIM, DIM + 2))
def test_evaluate_lifted_matches_sequential_product(letters, n):
    word = lifted(letters)
    assert word.letters == tuple(letters) and len(word) == len(letters)
    got = compiler.evaluate_lifted(word, ALPHABET, n)
    assert np.abs(got - sequential_lifted(letters, n)).max() <= 1e-12


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(words, st.sampled_from(PLANES)), max_size=6))
def test_joined_lifts_match_sequential_product(blocks):
    word = LiftedWord.join([lift_word(alphabet_word(w), p, q) for w, (p, q) in blocks])
    flat = tuple((lab, inv, p, q) for w, (p, q) in blocks for lab, inv in w)
    assert word.letters == flat and word.segments == lifted(flat).segments
    got = compiler.evaluate_lifted(word, ALPHABET, DIM)
    assert np.abs(got - sequential_lifted(flat, DIM)).max() <= 1e-12


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(words, st.sampled_from(PLANES[:3])), max_size=8))
def test_lifted_word_json_matches_per_letter_reference(parts):
    """Interleaved and merging planes, the empty word, and both label-table
    conventions: a word over the alphabet's table, as SK builds it, and the
    same word parsed back, over its labels in order of first use."""
    word = LiftedWord.join([lift_word(alphabet_word(w), p, q) for w, (p, q) in parts])
    ref = [{"label": lab, "inv": inv, "p": p, "q": q} for lab, inv, p, q in word.letters]
    parsed = LiftedWord.from_json(ref)
    assert parsed.letters == word.letters and parsed.segments == word.segments
    for w in (word, parsed):
        got = w.to_json()
        assert json.dumps(got) == json.dumps(ref)  # same keys, key order and value types
        assert len({id(d) for d in got}) == len(got)
        if got:
            got[0]["label"] = "zz"
            assert got[1:] == ref[1:] and w.to_json() == ref
    r = CompilationResult(dim=DIM, word=word)
    assert CompilationResult.from_json(r.to_json()).to_json() == r.to_json()


@given(st.lists(lifted_letters, max_size=1))
def test_evaluate_lifted_is_exact_on_empty_and_single_letters(letters):
    got = compiler.evaluate_lifted(lifted(letters), ALPHABET, DIM)
    assert np.array_equal(got, sequential_lifted(letters, DIM))


@given(words, st.integers(0, 300))
def test_unknown_label_is_rejected(letters, at):
    letters = list(letters)
    letters.insert(at % (len(letters) + 1), ("zz", False))
    with pytest.raises(InvalidInput, match="unknown letter 'zz'"):
        evaluate_word(GateWord(letters), ALPHABET)
    with pytest.raises(InvalidInput, match="unknown letter 'zz'"):
        compiler.evaluate_lifted(lifted([(lab, inv, 1, 2) for lab, inv in letters]), ALPHABET, 2)


@given(st.lists(lifted_letters, max_size=50), st.integers(2, DIM))
def test_plane_outside_dim_is_rejected(letters, q):
    letters = letters + [("a", False, 1, q)]
    n = max(q for _, _, _, q in letters) - 1
    with pytest.raises(InvalidInput, match=f"require 1 <= p < q <= {n}, got"):
        compiler.evaluate_lifted(lifted(letters), ALPHABET, n)


def test_net_words_evaluate_over_only_the_letters_they_use():
    """Net words carry the whole alphabet as their label table."""
    net = build_net(ALPHABET, 3)
    checked = 0
    for i in range(1, len(net)):
        w = net.word_at(i)
        used = sorted({lab for lab, _ in w.letters})
        if len(used) == len(ALPHABET.labels):
            continue
        only = GateSet.from_letters([(lab, letter_matrix(lab, False)) for lab in used])
        assert np.abs(evaluate_word(w, only) - su2.from_quat(net.quats[i])).max() <= 1e-12
        r = CompilationResult(dim=3, word=lift_word(w, 2, 3))
        u = sequential_lifted(r.word.letters, 3)
        assert verify(u, r, only) <= 1e-12
        assert verify(u, CompilationResult.from_json(r.to_json()), only) <= 1e-12
        checked += 1
    assert checked >= 20


def test_lift_word_rejects_bad_plane():
    with pytest.raises(InvalidInput, match=r"require 1 <= p < q, got \(2, 2\)"):
        lift_word(GateWord((("a", False),)), 2, 2)


@settings(max_examples=12, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1), st.booleans())
def test_result_json_round_trip(gate_set, net12, n, seed, pure):
    u = haar_unitary(n, np.random.default_rng(seed))
    run = compiler.compile_pure if pure else compiler.compile
    r = run(u, 0.2, gate_set, net12)
    back = CompilationResult.from_json(r.to_json())
    assert back.to_json() == r.to_json()
    assert verify(u, back, gate_set) == verify(u, r, gate_set) == r.achieved_error

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twolevel import compiler, core
from twolevel.compiler import CompilationResult, compile_pure, lift_word, verify
from twolevel.embeddings import embed_coordinate
from twolevel.errors import AccuracyNotReached, InvalidInput
from twolevel.givens import factor
from twolevel.sk import GateWord, build_net, evaluate_word, sk_approximate_with_error

from test_factor_properties import unitaries
from util import haar_su2, haar_unitary, lifted, su_normalize

tl_compile = compiler.compile


def dense_eval_oracle(result, gate_set):
    """Independent evaluation of ``result.to_json()``: full embedded matmuls, one per
    letter, then the diagonal and the phase."""
    obj = result.to_json()
    n = obj["dim"]
    m = np.eye(n, dtype=complex)
    for letter in obj["word"]:
        x = gate_set.matrices[gate_set.index_of(letter["label"])]
        if letter["inv"]:
            x = x.conj().T
        m = m @ embed_coordinate(letter["p"], letter["q"], x, n)
    diagonal = [complex(re, im) for re, im in obj["diagonal"]]
    return np.exp(1j * obj["global_phase"]) * m @ np.diag(diagonal)


def test_compile_identity(gate_set, net12):
    r = tl_compile(np.eye(4), 0.1, gate_set, net12)
    assert r.word.letters == ()
    assert np.allclose(r.diagonal.entries, 1.0)
    assert r.certified_bound == 0.0
    assert r.achieved_error <= 1e-12
    assert r.block_count == 0


def test_compile_diagonal_target(gate_set, net12):
    rng = np.random.default_rng(0)
    d = np.exp(1j * rng.uniform(-np.pi, np.pi, 4))
    r = tl_compile(np.diag(d), 0.1, gate_set, net12)
    assert r.word.letters == ()
    assert r.certified_bound == 0.0
    assert np.abs(r.diagonal.entries - d).max() <= 1e-12
    assert r.achieved_error <= 1e-10


def test_compile_random_su4(gate_set, net12):
    rng = np.random.default_rng(1)
    u = su_normalize(haar_unitary(4, rng))
    r = tl_compile(u, 0.1, gate_set, net12)
    assert r.block_count == 6
    assert r.achieved_error <= 0.1
    assert r.certified_bound <= 0.1
    assert r.achieved_error <= r.certified_bound + 1e-9
    assert r.word_length == len(r.word)


def test_compile_verifier_is_independent(gate_set, net12):
    rng = np.random.default_rng(2)
    u = haar_unitary(4, rng)
    r = tl_compile(u, 0.2, gate_set, net12)
    direct = core.operator_norm(u - dense_eval_oracle(r, gate_set))
    assert abs(direct - verify(u, r, gate_set)) <= 1e-12
    assert abs(direct - r.achieved_error) <= 1e-12


def test_compile_certified_bound_soundness(gate_set, net12):
    rng = np.random.default_rng(3)
    for n in (2, 4, 8):
        for eps in (0.2, 0.1):
            u = haar_unitary(n, rng)
            r = tl_compile(u, eps, gate_set, net12)
            assert verify(u, r, gate_set) <= r.certified_bound + 1e-9
            assert r.certified_bound <= eps


@settings(max_examples=100, deadline=None)
@given(unitaries(5), st.sampled_from((0.3, 0.1)))
def test_certificate_is_sound(gate_set, net8, u, eps):
    """achieved <= certified <= eps, and achieved is the error of the emitted JSON."""
    n = u.shape[0]
    for run in (tl_compile, compile_pure):
        try:
            r = run(u, eps, gate_set, net8)
        except AccuracyNotReached:
            continue
        assert r.certified_bound <= eps
        assert r.achieved_error <= r.certified_bound + 1e-10 * n
        direct = core.operator_norm(u - dense_eval_oracle(r, gate_set))
        assert abs(direct - r.achieved_error) <= 1e-12


def test_compile_pure_equivalence(gate_set, net12):
    rng = np.random.default_rng(4)
    u = haar_unitary(4, rng)
    eps = 0.1
    # compile succeeds at half budget, so the pure variant meets the full one.
    tl_compile(u, eps / 2, gate_set, net12)
    r = compile_pure(u, eps, gate_set, net12)
    assert np.allclose(r.diagonal.entries, 1.0)
    assert r.achieved_error <= eps
    assert r.certified_bound <= eps


def test_compile_pure_diagonal_target(gate_set, net12):
    rng = np.random.default_rng(5)
    d = np.exp(1j * rng.uniform(-np.pi, np.pi, 4))
    r = compile_pure(np.diag(d), 0.1, gate_set, net12)
    assert r.block_count == 0
    assert len(r.word) > 0  # only lifted gamma approximants
    assert all(p == 1 for _, _, p, _ in r.word.letters)
    assert r.achieved_error <= 0.1


def test_compile_pure_scalar(gate_set, net12):
    alpha = 0.4
    r = compile_pure(np.exp(1j * alpha) * np.eye(4), 0.3, gate_set, net12)
    assert r.word.letters == ()
    assert abs(r.global_phase - alpha) <= 1e-12
    assert r.achieved_error <= 1e-10


def test_compile_rejects_bad_eps(gate_set, net12):
    with pytest.raises(InvalidInput):
        tl_compile(np.eye(2), 0.0, gate_set, net12)
    with pytest.raises(InvalidInput):
        compile_pure(np.eye(2), 1.0, gate_set, net12)


@pytest.mark.parametrize("shape", [(0, 0), (0, 3)])
def test_empty_matrix_is_invalid_input(gate_set, net8, shape):
    with pytest.raises(InvalidInput):
        tl_compile(np.zeros(shape), 0.1, gate_set, net8)
    with pytest.raises(InvalidInput):
        compile_pure(np.zeros(shape), 0.1, gate_set, net8)
    with pytest.raises(InvalidInput):
        factor(np.zeros(shape))


@pytest.mark.parametrize("pure", [False, True])
@pytest.mark.parametrize("kind", ["identity", "haar"])
def test_compile_rejects_negative_depth(gate_set, net8, kind, pure):
    u = np.eye(3) if kind == "identity" else haar_unitary(3, np.random.default_rng(21))
    run = compile_pure if pure else tl_compile
    with pytest.raises(InvalidInput, match="depth"):
        run(u, 0.1, gate_set, net8, depth=-1)


def test_compile_rejects_mismatched_alphabet(net12):
    from twolevel import su2

    other = compiler.GateSet.from_letters([("a", su2.rot_x(0.3)), ("b", su2.rot_y(0.4))])
    with pytest.raises(InvalidInput):
        tl_compile(np.eye(2), 0.1, other, net12)


def test_compile_pure_at_n8(gate_set, net12):
    rng = np.random.default_rng(12)
    u = haar_unitary(8, rng)
    r = compile_pure(u, 0.1, gate_set, net12)
    assert r.block_count == 28
    assert r.achieved_error <= r.certified_bound + 1e-9 <= 0.1 + 1e-9


def test_compile_accuracy_failure_reports_blocks(gate_set):
    tiny = build_net(gate_set, 1)
    rng = np.random.default_rng(6)
    u = haar_unitary(4, rng)
    with pytest.raises(AccuracyNotReached) as exc_info:
        tl_compile(u, 0.01, gate_set, tiny, depth=0)
    blocks = exc_info.value.blocks
    assert blocks
    for k, p, q, budget, achieved in blocks:
        assert achieved > budget
    # A pure compile reports every missed block, Givens and gamma alike, each
    # by its row in the one block table: the gamma rows follow the K Givens rows.
    # 1 + Haar(2) has no (1, j) Givens block to absorb its diagonal, so it keeps
    # gamma rows.
    u = np.eye(3, dtype=complex)
    u[1:, 1:] = haar_unitary(2, np.random.default_rng(1))
    with pytest.raises(AccuracyNotReached) as exc_info:
        compile_pure(u, 0.3, gate_set, build_net(gate_set, 2), depth=0)
    k = len(factor(u).factors)
    rows = [b[0] for b in exc_info.value.blocks]
    assert len(set(rows)) == len(rows)
    assert min(rows) < k <= max(rows)
    assert all(p == 1 for row, p, q, _, _ in exc_info.value.blocks if row >= k)


def test_lift_word_empty():
    assert lift_word(GateWord(), 1, 2).letters == ()


def test_lift_word_single_letter(gate_set):
    w = GateWord((("rx", False),))
    lifted = lift_word(w, 1, 2)
    assert len(lifted) == 1
    got = compiler.evaluate_lifted(lifted, gate_set, 4)
    want = embed_coordinate(1, 2, evaluate_word(w, gate_set), 4)
    assert np.abs(got - want).max() <= 1e-12


def test_lift_word_error_preservation(gate_set, net8):
    rng = np.random.default_rng(7)
    for _ in range(10):
        v = haar_su2(rng)
        w, _ = sk_approximate_with_error(v, 0.3, net8, depth=2)
        lifted = lift_word(w, 2, 5)
        lhs = core.operator_norm(
            embed_coordinate(2, 5, v, 6) - compiler.evaluate_lifted(lifted, gate_set, 6)
        )
        rhs = core.operator_norm(v - evaluate_word(w, gate_set))
        assert abs(lhs - rhs) <= 1e-12


def test_verify_exact_diagonal_result(gate_set):
    rng = np.random.default_rng(8)
    d = np.exp(1j * rng.uniform(-np.pi, np.pi, 4))
    r = CompilationResult(dim=4, diagonal=compiler.DiagonalUnitary(np.angle(d)))
    assert verify(np.diag(d), r, gate_set) <= 1e-12


def test_verify_perturbed_word_is_worse(gate_set, net12):
    rng = np.random.default_rng(9)
    u = haar_unitary(4, rng)
    r = tl_compile(u, 0.1, gate_set, net12)
    base = verify(u, r, gate_set)
    (label, inverted, p, q), *rest = r.word.letters
    perturbed = CompilationResult(
        dim=r.dim,
        word=lifted([(label, not inverted, p, q), *rest]),
        diagonal=r.diagonal,
        global_phase=r.global_phase,
    )
    assert verify(u, perturbed, gate_set) > base


def test_compilation_result_json_round_trip(gate_set, net12):
    rng = np.random.default_rng(10)
    u = haar_unitary(4, rng)
    r = compile_pure(u, 0.2, gate_set, net12)
    back = CompilationResult.from_json(r.to_json())
    assert back.dim == r.dim
    assert back.word_length == r.word_length
    assert abs(verify(u, back, gate_set) - r.achieved_error) <= 1e-12


def test_compile_skips_near_identity_blocks(gate_set, net12):
    from twolevel import su2

    u = embed_coordinate(1, 2, su2.rot_x(0.001), 4)
    r = tl_compile(u, 0.1, gate_set, net12)
    assert r.block_count == 1
    assert r.word.letters == ()  # block within budget of the identity
    assert 0.0 < r.certified_bound <= 0.001
    assert r.achieved_error <= r.certified_bound + 1e-9


def test_budget_uses_emitted_block_count(gate_set, net12):
    # A single embedded block leaves K = 1, so the whole budget goes to it.
    rng = np.random.default_rng(11)
    v = haar_su2(rng)
    u = embed_coordinate(1, 2, v, 4)
    r = tl_compile(u, 0.05, gate_set, net12)
    assert r.block_count == 1
    assert r.achieved_error <= 0.05

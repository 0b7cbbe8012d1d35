import numpy as np
import pytest

from twolevel import core, embeddings
from twolevel.embeddings import embed_coordinate, embed_frame, tensor_place
from twolevel.errors import InvalidInput

from util import haar_su2, haar_unitary, random_frame


def test_embed_coordinate_identity():
    for p, q in ((1, 2), (2, 5), (1, 6)):
        assert np.array_equal(embed_coordinate(p, q, np.eye(2), 6), np.eye(6))


def test_embed_coordinate_sigma_x_is_transposition():
    # Oracle: direct construction of the permutation swapping e1 and e3.
    perm = np.zeros((4, 4), dtype=complex)
    perm[0, 2] = perm[2, 0] = 1.0
    perm[1, 1] = perm[3, 3] = 1.0
    got = embed_coordinate(1, 3, core.PAULI["x"], 4)
    assert np.array_equal(got, perm)


def test_embed_coordinate_entry_placement():
    rng = np.random.default_rng(0)
    v = haar_su2(rng)
    u = embed_coordinate(2, 4, v, 5)
    assert u[1, 1] == v[0, 0] and u[1, 3] == v[0, 1]
    assert u[3, 1] == v[1, 0] and u[3, 3] == v[1, 1]
    assert core.unitarity_defect(u) <= 1e-12


def test_embed_coordinate_bad_indices():
    for p, q in ((0, 2), (2, 2), (3, 2), (1, 9)):
        with pytest.raises(InvalidInput, match=r"require 1 <= p < q <= 8, got"):
            embed_coordinate(p, q, np.eye(2), 8)


def test_embed_isometry():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(2, 17))
        p = int(rng.integers(1, n))
        q = int(rng.integers(p + 1, n + 1))
        v, w = haar_su2(rng), haar_su2(rng)
        lhs = core.operator_norm(embed_coordinate(p, q, v, n) - embed_coordinate(p, q, w, n))
        assert abs(lhs - core.operator_norm(v - w)) <= 1e-10


def test_embed_homomorphism():
    rng = np.random.default_rng(2)
    for _ in range(50):
        v, w = haar_su2(rng), haar_su2(rng)
        lhs = embed_coordinate(2, 3, v @ w, 5)
        rhs = embed_coordinate(2, 3, v, 5) @ embed_coordinate(2, 3, w, 5)
        assert np.abs(lhs - rhs).max() <= 1e-12


def test_embed_frame_identity():
    rng = np.random.default_rng(3)
    f = random_frame(6, rng)
    assert np.allclose(embed_frame(f, np.eye(2)), np.eye(6), atol=1e-14)


def test_embed_frame_matches_coordinate_embedding():
    rng = np.random.default_rng(4)
    s = haar_su2(rng)
    f = np.zeros((5, 2), dtype=complex)
    f[1, 0] = 1.0
    f[3, 1] = 1.0
    # Entrywise agreement; I + F(S - I)F^dag re-rounds 1 + (s - 1) by one ulp.
    assert np.abs(embed_frame(f, s) - embed_coordinate(2, 4, s, 5)).max() <= 1e-15


def test_embed_frame_restricted_determinant():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(3, 13))
        f = random_frame(n, rng)
        s = haar_su2(rng)
        u = embed_frame(f, s)
        block = f.conj().T @ u @ f
        det_s = s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0]
        det_b = block[0, 0] * block[1, 1] - block[0, 1] * block[1, 0]
        assert abs(det_b - det_s) <= 1e-10


def test_embed_frame_action_and_unitarity():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(3, 13))
        f = random_frame(n, rng)
        s = haar_su2(rng)
        u = embed_frame(f, s)
        assert core.unitarity_defect(u) <= 1e-12
        assert np.abs(u @ f - f @ s).max() <= 1e-12
        # Identity on the orthogonal complement.
        full, _ = np.linalg.qr(np.concatenate([f, rng.standard_normal((n, n))], axis=1))
        comp = full[:, 2:n]
        comp = comp - f @ (f.conj().T @ comp)
        assert np.abs(u @ comp - comp).max() <= 1e-10


def test_embed_frame_gauge_covariance():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(3, 13))
        f = random_frame(n, rng)
        r = haar_unitary(2, rng)
        s = haar_su2(rng)
        lhs = embed_frame(f @ r, s)
        rhs = embed_frame(f, r @ s @ r.conj().T)
        assert np.abs(lhs - rhs).max() <= 1e-12


def test_embed_frame_generator_hs_isometry():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(3, 13))
        f = random_frame(n, rng)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a = a - a.conj().T
        a = a - 0.5 * np.trace(a) * np.eye(2)
        lifted = f @ a @ f.conj().T
        assert abs(core.hs_norm(lifted) - core.hs_norm(a)) <= 1e-12


def test_embed_frame_rejects_bad_frame():
    f = np.ones((4, 2), dtype=complex)
    with pytest.raises(InvalidInput, match="frame columns are not orthonormal"):
        embed_frame(f, np.eye(2))


def test_tensor_place_identity():
    assert np.array_equal(tensor_place(2, np.eye(2), 3), np.eye(8))


def _tensor_oracle(j, v, n):
    """Index-arithmetic construction of I x ... x V x ... x I (independent of kron)."""
    dim = 2**n
    out = np.zeros((dim, dim), dtype=complex)
    shift = n - j  # bit position of factor j, counting from the least significant bit
    for r in range(dim):
        for c in range(dim):
            if (r & ~(1 << shift)) == (c & ~(1 << shift)):
                out[r, c] = v[(r >> shift) & 1, (c >> shift) & 1]
    return out


def test_tensor_place_matches_index_oracle():
    rng = np.random.default_rng(9)
    for n in (1, 2, 3):
        for j in range(1, n + 1):
            v = haar_su2(rng)
            assert np.abs(tensor_place(j, v, n) - _tensor_oracle(j, v, n)).max() <= 1e-15


def test_tensor_place_sigma_x_pairs():
    got = tensor_place(1, core.PAULI["x"], 2)
    perm = np.zeros((4, 4), dtype=complex)
    perm[0, 2] = perm[2, 0] = perm[1, 3] = perm[3, 1] = 1.0
    assert np.array_equal(got, perm)


def test_tensor_place_mixed_product():
    rng = np.random.default_rng(10)
    for _ in range(10):
        a, b = haar_su2(rng), haar_su2(rng)
        lhs = tensor_place(1, a, 2) @ tensor_place(2, b, 2)
        assert np.abs(lhs - np.kron(a, b)).max() <= 1e-14


def test_tensor_place_bad_index():
    with pytest.raises(InvalidInput, match=r"require 1 <= j <= 2, got 0"):
        tensor_place(0, np.eye(2), 2)
    with pytest.raises(InvalidInput, match=r"require 1 <= j <= 2, got 3"):
        tensor_place(3, np.eye(2), 2)


def test_two_level_factor_validation():
    with pytest.raises(InvalidInput, match=r"require 1 <= p < q, got \(3, 2\)"):
        embeddings.TwoLevelFactor(3, 2, np.eye(2))
    with pytest.raises(InvalidInput):
        embeddings.TwoLevelFactor(1, 2, np.eye(3))

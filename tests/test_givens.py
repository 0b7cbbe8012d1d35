import numpy as np
import pytest

from twolevel import core
from twolevel.embeddings import TwoLevelFactor, embed_coordinate
from twolevel.errors import NotUnitary
from twolevel.givens import Factorization, factor, reconstruct

from util import haar_su2, haar_unitary, su_normalize


def test_factor_identity():
    f = factor(np.eye(6))
    assert f.factors == []
    assert np.array_equal(f.diagonal, np.ones(6))


def test_factor_diagonal_input():
    rng = np.random.default_rng(0)
    d = np.exp(1j * rng.uniform(-np.pi, np.pi, 5))
    f = factor(np.diag(d))
    assert f.factors == []
    assert np.abs(f.diagonal - d).max() <= 1e-14


def test_factor_single_embedded_block():
    rng = np.random.default_rng(1)
    v = haar_su2(rng)
    u = embed_coordinate(1, 2, v, 4)
    f = factor(u)
    assert len(f.factors) == 1
    assert (f.factors[0].p, f.factors[0].q) == (1, 2)
    assert np.abs(np.abs(f.diagonal) - 1.0).max() <= 1e-12
    assert core.operator_norm(u - reconstruct(f)) <= 1e-12


def test_factor_random_u4():
    rng = np.random.default_rng(2)
    for _ in range(20):
        u = haar_unitary(4, rng)
        f = factor(u)
        assert len(f.factors) <= 6
        assert core.operator_norm(u - reconstruct(f)) <= 1e-10


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_round_trip_accuracy(n):
    rng = np.random.default_rng(3 + n)
    for _ in range(20):
        u = haar_unitary(n, rng)
        f = factor(u)
        assert len(f.factors) <= n * (n - 1) // 2
        assert core.operator_norm(u - reconstruct(f)) <= 1e-10 * n


def test_round_trip_at_dim_ceiling():
    # dim 64 is the supported ceiling; the factor count hits the full bound.
    rng = np.random.default_rng(64)
    u = haar_unitary(64, rng)
    f = factor(u)
    assert len(f.factors) == 64 * 63 // 2
    assert core.operator_norm(u - reconstruct(f)) <= 1e-10 * 64


def test_blocks_are_special_unitary():
    rng = np.random.default_rng(4)
    u = haar_unitary(8, rng)
    for fac in factor(u).factors:
        b = fac.block
        det = b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]
        assert abs(det - 1.0) <= 1e-12
        assert core.unitarity_defect(b) <= 1e-12


def test_determinant_conservation():
    rng = np.random.default_rng(5)
    for n in (2, 4, 8):
        u = haar_unitary(n, rng)
        f = factor(u)
        dets = [fac.block[0, 0] * fac.block[1, 1] - fac.block[0, 1] * fac.block[1, 0]
                for fac in f.factors]
        prod = np.prod(dets) * np.prod(f.diagonal) if dets else np.prod(f.diagonal)
        assert abs(prod - np.linalg.det(u)) <= 1e-9


def test_special_input_gives_special_torus_remainder():
    rng = np.random.default_rng(6)
    for n in (2, 4, 8):
        u = su_normalize(haar_unitary(n, rng))
        f = factor(u)
        assert abs(np.prod(f.diagonal) - 1.0) <= 1e-9


def test_factor_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        factor(np.ones((3, 3)))
    with pytest.raises(NotUnitary):
        factor(np.ones((2, 3)))


def test_reconstruct_single_factor_is_embedding():
    rng = np.random.default_rng(7)
    v = haar_su2(rng)
    f = Factorization(5, [TwoLevelFactor(2, 4, v)])
    assert np.abs(reconstruct(f) - embed_coordinate(2, 4, v, 5)).max() <= 1e-15


def test_reconstruct_empty_is_identity():
    assert np.array_equal(reconstruct(Factorization(4)), np.eye(4))


def test_reconstruct_matches_dense_product():
    # Oracle: the same product through full embedded matrices.
    rng = np.random.default_rng(8)
    u = haar_unitary(8, rng)
    f = factor(u)
    dense = np.eye(8, dtype=complex)
    for fac in f.factors:
        dense = dense @ embed_coordinate(fac.p, fac.q, fac.block, 8)
    dense = dense @ np.diag(f.diagonal)
    assert np.abs(reconstruct(f) - dense).max() <= 1e-12

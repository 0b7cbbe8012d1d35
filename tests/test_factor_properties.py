"""Property tests of the Givens factorization and the SU(2) block table.

Inputs are unitaries of dims 1..8 of five kinds: Haar-random, block-diagonal
Haar(k) + Haar(n - k), phased permutations, diagonals and the identity.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from twolevel.compiler import _BUDGET_SHAVE, _specialize_blocks
from twolevel.core import operator_norm
from twolevel.embeddings import embed_coordinate
from twolevel.givens import factor, reconstruct
from twolevel.su2 import det2

from util import haar_unitary


def _unitary(kind, n, seed):
    rng = np.random.default_rng(seed)
    phases = np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    if kind == "haar":
        return haar_unitary(n, rng)
    if kind == "blockdiag" and n > 1:  # at n = 1, the identity
        k = int(rng.integers(1, n))
        u = np.zeros((n, n), dtype=complex)
        u[:k, :k] = haar_unitary(k, rng)
        u[k:, k:] = haar_unitary(n - k, rng)
        return u
    if kind == "permutation":
        return np.eye(n)[rng.permutation(n)] * phases[None, :]
    if kind == "diagonal":
        return np.diag(phases)
    return np.eye(n, dtype=complex)


def unitaries(max_dim=8):
    """Unitaries of dims 1..max_dim of the five kinds."""
    return st.builds(
        _unitary,
        st.sampled_from(("haar", "blockdiag", "permutation", "diagonal", "identity")),
        st.integers(1, max_dim),
        st.integers(0, 2**32 - 1),
    )


@settings(max_examples=150, deadline=None)
@given(unitaries())
def test_factor_reconstruct_round_trip(u):
    n = u.shape[0]
    fact = factor(u)
    assert len(fact.factors) <= n * (n - 1) // 2
    assert operator_norm(reconstruct(fact) - u) <= 1e-12 * n


@settings(max_examples=150, deadline=None)
@given(unitaries(), st.sampled_from((0.1, 1e-3)), st.booleans())
def test_specialized_blocks_are_special_and_reconstruct(u, eps, pure):
    n = u.shape[0]
    fact = factor(u)
    blocks, diagonal, theta = _specialize_blocks(fact, eps, pure)
    # Gamma rows follow the Givens rows, only where no (1, j) block absorbed j.
    first_column = {f.q for f in fact.factors if f.p == 1}
    assert all(p == 1 and q not in first_column for p, q, _, _ in blocks[len(fact.factors):])
    m = np.eye(n, dtype=complex)
    for p, q, s, budget in blocks:
        assert abs(det2(s) - 1.0) <= 1e-12
        assert 0.0 < budget
        m = m @ embed_coordinate(p, q, s, n)
    assert sum(budget for *_, budget in blocks) <= eps
    if pure:
        assert np.array_equal(diagonal.angles, np.zeros(n))
    else:
        assert theta == 0.0
    assert operator_norm(np.exp(1j * theta) * m @ diagonal.matrix() - u) <= 1e-12 * n


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.sampled_from((0.1, 1e-3)))
def test_pure_haar_table_has_only_the_givens_rows(n, seed, eps):
    # A dense input has a (1, j) block for every j, whose gauge absorbs the
    # diagonal: no gamma rows, and each of the K rows gets eps/K.
    fact = factor(_unitary("haar", n, seed))
    blocks, _, _ = _specialize_blocks(fact, eps, pure=True)
    k = len(fact.factors)
    assert k == n * (n - 1) // 2
    assert [(p, q) for p, q, _, _ in blocks] == [(f.p, f.q) for f in fact.factors]
    assert all(budget == eps / k * _BUDGET_SHAVE for *_, budget in blocks)

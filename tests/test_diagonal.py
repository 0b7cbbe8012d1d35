import numpy as np
import pytest

from twolevel import core
from twolevel.diagonal import (
    DiagonalUnitary,
    PhaseProgram,
    gamma_1j,
    phase_split,
    principal_angle,
    synth_full_diagonal,
    synth_special_diagonal,
)
from twolevel.errors import InvalidInput, NotSpecial, NotUnitary


def random_torus(n, rng):
    return DiagonalUnitary(rng.uniform(-np.pi, np.pi, n))


def test_principal_angle_branch():
    assert principal_angle(np.pi) == np.pi
    assert principal_angle(-np.pi) == np.pi
    assert abs(principal_angle(3 * np.pi / 2) - (-np.pi / 2)) < 1e-15
    assert principal_angle(0.25) == 0.25


def test_phase_split_identity():
    theta, d0 = phase_split(DiagonalUnitary(np.zeros(4)))
    assert theta == 0.0
    assert np.array_equal(d0.angles, np.zeros(4))


def test_phase_split_scalar():
    theta, d0 = phase_split(DiagonalUnitary(np.full(2, np.pi / 4)))
    assert abs(theta - np.pi / 4) < 1e-15
    assert np.abs(d0.angles).max() < 1e-15


def test_phase_split_hand_example():
    # D = diag(i, 1): det = i, theta = pi/4, D0 = diag(e^{i pi/4}, e^{-i pi/4}).
    theta, d0 = phase_split(DiagonalUnitary([np.pi / 2, 0.0]))
    assert abs(theta - np.pi / 4) < 1e-15
    assert np.abs(d0.angles - [np.pi / 4, -np.pi / 4]).max() < 1e-15


def test_phase_split_reassembles():
    rng = np.random.default_rng(0)
    for n in (2, 3, 8, 16):
        d = random_torus(n, rng)
        theta, d0 = phase_split(d)
        assert abs(np.prod(d0.entries) - 1.0) <= 1e-10
        assert np.abs(np.exp(1j * theta) * d0.entries - d.entries).max() <= 1e-12


def test_gamma_identity():
    assert np.array_equal(gamma_1j(2, 0.0, 4), np.eye(4))


def test_gamma_two_pi_is_minus_identity():
    assert np.allclose(gamma_1j(2, 2 * np.pi, 2), -np.eye(2), atol=1e-15)


def test_gamma_recognized_as_two_level():
    g = gamma_1j(3, 1.1, 5)
    rows, cols = np.nonzero(np.abs(g - np.eye(5)) > 1e-12)
    assert set(rows) | set(cols) == {0, 2}
    block = g[np.ix_([0, 2], [0, 2])]
    assert np.abs(block - np.diag([np.exp(0.55j), np.exp(-0.55j)])).max() <= 1e-14


def test_gamma_determinant_and_support():
    g = gamma_1j(4, 0.7, 6)
    assert abs(np.linalg.det(g) - 1.0) <= 1e-12
    assert core.unitarity_defect(g) <= 1e-12


def test_gamma_one_parameter_subgroup():
    s, t = 0.9, -2.3
    lhs = gamma_1j(3, s, 4) @ gamma_1j(3, t, 4)
    assert np.abs(lhs - gamma_1j(3, s + t, 4)).max() <= 1e-12


def test_gamma_factors_commute():
    rng = np.random.default_rng(1)
    n = 6
    ts = rng.uniform(-3, 3, n - 1)
    fwd = np.eye(n, dtype=complex)
    rev = np.eye(n, dtype=complex)
    for j, t in zip(range(2, n + 1), ts):
        fwd = fwd @ gamma_1j(j, t, n)
    for j, t in zip(range(n, 1, -1), ts[::-1]):
        rev = rev @ gamma_1j(j, t, n)
    assert np.abs(fwd - rev).max() <= 1e-12


def test_gamma_bad_index():
    with pytest.raises(InvalidInput, match=r"require 1 <= p < q <= 4, got \(1, 1\)"):
        gamma_1j(1, 0.5, 4)
    with pytest.raises(InvalidInput, match=r"require 1 <= p < q <= 4, got \(1, 5\)"):
        gamma_1j(5, 0.5, 4)


def test_synth_special_identity():
    prog = synth_special_diagonal(DiagonalUnitary(np.zeros(4)))
    assert prog.global_phase == 0.0
    assert prog.rotations == []


def test_synth_special_hand_example():
    d0 = DiagonalUnitary([np.pi / 2, -np.pi / 2, 0.0, 0.0])
    prog = synth_special_diagonal(d0)
    assert prog.rotations == [(2, np.pi)]
    assert np.abs(prog.evaluate(4) - d0.matrix()).max() <= 1e-14


def test_synth_special_random_torus():
    rng = np.random.default_rng(2)
    for _ in range(20):
        angles = rng.uniform(-np.pi, np.pi, 8)
        angles[0] = -principal_angle(np.sum(angles[1:]))
        d0 = DiagonalUnitary(angles)
        prog = synth_special_diagonal(d0)
        assert core.operator_norm(prog.evaluate(8) - d0.matrix()) <= 1e-10
        # All emitted factors genuinely land in SU(N).
        for j, t in prog.rotations:
            assert abs(np.linalg.det(gamma_1j(j, t, 8)) - 1.0) <= 1e-12


def test_synth_special_rejects_non_special():
    with pytest.raises(NotSpecial):
        synth_special_diagonal(DiagonalUnitary([0.3, 0.0]))


def test_synth_full_identity():
    prog = synth_full_diagonal(DiagonalUnitary(np.zeros(3)))
    assert prog.global_phase == 0.0
    assert prog.rotations == []


def test_synth_full_scalar():
    # Split is exact for scalars inside the principal branch (|N alpha| <= pi).
    alpha = 0.3
    prog = synth_full_diagonal(DiagonalUnitary(np.full(4, alpha)))
    assert abs(prog.global_phase - alpha) < 1e-12
    assert all(abs(t) < 1e-12 for _, t in prog.rotations)
    # Outside the branch the program still evaluates to the input.
    d = DiagonalUnitary(np.full(4, 0.8))
    prog = synth_full_diagonal(d)
    assert core.operator_norm(prog.evaluate(4) - d.matrix()) <= 1e-10


def test_synth_full_quarter_phase():
    d = DiagonalUnitary([np.pi / 2, 0.0, 0.0, 0.0])
    prog = synth_full_diagonal(d)
    assert abs(prog.global_phase - np.pi / 8) < 1e-12
    assert core.operator_norm(prog.evaluate(4) - d.matrix()) <= 1e-10


def test_synth_full_random():
    rng = np.random.default_rng(3)
    for n in (2, 4, 8, 16):
        for _ in range(10):
            d = random_torus(n, rng)
            prog = synth_full_diagonal(d)
            assert core.operator_norm(prog.evaluate(n) - d.matrix()) <= 1e-10


def test_diagonal_unitary_from_matrix_validation():
    with pytest.raises(InvalidInput, match="not diagonal"):
        DiagonalUnitary.from_matrix(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(NotUnitary, match="not unit modulus"):
        DiagonalUnitary.from_matrix(np.diag([2.0, 1.0]))
    d = DiagonalUnitary.from_matrix(np.diag([1.0j, -1.0j]))
    assert np.abs(d.angles - [np.pi / 2, -np.pi / 2]).max() < 1e-15


def test_phase_program_evaluate_matches_gamma_product():
    # Dual route: angle accumulation vs explicit matrix product of rotations.
    rng = np.random.default_rng(4)
    n = 6
    rotations = [(int(j), float(rng.uniform(-4, 4))) for j in rng.choice(range(2, n + 1), 4)]
    prog = PhaseProgram(0.4, rotations)
    dense = np.exp(0.4j) * np.eye(n, dtype=complex)
    for j, t in rotations:
        dense = dense @ gamma_1j(j, t, n)
    assert np.abs(prog.evaluate(n) - dense).max() <= 1e-12


def test_diagonal_unitary_wraps_angles():
    d = DiagonalUnitary([3 * np.pi / 2, -np.pi, 5.0])
    assert np.all(d.angles > -np.pi) and np.all(d.angles <= np.pi)
    assert np.abs(d.entries - np.exp(1j * np.array([3 * np.pi / 2, -np.pi, 5.0]))).max() <= 1e-12

import numpy as np
import pytest

from twolevel import core, su2
from twolevel.errors import NotSpecial

from util import haar_su2, haar_unitary, random_frame


def test_split_phase_su2_input():
    rng = np.random.default_rng(0)
    v = haar_su2(rng)
    theta, s = su2.split_phase_u2(v)
    assert abs(theta) < 1e-12
    assert np.abs(s - v).max() < 1e-12


def test_split_phase_i_times_identity():
    theta, s = su2.split_phase_u2(1j * np.eye(2))
    assert abs(theta - np.pi / 2) < 1e-15
    assert np.abs(s - np.eye(2)).max() < 1e-15


def test_split_phase_single_phase_diagonal():
    alpha = 1.1
    theta, s = su2.split_phase_u2(np.diag([np.exp(1j * alpha), 1.0]))
    assert abs(theta - alpha / 2) < 1e-14
    assert np.abs(s - np.diag([np.exp(1j * alpha / 2), np.exp(-1j * alpha / 2)])).max() < 1e-14


def test_split_phase_remultiply_exact():
    rng = np.random.default_rng(1)
    for _ in range(50):
        v = haar_unitary(2, rng)
        theta, s = su2.split_phase_u2(v)
        assert np.abs(np.exp(1j * theta) * s - v).max() <= 1e-15
        det = s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0]
        assert abs(det - 1.0) <= 1e-12


def test_minlog_su2_identity():
    res = su2.minlog_su2(np.eye(2))
    assert res.hs_norm == 0.0
    assert res.unique
    assert np.abs(res.generator).max() < 1e-15


def test_minlog_su2_minus_identity_cut_locus():
    res = su2.minlog_su2(-np.eye(2))
    assert abs(res.hs_norm - np.pi) < 1e-12
    assert not res.unique
    assert np.abs(core.mat_exp(res.generator) + np.eye(2)).max() <= 1e-10
    assert abs(np.trace(res.generator)) <= 1e-12


def test_minlog_su2_quarter_rotation():
    # exp(-i (theta/2) sigma_x) with theta = pi/2 has eigen-angle pi/4.
    v = su2.rot_x(np.pi / 2)
    res = su2.minlog_su2(v)
    assert abs(res.hs_norm - np.pi / 4) < 1e-12


def test_minlog_su2_random_properties():
    rng = np.random.default_rng(2)
    for _ in range(100):
        v = haar_su2(rng)
        res = su2.minlog_su2(v)
        g = res.generator
        assert np.abs(core.mat_exp(g) - v).max() <= 1e-10
        assert core.anti_hermitian_defect(g) <= 1e-12
        assert abs(np.trace(g)) <= 1e-12
        # Independent trace oracle for the norm.
        alpha = np.arccos(np.clip(0.5 * np.real(np.trace(v)), -1.0, 1.0))
        assert abs(res.hs_norm - alpha) <= 1e-9
        assert abs(core.hs_norm(g) - res.hs_norm) <= 1e-12


def test_minlog_su2_rejects_non_special():
    with pytest.raises(NotSpecial):
        su2.minlog_su2(np.diag([1.0j, 1.0]))


def test_minlog_su2_near_identity_cluster():
    # Clustered eigenvalues: tiny rotations keep the exp round trip tight.
    for theta in (1e-3, 1e-6, 1e-9):
        v = su2.rot_y(theta)
        res = su2.minlog_su2(v)
        assert abs(res.hs_norm - theta / 2) <= 1e-12
        assert np.abs(core.mat_exp(res.generator) - v).max() <= 1e-12


def test_minlog_su2_near_cut_locus_cluster():
    for delta in (1e-4, 1e-7):
        v = su2.rot_x(2 * (np.pi - delta))
        res = su2.minlog_su2(v)
        assert abs(res.hs_norm - (np.pi - delta)) <= 1e-9
        assert np.abs(core.mat_exp(res.generator) - v).max() <= 1e-9
    assert not su2.minlog_su2(su2.rot_x(2 * np.pi - 1e-12)).unique


def test_minlog_u2_identity():
    assert su2.minlog_u2(np.eye(2)).hs_norm == 0.0


def test_minlog_u2_single_phase():
    # theta = (pi/2, 0): norm^2 = (1/2)(pi/2)^2 = pi^2 / 8.
    res = su2.minlog_u2(np.diag([1.0j, 1.0]))
    assert abs(res.hs_norm**2 - np.pi**2 / 8) < 1e-12
    assert res.unique


def test_minlog_u2_minus_identity():
    res = su2.minlog_u2(-np.eye(2))
    assert abs(res.hs_norm**2 - np.pi**2) < 1e-12
    assert not res.unique


def test_minlog_u2_reproduces_input():
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = haar_unitary(2, rng)
        res = su2.minlog_u2(v)
        assert np.abs(core.mat_exp(res.generator) - v).max() <= 1e-10
        assert abs(core.hs_norm(res.generator) - res.hs_norm) <= 1e-12


def test_geodesic_energy_identity():
    assert su2.geodesic_energy(np.eye(2)) == 0.0
    assert su2.geodesic_energy(np.eye(2), special=True) == 0.0


def test_geodesic_energy_minus_identity_special():
    assert abs(su2.geodesic_energy(-np.eye(2), special=True) - np.pi**2 / 2) < 1e-12


def test_geodesic_energy_third_angle():
    # Eigen-angle pi/3 gives energy (1/2)(pi/3)^2 = pi^2 / 18.
    v = su2.rot_z(2 * np.pi / 3)
    assert abs(su2.geodesic_energy(v, special=True) - np.pi**2 / 18) < 1e-12


def test_geodesic_energy_special_flag_rejects_u2():
    with pytest.raises(NotSpecial):
        su2.geodesic_energy(np.diag([1.0j, 1.0]), special=True)


def test_su2_distance_basic():
    rng = np.random.default_rng(4)
    v = haar_su2(rng)
    assert su2.su2_distance(v, v) == 0.0
    assert abs(su2.su2_distance(np.eye(2), -np.eye(2)) - 2.0) < 1e-15


def test_su2_distance_triangle_inequality():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b, c = haar_su2(rng), haar_su2(rng), haar_su2(rng)
        assert su2.su2_distance(a, c) <= su2.su2_distance(a, b) + su2.su2_distance(b, c) + 1e-12


def test_minlog_frame_independence():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(3, 13))
        f = random_frame(n, rng)
        v = haar_su2(rng)
        a = su2.minlog_su2(v).generator
        assert abs(core.hs_norm(f @ a @ f.conj().T) - core.hs_norm(a)) <= 1e-12


def test_rotation_matches_pauli_exponential():
    rng = np.random.default_rng(7)
    for _ in range(10):
        theta = rng.uniform(-np.pi, np.pi)
        lhs = su2.rot_x(theta)
        rhs = core.mat_exp(theta * core.pauli_generator("x"))
        assert np.abs(lhs - rhs).max() <= 1e-12


def test_minlog_u2_eigen_angle_minus_pi_is_cut_locus():
    # e^{-i pi} = -1 - 1.2e-16j has angle -pi: the same cut locus as -1.
    for v in (np.exp(-1j * np.pi) * np.eye(2), np.diag([np.exp(-1j * np.pi), 1.0])):
        res = su2.minlog_u2(v)
        assert not res.unique
        assert np.abs(core.mat_exp(res.generator) - v).max() <= 1e-12


def test_quat_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(50):
        v = haar_su2(rng)
        q = su2.quat(v)
        assert q.shape == (4,) and q.dtype == np.float64
        assert abs(np.linalg.norm(q) - 1.0) <= 1e-14
        assert np.abs(su2.from_quat(q) - v).max() <= 1e-15
    stack = np.array([haar_su2(rng) for _ in range(5)])
    assert np.array_equal(su2.quat(stack), np.array([su2.quat(v) for v in stack]))

import numpy as np
import pytest
import scipy.linalg

from twolevel import core, givens, su2
from twolevel.diagonal import DiagonalUnitary
from twolevel.errors import InvalidInput

from util import haar_unitary


def test_operator_norm_zero():
    assert core.operator_norm(np.zeros((3, 2))) == 0.0
    assert core.operator_norm(np.zeros((1, 1))) == 0.0


def test_operator_norm_diagonal_exact():
    assert core.operator_norm(np.diag([2.0, 1.0])) == 2.0
    assert core.operator_norm(np.diag([-3.0, 1.0j])) == 3.0


def test_operator_norm_sigma_x_minus_sigma_z():
    a = np.array([[-1.0, 1.0], [1.0, 1.0]])
    # Oracle: A^dag A = 2 I, so the only singular value is sqrt(2).
    assert np.allclose(a.conj().T @ a, 2.0 * np.eye(2))
    assert abs(core.operator_norm(a) - np.sqrt(2.0)) < 1e-14


def test_operator_norm_rejects_non_finite():
    with pytest.raises(InvalidInput):
        core.operator_norm(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(InvalidInput):
        core.operator_norm(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_operator_norm_unitary_invariance():
    rng = np.random.default_rng(10)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u = haar_unitary(n, rng)
        v = haar_unitary(n, rng)
        assert abs(core.operator_norm(u @ a @ v) - core.operator_norm(a)) <= 1e-10


def test_operator_norm_submultiplicative():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert core.operator_norm(a @ b) <= core.operator_norm(a) * core.operator_norm(b) + 1e-10


def test_hs_norm_zero():
    assert core.hs_norm(np.zeros((3, 3))) == 0.0


def test_hs_norm_hand_values():
    x = 1j * np.diag([1.0, -1.0])
    # (1/2) Tr(X^dag X) = (1/2) Tr(diag(1, 1)) = 1.
    assert abs(core.hs_norm(x) - 1.0) < 1e-14
    t = -0.5j * core.PAULI["x"]
    # (1/2) Tr(sigma_x^2)/4 with Tr(sigma_x^2) = 2 gives a squared norm of 1/4.
    assert abs(core.hs_norm(t) - 0.5) < 1e-14
    # Tr((sigma_x x sigma_x)^2) = 4, so the squared HS norm is 4/8 = 1/2.
    assert abs(core.hs_norm(-0.5j * np.kron(core.PAULI["x"], core.PAULI["x"])) ** 2 - 0.5) < 1e-14


def test_hs_norm_positive_definite():
    rng = np.random.default_rng(16)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x = a - a.conj().T
        assert core.hs_norm(x) > 0.0


def test_hs_norm_ad_invariance():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x = a - a.conj().T
        w = haar_unitary(n, rng)
        assert abs(core.hs_norm(w @ x @ w.conj().T) - core.hs_norm(x)) <= 1e-10


def test_mat_exp_zero():
    assert np.array_equal(core.mat_exp(np.zeros((3, 3))), np.eye(3))


def test_mat_exp_diagonal_pi():
    x = 1j * np.pi * np.diag([1.0, -1.0])
    assert np.allclose(core.mat_exp(x), -np.eye(2), atol=1e-15)


def test_mat_exp_pauli_rotation_eigenvalues():
    theta = 0.7
    x = theta * -0.5j * core.PAULI["x"]
    ev = np.linalg.eigvals(core.mat_exp(x))
    expected = np.array([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)])
    assert np.allclose(sorted(ev, key=np.angle), sorted(expected, key=np.angle), atol=1e-12)


def test_mat_exp_output_unitary():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x = a - a.conj().T
        assert core.unitarity_defect(core.mat_exp(x)) <= 1e-10 * n


def test_mat_exp_rejects_non_antihermitian():
    with pytest.raises(InvalidInput):
        core.mat_exp(np.eye(2))


def test_exp_log_round_trip():
    # Reference principal log from the complex Schur form: eigen-angles in (-pi, pi].
    rng = np.random.default_rng(14)
    for n in (2, 4, 8, 16):
        for _ in range(10):
            u = haar_unitary(n, rng)
            t, q = scipy.linalg.schur(u, output="complex")
            x = (q * (1j * np.angle(np.diag(t)))) @ q.conj().T
            x = 0.5 * (x - x.conj().T)
            assert core.operator_norm(core.mat_exp(x) - u) <= 1e-9


def test_matrix_json_round_trip():
    rng = np.random.default_rng(15)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    obj = core.matrix_to_json(m)
    back = core.matrix_from_json(obj)
    assert np.array_equal(back, m)


@pytest.mark.parametrize(
    "obj",
    [
        {},
        {"dim": 2},
        {"dim": 2, "entries": [[1.0, 0.0]]},
        {"dim": 0, "entries": []},
        {"dim": 2, "entries": [[1.0, 0.0]] * 3 + [["x", 0.0]]},
        {"dim": 1.9, "entries": [[1.0, 0.0]]},
        {"dim": True, "entries": [[1.0, 0.0]]},
        {"dim": "1", "entries": [[1.0, 0.0]]},
        {"dim": 1, "entries": [[True, False]]},
        {"dim": 1, "entries": [[1.0, None]]},
        {"dim": 1, "entries": [[1.0, 0.0, 0.0]]},
        {"dim": 1, "entries": [[1.0, float("inf")]]},
        {"dim": 1, "entries": [[10**400, 0]]},
    ],
)
def test_matrix_json_malformed(obj):
    with pytest.raises(InvalidInput):
        core.matrix_from_json(obj)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), -1.0, -1e-300,
                                 1.0, 1e3, 2 * core.MAX_TOL])
def test_bad_tolerance_is_rejected(tol):
    with pytest.raises(InvalidInput):
        core.scaled_tol(2, tol)
    for call in (lambda: givens.factor(np.eye(2), tol=tol),
                 lambda: su2.minlog_u2(np.eye(2), tol),
                 lambda: su2.minlog_su2(np.eye(2), tol),
                 lambda: core.assert_unitary(np.diag([2.0, 1.0]), tol),
                 lambda: DiagonalUnitary.from_matrix(np.diag([2.0, 1.0]), tol=tol)):
        with pytest.raises(InvalidInput, match="tolerance"):
            call()


def test_scaled_tol_scales_a_good_tolerance():
    assert core.scaled_tol(3) == 3 * core.DEFAULT_TOL
    assert core.scaled_tol(0, core.MAX_TOL) == core.MAX_TOL
    assert core.scaled_tol(4, 0.0) == 0.0

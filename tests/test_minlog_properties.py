"""Property tests of the closed-form SU(2)/U(2) minimal logs against a Schur reference.

Inputs are Haar U(2) and SU(2) elements, e^{i phi} rotation(axis, theta) with
phi and theta drawn to hit +-pi, +-I, rotations by 1e-9 and by 2 pi - 1e-12,
and phase diagonals.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from twolevel import core, su2

from util import haar_su2, haar_unitary, schur_minlog

_SPECIAL_ANGLES = (0.0, 1e-9, -1e-9, np.pi / 2, np.pi, -np.pi, 2 * np.pi, -2 * np.pi,
                   2 * np.pi - 1e-12, -(2 * np.pi - 1e-12), 3 * np.pi)
angles = st.one_of(st.sampled_from(_SPECIAL_ANGLES), st.floats(-4 * np.pi, 4 * np.pi))
seeds = st.integers(0, 2**32 - 1)
axes = st.one_of(
    st.sampled_from(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0))),
    st.builds(lambda seed: np.random.default_rng(seed).standard_normal(3), seeds),
)

su2_inputs = st.one_of(
    st.builds(lambda seed: haar_su2(np.random.default_rng(seed)), seeds),
    st.builds(su2.rotation, axes, angles),
    st.builds(lambda a: np.diag([np.exp(1j * a), np.exp(-1j * a)]), angles),
)
u2_inputs = st.one_of(
    su2_inputs,
    st.builds(lambda seed: haar_unitary(2, np.random.default_rng(seed)), seeds),
    st.builds(lambda phi, v: np.exp(1j * phi) * v, angles, su2_inputs),
    st.builds(lambda a, b: np.diag([np.exp(1j * a), np.exp(1j * b)]), angles, angles),
)


def _check_against_reference(v, res, special):
    ref_x, ref_norm, ref_angles = schur_minlog(v, special)
    assert abs(res.hs_norm - ref_norm) <= 1e-12
    assert abs(core.hs_norm(res.generator) - res.hs_norm) <= 1e-12
    assert np.abs(core.mat_exp(res.generator) - v).max() <= 1e-12
    gap = np.pi - np.abs(ref_angles).max()
    if abs(gap - su2.CUT_LOCUS_TOL) > 1e-12:  # at the threshold itself rounding decides
        assert res.unique == bool(gap >= su2.CUT_LOCUS_TOL)
    if res.unique:
        # The log's condition number grows like 1/gap as an eigen-angle nears
        # +-pi, so rounding in either method moves the generator by ~1e-16/gap.
        assert np.abs(res.generator - ref_x).max() <= 1e-10 + 1e-14 / gap


@settings(max_examples=400, deadline=None)
@given(u2_inputs)
def test_minlog_u2_matches_schur_reference(v):
    _check_against_reference(v, su2.minlog_u2(v), special=False)


@settings(max_examples=400, deadline=None)
@given(su2_inputs)
def test_minlog_su2_matches_schur_reference(v):
    res = su2.minlog_su2(v)
    _check_against_reference(v, res, special=True)
    assert abs(np.trace(res.generator)) <= 1e-15

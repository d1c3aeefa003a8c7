"""Core conventions: symplectic form, basic transforms, blocks, tolerances."""
import math
import pickle
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twomode as tm
from twomode.symplectic import _checked

from .support import random_local_symplectic, random_symplectic

OMEGA_1 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def test_omega_single_mode():
    np.testing.assert_array_equal(tm.omega(1), OMEGA_1)


def test_omega_is_mode_blocked():
    np.testing.assert_array_equal(tm.omega(2), tm.direct_sum(OMEGA_1, OMEGA_1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_omega_algebra(n):
    om = tm.omega(n)
    np.testing.assert_array_equal(om.T, -om)
    np.testing.assert_array_equal(om @ om, -np.eye(2 * n))


def test_vacuum_is_symplectic_fixed_point():
    om = tm.omega(2)
    np.testing.assert_array_equal(tm.congruence(np.eye(4), om), np.eye(4))


@pytest.mark.parametrize("angle", [0.0, 0.3, -1.2, np.pi])
def test_rotation_is_symplectic(angle):
    r = tm.rotation(angle)
    assert tm.is_symplectic(r)
    np.testing.assert_allclose(r @ r.T, np.eye(2), atol=1e-15)
    np.testing.assert_allclose(np.linalg.det(r), 1.0, atol=1e-15)


@pytest.mark.parametrize("xi", [0.2, 1.0, 3.7])
def test_squeeze_is_symplectic(xi):
    z = tm.squeeze(xi)
    assert tm.is_symplectic(z)
    np.testing.assert_allclose(z, np.diag([np.sqrt(xi), 1.0 / np.sqrt(xi)]))


def test_two_by_two_symplectic_iff_unit_determinant():
    rng = np.random.default_rng(7)
    for _ in range(100):
        m = rng.uniform(-2, 2, size=(2, 2))
        det = np.linalg.det(m)
        if abs(det) < 1e-6:
            continue
        assert tm.is_symplectic(m) == bool(abs(det - 1.0) <= 1e-9 * max(1.0, abs(det)))


def test_direct_sum_layout():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5.0]])
    out = tm.direct_sum(a, b)
    np.testing.assert_array_equal(out, [[1, 2, 0], [3, 4, 0], [0, 0, 5]])


@pytest.mark.parametrize("seed", range(5))
def test_symplectic_group_closure(seed):
    rng = np.random.default_rng(seed)
    s1, s2 = random_symplectic(rng), random_symplectic(rng)
    assert tm.is_symplectic(s1)
    assert tm.is_symplectic(s1 @ s2)
    assert tm.is_symplectic(np.linalg.inv(s1))


def test_congruence_resymmetrizes():
    rng = np.random.default_rng(1)
    v = np.eye(4) + 1e-13 * rng.normal(size=(4, 4))
    out = tm.congruence(v, random_symplectic(rng))
    np.testing.assert_array_equal(out, out.T)


def test_congruence_round_trip():
    rng = np.random.default_rng(2)
    v = np.diag([2.0, 2.0, 3.0, 3.0])
    s = random_symplectic(rng)
    back = tm.congruence(tm.congruence(v, s), np.linalg.inv(s))
    np.testing.assert_allclose(back, v, atol=1e-10)


def test_blocks_round_trip_and_views_are_copies():
    rng = np.random.default_rng(3)
    m = rng.uniform(-1, 1, size=(4, 4))
    v = m + m.T
    blk = tm.blocks(v)
    np.testing.assert_array_equal(blk.matrix(), v)
    blk.a[0, 0] = 99.0
    assert v[0, 0] != 99.0


def test_blocks_rejects_asymmetric():
    m = np.eye(4)
    m[0, 1] = 1e-3
    with pytest.raises(tm.SymmetryError):
        tm.blocks(m)


def test_blocks_rejects_wrong_shape():
    with pytest.raises(tm.DimensionError):
        tm.blocks(np.eye(6))


def test_as_matrix_rejects_non_finite():
    bad = np.eye(4)
    bad[2, 2] = np.nan
    with pytest.raises(tm.NonFiniteError):
        tm.as_matrix(bad)


def test_as_matrix_rejects_non_square():
    with pytest.raises(tm.DimensionError):
        tm.as_matrix(np.ones((2, 3)))


def test_require_symmetric_rejects_non_square():
    # Its float read pairs m_ij with m_ji, which only a square array has; an
    # empty array still reads as scale 0.
    for m in (np.ones((2, 3)), np.ones(4), np.ones((4, 4, 1))):
        with pytest.raises(tm.DimensionError, match="expected a square matrix"):
            tm.require_symmetric(m)
    assert tm.require_symmetric(np.zeros((0, 5))) == 0.0


def test_partial_transpose_flips_last_momentum():
    rng = np.random.default_rng(4)
    m = rng.uniform(-1, 1, size=(4, 4))
    v = m + m.T
    vt = tm.partial_transpose(v)
    lam = np.diag([1.0, 1.0, 1.0, -1.0])
    np.testing.assert_array_equal(vt, lam @ v @ lam)


def test_partial_transpose_is_exact_involution():
    rng = np.random.default_rng(5)
    m = rng.uniform(-1, 1, size=(4, 4))
    v = m + m.T
    np.testing.assert_array_equal(tm.partial_transpose(tm.partial_transpose(v)), v)


def test_partial_transpose_preserves_determinant():
    rng = np.random.default_rng(6)
    for _ in range(20):
        m = rng.uniform(-1, 1, size=(4, 4))
        v = m + m.T
        np.testing.assert_allclose(np.linalg.det(tm.partial_transpose(v)),
                                   np.linalg.det(v), rtol=1e-12, atol=1e-12)


def test_local_symplectics_are_symplectic():
    rng = np.random.default_rng(8)
    for _ in range(10):
        s = random_local_symplectic(rng)
        assert tm.is_symplectic(s)
        assert np.all(s[:2, 2:] == 0.0) and np.all(s[2:, :2] == 0.0)


def test_tolerance_threshold_scales_with_operands():
    tol = tm.Tolerance(rel=1e-9, abs=1e-12)
    small = tol.threshold(np.eye(2))
    big = tol.threshold(1000.0 * np.eye(2))
    assert small == pytest.approx(1e-12 + 1e-9)
    assert big == pytest.approx(1e-12 + 1e-6)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -1e-12])
@pytest.mark.parametrize("field", ["rel", "abs"])
def test_tolerance_must_be_finite_and_nonnegative(field, bad):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        tm.Tolerance(**{field: bad})


# A physical, an unphysical (positive definite) and a non-positive-definite
# matrix whose blocks are positive definite, so the standard form runs through.
_SCALE_PROBES = (tm.random_physical(3), tm.simon_vx(0.3),
                 np.array([[1.0, 0, 2, 0], [0, 1, 0, 2], [2, 0, 1, 0], [0, 2, 0, 1]]))
_VALIDATING_CALLS = (
    tm.heisenberg_oracle, tm.is_positive_definite, tm.two_mode_invariants, tm.check_global,
    tm.check_local, tm.classify_global, tm.classify_local, tm.simon_criterion,
    tm.posdef_criterion, tm.symplectic_spectrum_2mode, tm.ppt_spectrum_2mode,
    tm.symplectic_spectrum_general, tm.reduce_to_standard_form,
    lambda v: tm.single_mode_williamson(v[:2, :2]), tm.williamson_decompose, tm.inv_sqrt,
    lambda v: tm.skew_block_rotation(tm.build_x(v)))


def _outcome(fn, v):
    """``fn(v)`` pickled, or the class and message of the package error it raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", tm.DegeneracyWarning)
        try:
            return pickle.dumps(fn(v))
        except tm.TwoModeError as exc:
            return type(exc), str(exc)


def test_every_cut_uses_the_scale_read_at_validation(monkeypatch):
    # Each validated matrix's max |v_ij| is read once, by require_symmetric;
    # no cut on it may scan a matrix again through Tolerance.threshold.
    expected = [[_outcome(fn, v) for fn in _VALIDATING_CALLS] for v in _SCALE_PROBES]

    def rescan(*_):
        raise AssertionError("a cut scanned a matrix again through Tolerance.threshold")

    monkeypatch.setattr(tm.Tolerance, "threshold", rescan)
    for v, outcomes in zip(_SCALE_PROBES, expected):
        assert tm.require_symmetric(v) == float(np.abs(v).max())
        assert [_outcome(fn, v) for fn in _VALIDATING_CALLS] == outcomes


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1), st.integers(-12, 12),
       st.sampled_from(["symmetric", "straddle", "non-finite"]), st.floats(0.5, 2.0))
def test_checked_matches_the_numpy_reading(n, seed, log_scale, kind, factor):
    # The boundary reads the entries once as floats; its scale, rows and
    # verdicts must be numpy's on the same array, to the bit.
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(2 * n, 2 * n)) * 10.0**log_scale
    m = m + m.T
    i, j = rng.integers(2 * n, size=2)
    tol = tm.DEFAULT_TOL
    if kind == "straddle" and i != j:  # an asymmetry of about factor * the cut
        m[i, j] += factor * tol._cut(float(np.abs(m).max()))
    elif kind == "non-finite":
        m[i, j] = rng.choice([np.nan, np.inf, -np.inf])
    if not np.isfinite(m).all():
        with pytest.raises(tm.NonFiniteError, match="^matrix contains NaN or infinite entries$"):
            _checked(m, tol)
        assert pickle.dumps(tm.require_symmetric(m)) == pickle.dumps(float(np.abs(m).max()))
        return
    scale, gap = float(np.abs(m).max()), float(np.abs(m - m.T).max())
    if gap > tol._cut(scale):
        message = f"matrix is not symmetric: max |M - M^T| = {gap:.3e}"
        for check in (lambda: _checked(m, tol), lambda: tm.require_symmetric(m, tol)):
            with pytest.raises(tm.SymmetryError) as err:
                check()
            assert str(err.value) == message
        return
    arr, rows, got_scale, modes = _checked(m, tol)
    assert got_scale == scale and tm.require_symmetric(m, tol) == scale
    assert rows == m.tolist() and arr.tobytes() == m.tobytes() and modes == n


def test_tolerance_band_has_unit_floor():
    tol = tm.Tolerance(rel=1e-9, abs=1e-12)
    assert tol.band(1e-30) == pytest.approx(1e-12 + 1e-9)
    assert tol.band(100.0) == pytest.approx(1e-12 + 1e-7)


@settings(max_examples=200, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(0.1, 4.0))
def test_rotation_squeeze_products_stay_symplectic(t1, t2, xi):
    s = tm.rotation(t1) @ tm.squeeze(xi) @ tm.rotation(t2)
    assert tm.is_symplectic(s)
    assert np.linalg.det(s) == pytest.approx(1.0, abs=1e-9)


def _band_reference(tol, *values):
    """Tolerance.band as a loop of isfinite and max: the reference for the one-comparison form."""
    scale = 1.0
    for v in values:
        if math.isfinite(v):
            scale = max(scale, abs(float(v)))
    return tol.abs + tol.rel * scale


_BAND_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.integers(-10**300, 10**300),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0, 1, -1]))


@settings(max_examples=500, deadline=None)
@given(st.lists(_BAND_VALUES, max_size=6), st.sampled_from([tm.DEFAULT_TOL, tm.Tolerance(0.0, 0.0),
                                                             tm.Tolerance(rel=1e-3, abs=0.5)]))
def test_tolerance_band_matches_the_loop_it_replaced(values, tol):
    got = tol.band(*values)
    assert type(got) is float
    assert struct.pack("<d", got) == struct.pack("<d", _band_reference(tol, *values))


@pytest.mark.parametrize("fn", [tm.as_matrix, tm.heisenberg_oracle, tm.classify_global,
                                tm.classify_local, tm.two_mode_invariants, tm.check_local])
def test_complex_matrix_is_refused_not_truncated(fn):
    # float64 conversion of V + 5i Omega would keep V and only warn.
    v = tm.simon_vx(0.7) + 5j * tm.omega(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(tm.NonRealError, match="complex"):
            fn(v)
    assert issubclass(tm.NonRealError, tm.TwoModeError) and issubclass(tm.NonRealError, ValueError)

"""Invariants, the determinant identity, and symplectic spectra."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twomode as tm

from .support import random_local_symplectic, random_physical_cm, random_symmetric


def test_vacuum_invariants():
    inv = tm.two_mode_invariants(np.eye(4))
    assert inv.det_A == 1.0 and inv.det_B == 1.0 and inv.det_C == 0.0
    assert inv.det_V == pytest.approx(1.0, abs=1e-15)
    assert inv.I4 == pytest.approx(0.0, abs=1e-15)
    assert inv.delta == pytest.approx(2.0, abs=1e-15)
    assert inv.delta_tilde == pytest.approx(2.0, abs=1e-15)
    assert inv.gamma_sep == pytest.approx(2.0, abs=1e-15)


def test_invariants_mixing_family_below_threshold():
    # Frozen values for the correlated-thermal family at x = 0.1.
    inv = tm.two_mode_invariants(tm.simon_vx(0.1))
    assert inv.det_A == pytest.approx(0.49, abs=1e-12)
    assert inv.det_B == pytest.approx(0.49, abs=1e-12)
    assert inv.det_C == pytest.approx(0.06, abs=1e-12)
    assert inv.det_V == pytest.approx(0.18, abs=1e-12)
    assert inv.delta == pytest.approx(1.10, abs=1e-12)
    assert inv.delta_tilde == pytest.approx(0.86, abs=1e-12)
    assert inv.gamma_sep == pytest.approx(1.10, abs=1e-12)
    # I4 from the identity: det V = det A det B + det C^2 - I4.
    assert inv.I4 == pytest.approx(0.49 * 0.49 + 0.06**2 - 0.18, abs=1e-12)


def test_invariants_mixing_family_at_physical_threshold():
    inv = tm.two_mode_invariants(tm.simon_vx(0.5))
    assert inv.det_A == pytest.approx(2.25, abs=1e-12)
    assert inv.det_B == pytest.approx(2.25, abs=1e-12)
    assert inv.det_C == pytest.approx(-0.5, abs=1e-12)
    assert inv.det_V == pytest.approx(2.5, abs=1e-12)
    assert inv.I4 == pytest.approx(2.8125, abs=1e-12)
    assert inv.delta == pytest.approx(3.5, abs=1e-12)
    assert inv.delta_tilde == pytest.approx(5.5, abs=1e-12)
    assert inv.gamma_sep == pytest.approx(5.5, abs=1e-12)


def test_gamma_is_max_of_delta_forms():
    rng = np.random.default_rng(11)
    for _ in range(50):
        inv = tm.two_mode_invariants(random_symmetric(rng))
        assert inv.gamma_sep == pytest.approx(max(inv.delta, inv.delta_tilde), abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_determinant_identity_any_symmetric(seed):
    # det V = det A det B + det C^2 - I4 holds for every symmetric 4x4,
    # physical or not.
    v = random_symmetric(np.random.default_rng(seed))
    inv = tm.two_mode_invariants(v)
    lhs = inv.det_V
    rhs = inv.det_A * inv.det_B + inv.det_C**2 - inv.I4
    scale = max(1.0, abs(lhs), abs(inv.det_A * inv.det_B), abs(inv.I4))
    assert abs(lhs - rhs) <= 1e-10 * scale


_W = np.array([[0.0, 1.0], [-1.0, 0.0]])


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-6.0, 6.0))
def test_i4_matches_its_trace_definition(seed, log_scale):
    # I4 = Tr(A w C w B w C^T w), here as numpy matrix products; the bound is
    # relative to the size of the largest term of the trace.
    v = random_symmetric(np.random.default_rng(seed)) * 10.0**log_scale
    a, b, c = v[:2, :2], v[2:, 2:], v[:2, 2:]
    ref = np.trace(a @ _W @ c @ _W @ b @ _W @ c.T @ _W)
    terms = np.abs(a).max() * np.abs(b).max() * np.abs(c).max() ** 2
    assert abs(tm.two_mode_invariants(v).I4 - ref) <= 1e-12 * max(abs(ref), terms)


@pytest.mark.parametrize("fn", [tm.two_mode_invariants, tm.classify_global,
                                tm.classify_local])
def test_det_identity_self_test_fires(monkeypatch, fn):
    # det V comes from LU and the other invariants from the blocks, so a
    # det V off by one must trip det V = det A det B + det C^2 - I4.
    v = tm.random_physical(3)
    det = np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda m: det(m) + 1.0)
    with pytest.raises(tm.InternalInconsistency, match="det V identity"):
        fn(v)


@pytest.mark.parametrize("v", [1e80 * tm.simon_vx(1.0), tm.two_mode_squeezed(100.0),
                               1e100 * np.eye(4)])
def test_overflowing_invariants_raise_numerical_error(v):
    # |det C| or det V passes float64's range: every caller of the invariants
    # says so, while the oracle, which never forms them, still answers.
    with np.errstate(over="ignore"):
        for fn in (tm.two_mode_invariants, tm.symplectic_spectrum_2mode, tm.ppt_spectrum_2mode,
                   tm.check_global, tm.check_local, tm.classify_global, tm.classify_local,
                   tm.simon_criterion, tm.posdef_criterion):
            with pytest.raises(tm.NumericalError, match="overflow"):
                fn(v)
        assert tm.heisenberg_oracle(v)[0]


@pytest.mark.parametrize("seed", range(20))
def test_invariants_under_local_symplectics(seed):
    rng = np.random.default_rng(seed)
    v = random_physical_cm(rng)
    s = random_local_symplectic(rng)
    before = tm.two_mode_invariants(v)
    after = tm.two_mode_invariants(tm.congruence(v, s))
    for field in ("det_A", "det_B", "det_C", "det_V", "I4", "delta", "delta_tilde"):
        assert getattr(after, field) == pytest.approx(getattr(before, field),
                                                      rel=1e-9, abs=1e-9)


def test_spectrum_vacuum():
    nu = tm.symplectic_spectrum_2mode(np.eye(4))
    assert nu.nu_minus == pytest.approx(1.0, abs=1e-12)
    assert nu.nu_plus == pytest.approx(1.0, abs=1e-12)


def test_spectrum_mixing_family_at_threshold():
    nu = tm.symplectic_spectrum_2mode(tm.simon_vx(0.5))
    assert nu.nu_minus == pytest.approx(1.0, abs=1e-12)
    assert nu.nu_plus == pytest.approx(np.sqrt(2.5), abs=1e-12)


def test_ppt_spectrum_mixing_family_at_threshold():
    nu = tm.ppt_spectrum_2mode(tm.simon_vx(0.5))
    assert nu.nu_minus == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert nu.nu_plus == pytest.approx(np.sqrt(5.0), abs=1e-12)


def test_ppt_spectrum_two_mode_squeezed():
    for r in (0.1, 0.5, 1.0):
        nu = tm.ppt_spectrum_2mode(tm.two_mode_squeezed(r))
        assert nu.nu_minus == pytest.approx(np.exp(-2 * r), abs=1e-12)
        assert nu.nu_plus == pytest.approx(np.exp(2 * r), abs=1e-12)


@pytest.mark.parametrize("r", [2.0, 3.0, 4.0, 4.5])
def test_ppt_spectrum_strongly_squeezed(r):
    # nu~_-^2 = det V / nu~_+^2 (Vieta) keeps full relative accuracy where
    # the difference form (Delta~ - sqrt(Delta~^2 - 4 det V))/2 cancels.
    nu = tm.ppt_spectrum_2mode(tm.two_mode_squeezed(r))
    assert nu.nu_minus == pytest.approx(np.exp(-2 * r), rel=1e-8)


@pytest.mark.parametrize("r", np.round(np.arange(4.0, 5.25, 0.1), 1).tolist())
def test_squeezed_radicand_is_clamped_within_its_rounding_bound(r):
    # Delta^2 - 4 det V = (nu_+^2 - nu_-^2)^2 is exactly 0 for a pure state, and
    # its float value falls below -band from r = 4.2 on; it stays within the
    # rounding bound of the terms of Delta and det V, so it is clamped to 0.
    v = tm.two_mode_squeezed(r)
    tm.check_global(v)
    tm.classify_global(v)
    spectrum = tm.symplectic_spectrum_2mode(v)
    assert spectrum.nu_minus == pytest.approx(1.0, rel=1e-3)
    assert spectrum.nu_plus == pytest.approx(1.0, rel=1e-3)


def test_inconsistent_radicand_still_raises():
    from twomode.invariants import _spectrum_from_delta
    # With V = I the bound is eps-sized: Delta^2 - 4 det V = -3 is not rounding.
    with pytest.raises(tm.NumericalError, match="negative beyond tolerance"):
        _spectrum_from_delta(1.0, 1.0, tm.DEFAULT_TOL, np.eye(4).tolist())


def test_ppt_spectrum_is_spectrum_of_partial_transpose():
    rng = np.random.default_rng(21)
    for _ in range(20):
        v = random_physical_cm(rng)
        direct = tm.ppt_spectrum_2mode(v)
        via_pt = tm.symplectic_spectrum_2mode(tm.partial_transpose(v))
        assert direct.nu_minus == pytest.approx(via_pt.nu_minus, rel=1e-9, abs=1e-12)
        assert direct.nu_plus == pytest.approx(via_pt.nu_plus, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_two_mode_spectrum_matches_general_routine(seed):
    rng = np.random.default_rng(seed)
    v = random_physical_cm(rng)
    fast = tm.symplectic_spectrum_2mode(v)
    general = tm.symplectic_spectrum_general(v)
    np.testing.assert_allclose([fast.nu_minus, fast.nu_plus], general,
                               rtol=1e-9, atol=1e-10)


def test_spectrum_invariant_under_any_symplectic():
    from .support import random_symplectic
    rng = np.random.default_rng(31)
    for _ in range(10):
        v = random_physical_cm(rng)
        s = random_symplectic(rng)
        before = tm.symplectic_spectrum_2mode(v)
        after = tm.symplectic_spectrum_2mode(tm.congruence(v, s))
        assert after.nu_minus == pytest.approx(before.nu_minus, rel=1e-8, abs=1e-9)
        assert after.nu_plus == pytest.approx(before.nu_plus, rel=1e-8, abs=1e-9)


def test_spectrum_requires_positive_definite():
    with pytest.raises(tm.NotPositiveDefinite):
        tm.symplectic_spectrum_2mode(np.diag([1.0, 1.0, 1.0, -1.0]))


def test_general_spectrum_requires_positive_definite():
    with pytest.raises(tm.NotPositiveDefinite):
        tm.symplectic_spectrum_general(np.diag([1.0, -1.0]))


def test_general_spectrum_single_mode():
    np.testing.assert_allclose(tm.symplectic_spectrum_general(np.diag([4.0, 1.0])),
                               [2.0], atol=1e-12)


def test_general_spectrum_is_ascending():
    rng = np.random.default_rng(41)
    from .support import random_spd
    for n in (2, 3, 4):
        v = random_spd(rng, 2 * n)
        nus = tm.symplectic_spectrum_general(v)
        assert nus.shape == (n,)
        assert np.all(np.diff(nus) >= -1e-12)


@pytest.mark.parametrize("scale", [1e80, 1e200, 1e300])
def test_overflowing_det_raises_without_a_numpy_warning(scale):
    # det V overflows (or turns NaN) inside LU; the magnitude check reports
    # it as a NumericalError and numpy's RuntimeWarning stays silent.
    grid = scale * np.array([[1.0, 0, 1, 0], [0, 1, 0, -1], [1, 0, 2, 0], [0, -1, 0, 2]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(tm.NumericalError, match="overflow"):
            tm.two_mode_invariants(grid)


@pytest.mark.parametrize("s", [1e76, 5.8e76, 1e77, 1e200])
def test_det_near_the_overflow_guard_is_exact_and_silent(s):
    # diag(s, 1/s, 1, 1) sits on either side of the scale below which det V
    # runs without numpy's errstate; it has det V = 1 on both sides.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert tm.two_mode_invariants(np.diag([s, 1.0 / s, 1.0, 1.0])).det_V == 1.0


@pytest.mark.parametrize("seed", range(20))
def test_det_just_below_the_overflow_guard_matches_numpy(seed):
    # Scaled so that max |v_ij| is just below the guard: det V takes the path
    # without errstate and must read numpy's det, with no warning.
    from twomode.invariants import _DET_SAFE_SCALE
    v = random_symmetric(np.random.default_rng(seed))
    v *= np.nextafter(_DET_SAFE_SCALE, 0.0) / np.abs(v).max()
    with np.errstate(over="ignore", invalid="ignore"):
        expected = float(np.linalg.det(v))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = tm.two_mode_invariants(v).det_V
    assert got == expected and math.isfinite(got)

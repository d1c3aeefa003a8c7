"""Standard-form reduction: canonical parameters and the local symplectic."""
import cmath
import dataclasses
import re
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twomode as tm
from twomode import standard_form

from .support import benchmark_inputs, random_block_positive, random_local_symplectic


def assert_valid_reduction(v, params, tol=1e-9):
    """The contract of reduce_to_standard_form, checked from scratch."""
    s = params.s_local
    # Block-diagonal local symplectic: two 2x2 blocks of determinant 1.
    assert np.all(s[:2, 2:] == 0.0) and np.all(s[2:, :2] == 0.0)
    assert np.linalg.det(s[:2, :2]) == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.det(s[2:, 2:]) == pytest.approx(1.0, abs=1e-9)
    assert tm.is_symplectic(s)
    # Canonical cell.
    assert params.c_plus >= -1e-12
    assert params.c_plus >= abs(params.c_minus) - 1e-9
    # Congruence lands on the assembled matrix.
    scale = max(1.0, np.max(np.abs(v)))
    np.testing.assert_allclose(tm.congruence(v, s), params.matrix(),
                               atol=tol * scale)
    # The residual the reduction certified, formed blockwise, is this 4x4 product's within the
    # rounding of both, and meets the stated bound u (2d + 1 + 16) max(|S| |V| |S|^T), d = 2.
    u = np.finfo(float).eps / 2.0
    size = (np.abs(s) @ np.abs(v) @ np.abs(s).T).max()
    reference = np.abs(tm.congruence(v, s) - params.matrix()).max()
    assert abs(params.residual - reference) <= u * (2 * 4 + 1) * size
    assert params.residual <= u * (2 * 2 + 1 + 16) * size


def test_single_mode_williamson_squeezed_diag():
    s, a = tm.single_mode_williamson(np.diag([2.0, 0.5]))
    assert a == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(s, np.diag([1.0 / np.sqrt(2.0), np.sqrt(2.0)]),
                               atol=1e-12)


def test_single_mode_williamson_scalar_block_is_identity():
    s, a = tm.single_mode_williamson(3.0 * np.eye(2))
    assert a == pytest.approx(3.0, abs=1e-12)
    np.testing.assert_allclose(s, np.eye(2), atol=1e-12)


def test_single_mode_williamson_correlated_block():
    m = np.array([[5.0, 3.0], [3.0, 2.0]])
    s, a = tm.single_mode_williamson(m)
    assert a == pytest.approx(1.0, abs=1e-12)  # det = 10 - 9 = 1
    np.testing.assert_allclose(s @ m @ s.T, np.eye(2), atol=1e-12)
    assert np.linalg.det(s) == pytest.approx(1.0, abs=1e-12)


def test_single_mode_williamson_rejects_non_positive():
    with pytest.raises(tm.NotPositiveDefinite):
        tm.single_mode_williamson(np.diag([1.0, -2.0]))
    with pytest.raises(tm.DimensionError):
        tm.single_mode_williamson(np.eye(3))


@settings(max_examples=200, deadline=None)
@given(st.floats(0.05, 5.0), st.floats(0.05, 5.0), st.floats(-np.pi, np.pi))
def test_single_mode_williamson_random_blocks(d1, d2, angle):
    r = tm.rotation(angle)
    m = r @ np.diag([d1, d2]) @ r.T
    m = (m + m.T) / 2.0
    s, a = tm.single_mode_williamson(m)
    assert a == pytest.approx(np.sqrt(d1 * d2), rel=1e-9)
    np.testing.assert_allclose(s @ m @ s.T, a * np.eye(2),
                               atol=1e-9 * max(1.0, d1, d2))


def _raised(fn, m, error):
    """The ``error`` that ``fn(m)`` raises, or None when it returns."""
    try:
        fn(m)
    except error as exc:
        return exc
    return None


@settings(max_examples=300, deadline=None)
@given(st.floats(-8.0, 8.0), st.floats(-1.0, 3.0),
       st.one_of(st.just(0.0), st.floats(-np.pi, np.pi)))
def test_block_positivity_is_one_test(log_big, factor, angle):
    # R diag(big, small) R^T with small near the block cut abs + rel * big: the single-mode
    # transform, the standard form's block A and a one-mode Williamson decomposition decide it
    # alike and report the same min_eig; where they decompose, nu is a bit for bit.
    tol = tm.DEFAULT_TOL
    big = 10.0**log_big
    small = factor * (tol.abs + tol.rel * big)
    c, s = np.cos(angle), np.sin(angle)
    p, q, r = c * c * big + s * s * small, c * s * (big - small), s * s * big + c * c * small
    a = np.array([[p, q], [q, r]])
    single = _raised(tm.single_mode_williamson, a, tm.NotPositiveDefinite)
    v = np.zeros((4, 4))
    v[:2, :2], v[2:, 2:] = a, np.eye(2)
    reduced = _raised(tm.reduce_to_standard_form, v, tm.BlockNotPositiveDefinite)
    williamson = _raised(tm.williamson_decompose, a, tm.NotPositiveDefinite)
    assert (single is None) == (reduced is None) == (williamson is None)
    if reduced is not None:
        assert reduced.block == "A"
        assert repr(single.min_eig) == repr(reduced.min_eig) == repr(williamson.min_eig)
    else:
        (nu,) = tm.williamson_decompose(a).spectrum
        assert nu == tm.single_mode_williamson(a)[1]


@settings(max_examples=300, deadline=None)
@given(st.floats(-6.0, 6.0), st.one_of(st.just(0.0), st.floats(0.0, 12.0)),
       st.one_of(st.just(0.0), st.floats(-np.pi, np.pi)))
def test_single_mode_closed_form_error_tracks_the_condition_number(log_sigma, log_kappa,
                                                                   angle):
    # R diag(sigma, sigma/kappa) R^T: the closed form's error may grow like
    # eps * kappa (as an eigensolver's does), and no faster.
    sigma, kappa = 10.0**log_sigma, 10.0**log_kappa
    r = tm.rotation(angle)
    m = r @ np.diag([sigma, sigma / kappa]) @ r.T
    m = (m + m.T) / 2.0
    try:
        s, a = tm.single_mode_williamson(m)
    except tm.NotPositiveDefinite:
        return  # sigma/kappa below the positivity threshold
    bound = 8.0 * np.finfo(float).eps * kappa
    assert np.abs(s @ m @ s.T - a * np.eye(2)).max() / a <= bound
    assert abs(np.linalg.det(s) - 1.0) <= bound


def test_reduce_vacuum():
    params = tm.reduce_to_standard_form(np.eye(4))
    assert (params.a, params.b) == (pytest.approx(1.0), pytest.approx(1.0))
    assert params.c_plus == pytest.approx(0.0, abs=1e-12)
    assert params.c_minus == pytest.approx(0.0, abs=1e-12)
    assert_valid_reduction(np.eye(4), params)


@pytest.mark.parametrize("x,expected", [
    (0.5, (1.5, 1.5, 1.0, -0.5)),
    (1.0, (2.5, 2.5, 2.0, -1.5)),
])
def test_reduce_mixing_family_frozen_params(x, expected):
    v = tm.simon_vx(x)
    params = tm.reduce_to_standard_form(v)
    a, b, c_plus, c_minus = expected
    assert params.a == pytest.approx(a, abs=1e-12)
    assert params.b == pytest.approx(b, abs=1e-12)
    assert params.c_plus == pytest.approx(c_plus, abs=1e-12)
    assert params.c_minus == pytest.approx(c_minus, abs=1e-12)
    assert_valid_reduction(v, params)


def test_reduce_mixing_family_low_x():
    # V(0.1) has C = diag(-0.3, -0.2): canonicalization must flip it to
    # c+ = 0.3, c- = 0.2 (det C = +0.06 preserved).
    params = tm.reduce_to_standard_form(tm.simon_vx(0.1))
    assert params.a == pytest.approx(0.7, abs=1e-12)
    assert params.c_plus == pytest.approx(0.3, abs=1e-12)
    assert params.c_minus == pytest.approx(0.2, abs=1e-12)
    assert params.c_plus * params.c_minus == pytest.approx(0.06, abs=1e-12)
    assert_valid_reduction(tm.simon_vx(0.1), params)


def test_reduce_two_mode_squeezed():
    r = 0.5
    params = tm.reduce_to_standard_form(tm.two_mode_squeezed(r))
    assert params.a == pytest.approx(np.cosh(2 * r), abs=1e-12)
    assert params.b == pytest.approx(np.cosh(2 * r), abs=1e-12)
    assert params.c_plus == pytest.approx(np.sinh(2 * r), abs=1e-12)
    assert params.c_minus == pytest.approx(-np.sinh(2 * r), abs=1e-12)


def test_reduce_already_standard_is_fixed_point():
    v = tm.standard_form_matrix(2.0, 1.5, 0.8, -0.3)
    params = tm.reduce_to_standard_form(v)
    assert params.a == pytest.approx(2.0, abs=1e-12)
    assert params.b == pytest.approx(1.5, abs=1e-12)
    assert params.c_plus == pytest.approx(0.8, abs=1e-12)
    assert params.c_minus == pytest.approx(-0.3, abs=1e-12)
    assert_valid_reduction(v, params)


# Ties and zeros of the canonical cell: (factor on c+, c-/c+).
_TIES = {"tie_plus": (1.0, 1.0), "tie_minus": (1.0, -1.0), "zero": (0.0, 0.0)}


@pytest.mark.parametrize("seed, tie", [
    *(pytest.param(seed, None, id=str(seed)) for seed in range(40)),
    *(pytest.param(seed, tie, id=f"{tie}-{seed}") for tie in _TIES for seed in range(8)),
])
def test_round_trip_recovers_canonical_parameters(seed, tie):
    # Start from a known canonical cell, move it by a random local
    # symplectic, reduce, and demand the original parameters back.
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(1.0, 3.0, size=2)
    c_plus = rng.uniform(0.1, 2.0)
    c_minus = rng.uniform(-0.95, 0.95) * c_plus
    if tie is not None:
        factor, ratio = _TIES[tie]
        c_plus *= factor
        c_minus = ratio * c_plus
    v0 = tm.standard_form_matrix(a, b, c_plus, c_minus)
    v = tm.congruence(v0, random_local_symplectic(rng))
    params = tm.reduce_to_standard_form(v)
    assert params.a == pytest.approx(a, rel=1e-9, abs=1e-9)
    assert params.b == pytest.approx(b, rel=1e-9, abs=1e-9)
    assert params.c_plus == pytest.approx(c_plus, rel=1e-8, abs=1e-8)
    assert params.c_minus == pytest.approx(c_minus, rel=1e-8, abs=1e-8)
    assert_valid_reduction(v, params)


@pytest.mark.parametrize("delta", [1e-12, 1e-11, 1e-10])
@pytest.mark.parametrize("seed", range(10))
def test_near_tie_keeps_the_sum_of_the_cross_parameters(seed, delta):
    # c- = -c+ (1 + delta): a nearly two-mode squeezed state under local phase shifts. A and
    # B stay scalar, so S_A = S_B = I and M keeps the rotation (a local squeeze would undo
    # it). In the canonical cell c+ + c- = |z1|, tiny here but known to within rounding of
    # the scale, so it must not be dropped as if it were zero.
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(1.0, 3.0, size=2)
    c_plus = rng.uniform(0.1, 0.9) * min(a, b)
    c_minus = -c_plus * (1.0 + delta)
    phases = tm.direct_sum(tm.rotation(rng.uniform(0.0, 2.0 * np.pi)),
                           tm.rotation(rng.uniform(0.0, 2.0 * np.pi)))
    v = tm.congruence(tm.standard_form_matrix(a, b, c_plus, c_minus), phases)
    params = tm.reduce_to_standard_form(v)
    eps = np.finfo(float).eps
    assert abs((params.c_plus + params.c_minus) - abs(c_plus + c_minus)) <= 16.0 * eps * c_plus
    assert params.residual <= 16.0 * eps * np.abs(v).max()
    assert params.c_plus >= 0.0 and params.c_plus >= abs(params.c_minus)
    assert_valid_reduction(v, params)


def _canonical_cell_inputs():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        yield random_block_positive(rng)
    for ratio in (1.0, -1.0, 1.0 + 1e-15, -1.0 - 1e-15, -1.0 + 1e-15, 0.0):
        for _ in range(100):
            c_plus = rng.uniform(0.1, 1.0)
            v0 = tm.standard_form_matrix(2.0, 1.5, c_plus, ratio * c_plus)
            yield tm.congruence(v0, random_local_symplectic(rng))


def test_canonical_cell_holds_exactly():
    # c+ = (|z1| + |z2|)/2 >= ||z1| - |z2||/2 = |c-| holds in floats with no tolerance: the
    # exact sum bounds the exact difference, and rounding is monotone.
    for v in _canonical_cell_inputs():
        params = tm.reduce_to_standard_form(v)
        assert params.c_plus >= 0.0 and params.c_plus >= abs(params.c_minus)


@pytest.mark.parametrize("signs", range(16))
def test_signed_zero_c_block_keeps_the_identity(signs):
    # A C block of +-0.0 entries: a -0.0 real part of z1 or z2 would have phase pi, and
    # s_local would be a quarter turn instead of the identity that S_A (+) S_B already is.
    v = np.eye(4)
    for bit, (i, j) in enumerate(((0, 2), (0, 3), (1, 2), (1, 3))):
        v[i, j] = v[j, i] = -0.0 if signs >> bit & 1 else 0.0
    params = tm.reduce_to_standard_form(v)
    np.testing.assert_array_equal(params.s_local, np.eye(4))
    assert (params.c_plus, params.c_minus) == (0.0, 0.0)


@pytest.mark.parametrize("seed", range(40))
def test_reduction_preserves_invariants(seed):
    rng = np.random.default_rng(seed)
    v = random_block_positive(rng)
    params = tm.reduce_to_standard_form(v)
    assert_valid_reduction(v, params)
    inv = tm.two_mode_invariants(v)
    assert params.a**2 == pytest.approx(inv.det_A, rel=1e-9, abs=1e-10)
    assert params.b**2 == pytest.approx(inv.det_B, rel=1e-9, abs=1e-10)
    assert params.c_plus * params.c_minus == pytest.approx(inv.det_C,
                                                           rel=1e-8, abs=1e-9)
    ab = params.a * params.b
    det_v = (ab - params.c_plus**2) * (ab - params.c_minus**2)
    assert det_v == pytest.approx(inv.det_V, rel=1e-8, abs=1e-9)


@pytest.mark.parametrize("seed", range(20))
def test_reduction_preserves_physicality_verdict(seed):
    rng = np.random.default_rng(seed)
    v = random_block_positive(rng)
    params = tm.reduce_to_standard_form(v)
    before = tm.check_local(v)
    after = tm.check_local(params.matrix())
    if not (before.borderline or after.borderline):
        assert before.verdict == after.verdict


@pytest.mark.parametrize("seed", range(20))
def test_reduction_preserves_spectra_when_positive(seed):
    rng = np.random.default_rng(seed)
    v = random_block_positive(rng)
    if not tm.is_positive_definite(v):
        return
    before = tm.symplectic_spectrum_2mode(v)
    after = tm.symplectic_spectrum_2mode(tm.reduce_to_standard_form(v).matrix())
    assert after.nu_minus == pytest.approx(before.nu_minus, rel=1e-8, abs=1e-9)
    assert after.nu_plus == pytest.approx(before.nu_plus, rel=1e-8, abs=1e-9)


def test_residuals_meet_the_stated_bound():
    # The certificate's contract on blocks R diag(sigma, sigma/kappa) R^T with kappa up to 1e15,
    # rotated or within 1e-9 of diagonal, and cross blocks that are generic, or a multiple of a
    # rotation or a reflection (z2 = 0 or z1 = 0): every reduction that is not refused meets
    # max |S V S^T - T| <= u (2d + 1 + 16) max(|S| |V| |S|^T), d = 2.
    u = np.finfo(float).eps / 2.0
    rng = np.random.default_rng(12)
    reduced = 0
    for i in range(1500):
        sigma_a, sigma_b = 10.0 ** rng.uniform(-6.0, 6.0, 2)
        blocks = []
        for sigma in (sigma_a, sigma_b):
            angle = 10.0 ** rng.uniform(-9.0, 0.0) if i % 3 == 1 else rng.uniform(0.0, 2 * np.pi)
            r = tm.rotation(angle)
            blocks.append((r * (sigma * np.array([1.0, 10.0 ** -rng.uniform(0.0, 15.0)]))) @ r.T)
        c = rng.normal(size=(2, 2)) * np.sqrt(sigma_a * sigma_b) * 10.0 ** rng.uniform(-3.0, 1.0)
        if i % 3 == 2:
            c = c[0, 0] * tm.rotation(rng.uniform(0.0, 2 * np.pi)) @ np.diag([1.0, (-1.0) ** i])
        v = np.block([[blocks[0], c], [c.T, blocks[1]]])
        v = (v + v.T) / 2.0
        try:
            params = tm.reduce_to_standard_form(v)
        except tm.BlockNotPositiveDefinite:
            continue
        reduced += 1
        s = params.s_local
        assert params.residual <= u * 21 * (np.abs(s) @ np.abs(v) @ np.abs(s).T).max()
    assert reduced >= 1400


@pytest.mark.parametrize("c", [1e150, 1e160, 1e200, 1e300, 4e307, 5e307])
def test_reduction_far_from_unit_scale_stays_finite(c):
    # Block eigenvalues past ~1e154 overflowed a = sqrt(lambda_+ lambda_-) to
    # inf, and the NaN that followed passed every check.
    v = c * tm.simon_vx(1.0)
    params = tm.reduce_to_standard_form(v)
    for got, want in ((params.a, 2.5), (params.b, 2.5), (params.c_plus, 2.0),
                      (params.c_minus, -1.5)):
        assert got / c == pytest.approx(want, abs=1e-12)
    assert np.isfinite(params.s_local).all()
    assert_valid_reduction(v, params)
    s, a = tm.single_mode_williamson(v[:2, :2])
    assert a / c == pytest.approx(2.5, abs=1e-12)
    assert np.isfinite(s).all()


def test_reduction_reports_a_c_plus_beyond_float64():
    # A = B = diag(1e300, 1e300/16) give S_A = S_B = diag(1/2, 2), so C = diag(0, 1e308) has
    # c+ = 4e308: a and b are finite and c+ is not, a NumericalError raised with no warning.
    block, cross = np.diag([1e300, 1e300 / 16.0]), np.diag([0.0, 1e308])
    with pytest.raises(tm.NumericalError, match=r"c\+ overflows float64"):
        tm.reduce_to_standard_form(np.block([[block, cross], [cross, block]]))


def test_reduction_rejects_a_nan_residual(monkeypatch):
    # NaN in the certificate's B block, after A's finite entries: max skips it, but the size's
    # sum cannot, and a NaN bound passes no residual.
    sandwich, calls = standard_form._symmetric_sandwich, []

    def nan_for_b(*args):
        calls.append(args)
        return (np.nan,) * 3 if len(calls) % 2 == 0 else sandwich(*args)
    monkeypatch.setattr(standard_form, "_symmetric_sandwich", nan_for_b)
    with pytest.raises(tm.InternalInconsistency,
                       match=r"max \|S V S\^T - T\| = .* exceeds its bound nan$"):
        tm.reduce_to_standard_form(tm.simon_vx(1.0))


def _wrong_target(index):
    """Hand the certificate T with entry ``index`` of (a, b, c+, c-) 1e-3 too large."""
    def patch(monkeypatch):
        certify = standard_form._local_certificate

        def wrong(ra, rb, rows, cross, t):
            t = list(t)
            t[index] *= 1.0 + 1e-3
            return certify(ra, rb, rows, cross, tuple(t))
        monkeypatch.setattr(standard_form, "_local_certificate", wrong)
    return patch


def _turned_theta_a(monkeypatch):
    # Both phases 1e-3 lower turn theta_a = (alpha + beta)/2 by 1e-3 and leave theta_b.
    monkeypatch.setattr(standard_form, "cmath",
                        types.SimpleNamespace(phase=lambda z: cmath.phase(z) - 1e-3))


def _scaled_s_a(monkeypatch):
    # S_A (1 + 1e-3) with a (1 + 1e-3)^2 keeps S V S^T = T; only det S_A = 1 fails.
    single_mode = standard_form._single_mode

    def scaled(rows, i, min_eig):
        s, a = single_mode(rows, i, min_eig)
        k = 1.0 + 1e-3
        return (tuple(k * x for x in s), a * k * k) if i == 0 else (s, a)
    monkeypatch.setattr(standard_form, "_single_mode", scaled)


@pytest.mark.parametrize("mutate, identity", [
    (_wrong_target(2), "S V S^T - T"), (_wrong_target(3), "S V S^T - T"),
    (_wrong_target(0), "S V S^T - T"), (_turned_theta_a, "S V S^T - T"),
    (_scaled_s_a, "S Omega S^T - Omega"),
], ids=["c_plus", "c_minus", "a", "theta_a", "s_a-and-a"])
def test_certificate_fires_on_each_wrong_output(monkeypatch, mutate, identity):
    # A standard form (2, 1.5, 0.8, -0.3) moved by a local symplectic: each output 1e-3 off, in
    # a way the other outputs do not absorb, breaks the identity named.
    v = tm.congruence(tm.standard_form_matrix(2.0, 1.5, 0.8, -0.3),
                      random_local_symplectic(np.random.default_rng(0)))
    tm.reduce_to_standard_form(v)
    mutate(monkeypatch)
    with pytest.raises(tm.InternalInconsistency, match=f"max \\|{re.escape(identity)}\\|"):
        tm.reduce_to_standard_form(v)


def test_reduction_names_offending_block():
    bad_a = tm.direct_sum(np.diag([1.0, -1.0]), np.eye(2))
    with pytest.raises(tm.BlockNotPositiveDefinite) as exc:
        tm.reduce_to_standard_form(bad_a)
    assert exc.value.block == "A"
    bad_b = tm.direct_sum(np.eye(2), np.diag([-1.0, 1.0]))
    with pytest.raises(tm.BlockNotPositiveDefinite) as exc:
        tm.reduce_to_standard_form(bad_b)
    assert exc.value.block == "B"


def test_reduction_works_on_block_positive_but_indefinite_matrix():
    # Blocks are fine, the full matrix is not positive definite: reduction
    # must still succeed (it never looks at the spectrum of V).
    v = tm.standard_form_matrix(1.0, 1.0, 1.5, 1.5)
    assert not tm.is_positive_definite(v)
    params = tm.reduce_to_standard_form(v)
    assert params.c_plus == pytest.approx(1.5, abs=1e-12)
    assert_valid_reduction(v, params)


def test_reduction_handles_rotation_like_c_block():
    # C proportional to a rotation leaves z2 = 0: the degenerate angle
    # branch must still produce a diagonal C' with c+ = |c-|.
    c = 0.4 * tm.rotation(0.7)
    v = np.block([[2.0 * np.eye(2), c], [c.T, 1.5 * np.eye(2)]])
    params = tm.reduce_to_standard_form((v + v.T) / 2.0)
    assert params.c_plus == pytest.approx(0.4, abs=1e-9)
    assert abs(params.c_minus) == pytest.approx(0.4, abs=1e-9)
    assert_valid_reduction((v + v.T) / 2.0, params)


def test_reduction_handles_symmetric_traceless_c_block():
    # C symmetric traceless leaves z1 = 0: again a degenerate branch.
    c = np.array([[0.3, 0.1], [0.1, -0.3]])
    v = np.block([[2.0 * np.eye(2), c], [c.T, 2.0 * np.eye(2)]])
    params = tm.reduce_to_standard_form((v + v.T) / 2.0)
    assert params.c_plus == pytest.approx(-params.c_minus, abs=1e-9)
    assert_valid_reduction((v + v.T) / 2.0, params)


def test_params_matrix_assembly():
    p = tm.StandardFormParams(a=2.0, b=1.0, c_plus=0.5, c_minus=-0.25,
                              s_local=np.eye(4))
    expected = np.array([
        [2.0, 0.0, 0.5, 0.0],
        [0.0, 2.0, 0.0, -0.25],
        [0.5, 0.0, 1.0, 0.0],
        [0.0, -0.25, 0.0, 1.0],
    ])
    np.testing.assert_array_equal(p.matrix(), expected)


def test_block_test_decides_by_the_sign_of_det_a():
    # Block A of the pure state C(2^15) is diag(1, 1 + 2^30): lambda_- = 1 lies below the old
    # cut abs + rel max|a_ij| (about 1.07), and the block is positive definite all the same.
    a = np.diag([1.0, 1.0 + 2.0**30])
    s, nu = tm.single_mode_williamson(a)
    assert nu == pytest.approx(np.sqrt(1.0 + 2.0**30), rel=1e-15)
    np.testing.assert_allclose(s @ a @ s.T, nu * np.eye(2), rtol=1e-12)
    v = tm.direct_sum(a, np.eye(2))
    assert tm.check_local(v).margins["min_eig_A"] == 1.0
    assert tm.reduce_to_standard_form(v).a == nu
    # A singular block and one whose determinant rounds to 0 in floats but is -2^-104 exactly.
    for bad in (np.array([[1.0, 1.0], [1.0, 1.0]]),
                np.array([[1.0, 1.0 + 2.0**-52], [1.0 + 2.0**-52, 1.0 + 2.0**-51]])):
        with pytest.raises(tm.NotPositiveDefinite) as exc:
            tm.single_mode_williamson(bad)
        assert exc.value.min_eig <= 0.0


def _scaled(fn, v, f):
    """fn(f v), or the type and message of the error it raises."""
    try:
        return fn(v * f)
    except tm.TwoModeError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("seed", range(3))
def test_normal_forms_are_scale_equivariant(seed):
    # The kinds of inputs the normal_forms benchmark draws: block-positive 4x4 for the standard
    # form; SPD on one to four modes, thermal(nu, nu) and two-mode squeezed for Williamson.
    # f = 4^j scales every output exactly: a, b, c+- and nu by f, X by 1/f, S and R not at all.
    # Skipped: f V between 2^485 and 2^512, where LAPACK rescales V by a factor that is not a
    # power of two and the outputs keep the bits they have without a reduction.
    from .support import random_spd
    rng = np.random.default_rng(seed)
    blocks = [random_block_positive(rng) for _ in range(20)]
    spd = ([random_spd(rng, 2 * n) for n in (1, 2, 2, 3, 4) for _ in range(4)]
           + [tm.thermal(1.7, 1.7), tm.two_mode_squeezed(0.8)])
    for j in (1, 2, 20, 100, 257, 300, 400, 500):
        f = 4.0**j
        for v in blocks:
            if np.abs(v).max() * f > 1e308:
                continue
            ref, got = _scaled(tm.reduce_to_standard_form, v, 1.0), _scaled(
                tm.reduce_to_standard_form, v, f)
            assert (got.a, got.b, got.c_plus, got.c_minus) == (
                ref.a * f, ref.b * f, ref.c_plus * f, ref.c_minus * f)
            np.testing.assert_array_equal(got.s_local, ref.s_local)
        for v in spd:
            top = np.abs(v).max() * f
            if top > 1e308 or 2.0**485 <= top < 2.0**512:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", tm.DegeneracyWarning)
                ref, got = _scaled(tm.williamson_decompose, v, 1.0), _scaled(
                    tm.williamson_decompose, v, f)
            np.testing.assert_array_equal(got.spectrum, ref.spectrum * f)
            np.testing.assert_array_equal(got.normal_form, ref.normal_form * f)
            np.testing.assert_array_equal(got.skew, ref.skew / f)
            np.testing.assert_array_equal(got.transform, ref.transform)
            np.testing.assert_array_equal(got.rotation, ref.rotation)
            assert got.degenerate == ref.degenerate


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_zero_tolerance_gives_the_default_normal_forms(seed):
    # The normal_forms benchmark pool at Tolerance(rel=0, abs=0). Past the input boundary the
    # normal forms read a tolerance only in Williamson's degeneracy flag, so each may refuse only a
    # block or a V that is not positive definite, and returns the default's fields bit for bit, but
    # for the residual and the degeneracy flag, whose cut is relative.
    zero = tm.Tolerance(rel=0.0, abs=0.0)
    for op in benchmark_inputs().normal_forms_pool(seed):
        v = np.array(op["v"])
        fn = (tm.reduce_to_standard_form if op["kind"] == "standard_form"
              else tm.williamson_decompose)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", tm.DegeneracyWarning)
            try:
                got = fn(v, zero)
            except (tm.BlockNotPositiveDefinite, tm.NotPositiveDefinite):
                continue
            ref = fn(v)
        for field in dataclasses.fields(ref):
            if field.name not in ("residual", "degenerate"):
                want, have = getattr(ref, field.name), getattr(got, field.name)
                assert np.asarray(have).tobytes() == np.asarray(want).tobytes(), field.name

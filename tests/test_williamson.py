"""Williamson decomposition: inverse square root, block rotation, assembly."""
import json
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twomode as tm
from twomode import cli, invariants, standard_form, williamson

from .support import (benchmark_inputs, count_linalg, random_orthogonal, random_physical_cm,
                      random_spd, upper_mirror)


def decompose_quietly(v):
    """Decompose while ignoring degeneracy warnings from random draws."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", tm.DegeneracyWarning)
        return tm.williamson_decompose(v)


@pytest.fixture()
def rephase_eigh(monkeypatch):
    """rephase_eigh(phases) makes np.linalg.eigh multiply the first len(phases)
    eigenvector columns of a complex Hermitian input by e^{i phases[k]}: another
    valid eigenbasis, as a different LAPACK build may return. Real inputs pass
    through unchanged."""
    eigh = np.linalg.eigh

    def install(phases):
        def rephased(a, *args, **kwargs):
            evals, vecs = eigh(a, *args, **kwargs)
            if np.iscomplexobj(a):
                vecs[:, :len(phases)] *= np.exp(1j * np.asarray(phases))
            return evals, vecs
        monkeypatch.setattr(np.linalg, "eigh", rephased)
    return install


def assert_valid_decomposition(v, dec, rtol=1e-9):
    """Full contract: S symplectic, S V S^T = W, W paired-ascending,
    R proper orthogonal, S = W^(1/2) R V^(-1/2)."""
    dim = v.shape[0]
    n = dim // 2
    scale = max(1.0, float(np.max(np.abs(v))))
    s, w, r = dec.transform, dec.normal_form, dec.rotation
    om = tm.omega(n)
    np.testing.assert_allclose(s @ om @ s.T, om, atol=rtol * 10)
    np.testing.assert_allclose(s @ v @ s.T, w, atol=rtol * scale * 10)
    # W diagonal, entries paired and ascending.
    np.testing.assert_allclose(w, np.diag(np.repeat(dec.spectrum, 2)),
                               atol=1e-15)
    assert np.all(np.diff(dec.spectrum) >= -1e-12)
    # R proper orthogonal.
    np.testing.assert_allclose(r @ r.T, np.eye(dim), atol=1e-9)
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-8)
    # Assembly identity.
    half = np.diag(np.repeat(np.sqrt(dec.spectrum), 2))
    np.testing.assert_allclose(s, half @ r @ tm.inv_sqrt(v), atol=rtol * scale * 10)


def test_inv_sqrt_scalar_matrix():
    np.testing.assert_allclose(tm.inv_sqrt(4.0 * np.eye(4)), 0.5 * np.eye(4),
                               atol=1e-14)


def test_inv_sqrt_diagonal():
    np.testing.assert_allclose(tm.inv_sqrt(np.diag([4.0, 1.0])),
                               np.diag([0.5, 1.0]), atol=1e-14)


def test_inv_sqrt_random_spd_residual():
    rng = np.random.default_rng(0)
    v = random_spd(rng, 6)
    m = tm.inv_sqrt(v)
    np.testing.assert_array_equal(m, m.T)
    np.testing.assert_allclose(m @ v @ m, np.eye(6), atol=1e-9)


def test_inv_sqrt_rejects_non_positive():
    with pytest.raises(tm.NotPositiveDefinite):
        tm.inv_sqrt(np.diag([1.0, 0.0]))
    with pytest.raises(tm.NotPositiveDefinite):
        tm.inv_sqrt(np.diag([1.0, -3.0]))


def test_build_x_identity_gives_omega():
    np.testing.assert_allclose(tm.build_x(np.eye(4)), tm.omega(2), atol=1e-14)


def test_build_x_thermal_scales_omega():
    np.testing.assert_allclose(tm.build_x(2.0 * np.eye(2)), tm.omega(1) / 2.0,
                               atol=1e-14)


def test_build_x_is_antisymmetric():
    rng = np.random.default_rng(1)
    x = tm.build_x(random_spd(rng, 8))
    np.testing.assert_array_equal(x, -x.T)


def test_build_x_rejects_odd_dimension():
    with pytest.raises(tm.DimensionError):
        tm.build_x(np.eye(3))


def test_skew_rotation_single_mode():
    o, a = tm.skew_block_rotation(tm.omega(1))
    np.testing.assert_allclose(a, [1.0], atol=1e-12)
    np.testing.assert_allclose(o @ tm.omega(1) @ o.T, tm.omega(1), atol=1e-12)


def test_skew_rotation_two_scales():
    xs = tm.direct_sum(2.0 * tm.omega(1), 5.0 * tm.omega(1))
    o, a = tm.skew_block_rotation(xs)
    np.testing.assert_allclose(a, [2.0, 5.0], atol=1e-12)
    target = tm.direct_sum(2.0 * tm.omega(1), 5.0 * tm.omega(1))
    np.testing.assert_allclose(o @ xs @ o.T, target, atol=1e-12)
    np.testing.assert_allclose(o @ o.T, np.eye(4), atol=1e-12)
    assert np.linalg.det(o) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_skew_rotation_round_trip_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    xs = tm.build_x(random_spd(rng, 2 * n))
    o, a = tm.skew_block_rotation(xs)
    assert np.all(np.diff(a) >= -1e-12)
    target = tm.direct_sum(*(a_k * tm.omega(1) for a_k in a))
    np.testing.assert_allclose(o @ xs @ o.T, target, atol=1e-9)
    np.testing.assert_allclose(o @ o.T, np.eye(2 * n), atol=1e-10)
    assert np.linalg.det(o) == pytest.approx(1.0, abs=1e-9)


def pfaffian(x):
    """Pf of an antisymmetric matrix by expansion along its first row."""
    total = 1.0 if len(x) == 0 else 0.0
    for j in range(1, len(x)):
        keep = [k for k in range(1, len(x)) if k != j]
        total += (-1) ** (j + 1) * x[0, j] * pfaffian(x[np.ix_(keep, keep)])
    return total


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_skew_rotation_determinant_is_the_sign_of_the_pfaffian(n, sign):
    # Pf(o X o^T) = det o Pf X = prod a_k > 0, so det o = sign Pf X: proper for every
    # X = V^(-1/2) Omega V^(-1/2), whose Pf is det V^(-1/2) > 0, and improper once a reflection
    # of the first coordinate turns the sign, as on omega (+) -2 omega.
    rng = np.random.default_rng(40 + n)
    flip = np.diag([sign, *np.ones(2 * n - 1)])
    xs = [flip @ tm.build_x(random_spd(rng, 2 * n)) @ flip for _ in range(5)]
    xs.append(tm.direct_sum(*(k * tm.omega(1) for k in range(1, n)), sign * n * tm.omega(1)))
    for x in xs:
        assert np.sign(pfaffian(x)) == sign
        o, a = tm.skew_block_rotation(x)
        assert np.linalg.det(o) == pytest.approx(sign, abs=1e-9)
        target = tm.direct_sum(*(a_k * tm.omega(1) for a_k in a))
        np.testing.assert_allclose(o @ x @ o.T, target, atol=1e-9 * a.max())


def test_skew_rotation_rejects_singular():
    xs = tm.direct_sum(tm.omega(1), 0.0 * tm.omega(1))
    with pytest.raises(tm.SingularInput):
        tm.skew_block_rotation(xs)


def test_skew_rotation_rejects_non_antisymmetric():
    with pytest.raises(tm.SymmetryError):
        tm.skew_block_rotation(np.eye(4))


def test_skew_rotation_rejects_odd_dimension():
    with pytest.raises(tm.DimensionError):
        tm.skew_block_rotation(np.zeros((3, 3)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_skew_rotation_phase_freedom(n, rephase_eigh):
    # Any eigenbasis, rephased or not, gives a real orthogonal o.
    rng = np.random.default_rng(5)
    xs = tm.build_x(random_spd(rng, 2 * n))
    o1, a1 = tm.skew_block_rotation(xs)
    rephase_eigh([0.3, -1.1, 2.0, 0.8][:n])
    o2, a2 = tm.skew_block_rotation(xs)
    np.testing.assert_allclose(a1, a2, atol=1e-12)
    target = tm.direct_sum(*(a_k * tm.omega(1) for a_k in a1))
    for o in (o1, o2):
        assert o.dtype == np.float64
        np.testing.assert_allclose(o @ o.T, np.eye(2 * n), atol=1e-14)
        np.testing.assert_allclose(o @ xs @ o.T, target, atol=1e-9)
    # Different rotations related by block-diagonal planar rotations.
    q = o2 @ o1.T
    np.testing.assert_allclose(q @ q.T, np.eye(2 * n), atol=1e-9)
    assert np.max(np.abs(q - np.eye(2 * n))) > 1e-3


def test_williamson_vacuum_is_degenerate_identity():
    with pytest.warns(tm.DegeneracyWarning):
        dec = tm.williamson_decompose(np.eye(4))
    assert dec.degenerate
    np.testing.assert_allclose(dec.normal_form, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(dec.spectrum, [1.0, 1.0], atol=1e-12)
    assert_valid_decomposition(np.eye(4), dec)


def reference_transform(v):
    """(sqrt(nu) V^(-1/2), cond V) of a positive definite 2x2 at 50 digits, nu = sqrt(det V),
    from mpmath's symmetric eigensolver."""
    with mpmath.workdps(50):
        evals, q = mpmath.eigsy(mpmath.matrix(v.tolist()))
        nu = mpmath.sqrt(evals[0] * evals[1])
        root = q * mpmath.diag([mpmath.sqrt(nu / e) for e in evals]) * q.T
        return np.array(root.tolist(), dtype=float), float(max(evals) / min(evals))


def test_williamson_single_mode_squeezed():
    v = np.diag([4.0, 1.0])
    dec = tm.williamson_decompose(v)
    np.testing.assert_allclose(dec.normal_form, 2.0 * np.eye(2), atol=1e-12)
    assert_valid_decomposition(v, dec)


@settings(max_examples=300, deadline=None)
@given(st.floats(-6.0, 6.0), st.floats(0.0, 8.0), st.floats(-np.pi, np.pi))
def test_williamson_single_mode_is_already_in_block_form(log_sigma, log_kappa, angle):
    # R(angle) diag(sigma, sigma/kappa) R(angle)^T. Every 2x2 antisymmetric
    # matrix is a multiple of omega, so X = omega/nu needs no rotation: R = I
    # and S = sqrt(nu) V^(-1/2). Float routes to S err by about eps * kappa,
    # so S is held to a 50-digit reference within that.
    sigma = 10.0**log_sigma
    rot = tm.rotation(angle)
    v = rot @ np.diag([sigma, sigma / 10.0**log_kappa]) @ rot.T
    v = (v + v.T) / 2.0
    try:
        dec = tm.williamson_decompose(v)
    except tm.NotPositiveDefinite as err:  # sigma/kappa at or below the positivity cut
        assert err.min_eig <= tm.DEFAULT_TOL.threshold(v)
        return
    (nu,) = dec.spectrum
    np.testing.assert_array_equal(dec.rotation, np.eye(2))
    np.testing.assert_array_equal(dec.transform, dec.transform.T)
    expected, kappa = reference_transform(v)
    np.testing.assert_allclose(dec.transform, expected, rtol=0,
                               atol=4 * np.finfo(float).eps * kappa * np.abs(expected).max())
    np.testing.assert_allclose(dec.skew, tm.omega(1) / nu, rtol=1e-15, atol=0)
    np.testing.assert_allclose(dec.spectrum, tm.symplectic_spectrum_general(v), rtol=1e-8)
    assert_valid_decomposition(v, dec)


@pytest.mark.parametrize("n", [1, 2])
def test_ill_conditioned_inputs_pass_the_cross_checks(n):
    # Q diag(sigma, sigma/kappa, ...) Q^T at kappa = 3e8 ... 1e9: valid inputs on which the
    # eigenvectors of iX and both residuals of the certificate err by about eps * kappa. Its
    # bound must allow for that and not raise, and nu and R keep that accuracy. Each is within
    # Williamson's reach at any scale sigma, so none is refused.
    rng = np.random.default_rng(n)
    eps = np.finfo(float).eps
    for kappa in (3e8, 5e8, 7e8, 1e9):
        for i in range(100):
            sigma = 10.0 ** rng.uniform(-6.0, 6.0)
            # Every other draw repeats the extreme pair, which strains R's orthogonality most.
            inner = ([1.0, 1.0 / kappa] * (n - 1) if i % 2
                     else 10.0 ** rng.uniform(-np.log10(kappa), 0.0, size=2 * n - 2))
            q = random_orthogonal(rng, 2 * n)
            v = (q * (sigma * np.array([1.0, 1.0 / kappa, *inner]))) @ q.T
            v = (v + v.T) / 2.0
            dec = decompose_quietly(v)
            reference = tm.symplectic_spectrum_general(v)
            assert np.abs(dec.spectrum - reference).max() <= 4.0 * eps * kappa * reference.max()
            gram = dec.rotation @ dec.rotation.T - np.eye(2 * n)
            assert np.abs(gram).max() <= 16.0 * eps * kappa


def test_bare_skew_rotation_takes_every_x_that_williamson_decomposes():
    # Q diag(sigma, sigma/kappa, sigma, sigma/kappa) Q^T at kappa = 3e8. The eigenvectors of iX
    # err by about eps * a_max/a_min, which is at most cond V, so build_x's X must pass the
    # orthogonality check of skew_block_rotation wherever the decomposition of V passes it.
    rng = np.random.default_rng(19)
    kappa = 3e8
    for _ in range(200):
        sigma = 10.0 ** rng.uniform(-6.0, 6.0)
        q = random_orthogonal(rng, 4)
        v = (q * (sigma * np.array([1.0, 1.0 / kappa, 1.0, 1.0 / kappa]))) @ q.T
        v = (v + v.T) / 2.0
        dec = decompose_quietly(v)
        _, a = tm.skew_block_rotation(tm.build_x(v))
        np.testing.assert_allclose(a, 1.0 / dec.spectrum[::-1], rtol=1e-6)


def test_bare_skew_rotation_takes_a_near_degenerate_x_at_zero_tolerance():
    # Eight modes, V's eigenvalues within 1e-12 ... 10 of 1, so a_max/a_min is near 1: o's Gram
    # then errs by the product's rounding and eigh's orthonormality, a few d u, which
    # 32 u a_max/a_min alone refuses on 2 of these 300 draws (and 9 of 42,000 with n = 5-8).
    # Its allowance reads no tolerance.
    n, rng = 8, np.random.default_rng(1)
    zero = tm.Tolerance(rel=0.0, abs=0.0)
    for _ in range(300):
        q = random_orthogonal(rng, 2 * n)
        v = (q * rng.uniform(1.0, 1.0 + 10.0 ** rng.uniform(-12.0, 1.0), 2 * n)) @ q.T
        o, a = tm.skew_block_rotation(tm.build_x((v + v.T) / 2.0, zero), zero)
        np.testing.assert_allclose(o @ o.T, np.eye(2 * n), rtol=0, atol=1e-13)


def test_residuals_meet_the_stated_bound():
    # The certificate's contract, on the squeezing grid and a kappa sweep to 1e12 over n = 1-4,
    # rotated Q diag Q^T and graded D^(1/2) C D^(1/2) (on which eigh(V) errs by eps * cond V in
    # norm only): V past Williamson's reach is refused as not positive definite, and every other
    # S meets both identities within
    # u ((2d + 1) max(|S| |F| |S|^T) + 32 d cond V max |T_F|), (F, T_F) = (Omega, Omega), (V, W).
    u = np.finfo(float).eps / 2.0
    rng = np.random.default_rng(31)
    inputs = [tm.two_mode_squeezed(r) for r in np.linspace(0.0, 8.0, 801)]
    for i in range(800):
        n = 1 + i % 4
        kappa, sigma = 10.0 ** rng.uniform(0.0, 12.0), 10.0 ** rng.uniform(-8.0, 8.0)
        ev = sigma * 10.0 ** rng.uniform(-np.log10(kappa), 0.0, 2 * n)
        ev[:2] = sigma, sigma / kappa
        q = random_orthogonal(rng, 2 * n)
        if i % 2:
            c = (q * 10.0 ** rng.uniform(-0.5, 0.5, 2 * n)) @ q.T
            root = np.sqrt(ev / np.diag(c))
            v = root[:, None] * c * root
        else:
            v = (q * ev) @ q.T
        inputs.append((v + v.T) / 2.0)
    decomposed = 0
    for v in inputs:
        dim, evals = len(v), np.linalg.eigvalsh(v)
        cond = evals[-1] / evals[0]
        try:
            dec = decompose_quietly(v)
        except tm.NotPositiveDefinite:
            assert dim > 2 and cond > 0.01 / (32 * dim * u) * (1 - 1e-6)
            continue
        decomposed += 1
        s = dec.transform
        om = tm.omega(dim // 2)
        for form, target in ((om, om), (v, dec.normal_form)):
            residual = np.abs(s @ form @ s.T - target).max()
            size = (np.abs(s) @ np.abs(form) @ np.abs(s).T).max()
            assert residual <= ((2 * dim + 1) * size + 32 * dim * cond * np.abs(target).max()) * u
    assert decomposed >= 1000


def test_past_the_reach_is_refused_at_zero_tolerance():
    # two_mode_squeezed(7.5) has cond V = 1.1e13, past the reach 0.01 / (32 d u) = 7.0e11 up to
    # which the certificate's cond V term catches a 1% error in nu. At zero tolerance both eigh(V)
    # routes returned nu_- = 0.99987 for the exact 1.0000607 (the float matrix's, at 50 digits);
    # they refuse it as not positive definite, with its smallest eigenvalue, as the CLI's exit 4.
    v = tm.two_mode_squeezed(7.5)
    zero = tm.Tolerance(rel=0.0, abs=0.0)
    for call in (tm.williamson_decompose, tm.symplectic_spectrum_general):
        with pytest.raises(tm.NotPositiveDefinite, match="reach") as exc:
            call(v, zero)
        assert exc.value.min_eig == pytest.approx(np.linalg.eigvalsh(v)[0], rel=1e-6)


def test_squeezed_states_decompose_up_to_the_reach():
    # two_mode_squeezed(r) to r = 6.8, cond V = e^(4r) = 6.6e11: the default tolerance's cut
    # abs + rel max |v_ij| refused it from r = 5.36. Its nu is sqrt(a^2 - c^2) for its float
    # entries a = cosh 2r, c = sinh 2r, held to 8 eps cond V nu_max of that at 50 digits.
    eps = np.finfo(float).eps
    for r in np.linspace(0.0, 6.8, 341):
        v = tm.two_mode_squeezed(r)
        with mpmath.workdps(50):
            nu = float(mpmath.sqrt(mpmath.mpf(v[0, 0]) ** 2 - mpmath.mpf(v[0, 2]) ** 2))
        evals = np.linalg.eigvalsh(v)
        allowance = 8.0 * eps * evals[-1] / evals[0] * nu
        for spectrum in (decompose_quietly(v).spectrum, tm.symplectic_spectrum_general(v)):
            np.testing.assert_allclose(spectrum, [nu, nu], rtol=0, atol=allowance)


def test_normal_forms_exist_wherever_a_classifier_says_physical():
    # The squeezing grid, the extremes pools of seeds 1, 604 and 401-410 and the decide pools of
    # seeds 1-3: wherever either classifier tags V physical and cond V is within Williamson's
    # reach, both eigh(V) routes succeed, Williamson's nu_- is the closed form's within the
    # certificate's 32 d kappa u nu_+ plus the closed form's own rounding allowance, and the
    # standard form's a^2 and b^2 are det A and det B within their rounding. The 119 physical
    # inputs past the reach are squeezing-grid points.
    inputs = benchmark_inputs()
    vs = [tm.two_mode_squeezed(r) for r in np.linspace(0.0, 8.0, 801)]
    vs += [np.array(op["v"]) for seed in (1, 604, *range(401, 411))
           for op in inputs.extremes_pool(seed)]
    vs += [np.array(op["v"]) for seed in (1, 2, 3) for op in inputs.decide_pool(seed)]
    u, checked = np.finfo(float).eps / 2.0, 0
    for v in vs:
        if all(call(v).tag is tm.Tag.UNPHYSICAL for call in (tm.classify_global,
                                                              tm.classify_local)):
            continue
        evals = np.linalg.eigvalsh(v)
        if not evals[0] > 32 * 4 * u / 0.01 * evals[-1]:  # cond V past 0.01 / (32 d u)
            continue
        checked += 1
        nu_minus = decompose_quietly(v).spectrum[0]
        tm.symplectic_spectrum_general(v)
        closed, inv = tm.symplectic_spectrum_2mode(v), tm.two_mode_invariants(v)
        allowance = (32 * 4 * evals[-1] / evals[0] * u * closed.nu_plus
                     + invariants._nu_minus_allowance(v.tolist(), inv.delta, inv.det_V, 0.0, 0.0))
        assert abs(nu_minus - closed.nu_minus) <= allowance
        params = tm.reduce_to_standard_form(v)
        for x, ((p, q), (_, s)) in ((params.a, v[:2, :2]), (params.b, v[2:, 2:])):
            assert abs(x * x - (p * s - q * q)) <= 16.0 * u * (abs(p * s) + q * q)
    assert checked >= 3400


def test_certificate_allows_the_rounding_of_its_products():
    # The bound u ((2d + 1) size + error) with Williamson's error 32 d kappa max |T_F| = 128 at
    # d = 4, kappa = 1 and max |T_F| = 1 is (9e3 + 128) u for products of size 1e3: 8e3 u of
    # residual is their rounding, which the error term alone would refuse. A residual past the
    # bound, or NaN, names its identity, with the standard form's target T as well.
    u = np.finfo(float).eps / 2.0
    standard_form._certify((8e3 * u, 8e3 * u), (1e3, 1e3), 4, (128.0, 128.0))
    for res in (1e4 * u, np.nan):
        for residuals, name, target in (((res, 0.0), "S Omega S^T - Omega", "W"),
                                        ((0.0, res), "S V S^T - W", "W"),
                                        ((0.0, res), "S V S^T - T", "T")):
            with pytest.raises(tm.InternalInconsistency, match=re.escape(name)):
                standard_form._certify(residuals, (1e3, 1e3), 4, (128.0, 128.0), target)


def test_williamson_mixing_family():
    v = tm.simon_vx(1.0)
    dec = tm.williamson_decompose(v)
    np.testing.assert_allclose(dec.spectrum, [np.sqrt(2.0), np.sqrt(4.5)],
                               atol=1e-12)
    assert not dec.degenerate
    assert_valid_decomposition(v, dec)


def test_williamson_matches_two_mode_spectrum():
    rng = np.random.default_rng(7)
    for _ in range(10):
        v = random_physical_cm(rng)
        dec = decompose_quietly(v)
        nu = tm.symplectic_spectrum_2mode(v)
        np.testing.assert_allclose(dec.spectrum, [nu.nu_minus, nu.nu_plus],
                                   rtol=1e-8, atol=1e-9)
        assert_valid_decomposition(v, dec)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_williamson_random_spd_all_sizes(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(10):
        v = random_spd(rng, 2 * n)
        dec = decompose_quietly(v)
        assert_valid_decomposition(v, dec)
        # Spectrum equals |eigenvalues of i Omega V| (halved multiplicity).
        target = np.sort(np.abs(np.linalg.eigvals(
            1j * tm.omega(n) @ v).real))[::2]
        np.testing.assert_allclose(dec.spectrum, np.sort(target),
                                   rtol=1e-8, atol=1e-9)


@pytest.mark.parametrize("rel", [1e-6, 1e-3])
def test_williamson_decomposes_input_symmetric_within_tolerance(rel):
    # Its lower triangle moved by up to 0.9 of the symmetry cut, V is decomposed as the matrix
    # whose lower triangle is its upper one, which every route of the decomposition reads.
    tol = tm.Tolerance(rel=rel)
    rng = np.random.default_rng(11)
    for k in range(30):
        n = 1 + k % 3
        v = random_spd(rng, 2 * n)
        w = v + np.tril(rng.uniform(-0.9, 0.9, v.shape), -1) * tol._cut(float(np.abs(v).max()))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", tm.DegeneracyWarning)
            dec = tm.williamson_decompose(w, tol)
        assert_valid_decomposition(upper_mirror(w), dec)


def test_williamson_phase_freedom_same_normal_form(rephase_eigh):
    # Three modes, which take the eigenvectors of iX (two rotate X in closed form).
    rng = np.random.default_rng(9)
    v = random_spd(rng, 6)
    d1 = decompose_quietly(v)
    rephase_eigh([0.7, -0.2])
    d2 = decompose_quietly(v)
    np.testing.assert_allclose(d1.normal_form, d2.normal_form, atol=1e-10)
    assert_valid_decomposition(v, d2)
    assert np.max(np.abs(d1.transform - d2.transform)) > 1e-6


def assert_local_rotations(q):
    """q = (+)_k R(phi_k): zero off its 2x2 diagonal blocks, each block a proper rotation."""
    blocks = [q[k:k + 2, k:k + 2] for k in range(0, len(q), 2)]
    assert np.max(np.abs(q - tm.direct_sum(*blocks))) < 1e-8
    for blk in blocks:
        np.testing.assert_allclose(blk @ blk.T, np.eye(2), atol=1e-8)
        assert np.linalg.det(blk) == pytest.approx(1.0, abs=1e-8)


def test_williamson_uniqueness_coset_is_local_rotations(rephase_eigh):
    # For distinct symplectic eigenvalues, two valid transforms differ by
    # a symplectic orthogonal block-diagonal of planar rotations on the left:
    # S2 S1^{-1} = (+)_k R(phi_k). Three modes, whose eigenvectors of iX the rephasing moves.
    rng = np.random.default_rng(11)
    v = random_spd(rng, 6)
    d1 = decompose_quietly(v)
    if d1.degenerate:
        pytest.skip("degenerate draw")
    rephase_eigh([0.9, -0.4])
    d2 = decompose_quietly(v)
    q = d2.transform @ np.linalg.inv(d1.transform)
    assert np.max(np.abs(q - np.eye(6))) > 1e-3  # the rephasing reached the transform
    assert_local_rotations(q)


@pytest.mark.parametrize("v", [tm.thermal(1.5, 2.5), tm.thermal(2.5, 1.5), tm.simon_vx(0.7),
                               *(random_spd(np.random.default_rng(seed), 4) for seed in range(8))],
                         ids=["w-along-minus-i", "w-along-plus-i", "simon_vx",
                              *(f"random-{seed}" for seed in range(8))])
def test_closed_form_and_eigenvector_transforms_differ_by_local_rotations(v):
    # Two modes: the closed-form S and the S assembled from the eigenvectors of iX,
    # W^(1/2) O V^(-1/2) with (O, a) = skew_block_rotation(build_x(V)) in W's order, are both
    # Williamson transforms of V, so they differ by (+)_k R(phi_k) on the left. The thermal
    # states put w = (x23 - x01, ...)/2 on -i and on +i, each side of the half-way quaternion.
    dec = decompose_quietly(v)
    assert not dec.degenerate
    o, a = tm.skew_block_rotation(tm.build_x(v))
    o, a = o.reshape(2, 2, 4)[::-1].reshape(4, 4), a[::-1]  # a descending: nu ascending
    np.testing.assert_allclose(dec.spectrum, 1.0 / a, rtol=1e-12)
    s = np.sqrt(1.0 / a).repeat(2)[:, None] * (o @ tm.inv_sqrt(v))
    assert_local_rotations(s @ np.linalg.inv(dec.transform))


def test_williamson_degeneracy_flag_and_warning():
    v = tm.thermal(2.0, 2.0)
    with pytest.warns(tm.DegeneracyWarning):
        dec = tm.williamson_decompose(v)
    assert dec.degenerate
    assert_valid_decomposition(v, dec)


@pytest.mark.parametrize("c", [2.5, 4.359375, 5.328125, 5.453125])
def test_williamson_degenerate_spectrum_ascends(c):
    # thermal(c, c): w = 0 and a_max = |u| = x01, while Pf X / a_max = x01^2 / x01 rounds to one
    # ulp above it at these c. a_min is held at a_max, so nu ascends and the gap is not negative.
    with pytest.warns(tm.DegeneracyWarning):
        dec = tm.williamson_decompose(tm.thermal(c, c))
    assert dec.spectrum[0] <= dec.spectrum[1]
    assert_valid_decomposition(tm.thermal(c, c), dec)


@pytest.mark.parametrize("c", [1e-12, 1e-9, 1e-6, 1.0, 1e6])
def test_williamson_degeneracy_cut_follows_the_spectrum_scale(c):
    # The gap is compared with rel * max nu, which scales with the spectrum, so a
    # well-separated spectrum is not degenerate at any scale, tol.abs's included.
    with warnings.catch_warnings():
        warnings.simplefilter("error", tm.DegeneracyWarning)
        assert not tm.williamson_decompose(tm.thermal(1.5, 2.5) * c).degenerate
    for v in (tm.thermal(2.0, 2.0) * c, np.eye(4)):
        with pytest.warns(tm.DegeneracyWarning):
            assert tm.williamson_decompose(v).degenerate


@pytest.mark.parametrize("k", [12, 20, 80])
def test_williamson_accepts_large_scale(k):
    # X = V^(-1/2) Omega V^(-1/2) is in units of 1/V: its singularity cut must
    # not carry the absolute tolerance, which is in V's units.
    v = tm.thermal(1.5, 2.5) * 10.0**k
    dec = tm.williamson_decompose(v)
    np.testing.assert_allclose(dec.spectrum, np.array([1.5, 2.5]) * 10.0**k, rtol=1e-15)
    assert_valid_decomposition(v, dec)


def test_williamson_near_degenerate_is_not_flagged():
    v = tm.thermal(2.0, 2.001)
    dec = tm.williamson_decompose(v)
    assert not dec.degenerate


def test_williamson_rejects_bad_inputs():
    with pytest.raises(tm.NotPositiveDefinite):
        tm.williamson_decompose(np.diag([1.0, 1.0, 1.0, -1.0]))
    with pytest.raises(tm.DimensionError):
        tm.williamson_decompose(np.eye(3))
    m = np.eye(4)
    m[0, 1] = 1e-3
    with pytest.raises(tm.SymmetryError):
        tm.williamson_decompose(m)
    with pytest.raises(tm.DimensionError):
        tm.williamson_decompose(np.eye(2 * 9))  # above the mode cap


def test_williamson_skew_field_matches_build_x():
    # The record's X is build_x's byte for byte and exactly antisymmetric, on inputs at unit
    # scale (4^j = 1): two modes form (x - x^T) / 2 on X's Python floats, more modes in numpy.
    # A diagonal V gives an X with zeros, whose signs must match too.
    rng = np.random.default_rng(13)
    for n in (2, 3, 4):
        draws = [np.diag(rng.uniform(0.2, 5.0, 2 * n))] + [random_spd(rng, 2 * n) for _ in range(6)]
        for v in draws:
            dec, x = decompose_quietly(v), tm.build_x(v)
            assert (dec.skew.shape, dec.skew.tobytes()) == (x.shape, x.tobytes())
            assert np.array_equal(dec.skew, -dec.skew.T)


def parse_document(m):
    return cli.parse_document(json.dumps(m.tolist()))


_ANY_MODES = (tm.williamson_decompose, tm.inv_sqrt, tm.build_x, tm.skew_block_rotation,
              tm.symplectic_spectrum_general, tm.heisenberg_oracle, parse_document)
_TWO_MODES = (tm.two_mode_invariants, tm.symplectic_spectrum_2mode, tm.ppt_spectrum_2mode,
              tm.check_global, tm.check_local, tm.classify_global, tm.classify_local,
              tm.simon_criterion, tm.posdef_criterion, tm.reduce_to_standard_form, tm.blocks)
_FIXED_DIM = {**dict.fromkeys(_TWO_MODES, 4), tm.single_mode_williamson: 2}


@pytest.mark.parametrize("fn", [*_ANY_MODES, *_FIXED_DIM])
def test_empty_matrix_is_a_dimension_error(fn):
    # Empty, odd, wrong fixed shape, asymmetric and non-finite input each fail
    # at the input boundary with their own error type.
    dim = _FIXED_DIM.get(fn)
    asymmetric, nonfinite = np.eye(dim or 4), np.eye(dim or 4)
    asymmetric[0, 1] = 1e-3
    nonfinite[0, 0] = np.nan
    cases = [(np.zeros((0, 0)), tm.DimensionError), (asymmetric, tm.SymmetryError),
             (nonfinite, tm.NonFiniteError)]
    if fn is not tm.inv_sqrt:  # inv_sqrt takes any square, odd ones too
        cases.append((np.eye(3), tm.DimensionError))
    if dim is not None:
        cases.append((np.eye(dim + 2), tm.DimensionError))
    for m, error in cases:
        with pytest.raises(error):
            fn(m)


def test_each_normal_form_factors_the_matrix_once(monkeypatch):
    # Williamson: eigh(V) is both V^(-1/2) and the positivity check; two modes rotate
    # X in closed form, three or more take eigh(iX); the residuals of S V S^T = W and
    # S Omega S^T = Omega certify the result with matrix products alone. One mode needs no
    # LAPACK call: the closed form of the block gives nu = sqrt(det V), R = I and S, and
    # both residuals are formed on its Python floats. The standard form:
    # closed forms on each diagonal block, no LAPACK call.
    counts = count_linalg(monkeypatch, "eig", "eigh", "eigvals", "eigvalsh", "det", "inv",
                          "solve", "svd", "cholesky")
    v = tm.random_physical(3)
    decompose_quietly(v)
    assert counts == {"eigh": 1}
    counts.clear()
    decompose_quietly(tm.direct_sum(v, 2.0 * np.eye(2)))
    assert counts == {"eigh": 2}
    counts.clear()
    tm.williamson_decompose(np.array([[2.0, 0.5], [0.5, 1.0]]))
    assert counts == {}
    counts.clear()
    tm.reduce_to_standard_form(v)
    assert counts == {}


def test_cached_forms_are_not_shared_mutable_state():
    v = tm.simon_vx(1.0)
    before = tm.williamson_decompose(v)
    form = tm.omega(2)
    form[0, 1] = 7.0
    np.testing.assert_array_equal(tm.omega(2), np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]]))
    after = tm.williamson_decompose(v)
    for field in ("normal_form", "transform", "rotation", "skew", "spectrum"):
        assert getattr(after, field).tobytes() == getattr(before, field).tobytes()
    # The oracle's cached i Omega is read-only and stays 1j * omega(n).
    from twomode.symplectic import _omega_form
    oracle = tm.heisenberg_oracle(v)
    with pytest.raises(ValueError):
        _omega_form(2, 1j)[0, 1] = 7.0j
    np.testing.assert_array_equal(_omega_form(2, 1j), 1j * tm.omega(2))
    assert tm.heisenberg_oracle(v) == oracle


def _patched(monkeypatch, name, change):
    """Make np.linalg.<name> pass its result through change(args, result)."""
    original = getattr(np.linalg, name)
    monkeypatch.setattr(np.linalg, name, lambda *args: change(args, original(*args)))


_SYMPLECTIC_RESIDUAL = r"residual max \|S Omega S\^T - Omega\| = .* exceeds its bound"
_NORMAL_FORM_RESIDUAL = r"residual max \|S V S\^T - W\| = .* exceeds its bound"


def test_williamson_eigenvalue_of_ix_error_fires_symplectic_residual(monkeypatch):
    # The eigenvalues of iX 1% too large, on three modes: they still pair, and S V S^T = W
    # holds for the nu = 1/a they give, so only S Omega S^T = Omega can catch it.
    def scale(args, res):
        return (res[0] * 1.01, res[1]) if np.iscomplexobj(args[0]) else res
    _patched(monkeypatch, "eigh", scale)
    with pytest.raises(tm.InternalInconsistency, match=_SYMPLECTIC_RESIDUAL):
        tm.williamson_decompose(tm.direct_sum(tm.thermal(1.5, 2.5), 3.5 * np.eye(2)))


_TWO_MODE_INPUTS = (tm.thermal(1.5, 2.5), tm.simon_vx(0.7), tm.two_mode_squeezed(4.0),
                    random_spd(np.random.default_rng(3), 4))


@pytest.mark.parametrize("v", _TWO_MODE_INPUTS, ids=["thermal", "simon_vx", "squeezed-r4",
                                                     "random"])
@pytest.mark.parametrize("fault", [
    lambda r, a: (r, [x * 1.01 for x in a]),
    lambda r, a: (r * np.array([[-1.0], [1.0], [1.0], [1.0]]), a),
    lambda r, a: (r * 1.1, a),
], ids=["a-scaled", "reflected", "stretched"])
def test_closed_form_rotation_errors_fire_symplectic_residual(monkeypatch, v, fault):
    # The two-mode closed form broken as the eigenvector route is in the tests around this one:
    # a 1% too large (S V S^T = W holds for nu = 1/a), R composed with a reflection, det R = -1
    # (R stays orthogonal, and R X R^T's first block turns to -a_max omega), and R stretched by
    # 10% (S Omega S^T = 1.21 Omega). Each leaves S Omega S^T = Omega to catch it.
    rotation = williamson._isoclinic_rotation
    monkeypatch.setattr(williamson, "_isoclinic_rotation", lambda x: fault(*rotation(x)))
    with pytest.raises(tm.InternalInconsistency, match=_SYMPLECTIC_RESIDUAL):
        decompose_quietly(v)


@pytest.mark.parametrize("v", _TWO_MODE_INPUTS, ids=["thermal", "simon_vx", "squeezed-r4",
                                                     "random"])
def test_transposed_read_of_x_fires_symplectic_residual(monkeypatch, v):
    # X's six upper entries negated are X read as X^T = -X. The closed form then turns u and w
    # onto +i: R X R^T = -(a_max omega (+) a_min omega), so S V S^T = W still holds and
    # S Omega S^T = -Omega is left to catch it.
    rotation = williamson._isoclinic_rotation
    monkeypatch.setattr(williamson, "_isoclinic_rotation",
                        lambda upper: rotation(tuple(-x for x in upper)))
    with pytest.raises(tm.InternalInconsistency, match=_SYMPLECTIC_RESIDUAL):
        decompose_quietly(v)


@pytest.mark.parametrize("n", [2, 3])
def test_non_finite_x_is_a_numerical_error(monkeypatch, n):
    # Within reach X cannot overflow (test_two_mode_product_needs_no_overflow_guard in
    # test_range.py), but a NaN in V^(-1/2), a fault, reaches X on either route and is refused.
    inv_sqrt = williamson._inv_sqrt

    def poisoned(v, f):
        m, kappa = inv_sqrt(v, f)
        m[0, 0] = np.nan
        return m, kappa
    monkeypatch.setattr(williamson, "_inv_sqrt", poisoned)
    with pytest.raises(tm.NumericalError, match="overflows float64"):
        decompose_quietly(random_spd(np.random.default_rng(n), 2 * n))


def _rotated(cond):
    q = random_orthogonal(np.random.default_rng(31), 4)
    v = (q * np.array([1.0, 1e-3, 10.0 ** -4.5, 1.0 / cond])) @ q.T
    return (v + v.T) / 2.0


@pytest.mark.parametrize("v", [[[2.0, 0.5], [0.5, 1.0]], [[4.0, 0.0], [0.0, 1.0]],
                               [[1.5e308, 1e308], [1e308, 1.5e308]], tm.simon_vx(0.7),
                               tm.two_mode_squeezed(4.0), _rotated(1e8)],
                         ids=["mixed", "squeezed", "near-max", "two-mode", "squeezed-r4",
                              "rotated-cond-1e8"])
def test_williamson_normal_form_residual_fires(monkeypatch, v):
    # One mode: the closed form's nu 1% too large, S untouched. Two modes: V's
    # eigenvalues 1% too large, so M V M = I/1.01 and X and nu move with it.
    # Either way S Omega S^T = Omega holds and only S V S^T = W can catch it,
    # also at cond V = e^16 (two_mode_squeezed(4.0)) and 1e8, where the bound
    # must stay below the 1% error: its cond V term multiplies max |W|, not
    # max |S| |V| |S|^T, which grows like cond V itself on squeezed inputs.
    if len(v) == 2:
        single_mode = williamson._single_mode
        monkeypatch.setattr(williamson, "_single_mode",
                            lambda *args: (single_mode(*args)[0], single_mode(*args)[1] * 1.01))
    else:
        _patched(monkeypatch, "eigh",
                 lambda args, res: res if np.iscomplexobj(args[0]) else (res[0] * 1.01, res[1]))
    with pytest.raises(tm.InternalInconsistency, match=_NORMAL_FORM_RESIDUAL):
        tm.williamson_decompose(np.array(v))


def test_general_spectrum_rejects_unpaired_moduli(monkeypatch):
    def unpair(args, ev):
        ev = ev.copy()
        ev[0] *= 1.5
        return ev
    _patched(monkeypatch, "eigvals", unpair)
    with pytest.raises(tm.PairingError, match="fail to pair"):
        tm.symplectic_spectrum_general(tm.thermal(1.5, 2.5))


def test_williamson_improper_rotation_fires_symplectic_residual(monkeypatch):
    # p_0 conjugated negates row 0 of R, sqrt(2) (-Im p_0)^T: R stays orthogonal, so
    # S V S^T = W holds, but det R = -1 turns R X R^T's first block to -a omega, which
    # S Omega S^T = Omega catches. Three modes, which take the eigenvectors of iX.
    def conjugate_first(args, res):
        if not np.iscomplexobj(args[0]):
            return res
        vecs = res[1].copy()
        vecs[:, 0] = vecs[:, 0].conj()
        return res[0], vecs
    _patched(monkeypatch, "eigh", conjugate_first)
    with pytest.raises(tm.InternalInconsistency, match=_SYMPLECTIC_RESIDUAL):
        tm.williamson_decompose(tm.direct_sum(tm.simon_vx(0.7), 3.0 * np.eye(2)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_block_rotation_orthogonality_check_fires(monkeypatch, n):
    # Eigenvectors of iX (the one complex eigh) stretched by 10%. The bare
    # rotation checks its Gram matrix; the decomposition's R R^T = 1.21 I moves
    # S Omega S^T to 1.21 Omega. A one-mode decomposition makes no such call, and a
    # two-mode one rotates X in closed form.
    def stretch(args, res):
        return (res[0], res[1] * 1.1) if np.iscomplexobj(args[0]) else res
    _patched(monkeypatch, "eigh", stretch)
    v = random_spd(np.random.default_rng(n), 2 * n)
    with pytest.raises(tm.InternalInconsistency, match="departs from orthogonality"):
        tm.skew_block_rotation(tm.build_x(v))
    if n > 2:
        with pytest.raises(tm.InternalInconsistency, match=_SYMPLECTIC_RESIDUAL):
            decompose_quietly(v)


@pytest.mark.parametrize("c", [1e307, 5e307, 6e307])
def test_williamson_decomposes_near_float_max(c):
    # X = V^(-1/2) Omega V^(-1/2) has entries near 1e-308 here, below float64's normal range:
    # the decomposition runs on V / 4^j and scales nu and X back exactly.
    v = c * tm.simon_vx(1.0)
    dec, unit = tm.williamson_decompose(v), tm.williamson_decompose(tm.simon_vx(1.0))
    np.testing.assert_allclose(dec.spectrum, c * unit.spectrum, rtol=1e-15)
    s = dec.transform
    np.testing.assert_allclose(s @ tm.simon_vx(1.0) @ s.T, dec.normal_form / c, atol=1e-13)
    np.testing.assert_allclose(dec.transform @ tm.omega(2) @ dec.transform.T, tm.omega(2),
                               atol=1e-14)

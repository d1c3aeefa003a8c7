"""Bona fide tests: the three routes and the closed-form spectrum."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import twomode as tm
from twomode.invariants import _min_eig_2x2

from .support import exact_bona_fide, random_physical_cm, random_symmetric

# Frozen oracle values for the correlated-thermal family V(x):
# lambda_-(x) = (1 + 8x - sqrt(17 - 16x + 64x^2)) / 4.
LAMBDA_MINUS_01 = -0.5512492197250392
LAMBDA_MINUS_03 = -0.2094810050208541
LAMBDA_MINUS_05 = 0.0


def test_is_positive_definite_basic():
    assert tm.is_positive_definite(np.eye(4))
    assert not tm.is_positive_definite(np.diag([1.0, 1.0, 1.0, 0.0]))
    assert not tm.is_positive_definite(np.diag([1.0, -1.0, 1.0, 1.0]))


def test_is_positive_definite_is_strict_at_tolerance():
    tol = tm.Tolerance(rel=1e-9, abs=1e-12)
    assert not tm.is_positive_definite(np.diag([1.0, 1.0, 1.0, 5e-10]), tol)
    assert tm.is_positive_definite(np.diag([1.0, 1.0, 1.0, 1e-6]), tol)


def test_heisenberg_vacuum_saturates():
    ok, min_eig = tm.heisenberg_oracle(np.eye(4))
    assert ok
    assert min_eig == pytest.approx(0.0, abs=1e-14)


def test_heisenberg_thermal_margin():
    # nu I has V + i Omega eigenvalues nu -+ 1.
    ok, min_eig = tm.heisenberg_oracle(np.diag([3.0, 3.0, 2.0, 2.0]))
    assert ok
    assert min_eig == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("x,expected", [
    (0.1, LAMBDA_MINUS_01),
    (0.3, LAMBDA_MINUS_03),
    (0.5, LAMBDA_MINUS_05),
])
def test_heisenberg_mixing_family_frozen_values(x, expected):
    ok, min_eig = tm.heisenberg_oracle(tm.simon_vx(x))
    assert min_eig == pytest.approx(expected, abs=1e-12)
    assert ok == (x >= 0.5)


def test_heisenberg_two_mode_squeezed_saturates():
    for r in (0.1, 0.5, 1.0):
        ok, min_eig = tm.heisenberg_oracle(tm.two_mode_squeezed(r))
        assert ok
        assert min_eig == pytest.approx(0.0, abs=1e-12)


def test_heisenberg_rejects_odd_dimension():
    with pytest.raises(tm.DimensionError):
        tm.heisenberg_oracle(np.eye(3))


def test_heisenberg_rejects_asymmetric():
    m = np.eye(4)
    m[0, 1] = 1e-3
    with pytest.raises(tm.SymmetryError):
        tm.heisenberg_oracle(m)


def test_check_global_vacuum():
    rep = tm.check_global(np.eye(4))
    assert rep.verdict and rep.route == "global"
    assert rep.margins["min_eig_V"] == pytest.approx(1.0)
    assert rep.margins["det_V_minus_1"] == pytest.approx(0.0, abs=1e-12)
    assert rep.margins["delta_margin"] == pytest.approx(0.0, abs=1e-12)
    assert rep.nu_minus == pytest.approx(1.0, abs=1e-12)
    assert rep.borderline  # sits exactly on det V = 1 and Delta = 1 + det V


def test_check_global_mixing_family_below_threshold():
    rep = tm.check_global(tm.simon_vx(0.1))
    assert not rep.verdict
    assert rep.margins["det_V_minus_1"] == pytest.approx(-0.82, abs=1e-12)
    assert rep.margins["delta_margin"] == pytest.approx(0.08, abs=1e-12)
    assert rep.nu_minus is not None  # V(0.1) is still positive definite
    assert not rep.borderline


def test_check_global_mixing_family_at_threshold():
    rep = tm.check_global(tm.simon_vx(0.5))
    assert rep.verdict
    assert abs(rep.margins["delta_margin"]) < 1e-10
    assert rep.nu_minus == pytest.approx(1.0, abs=1e-12)
    assert rep.borderline


def test_check_global_non_positive_definite():
    rep = tm.check_global(np.diag([2.0, 2.0, 2.0, -0.5]))
    assert not rep.verdict
    assert rep.margins["min_eig_V"] == pytest.approx(-0.5)
    assert rep.nu_minus is None


def test_check_local_mixing_family_below_threshold():
    # At x = 0.1 the Delta condition holds but the block condition fails:
    # the matrix is positive definite yet unphysical.
    rep = tm.check_local(tm.simon_vx(0.1))
    assert not rep.verdict and rep.route == "local"
    assert rep.margins["min_eig_A"] == pytest.approx(0.7, abs=1e-12)
    assert rep.margins["min_eig_B"] == pytest.approx(0.7, abs=1e-12)
    assert rep.margins["delta_margin"] == pytest.approx(0.08, abs=1e-12)
    assert rep.margins["block_margin"] == pytest.approx(-0.5635, abs=1e-12)


def test_check_local_mixing_family_at_threshold():
    # At x = 0.5 the Delta condition is the tight one; the block condition
    # holds with room to spare.
    rep = tm.check_local(tm.simon_vx(0.5))
    assert rep.verdict
    assert abs(rep.margins["delta_margin"]) < 1e-10
    assert rep.margins["block_margin"] == pytest.approx(2.8125, abs=1e-12)
    assert rep.borderline


def test_check_local_vacuum():
    rep = tm.check_local(np.eye(4))
    assert rep.verdict
    assert rep.margins["block_margin"] == pytest.approx(0.0, abs=1e-12)


def test_check_local_negative_block():
    v = tm.direct_sum(np.diag([1.0, -1.0]), np.eye(2))
    rep = tm.check_local(v)
    assert not rep.verdict
    assert rep.margins["min_eig_A"] == pytest.approx(-1.0)


_BLOCK_KINDS = ("any", "singular", "negative_definite", "indefinite", "diagonal",
                "equal_eigenvalues")


@st.composite
def symmetric_blocks(draw):
    """(p, q, s) of [[p, q], [q, s]] built from chosen eigenvalues and a rotation,
    entry scale 1e-6 to 1e6."""
    kind = draw(st.sampled_from(_BLOCK_KINDS))
    x, y = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
    lam = {"any": (x, y), "singular": (0.0, y),
           "negative_definite": (-0.01 - abs(x), -0.01 - abs(y)),
           "indefinite": (-0.01 - abs(x), 0.01 + abs(y)),
           "diagonal": (x, y), "equal_eigenvalues": (x, x)}[kind]
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    if kind == "diagonal":
        return lam[0] * scale, 0.0, lam[1] * scale
    r = tm.rotation(draw(st.floats(0.0, 2.0 * np.pi)))
    m = (r * np.array(lam)) @ r.T * scale
    return float(m[0, 0]), float(m[1, 0]), float(m[1, 1])


@settings(max_examples=1000, deadline=None)
@given(symmetric_blocks())
@example((-1e6, 1e6 + 1e-3, -1e6))  # lambda_+ = 1e-3 beside entries of 1e6
@example((1.0, 1.0, 1.0))
@example((0.1, 0.0, 0.1))
@example((3.0, 0.0, -2.0))
@example((-2.0, 0.0, -2.0))
@example((2.5201843673e-314, 3.3736400867e-314, 4.5161169877e-314))  # exact -1.93e-324 -> -0.0
def test_block_min_eig_matches_eigvalsh(block):
    # check_local's closed form against LAPACK's symmetric eigensolver.
    p, q, s = block
    ref = np.linalg.eigvalsh(np.array([[p, q], [q, s]]))[0]
    assert abs(_min_eig_2x2(p, q, s) - ref) <= 1e-12 * max(abs(p), abs(q), abs(s))
    if q == 0.0:
        assert _min_eig_2x2(p, q, s) == min(p, s)


@pytest.mark.parametrize("seed", range(30))
def test_three_routes_agree_on_random_inputs(seed):
    rng = np.random.default_rng(seed)
    v = random_symmetric(rng) if seed % 2 else random_physical_cm(rng)
    heis, _ = tm.heisenberg_oracle(v)
    glob = tm.check_global(v)
    loc = tm.check_local(v)
    if not (glob.borderline or loc.borderline):
        assert heis == glob.verdict == loc.verdict


@pytest.mark.parametrize("seed", range(20))
def test_physical_cms_pass_all_routes(seed):
    v = random_physical_cm(np.random.default_rng(seed))
    assert tm.heisenberg_oracle(v)[0]
    assert tm.check_global(v).verdict
    assert tm.check_local(v).verdict


def test_closed_form_spectrum_identity_quadruple():
    eigs = tm.standard_form_hermitian_eigs(1.0, 1.0, 0.0, 0.0)
    np.testing.assert_allclose(eigs.ordered(), [0.0, 0.0, 2.0, 2.0], atol=1e-14)
    assert eigs.mu_aux == pytest.approx(4.0)
    assert eigs.nu_aux == pytest.approx(0.0)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.1, 4.0), st.floats(0.1, 4.0),
       st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_closed_form_spectrum_matches_dense_solver(a, b, c_plus, c_minus):
    v = tm.standard_form_matrix(a, b, c_plus, c_minus)
    dense = np.sort(np.linalg.eigvalsh(v + 1j * tm.omega(2)))
    eigs = tm.standard_form_hermitian_eigs(a, b, c_plus, c_minus)
    scale = max(1.0, a, b, abs(c_plus), abs(c_minus)) ** 2
    np.testing.assert_allclose(eigs.ordered(), dense, atol=1e-10 * scale)
    assert eigs.mu_aux >= 4.0
    assert eigs.nu_aux >= 0.0
    assert eigs.lambda_pm == pytest.approx(dense[0], abs=1e-10 * scale)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 1e6), st.floats(0.0, 1e6), st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
def test_closed_form_spectrum_fields_are_python_floats(a, b, c_plus, c_minus):
    # Every field is a float, the four eigenvalues too, with the value numpy's sqrt gave them:
    # math.sqrt and np.sqrt are both the correctly rounded square root.
    eigs = tm.standard_form_hermitian_eigs(a, b, c_plus, c_minus)
    mu, nu, s = eigs.mu_aux, eigs.nu_aux, a + b
    outer_p = np.sqrt(max(mu + 2.0 * np.sqrt(max(nu, 0.0)), 0.0))
    outer_m = np.sqrt(max(mu - 2.0 * np.sqrt(max(nu, 0.0)), 0.0))
    want = ((s + outer_p) / 2.0, (s + outer_m) / 2.0, (s - outer_p) / 2.0, (s - outer_m) / 2.0)
    for name, value in zip(("lambda_pp", "lambda_mp", "lambda_pm", "lambda_mm"), want):
        got = getattr(eigs, name)
        assert type(got) is float and repr(got) == repr(float(value))
    assert type(mu) is float and type(nu) is float


def test_closed_form_spectrum_mixing_family():
    # V(x) has blocks a = b = (1 + 4x)/2, c+ = (4x - 1)/2, c- = -2x, and its
    # smallest V + i Omega eigenvalue must match the heisenberg oracle.
    for x in (0.1, 0.3, 0.5, 1.0):
        s = (1.0 + 4.0 * x) / 2.0
        eigs = tm.standard_form_hermitian_eigs(s, s, (4.0 * x - 1.0) / 2.0, -2.0 * x)
        _, min_eig = tm.heisenberg_oracle(tm.simon_vx(x))
        assert eigs.lambda_pm == pytest.approx(min_eig, abs=1e-12)


@pytest.mark.parametrize("block, expected", [
    ((10.0, 0.0, 2.22507385850696e-310), 2.22507385850696e-310),
    ((1e10, 1e-160, 2.22507385850696e-310), 2.22507385850696e-310),
    ((2.5e-310, 0.0, 4.0), 2.5e-310),
])
def test_block_min_eig_keeps_a_subnormal_entry_beside_a_large_one(block, expected):
    # A subnormal smaller eigenvalue of a block whose scale is 1 or more is
    # exact to 2^-1074 as computed; rescaling the block would round it.
    assert _min_eig_2x2(*block) == expected
    assert _min_eig_2x2(*block) == np.linalg.eigvalsh(np.array([[block[0], block[1]],
                                                                [block[1], block[2]]]))[0]


@pytest.mark.parametrize("family", [tm.random_physical, tm.random_symmetric])
def test_exact_referee_agrees_with_the_oracle(family):
    # The exact referee and the Hermitian eigenvalue oracle decide V + i Omega >= 0, and the
    # same on Lambda V Lambda, alike wherever the oracle's min_eig is clear of its cut.
    decided = 0
    for seed in range(200):
        v = family(seed)
        for m in (v, tm.partial_transpose(v)):
            verdict, min_eig = tm.heisenberg_oracle(m)
            if abs(min_eig) > 10.0 * tm.DEFAULT_TOL.threshold(m):
                assert exact_bona_fide(m) == verdict, seed
                decided += 1
    assert decided >= 300

"""Invariants, the determinant identity, and symplectic spectra."""
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twomode as tm

from .support import (PURE_EXPONENTS, PURE_FAMILIES, boundary_biased, int_det, integer_pure_state,
                      random_local_symplectic, random_physical_cm, random_symmetric)


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
    # det V comes from its Laplace expansion and I4 from its trace definition,
    # so a det V off by one must trip det V = det A det B + det C^2 - I4.
    from twomode import invariants
    v = tm.random_physical(3)
    minors = invariants._minors
    monkeypatch.setattr(invariants, "_minors", lambda rows: (*minors(rows)[:4],
                                                             minors(rows)[4] + 1.0))
    with pytest.raises(tm.InternalInconsistency, match="det V identity"):
        fn(v)


@pytest.mark.parametrize("rel", [1e-9, 1e-6, 1e-3])
def test_det_identity_holds_on_input_symmetric_within_tolerance(rel):
    # The boundary copies the upper triangle onto the lower one, so det V and I4 read one
    # symmetric matrix: an asymmetry that the tolerance admits cannot trip the self-test.
    tol = tm.Tolerance(rel=rel)
    rng = np.random.default_rng(5)
    for _ in range(50):
        v = tm.random_physical(int(rng.integers(2**31)))
        w = v + np.tril(rng.uniform(-0.9, 0.9, (4, 4)), -1) * tol._cut(np.abs(v).max())
        assert tm.two_mode_invariants(w, tol).det_C == tm.two_mode_invariants(v).det_C
        assert tm.check_local(w, tol).verdict


def _moved_within_tolerance(seed: int, k: int, tol: tm.Tolerance) -> np.ndarray:
    """Draw k (from 0) of the generator above: random_physical with its lower triangle moved by
    up to 0.9 of the symmetry cut."""
    rng = np.random.default_rng(seed)
    for _ in range(k + 1):
        v = tm.random_physical(int(rng.integers(2**31)))
        w = v + np.tril(rng.uniform(-0.9, 0.9, (4, 4)), -1) * tol._cut(np.abs(v).max())
    return w


# The draws of 200 from seeds 5 and 0 on which classify_global raised NumericalError.
@pytest.mark.parametrize("seed, k", [(5, 5), (5, 88), (5, 156), (5, 186), (0, 189)])
def test_classify_global_decides_input_symmetric_within_tolerance(seed, k):
    tol = tm.Tolerance(rel=1e-3)
    w = _moved_within_tolerance(seed, k, tol)
    assert tm.classify_global(w, tol).tag is tm.classify_local(w, tol).tag


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
    # diag(s, fl(1/s), 1, 1) sits on either side of the scale where s^4 overflows; its
    # det V is the correctly rounded s fl(1/s): 1 for three of the four, and 1 - 2^-53 for
    # s = 1e77, whose product is 1 - 0.81 * 2^-53 exactly.
    from fractions import Fraction
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert (tm.two_mode_invariants(np.diag([s, 1.0 / s, 1.0, 1.0])).det_V
                == float(Fraction(s) * Fraction(1.0 / s)))


@pytest.mark.parametrize("seed", range(20))
def test_det_just_below_the_overflow_guard_matches_numpy(seed):
    # Scaled so that max |v_ij| is just below (max float / 32)^(1/4), where 16 s^4, the
    # Hadamard bound on |det V|, still fits: det V must be the correctly rounded exact
    # determinant or lie within its static filter bound of it, with no warning. numpy's LU
    # determinant, formed as exp(log |det|), matches it to 1e-12 relative.
    from fractions import Fraction

    from twomode.invariants import _ERR_V
    v = random_symmetric(np.random.default_rng(seed))
    v *= np.nextafter((sys.float_info.max / 32.0) ** 0.25, 0.0) / np.abs(v).max()
    exact = int_det([[Fraction(x) for x in row] for row in v.tolist()])
    scale = float(np.abs(v).max())
    bound = _ERR_V * scale * scale * scale * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = tm.two_mode_invariants(v).det_V
    assert math.isfinite(got)
    assert got == float(exact) or abs(Fraction(got) - exact) <= bound
    with np.errstate(over="ignore", invalid="ignore"):
        assert abs(Fraction(float(np.linalg.det(v))) - exact) <= 1e-12 * abs(exact)


def _exact_leading_minors(v) -> list:
    """D_1..D_4 of v on Fractions, exactly."""
    from fractions import Fraction
    m = [[Fraction(x) for x in row] for row in np.asarray(v, dtype=float).tolist()]
    return [int_det([row[:k] for row in m[:k]]) for k in range(1, 5)]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-6.0, 6.0))
def test_float_minors_lie_within_their_static_bounds(seed, log_scale):
    # The Laplace expansion's det V and the leading 3x3 minor D3 against the exact minors of
    # the same floats: within 24 gamma_8 s^4 and 6 gamma_5 s^3 (1% over), s = max |v_ij|.
    from twomode.invariants import _ERR_3, _ERR_V, _minors
    v = random_symmetric(np.random.default_rng(seed)) * 10.0**log_scale
    *_, d3, det_v = _minors(v.tolist())
    _, _, exact_3, exact_v = _exact_leading_minors(v)
    s = float(np.abs(v).max())
    assert abs(d3 - exact_3) <= _ERR_3 * s**3
    assert abs(det_v - exact_v) <= _ERR_V * s**4
    got = tm.two_mode_invariants(v).det_V  # the float value where it decides, else exact
    assert got == float(exact_v) or abs(got - exact_v) <= _ERR_V * s**4


def _sylvester_case(kind: str, seed: int):
    rng = np.random.default_rng(seed)
    if kind == "random_symmetric":
        return random_symmetric(rng)
    if kind == "random_physical":
        return random_physical_cm(rng)
    return list(boundary_biased(4, seed))[seed % 4]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(["random_symmetric", "random_physical", "boundary_biased"]),
       st.integers(0, 2**32 - 1), st.one_of(st.just(0.0), st.floats(-300.0, 300.0)))
def test_sylvester_verdict_is_exact_positivity(kind, seed, log_c):
    # min_eig_V > 0 iff every leading minor of the float matrix c V is > 0, exactly. Where a
    # product of four entries can pass float64 the invariants may overflow instead.
    v = _sylvester_case(kind, seed)
    v = (v + v.T) / 2.0 * 10.0**log_c
    s = float(np.abs(v).max())
    try:
        margin = tm.check_global(v).margins["min_eig_V"]
    except tm.NumericalError as exc:
        assert "overflow" in str(exc) and 24.0 * s * s * s * s > sys.float_info.max
        return
    assert (margin > 0.0) == all(d > 0 for d in _exact_leading_minors(v))


def test_sylvester_decides_the_pure_states_and_their_scalings():
    # The 63 integer pure states are positive definite, and so are (1 +- 2^-20) V.
    for family in PURE_FAMILIES:
        for k in PURE_EXPONENTS:
            v = np.array(integer_pure_state(family, k), dtype=float)
            for factor in (1.0, 1.0 + 2.0**-20, 1.0 - 2.0**-20):
                assert all(d > 0 for d in _exact_leading_minors(v * factor))
                assert tm.check_global(v * factor).margins["min_eig_V"] > 0.0


def _band_edge_draws(rng: np.random.Generator, tol: tm.Tolerance) -> list[np.ndarray]:
    """Physical CMs scaled so that det V - 1 lands on +-band, its band at det V, or 10^-15 to
    10^-7 either side: det V - 1 = abs + rel det V above 1 and -(abs + rel) below it."""
    out = []
    for _ in range(6):
        v = random_physical_cm(rng)
        det = tm.two_mode_invariants(v).det_V
        for target in ((1.0 + tol.abs) / (1.0 - tol.rel), 1.0 - tol.band(1.0)):
            for nudge in (0.0, *(sign * 10.0**-k for sign in (1, -1) for k in range(7, 16, 2))):
                out.append(v * ((target + nudge) / det) ** 0.25)
    return out


_FILTER_TOLERANCES = [tm.Tolerance(rel=rel, abs=abs_) for rel in (0.0, 1e-9, 1e-6, 1e-3)
                      for abs_ in (0.0, 1e-12)]


def test_filtered_entries_decide_as_the_exact_ones(monkeypatch):
    # Each det V entry's decision (m >= -band) and borderline flag (|m| <= band), and the sign of
    # min_eig_V, must be those of the entries formed on the exact det V, Delta and Delta~,
    # whichever path _evaluate took; over a quarter of the evaluations take the float path.
    from twomode import invariants
    exact, fallbacks = invariants._exact, []
    monkeypatch.setattr(invariants, "_exact", lambda rows: fallbacks.append(1) or exact(rows))
    rng = np.random.default_rng(11)
    draws = ([random_physical_cm(rng) for _ in range(100)] + list(boundary_biased(200, 11))
             + [np.array(integer_pure_state(family, k), dtype=float)
                for family in PURE_FAMILIES for k in PURE_EXPONENTS]
             + [tm.two_mode_squeezed(r) for r in np.linspace(0.0, 8.0, 801)])
    evaluations, bad = 0, []
    for tol in _FILTER_TOLERANCES:
        for v in draws + _band_edge_draws(rng, tol):
            _, rows, _, entries = invariants._evaluate(v, tol)
            det_v, pivot, delta, delta_tilde = exact(rows)
            reference = invariants._entries(det_v, delta, delta_tilde, tol)
            evaluations += 1
            if (entries["min_eig_V"][0] > 0.0) != (pivot > 0.0):
                bad.append(("min_eig_V", tol, v.tolist()))
            for key, (m, band) in reference.items():
                got, want = entries[key], (m >= -band, abs(m) <= band)
                if (got[0] >= -got[1], abs(got[0]) <= got[1]) != want:
                    bad.append((key, tol, v.tolist()))
    assert not bad, bad[:5]
    assert evaluations - len(fallbacks) > evaluations / 4


def test_a_margin_far_from_its_band_takes_no_exact_path(monkeypatch):
    # delta_margin 0.006 lies far from its band of 2.5e-3: its float decision stands, where a
    # window spanning every band a route might form sent it to the exact path.
    from twomode import invariants
    exact, calls = invariants._exact, []
    monkeypatch.setattr(invariants, "_exact", lambda rows: calls.append(1) or exact(rows))
    got = tm.classify_global(tm.simon_vx(0.502), tm.Tolerance(rel=1e-3))
    assert got.tag is tm.Tag.ENTANGLED and calls == []


_BLAS_PROBE = """
import json, sys
import twomode as tm
for v in json.load(sys.stdin):
    for fn in (tm.classify_global, tm.classify_local):
        out = fn(v)
        print(out.tag.value, repr(out.margins))
"""


def test_classifiers_do_not_depend_on_the_blas_kernel():
    # classify_global and classify_local are plain IEEE arithmetic on Python floats: under each
    # OpenBLAS kernel (numpy's OpenBLAS selects one at run time) every margin repr is the same.
    # Nehalem and Haswell run these 4x4 LAPACK calls alike; Sandybridge does not, and moved 28
    # of these records while the classifiers called eigvalsh and det. The inputs are made here,
    # once: the families themselves multiply matrices through BLAS.
    import json
    import os
    import subprocess
    rng = np.random.default_rng(7)
    inputs = ([tm.random_physical(s) for s in range(40)]
              + [tm.simon_vx(x) for x in np.linspace(0.3, 0.7, 41)]
              + [tm.two_mode_squeezed(r) for r in np.linspace(0.0, 2.0, 41)]
              + [random_symmetric(rng) for _ in range(40)])
    text = json.dumps([v.tolist() for v in inputs])
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    outputs = []
    for core in ("Nehalem", "Haswell", "Sandybridge"):
        env = {**os.environ, "OPENBLAS_CORETYPE": core,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        outputs.append(subprocess.run([sys.executable, "-c", _BLAS_PROBE], input=text, env=env,
                                      capture_output=True, text=True, timeout=120,
                                      check=True).stdout)
    assert outputs[0] == outputs[1] == outputs[2] and outputs[0].count("\n") == 2 * len(inputs)

"""The range contract: across float64's range every public matrix call returns finite output or
raises a TwoModeError, and every one-mode path takes the same closed form."""
import dataclasses
import math
import warnings

import numpy as np
import pytest

import twomode as tm

from .support import count_linalg, random_orthogonal

# Calls on a 4x4 and calls on a 2x2; each reads one symmetric matrix.
CALLS_4 = ("two_mode_invariants", "symplectic_spectrum_2mode", "ppt_spectrum_2mode",
           "symplectic_spectrum_general", "heisenberg_oracle", "is_positive_definite",
           "check_global", "check_local", "classify_global", "classify_local", "simon_criterion",
           "posdef_criterion", "reduce_to_standard_form", "williamson_decompose", "inv_sqrt",
           "build_x")
CALLS_2 = ("symplectic_spectrum_general", "williamson_decompose", "inv_sqrt", "build_x",
           "single_mode_williamson")

# An overflowing exact pivot (classify used to crash converting it), and a matrix on which
# LAPACK's eigh does not converge.
V1 = np.array([[1e-10, 1e150, 0, 0], [1e150, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
V2 = np.array([[0, 1e144, 1e21, 0], [1e144, 0, 0, -1e-85], [1e21, 0, 0, 1e-88],
               [0, -1e-85, 1e-88, 0]])
TINY = np.diag([1e-310, 1e-310])


def wide_range_probe(count: int, seed: int = 7) -> list[np.ndarray]:
    """Symmetric parts of U[-2, 2] 10^E, integer E per entry in [-300, 300) two times in three
    and in [-40, 40) otherwise; every 4th draw has about half its entries zeroed, and every 5th
    is replaced by V V^T where that is finite."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        lo, hi = (-300, 300) if rng.random() < 2.0 / 3.0 else (-40, 40)
        m = rng.uniform(-2.0, 2.0, (4, 4)) * 10.0 ** rng.integers(lo, hi, (4, 4)).astype(float)
        if i % 4 == 3:
            m[rng.random((4, 4)) < 0.5] = 0.0
        v = tm.symmetric_part(m)
        if i % 5 == 4:
            with np.errstate(over="ignore", invalid="ignore"):
                w = v @ v.T
            if np.isfinite(w).all():
                v = tm.symmetric_part(w)
        out.append(v)
    return out


def near_max_blocks(count: int, seed: int = 5) -> list[np.ndarray]:
    """Positive definite 2x2 blocks with entries in [0.5, 1.79] 1e308, |q| < sqrt(ps)."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        p, s, q = rng.uniform(0.5, 1.79, 3) * 1e308
        q *= rng.choice((-1.0, 1.0))
        if abs(q) < math.sqrt(p) * math.sqrt(s):
            out.append(np.array([[p, q], [q, s]]))
    return out


def _finite(x, margin: bool = False) -> bool:
    """No NaN anywhere and no infinity outside a margin, where an overflowing pivot keeps its
    sign as +-inf."""
    if dataclasses.is_dataclass(x):
        return all(_finite(getattr(x, f.name), f.name == "margins")
                   for f in dataclasses.fields(x))
    if isinstance(x, dict):
        return all(_finite(y, margin) for y in x.values())
    if isinstance(x, (tuple, list)):
        return all(_finite(y, margin) for y in x)
    if isinstance(x, (np.ndarray, float)):
        a = np.asarray(x)
        return not np.isnan(a).any() and (margin or np.isfinite(a).all())
    return True  # bools, tags, reasons


def _violations(calls, matrices) -> list[str]:
    bad = []
    for name in calls:
        for v in matrices:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    if not _finite(getattr(tm, name)(v)):
                        bad.append(f"{name}: non-finite output on {v.tolist()}")
                except tm.TwoModeError:
                    pass
                except Exception as exc:  # noqa: BLE001 - the contract is what is tested
                    bad.append(f"{name}: {type(exc).__name__}: {exc} on {v.tolist()}")
            bad += [f"{name}: {w.category.__name__}: {w.message} on {v.tolist()}"
                    for w in caught if not issubclass(w.category, tm.DegeneracyWarning)]
    return bad


def test_wide_range_probe_is_finite_or_a_twomode_error():
    probe = wide_range_probe(300)
    bad = _violations(CALLS_4, probe) + _violations(CALLS_2, [v[:2, :2] for v in probe])
    assert not bad, "\n".join(bad[:10])


@pytest.mark.parametrize("index", [4, 14, 29, 69, 284])
def test_det_identity_self_test_is_silent_on_wide_range_draws(index):
    # V V^T draws whose identity residual passes 1e-8 of its terms' size by rounding alone; the
    # self-test bounds that rounding, so every invariants-based call answers, and they agree.
    v = wide_range_probe(index + 1)[index]
    tm.two_mode_invariants(v)
    tag = tm.classify_global(v).tag
    assert tm.classify_local(v).tag is tag
    if tm.check_global(v).margins["min_eig_V"] > 0.0:
        assert tm.posdef_criterion(v).tag is tag


def test_range_edges_are_finite_or_a_twomode_error():
    blocks = near_max_blocks(200) + [TINY]
    bad = _violations(CALLS_2, blocks) + _violations(
        CALLS_4, [tm.direct_sum(b, c) for b in blocks[:20] + [TINY] for c in (np.eye(2), b)])
    assert not bad, "\n".join(bad[:10])


ONE_MODE = near_max_blocks(20) + [TINY, np.array([[2.0, 0.5], [0.5, 1.0]])]


@pytest.mark.parametrize("block", ONE_MODE, ids=lambda b: f"{b[0, 0]:.3g}")
def test_one_mode_spectra_are_one_closed_form(block):
    general = tm.symplectic_spectrum_general(block)
    s, a = tm.single_mode_williamson(block)
    assert general.tolist() == [a]
    if block[0, 0] > 1e-300:  # X = omega/nu of the tiny block is past float64
        assert tm.williamson_decompose(block).spectrum.tolist() == [a]
    assert np.isfinite(s).all() and np.isfinite(tm.inv_sqrt(block)).all()


def test_one_mode_general_spectrum_makes_no_lapack_call(monkeypatch):
    calls = count_linalg(monkeypatch, "eig", "eigh", "eigvals", "eigvalsh")
    assert tm.symplectic_spectrum_general(np.array([[2.0, 0.5], [0.5, 1.0]])).tolist() == [
        math.sqrt(1.75)]
    assert sum(calls.values()) == 0


def test_tiny_block_scales_up():
    s, a = tm.single_mode_williamson(TINY)
    assert a == 1e-310
    np.testing.assert_allclose(s, np.eye(2), rtol=0.0, atol=4e-16)
    with pytest.raises(tm.NumericalError):  # X = omega/nu overflows
        tm.williamson_decompose(TINY)


@pytest.mark.parametrize("dim", [4, 6])
def test_x_past_float64_is_refused_before_the_degeneracy_warning(dim):
    # 1e-310 I is decomposed as I over 4^j, whose spectrum is degenerate, and X = Omega / 4^j
    # leaves float64: the refusal comes alone, where a DegeneracyWarning ("the decomposition is
    # valid") used to precede it.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(tm.NumericalError, match="overflows float64"):
            tm.williamson_decompose(1e-310 * np.eye(dim))


def test_x_refusal_boundary_is_read_off_nu_min():
    # X's scale in units of 1/V is a_max = 1/nu_min, and c V is refused where 1/(c nu_min)
    # passes float64, c nu_min < 5.56e-309: c I decomposes as I over 4^j, 2e308 at c = 5e-309
    # is refused and 1.7e308 at c = 6e-309 is not. The rotated u (nu = 1, sqrt 3) has
    # max |x_ij| = 0.79 < a_max, and is refused at the same c: the rule reads the spectrum,
    # not X's entries.
    u = np.array([[2.0, 0.0, 0.0, -1.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
                  [-1.0, 0.0, 0.0, 2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", tm.DegeneracyWarning)
        for refused, kept in ((5e-309 * np.eye(4), 6e-309 * np.eye(4)), (5e-309 * u, 6e-309 * u)):
            with pytest.raises(tm.NumericalError, match="overflows float64"):
                tm.williamson_decompose(refused)
            dec = tm.williamson_decompose(kept)
            for field in dataclasses.astuple(dec)[:-1]:
                assert np.isfinite(field).all()


def test_x_refusal_names_nu_min():
    # On the rotated u at c = 5e-309 no entry of X overflows, the largest is 1.6e308; only X's
    # scale 1/nu_min = 2e308 does, and the refusal says so in one line.
    u = np.array([[2.0, 0.0, 0.0, -1.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
                  [-1.0, 0.0, 0.0, 2.0]])
    with pytest.raises(tm.NumericalError) as err:
        tm.williamson_decompose(5e-309 * u)
    assert str(err.value) == ("the scale 1/nu_min of X = V^(-1/2) Omega V^(-1/2) overflows "
                              "float64 (nu_min = 5.000e-309)")


def test_two_mode_product_needs_no_overflow_guard():
    # Two modes form X = M Omega M with numpy's overflow warnings on: V / 4^j within reach has
    # lambda_min > 2^-550, so |x_ij| < 2^553. At the edges of the prescale's range [2^-510,
    # 2^512), at 1e-300 and 1e300, and up to the reach, with warnings as errors, V decomposes
    # to finite fields or is refused where X = X_f / 4^j leaves float64, which needs
    # a_max = 1 / nu_min >= max |x_ij| past 2^1024: at 1e-300 with cond V >= 1e11 alone.
    rng = np.random.default_rng(35)
    refused = []
    for c in (2.0**-510, 2.0**-509.9, 2.0**511, 2.0**511.99, 1e-300, 1e300):
        for cond in (1.0, 1e6, 1e11, 6.9e11):
            for _ in range(60):
                q = random_orthogonal(rng, 4)
                unit = (q * np.array([1.0, 1.0 / cond, *cond ** -rng.uniform(0.0, 1.0, 2)])) @ q.T
                unit = (unit + unit.T) / 2.0
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    warnings.simplefilter("ignore", tm.DegeneracyWarning)
                    try:
                        dec = tm.williamson_decompose(c * unit)
                    except tm.NumericalError:
                        nu_min = tm.symplectic_spectrum_2mode(unit).nu_minus
                        assert -math.log2(c) - math.log2(nu_min) > 1023.99
                        refused.append((c, cond))
                        continue
                for field in dataclasses.astuple(dec)[:-1]:
                    assert np.isfinite(field).all()
    assert refused and {c for c, _ in refused} == {1e-300}
    assert {cond for _, cond in refused} <= {1e11, 6.9e11}


@pytest.mark.parametrize("call", [tm.build_x, tm.williamson_decompose])
def test_x_past_float64_at_zero_tolerance_is_a_numerical_error(call):
    # diag(1e-310, 1e-310, 1e-300, 1e-300) has cond V = 1e10, within Williamson's reach, and
    # X = V^(-1/2) Omega V^(-1/2) has entries 1e310: build_x returned them as inf with matmul's
    # overflow warning, and the decomposition warned twice before LAPACK failed on them.
    # diag(1e-310, 1e-310, 1, 1), cond V = 1e310, is past the reach at every tolerance.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tol in (tm.DEFAULT_TOL, tm.Tolerance(rel=0.0, abs=0.0)):
            with pytest.raises(tm.NotPositiveDefinite) as exc:
                call(np.diag([1e-310, 1e-310, 1.0, 1.0]), tol)
            assert exc.value.min_eig == 1e-310
        with pytest.raises(tm.NumericalError, match="overflows float64"):
            call(np.diag([1e-310, 1e-310, 1e-300, 1e-300]), tm.Tolerance(rel=0.0, abs=0.0))


@pytest.mark.parametrize("cond", [1.0, 1e6, 1e10, 5e11])
@pytest.mark.parametrize("scale", [1e-150, 1e-152, 2.0**-505],
                         ids=["1e-150", "1e-152", "2^-505"])
def test_two_mode_williamson_at_small_scales(scale, cond):
    # scale Q diag(1, 1/cond, ...) Q^T is decomposed as it stands (4^j = 1), so X reaches
    # cond / scale, past 1e155: Pf X from X's own entries overflowed to inf - inf, and the two-mode
    # closed form refused V as singular with a NaN a_min. It reads X over a power of two. nu
    # matches the eigenvector route's, 1/a from skew_block_rotation(build_x(V)), within the
    # certificate's error term 32 d cond V u nu_max, with warnings as errors.
    rng = np.random.default_rng(int(-math.log2(scale) + math.log10(cond)))
    u = np.finfo(float).eps / 2.0
    zero = tm.Tolerance(rel=0.0, abs=0.0)
    for _ in range(4):
        q = random_orthogonal(rng, 4)
        v = (q * (scale * np.array([1.0, 1.0 / cond, *cond ** -rng.uniform(0.0, 1.0, 2)]))) @ q.T
        v = (v + v.T) / 2.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.simplefilter("ignore", tm.DegeneracyWarning)
            spectrum = tm.williamson_decompose(v).spectrum
            reference = 1.0 / tm.skew_block_rotation(tm.build_x(v), zero)[1][::-1]
        np.testing.assert_allclose(spectrum, reference, rtol=0.0,
                                   atol=32 * 4 * cond * u * reference.max())


def test_standard_form_block_far_below_the_matrix_scale():
    # lambda_- of A over the matrix's 4^j underflowed to 0 and divided by zero.
    params = tm.reduce_to_standard_form(np.diag([1.0, 1e-300, 1e200, 1.0]))
    assert (params.a, params.b, params.c_plus, params.c_minus) == (1e-150, 1e100, 0.0, 0.0)


def test_overflowing_exact_pivot_is_minus_infinity():
    got = tm.classify_global(V1)
    assert got.tag is tm.Tag.UNPHYSICAL and got.reason == "V is not positive definite"
    assert got.margins["min_eig_V"] == -math.inf
    assert tm.classify_local(V1).reason == "block A is not positive definite"
    for call in (tm.symplectic_spectrum_2mode, tm.ppt_spectrum_2mode, tm.posdef_criterion):
        with pytest.raises(tm.NotPositiveDefinite):
            call(V1)


@pytest.mark.parametrize("call", [tm.williamson_decompose, tm.inv_sqrt, tm.build_x])
def test_eigh_that_does_not_converge_is_a_numerical_error(call):
    with pytest.raises(tm.NumericalError, match="did not converge"):
        call(V2)


def test_two_mode_spectrum_past_delta_squared():
    # Delta ~ 4e193: Delta^2 overflows, nu_+^2 = Delta and nu_-^2 = det V / Delta do not.
    v = np.diag([1e-93, 4e286, 1.0, 1.0])
    got = tm.symplectic_spectrum_2mode(v)
    assert got.nu_plus == pytest.approx(math.sqrt(4e193)) and got.nu_minus == pytest.approx(1.0)


@pytest.mark.parametrize("params", [(1e200, 1.0, 0.0, 0.0), (1.0, 1.0, 1e155, 0.0),
                                    (1.0, 1.0, 1e100, -5e99), (1e308, 1e308, 0.0, 0.0),
                                    (np.float64(1e200), 1.0, 0.0, 0.0)])
def test_standard_form_eigenvalues_past_float64_are_a_numerical_error(params):
    # Past float64: mu and nu, mu and nu, nu alone (its (c+ + c-)^2 (c+ - c-)^2), a + b, and mu and
    # nu from a numpy scalar, which must not warn first. Squaring 1e200 with ** raised a bare
    # OverflowError; nu alone and a + b gave infinite eigenvalues.
    with pytest.raises(tm.NumericalError, match="past float64"):
        tm.standard_form_hermitian_eigs(*params)


@pytest.mark.parametrize("params", [(1e150, 1.0, 0.0, 0.0), (1e150, 3e150, 0.0, 0.0),
                                    (2.0, 1.0, 1e150, 1e150), (1e150, 1e150, 5e149, -5e149)])
def test_standard_form_eigenvalues_at_1e150_match_the_dense_solver(params):
    eigs = tm.standard_form_hermitian_eigs(*params)
    dense = np.linalg.eigvalsh(tm.standard_form_matrix(*params) + 1j * tm.omega(2))
    np.testing.assert_allclose(eigs.ordered(), dense, rtol=0.0, atol=1e-12 * max(params))
    assert math.isfinite(eigs.mu_aux) and math.isfinite(eigs.nu_aux)


BIG = 10**400  # an int past float64: converting it raised a bare OverflowError


@pytest.mark.parametrize("name, dim", [("as_matrix", 4)] + [(name, 4) for name in CALLS_4]
                         + [(name, 2) for name in CALLS_2])
@pytest.mark.parametrize("container", [list, lambda m: np.array(m, dtype=object)],
                         ids=["list", "object_array"])
def test_integer_entry_past_float64_is_a_non_finite_error(name, dim, container):
    m = np.eye(dim, dtype=int).tolist()
    m[-1][-1] = BIG
    with pytest.raises(tm.NonFiniteError, match="matrix contains an entry past float64"):
        getattr(tm, name)(container(m))


@pytest.mark.parametrize("name", ["as_matrix", "require_symmetric", "is_positive_definite",
                                  "classify_global"])
@pytest.mark.parametrize("container", [list, lambda m: np.array(m, dtype=object)],
                         ids=["list", "object_array"])
def test_ragged_rows_are_a_dimension_error(name, container):
    # numpy's read of rows of unequal lengths raised its bare ValueError ("inhomogeneous shape").
    m = ([[1, 2], [3]] if name == "as_matrix"
         else [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1]])
    with pytest.raises(tm.DimensionError, match="got ragged rows"):
        getattr(tm, name)(container(m))


@pytest.mark.parametrize("call, x", [
    (tm.simon_vx, BIG), (lambda x: tm.thermal(x, 1), BIG), (lambda x: tm.thermal(1, x), BIG),
    (tm.squeeze, BIG), (tm.squeeze, math.inf), (tm.squeeze, math.nan),
    (tm.rotation, BIG), (tm.rotation, -BIG), (tm.rotation, math.inf), (tm.rotation, math.nan),
    (tm.two_mode_squeezed, BIG), (tm.two_mode_squeezed, math.nan),
], ids=["simon_vx-big", "thermal-nu1-big", "thermal-nu2-big", "squeeze-big", "squeeze-inf",
        "squeeze-nan", "rotation-big", "rotation-minus-big", "rotation-inf", "rotation-nan",
        "two_mode_squeezed-big", "two_mode_squeezed-nan"])
def test_scalar_parameter_past_float64_or_non_finite_is_a_value_error(call, x):
    # An int past float64 raised a bare OverflowError (the families) or numpy's TypeError
    # (squeeze, rotation); squeeze and rotation returned inf or NaN entries for inf and NaN, and
    # two_mode_squeezed printed all of the int's digits in its non-finite matrix error.
    with pytest.raises(ValueError, match="is non-finite"):
        call(x)


@pytest.mark.parametrize("params", [(BIG, 1, 0, 0), (1, 1, 0, -BIG)], ids=["a", "c_minus"])
def test_standard_form_eigenvalues_of_an_int_past_float64_are_a_numerical_error(params):
    # float() of the int raised a bare OverflowError; float64 reads it as infinite.
    with pytest.raises(tm.NumericalError, match="past float64"):
        tm.standard_form_hermitian_eigs(*params)

"""The range contract: across float64's range every public matrix call returns finite output or
raises a TwoModeError, and every one-mode path takes the same closed form."""
import dataclasses
import math
import warnings

import numpy as np
import pytest

import twomode as tm

from .support import count_linalg

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

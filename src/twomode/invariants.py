r"""Symplectic invariants and spectra of two-mode correlation matrices.

The local invariants of V = [[A, C], [C^T, B]] are det A, det B, det C and
I4 = Tr(A w C w B w C^T w) with w the single-mode symplectic form; they
combine into the global invariants

    Delta       = det A + det B + 2 det C
    Delta~      = det A + det B - 2 det C   (partial transpose)
    Gamma_sep   = det A + det B + 2 |det C| = max(Delta, Delta~)

and satisfy det V = det A det B + det C^2 - I4 for every symmetric V. ``_evaluate`` forms them
with no LAPACK call and decides V > 0 for the spectra and the routes alike by Sylvester's
leading minors; a float sign or det V decision too close to its static error bound is taken on
Python ints instead (filtered exact predicates, Shewchuk, DCG 18 (1997)). The one test of a
diagonal block is ``_block_min_eig``, and ``_single_mode`` its one Williamson transform
S = sqrt(a) A^(-1/2); ``_min_eig`` is the eigenvalue cut of matrices of any size.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    InternalInconsistency,
    NumericalError,
    PairingError,
)
from .symplectic import (
    DEFAULT_TOL,
    MAX_MODES,
    Tolerance,
    _checked,
    _omega_form,
    _power_of_four,
    _require_positive_definite,
    partial_transpose,
)

__all__ = [
    "TwoModeInvariants",
    "SymplecticSpectrum2",
    "two_mode_invariants",
    "symplectic_spectrum_2mode",
    "ppt_spectrum_2mode",
    "symplectic_spectrum_general",
]

_U = sys.float_info.epsilon / 2.0  # unit roundoff
# Static error bounds (Higham, ch. 3): n terms, each a product of m entries at most s = max |v_ij|
# that passes k roundings, err by n gamma_k s^m, gamma_k = k u / (1 - k u). det A: n, k = 2, 2;
# the leading 3x3 minor D3: 6, 5; det V: 24, 8. 1% more covers underflow for s >= 2^-240.
_ERR_A, _ERR_3, _ERR_V, _GAMMA_2, _GAMMA_4 = (n * k * _U / (1.0 - k * _U) for n, k in (
    (2.02, 2), (6.06, 5), (24.24, 8), (1.0, 2), (1.0, 4)))
_FILTER_MIN_SCALE = 2.0**-240


@dataclass(frozen=True, slots=True)
class TwoModeInvariants:
    """Local and global symplectic invariants of a two-mode matrix."""

    det_A: float
    det_B: float
    det_C: float
    det_V: float
    I4: float
    delta: float
    delta_tilde: float
    gamma_sep: float


@dataclass(frozen=True, slots=True)
class SymplecticSpectrum2:
    """Two-mode symplectic spectrum, nu_minus <= nu_plus."""

    nu_minus: float
    nu_plus: float


def _w_product(x: tuple, y: tuple) -> tuple:
    """(x w) y for 2x2 matrices given as row-major 4-tuples; x w is a signed column swap."""
    x00, x01, x10, x11 = x
    y00, y01, y10, y11 = y
    return (x00 * y10 - x01 * y00, x00 * y11 - x01 * y01,
            x10 * y10 - x11 * y00, x10 * y11 - x11 * y01)


def _minors(rows) -> tuple:
    """det A, det B, det C, the leading 3x3 minor D3 and det V of a 4x4, with +, - and * alone,
    so that floats and Python ints share the formula. det V is the Laplace expansion over the 2x2
    minors s_jk of rows (0, 1) and their complements t_jk in rows (2, 3); D3 expands row 2."""
    (r00, r01, r02, r03), (r10, r11, r12, r13), (r20, r21, r22, r23), (r30, r31, r32, r33) = rows
    s01, s02, s03 = r00 * r11 - r01 * r10, r00 * r12 - r02 * r10, r00 * r13 - r03 * r10
    s12, s13, s23 = r01 * r12 - r02 * r11, r01 * r13 - r03 * r11, r02 * r13 - r03 * r12
    t01, t02, t03 = r20 * r31 - r21 * r30, r20 * r32 - r22 * r30, r20 * r33 - r23 * r30
    t12, t13, t23 = r21 * r32 - r22 * r31, r21 * r33 - r23 * r31, r22 * r33 - r23 * r32
    return (s01, t23, s23, r20 * s12 - r21 * s02 + r22 * s01,
            s01 * t23 - s02 * t13 + s03 * t12 + s12 * t03 - s13 * t02 + s23 * t01)


def _exact(rows: list) -> tuple[float, float, float, float]:
    """(det V, the min_eig_V margin, Delta, Delta~), each rounded once from Python ints: the
    entries are n_ij / 2^k exactly. NumericalError when det V or Delta is past float64."""
    ratios = [x.as_integer_ratio() for row in rows for x in row]
    k = max(d.bit_length() for _, d in ratios) - 1  # every denominator is a power of two
    m = [[n << (k + 1 - d.bit_length()) for n, d in ratios[i:i + 4]] for i in (0, 4, 8, 12)]
    det_a, det_b, det_c, d3, det_v = _minors(m)
    margin, prev = math.inf, 1  # the pivots D_j / D_(j-1) up to the first that is not > 0
    for d in (m[0][0], det_a, d3, det_v):
        try:
            p = d / (prev << k) or math.ulp(0.0) * (d > 0)  # an underflow keeps its sign
        except OverflowError:  # a ratio past float64
            p = math.inf if d > 0 else -math.inf  # copysign would convert d to a float
        margin, prev = min(margin, p), d
        if not d > 0:
            break
    try:
        return (det_v / (1 << 4 * k), margin,
                *((det_a + det_b + sign * 2 * det_c) / (1 << 2 * k) for sign in (1, -1)))
    except OverflowError:
        raise NumericalError("invariants overflow float64: det V or Delta is too large") from None


def _evaluate(v, tol: Tolerance) -> tuple[np.ndarray, list, float, tuple[float, ...]]:
    """Validate ``v`` and compute its invariants, the one path: (v, rows, the min_eig_V margin,
    invariants), the invariants as floats in ``TwoModeInvariants`` field order; only public calls
    build records. The margin is the smallest LDL^T pivot D_j / D_(j-1) of the leading minors
    v_00, det A, D3 and det V up to the first that is not > 0: it has lambda_min(V)'s sign
    (Sylvester), and on a diagonal V with at most one entry <= 0 it is lambda_min."""
    v, rows, scale, _ = _checked(v, tol, 2)
    det_a, det_b, det_c, d3, det_v = _minors(rows)
    (a00, a01, c00, c01), (a10, a11, c10, c11), (d00, d01, b00, b01), (d10, d11, b10, b11) = rows
    # I4 = Tr(A w C w B w C^T w) = r10 - r01, r = ((A^T w C) w B^T) w D with D = C^T the lower-left
    # block as read: then det V = det A det B + det C det D - I4 for every 4x4, to rounding alone.
    r = _w_product(_w_product(_w_product((a00, a10, a01, a11), (c00, c01, c10, c11)),
                              (b00, b10, b01, b11)), (d00, d01, d10, d11))
    i4 = r[2] - r[1]
    delta, delta_tilde = det_a + det_b + 2 * det_c, det_a + det_b - 2 * det_c
    # The float minors decide where they clear their static bounds: each sign Sylvester reads,
    # and each det V entry (det V >= 1, Delta and Delta~ <= 1 + det V) against both edges of its
    # band. Otherwise det V, the margin, Delta and Delta~ are exact. NaN and inf fail each test.
    # Each band lies between tol._cut(1) and tol._cut(total), total >= every number it reads.
    s2, top = scale * scale, 1.0 + det_v
    total = 1.0 + abs(det_v) + abs(delta) + abs(delta_tilde)
    err_a, err_3, err_v = ((_ERR_A * s2, _ERR_3 * s2 * scale, _ERR_V * s2 * s2)
                           if scale >= _FILTER_MIN_SCALE else (math.inf,) * 3)
    near = 2.0 * err_v + 8.0 * _U * total
    low, high = tol._cut(1.0) - near, tol._cut(total) + near
    m1, m2, m3 = abs(det_v - 1.0), abs(top - delta), abs(top - delta_tilde)
    if ((a00 <= 0.0 or abs(det_a) > err_a and (det_a < 0.0 or abs(d3) > err_3))
            and abs(det_v) > near and (m1 > high or m1 < low) and (m2 > high or m2 < low)
            and (m3 > high or m3 < low)):
        # No pivot underflows: each certified |D_j| clears its bound, s >= 2^-240. One that
        # overflows is infinite, with its sign.
        pivot = (a00 if a00 <= 0.0 else min(a00, det_a / a00) if det_a < 0.0
                 else min(a00, det_a / a00, d3 / det_a) if d3 < 0.0
                 else min(a00, det_a / a00, d3 / det_a, det_v / d3))
    else:
        det_v, pivot, delta, delta_tilde = _exact(rows)
    det_cd = det_c * (d00 * d11 - d01 * d10)
    residual = det_v - (det_a * det_b + det_cd - i4)
    magnitude = 1.0 + abs(det_a * det_b) + abs(det_cd) + abs(i4) + abs(det_v)
    if not math.isfinite(magnitude):
        raise NumericalError(f"invariants overflow float64: det V identity magnitude {magnitude}")
    # Each side is 24 monomials of degree 4, each rounded at most 8 times: err_v apiece.
    if abs(residual) > 2.0 * err_v + 8.0 * _U * magnitude:
        raise InternalInconsistency(
            f"det V identity violated: residual {residual:.3e} at scale {magnitude:.3e}")
    # Gamma = det A + det B + 2 |det C| = max(Delta, Delta~).
    return v, rows, pivot, (det_a, det_b, det_c, det_v, i4, delta, delta_tilde,
                            max(delta, delta_tilde))


def two_mode_invariants(v, tol: Tolerance = DEFAULT_TOL) -> TwoModeInvariants:
    """Compute all eight invariants of a symmetric 4x4 matrix.

    det A, det B, det C and I4 are closed-form products of the block
    entries; I4 is evaluated from its trace definition, independently of
    the determinants, and det V by its Laplace expansion over 2x2 minors,
    exact on Python ints wherever its float value is too close to a
    threshold to be trusted. The identity det V = det A det B + det C^2 - I4
    is then asserted as a free self-test (InternalInconsistency on failure).
    """
    return TwoModeInvariants(*_evaluate(v, tol)[3])


def _rounding(rows: list, det_v: float) -> tuple[float, float]:
    """Error bounds of ``_evaluate``'s Delta (Delta~ has the same terms), gamma_4 sum |terms|, and
    of ``det_v``, its distance from the exact det V of the rows plus one rounding."""
    (a00, a01, c00, c01), (a10, a11, c10, c11), (_, _, b00, b01), (_, _, b10, b11) = rows
    exact = _exact(rows)[0]
    terms = (abs(a00 * a11) + abs(a01 * a10) + abs(b00 * b11) + abs(b01 * b10)
             + 2.0 * (abs(c00 * c11) + abs(c01 * c10)))
    return _GAMMA_4 * terms, abs(det_v - exact) + math.ulp(exact)


def _nu_minus_allowance(rows: list, delta: float, det_v: float, delta_band: float,
                        det_band: float) -> float:
    """How far nu_- (nu~_- for Delta~) from ``_spectrum_from_delta`` can lie from the side of 1
    that the determinant form took, within delta_band on Delta and det_band on det V. nu_- falls
    with Delta and rises with det V, so its range over Delta and det V moved by those bands plus
    their rounding bounds (the radicand's own folded into det V's) spans two corners."""
    d_delta, d_det = _rounding(rows, det_v)
    d_delta += delta_band
    d_det += det_band + _GAMMA_2 * (delta * delta / 4.0 + abs(det_v))
    lo, nu, hi = (_vieta_nu_minus(x, d) for x, d in (
        (delta + d_delta, det_v - d_det), (delta, det_v), (delta - d_delta, det_v + d_det)))
    return max(nu - lo, hi - nu) + 8.0 * _U * (1.0 + nu)


def _vieta_nu_minus(delta: float, det_v: float) -> float:
    """nu_- as ``_spectrum_from_delta`` forms it, without its checks; inf where nu_+^2 <= 0."""
    plus = (delta + math.sqrt(max(delta * delta - 4.0 * det_v, 0.0))) / 2.0
    return math.sqrt(max(det_v / plus, 0.0)) if plus > 0.0 else math.inf


def _spectrum_from_delta(delta: float, det_v: float, tol: Tolerance,
                         rows: list) -> SymplecticSpectrum2:
    # nu_-^2, nu_+^2 are the roots of z^2 - Delta z + det V = 0. The small root comes from
    # Vieta, nu_-^2 = det V / nu_+^2: (Delta - sqrt(radicand))/2 cancels for squeezed states.
    rad, band = tol._at_most(4.0 * det_v, delta * delta)
    # For V > 0, given by its rows, rad = (nu_+^2 - nu_-^2)^2 >= 0: it is clamped unless its
    # largest value with Delta (or Delta~) and det V moved by their rounding bounds stays < 0.
    if rad < -band:
        d_delta, d_det = _rounding(rows, det_v)
        top, low = (abs(delta) + d_delta) * (abs(delta) + d_delta), 4.0 * (det_v - d_det)
        if top - low < -_GAMMA_4 * (top + abs(low)):
            raise NumericalError(f"Delta^2 - 4 det V = {rad:.3e} is negative beyond tolerance")
    root = math.sqrt(max(rad, 0.0))  # inf or NaN where Delta^2 is past float64; there Delta > 0
    # is large and nu_+^2 = Delta (1 + sqrt(1 - 4 det V / Delta^2))/2.
    plus = ((delta + root) / 2.0 if rad < math.inf
            else delta / 2.0 * (1.0 + math.sqrt(max(1.0 - det_v / delta * 4.0 / delta, 0.0))))
    minus = det_v / plus if plus > 0.0 else (delta - root) / 2.0
    for sq in (minus, plus):
        if sq < -band:
            raise NumericalError(f"squared symplectic eigenvalue {sq:.3e} < 0")
    return SymplecticSpectrum2(nu_minus=math.sqrt(max(minus, 0.0)),
                               nu_plus=math.sqrt(max(plus, 0.0)))


def _require_sylvester(v: np.ndarray, pivot: float) -> None:
    """Raise NotPositiveDefinite, carrying V's smallest eigenvalue, unless the min_eig_V margin
    (Sylvester's minors, from ``_evaluate``) says V > 0; only this raise path calls LAPACK."""
    if not pivot > 0.0:
        _require_positive_definite(float(np.linalg.eigvalsh(v)[0]), math.inf)


def symplectic_spectrum_2mode(v, tol: Tolerance = DEFAULT_TOL) -> SymplecticSpectrum2:
    """Two-mode symplectic spectrum: nu_+^2 = (Delta + sqrt(Delta^2 - 4 det V))/2
    and nu_-^2 = det V / nu_+^2.

    Requires positive definite input (the closed form presumes a Williamson
    decomposition exists), decided by Sylvester's leading minors. The radicand is
    clamped to 0 when within tolerance or its rounding bound (degenerate spectrum);
    larger violations raise NumericalError.
    """
    v, rows, pivot, (_, _, _, det_v, _, delta, _, _) = _evaluate(v, tol)
    _require_sylvester(v, pivot)
    return _spectrum_from_delta(delta, det_v, tol, rows)


def ppt_spectrum_2mode(v, tol: Tolerance = DEFAULT_TOL) -> SymplecticSpectrum2:
    """Symplectic spectrum of the partial transpose Lambda V Lambda (Delta~ in place of Delta)."""
    return symplectic_spectrum_2mode(partial_transpose(v), tol)


def _min_eig(v: np.ndarray, scale: float, tol: Tolerance) -> tuple[float, float]:
    """The one eigenvalue test of V > 0, on a validated symmetric v: (min eigenvalue, its cut)."""
    return float(np.linalg.eigvalsh(v)[0]), tol._cut(scale)


def _min_eig_2x2(p: float, q: float, s: float) -> float:
    """Smaller eigenvalue of the symmetric 2x2 [[p, q], [q, s]], closed form.

    lambda_- = min(p, s) - (h - |d|) with d = (p - s)/2 and h = hypot(d, q);
    h - |d| is taken as q^2 / (h + |d|), which does not cancel. Both terms are
    at most max(|p|, |q|, |s|), so the error stays a few ulps of the block's
    scale, and a diagonal block gives min(p, s) exactly. A result below the
    normal range, where those ulps are coarse, is recomputed on a block below
    1/2 scaled up by a power of two to unit size (exponent 0 there ends the
    recursion); scaling a larger block down would round a subnormal entry.
    """
    d = (p - s) / 2.0
    lam = min(p, s) - (q * (q / (math.hypot(d, q) + abs(d))) if q else 0.0)
    if abs(lam) < sys.float_info.min and (e := math.frexp(max(abs(p), abs(q), abs(s)))[1]) < 0:
        return math.ldexp(_min_eig_2x2(math.ldexp(p, -e), math.ldexp(q, -e), math.ldexp(s, -e)), e)
    return lam


def _block_min_eig(rows: list, i: int) -> tuple[float, float]:
    """The strict positivity entry (lambda_-, 0.0) of V's diagonal block [[p, q], [q, s]] on rows
    and columns i, i + 1, its lower triangle (V is symmetric only within tolerance): it is > 0 iff
    p > 0 and det = ps - q^2 > 0, from the float det where it clears gamma_2 (|ps| + q^2) and
    exactly otherwise. lambda_- is the closed form, or det/(p + s) where that has the other sign."""
    p, q, s = rows[i][i], rows[i + 1][i], rows[i + 1][i + 1]
    lam, ps, qq, trace = _min_eig_2x2(p, q, s), p * s, q * q, p + s
    det = ps - qq
    if not abs(det) > _ERR_A / 2.0 * (abs(ps) + qq) + math.ulp(0.0):  # ulp(0): two underflows
        from fractions import Fraction  # only for blocks that float64 cannot decide
        det, trace = Fraction(p) * Fraction(s) - Fraction(q) ** 2, Fraction(p) + Fraction(s)
    positive = p > 0.0 and det > 0
    if (lam > 0.0) != positive:  # trace > 0 here, and det/trace <= min(p, s) cannot overflow
        lam = float(det / trace) or math.ulp(0.0) * positive
    return lam, 0.0


def _single_mode(rows: list, i: int, min_eig: float) -> tuple[tuple, float]:
    """The one single-mode Williamson transform of the positive definite block A, read as
    ``_block_min_eig`` reads it, lambda_- = ``min_eig``: (S as a row-major 4-tuple, a). With
    a = sqrt(lambda_+ lambda_-), sqrt(A) = (A + a I)/sqrt(tr A + 2a), so the symmetric
    S = sqrt(a) A^(-1/2) = (adj A + a I)/(sqrt(a) sqrt(tr A + 2a)) needs no angle. The one range
    rule of every one-mode path: A/f, f = ``_power_of_four(max(p, s))``, has the same S and a/f."""
    p, q, s = rows[i][i], rows[i + 1][i], rows[i + 1][i + 1]
    root, f = math.sqrt(min_eig), _power_of_four(max(p, s))
    if f != 1.0:  # sqrt(lambda_-/f) taken as sqrt(lambda_-)/sqrt(f), which cannot underflow
        p, q, s, min_eig, root = p / f, q / f, s / f, min_eig / f, root / math.sqrt(f)
    big = max(p, s) + (min(p, s) - min_eig)  # min(p, s) - lambda_- = q^2/(h + |d|) >= 0
    a = math.sqrt(big) * root
    k = 1.0 / (math.sqrt(a) * math.sqrt(p + s + 2.0 * a))
    return ((s + a) * k, -q * k, -q * k, (p + a) * k), a * f


def _validated_modes(v, tol: Tolerance) -> tuple[np.ndarray, list, float, int]:
    """``_checked`` with the MAX_MODES cap; returns (v, rows, scale, n)."""
    checked = _checked(v, tol)
    if checked[3] > MAX_MODES:
        raise DimensionError(f"supported up to {MAX_MODES} modes, got {checked[3]}")
    return checked


def symplectic_spectrum_general(v, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Symplectic eigenvalues of a 2n x 2n positive definite matrix, ascending.

    Two or more modes: the moduli of the eigenvalues of i Omega V, +-nu_k pairs, each adjacent
    pair collapsed to its mean (PairingError if its gap exceeds tolerance), after the eigenvalue
    cut. One mode makes no LAPACK call: the block test and the closed form's nu = a."""
    v, rows, scale, n = _validated_modes(v, tol)
    if n == 1:
        return np.array([_single_mode(rows, 0, _require_positive_definite(
            *_block_min_eig(rows, 0)))[1]])
    _require_positive_definite(*_min_eig(v, scale, tol))
    f = _power_of_four(scale)  # as Williamson reduces V: nu scales back exactly
    return np.array(_spectrum_general(v / f, n, tol)) * f


def _spectrum_general(v: np.ndarray, n: int, tol: Tolerance) -> list:
    """Core of ``symplectic_spectrum_general`` on a validated positive definite v, as a list."""
    mods = sorted(map(abs, np.linalg.eigvals(_omega_form(n) @ v).tolist()))
    nus = []
    for lo, hi in zip(mods[0::2], mods[1::2]):
        if hi - lo > tol.band(hi):
            raise PairingError(
                f"eigenvalue moduli {lo!r} and {hi!r} fail to pair")
        nus.append((lo + hi) / 2.0)
    return nus

r"""Symplectic invariants and spectra of two-mode correlation matrices.

The local invariants of V = [[A, C], [C^T, B]] are det A, det B, det C and
I4 = Tr(A w C w B w C^T w) with w the single-mode symplectic form; they
combine into the global invariants

    Delta       = det A + det B + 2 det C
    Delta~      = det A + det B - 2 det C   (partial transpose)
    Gamma_sep   = det A + det B + 2 |det C| = max(Delta, Delta~)

and satisfy det V = det A det B + det C^2 - I4 for every symmetric V. The one
test of V > 0, for the spectra and the routes alike, is ``_min_eig``; that of a diagonal block
is ``_block_min_eig``, and ``_single_mode`` its one Williamson transform S = sqrt(a) A^(-1/2).
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

# The det V identity holds for every symmetric 4x4, so a violation beyond
# this (relative) band means the determinant or trace arithmetic went wrong.
_IDENTITY_BAND = 1e-8
# Hadamard: |det V| <= prod ||row_i||_2 <= 16 scale^4, and pivoted LU entries stay within 8 scale,
# so below this scale det V sets no overflow/invalid flag (2x spare: numpy's det is exp(log|det|)).
_DET_SAFE_SCALE = (sys.float_info.max / 32.0) ** 0.25


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


def _evaluate(v, tol: Tolerance) -> tuple[np.ndarray, list, float, tuple[float, ...]]:
    """Validate ``v`` and compute its invariants, the one path: (v, rows, scale, invariants), the
    invariants as floats in ``TwoModeInvariants`` field order; only public calls build records."""
    v, rows, scale, _ = _checked(v, tol, 2)
    (a00, a01, c00, c01), (a10, a11, c10, c11), (_, _, b00, b01), (_, _, b10, b11) = rows
    det_a, det_b, det_c = a00 * a11 - a01 * a10, b00 * b11 - b01 * b10, c00 * c11 - c01 * c10
    if scale < _DET_SAFE_SCALE:
        det_v = float(np.linalg.det(v))
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # overflow raises NumericalError below
            det_v = float(np.linalg.det(v))
    # I4 = Tr(A w C w B w C^T w) = r10 - r01 with r = ((A w C) w B) w C^T.
    r = _w_product(_w_product(_w_product((a00, a01, a10, a11), (c00, c01, c10, c11)),
                              (b00, b01, b10, b11)), (c00, c10, c01, c11))
    i4 = r[2] - r[1]
    residual = det_v - (det_a * det_b + det_c * det_c - i4)
    magnitude = 1.0 + abs(det_a * det_b) + det_c * det_c + abs(i4) + abs(det_v)
    if not math.isfinite(magnitude):
        raise NumericalError(f"invariants overflow float64: det V identity magnitude {magnitude}")
    if abs(residual) > _IDENTITY_BAND * magnitude:
        raise InternalInconsistency(
            f"det V identity violated: residual {residual:.3e} at scale {magnitude:.3e}")
    return v, rows, scale, (det_a, det_b, det_c, det_v, i4, det_a + det_b + 2 * det_c,
                            det_a + det_b - 2 * det_c, det_a + det_b + 2 * abs(det_c))


def two_mode_invariants(v, tol: Tolerance = DEFAULT_TOL) -> TwoModeInvariants:
    """Compute all eight invariants of a symmetric 4x4 matrix.

    det A, det B, det C and I4 are closed-form products of the block
    entries; I4 is evaluated from its trace definition, independently of
    the determinants, and det V by LU factorization. The identity
    det V = det A det B + det C^2 - I4 is then asserted as a free self-test
    (InternalInconsistency on failure).
    """
    return TwoModeInvariants(*_evaluate(v, tol)[3])


def _spectrum_from_delta(delta: float, det_v: float, tol: Tolerance,
                         rows: list) -> SymplecticSpectrum2:
    # nu_-^2, nu_+^2 are the roots of z^2 - Delta z + det V = 0. The small root comes from
    # Vieta, nu_-^2 = det V / nu_+^2: (Delta - sqrt(radicand))/2 cancels for squeezed states.
    rad, band = tol._at_most(4.0 * det_v, delta * delta)
    if rad < -band:
        # For V > 0, given by its rows, rad = (nu_+^2 - nu_-^2)^2 >= 0, so it is clamped within
        # its rounding bound eps (2 |Delta| sum |terms of Delta| + 4 sum |v_ij cof_ij|), cof =
        # det V V^-T. Each term of Delta or Delta~ is v_ij v_kl, (k, l) = (i ^ 1, j ^ 1), so
        # sum |v| * |v|[f][:, f] = 2 sum |terms of Delta|.
        v, f = np.abs(rows), [1, 0, 3, 2]
        cofactors = abs(det_v) * float((v * np.abs(np.linalg.inv(rows)).T).sum())
        if -rad > math.ulp(1.0) * (abs(delta) * float((v * v[f][:, f]).sum()) + 4.0 * cofactors):
            raise NumericalError(
                f"Delta^2 - 4 det V = {rad:.3e} is negative beyond tolerance")
    root = math.sqrt(max(rad, 0.0))
    plus = (delta + root) / 2.0
    minus = det_v / plus if plus > 0.0 else (delta - root) / 2.0
    for sq in (minus, plus):
        if sq < -band:
            raise NumericalError(f"squared symplectic eigenvalue {sq:.3e} < 0")
    return SymplecticSpectrum2(nu_minus=math.sqrt(max(minus, 0.0)),
                               nu_plus=math.sqrt(max(plus, 0.0)))


def symplectic_spectrum_2mode(v, tol: Tolerance = DEFAULT_TOL) -> SymplecticSpectrum2:
    """Two-mode symplectic spectrum: nu_+^2 = (Delta + sqrt(Delta^2 - 4 det V))/2
    and nu_-^2 = det V / nu_+^2.

    Requires positive definite input (the closed form presumes a Williamson
    decomposition exists). The radicand is clamped to 0 when within tolerance or
    its rounding bound (degenerate spectrum); larger violations raise NumericalError.
    """
    v, rows, scale, (_, _, _, det_v, _, delta, _, _) = _evaluate(v, tol)
    _require_positive_definite(*_min_eig(v, scale, tol))
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


def _block_min_eig(rows: list, i: int, tol: Tolerance) -> tuple[float, float]:
    """Smaller eigenvalue of V's diagonal block on rows and columns i, i + 1, and the cut that
    it must exceed for the block to be positive definite."""
    # The block's lower triangle, the one eigvalsh reads: V is symmetric only within tolerance.
    return (_min_eig_2x2(rows[i][i], rows[i + 1][i], rows[i + 1][i + 1]),
            tol._cut(max(map(abs, rows[i][i:i + 2] + rows[i + 1][i:i + 2]))))


def _single_mode(rows: list, i: int, min_eig: float) -> tuple[tuple, float]:
    """The one single-mode Williamson transform of the positive definite block A, read as
    ``_block_min_eig`` reads it, lambda_- = ``min_eig``: (S as a row-major 4-tuple, a). With
    a = sqrt(lambda_+) sqrt(lambda_-) (no overflow), sqrt(A) = (A + a I)/sqrt(tr A + 2a), so the
    symmetric S = sqrt(a) A^(-1/2) = (adj A + a I)/(sqrt(a) sqrt(tr A + 2a)) needs no angle."""
    p, q, s = rows[i][i], rows[i + 1][i], rows[i + 1][i + 1]
    big = max(p, s) + (min(p, s) - min_eig)  # min(p, s) - lambda_- = q^2/(h + |d|) >= 0
    a = math.sqrt(big) * math.sqrt(min_eig)
    # In exact halves and quarters: no sum exceeds max(p, s), so none overflows before lambda_+.
    k = 1.0 / (math.sqrt(a) * math.sqrt(p / 4.0 + s / 4.0 + a / 2.0))
    off = -q / 2.0 * k
    return ((s / 2.0 + a / 2.0) * k, off, off, (p / 2.0 + a / 2.0) * k), a


def _validated_modes(v, tol: Tolerance) -> tuple[np.ndarray, list, float, int]:
    """``_checked`` with the MAX_MODES cap; returns (v, rows, scale, n)."""
    checked = _checked(v, tol)
    if checked[3] > MAX_MODES:
        raise DimensionError(f"supported up to {MAX_MODES} modes, got {checked[3]}")
    return checked


def symplectic_spectrum_general(v, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Symplectic eigenvalues of a 2n x 2n positive definite matrix, ascending.

    Computed as the absolute values of the eigenvalues of i Omega V, which
    come in +-nu_k pairs; each adjacent pair of sorted moduli is collapsed to
    its mean. PairingError if a pair gap exceeds tolerance.
    """
    v, _, scale, n = _validated_modes(v, tol)
    _require_positive_definite(*_min_eig(v, scale, tol))
    return np.array(_spectrum_general(v, n, tol))


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

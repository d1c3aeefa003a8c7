r"""Reduction of two-mode correlation matrices to standard form.

Any symmetric 4x4 matrix whose diagonal blocks A, B are positive definite is
congruent, under a block-diagonal local symplectic S_local = S_A (+) S_B, to

    [[a, 0, c+, 0],
     [0, a, 0, c-],
     [c+, 0, b, 0],
     [0, c-, 0, b]]

with a^2 = det A, b^2 = det B, c+ c- = det C and
(ab - c+^2)(ab - c-^2) = det V. The construction Williamson-diagonalizes each
block [[p, q], [q, s]], eigenvalues lambda_+ >= lambda_-, in closed form:
S = sqrt(a) diag(lambda_+, lambda_-)^(-1/2) R(phi)^T, phi = atan2(q, (p - s)/2)/2,
a = sqrt(lambda_+) sqrt(lambda_-) (no overflow). It then picks two rotation
angles that diagonalize the transformed off-diagonal block in closed form, all
on Python floats.

The pair (c+, c-) is only determined up to sign/order freedom; this module
fixes the canonical cell c+ >= |c-| with c+ >= 0 (the sign of det C then
rides on c-).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BlockNotPositiveDefinite, InternalInconsistency
from .physicality import _block_min_eig, _min_eig_2x2
from .symplectic import DEFAULT_TOL, Tolerance, _checked, _require_positive_definite, symmetric_part

__all__ = [
    "StandardFormParams",
    "standard_form_matrix",
    "single_mode_williamson",
    "reduce_to_standard_form",
]


@dataclass(frozen=True, slots=True)
class StandardFormParams:
    """Standard-form parameters and the local symplectic achieving them.

    s_local is block-diagonal with two 2x2 blocks of determinant 1;
    congruence(V, s_local) reproduces matrix() to tolerance. It is fixed
    only up to -I4: S and -S give the same congruence. ``residual`` is
    max |congruence(V, s_local) - matrix()| as checked by
    ``reduce_to_standard_form`` (0.0 for an instance built by hand).
    """

    a: float
    b: float
    c_plus: float
    c_minus: float
    s_local: np.ndarray
    residual: float = 0.0

    def matrix(self) -> np.ndarray:
        """The standard-form matrix assembled from the parameters."""
        return standard_form_matrix(self.a, self.b, self.c_plus, self.c_minus)


def standard_form_matrix(a: float, b: float, c_plus: float,
                         c_minus: float) -> np.ndarray:
    """Assemble the standard-form CM with blocks aI, bI, diag(c+, c-)."""
    return np.array([
        [a, 0.0, c_plus, 0.0],
        [0.0, a, 0.0, c_minus],
        [c_plus, 0.0, b, 0.0],
        [0.0, c_minus, 0.0, b],
    ])


def single_mode_williamson(a_block, tol: Tolerance = DEFAULT_TOL
                           ) -> tuple[np.ndarray, float]:
    """Symplectic s (det = 1) with s @ A @ s.T = a I, a = sqrt(det A).

    For a single mode the Williamson transform is a rotation composed with a
    squeeze along the principal axes. Returns (s, a); raises
    NotPositiveDefinite if A is not a positive definite 2x2 matrix.
    """
    _, rows, scale, _ = _checked(a_block, tol, 1, what="block")
    (p, _), (q, s) = rows  # the lower triangle, the one numpy's eigh reads
    min_eig = _min_eig_2x2(p, q, s)
    _require_positive_definite(min_eig, tol._cut(scale), what="block")
    (s00, s01, s10, s11), a = _single_mode(p, q, s, min_eig)
    return np.array([[s00, s01], [s10, s11]]), a


def _single_mode(p: float, q: float, s: float, min_eig: float) -> tuple[tuple, float]:
    """Core of ``single_mode_williamson`` for a positive definite [[p, q], [q, s]]
    with smaller eigenvalue ``min_eig``: (S as a row-major 4-tuple, a)."""
    big = max(p, s) + (min(p, s) - min_eig)  # min(p, s) - lambda_- = q^2/(h + |d|) >= 0
    a = math.sqrt(big) * math.sqrt(min_eig)
    # Major axis (cos phi, sin phi); a scalar block has phi = 0, so S = I.
    phi = math.atan2(q, (p - s) / 2.0) / 2.0
    cos, sin = math.cos(phi), math.sin(phi)
    k_big, k_small = math.sqrt(a / big), math.sqrt(a / min_eig)
    return (k_big * cos, k_big * sin, -k_small * sin, k_small * cos), a


def _product(x: tuple, y: tuple) -> tuple:
    """x y for 2x2 matrices given as row-major 4-tuples."""
    x00, x01, x10, x11 = x
    y00, y01, y10, y11 = y
    return (x00 * y00 + x01 * y10, x00 * y01 + x01 * y11,
            x10 * y00 + x11 * y10, x10 * y01 + x11 * y11)


def _rotation(angle: float) -> tuple:
    """R(angle) as a row-major 4-tuple; R(-angle) = R(angle)^T."""
    c, s = math.cos(angle), math.sin(angle)
    return (c, -s, s, c)


def _diagonalizing_angles(m: tuple, cut: float) -> tuple[float, float]:
    """Angles (theta_a, theta_b) with R(theta_a) M R(theta_b)^T diagonal.

    Writing M on the basis {I, J, K, L} (J the rotation generator, K, L the
    traceless symmetric pair), the rotation-commuting part transforms by
    e^{i(theta_a - theta_b)} and the traceless symmetric part by
    e^{i(theta_a + theta_b)}; making both parts real diagonalizes M. The
    canonical cell is enforced by the caller via quarter- and half-turn
    composition.
    """
    z1 = complex(m[0] + m[3], m[2] - m[1])
    z2 = complex(m[0] - m[3], m[1] + m[2])
    if abs(z1) <= cut and abs(z2) <= cut:
        return 0.0, 0.0
    if abs(z2) <= cut:
        # M is proportional to a rotation: only theta_a - theta_b matters.
        return 0.0, cmath.phase(z1)
    if abs(z1) <= cut:
        # M is traceless-symmetric-like: only theta_a + theta_b matters.
        return 0.0, -cmath.phase(z2)
    alpha = -cmath.phase(z1)
    beta = -cmath.phase(z2)
    return (alpha + beta) / 2.0, (beta - alpha) / 2.0


def reduce_to_standard_form(v, tol: Tolerance = DEFAULT_TOL
                            ) -> StandardFormParams:
    """Standard-form parameters of a 4x4 symmetric V with A, B > 0.

    Positive definiteness of the whole matrix is NOT required — only the
    diagonal blocks must be positive definite. Raises
    BlockNotPositiveDefinite naming the offending block otherwise.
    """
    v, rows, scale, _ = _checked(v, tol, 2)
    # One closed form per block: the positivity check and the single-mode transform.
    transforms = []
    for name, i in (("A", 0), ("B", 2)):
        min_eig, block_cut = _block_min_eig(rows, i, tol)
        if min_eig <= block_cut:
            raise BlockNotPositiveDefinite(
                f"block {name} is not positive definite "
                f"(min eigenvalue {min_eig:.3e})", block=name, min_eig=min_eig)
        transforms.append(_single_mode(rows[i][i], rows[i + 1][i], rows[i + 1][i + 1], min_eig))
    (s_a, a), (s_b, b) = transforms
    m = _product(_product(s_a, (*rows[0][2:], *rows[1][2:])), (s_b[0], s_b[2], s_b[1], s_b[3]))
    cut = tol._cut(max(map(abs, m)))
    theta_a, theta_b = _diagonalizing_angles(m, cut)

    def transformed(ta: float, tb: float) -> tuple:
        return _product(_product(_rotation(ta), m), _rotation(-tb))

    c_diag = transformed(theta_a, theta_b)
    # Canonical cell: |c+| >= |c-| via a simultaneous quarter turn (which
    # swaps the diagonal entries and fixes aI, bI), then c+ >= 0 via a half
    # turn on mode A alone (which flips both signs, preserving det C).
    if abs(c_diag[3]) > abs(c_diag[0]):
        theta_a += math.pi / 2.0
        theta_b += math.pi / 2.0
        c_diag = transformed(theta_a, theta_b)
    if c_diag[0] < 0.0:
        theta_a += math.pi
        c_diag = transformed(theta_a, theta_b)

    # Written so that NaN (from an overflow) fails each check instead of passing it.
    off = max(abs(c_diag[1]), abs(c_diag[2]))
    if not off <= 64.0 * cut:
        raise InternalInconsistency(
            f"off-diagonal residue {off:.3e} after angle selection")
    c_plus, c_minus = c_diag[0], c_diag[3]

    ra, rb = _product(_rotation(theta_a), s_a), _product(_rotation(theta_b), s_b)
    s_local = np.array([[*ra[:2], 0.0, 0.0], [*ra[2:], 0.0, 0.0],
                        [0.0, 0.0, *rb[:2]], [0.0, 0.0, *rb[2:]]])
    target = standard_form_matrix(a, b, c_plus, c_minus)
    residual = float(np.abs(symmetric_part(s_local @ v @ s_local.T) - target).max())
    if not residual <= 1e3 * tol._cut(max(scale, abs(a), abs(b), abs(c_plus), abs(c_minus))):
        raise InternalInconsistency(
            f"standard-form congruence residual {residual:.3e}")
    return StandardFormParams(a=a, b=b, c_plus=c_plus, c_minus=c_minus,
                              s_local=s_local, residual=residual)

r"""Reduction of two-mode correlation matrices to standard form.

Any symmetric 4x4 matrix whose diagonal blocks A, B are positive definite is
congruent, under a block-diagonal local symplectic S_local = S_A (+) S_B, to

    [[a, 0, c+, 0],
     [0, a, 0, c-],
     [c+, 0, b, 0],
     [0, c-, 0, b]]

with a^2 = det A, b^2 = det B, c+ c- = det C and (ab - c+^2)(ab - c-^2) = det V.
Each block passes the one block test and takes the one single-mode Williamson transform, the
symmetric S = sqrt(a) A^(-1/2) in closed form (``invariants._block_min_eig``, ``_single_mode``).

The cross block M = S_A C S_B^T then acts on u = x + iy as M u = (z1 u + z2 conj(u))/2,
with z1 = (m00 + m11) + i(m10 - m01) and z2 = (m00 - m11) + i(m01 + m10). A rotation
R(t) multiplies u by e^(it), so R(theta_a) M R(theta_b)^T turns z1 by theta_a - theta_b and
z2 by theta_a + theta_b. theta_a - theta_b = -arg z1 and theta_a + theta_b = -arg z2 turn
both onto the positive real axis for every M, ties and zeros included, and leave
c+ = (|z1| + |z2|)/2, c- = (|z1| - |z2|)/2, all on Python floats.

The pair (c+, c-) is only determined up to sign/order freedom; this closed form lands in
the canonical cell c+ >= |c-|, c+ >= 0 (the sign of det C rides on c-) by construction,
in floats too: |z1| + |z2| >= ||z1| - |z2|| holds exactly, and rounding is monotone.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BlockNotPositiveDefinite, InternalInconsistency, NumericalError
from .invariants import _block_min_eig, _single_mode
from .symplectic import (DEFAULT_TOL, Tolerance, _checked, _power_of_four,
                         _require_positive_definite, symmetric_part)

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

    s is the symmetric sqrt(a) A^(-1/2), in closed form. Returns (s, a); raises
    NotPositiveDefinite if A is not a positive definite 2x2 matrix.
    """
    rows = _checked(a_block, tol, 1, what="block")[1]
    min_eig = _require_positive_definite(*_block_min_eig(rows, 0), what="block")
    (s00, s01, s10, s11), a = _single_mode(rows, 0, min_eig)
    return np.array([[s00, s01], [s10, s11]]), a


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


def reduce_to_standard_form(v, tol: Tolerance = DEFAULT_TOL
                            ) -> StandardFormParams:
    """Standard-form parameters of a 4x4 symmetric V with A, B > 0.

    Positive definiteness of the whole matrix is NOT required — only the
    diagonal blocks must be positive definite. Raises
    BlockNotPositiveDefinite naming the offending block otherwise.
    """
    v, rows, scale, _ = _checked(v, tol, 2)
    # One closed form per block: the positivity check and the single-mode transform.
    modes = []
    for name, i in (("A", 0), ("B", 2)):
        min_eig, band = _block_min_eig(rows, i)
        if min_eig <= band:
            raise BlockNotPositiveDefinite(f"block {name} is not positive definite (min eigenvalue"
                                           f" {min_eig:.3e})", block=name, min_eig=min_eig)
        modes.append(_single_mode(rows, i, min_eig))
    (s_a, a), (s_b, b) = modes
    # Far from unit scale S V S^T and |z1| + |z2| leave float64's range before c+- do: the cross
    # block and the residual are formed on V/f, whose c+- are V's over f, exactly.
    f = _power_of_four(scale)
    if f != 1.0:
        v, scale = v / f, scale / f
        rows = v.tolist()
    # S_B is symmetric, so M = S_A C S_B^T = S_A C S_B.
    m = _product(_product(s_a, (*rows[0][2:], *rows[1][2:])), s_b)
    cut = tol._cut(max(map(abs, m)))
    # Adding 0.0 makes a -0.0 real part +0.0, so a zero part has phase 0 rather than pi.
    z1 = complex(m[0] + m[3] + 0.0, m[2] - m[1])
    z2 = complex(m[0] - m[3] + 0.0, m[1] + m[2])
    alpha, beta = -cmath.phase(z1), -cmath.phase(z2)
    theta_a, theta_b = (alpha + beta) / 2.0, (beta - alpha) / 2.0
    c_diag = _product(_product(_rotation(theta_a), m), _rotation(-theta_b))
    # Written so that NaN (from an overflow) fails each check instead of passing it.
    off = max(abs(c_diag[1]), abs(c_diag[2]))
    if not off <= 64.0 * cut:
        raise InternalInconsistency(f"off-diagonal residue {off:.3e} after angle selection")
    c_plus, c_minus = (abs(z1) + abs(z2)) / 2.0, (abs(z1) - abs(z2)) / 2.0

    ra, rb = _product(_rotation(theta_a), s_a), _product(_rotation(theta_b), s_b)
    s_local = np.array([[*ra[:2], 0.0, 0.0], [*ra[2:], 0.0, 0.0],
                        [0.0, 0.0, *rb[:2]], [0.0, 0.0, *rb[2:]]])
    target = standard_form_matrix(a / f, b / f, c_plus, c_minus)
    residual = float(np.abs(symmetric_part(s_local @ v @ s_local.T) - target).max())
    if not residual <= 1e3 * tol._cut(max(scale, a / f, b / f, abs(c_plus), abs(c_minus))):
        raise InternalInconsistency(f"standard-form congruence residual {residual:.3e}")
    c_plus, c_minus, residual = c_plus * f, c_minus * f, residual * f
    if c_plus == math.inf:  # a, b <= max|v_ij| and |c-| <= c+
        raise NumericalError("standard-form parameter c+ overflows float64")
    return StandardFormParams(a=a, b=b, c_plus=c_plus, c_minus=c_minus,
                              s_local=s_local, residual=residual)

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

The result is certified on V / 4^j by its defining identities, as ``williamson`` certifies
its own: E_F = S F S^T - T_F, (F, T_F) = (Omega, Omega) and (V, T), must meet max |E_F| <=
u (2d + 1 + 16) max(|S| |F| |S|^T), d = 2: 2d + 1 for the products' rounding (Higham, ch. 3),
16 for the closed forms' error, on the same scale. S = R(theta) S_A errs by a few u of |R| |S_A|
<= sqrt(2) J |S| (J all ones); lambda_- by a few u min(p, s), moving S_A A S_A^T - a I by a few
u a min(p, s) / lambda_- <= 2 u max(|S_A| |A| |S_A|^T); a, b, c+- by a few u max |T|. Over
116,000 block-positive V (cond A, B to 1e15, scales 1e-300 to 1e300) at most 11.3 u size, of 21.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BlockNotPositiveDefinite, InternalInconsistency, NumericalError
from .invariants import _U, _block_min_eig, _single_mode
from .symplectic import (DEFAULT_TOL, Tolerance, _checked, _power_of_four,
                         _require_positive_definite)

__all__ = [
    "StandardFormParams",
    "standard_form_matrix",
    "single_mode_williamson",
    "reduce_to_standard_form",
]


@dataclass(frozen=True, slots=True)
class StandardFormParams:
    """Standard-form parameters and the local symplectic achieving them.

    s_local is block-diagonal with two 2x2 blocks of determinant 1, fixed only
    up to -I4: S and -S give the same congruence. ``residual`` is the certified
    max |S V S^T - matrix()|, formed blockwise on V / 4^j and scaled back, at
    most u (2d + 1 + 16) max(|S| |V| |S|^T) (0.0 for an instance built by hand).
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


def _certify(residuals: tuple, sizes: tuple, dim: int, errors: tuple, target: str = "W") -> None:
    """InternalInconsistency unless each max |S F S^T - T_F| in ``residuals`` is at most u ((2d + 1)
    size + error), (F, T_F) = (Omega, Omega) then (V, ``target``): the first term is the rounding
    of products of size max(|S| |F| |S|^T), ``errors`` the caller's own error over u. NaN fails."""
    for name, res, size, error in zip(("S Omega S^T - Omega", f"S V S^T - {target}"), residuals,
                                      sizes, errors):
        if not res <= (bound := ((2 * dim + 1) * size + error) * _U):
            raise InternalInconsistency(f"residual max |{name}| = {res:.3e} exceeds its bound "
                                        f"{bound:.3e}")


def _symmetric_sandwich(x: tuple, p: float, q: float, s: float) -> tuple:
    """The (0, 0), (0, 1) and (1, 1) entries of x [[p, q], [q, s]] x^T, x a row-major 4-tuple."""
    x00, x01, x10, x11 = x
    u0, u1, w0, w1 = x00 * p + x01 * q, x00 * q + x01 * s, x10 * p + x11 * q, x10 * q + x11 * s
    return u0 * x00 + u1 * x01, u0 * x10 + u1 * x11, w0 * x10 + w1 * x11


def _local_certificate(ra: tuple, rb: tuple, rows: list, cross: tuple, t: tuple) -> float:
    """Certify S = ra (+) rb on V's ``rows`` and C = ``cross`` against T's (a, b, c+, c-) = ``t``
    (A and B have positive diagonals); return max |S V S^T - T|. Written out on floats, as most
    of the reduction's time goes here: S Omega S^T - Omega holds det ra - 1 and det rb - 1."""
    (r0, r1, r2, r3), (a, b, c_plus, c_minus) = rows, t
    (x00, x01, x10, x11), (y00, y01, y10, y11), (c00, c01, c10, c11) = ra, rb, cross
    abs_x = ax00, ax01, ax10, ax11 = abs(x00), abs(x01), abs(x10), abs(x11)
    abs_y = ay00, ay01, ay10, ay11 = abs(y00), abs(y01), abs(y10), abs(y11)
    (a0, a1, a2), (b0, b1, b2) = (_symmetric_sandwich(ra, r0[0], r0[1], r1[1]),
                                  _symmetric_sandwich(rb, r2[2], r2[3], r3[3]))
    u0, u1, w0, w1 = x00 * c00 + x01 * c10, x00 * c01 + x01 * c11, x10 * c00 + x11 * c10, \
        x10 * c01 + x11 * c11
    residual = max(abs(a0 - a), abs(a1), abs(a2 - a), abs(b0 - b), abs(b1), abs(b2 - b),
                   abs(u0 * y00 + u1 * y01 - c_plus), abs(u0 * y10 + u1 * y11),
                   abs(w0 * y00 + w1 * y01), abs(w0 * y10 + w1 * y11 - c_minus))
    c00, c01, c10, c11 = abs(c00), abs(c01), abs(c10), abs(c11)
    u0, u1, w0, w1 = ax00 * c00 + ax01 * c10, ax00 * c01 + ax01 * c11, ax10 * c00 + ax11 * c10, \
        ax10 * c01 + ax11 * c11
    sizes = (*_symmetric_sandwich(abs_x, r0[0], abs(r0[1]), r1[1]),
             *_symmetric_sandwich(abs_y, r2[2], abs(r2[3]), r3[3]), u0 * ay00 + u1 * ay01,
             u0 * ay10 + u1 * ay11, w0 * ay00 + w1 * ay01, w0 * ay10 + w1 * ay11)
    size = max(sizes) if sum(sizes) < math.inf else math.nan  # max can skip a NaN, sum cannot
    det_res = max(abs(x00 * x11 - x01 * x10 - 1.0), abs(y00 * y11 - y01 * y10 - 1.0))
    det_size = max(ax00 * ax11 + ax01 * ax10, 2.0 * ax00 * ax01, 2.0 * ax10 * ax11,
                   ay00 * ay11 + ay01 * ay10, 2.0 * ay00 * ay01, 2.0 * ay10 * ay11)
    _certify((det_res, residual), (det_size, size), 2, (16.0 * det_size, 16.0 * size), "T")
    return residual


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
    _, rows, scale, _ = _checked(v, tol, 2)
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
    # block and the certificate are formed on V/f, whose c+- are V's over f, exactly.
    f = _power_of_four(scale)
    if f != 1.0:
        rows = [[x / f for x in row] for row in rows]
    # S_B is symmetric, so M = S_A C S_B^T = S_A C S_B.
    cross = (*rows[0][2:], *rows[1][2:])
    m = _product(_product(s_a, cross), s_b)
    # Adding 0.0 makes a -0.0 real part +0.0, so a zero part has phase 0 rather than pi.
    z1 = complex(m[0] + m[3] + 0.0, m[2] - m[1])
    z2 = complex(m[0] - m[3] + 0.0, m[1] + m[2])
    alpha, beta = -cmath.phase(z1), -cmath.phase(z2)
    theta_a, theta_b = (alpha + beta) / 2.0, (beta - alpha) / 2.0
    c_plus, c_minus = (abs(z1) + abs(z2)) / 2.0, (abs(z1) - abs(z2)) / 2.0

    if not c_plus * f < math.inf:  # a, b <= max|v_ij| and |c-| <= c+; NaN if M overflows
        raise NumericalError("standard-form parameter c+ overflows float64")
    ra, rb = _product(_rotation(theta_a), s_a), _product(_rotation(theta_b), s_b)
    residual = _local_certificate(ra, rb, rows, cross, (a / f, b / f, c_plus, c_minus)) * f
    s_local = np.array([ra[0], ra[1], 0.0, 0.0, ra[2], ra[3], 0.0, 0.0,
                        0.0, 0.0, rb[0], rb[1], 0.0, 0.0, rb[2], rb[3]]).reshape(4, 4)
    return StandardFormParams(a=a, b=b, c_plus=c_plus * f, c_minus=c_minus * f,
                              s_local=s_local, residual=residual)

r"""Reduction of two-mode correlation matrices to standard form.

Any symmetric 4x4 matrix whose diagonal blocks A, B are positive definite is
congruent, under a block-diagonal local symplectic S_local = S_A (+) S_B, to

    [[a, 0, c+, 0],
     [0, a, 0, c-],
     [c+, 0, b, 0],
     [0, c-, 0, b]]

with a^2 = det A, b^2 = det B, c+ c- = det C and
(ab - c+^2)(ab - c-^2) = det V. The construction Williamson-diagonalizes each
block (a 2x2 eigenproblem) and then picks two rotation angles that
diagonalize the transformed off-diagonal block in closed form.

The pair (c+, c-) is only determined up to sign/order freedom; this module
fixes the canonical cell c+ >= |c-| with c+ >= 0 (the sign of det C then
rides on c-).
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import (
    BlockNotPositiveDefinite,
    DimensionError,
    InternalInconsistency,
)
from .symplectic import (
    DEFAULT_TOL,
    Tolerance,
    _as_two_mode,
    _require_positive_definite,
    as_matrix,
    direct_sum,
    require_symmetric,
    rotation,
    symmetric_part,
)

__all__ = [
    "StandardFormParams",
    "standard_form_matrix",
    "single_mode_williamson",
    "reduce_to_standard_form",
]


@dataclass(frozen=True)
class StandardFormParams:
    """Standard-form parameters and the local symplectic achieving them.

    s_local is block-diagonal with two 2x2 blocks of determinant 1;
    congruence(V, s_local) reproduces matrix() to tolerance. ``residual`` is
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
    m = as_matrix(a_block)
    if m.shape != (2, 2):
        raise DimensionError(f"expected a 2x2 block, got {m.shape}")
    require_symmetric(m, tol, what="2x2 block")
    evals, q = np.linalg.eigh(m)
    _require_positive_definite(m, evals[0], tol, what="block")
    return _single_mode(evals, q)


def _single_mode(evals: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, float]:
    """Core of ``single_mode_williamson`` from ``eigh`` of a positive definite block."""
    # Descending eigenvalue order; stable so that scalar blocks keep q = I
    # and come out with s exactly the identity (up to scale).
    order = np.argsort(-evals, kind="stable")
    d = evals[order]
    q = q[:, order]
    if q[0, 0] * q[1, 1] - q[0, 1] * q[1, 0] < 0.0:  # det q = +-1
        q = q.copy()
        q[:, 1] = -q[:, 1]
    a = float(np.sqrt(d[0] * d[1]))
    s = np.sqrt(a) * (q / np.sqrt(d)).T
    return s, a


def _diagonalizing_angles(m: np.ndarray, tol: Tolerance
                          ) -> tuple[float, float]:
    """Angles (theta_a, theta_b) with R(theta_a) M R(theta_b)^T diagonal.

    Writing M on the basis {I, J, K, L} (J the rotation generator, K, L the
    traceless symmetric pair), the rotation-commuting part transforms by
    e^{i(theta_a - theta_b)} and the traceless symmetric part by
    e^{i(theta_a + theta_b)}; making both parts real diagonalizes M. The
    canonical cell is enforced by the caller via quarter- and half-turn
    composition.
    """
    z1 = complex(m[0, 0] + m[1, 1], m[1, 0] - m[0, 1])
    z2 = complex(m[0, 0] - m[1, 1], m[0, 1] + m[1, 0])
    cut = tol.threshold(m)
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
    v = _as_two_mode(v, tol)
    # One eigh per block: the positivity check and the single-mode transform.
    transforms = []
    for name, block in (("A", v[:2, :2]), ("B", v[2:, 2:])):
        evals, q = np.linalg.eigh(block)
        min_eig = float(evals[0])
        if min_eig <= tol.threshold(block):
            raise BlockNotPositiveDefinite(
                f"block {name} is not positive definite "
                f"(min eigenvalue {min_eig:.3e})", block=name, min_eig=min_eig)
        transforms.append(_single_mode(evals, q))
    (s_a, a), (s_b, b) = transforms
    m = s_a @ v[:2, 2:] @ s_b.T
    theta_a, theta_b = _diagonalizing_angles(m, tol)

    def transformed(ta: float, tb: float) -> np.ndarray:
        return rotation(ta) @ m @ rotation(tb).T

    c_diag = transformed(theta_a, theta_b)
    # Canonical cell: |c+| >= |c-| via a simultaneous quarter turn (which
    # swaps the diagonal entries and fixes aI, bI), then c+ >= 0 via a half
    # turn on mode A alone (which flips both signs, preserving det C).
    if abs(c_diag[1, 1]) > abs(c_diag[0, 0]):
        theta_a += np.pi / 2.0
        theta_b += np.pi / 2.0
        c_diag = transformed(theta_a, theta_b)
    if c_diag[0, 0] < 0.0:
        theta_a += np.pi
        c_diag = transformed(theta_a, theta_b)

    off = max(abs(c_diag[0, 1]), abs(c_diag[1, 0]))
    if off > 64.0 * tol.threshold(m):
        raise InternalInconsistency(
            f"off-diagonal residue {off:.3e} after angle selection")
    c_plus = float(c_diag[0, 0])
    c_minus = float(c_diag[1, 1])

    s_local = direct_sum(rotation(theta_a) @ s_a, rotation(theta_b) @ s_b)
    target = standard_form_matrix(a, b, c_plus, c_minus)
    residual = float(np.abs(symmetric_part(s_local @ v @ s_local.T) - target).max())
    if residual > 1e3 * tol.threshold(v, target):
        raise InternalInconsistency(
            f"standard-form congruence residual {residual:.3e}")
    return StandardFormParams(a=a, b=b, c_plus=c_plus, c_minus=c_minus,
                              s_local=s_local, residual=residual)

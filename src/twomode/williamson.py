r"""Williamson normal form of positive definite matrices on 2n modes.

Every symmetric positive definite V of even dimension admits a symplectic S
with S V S^T = W = diag(nu_1, nu_1, ..., nu_n, nu_n); the nu_k are the
symplectic eigenvalues. The constructive route used here:

1. form the inverse square root V^{-1/2} (orthogonal diagonalization),
2. build the antisymmetric X = V^{-1/2} Omega V^{-1/2},
3. find a rotation O block-rotating X into (+)_k a_k omega from the
   eigenvectors p_k of X with eigenvalue +i a_k (those of the Hermitian iX
   with eigenvalue -a_k): rows 2k and 2k+1 of O are sqrt(2) (-Im p_k)^T and
   sqrt(2) (Re p_k)^T, real by construction,
4. assemble S = W^{1/2} R V^{-1/2} with nu_k = 1/a_k, R being O with its
   2-row blocks in reverse order (nu ascending).

Each call validates its input once and makes four LAPACK calls: eigh of V
(also the positivity check), eigh of iX, and the cross-checks det R = +1 and
the spectrum from the independent route |eig(Omega V)|; O is checked to be
orthogonal. Between them the pairing, singularity and degeneracy tests, nu =
1/a and the spectrum comparison run on Python floats, and O is one scaled copy
of a real view of the eigenvectors of iX.

S is symplectic by construction: S Omega S^T = W^{1/2} (R X R^T) W^{1/2}
= (+)_k nu_k a_k omega = Omega. R itself is orthogonal with det +1 but not
in general symplectic; only the product is.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (DegeneracyWarning, InternalInconsistency, PairingError, SingularInput,
                     SymmetryError)
from .invariants import _spectrum_general, _validated_modes
from .symplectic import (DEFAULT_TOL, Tolerance, _checked, _mode_count, _omega_form, _read,
                         _require_positive_definite, _symmetric_scale, as_matrix)

__all__ = [
    "WilliamsonDecomposition",
    "inv_sqrt",
    "build_x",
    "skew_block_rotation",
    "williamson_decompose",
]

# Row 2k of O is -sqrt(2) Im p_k and row 2k+1 is sqrt(2) Re p_k.
_ROW_SCALES = np.array([[-math.sqrt(2.0)], [math.sqrt(2.0)]])


@dataclass(frozen=True, slots=True)
class WilliamsonDecomposition:
    """Normal form W, the symplectic S achieving it, and the pieces.

    normal_form: diagonal with paired entries (nu_1, nu_1, ..., nu_n, nu_n),
        nu ascending.
    transform: symplectic S with S V S^T = normal_form.
    rotation: the proper rotation R in S = W^(1/2) R V^(-1/2).
    skew: cached V^(-1/2) Omega V^(-1/2) (antisymmetric).
    spectrum: the nu_k, ascending, one entry per mode.
    degenerate: true when two symplectic eigenvalues coincide within
        tolerance (the decomposition is then valid but not unique up to
        local rotations only).
    """

    normal_form: np.ndarray
    transform: np.ndarray
    rotation: np.ndarray
    skew: np.ndarray
    spectrum: np.ndarray
    degenerate: bool


def inv_sqrt(v, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Symmetric M with M V M = I for symmetric positive definite V."""
    v, rows, flat = _read(v)
    return _inv_sqrt(v, tol._cut(_symmetric_scale(rows, flat, tol)))


def _inv_sqrt(v: np.ndarray, cut: float) -> np.ndarray:
    """Core of ``inv_sqrt``: its eigendecomposition is also the positivity check."""
    evals, q = np.linalg.eigh(v)
    _require_positive_definite(evals[0], cut)
    m = (q / np.sqrt(evals)) @ q.T
    return (m + m.T) / 2.0


def _skew_kernel(inv_root: np.ndarray, n_modes: int) -> np.ndarray:
    """Antisymmetric part of M Omega M; (x - x^T)/2 is exactly antisymmetric."""
    x = inv_root @ _omega_form(n_modes) @ inv_root
    return (x - x.T) / 2.0


def build_x(v, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """The antisymmetric V^(-1/2) Omega V^(-1/2) for positive definite V."""
    v, _, scale, n_modes = _checked(v, tol)
    return _skew_kernel(_inv_sqrt(v, tol._cut(scale)), n_modes)


def skew_block_rotation(xs, tol: Tolerance = DEFAULT_TOL, *,
                        phases=None) -> tuple[np.ndarray, np.ndarray]:
    """Proper-rotation block-diagonalization of a nonsingular antisymmetric Xs.

    Returns (o, a) with o @ Xs @ o.T = (+)_k a_k omega, the a_k positive and
    ascending. The eigenvectors of Xs come in conjugate pairs (p, conj(p))
    with eigenvalues (+i a, -i a). Orthonormality of the pair makes
    Re p and Im p orthogonal with norm 1/sqrt(2) each, and Xs maps Re p to
    a (-Im p) and -Im p to -a Re p. So the rows
    sqrt(2) (-Im p_k)^T, sqrt(2) (Re p_k)^T form a real orthogonal o for any
    eigenbasis.

    phases, when given, multiplies the k-th eigenvector p_k by
    e^{i phases[k]} before assembly; the result is another valid rotation
    (used to exercise the eigenbasis freedom in tests).
    """
    xs = as_matrix(xs)
    n_modes = _mode_count(xs)
    if phases is not None and len(phases) != n_modes:  # before any solve
        raise ValueError(f"expected {n_modes} phases, got {len(phases)}")
    anti_residual = float(np.abs(xs + xs.T).max())
    cut = tol._cut(float(np.abs(xs).max()))
    if anti_residual > cut:
        raise SymmetryError(
            f"matrix is not antisymmetric (max |X + X^T| = {anti_residual:.3e})")
    o, a_asc = _block_rotation(xs, n_modes, tol, cut, phases)
    return o, np.array(a_asc)


def _block_rotation(xs: np.ndarray, n_modes: int, tol: Tolerance, cut: float,
                    phases) -> tuple[np.ndarray, list]:
    """Core of ``skew_block_rotation`` on a validated antisymmetric xs; a comes as a list."""
    # i*Xs is Hermitian; its eigenvalue -a pairs with the Xs eigenvalue +ia.
    evals, vecs = np.linalg.eigh(1j * xs)
    ev = evals.tolist()
    neg, pos = ev[:n_modes], ev[n_modes:]
    band = tol.band(*map(abs, ev))
    if max(abs(x + y) for x, y in zip(neg[::-1], pos)) > 16.0 * band:
        raise PairingError(
            f"eigenvalues do not split into conjugate pairs: {evals}")
    a_asc = [-x for x in neg[::-1]]  # ascending since eigh sorts ascending
    if a_asc[0] <= cut:
        raise SingularInput(
            f"antisymmetric matrix is singular to tolerance "
            f"(smallest pair magnitude {a_asc[0]:.3e})")

    dim = 2 * n_modes
    if phases is not None:  # column n-1-k is p_k
        vecs[:, :n_modes] *= np.exp(1j * np.asarray(phases, dtype=float))[::-1]
    # Only p_k is read: its partner conj(p_k) is implied, which keeps the pairing
    # exact under degeneracy. vecs views as (Re, Im) float pairs; parts[k] = (Im p_k, Re p_k).
    parts = vecs.view(float).reshape(dim, dim, 2)[:, n_modes - 1::-1, ::-1].transpose(1, 2, 0)
    o = np.multiply(parts, _ROW_SCALES, order="C").reshape(dim, dim)
    gram = o @ o.T
    gram.flat[::dim + 1] -= 1.0
    ortho_residual = float(np.abs(gram).max())
    if ortho_residual > 10.0 * tol.band(1.0):
        raise InternalInconsistency(
            f"assembled rotation departs from orthogonality by {ortho_residual:.3e}")
    return o, a_asc


def williamson_decompose(v, tol: Tolerance = DEFAULT_TOL, *,
                         phases=None) -> WilliamsonDecomposition:
    """Full Williamson decomposition of a symmetric positive definite V.

    Computes W, the symplectic S with S V S^T = W and S Omega S^T = Omega,
    and the proper rotation R with S = W^(1/2) R V^(-1/2). Issues a
    DegeneracyWarning (and flags the result) when two symplectic eigenvalues
    coincide within tolerance; the decomposition itself remains valid.
    """
    v, scale, n_modes = _validated_modes(v, tol)
    if phases is not None and len(phases) != n_modes:
        raise ValueError(f"expected {n_modes} phases, got {len(phases)}")
    inv_root = _inv_sqrt(v, tol._cut(scale))
    skew = _skew_kernel(inv_root, n_modes)
    # X is in units of 1/V, so its singularity cut is relative only: tol.abs is in V's units.
    o, a_asc = _block_rotation(skew, n_modes, tol, tol.rel * float(np.abs(skew).max()), phases)

    # Ascending nu = 1/a means descending a: reverse the order of the 2-row
    # blocks (an even permutation, hence still a proper rotation).
    r = o.reshape(n_modes, 2, -1)[::-1].reshape(o.shape)
    nu = [1.0 / a for a in reversed(a_asc)]
    nus = np.array(nu)
    nu_pairs = nus.repeat(2)
    w = np.diag(nu_pairs)
    s = np.sqrt(nu_pairs)[:, None] * (r @ inv_root)

    det_r = float(np.linalg.det(r))
    if abs(det_r - 1.0) > 100.0 * tol.band(1.0):
        raise InternalInconsistency(f"rotation determinant {det_r!r} is not +1")
    reference = _spectrum_general(v, n_modes, tol)
    if max(abs(x - y) for x, y in zip(nu, reference)) > 1e-8 * max(reference):
        raise InternalInconsistency(
            f"eigenvector route spectrum {nus} disagrees with "
            f"product-eigenvalue route {np.array(reference)}")

    # nu scales with V, and the gaps' rounding with max nu: like X's cut, this one is relative only.
    degenerate = n_modes > 1 and min(y - x for x, y in zip(nu, nu[1:])) <= tol.rel * nu[-1]
    if degenerate:
        warnings.warn(DegeneracyWarning(
            "symplectic spectrum is degenerate within tolerance; the "
            "decomposition is valid but the rotation is not unique"),
            stacklevel=2)
    return WilliamsonDecomposition(normal_form=w, transform=s, rotation=r,
                                   skew=skew, spectrum=nus,
                                   degenerate=degenerate)

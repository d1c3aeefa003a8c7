r"""Williamson normal form of positive definite matrices on 2n modes.

Every symmetric positive definite V of even dimension admits a symplectic S
with S V S^T = W = diag(nu_1, nu_1, ..., nu_n, nu_n); the nu_k are the
symplectic eigenvalues. The constructive route used here:

1. form the inverse square root V^{-1/2} (orthogonal diagonalization),
2. build the antisymmetric X = V^{-1/2} Omega V^{-1/2},
3. find a rotation O block-rotating X into (+)_k a_k omega. Two modes take it in closed form on X's
   upper entries as Python floats: so(4) = so(3) + so(3) splits X = L_u + R_w into left and right
   multiplications by pure quaternions, and O = L_p R_conj(q) turns u and w onto -i
   (``_isoclinic_rotation``). Three or more take it from the eigenvectors p_k of X with eigenvalue
   +i a_k (those of the Hermitian iX with eigenvalue -a_k, in eigh's order: a descending): rows 2k
   and 2k+1 of O are sqrt(2) (-Im p_k)^T and sqrt(2) (Re p_k)^T, real by construction,
4. assemble S = W^{1/2} R V^{-1/2} with nu_k = 1/a_k ascending and R = O.

Each call validates its input once. Two modes make one LAPACK call, eigh of V; three or more
make two, eigh of V and eigh of iX. One mode makes none: X = omega/nu is already in block form,
R = I, and nu = sqrt(det V) and S = sqrt(nu) V^(-1/2) are ``invariants._single_mode``'s closed
form. Outside max |v_ij| in [2^-510, 2^512) V / 4^j is decomposed (``symplectic._power_of_four``).
X is formed only to be rotated (``build_x`` returns it); V whose X would pass float64, read off
its scale a_max = 1/nu_min, is a NumericalError, as nu_min would then be subnormal.

S is certified on V / 4^j by its defining identities: E_F = S F S^T - T_F, (F, T_F) = (Omega,
Omega) and (V, W), must meet max |E_F| <= u ((2d + 1) max(|S| |F| |S|^T) + 32 d kappa max |T_F|),
d = 2n, kappa = cond V (one mode's is (nu/lambda_-)^2), or InternalInconsistency names it
(``standard_form._certify``, which the standard form calls with its own error term). The
first term is the rounding of the products (Higham, Accuracy and Stability of Numerical
Algorithms, ch. 3), the second the decomposition's: eigh(V) is backward stable in norm only, so
V^(-1/2) V V^(-1/2) = I + O(u kappa), X is formed to O(u / lambda_min), and W^(1/2) scales both by
nu_max <= lambda_max. Scaled by T_F, not by the product, which grows like kappa on squeezed V, it
catches a 1% error in nu up to kappa = 0.01 / (32 d u), 7.0e11 for two modes: that is the reach of
eigh(V), also the positivity check, which refuses V past it as NotPositiveDefinite at every
tolerance (``invariants._require_in_reach``). Then R is orthogonal and det R = prod a_k / Pf X = +1.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (DegeneracyWarning, InternalInconsistency, NumericalError, PairingError,
                     SingularInput, SymmetryError)
from .invariants import _U, _block_min_eig, _require_in_reach, _single_mode, _validated_modes
from .standard_form import _certify, _symmetric_sandwich
from .symplectic import (DEFAULT_TOL, Tolerance, _checked, _mode_count, _omega_form,
                         _power_of_four, _read, _require_positive_definite, _symmetric_scale,
                         as_matrix)

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
    spectrum: the nu_k, ascending, one entry per mode.
    degenerate: true when two symplectic eigenvalues coincide within
        tolerance (the decomposition is then valid but not unique up to
        local rotations only).
    """

    normal_form: np.ndarray
    transform: np.ndarray
    rotation: np.ndarray
    spectrum: np.ndarray
    degenerate: bool


def inv_sqrt(v, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Symmetric M with M V M = I for symmetric positive definite V; a 2x2 takes the one block
    test and the one-mode closed form, M = S / sqrt(a) with S = sqrt(a) V^(-1/2)."""
    v, rows, flat = _read(v)
    _symmetric_scale(v, rows, flat, tol)
    if len(rows) != 2:
        return _inv_sqrt(v)[0]
    s, a = _single_mode(rows, 0, _require_positive_definite(*_block_min_eig(rows, 0)))
    return np.array(s).reshape(2, 2) / math.sqrt(a)


def _inv_sqrt(v: np.ndarray, f: float = 1.0) -> tuple[np.ndarray, float]:
    """Core of ``inv_sqrt``: (V^(-1/2), cond V). eigh(V) is also the positivity check, which
    reads no tolerance: f V must be within the certificate's reach, cond V <= 0.01 / (32 d u),
    past which its cond V term no longer catches a 1% error in nu (``_require_in_reach``)."""
    evals, q = _eigh(v)
    _require_in_reach(evals, f)
    m = (q / np.sqrt(evals)) @ q.T
    return (m + m.T) / 2.0, float(evals[-1]) / float(evals[0])


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh``; LAPACK's failure to converge is a NumericalError, not bad input."""
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from None


def _skew_kernel(inv_root: np.ndarray, n_modes: int) -> np.ndarray:
    """X = (x - x^T)/2, x = M Omega M; NumericalError, not warnings, on overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        x = inv_root @ _omega_form(n_modes) @ inv_root
        skew = (x - x.T) / 2.0
    if not float(np.abs(skew).max()) < math.inf:  # NaN too
        raise NumericalError("X = V^(-1/2) Omega V^(-1/2) overflows float64")
    return skew


def build_x(v, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """The antisymmetric V^(-1/2) Omega V^(-1/2) for positive definite V."""
    v, _, _, n_modes = _checked(v, tol)
    return _skew_kernel(_inv_sqrt(v)[0], n_modes)


def skew_block_rotation(xs, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Rotation block-diagonalizing a nonsingular antisymmetric Xs, through eigh of i Xs.

    Returns (o, a) with o @ Xs @ o.T = (+)_k a_k omega, the a_k positive and ascending, and
    det o = sign Pf Xs, as Pf(o Xs o^T) = det o Pf Xs = prod a_k > 0: o is proper for every
    Xs = V^(-1/2) Omega V^(-1/2), whose Pfaffian is det V^(-1/2) > 0. The
    eigenvectors of Xs come in conjugate pairs (p, conj(p)) with eigenvalues (+i a, -i a).
    Orthonormality of the pair makes Re p and Im p orthogonal with norm 1/sqrt(2) each, and Xs
    maps Re p to a (-Im p) and -Im p to -a Re p. So the rows sqrt(2) (-Im p_k)^T, sqrt(2)
    (Re p_k)^T form a real orthogonal o for any eigenbasis, which o's Gram matrix checks.
    """
    xs = as_matrix(xs)
    n_modes = _mode_count(xs)
    anti_residual = float(np.abs(xs + xs.T).max())
    cut = tol._cut(float(np.abs(xs).max()))
    if anti_residual > cut:
        raise SymmetryError(f"matrix is not antisymmetric (max |X + X^T| = {anti_residual:.3e})")
    o, a_desc = _block_rotation(xs, n_modes, cut)
    ortho_residual = float(np.abs(o @ o.T - np.eye(len(o))).max())
    # eigh's orthonormality and the Gram product's rounding err by a few d u, and Re p, Im p by
    # about u a_max/a_min, at most cond V for X from V: measured, at most 5.5 d u (a_max/a_min
    # near 1) and 3.6 u a_max/a_min (above 10), over 53,692 draws with n = 2-8, none past 0.35.
    if ortho_residual > _U * (8.0 * len(o) + 32.0 * a_desc[0] / a_desc[-1]):
        raise InternalInconsistency(
            f"assembled rotation departs from orthogonality by {ortho_residual:.3e}")
    return o.reshape(n_modes, 2, -1)[::-1].reshape(o.shape), np.array(a_desc[::-1])


def _block_rotation(xs: np.ndarray, n_modes: int, cut: float) -> tuple[np.ndarray, list]:
    """Core of ``skew_block_rotation`` on a validated antisymmetric xs, in eigh's order: a comes
    descending, as a list, and o's 2-row blocks with it."""
    # i*Xs is Hermitian; its eigenvalue -a pairs with the Xs eigenvalue +ia. eigh is backward
    # stable: each pair's sum errs by O(d u a_max), at most 2.9 d u a_max on the squeezing grid,
    # the benchmark's n >= 2 ops of seeds 1-40 and 10,000 draws to cond V 1e12, against 8.
    evals, vecs = _eigh(1j * xs)
    ev = evals.tolist()
    neg, pos = ev[:n_modes], ev[n_modes:]
    dim = 2 * n_modes
    if max(abs(x + y) for x, y in zip(neg[::-1], pos)) > 8.0 * dim * _U * max(-ev[0], ev[-1]):
        raise PairingError(f"eigenvalues do not split into conjugate pairs: {evals}")
    a_desc = [-x for x in neg]  # descending since eigh sorts ascending
    if a_desc[-1] <= cut:
        raise SingularInput(
            f"antisymmetric matrix is singular to tolerance "
            f"(smallest pair magnitude {a_desc[-1]:.3e})")

    # Only p_k is read: its partner conj(p_k) is implied, which keeps the pairing
    # exact under degeneracy. vecs views as (Re, Im) float pairs; parts[k] = (Im p_k, Re p_k).
    parts = vecs.view(float).reshape(dim, dim, 2)[:, :n_modes, ::-1].transpose(1, 2, 0)
    return np.multiply(parts, _ROW_SCALES, order="C").reshape(dim, dim), a_desc


def _half_way(u1: float, u2: float, u3: float, norm: float) -> tuple:
    """Unit quaternion p with p u conj(p) = -norm i for the pure quaternion u of length
    ``norm`` > 0: the half-way quaternion between u / norm and -i, or, for u nearer +i, the one
    between u / norm and +i followed by k, a half turn about k, so that no part cancels."""
    p = (norm - u1, 0.0, -u3, u2) if u1 <= 0.0 else (u2, -u3, 0.0, norm + u1)
    h = math.hypot(*p)
    return p[0] / h, p[1] / h, p[2] / h, p[3] / h


def _isoclinic_rotation(upper: tuple) -> tuple[np.ndarray, list]:
    """Two modes' ``_block_rotation`` in closed form on ``upper``, X's (x01, x02, x03, x12, x13,
    x23) as Python floats: (R, [a_max, a_min]) with R X R^T = a_max omega (+) a_min omega. X =
    L_u + R_w, the left and right multiplications by pure quaternions u and w (so(4) = so(3) +
    so(3)), and R = L_p R_conj(q), which maps it to L_(p u conj(p)) + R_(q w conj(q)), is proper
    for every unit p and q: p and q turn u and w onto -i, and then a = |u| +- |w|. q = 1 where
    w = 0, a degenerate spectrum. a_min is Pf X / a_max, Pf X = |u|^2 - |w|^2 = det V^(-1/2). X
    is read over 2^e with max |x_ij| in [1/2, 1), so that |u|, |w| and Pf X stay in range."""
    x01, x02, x03, x12, x13, x23 = upper
    e = math.frexp(max(abs(x01), abs(x02), abs(x03), abs(x12), abs(x13), abs(x23)))[1]
    t = math.ldexp(1.0, -e)
    x01, x02, x03, x12, x13, x23 = x01 * t, x02 * t, x03 * t, x12 * t, x13 * t, x23 * t
    u = (-(x01 + x23) / 2.0, (x13 - x02) / 2.0, -(x03 + x12) / 2.0)
    w = ((x23 - x01) / 2.0, -(x02 + x13) / 2.0, (x12 - x03) / 2.0)
    u_norm, w_norm = math.hypot(*u), math.hypot(*w)
    a_max = u_norm + w_norm
    a_min = min((x01 * x23 - x02 * x13 + x03 * x12) / a_max, a_max)  # as |u| - |w|; NaN stays
    if not a_min > 0.0:
        raise SingularInput(f"antisymmetric matrix is singular (smallest pair magnitude "
                            f"{math.ldexp(a_min, e):.3e})")
    p0, p1, p2, p3 = _half_way(*u, u_norm)
    q0, q1, q2, q3 = _half_way(*w, w_norm) if w_norm > 0.0 else (1.0, 0.0, 0.0, 0.0)
    left = np.array((p0, -p1, -p2, -p3, p1, p0, -p3, p2, p2, p3, p0, -p1, p3, -p2, p1, p0))
    right = np.array((q0, q1, q2, q3, -q1, q0, -q3, q2, -q2, q3, q0, -q1, -q3, -q2, q1, q0))
    return left.reshape(4, 4) @ right.reshape(4, 4), [math.ldexp(a_max, e), math.ldexp(a_min, e)]


def _one_mode(rows: list, f: float) -> tuple[list, np.ndarray, np.ndarray]:
    """One mode in closed form on V's rows, returned as ``_many_modes`` returns V/f: (nu/f as a
    list, R = I, S = sqrt(nu) V^(-1/2)), certified on v = V/f in Python floats, faster here
    than numpy: S v S^T is a symmetric sandwich, and S omega S^T = (det S) omega."""
    min_eig = _require_positive_definite(*_block_min_eig(rows, 0))
    s, nu = _single_mode(rows, 0, min_eig)
    (s00, s01, s10, s11), w = s, nu / f
    p, q, r = rows[0][0] / f, rows[1][0] / f, rows[1][1] / f
    c0, c1, c2 = _symmetric_sandwich(s, p, q, r)
    g = 32.0 * 2 * ((nu / min_eig) * (nu / min_eig))  # 32 d kappa, d = 2
    _certify((abs(s00 * s11 - s01 * s10 - 1.0), max(abs(c0 - w), abs(c1), abs(c2 - w))),
             (abs(s00 * s11) + abs(s01 * s10),
              max(_symmetric_sandwich(tuple(map(abs, s)), p, abs(q), r))), 2, (g, g * w))
    return [w], np.eye(2), np.array(s).reshape(2, 2)


def _many_modes(v: np.ndarray, n_modes: int, f: float) -> tuple[list, np.ndarray, np.ndarray]:
    """Two or more modes on v = V/f: (nu, R, S) of v, certified on v. X is formed only to be
    rotated: two modes in closed form on its upper floats, more through the eigenvectors of iX."""
    inv_root, kappa = _inv_sqrt(v, f)
    # Within reach a_min / a_max >= 1/kappa, far above rounding: X's singularity cut is 0.
    # a comes descending, so nu = 1/a ascends, and R is the rotation as it comes.
    if n_modes == 2:
        # v within reach has lambda_min > 3200 d u lambda_max >= 2^-550, as max |v_ij| >= 2^-510
        # after the 4^j prescale, so |x_ij| < 2^553: the product needs no overflow guard.
        (_, x01, x02, x03), (x10, _, x12, x13), (x20, x21, _, x23), (x30, x31, x32, _) = (
            inv_root @ _omega_form(2) @ inv_root).tolist()
        # numpy's (x - x^T) / 2 entry by entry, signed zeros too; the diagonal is 0 for finite x.
        upper = ((x01 - x10) / 2.0, (x02 - x20) / 2.0, (x03 - x30) / 2.0, (x12 - x21) / 2.0,
                 (x13 - x31) / 2.0, (x23 - x32) / 2.0)
        if not math.isfinite(sum(upper)):  # NaN too; terms below 2^553 sum finite
            raise NumericalError("X = V^(-1/2) Omega V^(-1/2) overflows float64")
        r, a_desc = _isoclinic_rotation(upper)
    else:
        r, a_desc = _block_rotation(_skew_kernel(inv_root, n_modes), n_modes, 0.0)
    nu = [1.0 / a for a in a_desc]
    nus = np.array(nu).repeat(2)
    s = np.sqrt(nus)[:, None] * (r @ inv_root)
    # One batched product, out[i, j] = L_i F_ij L_i^T: L = (S, |S|), F = ((Omega, V), |F_0j|).
    dim, omega = 2 * n_modes, _omega_form(n_modes)
    left = np.array((s, np.abs(s)))[:, None]
    out = left @ np.array(((omega, v), (np.abs(omega), np.abs(v)))) @ left.transpose(0, 1, 3, 2)
    out[0, 0] -= omega
    out[0, 1].flat[::dim + 1] -= nus
    g = 32.0 * dim * kappa
    _certify(*np.abs(out).max(axis=(2, 3)).tolist(), dim, (g, g * nu[-1]))
    return nu, r, s


def williamson_decompose(v, tol: Tolerance = DEFAULT_TOL) -> WilliamsonDecomposition:
    """Full Williamson decomposition of a symmetric positive definite V.

    Computes W, the symplectic S with S V S^T = W and S Omega S^T = Omega, both certified, and
    the proper rotation R with S = W^(1/2) R V^(-1/2). Issues a DegeneracyWarning (and flags the
    result) when two symplectic eigenvalues coincide within tolerance; the decomposition itself
    remains valid.
    """
    v, rows, scale, n_modes = _validated_modes(v, tol)
    # Far from unit scale X leaves float64's range and LAPACK rescales V by factors that are not
    # powers of two: decompose V/f, f = 4^j; nu scales back exactly, S and R do not move.
    f = _power_of_four(scale)
    if f != 1.0:
        v = v / f
    nu, r, s = _one_mode(rows, f) if n_modes == 1 else _many_modes(v, n_modes, f)

    # nu scales with V, and the gaps' rounding with max nu: this cut is relative only.
    degenerate = n_modes > 1 and min(y - x for x, y in zip(nu, nu[1:])) <= tol.rel * nu[-1]
    # X's scale in units of 1/V is a_max = 1/nu_min: past float64, nu_min f would be subnormal.
    if f < 1.0 and (1.0 / nu[0]) / f == math.inf:
        raise NumericalError(f"the scale 1/nu_min of X = V^(-1/2) Omega V^(-1/2) overflows "
                             f"float64 (nu_min = {nu[0] * f:.3e})")
    if degenerate:
        warnings.warn(DegeneracyWarning(
            "symplectic spectrum is degenerate within tolerance; the "
            "decomposition is valid but the rotation is not unique"),
            stacklevel=2)
    nus = np.array(nu) * f if f != 1.0 else np.array(nu)
    return WilliamsonDecomposition(normal_form=np.diag(nus.repeat(2)), transform=s, rotation=r,
                                   spectrum=nus, degenerate=degenerate)

r"""Symplectic-form primitives for two-mode correlation matrices.

Conventions used throughout the package:

* mode-major quadrature ordering (q1, p1, q2, p2, ...);
* hbar-scaled units in which the vacuum correlation matrix is the identity;
* the symplectic form is Omega = omega (+) omega (+) ... with
  omega = [[0, 1], [-1, 0]].

All public operations take and return plain float64 ndarrays and validate
shape, finiteness and (where required) symmetry at the boundary. For every
symmetric 2n x 2n input that boundary is one function, ``_checked``, which reads
V once as floats and hands the rows on; only the operations that accept odd
squares or need no symmetry keep their own.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DimensionError, NonFiniteError, NonRealError, NotPositiveDefinite, SymmetryError

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "MAX_MODES",
    "TwoModeBlocks",
    "omega",
    "rotation",
    "squeeze",
    "direct_sum",
    "is_symplectic",
    "congruence",
    "blocks",
    "partial_transpose",
    "as_matrix",
    "require_symmetric",
    "symmetric_part",
]


@dataclass(frozen=True, slots=True)
class Tolerance:
    """Comparison tolerances, applied as ``abs + rel * scale``.

    ``scale`` is the largest absolute element of the operand (a cheap proxy
    for its spectral scale, adequate at the 4x4 sizes this package targets).
    It is read once per validated matrix, from the floats the input boundary
    reads and hands on, and every later cut is formed from floats already read,
    never by a second scan. A block's cut reads all of its entries.
    """

    rel: float = 1e-9
    abs: float = 1e-12

    def __post_init__(self):
        if not (0.0 <= self.rel < math.inf and 0.0 <= self.abs < math.inf):  # NaN fails too
            raise ValueError(f"tolerances must be finite and nonnegative, got rel={self.rel}, "
                             f"abs={self.abs}")

    def threshold(self, *operands: np.ndarray) -> float:
        """Absolute comparison threshold for the given matrix operands."""
        scale = 0.0
        for m in operands:
            m = np.asarray(m)
            if m.size:
                scale = max(scale, float(np.abs(m).max()))
        return self._cut(scale)

    def _cut(self, scale: float) -> float:
        """The comparison threshold for operands whose largest |element| is ``scale``."""
        return self.abs + self.rel * scale

    def band(self, *values: float) -> float:
        """Threshold for scalar margin comparisons; scale floor of 1, NaN and +-inf skipped."""
        scale = 1.0
        for v in values:
            if scale < (a := abs(float(v))) < math.inf:  # NaN fails both tests, +-inf the second
                scale = a
        return self.abs + self.rel * scale


DEFAULT_TOL = Tolerance()

# Ambient cap for the general spectrum; everything here is desk-scale.
MAX_MODES = 8

_OMEGA2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _read(m) -> tuple[np.ndarray, list, list]:
    """``as_matrix``'s checks on one read of the entries as floats: (array, rows, entries)."""
    if isinstance(m, np.ndarray) and m.dtype.kind == "c":  # float64 keeps only the real part
        raise NonRealError(f"expected a real matrix, got dtype {m.dtype}")
    arr = np.array(m, dtype=float, copy=True)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
    if not arr.size:
        raise DimensionError("expected a nonempty matrix, got shape (0, 0)")
    rows = arr.tolist()
    flat = list(chain.from_iterable(rows))
    if not all(map(math.isfinite, flat)):
        raise NonFiniteError("matrix contains NaN or infinite entries")
    return arr, rows, flat


def as_matrix(m) -> np.ndarray:
    """Validate and return ``m`` as a square float64 matrix.

    Raises NonRealError for a complex array, DimensionError for anything that is not a nonempty
    square 2D array and NonFiniteError if any entry is NaN or infinite.
    """
    return _read(m)[0]


def symmetric_part(m: np.ndarray) -> np.ndarray:
    return (m + m.T) / 2


def _symmetric_scale(rows: list, flat: list, tol: Tolerance, what: str = "matrix") -> float:
    """``require_symmetric`` on the finite entries of a square matrix, as read by ``_read``."""
    scale = max(map(abs, flat))
    flat_t = list(chain.from_iterable(zip(*rows)))  # m_ji in the order of m_ij
    gap = 0.0 if flat == flat_t else max(abs(x - y) for x, y in zip(flat, flat_t))
    if gap > tol._cut(scale):
        raise SymmetryError(f"{what} is not symmetric: max |M - M^T| = {gap:.3e}")
    return scale


def require_symmetric(m: np.ndarray, tol: Tolerance = DEFAULT_TOL, what: str = "matrix") -> float:
    """Raise SymmetryError unless the square ``m`` is symmetric within tolerance; return its
    scale, max |m_ij|. With a NaN or infinite entry ``m`` passes, and the scale is NaN or inf."""
    try:
        return _symmetric_scale(*_read(m)[1:], tol, what) if m.size else 0.0
    except NonFiniteError:
        return float(np.abs(m).max())


def _require_positive_definite(min_eig: float, cut: float, what: str = "matrix") -> None:
    """Raise NotPositiveDefinite unless the smallest eigenvalue exceeds ``cut``."""
    if min_eig <= cut:
        raise NotPositiveDefinite(
            f"{what} is not positive definite (min eigenvalue {min_eig:.3e})",
            min_eig=float(min_eig))


def _mode_count(m: np.ndarray) -> int:
    """Number of modes of an ``as_matrix`` result; its dimension must be even."""
    dim = m.shape[0]
    if dim % 2:
        raise DimensionError(f"dimension must be even, got {dim}")
    return dim // 2


def _checked(m, tol: Tolerance, modes: int | None = None,
             what: str = "matrix") -> tuple[np.ndarray, list, float, int]:
    """The input boundary: ``as_matrix``, a dimension of 2 * ``modes`` (any even one when None)
    and ``require_symmetric`` on one float read; returns (m, rows, max |m_ij|, modes)."""
    m, rows, flat = _read(m)
    if modes is None:
        modes = _mode_count(m)
    elif m.shape[0] != 2 * modes:
        raise DimensionError(f"expected a {2 * modes}x{2 * modes} {what}, got shape {m.shape}")
    return m, rows, _symmetric_scale(rows, flat, tol, what), modes


def omega(n_modes: int) -> np.ndarray:
    """Symplectic form for ``n_modes`` modes in mode-major ordering.

    Parameters
    ----------
    n_modes : int
        Number of modes, at least 1.

    Returns
    -------
    ndarray
        The 2n x 2n block-diagonal antisymmetric matrix (+)_k omega with
        omega = [[0, 1], [-1, 0]]; satisfies Omega^2 = -I and det Omega = 1.
    """
    if n_modes < 1:
        raise DimensionError("n_modes must be a positive integer")
    return np.kron(np.eye(n_modes), _OMEGA2)


@functools.lru_cache(maxsize=2 * MAX_MODES)
def _omega_form(n_modes: int, factor: complex = 1.0) -> np.ndarray:
    """Cached ``factor * omega(n_modes)`` (1j for V + i Omega); shared, so read-only."""
    form = factor * omega(n_modes)
    form.flags.writeable = False
    return form


def rotation(angle: float) -> np.ndarray:
    """Single-mode phase rotation [[cos, -sin], [sin, cos]]."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def squeeze(xi: float) -> np.ndarray:
    """Single-mode squeezing matrix diag(sqrt(xi), 1/sqrt(xi)), xi > 0."""
    if xi <= 0:
        raise ValueError("squeezing parameter must be positive")
    r = np.sqrt(xi)
    return np.diag([r, 1.0 / r])


def direct_sum(*mats: np.ndarray) -> np.ndarray:
    """Block-diagonal direct sum of square matrices."""
    dims = [m.shape[0] for m in mats]
    out = np.zeros((sum(dims), sum(dims)))
    pos = 0
    for m, d in zip(mats, dims):
        out[pos:pos + d, pos:pos + d] = m
        pos += d
    return out


def is_symplectic(s, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether ``s`` preserves the symplectic form, S Omega S^T = Omega.

    In the 2x2 case this is equivalent to det S = 1.
    """
    s = as_matrix(s)
    n = _mode_count(s)
    form = omega(n)
    product = s @ form @ s.T
    return float(np.max(np.abs(product - form))) <= tol.threshold(product)


def congruence(v, s) -> np.ndarray:
    """Transport of a correlation matrix, V -> S V S^T.

    The result is explicitly re-symmetrized as (M + M^T)/2 so that chained
    congruences cannot drift away from symmetry; callers transporting
    non-symmetric matrices should form the product themselves.
    """
    v = as_matrix(v)
    s = as_matrix(s)
    if v.shape != s.shape:
        raise DimensionError(
            f"incompatible shapes {v.shape} and {s.shape} for congruence")
    return symmetric_part(s @ v @ s.T)


@dataclass(frozen=True, slots=True)
class TwoModeBlocks:
    """2x2 blocks of a two-mode correlation matrix [[A, C], [C^T, B]]."""

    a: np.ndarray  # mode-1 diagonal block
    b: np.ndarray  # mode-2 diagonal block
    c: np.ndarray  # cross-correlation block (mode-1 rows, mode-2 columns)

    def matrix(self) -> np.ndarray:
        """Reassemble the 4x4 matrix [[A, C], [C^T, B]]."""
        return np.block([[self.a, self.c], [self.c.T, self.b]])


def blocks(v, tol: Tolerance = DEFAULT_TOL) -> TwoModeBlocks:
    """Split a symmetric 4x4 matrix into its two-mode blocks.

    For exactly symmetric input ``TwoModeBlocks.matrix`` reproduces the
    source bit for bit.
    """
    v = _checked(v, tol, 2)[0]
    return TwoModeBlocks(v[:2, :2].copy(), v[2:, 2:].copy(), v[:2, 2:].copy())


def partial_transpose(v) -> np.ndarray:
    """Partial transpose of the second mode: V -> Lambda V Lambda.

    Lambda = diag(1, 1, 1, -1) flips the second mode's momentum (phase-space
    time reversal of that mode). Applying it twice returns the input exactly,
    and det V is unchanged.
    """
    v = as_matrix(v)
    if v.shape != (4, 4):
        raise DimensionError(f"expected a 4x4 matrix, got shape {v.shape}")
    out = v.copy()
    out[3, :] *= -1.0
    out[:, 3] *= -1.0
    return out

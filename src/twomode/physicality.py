r"""Bona fide tests: is a symmetric 4x4 matrix a physical two-mode CM?

Three independent routes are provided and must agree:

* ``heisenberg_oracle``: smallest eigenvalue of the Hermitian matrix
  V + i Omega (the uncertainty principle, works for any mode number);
* ``check_global``: V > 0, det V >= 1 and Delta <= 1 + det V;
* ``check_local``: A > 0, B > 0, Delta <= 1 + det V and
  2 sqrt(det A det B) + det C^2 <= det V + det A det B,
  evaluated directly on the blocks, never via the standard-form reduction.

Each call validates V and computes the raw invariants once, as plain floats;
each route's core then evaluates its own inequalities into one dict of
conditions and builds no record, the global one with eigvalsh(V) and
nu_-^2 = det V / nu_+^2 (Vieta form), the local one with the smaller
eigenvalue of each block from its 2x2 closed form.

Verdict policy, implemented once by ``_verdict``: each route builds one
ordered dict of its conditions, each key mapped to its ``(margin, band)``
entry in checking order. Inequality margins are inclusive (>= -band); strict
positive definiteness (the ``min_eig_*`` margins) uses > +band, and a margin
within its band of 0 flags the report as borderline. It runs once per public
call and returns the first failed key with the margins: ``check_*`` over the
bona fide conditions, each classifier in ``separability`` over a new dict of
the same entries plus its PPT condition, taking every tag from the same policy.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .invariants import SymplecticSpectrum2, _evaluate, _spectrum_from_delta
from .symplectic import DEFAULT_TOL, Tolerance, _checked, _omega_form, _read, _symmetric_scale

__all__ = [
    "BonaFideReport",
    "StandardFormEigs",
    "is_positive_definite",
    "heisenberg_oracle",
    "check_global",
    "check_local",
    "standard_form_hermitian_eigs",
]


@dataclass(frozen=True, slots=True)
class BonaFideReport:
    """Physicality verdict with per-condition margins.

    ``margins`` maps condition names to signed distances from the boundary
    (nonnegative means satisfied). ``nu_minus`` carries the equivalent
    spectral form when the matrix is positive definite (global route only).
    ``borderline`` is set when some margin sits within tolerance of 0.
    """

    verdict: bool
    route: str  # "global" or "local"
    margins: dict[str, float] = field(default_factory=dict)
    nu_minus: float | None = None
    borderline: bool = False


@dataclass(frozen=True, slots=True)
class StandardFormEigs:
    """Closed-form eigenvalues of V + i Omega for a standard-form matrix.

    Subscript (first sign) selects the inner square root, superscript
    (second sign) the outer one: lambda_pm is the minimum eigenvalue.
    """

    lambda_pp: float
    lambda_mp: float
    lambda_pm: float
    lambda_mm: float
    mu_aux: float
    nu_aux: float

    def ordered(self) -> np.ndarray:
        """The four eigenvalues in ascending order."""
        return np.sort([self.lambda_pp, self.lambda_mp, self.lambda_pm, self.lambda_mm])


def is_positive_definite(m, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Strict positive definiteness via the smallest eigenvalue.

    Decided by eigenvalue rather than a factorization success flag so the
    margin is always available; values within tolerance of 0 count as not
    positive definite.
    """
    m, rows, flat = _read(m)
    cut = tol._cut(_symmetric_scale(rows, flat, tol))
    return float(np.linalg.eigvalsh(m)[0]) > cut


def heisenberg_oracle(v, tol: Tolerance = DEFAULT_TOL) -> tuple[bool, float]:
    """Uncertainty-principle test V + i Omega >= 0 for any mode number.

    Returns ``(verdict, min_eig)`` where ``min_eig`` is the smallest
    eigenvalue of the Hermitian matrix V + i Omega; the verdict is inclusive
    at the boundary (min_eig >= -tol).
    """
    v, _, scale, n_modes = _checked(v, tol)
    min_eig = float(np.linalg.eigvalsh(v + _omega_form(n_modes, 1j))[0])
    return min_eig >= -tol._cut(scale), min_eig


def _verdict(conditions: dict[str, tuple[float, float]]
             ) -> tuple[str | None, bool, dict[str, float]]:
    """The verdict policy, one pass over a route's ``key -> (margin, band)`` conditions in
    checking order: returns ``(failed, borderline, margins)``, the first failed key or None."""
    failed, borderline, margins = None, False, {}
    for key, (margin, band) in conditions.items():
        if not (margin > band if key.startswith("min_eig_") else margin >= -band):
            failed = failed or key
        borderline = borderline or abs(margin) <= band
        margins[key] = margin
    return failed, borderline, margins


def _bona_fide_report(route: str, conditions: dict[str, tuple[float, float]],
                      nu_minus: float | None = None) -> BonaFideReport:
    """The report of a route's conditions, from one ``_verdict`` pass."""
    failed, borderline, margins = _verdict(conditions)
    return BonaFideReport(failed is None, route, margins, nu_minus, borderline)


def _global_report(v: np.ndarray, rows: list, scale: float, inv: tuple, tol: Tolerance
                   ) -> tuple[dict[str, tuple[float, float]], SymplecticSpectrum2 | None]:
    """Body of ``check_global`` on a validated matrix, rows, scale and invariants: its
    conditions and the spectrum it formed (None when V is not > 0)."""
    _, _, _, det_v, _, delta, _, _ = inv
    min_eig, cut = float(np.linalg.eigvalsh(v)[0]), tol._cut(scale)
    conditions = {"min_eig_V": (min_eig, cut), "det_V_minus_1": (det_v - 1.0, tol.band(det_v)),
                  "delta_margin": ((1.0 + det_v) - delta, tol.band(delta, 1.0 + det_v))}
    # V > 0 as _verdict reads min_eig_V; the closed form presumes it.
    return conditions, _spectrum_from_delta(delta, det_v, tol, rows) if min_eig > cut else None


def check_global(v, tol: Tolerance = DEFAULT_TOL) -> BonaFideReport:
    """Global bona fide conditions: V > 0, det V >= 1, Delta <= 1 + det V."""
    conditions, spec = _global_report(*_evaluate(v, tol), tol)
    return _bona_fide_report("global", conditions, None if spec is None else spec.nu_minus)


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


def _local_report(rows: list, inv: tuple, tol: Tolerance) -> dict[str, tuple[float, float]]:
    """Body of ``check_local`` on a validated matrix's rows and its invariants: its conditions."""
    det_a, det_b, det_c, det_v, _, delta, _, _ = inv
    # det A det B >= 0 whenever both blocks pass positivity; the clamp only
    # keeps the margin finite on inputs that already failed.
    prod = max(det_a * det_b, 0.0)
    return {"min_eig_A": _block_min_eig(rows, 0, tol), "min_eig_B": _block_min_eig(rows, 2, tol),
            "delta_margin": ((1.0 + det_v) - delta, tol.band(delta, 1.0 + det_v)),
            "block_margin": ((det_v + det_a * det_b) - (2.0 * math.sqrt(prod) + det_c**2),
                             tol.band(det_v, det_a * det_b, det_c**2))}


def check_local(v, tol: Tolerance = DEFAULT_TOL) -> BonaFideReport:
    """Local bona fide conditions evaluated on the blocks of V.

    A > 0, B > 0, Delta <= 1 + det V and the block inequality
    2 sqrt(det A det B) + det C^2 <= det V + det A det B. Equivalent to the
    global conditions; kept free of any standard-form reduction so the two
    routes stay independent.
    """
    _, rows, _, inv = _evaluate(v, tol)
    return _bona_fide_report("local", _local_report(rows, inv, tol))


def standard_form_hermitian_eigs(a: float, b: float, c_plus: float,
                                 c_minus: float) -> StandardFormEigs:
    r"""Closed-form spectrum of V + i Omega for a standard-form matrix.

    With mu = 4 + (a-b)^2 + 2(c+^2 + c-^2) and
    nu = 4(a-b)^2 + (c+ + c-)^2 [4 + (c+ - c-)^2], the four eigenvalues are

        2 lambda_(+-)^(+) = a + b + sqrt(mu +- 2 sqrt(nu))
        2 lambda_(+-)^(-) = a + b - sqrt(mu +- 2 sqrt(nu))

    mu >= 4 and nu >= 0 for every real quadruple; tiny negative radicands
    from roundoff are clamped to 0.
    """
    mu = 4.0 + (a - b) ** 2 + 2.0 * (c_plus**2 + c_minus**2)
    nu = 4.0 * (a - b) ** 2 + (c_plus + c_minus) ** 2 * (4.0 + (c_plus - c_minus) ** 2)
    outer_p = np.sqrt(max(mu + 2.0 * np.sqrt(max(nu, 0.0)), 0.0))
    outer_m = np.sqrt(max(mu - 2.0 * np.sqrt(max(nu, 0.0)), 0.0))
    s = a + b
    return StandardFormEigs(
        lambda_pp=(s + outer_p) / 2.0,
        lambda_mp=(s + outer_m) / 2.0,
        lambda_pm=(s - outer_p) / 2.0,
        lambda_mm=(s - outer_m) / 2.0,
        mu_aux=float(mu),
        nu_aux=float(nu),
    )

r"""Bona fide tests: is a symmetric 4x4 matrix a physical two-mode CM?

Three independent routes are provided and must agree:

* ``heisenberg_oracle``: smallest eigenvalue of the Hermitian matrix
  V + i Omega (the uncertainty principle, works for any mode number);
* ``check_global``: V > 0, det V >= 1 and Delta <= 1 + det V;
* ``check_local``: A > 0, B > 0, Delta <= 1 + det V and
  2 sqrt(det A det B) + det C^2 <= det V + det A det B,
  evaluated directly on the blocks, never via the standard-form reduction.

Each call validates V and computes the raw invariants once; each route then
evaluates its own inequalities, the global one with eigvalsh(V) and
nu_-^2 = det V / nu_+^2 (Vieta form), the local one with the smaller
eigenvalue of each block from its 2x2 closed form.

Verdict policy, implemented once by ``_verdict``: each route builds its
margins and, beside them, one band per condition. Inequality margins are
inclusive (>= -band); strict positive definiteness (the ``min_eig_*``
margins) uses > +band, and a margin within its band of 0 flags the report
as borderline.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .invariants import SymplecticSpectrum2, TwoModeInvariants, _evaluate, _spectrum_from_delta
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


def _verdict(margins: dict[str, float], bands: dict[str, float]) -> tuple[bool, bool, list[str]]:
    """The verdict policy over the conditions in ``bands``: returns
    ``(verdict, borderline, failed)``, the failed conditions in band order."""
    failed, borderline = [], False
    for key, band in bands.items():
        if not (margins[key] > band if key.startswith("min_eig_") else margins[key] >= -band):
            failed.append(key)
        borderline = borderline or abs(margins[key]) <= band
    return not failed, borderline, failed


def _global_report(v: np.ndarray, rows: list, scale: float, inv: TwoModeInvariants, tol: Tolerance
                   ) -> tuple[BonaFideReport, dict[str, float], SymplecticSpectrum2 | None]:
    """Body of ``check_global`` on a validated matrix, rows, scale and invariants, with bands
    and the spectrum it formed (None when V is not > 0)."""
    margins = {
        "min_eig_V": float(np.linalg.eigvalsh(v)[0]),
        "det_V_minus_1": inv.det_V - 1.0,
        "delta_margin": (1.0 + inv.det_V) - inv.delta,
    }
    bands = {"min_eig_V": tol._cut(scale), "det_V_minus_1": tol.band(inv.det_V),
             "delta_margin": tol.band(inv.delta, 1.0 + inv.det_V)}
    verdict, borderline, failed = _verdict(margins, bands)
    spec = None if "min_eig_V" in failed else _spectrum_from_delta(inv.delta, inv.det_V, tol, rows)
    report = BonaFideReport(verdict=verdict, route="global", margins=margins,
                            nu_minus=spec.nu_minus if spec else None, borderline=borderline)
    return report, bands, spec


def check_global(v, tol: Tolerance = DEFAULT_TOL) -> BonaFideReport:
    """Global bona fide conditions: V > 0, det V >= 1, Delta <= 1 + det V."""
    return _global_report(*_evaluate(v, tol), tol)[0]


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


def _local_report(rows: list, inv: TwoModeInvariants, tol: Tolerance
                  ) -> tuple[BonaFideReport, dict[str, float]]:
    """Body of ``check_local`` on a validated matrix's rows and its invariants, with each band."""
    # det A det B >= 0 whenever both blocks pass positivity; the clamp only
    # keeps the margin finite on inputs that already failed.
    prod = max(inv.det_A * inv.det_B, 0.0)
    block_margin = (inv.det_V + inv.det_A * inv.det_B) - (2.0 * math.sqrt(prod) + inv.det_C**2)
    margins = {
        # Each block's lower triangle, the one eigvalsh reads: V is symmetric
        # only within tolerance.
        "min_eig_A": _min_eig_2x2(rows[0][0], rows[1][0], rows[1][1]),
        "min_eig_B": _min_eig_2x2(rows[2][2], rows[3][2], rows[3][3]),
        "delta_margin": (1.0 + inv.det_V) - inv.delta,
        "block_margin": block_margin,
    }
    bands = {"min_eig_A": tol._cut(max(map(abs, rows[0][:2] + rows[1][:2]))),
             "min_eig_B": tol._cut(max(map(abs, rows[2][2:] + rows[3][2:]))),
             "delta_margin": tol.band(inv.delta, 1.0 + inv.det_V),
             "block_margin": tol.band(inv.det_V, inv.det_A * inv.det_B, inv.det_C**2)}
    verdict, borderline, _ = _verdict(margins, bands)
    return BonaFideReport(verdict=verdict, route="local", margins=margins,
                          borderline=borderline), bands


def check_local(v, tol: Tolerance = DEFAULT_TOL) -> BonaFideReport:
    """Local bona fide conditions evaluated on the blocks of V.

    A > 0, B > 0, Delta <= 1 + det V and the block inequality
    2 sqrt(det A det B) + det C^2 <= det V + det A det B. Equivalent to the
    global conditions; kept free of any standard-form reduction so the two
    routes stay independent.
    """
    _, rows, _, inv = _evaluate(v, tol)
    return _local_report(rows, inv, tol)[0]


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

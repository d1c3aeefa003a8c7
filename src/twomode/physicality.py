r"""Bona fide tests: is a symmetric 4x4 matrix a physical two-mode CM?

Three independent routes are provided and must agree:

* ``heisenberg_oracle``: smallest eigenvalue of the Hermitian matrix
  V + i Omega (the uncertainty principle, works for any mode number);
* ``check_global``: V > 0, det V >= 1 and Delta <= 1 + det V;
* ``check_local``: A > 0, B > 0, Delta <= 1 + det V and
  2 sqrt(det A det B) + det C^2 <= det V + det A det B,
  evaluated directly on the blocks, never via the standard-form reduction.

Each call validates V and computes the raw invariants once, as plain floats,
with V > 0 by Sylvester's minors and det V certified: neither route calls LAPACK.
Each route's core then evaluates its own inequalities into one dict of
conditions and builds no record: the global one with that Sylvester margin and
nu_-^2 = det V / nu_+^2 (Vieta form), the local one with ``_block_min_eig``, and
each entry lhs <= rhs from ``Tolerance._at_most``, the one home of each test.

Verdict policy, implemented once by ``_verdict``: each route builds one
ordered dict of its conditions, each key mapped to its ``(margin, band)``
entry in checking order. Inequality margins are inclusive (>= -band); strict
positive definiteness (the ``min_eig_*`` margins, band 0) uses > +band, and a margin
within its band of 0 flags the report as borderline. It runs once per public
call and returns the first failed key with the margins: ``check_*`` over the
bona fide conditions, each classifier in ``separability`` over a new dict of
the same entries plus its PPT condition, taking every tag from the same policy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .invariants import (SymplecticSpectrum2, _block_min_eig, _evaluate, _min_eig,
                         _spectrum_from_delta)
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
    min_eig, cut = _min_eig(m, _symmetric_scale(rows, flat, tol), tol)
    return min_eig > cut


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


def _global_report(rows: list, pivot: float, inv: tuple, tol: Tolerance
                   ) -> tuple[dict[str, tuple[float, float]], SymplecticSpectrum2 | None]:
    """Body of ``check_global`` on a validated matrix's rows, min_eig_V margin and invariants:
    its conditions and the spectrum it formed (None when V is not > 0)."""
    _, _, _, det_v, _, delta, _, _ = inv
    # min_eig_V: the smallest LDL^T pivot, strict (band 0), with lambda_min(V)'s sign.
    conditions = {"min_eig_V": (pivot, 0.0), "det_V_minus_1": tol._at_most(1.0, det_v),
                  "delta_margin": tol._at_most(delta, 1.0 + det_v)}
    # V > 0 as _verdict reads min_eig_V; the closed form presumes it.
    return conditions, _spectrum_from_delta(delta, det_v, tol, rows) if pivot > 0.0 else None


def check_global(v, tol: Tolerance = DEFAULT_TOL) -> BonaFideReport:
    """Global bona fide conditions: V > 0, det V >= 1, Delta <= 1 + det V."""
    conditions, spec = _global_report(*_evaluate(v, tol)[1:], tol)
    return _bona_fide_report("global", conditions, None if spec is None else spec.nu_minus)


def _local_report(rows: list, inv: tuple, tol: Tolerance) -> dict[str, tuple[float, float]]:
    """Body of ``check_local`` on a validated matrix's rows and its invariants: its conditions."""
    det_a, det_b, det_c, det_v, _, delta, _, _ = inv
    # det A det B >= 0 whenever both blocks pass positivity; the clamp only
    # keeps the margin finite on inputs that already failed.
    prod = max(det_a * det_b, 0.0)
    return {"min_eig_A": _block_min_eig(rows, 0), "min_eig_B": _block_min_eig(rows, 2),
            "delta_margin": tol._at_most(delta, 1.0 + det_v),
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

r"""Bona fide tests: is a symmetric 4x4 matrix a physical two-mode CM?

Three independent routes are provided and must agree:

* ``heisenberg_oracle``: smallest eigenvalue of the Hermitian matrix
  V + i Omega (the uncertainty principle, works for any mode number);
* ``check_global``: V > 0, det V >= 1 and Delta <= 1 + det V;
* ``check_local``: A > 0, B > 0, Delta <= 1 + det V and
  2 sqrt(det A det B) + det C^2 <= det V + det A det B,
  evaluated directly on the blocks, never via the standard-form reduction.

Each call validates V and computes the raw invariants once, as plain floats,
with V > 0 by Sylvester's minors: neither route calls LAPACK. Every condition,
the classifiers' in ``separability`` too, is a ``key -> (margin, band)`` entry
written once: min_eig_V and each one that reads det V in ``invariants._evaluate``,
certified against its own band, and the local route's blocks in ``_local_entries``.
Each route's tag table (``_GLOBAL``, ``_LOCAL``, ``_POSDEF``) is its one key list
in checking order, the bona fide conditions (Unphysical) first; ``check_*`` report
that prefix. Where V > 0 the global route adds the Vieta spectra of V and of its partial
transpose, nu_-^2 = det V / nu_+^2 from (Delta, det V) and from (Delta~, det V), in ``_global``.
Beside it ``_global_verdict``, the one global verdict of ``check_global``, ``classify_global``
and the CLI's classify, cross-checks nu_- >= 1 and nu~_- >= 1 against the determinant forms that
decide: a spectral value may lie on the other side of 1 only as far as Delta (Delta~) and det V,
moved by their rounding bounds and bands, move nu_- (``invariants._nu_minus_allowance``), else
InternalInconsistency, a bug, never bad input. The invariants record reads ``_global`` alone.

Verdict policy, implemented once by ``_verdict``: one pass over a route's
conditions returns the first failed key and the margins. Inequality margins are
inclusive (>= -band); strict positive definiteness (the ``min_eig_*`` margins,
band 0) uses > +band, and a bona fide margin within its band of 0 flags the
report as borderline.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InternalInconsistency, NumericalError
from .invariants import _block_min_eig, _evaluate, _nu_minus_allowance, _spectrum_from_delta
from .symplectic import (DEFAULT_TOL, Tolerance, _checked, _float, _omega_form, _read,
                         _symmetric_scale)

__all__ = [
    "BonaFideReport",
    "StandardFormEigs",
    "is_positive_definite",
    "heisenberg_oracle",
    "check_global",
    "check_local",
    "standard_form_hermitian_eigs",
]


class Tag(enum.Enum):
    """Classification outcome for a symmetric 4x4 matrix (exported by ``separability``)."""

    UNPHYSICAL = "Unphysical"
    SEPARABLE = "SeparableGaussianCM"
    ENTANGLED = "EntangledGaussianCM"


@dataclass(frozen=True, slots=True)
class BonaFideReport:
    """Physicality verdict with per-condition margins.

    ``margins`` maps condition names to signed distances from the boundary (nonnegative means
    satisfied). ``nu_minus`` carries the equivalent spectral form, cross-checked against the
    determinant form that decides, when the matrix is positive definite (global route only).
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
    """Strict positive definiteness via the smallest eigenvalue: values within tolerance of 0,
    abs + rel max |m_ij|, count as not positive definite. The public tolerance predicate keeps
    that caller-set cut; the classifiers and normal forms read none (Sylvester's exact signs, the
    block test, or the reach of Williamson's certificate on cond V)."""
    m, rows, flat = _read(m)
    cut = tol._cut(_symmetric_scale(m, rows, flat, tol))
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


# Each route's conditions in checking order (tag None: reported, never decides), then under
# None the result when none fails: its one key list. _BONA_FIDE: the Unphysical prefixes.
_GLOBAL = {"min_eig_V": (Tag.UNPHYSICAL, "V is not positive definite"),
           "det_V_minus_1": (Tag.UNPHYSICAL, "det V < 1"),
           "delta_margin": (Tag.UNPHYSICAL, "Delta > 1 + det V"),
           "delta_tilde_margin": (Tag.ENTANGLED, "partial transpose violates the uncertainty "
                                  "principle (nu~_- < 1, Delta~ > 1 + det V)"),
           None: (Tag.SEPARABLE, "partial transpose is physical (nu~_- >= 1)")}
_LOCAL = {"min_eig_A": (Tag.UNPHYSICAL, "block A is not positive definite"),
          "min_eig_B": (Tag.UNPHYSICAL, "block B is not positive definite"),
          "delta_margin": (Tag.UNPHYSICAL, "Delta > 1 + det V"),
          "block_margin": (Tag.UNPHYSICAL, "2 sqrt(det A det B) + det C^2 > det V + det A det B"),
          "gamma_margin": (Tag.ENTANGLED, "Gamma > 1 + det V with Delta <= 1 + det V "
                           "(PPT violated)"),
          "delta_tilde_margin": (None, "reported only"),
          None: (Tag.SEPARABLE, "Gamma <= 1 + det V (PPT holds)")}
_POSDEF = {"det_V_minus_1": (Tag.UNPHYSICAL, "det V < 1 (neither branch applies)"),
           "delta_margin": (Tag.UNPHYSICAL, "Delta > 1 + det V (neither branch applies)"),
           "gamma_margin": (Tag.ENTANGLED, "det V >= 1 and Delta <= 1 + det V < Delta~"),
           "delta_tilde_margin": (None, "reported only"),
           None: (Tag.SEPARABLE, "det V >= 1 and Gamma <= 1 + det V")}
_BONA_FIDE = {route: [key for key, (tag, _) in table.items() if tag is Tag.UNPHYSICAL]
              for route, table in (("global", _GLOBAL), ("local", _LOCAL))}
_STRICT = frozenset({"min_eig_V", "min_eig_A", "min_eig_B"})  # positive definiteness: > +band


def _local_entries(rows: list, inv: tuple, entries: dict, tol: Tolerance) -> dict:
    """``_evaluate``'s ``entries`` with the local route's own: A > 0, B > 0 and the block
    inequality, whose clamp keeps its margin finite where a block already failed."""
    det_a, det_b, det_c, det_v = inv[:4]
    entries["min_eig_A"], entries["min_eig_B"] = _block_min_eig(rows, 0), _block_min_eig(rows, 2)
    entries["block_margin"] = (
        (det_v + det_a * det_b) - (2.0 * math.sqrt(max(det_a * det_b, 0.0)) + det_c**2),
        tol.band(det_v, det_a * det_b, det_c**2))
    return entries


def _verdict(table: dict, entries: dict) -> tuple[str | None, list[str], dict[str, float]]:
    """The verdict policy, one pass over a tag table up to its None key: ``(failed, near,
    margins)``, the first failed key that has a tag (or None) and the keys within their band."""
    failed, near, margins = None, [], {}
    for key, (tag, _) in table.items():
        if key is None:
            break
        margin, band = entries[key]
        if not (margin > band if key in _STRICT else margin >= -band) and tag:
            failed = failed or key
        if abs(margin) <= band:
            near.append(key)
        margins[key] = margin
    return failed, near, margins


def _report(route: str, verdict: tuple, spectra: tuple | None = None) -> BonaFideReport:
    """The route's report, its bona fide keys alone, from a ``_verdict`` pass over its table."""
    failed, near, margins = verdict
    keys = _BONA_FIDE[route]
    return BonaFideReport(failed not in keys, route, {key: margins[key] for key in keys},
                          None if spectra is None else spectra[0], any(key in near for key in keys))


def _global(v, tol: Tolerance) -> tuple:
    """One evaluation of V on the global route: its rows, its invariants, its entries and the
    spectra (nu_-, nu_+, nu~_-, nu~_+), None unless V > 0 (the closed form presumes it): V's
    first, from (Delta, det V), then its partial transpose's, from (Delta~, det V)."""
    _, rows, inv, entries = _evaluate(v, tol)
    return rows, inv, entries, ((*_spectrum_from_delta(inv[5], inv[3], tol, rows),
                                 *_spectrum_from_delta(inv[6], inv[3], tol, rows))
                                if entries["min_eig_V"][0] > 0.0 else None)


def _global_verdict(route: tuple, tol: Tolerance) -> tuple[str | None, list[str], dict[str, float]]:
    """``_verdict`` over ``_global``'s route plus nu_- - 1 and nu~_- - 1 where V > 0, each checked
    against its determinant form: physicality always, separability once physical."""
    rows, inv, entries, spectra = route
    failed, _, margins = verdict = _verdict(_GLOBAL, entries)
    if spectra is None:  # not V > 0, which a physical verdict implies
        return verdict
    margins["nu_minus_minus_1"] = spectra[0] - 1.0
    margins["nu_tilde_minus_minus_1"] = spectra[2] - 1.0
    physical = _GLOBAL[failed][0] is not Tag.UNPHYSICAL
    for form, key, holds, entry, x in (
            ("physicality", "nu_minus_minus_1", physical, "delta_margin", inv[5]),
            ("separability", "nu_tilde_minus_minus_1", failed is None, "delta_tilde_margin",
             inv[6]))[:1 + physical]:
        nu_m1 = margins[key]
        if ((nu_m1 >= -tol._cut(1.0)) != holds and (-nu_m1 if holds else nu_m1)
                > _nu_minus_allowance(rows, x, inv[3], entries[entry][1],
                                      entries["det_V_minus_1"][1])):
            raise InternalInconsistency(f"spectral and determinant {form} forms disagree: "
                                        f"{key} = {nu_m1:.3e}, margins {margins}")
    return verdict


def check_global(v, tol: Tolerance = DEFAULT_TOL) -> BonaFideReport:
    """Global bona fide conditions: V > 0, det V >= 1, Delta <= 1 + det V (nu_- >= 1)."""
    route = _global(v, tol)
    return _report("global", _global_verdict(route, tol), route[3])


def check_local(v, tol: Tolerance = DEFAULT_TOL) -> BonaFideReport:
    """Local bona fide conditions evaluated on the blocks of V.

    A > 0, B > 0, Delta <= 1 + det V and the block inequality
    2 sqrt(det A det B) + det C^2 <= det V + det A det B. Equivalent to the
    global conditions; kept free of any standard-form reduction so the two
    routes stay independent.
    """
    _, rows, inv, entries = _evaluate(v, tol)
    return _report("local", _verdict(_LOCAL, _local_entries(rows, inv, entries, tol)))


def standard_form_hermitian_eigs(a: float, b: float, c_plus: float,
                                 c_minus: float) -> StandardFormEigs:
    r"""Closed-form spectrum of V + i Omega for a standard-form matrix.

    With mu = 4 + (a-b)^2 + 2(c+^2 + c-^2) and
    nu = 4(a-b)^2 + (c+ + c-)^2 [4 + (c+ - c-)^2], the four eigenvalues are

        2 lambda_(+-)^(+) = a + b + sqrt(mu +- 2 sqrt(nu))
        2 lambda_(+-)^(-) = a + b - sqrt(mu +- 2 sqrt(nu))

    mu >= 4 and nu >= 0 for every real quadruple; tiny negative radicands
    from roundoff are clamped to 0. NumericalError past float64 (mu, nu or a + b, or an int).
    """
    a, b, c_plus, c_minus = map(_float, (a, b, c_plus, c_minus))  # numpy scalars would warn
    d, c_sum, c_diff, s = a - b, c_plus + c_minus, c_plus - c_minus, a + b
    mu = 4.0 + d * d + 2.0 * (c_plus * c_plus + c_minus * c_minus)
    nu = 4.0 * (d * d) + c_sum * c_sum * (4.0 + c_diff * c_diff)
    if not (math.isfinite(mu) and math.isfinite(nu) and math.isfinite(s)):
        raise NumericalError(f"standard-form eigenvalues past float64: mu = {mu}, nu = {nu}")
    outer_p = math.sqrt(max(mu + 2.0 * math.sqrt(max(nu, 0.0)), 0.0))
    outer_m = math.sqrt(max(mu - 2.0 * math.sqrt(max(nu, 0.0)), 0.0))
    return StandardFormEigs(
        lambda_pp=(s + outer_p) / 2.0,
        lambda_mp=(s + outer_m) / 2.0,
        lambda_pm=(s - outer_p) / 2.0,
        lambda_mm=(s - outer_m) / 2.0,
        mu_aux=mu,
        nu_aux=nu,
    )

r"""Separability classification of two-mode Gaussian correlation matrices.

A physical CM is separable as a Gaussian state iff its partial transpose is
again physical, which reduces to nu~_- >= 1 for the PPT symplectic spectrum
or, in determinant form, Delta~ <= 1 + det V (equivalently
Gamma = det A + det B + 2|det C| <= 1 + det V once Delta <= 1 + det V holds).

Each classifier is one table of its route's conditions in checking order, bona
fide then PPT. One ``physicality._verdict`` pass over a new dict of the route's
``(margin, band)`` entries plus the PPT entry returns the margins and the first
key that failed beyond its band: that key gives the tag and reason, and None
(none failed) means separable. The global route also evaluates the spectral
forms nu_- >= 1 and nu~_- >= 1 and cross checks them against the determinant
forms that decide, which are better conditioned near the boundary. A spectral
value may lie on the other side of 1 only as far as Delta (Delta~) and det V,
moved by their rounding bounds and the determinant form's bands, move nu_-
(``invariants._nu_minus_allowance``); beyond that InternalInconsistency is
raised, which indicates a bug, never bad input.

Each call validates V and computes the raw invariants once, as plain floats, with
V > 0 by Sylvester's minors and det V certified: neither classifier calls LAPACK.
The global route adds the spectra from (Delta, det V) and (Delta~, det V), the
local route the closed-form block eigenvalues; the two share nothing else. Every
entry lhs <= rhs is ``Tolerance._at_most``'s, and each condition has one form: the paper's
posdef and Simon conditions, in det A, det B, det C and I4, are by the identity
det V = det A det B + det C^2 - I4 the routes' Delta, Delta~ and Gamma <= 1 + det V entries.
A classifier builds only its ``Classification``, and the global cross-checks take the bona
fide verdict and the entries they compare from its one ``_verdict`` pass.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .errors import InternalInconsistency, PreconditionViolated
from .invariants import (SymplecticSpectrum2, _evaluate, _nu_minus_allowance, _require_sylvester,
                         _spectrum_from_delta)
from .physicality import _global_report, _local_report, _verdict
from .symplectic import DEFAULT_TOL, Tolerance

__all__ = [
    "Tag",
    "Classification",
    "classify_global",
    "classify_local",
    "simon_criterion",
    "posdef_criterion",
]


class Tag(enum.Enum):
    """Classification outcome for a symmetric 4x4 matrix."""

    UNPHYSICAL = "Unphysical"
    SEPARABLE = "SeparableGaussianCM"
    ENTANGLED = "EntangledGaussianCM"


@dataclass(frozen=True, slots=True)
class Classification:
    """Tag plus the margins that led to it and a human-readable reason."""

    tag: Tag
    reason: str
    margins: dict[str, float] = field(default_factory=dict)


# Each route's conditions in checking order, then under None the result when none fails.
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
          None: (Tag.SEPARABLE, "Gamma <= 1 + det V (PPT holds)")}
_POSDEF = {"det_V_minus_1": (Tag.UNPHYSICAL, "det V < 1 (neither branch applies)"),
           "delta_margin": (Tag.UNPHYSICAL, "Delta > 1 + det V (neither branch applies)"),
           "gamma_margin": (Tag.ENTANGLED, "det V >= 1 and Delta <= 1 + det V < Delta~"),
           None: (Tag.SEPARABLE, "det V >= 1 and Gamma <= 1 + det V")}


def classify_global(v, tol: Tolerance = DEFAULT_TOL) -> Classification:
    """Classify via the global route: V > 0, nu_- >= 1, then nu~_- vs 1.

    The determinant forms (det V >= 1, Delta <= 1 + det V for physicality;
    Delta~ <= 1 + det V for separability) are evaluated alongside the
    spectral forms and the two must agree away from the boundary band.
    """
    return _global_classification(*_global_route(v, tol), tol)


def _global_route(v, tol: Tolerance) -> tuple[tuple, dict[str, tuple[float, float]],
                                              SymplecticSpectrum2 | None,
                                              SymplecticSpectrum2 | None, list]:
    """One evaluation of the global route: the invariants as floats, the route's conditions,
    the spectra of V and of its partial transpose (both None unless V > 0), and V's rows."""
    _, rows, pivot, inv = _evaluate(v, tol)
    conditions, spec = _global_report(rows, pivot, inv, tol)
    # Partial transpose: same det V (inv[3]), Delta -> Delta~ (inv[6]).
    ppt = None if spec is None else _spectrum_from_delta(inv[6], inv[3], tol, rows)
    return inv, conditions, spec, ppt, rows


def _global_classification(inv: tuple, bona_fide: dict[str, tuple[float, float]],
                           spec: SymplecticSpectrum2 | None, ppt: SymplecticSpectrum2 | None,
                           rows: list, tol: Tolerance) -> Classification:
    """Body of ``classify_global`` on the route's invariants, bona fide conditions, spectra and
    rows; adds the Delta~ condition and the spectral margins."""
    _, _, _, det_v, _, delta, delta_tilde, _ = inv
    # det V~ = det V, so once V is physical the PPT stage is decided by Delta~ alone.
    ppt_entry = tol._at_most(delta_tilde, 1.0 + det_v)
    failed, _, margins = _verdict({**bona_fide, "delta_tilde_margin": ppt_entry})
    physical = failed in (None, "delta_tilde_margin")  # the PPT condition is last
    if spec is not None:  # V > 0, which a physical verdict implies
        margins["nu_minus_minus_1"] = spec.nu_minus - 1.0
        margins["nu_tilde_minus_minus_1"] = ppt.nu_minus - 1.0
        # Each spectral form must match the determinant form, or lie on the other side of 1 no
        # further than its allowance: physicality always, separability once physical.
        for form, key, holds, entry, x in (
                ("physicality", "nu_minus_minus_1", physical, bona_fide["delta_margin"], delta),
                ("separability", "nu_tilde_minus_minus_1", failed is None, ppt_entry,
                 delta_tilde)):
            nu_m1 = margins[key]
            if ((nu_m1 >= -tol.band(1.0)) != holds and (-nu_m1 if holds else nu_m1)
                    > _nu_minus_allowance(rows, x, det_v, entry[1], bona_fide["det_V_minus_1"][1])):
                raise InternalInconsistency(f"spectral and determinant {form} forms disagree: "
                                            f"{key} = {nu_m1:.3e}, margins {margins}")
            if not physical:
                break
    return Classification(*_GLOBAL[failed], margins)


def classify_local(v, tol: Tolerance = DEFAULT_TOL) -> Classification:
    """Classify purely from block-determinant inequalities (no spectra).

    Physicality per the local conditions (A, B > 0, Delta <= 1 + det V and
    the block inequality), then Gamma = det A + det B + 2|det C| vs
    1 + det V for separability. Agrees with classify_global everywhere; the
    two implementations share no intermediate quantities beyond the raw
    invariants.
    """
    _, rows, _, inv = _evaluate(v, tol)
    _, _, _, det_v, _, _, delta_tilde, gamma_sep = inv
    ppt_entry = tol._at_most(gamma_sep, 1.0 + det_v)
    failed, _, margins = _verdict({**_local_report(rows, inv, tol), "gamma_margin": ppt_entry})
    margins["delta_tilde_margin"] = (1.0 + det_v) - delta_tilde
    return Classification(*_LOCAL[failed], margins)


def simon_criterion(v, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Separability inequality for matrices already known to be physical.

    Simon's det A det B + (1 + det C)^2 - I4 >= det A + det B is, by the identity, Delta~ <=
    1 + det V, and is decided as the global route's Delta~ entry; for a Gaussian state this is
    exactly separability. The bona fide precondition is enforced as a hard error: consulted on
    an unphysical matrix the inequality is meaningless (it can hold for matrices that are not
    CMs at all), so callers must classify instead.
    """
    _, rows, pivot, inv = _evaluate(v, tol)
    failed, _, margins = _verdict(_global_report(rows, pivot, inv, tol)[0])
    if failed is not None:
        raise PreconditionViolated("simon_criterion requires a bona fide CM; margins "
                                   f"{margins} (classify the matrix instead)")
    return _verdict({"delta_tilde_margin": tol._at_most(inv[6], 1.0 + inv[3])})[0] is None


def posdef_criterion(v, tol: Tolerance = DEFAULT_TOL) -> Classification:
    """Three-way classification specialized to positive definite input.

    separable iff det V >= 1 and det A det B + (1 - |det C|)^2 - I4 >= det A + det B;
    entangled iff det V >= 1 and (1 + det C)^2 < det A + det B - det A det B + I4 <=
    (1 - det C)^2; otherwise unphysical. By the identity these read Gamma <= 1 + det V and
    Delta~ > 1 + det V >= Delta: the routes' det V >= 1, Delta and Gamma entries decide, and
    Delta~'s margin is reported as ``classify_local`` does. NotPositiveDefinite outside its domain.
    """
    v, _, pivot, (_, _, _, det_v, _, delta, delta_tilde, gamma_sep) = _evaluate(v, tol)
    _require_sylvester(v, pivot)
    failed, _, margins = _verdict({"det_V_minus_1": tol._at_most(1.0, det_v),
                                   "delta_margin": tol._at_most(delta, 1.0 + det_v),
                                   "gamma_margin": tol._at_most(gamma_sep, 1.0 + det_v)})
    margins["delta_tilde_margin"] = (1.0 + det_v) - delta_tilde
    return Classification(*_POSDEF[failed], margins)

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
forms that decide, which are better conditioned near the boundary.
Disagreement beyond _BOUNDARY_FACTOR bands raises InternalInconsistency and
indicates a bug, never bad input.

Each call validates V and computes the raw invariants once, as plain floats.
The global route adds eigvalsh(V) and the spectra from (Delta, det V) and
(Delta~, det V), the local route the closed-form block eigenvalues; the two
share nothing else. A classifier builds only its ``Classification``, and the
global cross-checks take the bona fide verdict and the entries they compare
from its one ``_verdict`` pass.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import InternalInconsistency, PreconditionViolated
from .invariants import SymplecticSpectrum2, _evaluate, _spectrum_from_delta
from .physicality import _global_report, _local_report, _verdict
from .symplectic import DEFAULT_TOL, Tolerance, _require_positive_definite

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


# Cross-assertions between equivalent formulations tolerate disagreement
# only when some deciding margin sits within this many tolerance bands of 0.
_BOUNDARY_FACTOR = 10.0


def _forms_agree(agree: bool, *near: tuple[float, float]) -> bool:
    """The two forms agree, or some (margin, band) in ``near`` lies within
    _BOUNDARY_FACTOR bands of 0."""
    return agree or any(abs(margin) <= _BOUNDARY_FACTOR * band for margin, band in near)


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
                                              SymplecticSpectrum2 | None]:
    """One evaluation of the global route: the invariants as floats, the route's conditions,
    and the spectra of V and of its partial transpose (both None unless V > 0)."""
    v, rows, scale, inv = _evaluate(v, tol)
    conditions, spec = _global_report(v, rows, scale, inv, tol)
    # Partial transpose: same det V (inv[3]), Delta -> Delta~ (inv[6]).
    ppt = None if spec is None else _spectrum_from_delta(inv[6], inv[3], tol, rows)
    return inv, conditions, spec, ppt


def _global_classification(inv: tuple, bona_fide: dict[str, tuple[float, float]],
                           spec: SymplecticSpectrum2 | None, ppt: SymplecticSpectrum2 | None,
                           tol: Tolerance) -> Classification:
    """Body of ``classify_global`` on the route's invariants, bona fide conditions and spectra;
    adds the Delta~ condition and the spectral margins."""
    _, _, _, det_v, _, _, delta_tilde, _ = inv
    # det V~ = det V, so once V is physical the PPT stage is decided by Delta~ alone.
    ppt_entry = ((1.0 + det_v) - delta_tilde, tol.band(delta_tilde, 1.0 + det_v))
    failed, _, margins = _verdict({**bona_fide, "delta_tilde_margin": ppt_entry})
    physical = failed in (None, "delta_tilde_margin")  # the PPT condition is last
    if spec is not None:  # V > 0, which a physical verdict implies
        nu_band = tol.band(1.0)
        margins["nu_minus_minus_1"] = nu_m1 = spec.nu_minus - 1.0
        margins["nu_tilde_minus_minus_1"] = nu_tilde_m1 = ppt.nu_minus - 1.0
        # Physicality, spectral form: nu_- >= 1 must match the determinant form.
        if not _forms_agree((nu_m1 >= -nu_band) == physical, (nu_m1, nu_band),
                            bona_fide["det_V_minus_1"], bona_fide["delta_margin"]):
            raise InternalInconsistency(
                "spectral and determinant physicality forms disagree: "
                f"nu_- - 1 = {nu_m1:.3e}, margins {margins}")
        if physical and not _forms_agree((nu_tilde_m1 >= -nu_band) == (failed is None),
                                         ppt_entry, (nu_tilde_m1, nu_band)):
            raise InternalInconsistency(
                "spectral and determinant separability forms disagree: "
                f"nu~_- - 1 = {nu_tilde_m1:.3e}, "
                f"Delta~ margin = {margins['delta_tilde_margin']:.3e}")
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
    ppt_entry = ((1.0 + det_v) - gamma_sep, tol.band(gamma_sep, 1.0 + det_v))
    failed, _, margins = _verdict({**_local_report(rows, inv, tol), "gamma_margin": ppt_entry})
    margins["delta_tilde_margin"] = (1.0 + det_v) - delta_tilde
    return Classification(*_LOCAL[failed], margins)


def simon_criterion(v, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Separability inequality for matrices already known to be physical.

    Returns true iff det A det B + (1 + det C)^2 - I4 >= det A + det B,
    equivalently Delta~ <= 1 + det V; for a Gaussian state this is exactly
    separability. The bona fide precondition is enforced as a hard error:
    consulted on an unphysical matrix the inequality is meaningless (it can
    hold for matrices that are not CMs at all), so callers must classify
    instead.
    """
    v, rows, scale, inv = _evaluate(v, tol)
    failed, _, margins = _verdict(_global_report(v, rows, scale, inv, tol)[0])
    if failed is not None:
        raise PreconditionViolated(
            "simon_criterion requires a bona fide CM; margins "
            f"{margins} (classify the matrix instead)")
    det_a, det_b, det_c, _, i4, _, _, _ = inv
    lhs = det_a * det_b + (1.0 + det_c) ** 2 - i4
    rhs = det_a + det_b
    return lhs - rhs >= -tol.band(lhs, rhs)


def posdef_criterion(v, tol: Tolerance = DEFAULT_TOL) -> Classification:
    """Three-way classification specialized to positive definite input.

    separable iff det V >= 1 and det A det B + (1 - |det C|)^2 - I4 >=
    det A + det B; entangled iff det V >= 1 and
    (1 + det C)^2 < det A + det B - det A det B + I4 <= (1 - det C)^2;
    otherwise unphysical. Raises NotPositiveDefinite outside its domain.
    """
    v, _, scale, (det_a, det_b, det_c, det_v, i4, _, _, _) = _evaluate(v, tol)
    _require_positive_definite(float(np.linalg.eigvalsh(v)[0]), tol._cut(scale))

    # s_mid is the middle member of the entangled-branch chain; the bounds
    # (1 -+ det C)^2 translate to the Delta~ / Delta margins.
    s_mid = det_a + det_b - det_a * det_b + i4
    failed, _, checked = _verdict({
        "det_V_minus_1": (det_v - 1.0, tol.band(det_v)),
        "delta_margin": ((1.0 - det_c) ** 2 - s_mid, tol.band(s_mid, (1.0 - det_c) ** 2)),
        "gamma_margin": (det_a * det_b + (1.0 - abs(det_c)) ** 2 - i4 - det_a - det_b,
                         tol.band(s_mid, (1.0 + det_c) ** 2)),
    })
    # Reported in the order det V, Gamma, Delta, Delta~; checked in _POSDEF's order.
    margins = {key: checked[key] for key in ("det_V_minus_1", "gamma_margin", "delta_margin")}
    margins["delta_tilde_margin"] = (1.0 + det_c) ** 2 - s_mid
    return Classification(*_POSDEF[failed], margins)

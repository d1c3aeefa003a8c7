r"""Separability classification of two-mode Gaussian correlation matrices.

A physical CM is separable as a Gaussian state iff its partial transpose is
again physical, which reduces to nu~_- >= 1 for the PPT symplectic spectrum
or, in determinant form, Delta~ <= 1 + det V (equivalently
Gamma = det A + det B + 2|det C| <= 1 + det V once Delta <= 1 + det V holds).

Both the spectrum route and the determinant route are evaluated and cross
checked; the production verdict comes from the determinant route, which is
better conditioned near the boundary. Disagreement beyond the tolerance band
raises InternalInconsistency and indicates a bug, never bad input.

Each call validates V and computes the raw invariants once. The global route
adds eigvalsh(V) and the spectra from (Delta, det V) and (Delta~, det V), the
local route the closed-form block eigenvalues; the two share nothing else.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import InternalInconsistency, PreconditionViolated
from .invariants import SymplecticSpectrum2, TwoModeInvariants, _evaluate, _spectrum_from_delta
from .physicality import BonaFideReport, _global_report, _local_report, _verdict
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


def _near(margin: float, band: float) -> bool:
    return abs(margin) <= _BOUNDARY_FACTOR * band


# The reason for an Unphysical tag, per route, keyed by the first condition
# that failed.
_GLOBAL_REASONS = {"min_eig_V": "V is not positive definite", "det_V_minus_1": "det V < 1",
                   "delta_margin": "Delta > 1 + det V"}
_LOCAL_REASONS = {"min_eig_A": "block A is not positive definite",
                  "min_eig_B": "block B is not positive definite",
                  "delta_margin": "Delta > 1 + det V",
                  "block_margin": "2 sqrt(det A det B) + det C^2 > det V + det A det B"}
_POSDEF_REASONS = {"det_V_minus_1": "det V < 1 (neither branch applies)",
                   "delta_margin": "Delta > 1 + det V (neither branch applies)"}


def classify_global(v, tol: Tolerance = DEFAULT_TOL) -> Classification:
    """Classify via the global route: V > 0, nu_- >= 1, then nu~_- vs 1.

    The determinant forms (det V >= 1, Delta <= 1 + det V for physicality;
    Delta~ <= 1 + det V for separability) are evaluated alongside the
    spectral forms and the two must agree away from the boundary band.
    """
    inv, report, bands, _, ppt = _global_route(v, tol)
    return _global_classification(inv, report, bands, None if ppt is None else ppt.nu_minus, tol)


def _global_route(v, tol: Tolerance) -> tuple[TwoModeInvariants, BonaFideReport, dict[str, float],
                                              SymplecticSpectrum2 | None,
                                              SymplecticSpectrum2 | None]:
    """One evaluation of the global route: the invariants, the global report, its bands, and the
    spectra of V and of its partial transpose (both None unless the report found V > 0)."""
    v, rows, scale, inv = _evaluate(v, tol)
    report, bands, spec = _global_report(v, rows, scale, inv, tol)
    # Partial transpose: same det V, Delta -> Delta~.
    ppt = None if spec is None else _spectrum_from_delta(inv.delta_tilde, inv.det_V, tol, rows)
    return inv, report, bands, spec, ppt


def _global_classification(inv: TwoModeInvariants, report: BonaFideReport, bands: dict[str, float],
                           nu_tilde_minus: float | None, tol: Tolerance) -> Classification:
    """Body of ``classify_global`` on the invariants, the global report, its bands and nu~_-."""
    margins = dict(report.margins)
    dt_band = tol.band(inv.delta_tilde, 1.0 + inv.det_V)
    margins["delta_tilde_margin"] = (1.0 + inv.det_V) - inv.delta_tilde

    nu_band = tol.band(1.0)
    # The report carries nu_- exactly when it found V > 0.
    if report.nu_minus is not None:
        margins["nu_minus_minus_1"] = report.nu_minus - 1.0
        margins["nu_tilde_minus_minus_1"] = nu_tilde_minus - 1.0
        # Physicality, spectral form: nu_- >= 1. Must match the verdict of
        # the determinant form except within the boundary band.
        phys_spec = margins["nu_minus_minus_1"] >= -nu_band
        if phys_spec != report.verdict and not (
                _near(margins["nu_minus_minus_1"], nu_band)
                or _near(margins["det_V_minus_1"], bands["det_V_minus_1"])
                or _near(margins["delta_margin"], bands["delta_margin"])):
            raise InternalInconsistency(
                "spectral and determinant physicality forms disagree: "
                f"nu_- - 1 = {margins['nu_minus_minus_1']:.3e}, margins {margins}")

    if not report.verdict:
        failed = _verdict(report.margins, bands)[2]
        return Classification(Tag.UNPHYSICAL, _GLOBAL_REASONS[failed[0]], margins)

    # Physical from here on; det V~ = det V >= 1 already holds, so the PPT
    # stage is decided by Delta~ alone.
    if margins["det_V_minus_1"] < -_BOUNDARY_FACTOR * bands["det_V_minus_1"]:
        raise InternalInconsistency("physical verdict with det V < 1")

    sep_det = margins["delta_tilde_margin"] >= -dt_band
    sep_spec = margins["nu_tilde_minus_minus_1"] >= -nu_band
    if sep_det != sep_spec and not (
            _near(margins["delta_tilde_margin"], dt_band)
            or _near(margins["nu_tilde_minus_minus_1"], nu_band)):
        raise InternalInconsistency(
            "spectral and determinant separability forms disagree: "
            f"nu~_- - 1 = {margins['nu_tilde_minus_minus_1']:.3e}, "
            f"Delta~ margin = {margins['delta_tilde_margin']:.3e}")
    if sep_det:
        return Classification(
            Tag.SEPARABLE, "partial transpose is physical (nu~_- >= 1)", margins)
    return Classification(
        Tag.ENTANGLED, "partial transpose violates the uncertainty principle "
        "(nu~_- < 1, Delta~ > 1 + det V)", margins)


def classify_local(v, tol: Tolerance = DEFAULT_TOL) -> Classification:
    """Classify purely from block-determinant inequalities (no spectra).

    Physicality per the local conditions (A, B > 0, Delta <= 1 + det V and
    the block inequality), then Gamma = det A + det B + 2|det C| vs
    1 + det V for separability. Agrees with classify_global everywhere; the
    two implementations share no intermediate quantities beyond the raw
    invariants.
    """
    _, rows, _, inv = _evaluate(v, tol)
    report, bands = _local_report(rows, inv, tol)
    margins = dict(report.margins)
    margins["gamma_margin"] = (1.0 + inv.det_V) - inv.gamma_sep
    margins["delta_tilde_margin"] = (1.0 + inv.det_V) - inv.delta_tilde

    if not report.verdict:
        failed = _verdict(report.margins, bands)[2]
        return Classification(Tag.UNPHYSICAL, _LOCAL_REASONS[failed[0]], margins)

    if margins["gamma_margin"] >= -tol.band(inv.gamma_sep, 1.0 + inv.det_V):
        return Classification(
            Tag.SEPARABLE, "Gamma <= 1 + det V (PPT holds)", margins)
    return Classification(
        Tag.ENTANGLED, "Gamma > 1 + det V with Delta <= 1 + det V "
        "(PPT violated)", margins)


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
    report = _global_report(v, rows, scale, inv, tol)[0]
    if not report.verdict:
        raise PreconditionViolated(
            "simon_criterion requires a bona fide CM; margins "
            f"{report.margins} (classify the matrix instead)")
    lhs = inv.det_A * inv.det_B + (1.0 + inv.det_C) ** 2 - inv.I4
    rhs = inv.det_A + inv.det_B
    return lhs - rhs >= -tol.band(lhs, rhs)


def posdef_criterion(v, tol: Tolerance = DEFAULT_TOL) -> Classification:
    """Three-way classification specialized to positive definite input.

    separable iff det V >= 1 and det A det B + (1 - |det C|)^2 - I4 >=
    det A + det B; entangled iff det V >= 1 and
    (1 + det C)^2 < det A + det B - det A det B + I4 <= (1 - det C)^2;
    otherwise unphysical. Raises NotPositiveDefinite outside its domain.
    """
    v, _, scale, inv = _evaluate(v, tol)
    _require_positive_definite(float(np.linalg.eigvalsh(v)[0]), tol._cut(scale))

    # s_mid is the middle member of the entangled-branch chain; the bounds
    # (1 -+ det C)^2 translate to the Delta~ / Delta margins.
    s_mid = inv.det_A + inv.det_B - inv.det_A * inv.det_B + inv.I4
    margins = {
        "det_V_minus_1": inv.det_V - 1.0,
        "gamma_margin": inv.det_A * inv.det_B + (1.0 - abs(inv.det_C)) ** 2
                        - inv.I4 - inv.det_A - inv.det_B,
        "delta_margin": (1.0 - inv.det_C) ** 2 - s_mid,
        "delta_tilde_margin": (1.0 + inv.det_C) ** 2 - s_mid,
    }
    bands = {"det_V_minus_1": tol.band(inv.det_V),
             "delta_margin": tol.band(s_mid, (1.0 - inv.det_C) ** 2)}
    physical, _, failed = _verdict(margins, bands)
    if not physical:
        return Classification(Tag.UNPHYSICAL, _POSDEF_REASONS[failed[0]], margins)
    if margins["gamma_margin"] >= -tol.band(s_mid, (1.0 + inv.det_C) ** 2):
        return Classification(
            Tag.SEPARABLE, "det V >= 1 and Gamma <= 1 + det V", margins)
    return Classification(
        Tag.ENTANGLED, "det V >= 1 and Delta <= 1 + det V < Delta~", margins)

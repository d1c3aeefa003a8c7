r"""Separability classification of two-mode Gaussian correlation matrices.

A physical CM is separable as a Gaussian state iff its partial transpose is
again physical, which reduces to nu~_- >= 1 for the PPT symplectic spectrum
or, in determinant form, Delta~ <= 1 + det V (equivalently
Gamma = det A + det B + 2|det C| <= 1 + det V once Delta <= 1 + det V holds).
The paper's posdef and Simon conditions, in det A, det B, det C and I4, are by
the identity det V = det A det B + det C^2 - I4 the same Delta, Delta~ and Gamma
entries.

Each classifier is one ``physicality._verdict`` pass over the entries of its
route's tag table: the first key that failed beyond its band gives the tag and
reason, and None (none failed) means separable. The global route's pass is
``physicality._global_verdict``, which also cross-checks the spectral forms
nu_- >= 1 and nu~_- >= 1 against the determinant forms that decide (see the
``physicality`` module docstring).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import PreconditionViolated
from .invariants import _evaluate, _require_sylvester
from .physicality import (_GLOBAL, _GLOBAL_PASS, _LOCAL, _LOCAL_PASS, _POSDEF, _POSDEF_PASS, Tag,
                          _global, _global_verdict, _local_entries, _report, _verdict)
from .symplectic import DEFAULT_TOL, Tolerance

__all__ = [
    "Tag",
    "Classification",
    "classify_global",
    "classify_local",
    "simon_criterion",
    "posdef_criterion",
]


@dataclass(frozen=True, slots=True)
class Classification:
    """Tag plus the margins that led to it and a human-readable reason."""

    tag: Tag
    reason: str
    margins: dict[str, float] = field(default_factory=dict)


def classify_global(v, tol: Tolerance = DEFAULT_TOL) -> Classification:
    """Classify via the global route: V > 0, nu_- >= 1, then nu~_- vs 1.

    The determinant forms (det V >= 1, Delta <= 1 + det V for physicality;
    Delta~ <= 1 + det V for separability) are evaluated alongside the
    spectral forms and the two must agree away from the boundary band.
    """
    failed, _, margins = _global_verdict(_global(v, tol), tol)
    return Classification(*_GLOBAL[failed], margins)


def classify_local(v, tol: Tolerance = DEFAULT_TOL) -> Classification:
    """Classify purely from block-determinant inequalities (no spectra).

    Physicality per the local conditions (A, B > 0, Delta <= 1 + det V and
    the block inequality), then Gamma = det A + det B + 2|det C| vs
    1 + det V for separability. Shares no intermediate quantities with
    classify_global beyond the raw invariants. It has no det V >= 1 test, so
    it can tag Entangled a rounded squeezed state that classify_global finds
    Unphysical (the block margin's band hides det V < 1).
    """
    _, rows, inv, entries, _ = _evaluate(v, tol)
    failed, _, margins = _verdict(_LOCAL_PASS, _local_entries(rows, inv, entries, tol))
    return Classification(*_LOCAL[failed], margins)


def simon_criterion(v, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Separability inequality for matrices already known to be physical.

    Simon's det A det B + (1 + det C)^2 - I4 >= det A + det B is, by the identity, Delta~ <=
    1 + det V, and is decided as the global route's Delta~ entry; for a Gaussian state this is
    exactly separability. The bona fide precondition is enforced as a hard error: consulted on
    an unphysical matrix the inequality is meaningless (it can hold for matrices that are not
    CMs at all), so callers must classify instead.
    """
    verdict = _verdict(_GLOBAL_PASS, _evaluate(v, tol)[3])
    report = _report("global", verdict)
    if not report.verdict:
        raise PreconditionViolated("simon_criterion requires a bona fide CM; margins "
                                   f"{report.margins} (classify the matrix instead)")
    return verdict[0] is None


def posdef_criterion(v, tol: Tolerance = DEFAULT_TOL) -> Classification:
    """Three-way classification specialized to positive definite input.

    separable iff det V >= 1 and det A det B + (1 - |det C|)^2 - I4 >= det A + det B;
    entangled iff det V >= 1 and (1 + det C)^2 < det A + det B - det A det B + I4 <=
    (1 - det C)^2; otherwise unphysical. By the identity these read Gamma <= 1 + det V and
    Delta~ > 1 + det V >= Delta: the routes' det V >= 1, Delta and Gamma entries decide, and
    Delta~'s margin is reported as ``classify_local`` does. NotPositiveDefinite outside its domain.
    """
    v, _, _, entries, _ = _evaluate(v, tol)
    _require_sylvester(v, entries)
    failed, _, margins = _verdict(_POSDEF_PASS, entries)
    return Classification(*_POSDEF[failed], margins)

r"""Named families of two-mode matrices for experiments and tests.

Families:

- vacuum: the identity (product vacuum CM).
- thermal(nu1, nu2): diag(nu1, nu1, nu2, nu2), both nu >= 1 (a Williamson
  normal form, physical and separable).
- two_mode_squeezed(r): a = b = cosh 2r, c+ = -c- = sinh 2r in standard
  form; entangled for every r > 0 with nu~_- = e^(-2r).
- simon_vx(x): A = B = ((1+4x)/2) I, C = diag((4x-1)/2, -2x); positive
  definite for every x > 0 but a bona fide CM only for x >= 1/2. The family
  that separates the uncertainty principle from the det-form separability
  inequality.
- random_physical(seed): random thermal form conjugated by a random
  symplectic built from alternating local rotation+squeeze layers and a
  fixed balanced two-mode mixer; physical by construction.
- random_symmetric(seed): symmetric with entries uniform in [-2, 2]
  (usually not physical; exercises the unphysical branches).

Seeded families are deterministic: the same seed yields a bitwise-identical
matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .symplectic import congruence, direct_sum, rotation, squeeze

__all__ = [
    "FAMILY_NAMES",
    "FamilySpec",
    "generate",
    "vacuum",
    "thermal",
    "two_mode_squeezed",
    "simon_vx",
    "random_physical",
    "random_symmetric",
    "balanced_mixer",
]

@dataclass(frozen=True, slots=True)
class FamilySpec:
    """A family name plus its parameter assignment."""

    name: str
    params: dict[str, float] = field(default_factory=dict)


def vacuum() -> np.ndarray:
    """CM of the two-mode vacuum: the 4x4 identity."""
    return np.eye(4)


def _finite(m: np.ndarray, params: str) -> np.ndarray:
    """``m``, or ValueError when the parameters made an entry NaN or infinite."""
    if not np.isfinite(m).all():
        raise ValueError(f"{params} gives a non-finite matrix")
    return m


def thermal(nu1: float, nu2: float) -> np.ndarray:
    """diag(nu1, nu1, nu2, nu2) with nu1, nu2 >= 1 (separable product state)."""
    if nu1 < 1.0 or nu2 < 1.0:
        raise ValueError(f"thermal occupations must be >= 1, got {nu1}, {nu2}")
    return _finite(np.diag([nu1, nu1, nu2, nu2]).astype(float), f"nu1={nu1}, nu2={nu2}")


def two_mode_squeezed(r: float) -> np.ndarray:
    """Two-mode squeezed CM with a = cosh 2r, c+ = -c- = sinh 2r."""
    if r < 0.0:
        raise ValueError(f"squeezing parameter must be >= 0, got {r}")
    try:
        ch, sh = math.cosh(2.0 * r), math.sinh(2.0 * r)
    except OverflowError:
        ch = sh = math.inf
    return _finite(np.array([
        [ch, 0.0, sh, 0.0],
        [0.0, ch, 0.0, -sh],
        [sh, 0.0, ch, 0.0],
        [0.0, -sh, 0.0, ch],
    ]), f"r={r}")


def simon_vx(x: float) -> np.ndarray:
    """The one-parameter family with A = B = ((1+4x)/2) I, C = diag((4x-1)/2, -2x).

    Positive definite for every x > 0; det V = x(1+8x); physical iff
    x >= 1/2 and entangled everywhere it is physical.
    """
    if x <= 0.0:
        raise ValueError(f"family parameter must be > 0, got {x}")
    a = (1.0 + 4.0 * x) / 2.0
    c1 = (4.0 * x - 1.0) / 2.0
    c2 = -2.0 * x
    return _finite(np.array([
        [a, 0.0, c1, 0.0],
        [0.0, a, 0.0, c2],
        [c1, 0.0, a, 0.0],
        [0.0, c2, 0.0, a],
    ]), f"x={x}")


def balanced_mixer() -> np.ndarray:
    """The fixed two-mode mixing symplectic used by random_physical.

    A balanced rotation acting jointly on both modes,
    [[cI, sI], [-sI, cI]] with c = s = 1/sqrt(2); it is both symplectic and
    orthogonal, and couples the modes so that random_physical explores
    entangled as well as separable CMs.
    """
    c = 1.0 / math.sqrt(2.0)
    eye = np.eye(2)
    return np.block([[c * eye, c * eye], [-c * eye, c * eye]])


_LAYERS = 3


def random_physical(seed: int) -> np.ndarray:
    """Random bona fide CM: thermal form conjugated by a random symplectic.

    The symplectic is built from _LAYERS rounds of independent local
    rotation+squeeze on each mode followed by the fixed balanced mixer; the
    thermal occupations are uniform in [1, 3]. Physicality is inherited from
    the thermal form regardless of the draws.
    """
    rng = np.random.default_rng(seed)
    nus = rng.uniform(1.0, 3.0, size=2)
    mixer = balanced_mixer()
    s = np.eye(4)
    for _ in range(_LAYERS):
        locals_ = [rotation(rng.uniform(0.0, 2.0 * math.pi))
                   @ squeeze(math.exp(rng.uniform(-0.8, 0.8)))
                   for _ in range(2)]
        s = mixer @ direct_sum(*locals_) @ s
    w = np.diag(np.repeat(nus, 2))
    return congruence(w, s)


def random_symmetric(seed: int) -> np.ndarray:
    """Random symmetric 4x4 matrix with entries uniform in [-2, 2]."""
    rng = np.random.default_rng(seed)
    m = np.zeros((4, 4))
    upper = np.triu_indices(4)
    m[upper] = rng.uniform(-2.0, 2.0, size=len(upper[0]))
    return m + np.triu(m, 1).T


def _seeded(build):
    """``build`` on a whole-number seed, 0 when omitted; ValueError for any other seed."""
    def from_seed(seed=0) -> np.ndarray:
        if not (isinstance(seed, int) or float(seed).is_integer()):  # also rejects inf, NaN
            raise ValueError(f"seed must be a whole number, got {seed}")
        return build(int(seed))
    return from_seed


# name -> (builder, parameter names); thermal also takes nu for nu1 = nu2 = nu.
_FAMILIES = {
    "vacuum": (vacuum, ()),
    "thermal": (thermal, ("nu1", "nu2")),
    "two_mode_squeezed": (two_mode_squeezed, ("r",)),
    "simon_vx": (simon_vx, ("x",)),
    "random_physical": (_seeded(random_physical), ("seed",)),
    "random_symmetric": (_seeded(random_symmetric), ("seed",)),
}
FAMILY_NAMES = tuple(_FAMILIES)


def generate(spec: FamilySpec) -> np.ndarray:
    """Build the matrix a FamilySpec describes.

    Raises ValueError for unknown families, missing/unknown parameters, or
    out-of-domain parameter values.
    """
    if spec.name not in _FAMILIES:
        raise ValueError(
            f"unknown family {spec.name!r}; expected one of {FAMILY_NAMES}")
    build, names = _FAMILIES[spec.name]
    params = dict(spec.params)
    if spec.name == "thermal" and "nu" in params:
        if "nu1" in params or "nu2" in params:
            raise ValueError("give either nu or nu1/nu2, not both")
        params["nu1"] = params["nu2"] = params.pop("nu")
    stray = sorted(set(params) - set(names))
    if stray:
        raise ValueError(f"family {spec.name!r} does not take {stray}")
    missing = [key for key in names if key not in params and key != "seed"]
    if missing:
        raise ValueError(f"family {spec.name!r} requires parameter {missing[0]!r}")
    return build(**params)

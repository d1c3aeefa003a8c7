"""Shared generators and helpers for the test suite.

Everything is deterministic given a seed; the acceptance suite leans on
these to build boundary-biased populations (matrices engineered to sit near
the physicality / separability thresholds, where disagreement between
equivalent formulations would show up first).
"""
from __future__ import annotations

import importlib.util
import math
from itertools import combinations, permutations
from pathlib import Path

import numpy as np

import twomode as tm


def benchmark_inputs():
    """The benchmark's ``perfbench/inputs.py``, loaded as a module and only read."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("benchmark_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish proper rotation via QR with sign fixing."""
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def upper_mirror(m: np.ndarray) -> np.ndarray:
    """m with its lower triangle replaced by its upper one, exactly: the one matrix that the
    input boundary hands on for m symmetric within tolerance."""
    return np.where(np.tri(len(m), k=-1, dtype=bool), m.T, m)


def random_spd(rng: np.random.Generator, dim: int, lo: float = 0.2,
               hi: float = 5.0) -> np.ndarray:
    """Random symmetric positive definite matrix with spectrum in [lo, hi]."""
    q = random_orthogonal(rng, dim)
    m = (q * rng.uniform(lo, hi, size=dim)) @ q.T
    return (m + m.T) / 2.0


def random_local_symplectic(rng: np.random.Generator) -> np.ndarray:
    """Block-diagonal symplectic: rotation-squeeze-rotation on each mode."""
    blocks_ = []
    for _ in range(2):
        blocks_.append(tm.rotation(rng.uniform(0.0, 2.0 * np.pi))
                       @ tm.squeeze(np.exp(rng.uniform(-0.7, 0.7)))
                       @ tm.rotation(rng.uniform(0.0, 2.0 * np.pi)))
    return tm.direct_sum(*blocks_)


def random_symplectic(rng: np.random.Generator, layers: int = 3) -> np.ndarray:
    """Generic (non-local) two-mode symplectic: local layers + balanced mixer."""
    s = np.eye(4)
    mixer = tm.balanced_mixer()
    for _ in range(layers):
        s = mixer @ random_local_symplectic(rng) @ s
    return s


def random_block_positive(rng: np.random.Generator) -> np.ndarray:
    """Symmetric 4x4 with positive definite diagonal blocks, arbitrary C.

    The whole matrix need not be positive definite — this is exactly the
    domain of the standard-form reduction.
    """
    a = random_spd(rng, 2, 0.3, 4.0)
    b = random_spd(rng, 2, 0.3, 4.0)
    c = rng.uniform(-2.0, 2.0, size=(2, 2))
    return np.block([[a, c], [c.T, b]])


def random_symmetric(rng: np.random.Generator, scale: float = 2.0) -> np.ndarray:
    """Symmetric 4x4 with entries uniform in [-scale, scale]."""
    m = np.zeros((4, 4))
    upper = np.triu_indices(4)
    m[upper] = rng.uniform(-scale, scale, size=len(upper[0]))
    return m + np.triu(m, 1).T


def random_physical_cm(rng: np.random.Generator) -> np.ndarray:
    """A bona fide two-mode CM: thermal normal form moved by a random
    symplectic, driven by the caller's generator."""
    nus = rng.uniform(1.0, 3.0, size=2)
    w = np.diag(np.repeat(nus, 2))
    return tm.congruence(w, random_symplectic(rng))


def _rescaled_to_boundary(rng: np.random.Generator) -> np.ndarray:
    """A physical CM scaled so nu_- (or nu~_-) lands within ~1e-6 of 1."""
    v = tm.random_physical(int(rng.integers(2 ** 31)))
    if rng.uniform() < 0.5:
        nu = tm.symplectic_spectrum_2mode(v).nu_minus
    else:
        nu = tm.ppt_spectrum_2mode(v).nu_minus
    return v * ((1.0 + rng.uniform(-1e-6, 1e-6)) / nu)


def _family_near_threshold(rng: np.random.Generator) -> np.ndarray:
    """Family members jittered around the analytic thresholds, then moved
    off the standard form by a random local symplectic (tags invariant)."""
    kind = rng.integers(4)
    if kind == 0:
        v = tm.simon_vx(0.125 + rng.uniform(-0.02, 0.02))
    elif kind == 1:
        v = tm.simon_vx((np.sqrt(33.0) - 1.0) / 16.0 + rng.uniform(-0.02, 0.02))
    elif kind == 2:
        v = tm.simon_vx(0.5 + rng.uniform(-0.02, 0.02))
    else:
        v = tm.two_mode_squeezed(abs(rng.uniform(-0.05, 0.05)))
    return tm.congruence(v, random_local_symplectic(rng))


def boundary_biased(count: int, seed: int):
    """Yield `count` symmetric 4x4 matrices biased toward decision boundaries.

    Mix: plain random symmetric (mostly unphysical), Wishart-like positive
    semidefinite-ish, physical CMs rescaled onto the nu_- / nu~_-
    boundaries, and family members jittered around their thresholds.
    """
    rng = np.random.default_rng(seed)
    for i in range(count):
        kind = i % 4
        if kind == 0:
            yield random_symmetric(rng)
        elif kind == 1:
            g = rng.normal(size=(4, 4))
            m = g @ g.T / 2.0
            yield (m + m.T) / 2.0
        elif kind == 2:
            yield _rescaled_to_boundary(rng)
        else:
            yield _family_near_threshold(rng)


def near_boundary(v: np.ndarray, tol: tm.Tolerance = tm.DEFAULT_TOL,
                  factor: float = 10.0) -> bool:
    """True when any decision margin sits within `factor` tolerance bands of 0.

    Mirrors the margins (and their bands) used by the physicality and
    classification routes; matrices flagged here are legitimately allowed to
    receive different verdicts from equivalent formulations.
    """
    v = tm.as_matrix(v)
    blk = tm.blocks(v, tol)
    inv = tm.two_mode_invariants(v, tol)
    _, heis = tm.heisenberg_oracle(v, tol)
    checks = [
        (heis, tol.threshold(v)),
        (float(np.linalg.eigvalsh(v)[0]), tol.threshold(v)),
        (float(np.linalg.eigvalsh(blk.a)[0]), tol.threshold(blk.a)),
        (float(np.linalg.eigvalsh(blk.b)[0]), tol.threshold(blk.b)),
        (inv.det_V - 1.0, tol.band(inv.det_V)),
        ((1.0 + inv.det_V) - inv.delta, tol.band(inv.delta, 1.0 + inv.det_V)),
        ((1.0 + inv.det_V) - inv.delta_tilde,
         tol.band(inv.delta_tilde, 1.0 + inv.det_V)),
        ((1.0 + inv.det_V) - inv.gamma_sep,
         tol.band(inv.gamma_sep, 1.0 + inv.det_V)),
        ((inv.det_V + inv.det_A * inv.det_B)
         - (2.0 * np.sqrt(max(inv.det_A * inv.det_B, 0.0)) + inv.det_C ** 2),
         tol.band(inv.det_V, inv.det_A * inv.det_B, inv.det_C ** 2)),
    ]
    if float(np.linalg.eigvalsh(v)[0]) > tol.threshold(v):
        checks.append((tm.symplectic_spectrum_2mode(v, tol).nu_minus - 1.0,
                       tol.band(1.0)))
        checks.append((tm.ppt_spectrum_2mode(v, tol).nu_minus - 1.0,
                       tol.band(1.0)))
    return any(abs(margin) <= factor * band for margin, band in checks)


def swap_modes(v: np.ndarray) -> np.ndarray:
    """Exchange the two modes: blocks A and B swap, C transposes."""
    perm = [2, 3, 0, 1]
    return v[np.ix_(perm, perm)]


def count_linalg(monkeypatch, *names: str) -> dict[str, int]:
    """Count the calls to the named ``np.linalg`` functions until the test ends;
    returns the live ``name -> count`` dict (a name appears once it is called)."""
    counts: dict[str, int] = {}

    def counting(name):
        original = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(np.linalg, name, counting(name))
    return counts


# Integer pure states V = S S^T, S an integer symplectic in the order (q1, p1, q2, p2).
# Each factor is I plus the entries {(row, column): value} of one shear.
PURE_FAMILIES = ("C", "C.shear", "mixer.C.shear")
PURE_EXPONENTS = range(21)  # t = 2^k


def _shear(entries: dict) -> list[list[int]]:
    m = [[int(i == j) for j in range(4)] for i in range(4)]
    for (i, j), x in entries.items():
        m[i][j] += x
    return m


def _int_product(x: list, y: list) -> list[list[int]]:
    return [[sum(x[i][k] * y[k][j] for k in range(len(y))) for j in range(len(y[0]))]
            for i in range(len(x))]


def _parity(p: tuple) -> int:
    return (-1) ** sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p)))


def int_det(m: list) -> int:
    """Exact determinant of a square matrix of Python ints (Leibniz formula)."""
    n = len(m)
    return sum(_parity(p) * math.prod(m[i][p[i]] for i in range(n))
               for p in permutations(range(n)))


def _gaussian_det(m: list) -> tuple[int, int]:
    """Exact determinant (re, im) of a square matrix of Gaussian integers held as (re, im)
    pairs of Python ints: the Leibniz formula, 24 terms for a 4x4."""
    total_re = total_im = 0
    for p in permutations(range(len(m))):
        re, im = _parity(p), 0
        for i, j in enumerate(p):
            x, y = m[i][j]
            re, im = re * x - im * y, re * y + im * x
        total_re, total_im = total_re + re, total_im + im
    return total_re, total_im


def exact_bona_fide(v) -> bool:
    """V + i Omega >= 0, decided exactly on Python ints: the referee that shares no
    arithmetic with the package. One power of two 2^k makes every float entry of V an
    integer; the Hermitian 2^k (V + i Omega) is then a matrix of Gaussian integers, and it is
    positive semidefinite iff each of its principal minors (15 for a 4x4) is >= 0. The
    separability referee is the same check on the partial transpose Lambda V Lambda."""
    ratios = [[x.as_integer_ratio() for x in row] for row in np.asarray(v, dtype=float).tolist()]
    k = max(d.bit_length() - 1 for row in ratios for _, d in row)  # each d is a power of 2
    dim = len(ratios)
    h = [[(x << (k - d.bit_length() + 1),
           ((j == i + 1 and i % 2 == 0) - (i == j + 1 and j % 2 == 0)) << k)
          for j, (x, d) in enumerate(row)] for i, row in enumerate(ratios)]
    for size in range(1, dim + 1):
        for idx in combinations(range(dim), size):
            re, im = _gaussian_det([[h[i][j] for j in idx] for i in idx])
            assert im == 0  # a principal minor of a Hermitian matrix is real
            if re < 0:
                return False
    return True


def integer_pure_state(family: str, k: int) -> list[list[int]]:
    """V = S S^T on Python ints, t = 2^k. C(t) is p1 += t q2, p2 += t q1; shear(a, b) is
    p1 += a q1, p2 += b q2; the mixer is q1 += q2, p2 -= p1. S is C(t), C(t) shear(t, 1) or
    mixer C(t) shear(1, t). Every entry is below 2^53, so float64 holds V exactly."""
    t = 2**k
    s = _shear({(1, 2): t, (3, 0): t})
    if family == "C.shear":
        s = _int_product(s, _shear({(1, 0): t, (3, 2): 1}))
    elif family == "mixer.C.shear":
        s = _int_product(_int_product(_shear({(0, 2): 1, (3, 1): -1}), s),
                         _shear({(1, 0): 1, (3, 2): t}))
    return _int_product(s, [list(col) for col in zip(*s)])

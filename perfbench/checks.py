"""Output checks against the references built in ``inputs``.

Each check returns None when the output is right and a short reason when
it is wrong.  Residual bounds are relative to the scale of the product
they bound, so they hold for well-conditioned inputs at any magnitude.
"""
from __future__ import annotations

import numpy as np

# Relative residual bounds; observed residuals are below 1e-13.
RESIDUAL = 1e-10
SPECTRUM = 1e-8
INVARIANT = 1e-9


def _omega(n: int) -> np.ndarray:
    return np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def _norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))


def decide(out, ref: dict) -> str | None:
    """out = (oracle verdict, oracle min eig, global tag, local tag)."""
    ok, _min_eig, tag_g, tag_l = out
    if ok not in ref["oracle"]:
        return f"oracle says {ok}"
    if tag_g not in ref["tags"]:
        return f"classify_global says {tag_g}"
    if tag_l not in ref["tags"]:
        return f"classify_local says {tag_l}"
    return None


def standard_form(v, a: float, b: float, c_plus: float, c_minus: float, s_local,
                  ref: dict) -> str | None:
    """S V S^T equals the standard form, S is local symplectic, and
    a^2 = det A, b^2 = det B, c+ c- = det C."""
    v, s = np.asarray(v), np.asarray(s_local)
    target = np.array([[a, 0.0, c_plus, 0.0], [0.0, a, 0.0, c_minus],
                       [c_plus, 0.0, b, 0.0], [0.0, c_minus, 0.0, b]])
    scale = _norm(s) ** 2 * _norm(v)
    if np.max(np.abs(s @ v @ s.T - target)) > RESIDUAL * scale:
        return "standard-form congruence residual"
    if np.max(np.abs(s @ _omega(2) @ s.T - _omega(2))) > RESIDUAL * _norm(s) ** 2:
        return "local transform is not symplectic"
    if np.any(s[:2, 2:]) or np.any(s[2:, :2]):
        return "transform is not local"
    inv_scale = max(1.0, _norm(v)) ** 2
    for got, want, what in ((a * a, ref["det_a"], "a^2 != det A"),
                            (b * b, ref["det_b"], "b^2 != det B"),
                            (c_plus * c_minus, ref["det_c"], "c+ c- != det C")):
        if abs(got - want) > INVARIANT * inv_scale:
            return what
    return None


def williamson(v, normal_form, transform, spectrum, ref: dict) -> str | None:
    """S V S^T = W, S Omega S^T = Omega, W = diag(nu (x) 1_2), nu = reference."""
    v, w, s = np.asarray(v), np.asarray(normal_form), np.asarray(transform)
    om = _omega(v.shape[0] // 2)
    if np.max(np.abs(s @ v @ s.T - w)) > RESIDUAL * _norm(s) ** 2 * _norm(v):
        return "S V S^T != W"
    if np.max(np.abs(s @ om @ s.T - om)) > RESIDUAL * _norm(s) ** 2:
        return "S is not symplectic"
    nus = np.asarray(spectrum)
    want = np.asarray(ref["spectrum"])
    if nus.shape != want.shape or np.max(np.abs(nus - want)) > SPECTRUM * float(np.max(want)):
        return "spectrum differs from the reference"
    if np.max(np.abs(w - np.diag(np.repeat(nus, 2)))) > 0.0:
        return "normal form is not diag(nu_1, nu_1, ...)"
    return None


def invariants(record: dict, ref: dict) -> str | None:
    if record["heisenberg_ok"] not in ref["oracle"]:
        return f"heisenberg_ok is {record['heisenberg_ok']}"
    scale = max(1.0, _norm(np.asarray(ref["v"]))) ** 4
    if abs(record["invariants"]["det_V"] - ref["det_v"]) > INVARIANT * scale:
        return "det V differs from the reference"
    return None


def sweep(csv_text: str) -> str | None:
    """100 rows; Unphysical below x = 1/2 and EntangledGaussianCM above."""
    lines = csv_text.strip().splitlines()
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    if len(rows) != 100:
        return f"sweep has {len(rows)} rows"
    ix, itag = header.index("x"), header.index("tag")
    for row in rows:
        x, tag = float(row[ix]), row[itag]
        if x < 0.5 - 1e-9 and tag != "Unphysical":
            return f"x = {x} tagged {tag}"
        if x > 0.5 + 1e-9 and tag != "EntangledGaussianCM":
            return f"x = {x} tagged {tag}"
    return None

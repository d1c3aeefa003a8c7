r"""Command-line front end.

Subcommands:

- classify       tag a matrix Unphysical / SeparableGaussianCM /
                 EntangledGaussianCM with all margins and invariants
- invariants     print the symplectic invariants and spectra
- standard-form  reduce to standard form, printing the parameters and the
                 local symplectic that achieves them
- williamson     full Williamson decomposition with residuals
- gen            emit a named family member as a matrix document
- sweep          tabulate margins along a one-parameter family (CSV)

Matrix documents are JSON ({"matrix": [[...]], "label": ..., "tolerance":
{"rel": ..., "abs": ...}}, or a bare 2D JSON array) or whitespace-delimited
numeric text. Matrices must be square, even-dimensional and symmetric within
tolerance.

Every matrix subcommand prints one record: with --format machine as one
JSON line, otherwise as text (the same record without the echoed matrix).
Each matrix subcommand is a record builder in _RECORDS.

Exit codes: 0 success (a verdict, even Unphysical, is payload — never an
error); 1 I/O, numerical or internal failure; 2 parse or parameter error;
3 dimension/symmetry error; 4 failed positivity precondition.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    DimensionError,
    NonFiniteError,
    NotPositiveDefinite,
    NumericalError,
    PreconditionViolated,
    SymmetryError,
    TwoModeError,
)
from .families import FAMILY_NAMES, FamilySpec, generate
from .invariants import TwoModeInvariants
from .physicality import _GLOBAL, _global, _global_verdict, _report, heisenberg_oracle
from .standard_form import reduce_to_standard_form
from .symplectic import DEFAULT_TOL, Tolerance, _checked, omega
from .williamson import williamson_decompose

__all__ = ["main", "build_parser", "parse_document", "MatrixDocument"]

_SWEEP_PARAMS = {"simon_vx": "x", "two_mode_squeezed": "r", "thermal": "nu"}
_SWEEP_HEADER = ("x", "det_V", "delta", "delta_tilde", "nu_minus",
                 "nu_tilde_minus", "heisenberg_margin", "simon_margin", "tag")
_SWEEP_CAP = 10**6  # points: minutes of work and about 200 MB of CSV
_SPECTRA = ("nu_minus", "nu_plus", "nu_tilde_minus", "nu_tilde_plus")
_UNDEFINED = "undefined (V not > 0)"


class _DocumentError(Exception):
    """Unparseable matrix document (exit code 2)."""


class _NullEntryError(_DocumentError, NonFiniteError):
    """A JSON null matrix entry: a parse error, and non-finite as numpy would read it (NaN)."""


@dataclass(frozen=True, slots=True)
class MatrixDocument:
    """A validated input matrix plus optional metadata."""

    matrix: np.ndarray
    label: str | None = None
    tol_rel: float | None = None
    tol_abs: float | None = None


def _payload(text: str):
    """Raw (nested-list matrix, label, tol overrides) from document text."""
    stripped = text.strip()
    if not stripped:
        raise _DocumentError("empty input document")
    if stripped[0] in "[{":
        try:
            data = json.loads(stripped)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
            raise _DocumentError(f"invalid JSON document: {exc}") from exc
        matrix, label, tol = data, None, {}
        if isinstance(data, dict):
            if "matrix" not in data:
                raise _DocumentError('JSON document lacks a "matrix" key')
            matrix, label, tol = data["matrix"], data.get("label"), data.get("tolerance")
            if not isinstance(tol := {} if tol is None else tol, dict):  # null or no key: defaults
                raise _DocumentError('"tolerance" must be an object')
            if any(isinstance(tol.get(key), (list, dict, bool)) for key in ("rel", "abs")):
                raise _DocumentError("tolerance values must be numbers, numeric strings or null")
        entries = [matrix]
        for x in entries:  # at every depth, as numpy reads true, false and null as 1, 0 and NaN
            entries.extend(x if isinstance(x, list) else ())
        if bad := {bool, type(None)}.intersection(map(type, entries)):
            raise (_DocumentError if bool in bad else _NullEntryError)(
                "matrix entries must be numbers or numeric strings, not "
                + ("booleans" if bool in bad else "null"))
        return matrix, label, tol.get("rel"), tol.get("abs")
    rows = []
    for line in stripped.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append([float(token) for token in line.split()])
        except ValueError as exc:
            raise _DocumentError(f"non-numeric entry in row {line!r}") from exc
    if len({len(r) for r in rows}) != 1:
        raise _DocumentError("rows have unequal lengths" if rows else "no numeric rows found")
    return rows, None, None, None


def _resolve_tol(rel, abs_) -> Tolerance:
    # Read through str: an int past float64 is then the infinity Tolerance refuses, not an overflow.
    return Tolerance(rel=DEFAULT_TOL.rel if rel is None else float(str(rel)),
                     abs=DEFAULT_TOL.abs if abs_ is None else float(str(abs_)))


def _document(text: str, rel=None, abs_=None) -> tuple[MatrixDocument, Tolerance]:
    """(document, tolerance); precedence: rel/abs_ (the flags), the document, the defaults."""
    raw, label, doc_rel, doc_abs = _payload(text)
    tol = _resolve_tol(doc_rel if rel is None else rel, doc_abs if abs_ is None else abs_)
    try:
        matrix = _checked(raw, tol, what="input matrix")[0]
    except TwoModeError:
        raise  # ValueError subclasses: keep exit 3, not a parse error (exit 2)
    except (TypeError, ValueError) as exc:
        raise _DocumentError(f"matrix entries are not numeric: {exc}") from exc
    return MatrixDocument(matrix=matrix, label=label, tol_rel=doc_rel, tol_abs=doc_abs), tol


def parse_document(text: str) -> MatrixDocument:
    """Parse and validate a matrix document under its own tolerance overrides.

    Raises _DocumentError for malformed documents and
    DimensionError/SymmetryError/NonFiniteError for matrices that parse but
    are not square, even-dimensional, finite and symmetric.
    """
    return _document(text)[0]


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _DocumentError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    if path == "-":
        print(text, end="", flush=True)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc}") from exc


def _evaluation(v, tol: Tolerance):
    """The global route, its invariants' fields and its four spectra, None unless V > 0."""
    _, inv, _, spectra = route = _global(v, tol)
    return route, asdict(TwoModeInvariants(*inv)), dict(zip(_SPECTRA, spectra or (None,) * 4))


def _cell(x, none: str) -> str:
    return none if x is None else f"{x:.17g}" if isinstance(x, float) else str(x)


def _text_lines(record: dict, indent: str = ""):
    """Text layout of a record: nested dicts indented, lists as rows of values."""
    for key, value in record.items():
        if isinstance(value, dict):
            yield f"{indent}{key}:"
            yield from _text_lines(value, indent + "  ")
        elif isinstance(value, list):
            yield f"{indent}{key}:"
            for row in value if value and isinstance(value[0], list) else [value]:
                yield indent + "  " + "  ".join(_cell(x, _UNDEFINED) for x in row)
        else:
            yield f"{indent}{key}: {_cell(value, _UNDEFINED)}"


def _classify_record(v, tol: Tolerance) -> dict:
    route, inv, spectra = _evaluation(v, tol)
    failed, _, margins = verdict = _global_verdict(route, tol)
    tag, reason = _GLOBAL[failed]
    return {"tag": tag.value, "reason": reason, "margins": margins, "invariants": inv,
            "report": asdict(_report("global", verdict, route[3])), **spectra}


def _invariants_record(v, tol: Tolerance) -> dict:
    _, inv, spectra = _evaluation(v, tol)
    physical, min_eig = heisenberg_oracle(v, tol)
    return {"invariants": inv, **spectra, "heisenberg_margin": min_eig, "heisenberg_ok": physical}


def _standard_form_record(v, tol: Tolerance) -> dict:
    params = reduce_to_standard_form(v, tol)
    return {"a": params.a, "b": params.b, "c_plus": params.c_plus, "c_minus": params.c_minus,
            "s_local": params.s_local.tolist(), "residual": params.residual}


def _williamson_record(v, tol: Tolerance) -> dict:
    dec = williamson_decompose(v, tol)
    form, s = omega(v.shape[0] // 2), dec.transform
    return {"spectrum": dec.spectrum.tolist(), "normal_form": dec.normal_form.tolist(),
            "transform": s.tolist(), "rotation": dec.rotation.tolist(),
            "degenerate": dec.degenerate,
            "residual_symplectic": float(np.max(np.abs(s @ form @ s.T - form))),
            "residual_normal_form": float(np.max(np.abs(s @ v @ s.T - dec.normal_form)))}


# Matrix subcommand -> (record builder on (V, tol), help text).
_RECORDS = {
    "classify": (_classify_record,
                 "tag the matrix Unphysical / SeparableGaussianCM / EntangledGaussianCM"),
    "invariants": (_invariants_record,
                   "print symplectic invariants, spectra and the uncertainty margin"),
    "standard-form": (_standard_form_record, "reduce to standard form via a local symplectic"),
    "williamson": (_williamson_record, "Williamson normal form W, symplectic S and residuals"),
}


def cmd_record(args) -> int:
    """Read the document and print its record {label, **fields, matrix}: one JSON
    line, or text without the echoed matrix and with the label only when set."""
    doc, tol = _document(_read_text(args.input), args.tol_rel, args.tol_abs)
    fields = _RECORDS[args.command][0](doc.matrix, tol)
    record = {"label": doc.label, **fields, "matrix": doc.matrix.tolist()}
    if args.format == "machine":
        print(json.dumps(record), flush=True)
    else:
        shown = {k: x for k, x in record.items() if k != "matrix" and (k != "label" or x)}
        print("\n".join(_text_lines(shown)), flush=True)
    return 0


def _parse_params(pairs) -> dict[str, float]:
    params: dict[str, float] = {}
    for item in pairs:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise ValueError(f"--param expects NAME=VALUE, got {item!r}")
        try:
            params[name] = float(value)
        except ValueError:
            raise ValueError(f"--param {name}: {value!r} is not a number") from None
    return params


def cmd_gen(args) -> int:
    params = _parse_params(args.param)
    if args.seed is not None:
        params["seed"] = args.seed
    matrix = generate(FamilySpec(args.family, params))
    shown = ", ".join(f"{k}={params[k]:g}" for k in sorted(params))
    label = args.label or (f"{args.family}({shown})" if shown else args.family)
    _write_text(args.out, json.dumps({"label": label, "matrix": matrix.tolist()}) + "\n")
    return 0


def _sweep_values(start: float, stop: float, step: float) -> np.ndarray:
    for flag, value in (("--from", start), ("--to", stop), ("--step", step)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    if step <= 0:
        raise ValueError(f"--step must be > 0, got {step}")
    if stop < start:
        raise ValueError(f"--to {stop} is below --from {start}")
    steps = (stop - start) / step  # inf when the span overflows
    count = int(math.floor(steps + 0.5)) + 1 if math.isfinite(steps) else math.inf
    if count > _SWEEP_CAP:
        raise ValueError(f"the grid has {count:.7g} points, above the cap of {_SWEEP_CAP:,}")
    values = start + step * np.arange(count)
    return values[values <= stop + step * 1e-9]


def cmd_sweep(args) -> int:
    param = _SWEEP_PARAMS[args.family]
    tol = _resolve_tol(args.tol_rel, args.tol_abs)
    lines = [",".join(_SWEEP_HEADER)]
    for value in _sweep_values(args.start, args.stop, args.step):
        v = generate(FamilySpec(args.family, {param: float(value)}))
        rec = _classify_record(v, tol)
        inv = rec["invariants"]
        row = (float(value), inv["det_V"], inv["delta"], inv["delta_tilde"], rec["nu_minus"],
               rec["nu_tilde_minus"], heisenberg_oracle(v, tol)[1],
               rec["margins"]["delta_margin"], rec["tag"])
        lines.append(",".join(_cell(x, "nan") for x in row))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twomode",
        description="Decide whether 4x4 symmetric matrices are bona fide "
                    "two-mode quantum correlation matrices, classify them as "
                    "separable or entangled Gaussian CMs, and construct "
                    "symplectic normal forms.")
    sub = parser.add_subparsers(dest="command", required=True)

    tolerance = argparse.ArgumentParser(add_help=False)
    tolerance.add_argument("--tol-rel", type=float, default=None, metavar="X",
                           help="relative tolerance override")
    tolerance.add_argument("--tol-abs", type=float, default=None, metavar="X",
                           help="absolute tolerance override")
    matrix_io = argparse.ArgumentParser(add_help=False, parents=[tolerance])
    matrix_io.add_argument("--input", default="-", metavar="PATH",
                           help="matrix document (JSON or whitespace grid); "
                                "'-' reads stdin (default)")
    matrix_io.add_argument("--format", choices=("text", "machine"), default="text",
                           help="report style: human text or one-line JSON")

    for name, (_, help_text) in _RECORDS.items():
        sub.add_parser(name, parents=[matrix_io], help=help_text).set_defaults(func=cmd_record)

    gen = sub.add_parser(
        "gen", help="generate a named family member as a matrix document",
        epilog="Families: vacuum; thermal (nu, or nu1/nu2, each >= 1); "
               "two_mode_squeezed (r >= 0); simon_vx (x > 0); "
               "random_physical (seed; a random thermal form conjugated by "
               "alternating random local rotation+squeeze layers and a fixed "
               "balanced two-mode mixer [[cI, cI], [-cI, cI]], c = 1/sqrt 2); "
               "random_symmetric (seed; entries uniform in [-2, 2]). "
               "Same seed, same matrix, bit for bit.")
    gen.add_argument("--family", required=True, choices=FAMILY_NAMES)
    gen.add_argument("--param", action="append", default=[],
                     metavar="NAME=VALUE", help="family parameter (repeatable)")
    gen.add_argument("--seed", type=int, default=None, help="seed for the random families")
    gen.add_argument("--label", default=None, help="document label override")
    gen.add_argument("--out", default="-", metavar="PATH", help="output path ('-' = stdout)")
    gen.set_defaults(func=cmd_gen)

    sweep = sub.add_parser(
        "sweep", parents=[tolerance],
        help="tabulate margins along a one-parameter family (CSV)",
        epilog="Columns: x (the swept parameter), det_V, delta, delta_tilde, "
               "nu_minus, nu_tilde_minus, heisenberg_margin (min eigenvalue "
               "of V + i Omega), simon_margin (det-form uncertainty "
               "inequality, left minus right), tag. Reals carry 17 "
               "significant digits.")
    sweep.add_argument("--family", required=True, choices=tuple(sorted(_SWEEP_PARAMS)))
    sweep.add_argument("--from", dest="start", type=float, required=True)
    sweep.add_argument("--to", dest="stop", type=float, required=True)
    sweep.add_argument("--step", type=float, required=True)
    sweep.add_argument("--out", default="-", metavar="PATH", help="output CSV path ('-' = stdout)")
    sweep.set_defaults(func=cmd_sweep)
    return parser


# Exit code of the first matching error class; the package's input errors
# subclass ValueError, so the specific classes come first.
_EXIT_CODES = ((_DocumentError, 2), ((NotPositiveDefinite, PreconditionViolated), 4),
               ((DimensionError, SymmetryError, NonFiniteError), 3), (ValueError, 2),
               ((RuntimeError, NumericalError), 1))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # One "warning: ..." line per warning, like the "error: ..." lines, with no
    # source path or line; the format is restored for an in-process caller.
    format_warning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        return args.func(args)
    except BrokenPipeError:
        # Reader gone: send stdout to devnull so that the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (_DocumentError, ValueError, RuntimeError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))
    finally:
        warnings.formatwarning = format_warning


if __name__ == "__main__":
    raise SystemExit(main())

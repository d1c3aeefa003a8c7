"""Digests of the package's outputs on the benchmark's seeded pools, one line per call.

Each line is a call, its record count and the SHA-256 of its records' reprs, in order. A change
that must keep every output prints the same lines before and after it; the first line that
differs names the call to compare record by record. Run from the root of a checkout:

    python tools/outputs_digest.py                # seeds 1-10
    python tools/outputs_digest.py --seeds 1      # or 3-5

The package is imported from this checkout's ``src/`` and the pools from its
``perfbench/inputs.py``, which is only read. The calls and their inputs:

* ten public calls at three tolerances on the ``decide`` and extremes pools;
* ``reduce_to_standard_form`` and ``williamson_decompose`` on the ``normal_forms`` pools;
* in-process ``classify`` and ``invariants --format machine`` on the ``decide`` matrices, as
  exit code, stdout and stderr.

A record holds what the call returned or raised and the warnings it emitted. Arrays go in by
dtype, shape and bytes, other values by ``repr`` (exact for floats), errors by type and message.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import inputs  # noqa: E402  (perfbench/inputs.py)
import twomode as tm  # noqa: E402
from twomode import cli  # noqa: E402

DECIDE_CALLS = ("heisenberg_oracle", "classify_global", "classify_local", "check_global",
                "check_local", "two_mode_invariants", "symplectic_spectrum_2mode",
                "ppt_spectrum_2mode", "simon_criterion", "posdef_criterion")
TOLERANCES = {"default": tm.DEFAULT_TOL, "zero": tm.Tolerance(rel=0.0, abs=0.0),
              "rel=1e-3": tm.Tolerance(rel=1e-3)}
NORMAL_FORM_CALLS = ("reduce_to_standard_form", "williamson_decompose")
CLI_ARGS = {"cli classify": ["classify"],
            "cli invariants --format machine": ["invariants", "--format", "machine"]}


def plain(x):
    """``x`` as nested tuples of types, names and reprs, which are exact for floats."""
    if isinstance(x, np.ndarray):
        return ("ndarray", x.dtype.str, x.shape, x.tobytes())
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple((f.name, plain(getattr(x, f.name)))
                                           for f in dataclasses.fields(x))
    if isinstance(x, dict):
        return ("dict",) + tuple((plain(k), plain(v)) for k, v in x.items())
    if isinstance(x, (tuple, list)):
        return (type(x).__name__,) + tuple(plain(y) for y in x)
    return repr(x)


def record(call, *args) -> tuple:
    """What ``call(*args)`` returned or raised, and the warnings it emitted, as ``plain``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = ("returned", plain(call(*args)))
        except Exception as exc:  # noqa: BLE001 - an error is an output like any other
            out = ("raised", type(exc).__name__, str(exc))
    return out + tuple((w.category.__name__, str(w.message)) for w in caught)


def run_cli(argv: list[str], doc: str) -> tuple[int, str, str]:
    """``cli.main(argv)`` in-process on stdin ``doc``: (exit code, stdout, stderr)."""
    out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(doc)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("always")
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def seed_records(seed: int):
    """(label, record) pairs for one seed, each label's records in a fixed order."""
    decide = [np.array(op["v"]) for op in inputs.decide_pool(seed)]
    for v in decide + [np.array(op["v"]) for op in inputs.extremes_pool(seed)]:
        for name in DECIDE_CALLS:
            for tol_name, tol in TOLERANCES.items():
                yield f"{name} [{tol_name}]", record(getattr(tm, name), v, tol)
    for op in inputs.normal_forms_pool(seed):
        for name in NORMAL_FORM_CALLS:
            yield name, record(getattr(tm, name), np.array(op["v"]))
    for v in decide:
        doc = json.dumps({"matrix": v.tolist()})
        for label, argv in CLI_ARGS.items():
            yield label, run_cli(argv, doc)


def seeds(text: str) -> range:
    """``1-10`` or ``3`` as a range of seeds."""
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"),
                        help="pool seeds, N or A-B (default 1-10)")
    args = parser.parse_args(argv)
    digests: dict[str, list] = {}
    for seed in args.seeds:
        for label, rec in seed_records(seed):
            entry = digests.setdefault(label, [0, hashlib.sha256()])
            entry[0] += 1
            entry[1].update(repr(rec).encode() + b"\n")
    width = max(map(len, digests))
    for label, (count, digest) in digests.items():
        print(f"{label:<{width}}  {count:>6}  {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

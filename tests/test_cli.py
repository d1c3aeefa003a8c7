"""Command-line interface: documents, subcommands, formats, exit codes."""
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import twomode as tm
from twomode.cli import main, parse_document

from .support import count_linalg, upper_mirror

# Nested far past the interpreter's recursion limit: json.loads raises RecursionError.
DEEP_DOCUMENT = '{"matrix": ' + "[" * 100_000 + "]" * 100_000 + "}"


@pytest.fixture()
def run(monkeypatch, capsys):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""

    def _run(argv, stdin_text=None):
        if stdin_text is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    return _run


def doc(matrix, **extra) -> str:
    payload = {"matrix": np.asarray(matrix).tolist(), **extra}
    return json.dumps(payload)


# ---------------------------------------------------------------- documents

def test_parse_json_document_with_metadata():
    text = doc(np.eye(4), label="vac", tolerance={"rel": 1e-8, "abs": 1e-10})
    parsed = parse_document(text)
    np.testing.assert_array_equal(parsed.matrix, np.eye(4))
    assert parsed.label == "vac"
    assert parsed.tol_rel == 1e-8 and parsed.tol_abs == 1e-10


def test_parse_bare_json_array():
    parsed = parse_document("[[1, 0], [0, 1]]")
    np.testing.assert_array_equal(parsed.matrix, np.eye(2))
    assert parsed.label is None


def test_parse_whitespace_grid_with_comments():
    text = """
    # vacuum
    1 0 0 0
    0 1 0 0

    0 0 1 0
    0 0 0 1
    """
    np.testing.assert_array_equal(parse_document(text).matrix, np.eye(4))


def test_parse_rejects_garbage():
    from twomode.cli import _DocumentError
    for bad in ("", "{not json", '{"label": "no matrix"}', "1 2\n3 x",
                "1 2\n3", '{"matrix": [[1,0],[0,1]], "tolerance": 3}', DEEP_DOCUMENT):
        with pytest.raises(_DocumentError):
            parse_document(bad)


def test_parse_rejects_odd_dimension_and_asymmetry():
    with pytest.raises(tm.DimensionError):
        parse_document("[[1, 0, 0], [0, 1, 0], [0, 0, 1]]")
    with pytest.raises(tm.SymmetryError):
        parse_document("[[1, 0.5], [0, 1]]")
    with pytest.raises(tm.NonFiniteError):
        parse_document('{"matrix": [[1, null], [null, 1]]}')


# ----------------------------------------------------------------- classify

def test_classify_machine_record_fields(run):
    code, out, _ = run(["classify", "--format", "machine"],
                       stdin_text=doc(tm.two_mode_squeezed(0.5), label="tms"))
    assert code == 0
    record = json.loads(out)
    assert record["tag"] == "EntangledGaussianCM"
    assert record["label"] == "tms"
    for key in ("reason", "margins", "invariants", "report", "nu_minus",
                "nu_plus", "nu_tilde_minus", "nu_tilde_plus", "matrix"):
        assert key in record
    for key in ("min_eig_V", "det_V_minus_1", "delta_margin",
                "delta_tilde_margin", "nu_minus_minus_1",
                "nu_tilde_minus_minus_1"):
        assert key in record["margins"]
    for key in ("det_A", "det_B", "det_C", "det_V", "I4", "delta",
                "delta_tilde", "gamma_sep"):
        assert key in record["invariants"]
    assert record["nu_tilde_minus"] == pytest.approx(np.exp(-1.0), abs=1e-12)
    assert record["report"]["route"] == "global"


def test_classify_round_trip_is_stable(run):
    code, out, _ = run(["classify", "--format", "machine"],
                       stdin_text=doc(tm.simon_vx(0.7)))
    assert code == 0
    first = json.loads(out)
    code, out, _ = run(["classify", "--format", "machine"],
                       stdin_text=json.dumps({"matrix": first["matrix"]}))
    assert code == 0
    second = json.loads(out)
    assert second["tag"] == first["tag"]
    assert second["margins"] == first["margins"]
    assert second["invariants"] == first["invariants"]
    assert second["matrix"] == first["matrix"]


def test_classify_unphysical_is_payload_not_error(run):
    code, out, _ = run(["classify", "--format", "machine"],
                       stdin_text=doc(tm.simon_vx(0.1)))
    assert code == 0
    record = json.loads(out)
    assert record["tag"] == "Unphysical"
    assert record["reason"] == "det V < 1"


def test_classify_indefinite_matrix_spectra_are_null(run):
    code, out, _ = run(["classify", "--format", "machine"],
                       stdin_text=doc(np.diag([1.0, 1.0, 1.0, -1.0])))
    assert code == 0
    record = json.loads(out)
    assert record["tag"] == "Unphysical"
    assert record["nu_minus"] is None
    assert record["nu_tilde_minus"] is None


def test_classify_text_format(run):
    code, out, _ = run(["classify"], stdin_text=doc(np.eye(4), label="vac"))
    assert code == 0
    assert "label: vac" in out
    assert "tag: SeparableGaussianCM" in out
    assert "margins:" in out and "invariants:" in out


def test_classify_reads_file(run, tmp_path):
    path = tmp_path / "v.json"
    path.write_text(doc(tm.thermal(2.0, 1.5)))
    code, out, _ = run(["classify", "--input", str(path), "--format", "machine"])
    assert code == 0
    assert json.loads(out)["tag"] == "SeparableGaussianCM"


# --------------------------------------------------------------- invariants

def test_invariants_machine_record(run):
    code, out, _ = run(["invariants", "--format", "machine"],
                       stdin_text=doc(tm.simon_vx(0.5)))
    assert code == 0
    record = json.loads(out)
    assert record["invariants"]["det_V"] == pytest.approx(2.5, abs=1e-12)
    assert record["invariants"]["I4"] == pytest.approx(2.8125, abs=1e-12)
    assert record["heisenberg_ok"] is True
    assert record["heisenberg_margin"] == pytest.approx(0.0, abs=1e-12)


def test_invariants_on_indefinite_matrix(run):
    code, out, _ = run(["invariants", "--format", "machine"],
                       stdin_text=doc(np.diag([1.0, 1.0, 1.0, -1.0])))
    assert code == 0
    record = json.loads(out)
    assert record["nu_minus"] is None
    assert record["heisenberg_ok"] is False


# ------------------------------------------------------------ standard-form

def test_standard_form_machine_record(run):
    code, out, _ = run(["standard-form", "--format", "machine"],
                       stdin_text=doc(tm.simon_vx(0.5)))
    assert code == 0
    record = json.loads(out)
    assert record["a"] == pytest.approx(1.5, abs=1e-12)
    assert record["b"] == pytest.approx(1.5, abs=1e-12)
    assert record["c_plus"] == pytest.approx(1.0, abs=1e-12)
    assert record["c_minus"] == pytest.approx(-0.5, abs=1e-12)
    assert record["residual"] < 1e-12
    assert record["residual"] == tm.reduce_to_standard_form(tm.simon_vx(0.5)).residual
    s = np.array(record["s_local"])
    assert tm.is_symplectic(s)


def test_standard_form_bad_block_exits_4(run):
    v = tm.direct_sum(np.diag([1.0, -1.0]), np.eye(2))
    code, out, err = run(["standard-form"], stdin_text=doc(v))
    assert code == 4
    assert out == ""
    assert "block A" in err


# --------------------------------------------------------------- williamson

def test_williamson_machine_record(run):
    code, out, _ = run(["williamson", "--format", "machine"],
                       stdin_text=doc(tm.simon_vx(1.0)))
    assert code == 0
    record = json.loads(out)
    np.testing.assert_allclose(record["spectrum"],
                               [np.sqrt(2.0), np.sqrt(4.5)], atol=1e-12)
    assert record["residual_symplectic"] < 1e-9
    assert record["residual_normal_form"] < 1e-9
    assert record["degenerate"] is False
    s = np.array(record["transform"])
    w = np.array(record["normal_form"])
    np.testing.assert_allclose(s @ tm.simon_vx(1.0) @ s.T, w, atol=1e-9)


def test_williamson_degenerate_input(run):
    with pytest.warns(tm.DegeneracyWarning):
        code, out, _ = run(["williamson", "--format", "machine"],
                           stdin_text=doc(np.eye(4)))
    assert code == 0
    assert json.loads(out)["degenerate"] is True


def test_main_restores_the_warning_format(run):
    before = warnings.formatwarning
    with pytest.warns(tm.DegeneracyWarning):
        run(["williamson"], stdin_text=doc(np.eye(4)))
    assert warnings.formatwarning is before


def test_warning_is_one_line_without_a_path():
    src = str(Path(tm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-m", "twomode.cli", "williamson", "--format",
                           "machine"], input=doc(np.eye(4)).encode(), capture_output=True,
                          env=env, timeout=60)
    assert proc.returncode == 0
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("warning: symplectic spectrum is degenerate")
    assert "/" not in lines[0] and ".py" not in lines[0]


def test_williamson_decomposes_a_document_symmetric_within_tolerance(run):
    # The document's own tolerance admits the asymmetry; the record decomposes, and echoes, the
    # matrix whose lower triangle is its upper one.
    v = tm.random_physical(7)
    w = v + np.tril(np.full((4, 4), 0.5), -1) * 1e-6 * float(np.abs(v).max())
    code, out, err = run(["williamson", "--format", "machine"],
                         stdin_text=doc(w, tolerance={"rel": 1e-6}))
    assert code == 0, err
    assert json.loads(out)["matrix"] == upper_mirror(w).tolist()


def test_williamson_indefinite_exits_4(run):
    code, _, err = run(["williamson"],
                       stdin_text=doc(np.diag([1.0, 1.0, 1.0, -1.0])))
    assert code == 4
    assert "positive definite" in err


# ---------------------------------------------------------------------- gen

def test_gen_document_round_trips_into_classify(run):
    code, out, _ = run(["gen", "--family", "two_mode_squeezed",
                        "--param", "r=0.5"])
    assert code == 0
    document = json.loads(out)
    assert document["label"] == "two_mode_squeezed(r=0.5)"
    code, out, _ = run(["classify", "--format", "machine"], stdin_text=out)
    assert code == 0
    assert json.loads(out)["tag"] == "EntangledGaussianCM"


def test_gen_seeded_is_bitwise_reproducible(run):
    code1, out1, _ = run(["gen", "--family", "random_physical", "--seed", "11"])
    code2, out2, _ = run(["gen", "--family", "random_physical", "--seed", "11"])
    assert code1 == code2 == 0
    assert out1 == out2
    _, out3, _ = run(["gen", "--family", "random_physical", "--seed", "12"])
    assert out3 != out1


def test_gen_writes_file(run, tmp_path):
    path = tmp_path / "m.json"
    code, out, _ = run(["gen", "--family", "vacuum", "--out", str(path)])
    assert code == 0 and out == ""
    document = json.loads(path.read_text())
    np.testing.assert_array_equal(np.array(document["matrix"]), np.eye(4))
    assert document["label"] == "vacuum"


def test_gen_label_override(run):
    code, out, _ = run(["gen", "--family", "simon_vx", "--param", "x=1",
                        "--label", "probe"])
    assert code == 0
    assert json.loads(out)["label"] == "probe"


def test_gen_rejects_bad_params(run):
    code, _, err = run(["gen", "--family", "simon_vx", "--param", "x=-1"])
    assert code == 2 and "must be > 0" in err
    code, _, err = run(["gen", "--family", "simon_vx", "--param", "x"])
    assert code == 2 and "NAME=VALUE" in err
    code, _, err = run(["gen", "--family", "simon_vx", "--param", "x=abc"])
    assert code == 2
    code, _, err = run(["gen", "--family", "vacuum", "--param", "x=1"])
    assert code == 2 and "does not take" in err
    for family, param in (("two_mode_squeezed", "r=nan"), ("two_mode_squeezed", "r=inf"),
                          ("two_mode_squeezed", "r=400"), ("simon_vx", "x=nan"),
                          ("thermal", "nu=inf")):
        code, out, err = run(["gen", "--family", family, "--param", param])
        assert code == 2 and out == "" and "non-finite" in err
    for seed in ("inf", "nan", "1.5"):
        code, out, err = run(["gen", "--family", "random_physical", "--param", f"seed={seed}"])
        assert code == 2 and out == "" and "whole number" in err


def test_gen_unknown_family_is_an_argparse_error(run):
    with pytest.raises(SystemExit) as exc:
        run(["gen", "--family", "coherent"])
    assert exc.value.code == 2


# -------------------------------------------------------------------- sweep

def test_sweep_header_and_shape(run):
    code, out, _ = run(["sweep", "--family", "simon_vx", "--from", "0.1",
                        "--to", "0.5", "--step", "0.1"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("x,det_V,delta,delta_tilde,nu_minus,nu_tilde_minus,"
                        "heisenberg_margin,simon_margin,tag")
    assert len(lines) == 6  # header + 5 rows
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(0.1)
    assert first[-1] == "Unphysical"
    last = lines[-1].split(",")
    assert float(last[0]) == pytest.approx(0.5)
    assert last[-1] == "EntangledGaussianCM"


def test_sweep_two_mode_squeezed_nu_tilde_column(run):
    code, out, _ = run(["sweep", "--family", "two_mode_squeezed",
                        "--from", "0.1", "--to", "1.0", "--step", "0.45"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 3
    for row in rows:
        r = float(row[0])
        assert float(row[5]) == pytest.approx(np.exp(-2 * r), abs=1e-12)
        assert row[8] == "EntangledGaussianCM"


def test_sweep_strongly_squeezed_exits_0(run):
    # From r = 4.2 the float radicand Delta^2 - 4 det V is a small negative
    # rounding residue; it is clamped, not reported as an error.
    code, out, err = run(["sweep", "--family", "two_mode_squeezed",
                          "--from", "4", "--to", "5", "--step", "0.1"])
    assert code == 0 and err == ""
    assert len(out.strip().splitlines()) == 12


def test_sweep_thermal_is_separable_everywhere(run):
    code, out, _ = run(["sweep", "--family", "thermal", "--from", "1.0",
                        "--to", "3.0", "--step", "1.0"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [row[8] for row in rows] == ["SeparableGaussianCM"] * 3


def test_sweep_values_round_trip_bitwise(run):
    # 17 significant digits are enough to reproduce the double exactly.
    code, out, _ = run(["sweep", "--family", "simon_vx", "--from", "0.3",
                        "--to", "0.3", "--step", "0.1"])
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    inv = tm.two_mode_invariants(tm.simon_vx(0.3))
    assert float(row[1]) == inv.det_V
    assert float(row[2]) == inv.delta
    assert float(row[3]) == inv.delta_tilde


def test_sweep_simon_margin_is_the_global_delta_margin(run):
    # The column is the global route's Delta <= 1 + det V margin, not a copy
    # of its formula that rounds differently.
    code, out, _ = run(["sweep", "--family", "simon_vx", "--from", "0.01",
                        "--to", "0.1", "--step", "0.01"])
    assert code == 0
    for row in (line.split(",") for line in out.strip().splitlines()[1:]):
        v = tm.simon_vx(float(row[0]))
        assert float(row[7]) == tm.classify_global(v).margins["delta_margin"]


def test_sweep_writes_file(run, tmp_path):
    path = tmp_path / "sweep.csv"
    code, out, _ = run(["sweep", "--family", "simon_vx", "--from", "0.5",
                        "--to", "0.5", "--step", "0.5", "--out", str(path)])
    assert code == 0 and out == ""
    assert path.read_text().startswith("x,det_V,")


def test_sweep_rejects_bad_grid(run):
    code, _, err = run(["sweep", "--family", "simon_vx", "--from", "0.5",
                        "--to", "0.1", "--step", "0.1"])
    assert code == 2 and "below" in err
    code, _, err = run(["sweep", "--family", "simon_vx", "--from", "0.1",
                        "--to", "0.5", "--step", "0"])
    assert code == 2 and "--step" in err
    for flag, (start, stop, step) in (("--to", ("0.1", "inf", "0.1")),
                                      ("--step", ("0.1", "0.5", "inf")),
                                      ("--from", ("nan", "0.5", "0.1"))):
        code, out, err = run(["sweep", "--family", "simon_vx", "--from", start,
                              "--to", stop, "--step", step])
        assert code == 2 and out == "" and f"{flag} must be finite" in err
    # A grid whose point count overflows, or one just past the point cap,
    # fails before anything is allocated.
    for start, stop in (("-1e308", "1e308"), ("0", "1e6")):
        code, out, err = run(["sweep", "--family", "simon_vx", f"--from={start}",
                              "--to", stop, "--step", "1"])
        assert code == 2 and out == "" and "cap" in err


def test_sweep_localizes_analytic_thresholds(run):
    # Sign changes of the margin columns land within one step of the
    # analytic thresholds 1/8, (sqrt(33) - 1)/16 and 1/2.
    code, out, _ = run(["sweep", "--family", "simon_vx", "--from", "0.01",
                        "--to", "1.0", "--step", "0.01"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    xs = [float(r[0]) for r in rows]
    heis_pos = [float(r[6]) >= 0.0 for r in rows]
    simon_pos = [float(r[7]) >= 0.0 for r in rows]
    detv_ge_1 = [float(r[1]) >= 1.0 for r in rows]

    def flips(flags):
        return [xs[i] for i in range(1, len(flags)) if flags[i] != flags[i - 1]]

    assert flips(heis_pos) == [pytest.approx(0.5, abs=1e-12)]
    step = 0.01
    simon_flips = flips(simon_pos)
    assert len(simon_flips) == 2
    assert abs(simon_flips[0] - 0.125) <= step
    assert abs(simon_flips[1] - 0.5) <= step + 1e-12
    detv_flips = flips(detv_ge_1)
    assert len(detv_flips) == 1
    assert abs(detv_flips[0] - (np.sqrt(33.0) - 1.0) / 16.0) <= step


def test_sweep_rejects_unsweepable_family(run):
    # vacuum is not in the sweep choices: rejected at the parser level.
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--family", "vacuum", "--from", "0",
             "--to", "1", "--step", "0.5"])
    assert exc.value.code == 2


# --------------------------------------------------------------- exit codes

def test_exit_code_2_for_garbage_input(run):
    for text in ("not a matrix", DEEP_DOCUMENT):
        code, _, err = run(["classify"], stdin_text=text)
        assert code == 2 and "error:" in err


@pytest.mark.parametrize("argv, text, message", [
    (["classify"], '[["a", 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]',
     "error: matrix entries are not numeric"),
    (["classify", "--input", "no/such/file.json"], None, "error: cannot read no/such/file.json"),
])
def test_unreadable_input_exits_2(run, argv, text, message):
    code, out, err = run(argv, stdin_text=text)
    assert (code, out) == (2, "")
    assert err.startswith(message) and err.count("\n") == 1


def test_exit_code_3_for_odd_dimension(run):
    # A ragged JSON matrix exited 2, "matrix entries are not numeric: setting an array element".
    for text in ("[[1,0,0],[0,1,0],[0,0,1]]", "[[1,2],[3,4],[5,6]]", "[[1, 0], [0]]"):
        code, _, err = run(["classify"], stdin_text=text)
        assert code == 3


def test_exit_code_3_for_asymmetric(run):
    code, _, err = run(["classify"], stdin_text="[[1,0.5],[0,1]]")
    assert code == 3 and "symmetric" in err


def test_exit_code_1_for_unwritable_output(run, tmp_path):
    code, _, err = run(["gen", "--family", "vacuum",
                        "--out", str(tmp_path / "no" / "such" / "dir.json")])
    assert code == 1 and "cannot write" in err


# -------------------------------------------------------- tolerance plumbing

def test_tolerance_flags_relax_symmetry_check(run):
    near = [[1.0, 1e-6, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
    code, _, _ = run(["classify"], stdin_text=json.dumps({"matrix": near}))
    assert code == 3  # default tolerance rejects the asymmetry
    code, out, _ = run(["classify", "--format", "machine", "--tol-abs", "1e-3"],
                       stdin_text=json.dumps({"matrix": near}))
    assert code == 0


def test_document_tolerance_override_applies(run):
    near = [[1.0, 1e-6, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
    text = json.dumps({"matrix": near, "tolerance": {"abs": 1e-3}})
    code, _, _ = run(["classify", "--format", "machine"], stdin_text=text)
    assert code == 0


def test_cli_flag_beats_document_tolerance(run):
    near = [[1.0, 1e-6, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
    text = json.dumps({"matrix": near, "tolerance": {"abs": 1e-3}})
    code, _, _ = run(["classify", "--tol-abs", "1e-12"], stdin_text=text)
    assert code == 3


# JSON integers past float64, which converting to float raised as a bare OverflowError.
_BIG = "1" * 401
_BIG_ENTRY = '{"matrix": [[%s,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]}' % _BIG
_BIG_TOLERANCE = '{"matrix": [[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]], "tolerance": {%s}}'


@pytest.mark.parametrize("argv, text", [
    (["classify", "--tol-rel", "nan"], doc(tm.simon_vx(0.7))),
    (["sweep", "--family", "simon_vx", "--from", "0.4", "--to", "0.6", "--step", "0.1",
      "--tol-abs", "inf"], None),
    # Would pass the symmetry check under a NaN tolerance, and exit 3 under any valid one.
    (["classify"], json.dumps({"matrix": [[1, 5, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                               "tolerance": {"rel": "nan"}})),
    pytest.param(["classify"], _BIG_TOLERANCE % f'"rel": {_BIG}', id="int_rel_past_float64"),
    pytest.param(["classify"], _BIG_TOLERANCE % f'"abs": -{_BIG}', id="int_abs_past_float64"),
])
def test_non_finite_tolerance_exits_2(run, argv, text):
    code, out, err = run(argv, stdin_text=text)
    assert (code, out) == (2, "")
    assert err.startswith("error: tolerances must be finite and nonnegative")
    assert err.count("\n") == 1


# -------------------------------------------------------- records and printer

def test_each_cli_record_evaluates_the_matrix_once(run, monkeypatch):
    # det V and V > 0 come from the matrix's minors, with no LAPACK call; invariants
    # and each sweep row add the oracle's eigvalsh(V + i Omega). The spectra come
    # from (Delta, det V) and (Delta~, det V) of the same evaluation.
    counts = count_linalg(monkeypatch, "det", "eigvalsh")
    text = doc(tm.random_physical(3))
    for argv, expected in ((["classify", "--format", "machine"], {}),
                           (["invariants"], {"eigvalsh": 1}),
                           (["sweep", "--family", "simon_vx", "--from", "0.7",
                             "--to", "0.7", "--step", "1"], {"eigvalsh": 1})):
        counts.clear()
        code, _, _ = run(argv, stdin_text=text)
        assert code == 0
        assert counts == expected, argv[0]


@pytest.mark.parametrize("command", ["classify", "invariants"])
def test_overflowing_invariants_exit_1(run, command):
    # det V = det C^2 = 1e320 overflow float64.
    grid = "1e80 0 1e80 0\n0 1e80 0 -1e80\n1e80 0 2e80 0\n0 -1e80 0 2e80\n"
    with np.errstate(over="ignore"):
        code, out, err = run([command, "--format", "machine"], stdin_text=grid)
    assert code == 1 and out == ""
    assert err.startswith("error: invariants overflow")


def test_numerical_error_exits_1(run, monkeypatch):
    import twomode.cli as cli

    def failing(*args, **kwargs):
        raise tm.NumericalError("squared symplectic eigenvalue -1 < 0")

    monkeypatch.setattr(cli, "_global_verdict", failing)
    for argv, stdin_text in ((["classify"], doc(tm.simon_vx(0.7))),
                             (["sweep", "--family", "simon_vx", "--from", "0.5",
                               "--to", "0.6", "--step", "0.1"], None)):
        code, out, err = run(argv, stdin_text=stdin_text)
        assert code == 1 and out == ""
        assert err == "error: squared symplectic eigenvalue -1 < 0\n"


def test_invariants_never_runs_the_classifiers_cross_checks(run, monkeypatch):
    # nu_- far below 1 on a physical state: the classifier's spectral cross-check
    # fails, while the invariants record only reports the spectrum.
    import dataclasses

    from twomode import physicality
    original = physicality._spectrum_from_delta
    monkeypatch.setattr(physicality, "_spectrum_from_delta",
                        lambda *args: (0.5, original(*args)[1]))
    v = tm.thermal(2.0, 1.5)
    code, out, err = run(["classify"], stdin_text=doc(v))
    assert code == 1 and out == ""
    assert err.startswith("error: spectral and determinant physicality forms disagree")
    code, out, _ = run(["invariants", "--format", "machine"], stdin_text=doc(v))
    assert code == 0
    assert json.loads(out)["invariants"] == dataclasses.asdict(tm.two_mode_invariants(v))


@pytest.mark.parametrize("command", ["classify", "invariants", "standard-form",
                                     "williamson"])
def test_text_output_renders_the_machine_record(run, command):
    text = doc(tm.simon_vx(0.7), label="probe")
    code, out, _ = run([command, "--format", "machine"], stdin_text=text)
    assert code == 0
    keys = [key for key in json.loads(out) if key != "matrix"]
    code, out, _ = run([command], stdin_text=text)
    assert code == 0
    top = [line.split(":")[0] for line in out.splitlines() if not line.startswith(" ")]
    assert top == keys
    assert "label: probe" in out.splitlines()
    code, out, _ = run([command], stdin_text=doc(tm.simon_vx(0.7)))
    assert code == 0 and "label" not in out


def test_text_output_marks_undefined_spectra(run):
    for command in ("classify", "invariants"):
        code, out, _ = run([command], stdin_text=doc(np.diag([1.0, 1.0, 1.0, -1.0])))
        assert code == 0
        lines = out.splitlines()
        for key in ("nu_minus", "nu_plus", "nu_tilde_minus", "nu_tilde_plus"):
            assert f"{key}: undefined (V not > 0)" in lines


@pytest.mark.parametrize("argv", [
    ["classify"], ["classify", "--format", "machine"],
    ["sweep", "--family", "simon_vx", "--from", "0.1", "--to", "1", "--step", "0.1"],
])
def test_closed_pipe_exits_1_quietly(argv):
    src = str(Path(tm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader left: the first write to stdout fails
    try:
        proc = subprocess.run([sys.executable, "-m", "twomode.cli", *argv],
                              input=doc(tm.simon_vx(0.7)).encode(), stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


@pytest.mark.parametrize("exponent", [80, 300])
@pytest.mark.parametrize("command", ["classify", "invariants"])
def test_overflowing_invariants_print_one_error_line(command, exponent):
    # In a fresh process, with numpy's warnings at their defaults: the
    # overflow of det V is reported by the error line alone.
    grid = "".join(" ".join(f"{x}e{exponent}" for x in row) + "\n"
                   for row in ((1, 0, 1, 0), (0, 1, 0, -1), (1, 0, 2, 0), (0, -1, 0, 2)))
    src = str(Path(tm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-m", "twomode.cli", command], input=grid.encode(),
                          capture_output=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr.decode().startswith("error: invariants overflow")
    assert proc.stderr.count(b"\n") == 1


@pytest.mark.parametrize("command", ["classify", "invariants", "standard-form", "williamson"])
def test_integer_entry_past_float64_exits_3(run, command):
    code, out, err = run([command, "--format", "machine"], stdin_text=_BIG_ENTRY)
    assert (code, out, err) == (3, "", "error: matrix contains an entry past float64\n")


@pytest.mark.parametrize("text, code", [(_BIG_ENTRY, 3), (_BIG_TOLERANCE % f'"rel": {_BIG}', 2)],
                         ids=["entry", "tolerance"])
def test_integers_past_float64_print_one_error_line(text, code):
    src = str(Path(tm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-m", "twomode.cli", "classify"], input=text.encode(),
                          capture_output=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (code, b"")
    assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1
    assert b"Traceback" not in proc.stderr


_BAD_TOLERANCES = [{"rel": [1]}, {"rel": {"value": 1}}, {"abs": True}]


@pytest.mark.parametrize("tolerance", _BAD_TOLERANCES)
def test_parse_rejects_a_tolerance_that_is_not_a_number(tolerance):
    from twomode.cli import _DocumentError
    with pytest.raises(_DocumentError, match="tolerance values must be numbers"):
        parse_document(doc(np.eye(4), tolerance=tolerance))


@pytest.mark.parametrize("tolerance", _BAD_TOLERANCES)
def test_tolerance_that_is_not_a_number_exits_2(run, tolerance):
    code, out, err = run(["classify"], stdin_text=doc(np.eye(4), tolerance=tolerance))
    assert (code, out) == (2, "")
    assert err == "error: tolerance values must be numbers, numeric strings or null\n"


@pytest.mark.parametrize("tolerance", [False, 0, "", [], [1], "x"])
def test_tolerance_that_is_not_an_object_exits_2(run, tolerance):
    # Falsy values used to run silently with the default tolerances.
    code, out, err = run(["classify"], stdin_text=doc(np.eye(4), tolerance=tolerance))
    assert (code, out) == (2, "")
    assert err == 'error: "tolerance" must be an object\n'


def test_null_or_missing_tolerance_means_the_defaults(run):
    outputs = [run(["classify", "--format", "machine"], stdin_text=text)
               for text in (doc(np.eye(4)), doc(np.eye(4), tolerance=None),
                            doc(np.eye(4), tolerance={}))]
    assert outputs[0][0] == 0 and outputs[0][2] == ""
    assert outputs[1] == outputs[2] == outputs[0]


@pytest.mark.parametrize("family, param, value", [
    ("simon_vx", "x", "0.3"), ("simon_vx", "x", "0.7"),
    ("two_mode_squeezed", "r", "0.5"), ("thermal", "nu", "2"),
])
def test_sweep_row_matches_the_records(run, family, param, value):
    code, csv, _ = run(["sweep", "--family", family, "--from", value, "--to", value,
                        "--step", "1"])
    assert code == 0
    header, line = csv.splitlines()
    row = dict(zip(header.split(","), line.split(",")))
    code, document, _ = run(["gen", "--family", family, "--param", f"{param}={value}"])
    assert code == 0
    records = {}
    for command in ("classify", "invariants"):
        code, out, _ = run([command, "--format", "machine"], stdin_text=document)
        assert code == 0
        records[command] = json.loads(out)
    classify = records["classify"]
    expected = {"det_V": classify["invariants"]["det_V"],
                "delta": classify["invariants"]["delta"],
                "delta_tilde": classify["invariants"]["delta_tilde"],
                "nu_minus": classify["nu_minus"], "nu_tilde_minus": classify["nu_tilde_minus"],
                "simon_margin": classify["margins"]["delta_margin"],
                "heisenberg_margin": records["invariants"]["heisenberg_margin"]}
    for column, number in expected.items():
        assert float(row[column]).hex() == float(number).hex(), column
    assert row["tag"] == classify["tag"]


_BOOLEAN_DOCUMENTS = [
    '{"matrix": [[true,0,0,0],[0,true,0,0],[0,0,true,0],[0,0,0,true]]}',
    '[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,false]]',
    '{"matrix": [true, false]}',
]


@pytest.mark.parametrize("text", _BOOLEAN_DOCUMENTS)
def test_parse_rejects_boolean_matrix_entries(text):
    from twomode.cli import _DocumentError
    with pytest.raises(_DocumentError, match="not booleans"):
        parse_document(text)


@pytest.mark.parametrize("text", _BOOLEAN_DOCUMENTS)
def test_boolean_matrix_entries_exit_2(run, text):
    code, out, err = run(["classify"], stdin_text=text)
    assert (code, out) == (2, "")
    assert err == "error: matrix entries must be numbers or numeric strings, not booleans\n"


_NULL_DOCUMENTS = [
    '{"matrix": [[null,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]}',
    '[[1,0,0,0],[0,1,0,0],[0,0,1,null],[0,0,null,1]]',
    '{"matrix": null}',
    '{"matrix": [null, null, null, null]}',
    '[null]',
]


@pytest.mark.parametrize("text", _NULL_DOCUMENTS)
def test_null_matrix_entries_exit_2(run, text):
    # numpy reads null as NaN, which used to exit 3 as a non-finite matrix.
    code, out, err = run(["classify", "--format", "machine"], stdin_text=text)
    assert (code, out) == (2, "")
    assert err == "error: matrix entries must be numbers or numeric strings, not null\n"


@pytest.mark.parametrize("text", _NULL_DOCUMENTS)
def test_parse_rejects_null_matrix_entries_as_a_document_error(text):
    # A parse error that is still a NonFiniteError for callers that catch that.
    from twomode.cli import _DocumentError
    with pytest.raises(_DocumentError, match="not null") as caught:
        parse_document(text)
    assert isinstance(caught.value, tm.NonFiniteError)


@pytest.mark.parametrize("text", ['{"matrix": [1, 2, 3, 4]}', '{"matrix": 5}'])
def test_numeric_matrix_of_the_wrong_shape_exits_3(run, text):
    # Well-formed numbers that are not a square matrix: a dimension error, not a parse error.
    code, out, err = run(["classify", "--format", "machine"], stdin_text=text)
    assert (code, out) == (3, "")
    assert err.startswith("error: expected a square matrix")

"""Exception hierarchy: catchability contracts, and the self-checks that raise them."""
import numpy as np
import pytest

import twomode as tm
from twomode import invariants, standard_form, williamson


def test_every_error_is_a_twomode_error():
    for exc_type in (tm.DimensionError, tm.SymmetryError, tm.NonFiniteError,
                     tm.NotPositiveDefinite, tm.BlockNotPositiveDefinite,
                     tm.SingularInput, tm.PreconditionViolated,
                     tm.NumericalError, tm.PairingError,
                     tm.InternalInconsistency):
        assert issubclass(exc_type, tm.TwoModeError)


def test_input_errors_are_value_errors():
    # Callers using plain `except ValueError` still catch bad-input failures.
    for exc_type in (tm.DimensionError, tm.SymmetryError, tm.NonFiniteError,
                     tm.NotPositiveDefinite, tm.SingularInput,
                     tm.PreconditionViolated):
        assert issubclass(exc_type, ValueError)


def test_numerical_errors_are_arithmetic_errors():
    assert issubclass(tm.NumericalError, ArithmeticError)
    assert issubclass(tm.PairingError, tm.NumericalError)


def test_internal_inconsistency_is_a_runtime_error():
    assert issubclass(tm.InternalInconsistency, RuntimeError)
    assert not issubclass(tm.InternalInconsistency, ValueError)


def test_block_error_carries_block_and_eigenvalue():
    err = tm.BlockNotPositiveDefinite("bad", block="B", min_eig=-0.25)
    assert err.block == "B"
    assert err.min_eig == -0.25
    assert isinstance(err, tm.NotPositiveDefinite)


def test_not_positive_definite_carries_eigenvalue():
    err = tm.NotPositiveDefinite("bad", min_eig=-1.5)
    assert err.min_eig == -1.5


def test_degeneracy_warning_is_a_user_warning():
    assert issubclass(tm.DegeneracyWarning, UserWarning)
    with pytest.warns(tm.DegeneracyWarning):
        tm.williamson_decompose(tm.thermal(2.0, 2.0))


def _negative_vieta_root(monkeypatch):
    monkeypatch.setattr(invariants, "_vieta", lambda *_: (0.0, -1.0, 2.0))
    tm.symplectic_spectrum_2mode(tm.thermal(2.0, 1.5))


def _identity_phase_rotation(monkeypatch):
    monkeypatch.setattr(standard_form, "_rotation", lambda _: (1.0, 0.0, 0.0, 1.0))
    tm.reduce_to_standard_form(tm.random_physical(3))


def _unpaired_eigenvalues(monkeypatch):
    eigh = williamson._eigh

    def shifted(m):
        evals, vecs = eigh(m)
        return evals + np.linspace(0.0, 1.0, len(evals)), vecs

    monkeypatch.setattr(williamson, "_eigh", shifted)
    tm.skew_block_rotation(np.kron(np.eye(2), 2.0 * tm.omega(1)))


@pytest.mark.parametrize("fire, error, message", [
    (_negative_vieta_root, tm.NumericalError, r"squared symplectic eigenvalue -1\.000e\+00 < 0$"),
    (_identity_phase_rotation, tm.InternalInconsistency,
     r"residual max \|S V S\^T - T\| = .* exceeds its bound"),
    (_unpaired_eigenvalues, tm.PairingError, "eigenvalues do not split into conjugate pairs"),
], ids=["invariants-vieta", "standard_form-angles", "williamson-pairing"])
def test_each_self_check_fires_on_the_step_it_checks(monkeypatch, fire, error, message):
    # No valid input reaches these raises; each fires once the step it checks is broken, so a
    # change that drops or inverts a check fails here.
    with pytest.raises(error, match=f"^{message}") as err:
        fire(monkeypatch)
    assert err.type is error

"""Result records: frozen, slotted dataclasses that pickle, copy and compare as plain ones."""
import dataclasses
import pickle

import numpy as np
import pytest

import twomode as tm
from twomode.cli import parse_document

_V = tm.simon_vx(0.7)


def _records():
    """One instance of every result record the package builds, from its public API."""
    return [
        tm.DEFAULT_TOL, tm.blocks(_V), tm.two_mode_invariants(_V), tm.symplectic_spectrum_2mode(_V),
        tm.check_global(_V), tm.check_local(_V), tm.standard_form_hermitian_eigs(2.0, 1.5, 0.5, 0.2),
        tm.classify_global(_V), tm.reduce_to_standard_form(_V), tm.williamson_decompose(_V),
        tm.FamilySpec("simon_vx", {"x": 0.7}), parse_document('{"matrix": [[1,0],[0,1]]}'),
    ]


def _equal(xs, ys) -> bool:
    """Element-by-element equality that compares arrays by value."""
    return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
               for a, b in zip(xs, ys, strict=True))


def _same(x, y) -> bool:
    return type(x) is type(y) and _equal(dataclasses.astuple(x), dataclasses.astuple(y))


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_record_is_frozen_and_slotted(record):
    assert not hasattr(record, "__dict__")
    name = dataclasses.fields(record)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, name, getattr(record, name))
    # A name that is not a field has no slot; CPython 3.10-3.13 raise TypeError here.
    with pytest.raises((TypeError, AttributeError)):
        record.not_a_field = 1
    assert not hasattr(record, "not_a_field")


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_record_pickles_copies_and_converts(record):
    assert _same(pickle.loads(pickle.dumps(record)), record)
    fields = dataclasses.fields(record)
    as_dict = dataclasses.asdict(record)
    assert list(as_dict) == [f.name for f in fields]
    assert _equal(as_dict.values(), [getattr(record, f.name) for f in fields])
    first = fields[0].name
    copy = dataclasses.replace(record, **{first: getattr(record, first)})
    assert copy is not record and _same(copy, record)

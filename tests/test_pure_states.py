"""Integer pure states V = S S^T: exact in float64, physical and entangled on every route.

S is an integer symplectic matrix, so V has integer entries, det V = 1 and Delta = 2 with
no input rounding (see ``support.integer_pure_state``). The exact referee
``support.exact_bona_fide`` decides these boundary states, and their neighbours, exactly.
"""
from fractions import Fraction

import numpy as np
import pytest

import twomode as tm
from twomode import Tag

from .support import (PURE_EXPONENTS, PURE_FAMILIES, exact_bona_fide, int_det,
                      integer_pure_state)

# Each route's answer for a physical, entangled state.
ROUTES = {
    "heisenberg_oracle": lambda v: tm.heisenberg_oracle(v)[0],
    "check_global": lambda v: tm.check_global(v).verdict,
    "classify_global": lambda v: tm.classify_global(v).tag is Tag.ENTANGLED,
    "posdef_criterion": lambda v: tm.posdef_criterion(v).tag is Tag.ENTANGLED,
    "simon_criterion": lambda v: tm.simon_criterion(v) is False,
    "check_local": lambda v: tm.check_local(v).verdict,
    "classify_local": lambda v: tm.classify_local(v).tag is Tag.ENTANGLED,
}


@pytest.mark.parametrize("family", PURE_FAMILIES)
def test_integer_pure_states_are_exact_pure_and_entangled(family):
    for k in PURE_EXPONENTS:
        v = integer_pure_state(family, k)
        assert v == [list(col) for col in zip(*v)]
        # float64 holds every entry exactly: all are below 2^53.
        assert max(abs(x) for row in v for x in row) <= 2.2e12
        assert [[int(x) for x in row] for row in np.array(v, dtype=float).tolist()] == v
        assert int_det(v) == 1
        det_a = v[0][0] * v[1][1] - v[0][1] * v[1][0]
        det_b = v[2][2] * v[3][3] - v[2][3] * v[3][2]
        det_c = v[0][2] * v[1][3] - v[0][3] * v[1][2]
        assert det_a + det_b + 2 * det_c == 2  # Delta = 1 + det V: pure
        assert det_a + det_b - 2 * det_c > 2  # Delta~ > 1 + det V: entangled


@pytest.mark.parametrize("family, k, route", [
    pytest.param(family, k, route, id=f"{family}-k{k}-{route}")
    for family in PURE_FAMILIES for k in PURE_EXPONENTS for route in ROUTES])
def test_integer_pure_state_is_physical_and_entangled(family, k, route):
    assert ROUTES[route](np.array(integer_pure_state(family, k), dtype=float))


@pytest.mark.parametrize("family", PURE_FAMILIES)
def test_exact_referee_decides_the_pure_states_and_their_neighbours(family):
    # A pure state sits on the boundary: V is physical and Lambda V Lambda is not (every
    # family has C(t), t >= 1, so the state is entangled). (1 +- 2^-20) V land just inside
    # and just outside, and are exact in float64 while every entry stays below 2^32.
    scaled = 0
    for k in PURE_EXPONENTS:
        v_int = integer_pure_state(family, k)
        v = np.array(v_int, dtype=float)
        assert exact_bona_fide(v)
        assert not exact_bona_fide(tm.partial_transpose(v))
        if max(abs(x) for row in v_int for x in row) >= 2**32:
            continue
        for sign, physical in ((1, True), (-1, False)):
            factor = 1.0 + sign * 2.0**-20
            w = v * factor
            assert all(Fraction(x) == Fraction(n) * Fraction(factor)
                       for x, n in zip(w.flat, (n for row in v_int for n in row)))
            assert exact_bona_fide(w) is physical
        scaled += 1
    assert scaled >= 10

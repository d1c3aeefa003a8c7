"""Named matrix families and the FamilySpec dispatcher."""
import numpy as np
import pytest

import twomode as tm
from twomode import FamilySpec


def test_vacuum_is_identity():
    np.testing.assert_array_equal(tm.vacuum(), np.eye(4))


def test_thermal_layout_and_domain():
    np.testing.assert_array_equal(tm.thermal(2.0, 3.0),
                                  np.diag([2.0, 2.0, 3.0, 3.0]))
    with pytest.raises(ValueError):
        tm.thermal(0.5, 2.0)
    with pytest.raises(ValueError):
        tm.thermal(1.0, 0.99)


def test_two_mode_squeezed_matrix():
    r = 0.3
    ch, sh = np.cosh(0.6), np.sinh(0.6)
    expected = np.array([
        [ch, 0, sh, 0],
        [0, ch, 0, -sh],
        [sh, 0, ch, 0],
        [0, -sh, 0, ch],
    ])
    np.testing.assert_allclose(tm.two_mode_squeezed(r), expected, atol=1e-15)
    np.testing.assert_array_equal(tm.two_mode_squeezed(0.0), np.eye(4))
    with pytest.raises(ValueError):
        tm.two_mode_squeezed(-0.1)


@pytest.mark.parametrize("family, args", [
    (tm.two_mode_squeezed, (float("nan"),)), (tm.two_mode_squeezed, (float("inf"),)),
    (tm.two_mode_squeezed, (400.0,)),  # cosh 800 overflows
    (tm.simon_vx, (float("nan"),)), (tm.simon_vx, (1e308,)),  # 4x overflows
    (tm.thermal, (float("inf"), 2.0)), (tm.thermal, (2.0, float("nan")))])
def test_families_reject_parameters_that_give_non_finite_matrices(family, args):
    with pytest.raises(ValueError, match="non-finite"):
        family(*args)


def test_two_mode_squeezed_is_pure():
    for r in (0.2, 0.8):
        inv = tm.two_mode_invariants(tm.two_mode_squeezed(r))
        assert inv.det_V == pytest.approx(1.0, abs=1e-10)


def test_mixing_family_matrix():
    expected = np.array([
        [1.5, 0.0, 0.5, 0.0],
        [0.0, 1.5, 0.0, -1.0],
        [0.5, 0.0, 1.5, 0.0],
        [0.0, -1.0, 0.0, 1.5],
    ])
    np.testing.assert_allclose(tm.simon_vx(0.5), expected, atol=1e-15)
    with pytest.raises(ValueError):
        tm.simon_vx(0.0)
    with pytest.raises(ValueError):
        tm.simon_vx(-1.0)


def test_mixing_family_is_positive_definite_for_all_x():
    for x in (0.01, 0.1, 0.25, 0.5, 2.0, 10.0):
        assert tm.is_positive_definite(tm.simon_vx(x))


def test_mixing_family_det_v():
    for x in (0.1, 0.3, 1.7):
        inv = tm.two_mode_invariants(tm.simon_vx(x))
        assert inv.det_V == pytest.approx(x * (1 + 8 * x), rel=1e-12)


def test_balanced_mixer_is_symplectic_and_orthogonal():
    m = tm.balanced_mixer()
    assert tm.is_symplectic(m)
    np.testing.assert_allclose(m @ m.T, np.eye(4), atol=1e-15)


def test_random_physical_is_reproducible_and_physical():
    a = tm.random_physical(42)
    b = tm.random_physical(42)
    np.testing.assert_array_equal(a, b)  # bitwise
    assert np.max(np.abs(a - tm.random_physical(43))) > 1e-6
    for seed in range(25):
        v = tm.random_physical(seed)
        ok, _ = tm.heisenberg_oracle(v)
        assert ok, f"seed {seed} produced an unphysical matrix"


def test_random_physical_population_has_both_tags():
    tags = {tm.classify_global(tm.random_physical(seed)).tag
            for seed in range(40)}
    assert tm.Tag.SEPARABLE in tags
    assert tm.Tag.ENTANGLED in tags


def test_random_symmetric_is_reproducible_and_symmetric():
    a = tm.random_symmetric(7)
    np.testing.assert_array_equal(a, tm.random_symmetric(7))
    np.testing.assert_array_equal(a, a.T)
    assert np.max(np.abs(a)) <= 2.0


def test_generate_dispatch():
    np.testing.assert_array_equal(tm.generate(FamilySpec("vacuum")), np.eye(4))
    np.testing.assert_array_equal(
        tm.generate(FamilySpec("thermal", {"nu1": 2.0, "nu2": 3.0})),
        tm.thermal(2.0, 3.0))
    np.testing.assert_array_equal(
        tm.generate(FamilySpec("thermal", {"nu": 1.5})), tm.thermal(1.5, 1.5))
    np.testing.assert_array_equal(
        tm.generate(FamilySpec("two_mode_squeezed", {"r": 0.4})),
        tm.two_mode_squeezed(0.4))
    np.testing.assert_array_equal(
        tm.generate(FamilySpec("simon_vx", {"x": 0.3})), tm.simon_vx(0.3))
    np.testing.assert_array_equal(
        tm.generate(FamilySpec("random_physical", {"seed": 5})),
        tm.random_physical(5))
    np.testing.assert_array_equal(
        tm.generate(FamilySpec("random_symmetric", {"seed": 5})),
        tm.random_symmetric(5))


def test_generate_seed_defaults_to_zero():
    np.testing.assert_array_equal(tm.generate(FamilySpec("random_physical")),
                                  tm.random_physical(0))


@pytest.mark.parametrize("name", ["random_physical", "random_symmetric"])
def test_generate_rejects_seeds_that_are_not_whole_numbers(name):
    for seed in (float("inf"), float("nan"), 1.5):
        with pytest.raises(ValueError, match="whole number"):
            tm.generate(FamilySpec(name, {"seed": seed}))
    np.testing.assert_array_equal(tm.generate(FamilySpec(name, {"seed": 3.0})),
                                  tm.generate(FamilySpec(name, {"seed": 3})))


def test_generate_rejects_unknown_family():
    with pytest.raises(ValueError, match="unknown family"):
        tm.generate(FamilySpec("coherent"))


def test_generate_rejects_stray_parameters():
    with pytest.raises(ValueError, match="does not take"):
        tm.generate(FamilySpec("vacuum", {"x": 1.0}))
    with pytest.raises(ValueError, match="does not take"):
        tm.generate(FamilySpec("simon_vx", {"x": 1.0, "r": 2.0}))


def test_generate_rejects_missing_parameters():
    with pytest.raises(ValueError, match="requires parameter"):
        tm.generate(FamilySpec("simon_vx"))
    with pytest.raises(ValueError, match="requires parameter"):
        tm.generate(FamilySpec("thermal", {"nu1": 2.0}))


def test_generate_rejects_nu_conflict():
    with pytest.raises(ValueError, match="not both"):
        tm.generate(FamilySpec("thermal", {"nu": 2.0, "nu1": 2.0, "nu2": 2.0}))


def test_family_names_cover_dispatcher():
    for name in tm.FAMILY_NAMES:
        params = {"vacuum": {}, "thermal": {"nu": 2.0},
                  "two_mode_squeezed": {"r": 0.1}, "simon_vx": {"x": 1.0},
                  "random_physical": {"seed": 1},
                  "random_symmetric": {"seed": 1}}[name]
        out = tm.generate(FamilySpec(name, params))
        assert out.shape == (4, 4)

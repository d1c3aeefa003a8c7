"""Separable/entangled/unphysical classification and the criterion forms."""
import dataclasses

import numpy as np
import pytest

import twomode as tm
from twomode import Tag, physicality, separability

from .support import (
    boundary_biased,
    count_linalg,
    near_boundary,
    random_local_symplectic,
    random_physical_cm,
    random_symmetric,
    swap_modes,
)


def test_tag_values_are_the_public_names():
    assert Tag.UNPHYSICAL.value == "Unphysical"
    assert Tag.SEPARABLE.value == "SeparableGaussianCM"
    assert Tag.ENTANGLED.value == "EntangledGaussianCM"


def test_vacuum_is_separable():
    out = tm.classify_global(np.eye(4))
    assert out.tag is Tag.SEPARABLE
    assert out.margins["nu_tilde_minus_minus_1"] == pytest.approx(0.0, abs=1e-12)


def test_two_mode_squeezed_is_entangled():
    out = tm.classify_global(tm.two_mode_squeezed(0.5))
    assert out.tag is Tag.ENTANGLED
    assert out.margins["nu_tilde_minus_minus_1"] == pytest.approx(
        np.exp(-1.0) - 1.0, abs=1e-12)
    # nu_- = nu_+ = 1 for a pure state; the discriminant Delta^2 - 4 det V
    # cancels to zero, so the computed root only carries sqrt(eps) accuracy.
    assert out.margins["nu_minus_minus_1"] == pytest.approx(0.0, abs=1e-7)


def test_mixing_family_above_threshold_is_entangled():
    out = tm.classify_global(tm.simon_vx(1.0))
    assert out.tag is Tag.ENTANGLED
    # Delta~ - (1 + det V) = 18.5 - 10.
    assert out.margins["delta_tilde_margin"] == pytest.approx(-8.5, abs=1e-12)


def test_mixing_family_below_threshold_is_unphysical():
    out = tm.classify_global(tm.simon_vx(0.1))
    assert out.tag is Tag.UNPHYSICAL
    assert out.reason == "det V < 1"
    assert out.margins["det_V_minus_1"] == pytest.approx(-0.82, abs=1e-12)


def test_indefinite_matrix_is_unphysical():
    out = tm.classify_global(np.diag([1.0, 1.0, 1.0, -1.0]))
    assert out.tag is Tag.UNPHYSICAL
    assert out.reason == "V is not positive definite"
    assert "nu_minus_minus_1" not in out.margins


@pytest.mark.parametrize("classify, v, reason", [
    (tm.classify_global, -np.eye(4), "V is not positive definite"),
    (tm.classify_global, 0.5 * np.eye(4), "det V < 1"),
    (tm.classify_global, tm.simon_vx(0.4), "Delta > 1 + det V"),
    (tm.classify_local, -np.eye(4), "block A is not positive definite"),
    (tm.classify_local, np.diag([1.0, 1.0, -1.0, -1.0]), "block B is not positive definite"),
    (tm.classify_local, 0.5 * np.eye(4),
     "2 sqrt(det A det B) + det C^2 > det V + det A det B"),
    (tm.classify_local, tm.simon_vx(0.4), "Delta > 1 + det V"),
    (tm.posdef_criterion, 0.5 * np.eye(4), "det V < 1 (neither branch applies)"),
    (tm.posdef_criterion, tm.simon_vx(0.4), "Delta > 1 + det V (neither branch applies)"),
], ids=["global-V", "global-detV", "global-Delta", "local-A", "local-B", "local-block",
        "local-Delta", "posdef-detV", "posdef-Delta"])
def test_each_unphysical_reason(classify, v, reason):
    out = classify(v)
    assert out.tag is Tag.UNPHYSICAL
    assert out.reason == reason


def test_unphysical_reason_is_the_first_condition_failed_beyond_its_band():
    # det V - 1 = -5e-10 lies inside its band (1e-9), so det V >= 1 holds;
    # only Delta <= 1 + det V fails, by 2.25.
    v = np.diag([2.0, 2.0, 0.5 * (1 - 2.5e-10), 0.5 * (1 - 2.5e-10)])
    out = tm.classify_global(v)
    assert out.margins["det_V_minus_1"] == pytest.approx(-5e-10, rel=1e-6)
    assert abs(out.margins["det_V_minus_1"]) < tm.DEFAULT_TOL.band(1.0)
    assert out.margins["delta_margin"] == pytest.approx(-2.25, abs=1e-9)
    assert out.tag is Tag.UNPHYSICAL
    assert out.reason == tm.classify_local(v).reason == "Delta > 1 + det V"
    assert tm.posdef_criterion(v).reason == "Delta > 1 + det V (neither branch applies)"


@pytest.mark.parametrize("classify, separable, entangled", [
    (tm.classify_global, "partial transpose is physical (nu~_- >= 1)",
     "partial transpose violates the uncertainty principle (nu~_- < 1, Delta~ > 1 + det V)"),
    (tm.classify_local, "Gamma <= 1 + det V (PPT holds)",
     "Gamma > 1 + det V with Delta <= 1 + det V (PPT violated)"),
    (tm.posdef_criterion, "det V >= 1 and Gamma <= 1 + det V",
     "det V >= 1 and Delta <= 1 + det V < Delta~"),
], ids=["global", "local", "posdef"])
def test_each_ppt_reason(classify, separable, entangled):
    out = classify(tm.thermal(2.0, 1.5))
    assert (out.tag, out.reason) == (Tag.SEPARABLE, separable)
    out = classify(tm.two_mode_squeezed(0.5))
    assert (out.tag, out.reason) == (Tag.ENTANGLED, entangled)


def _shift_nu_minus(monkeypatch, module, nu_minus):
    """Make ``module._spectrum_from_delta`` report nu_minus in place of the computed value."""
    original = module._spectrum_from_delta
    monkeypatch.setattr(module, "_spectrum_from_delta", lambda *args: dataclasses.replace(
        original(*args), nu_minus=nu_minus))


@pytest.mark.parametrize("module, v, nu_minus, form", [
    (physicality, tm.thermal(2.0, 1.5), 0.5, "physicality"),
    (separability, tm.thermal(2.0, 1.5), 0.5, "separability"),
    (separability, tm.two_mode_squeezed(0.5), 2.0, "separability"),
], ids=["nu_minus", "nu_tilde_minus-below", "nu_tilde_minus-above"])
def test_spectral_form_far_from_the_determinant_form_raises(monkeypatch, module, v, nu_minus,
                                                           form):
    # nu_- is formed in physicality, nu~_- in separability; each is put far on
    # the wrong side of 1 while the determinant forms still decide the other way.
    _shift_nu_minus(monkeypatch, module, nu_minus)
    with pytest.raises(tm.InternalInconsistency,
                       match=f"spectral and determinant {form} forms disagree"):
        tm.classify_global(v)


@pytest.mark.parametrize("module", [physicality, separability])
def test_spectral_form_disagreeing_within_ten_bands_does_not_raise(monkeypatch, module):
    # nu - 1 = -5 bands fails the spectral form, but lies within 10 bands of 0.
    _shift_nu_minus(monkeypatch, module, 1.0 - 5.0 * tm.DEFAULT_TOL.band(1.0))
    assert tm.classify_global(tm.thermal(2.0, 1.5)).tag is Tag.SEPARABLE


def test_product_state_is_separable():
    # Vanishing C with both single-mode blocks physical.
    v = tm.direct_sum(2.0 * np.eye(2), 1.5 * np.eye(2))
    out = tm.classify_global(v)
    assert out.tag is Tag.SEPARABLE
    assert tm.classify_local(v).tag is Tag.SEPARABLE


def test_ppt_boundary_counts_as_separable():
    # a = b = 1.5 with c+ = -c_- = 0.5 has nu~_- = 1 exactly (and nu_- =
    # sqrt(2), comfortably physical): the inclusive policy tags it separable.
    v = tm.standard_form_matrix(1.5, 1.5, 0.5, -0.5)
    out = tm.classify_global(v)
    assert out.tag is Tag.SEPARABLE
    assert out.margins["nu_tilde_minus_minus_1"] == pytest.approx(0.0, abs=1e-12)
    assert tm.classify_local(v).tag is Tag.SEPARABLE
    assert tm.classify_local(v).margins["gamma_margin"] == pytest.approx(0.0, abs=1e-12)


def test_classify_local_matches_global_on_examples():
    for v in (np.eye(4), tm.two_mode_squeezed(0.3), tm.simon_vx(0.1),
              tm.simon_vx(0.7), tm.thermal(2.0, 1.2), np.diag([1, 1, 1, -1.0])):
        assert tm.classify_local(v).tag is tm.classify_global(v).tag


@pytest.mark.parametrize("seed", range(25))
def test_classify_local_matches_global_on_population(seed):
    for v in boundary_biased(40, seed):
        if near_boundary(v):
            continue
        assert tm.classify_local(v).tag is tm.classify_global(v).tag


@pytest.mark.parametrize("seed", range(15))
def test_tags_invariant_under_local_symplectics(seed):
    rng = np.random.default_rng(seed)
    for v in (random_physical_cm(rng), tm.two_mode_squeezed(0.4), tm.simon_vx(0.8)):
        s = random_local_symplectic(rng)
        assert tm.classify_global(tm.congruence(v, s)).tag is tm.classify_global(v).tag


@pytest.mark.parametrize("seed", range(15))
def test_tags_invariant_under_mode_swap(seed):
    rng = np.random.default_rng(seed)
    v = random_physical_cm(rng)
    assert tm.classify_global(swap_modes(v)).tag is tm.classify_global(v).tag
    assert tm.classify_local(swap_modes(v)).tag is tm.classify_local(v).tag


@pytest.mark.parametrize("seed", range(15))
def test_tag_matches_ppt_spectrum(seed):
    rng = np.random.default_rng(seed)
    v = random_physical_cm(rng)
    out = tm.classify_global(v)
    nu_tilde = tm.ppt_spectrum_2mode(v).nu_minus
    if abs(nu_tilde - 1.0) > 1e-7:
        expected = Tag.SEPARABLE if nu_tilde >= 1.0 else Tag.ENTANGLED
        assert out.tag is expected


def test_each_classifier_evaluates_the_matrix_once(monkeypatch):
    # No LAPACK call: det V and V > 0 come from the matrix's minors, the
    # spectra from (Delta, det V) and (Delta~, det V), and the local route
    # takes the block eigenvalues from their closed form.
    counts = count_linalg(monkeypatch, "det", "eigvalsh")
    v = tm.random_physical(3)
    assert tm.classify_global(v).tag is not Tag.UNPHYSICAL
    assert counts == {}
    tm.classify_local(v)
    assert counts == {}


def test_global_margins_cover_all_decision_quantities():
    out = tm.classify_global(tm.two_mode_squeezed(0.2))
    for key in ("min_eig_V", "det_V_minus_1", "delta_margin",
                "delta_tilde_margin", "nu_minus_minus_1",
                "nu_tilde_minus_minus_1"):
        assert key in out.margins


def test_simon_criterion_on_examples():
    assert tm.simon_criterion(np.eye(4)) is True
    assert tm.simon_criterion(tm.thermal(2.0, 3.0)) is True
    assert tm.simon_criterion(tm.simon_vx(0.5)) is False
    assert tm.simon_criterion(tm.two_mode_squeezed(0.5)) is False


def test_simon_criterion_requires_physical_input():
    with pytest.raises(tm.PreconditionViolated):
        tm.simon_criterion(tm.simon_vx(0.1))
    with pytest.raises(tm.PreconditionViolated):
        tm.simon_criterion(np.diag([1.0, 1.0, 1.0, -1.0]))


@pytest.mark.parametrize("seed", range(20))
def test_simon_criterion_matches_classification(seed):
    v = random_physical_cm(np.random.default_rng(seed))
    out = tm.classify_global(v)
    if not near_boundary(v):
        assert tm.simon_criterion(v) == (out.tag is Tag.SEPARABLE)


def test_posdef_unphysical_branch():
    out = tm.posdef_criterion(tm.simon_vx(0.2))
    assert out.tag is Tag.UNPHYSICAL
    assert out.reason.startswith("det V < 1")
    assert out.margins["det_V_minus_1"] == pytest.approx(-0.48, abs=1e-12)


def test_posdef_entangled_branch():
    out = tm.posdef_criterion(tm.simon_vx(1.0))
    assert out.tag is Tag.ENTANGLED
    assert out.margins["gamma_margin"] == pytest.approx(-8.5, abs=1e-12)


def test_posdef_separable_branch():
    out = tm.posdef_criterion(tm.thermal(2.0, 1.5))
    assert out.tag is Tag.SEPARABLE
    v = tm.standard_form_matrix(1.5, 1.5, 0.5, -0.5)
    assert tm.posdef_criterion(v).tag is Tag.SEPARABLE


def test_posdef_nonnegative_correlations_physical_implies_separable():
    # det C >= 0 and physical: (1 - |det C|)^2 >= Delta~ form, always
    # separable. Exercise a couple of concrete members.
    for v in (np.eye(4), tm.thermal(1.5, 2.5),
              tm.standard_form_matrix(2.0, 1.5, 0.5, 0.3)):
        inv = tm.two_mode_invariants(v)
        assert inv.det_C >= 0
        out = tm.posdef_criterion(v)
        assert out.tag is Tag.SEPARABLE


def test_posdef_rejects_indefinite_input():
    with pytest.raises(tm.NotPositiveDefinite):
        tm.posdef_criterion(np.diag([1.0, 1.0, 1.0, -1.0]))
    with pytest.raises(tm.NotPositiveDefinite):
        tm.posdef_criterion(np.diag([1.0, 1.0, 1.0, 0.0]))


@pytest.mark.parametrize("seed", range(200))
def test_posdef_matches_global_classification(seed):
    # posdef's domain is the global route's V > 0: it raises exactly where classify_global
    # says V is not positive definite, and otherwise gives its tag, near the boundary too.
    for v in boundary_biased(30, seed):
        out = tm.classify_global(v)
        if out.reason == "V is not positive definite":
            with pytest.raises(tm.NotPositiveDefinite):
                tm.posdef_criterion(v)
        else:
            assert tm.posdef_criterion(v).tag is out.tag


def test_posdef_sees_strong_two_mode_squeezing_as_entangled():
    # The expanded (1 + det C)^2 and s_mid forms cancelled here and read the state as separable
    # from r = 5.88. Rounding cosh r and sinh r leaves det V < 1 at some r, where the float
    # matrix is not physical: there posdef, like classify_global, says Unphysical.
    tags = []
    for r in np.linspace(5.8, 8.0, 221):
        v = tm.two_mode_squeezed(r)
        tags.append(tm.posdef_criterion(v).tag)
        assert tags[-1] is tm.classify_global(v).tag
    assert Tag.SEPARABLE not in tags and tags.count(Tag.ENTANGLED) >= 100


def test_posdef_and_simon_read_the_route_entries():
    # det V >= 1 and Delta are the global route's entries, Gamma and the reported Delta~ the
    # local route's, and Simon's inequality is the global Delta~ entry: the same bits.
    checked = 0
    for v in [tm.random_physical(seed) for seed in range(100)] + list(boundary_biased(200, 9)):
        glob, local = tm.classify_global(v), tm.classify_local(v)
        if glob.reason != "V is not positive definite":
            margins = tm.posdef_criterion(v).margins
            for key, route in (("det_V_minus_1", glob), ("delta_margin", glob),
                               ("gamma_margin", local), ("delta_tilde_margin", local)):
                assert margins[key].hex() == route.margins[key].hex()
            checked += 1
        if glob.tag is not Tag.UNPHYSICAL:
            assert tm.simon_criterion(v) is (glob.tag is Tag.SEPARABLE)
    assert checked >= 150


def test_classification_is_scale_covariant_at_large_magnitude():
    # Same decisions at very different overall scales (tolerances are
    # relative): 1e4 * TMS is entangled iff TMS is... it is not (det V
    # grows), so check a genuinely scale-stressed physical matrix instead.
    v = 1e4 * np.eye(4)
    out = tm.classify_global(v)
    assert out.tag is Tag.SEPARABLE


def test_thermal_states_always_separable():
    for nu1, nu2 in ((1.0, 1.0), (1.0, 5.0), (3.0, 2.0), (50.0, 1.0)):
        assert tm.classify_global(tm.thermal(nu1, nu2)).tag is Tag.SEPARABLE


@pytest.fixture
def records_built(monkeypatch):
    """Count the result records built, by name, through each slotted class's ``__init__``."""
    counts = {}

    def counting(name, init):
        def wrapped(self, *args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            init(self, *args, **kwargs)
        return wrapped

    for cls in (tm.TwoModeInvariants, tm.BonaFideReport, tm.Classification):
        monkeypatch.setattr(cls, "__init__", counting(cls.__name__, cls.__init__))
    return counts


@pytest.mark.parametrize("fn, record", [
    (tm.classify_global, "Classification"), (tm.classify_local, "Classification"),
    (tm.check_global, "BonaFideReport"), (tm.check_local, "BonaFideReport"),
    (tm.two_mode_invariants, "TwoModeInvariants"),
])
@pytest.mark.parametrize("v", [tm.thermal(2.0, 1.5), tm.two_mode_squeezed(0.5), tm.simon_vx(0.3),
                               np.diag([2.0, 2.0, -1.0, 2.0])],
                         ids=["separable", "entangled", "unphysical", "not-positive"])
def test_each_public_call_builds_only_the_record_it_returns(records_built, fn, record, v):
    fn(v)
    assert records_built == {record: 1}


def _report_population(name):
    rng = np.random.default_rng(15)
    if name == "random_physical":
        return [random_physical_cm(rng) for _ in range(60)]
    if name == "random_symmetric":
        return [random_symmetric(rng) for _ in range(60)]
    if name == "simon_vx":
        return [tm.simon_vx(x) for x in np.linspace(0.05, 1.2, 47)]
    return [tm.two_mode_squeezed(r) for r in np.linspace(0.0, 3.0, 31)]


@pytest.mark.parametrize("name", ["random_physical", "random_symmetric", "simon_vx", "squeezed"])
def test_reports_carry_the_classifiers_bona_fide_margins_and_verdict(name):
    for v in _report_population(name):
        for check, classify, count in ((tm.check_global, tm.classify_global, 3),
                                       (tm.check_local, tm.classify_local, 4)):
            report, result = check(v), classify(v)
            assert list(report.margins.items()) == list(result.margins.items())[:count]
            assert report.verdict == (result.tag is not Tag.UNPHYSICAL)


@pytest.mark.parametrize("name", ["random_physical", "random_symmetric", "simon_vx", "squeezed"])
def test_cli_classify_record_matches_the_public_calls(name):
    # The CLI shares one global-route evaluation between its report and its
    # classification; each must read as the public call would.
    from twomode.cli import _classify_record
    for v in _report_population(name):
        record, result = _classify_record(v, tm.DEFAULT_TOL), tm.classify_global(v)
        assert record["report"] == dataclasses.asdict(tm.check_global(v))
        assert (record["tag"], record["reason"]) == (result.tag.value, result.reason)
        assert list(record["margins"].items()) == list(result.margins.items())


def _outcome(fn, v):
    """repr of the result, or the error's type and message."""
    try:
        return repr(fn(v))
    except tm.TwoModeError as exc:
        return type(exc), str(exc)


_BAD_INPUTS = [np.array([[1.0, 0.5, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
               np.diag([1.0, np.nan, 1.0, 1.0]), np.diag([1.0, 1.0, 1.0, np.inf]),
               np.eye(4) + 1j * np.eye(4), np.diag([2.0, 2.0, -1.0, 2.0]), np.zeros((4, 4)),
               np.eye(2), np.eye(6), np.ones((4, 3)), [[1.0, 0.0], [0.0, 1.0]]]


@pytest.mark.parametrize("name", ["random_physical", "random_symmetric", "simon_vx", "squeezed",
                                  "bad"])
def test_ppt_spectrum_is_the_spectrum_of_the_partial_transpose(name):
    # Lambda V Lambda flips the signs of row and column 4; a shape that has no such
    # flip must fail with the same error either way.
    population = _BAD_INPUTS if name == "bad" else _report_population(name)
    flip = np.outer([1.0, 1.0, 1.0, -1.0], [1.0, 1.0, 1.0, -1.0])
    for v in population:
        flipped = v * flip if np.shape(v) == (4, 4) else v
        assert (_outcome(tm.ppt_spectrum_2mode, v)
                == _outcome(tm.symplectic_spectrum_2mode, flipped))

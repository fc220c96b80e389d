"""Certification, extraction, type-(alpha, beta), and labeling discovery."""

import functools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdrg import (
    AlphaBeta,
    ExtractionError,
    IncompatibleOrderPairError,
    IntersectionTensor,
    Labeling,
    MonomialOrder,
    MultiIndex,
    PartialOrder,
    SchemeClasses,
    ab_region_for_scheme,
    boundary_check,
    cartesian_product,
    cell24,
    certify_ppoly,
    certify_ppoly_refined,
    certify_type_ab,
    complete,
    cycle,
    discover_labelings,
    distance_matrices,
    extract_polynomials,
    gen24cell,
    hamming_graph,
    intersection_tensor,
    m_distance_table,
    mdrg_check,
    pauli_scheme4,
    symmetrize,
    verify_recurrences,
)

from helpers import (
    AXIS_LABELING,
    DIAGONAL_LABELING,
    closed_form_v02,
    closed_form_v11,
    closed_form_v20,
    evaluate_terms,
    fraction_matrix,
    graph_discover_labelings,
    region_contains,
    span_boundary_check,
)

F = Fraction
mi = MultiIndex
DEGLEX_SUM = MonomialOrder.parse("deglex-sum")
DEGLEX_Y2 = MonomialOrder.parse("deglex-y2")
ab = PartialOrder.alpha_beta


def axis_tensor():
    return mdrg_check(cell24(), DEGLEX_SUM).tensor


def diag_tensor():
    return mdrg_check(cell24(), DEGLEX_Y2).tensor


def torus_tensor():
    g = cartesian_product([cycle(6), cycle(4)])
    return mdrg_check(g, DEGLEX_Y2).tensor


def cycle6_tensor():
    table = m_distance_table(cycle(6), DEGLEX_SUM)
    return intersection_tensor(distance_matrices(table))


# -- Polynomials ----------------------------------------------------------------

def test_polynomial_evaluate_on_class_matrices():
    result = mdrg_check(cell24(), DEGLEX_SUM)
    scheme = distance_matrices(result.table)
    matrix = dict(zip(scheme.labels, scheme.matrices))
    x = fraction_matrix(matrix[mi((1, 0))])
    y = fraction_matrix(matrix[mi((0, 1))])
    one = {mi((0, 0)): F(1)}
    assert np.array_equal(evaluate_terms(one, [x, y]),
                          fraction_matrix(np.eye(24, dtype=np.int64)))
    polys, _ = extract_polynomials(result.tensor, DEGLEX_SUM)
    for n in result.tensor.domain():
        expected = fraction_matrix(matrix[n])
        assert np.array_equal(evaluate_terms(polys[n], [x, y]),
                              expected), n


# -- Labelings ------------------------------------------------------------------

def test_labeling_round_trip():
    text = "A0=0,0;A1=0,2;A2=1,0;A3=0,1;A4=2,0"
    lab = Labeling.parse(text)
    assert lab.as_text() == text
    assert Labeling.from_dict(lab.as_dict()) == lab
    assert lab.as_dict()["A1"] == mi((0, 2))
    t = AXIS_LABELING.apply(gen24cell(2, F(1, 2)))
    assert t.identity == mi((0, 0))
    assert t.valency(mi((1, 0))) == 6
    assert t.valency(mi((0, 2))) == 8
    assert t.get(mi((1, 0)), mi((0, 1)), mi((0, 2))) == \
        gen24cell(2, F(1, 2)).get("A2", "A3", "A1")


def test_labeling_apply_errors():
    t = gen24cell(2, F(1, 2))
    with pytest.raises(ValueError):
        Labeling.parse("A0=0,0;A1=1,0").apply(t)
    with pytest.raises(ValueError):
        Labeling.parse("A0=0,0;A1=1,0;A2=1,0;A3=0,1;A4=2,0").apply(t)
    mixed = Labeling.from_dict({"A0": mi((0, 0)), "A1": mi((1,)),
                                "A2": mi((1, 0)), "A3": mi((0, 1)),
                                "A4": mi((2, 0))})
    with pytest.raises(ValueError):
        mixed.apply(t)
    with pytest.raises(ValueError):
        Labeling.parse("A0=1,1;A1=0,0;A2=1,0;A3=0,1;A4=2,0").apply(t)


# -- Plain certification ----------------------------------------------------------

def test_certify_ppoly_passes_on_matching_orders():
    for t, order in ((axis_tensor(), DEGLEX_SUM), (diag_tensor(), DEGLEX_Y2)):
        cert = certify_ppoly(t, order)
        assert cert.passed
        assert [c.name for c in cert.checks] == [
            "identity-at-origin", "generators-realized", "box-closure",
            "products-within-window", "successor-nonzero"]


def test_certify_ppoly_fails_on_mismatched_orders():
    cert = certify_ppoly(diag_tensor(), DEGLEX_SUM)
    assert not cert.passed
    assert cert.witness == {"generator": "0,1", "a": "0,1", "b": "1,1",
                            "bound": "0,2", "value": "3",
                            "window": "deglex-sum"}
    cert = certify_ppoly(axis_tensor(), DEGLEX_Y2)
    assert not cert.passed
    assert cert.witness == {"generator": "1,0", "a": "0,1", "b": "0,2",
                            "bound": "1,1", "value": "3",
                            "window": "deglex-y2"}
    cert = certify_ppoly(axis_tensor(), MonomialOrder.parse("lex"))
    assert not cert.passed
    assert cert.witness["b"] == "1,0" and cert.witness["bound"] == "0,2"
    with pytest.raises(ValueError):
        certify_ppoly(gen24cell(2, F(1, 2)), DEGLEX_SUM)


def test_certify_ppoly_refined_diagonal():
    diag = diag_tensor()
    for text in ("ab:1,0", "ab:1,1/2"):
        assert certify_ppoly_refined(diag, DEGLEX_Y2,
                                     PartialOrder.parse(text)).passed
    cert = certify_ppoly_refined(diag, DEGLEX_Y2, PartialOrder.parse("ab:1/2,0"))
    assert not cert.passed
    assert cert.witness == {"generator": "0,1", "a": "0,1", "b": "1,1",
                            "bound": "0,2", "value": "3", "window": "ab:1/2,0"}
    cert = certify_ppoly_refined(diag, DEGLEX_Y2,
                                 PartialOrder.parse("componentwise"))
    assert not cert.passed
    assert cert.witness["b"] == "1,0" and cert.witness["bound"] == "0,2"


def test_certify_ppoly_refined_axis_never_passes():
    # p_{e1,(0,1)}^{(0,2)} = 3 forces (0,2) below (1,1), i.e. beta >= 1,
    # so no admissible parameter refines the axis labeling
    axis = axis_tensor()
    for text in ("ab:1/2,0", "ab:2/3,1/2", "componentwise"):
        cert = certify_ppoly_refined(axis, DEGLEX_SUM, PartialOrder.parse(text))
        assert not cert.passed, text
        assert cert.witness["a"] == "0,1"
        assert cert.witness["b"] == "0,2"
        assert cert.witness["bound"] == "1,1"
    with pytest.raises(IncompatibleOrderPairError):
        certify_ppoly_refined(axis, DEGLEX_SUM, PartialOrder.parse("ab:1,0"))


def test_certify_ppoly_refined_torus_componentwise():
    torus = torus_tensor()
    cert = certify_ppoly_refined(torus, DEGLEX_Y2,
                                 PartialOrder.parse("componentwise"))
    assert cert.passed
    assert certify_ppoly(torus, DEGLEX_SUM).passed
    assert certify_ppoly(torus, MonomialOrder.parse("lex")).passed


# -- Boundary spans ---------------------------------------------------------------

def test_boundary_check():
    diag, axis = diag_tensor(), axis_tensor()
    cert = boundary_check(diag, DEGLEX_Y2)
    assert cert.passed and cert.checks[0].detail == "5 boundary cases"
    assert boundary_check(diag, PartialOrder.parse("ab:1,0")).passed
    assert boundary_check(axis, DEGLEX_SUM).passed

    # the axis labeling under deglex-y2 is not certified, so the proof does
    # not apply: boundary_check refuses, and the rank oracle finds the case
    with pytest.raises(ValueError, match="certified window"):
        boundary_check(axis, DEGLEX_Y2)
    cert = span_boundary_check(axis, DEGLEX_Y2.leq)
    assert not cert.passed
    assert cert.witness == {"generator": "1,0", "a": "0,1", "bound": "1,1",
                            "window": ["0,0", "0,1", "1,0", "2,0"]}
    # under ab:1,0 even (0,2) leaves the window, so the axis boundary
    # fails although the plain deglex-sum one passes
    with pytest.raises(ValueError, match="certified window"):
        boundary_check(axis, PartialOrder.parse("ab:1,0"))
    cert = span_boundary_check(axis, PartialOrder.parse("ab:1,0").leq)
    assert not cert.passed
    assert cert.witness["window"] == ["0,0", "0,1", "1,0", "2,0"]


# -- Extraction -------------------------------------------------------------------

def test_extraction_matches_closed_forms_across_parameters():
    for ell in (2, 3):
        for s in (F(1, 2), F(3, 4)):
            t = gen24cell(ell, s)
            axis = AXIS_LABELING.apply(t)
            diag = DIAGONAL_LABELING.apply(t)
            polys, cert = extract_polynomials(axis, DEGLEX_SUM)
            assert cert.passed
            assert sorted(polys) == sorted(axis.domain())
            assert polys[mi((0, 0))] == {mi((0, 0)): F(1)}
            assert polys[mi((1, 0))] == {mi((1, 0)): F(1)}
            assert polys[mi((0, 1))] == {mi((0, 1)): F(1)}
            assert polys[mi((0, 2))] == closed_form_v02(F(ell), s)
            assert polys[mi((2, 0))] == closed_form_v20(F(ell), s)
            dpolys, dcert = extract_polynomials(diag, DEGLEX_Y2)
            assert dcert.passed
            assert dpolys[mi((1, 1))] == closed_form_v11(F(ell), s)
            assert dpolys[mi((2, 0))] == closed_form_v20(F(ell), s)


def test_extraction_at_24_cell_parameters_frozen():
    polys, cert = extract_polynomials(axis_tensor(), DEGLEX_SUM)
    assert cert.passed
    assert [c.name for c in cert.checks] == ["unique-solution", "leading-nonzero"]
    assert polys[mi((2, 0))] == {
        mi((0, 0)): F(-1), mi((1, 0)): F(-2, 3), mi((2, 0)): F(1, 6)}
    assert polys[mi((0, 2))] == {
        mi((0, 0)): F(-8, 3), mi((0, 1)): F(-1, 3), mi((1, 0)): F(-4, 3),
        mi((0, 2)): F(1, 3)}
    # the same class expressed through the diagonal labeling
    dpolys, _ = extract_polynomials(diag_tensor(), PartialOrder.parse("ab:1,0"))
    assert dpolys[mi((1, 1))] == {
        mi((0, 1)): F(-1), mi((1, 1)): F(1, 3)}


def test_extraction_torus_product_forms():
    polys, cert = extract_polynomials(torus_tensor(), DEGLEX_Y2)
    assert cert.passed
    assert polys[mi((1, 1))] == {mi((1, 1)): F(1)}
    assert polys[mi((2, 0))] == {mi((0, 0)): F(-2), mi((2, 0)): F(1)}
    assert polys[mi((0, 2))] == {mi((0, 0)): F(-1), mi((0, 2)): F(1, 2)}
    # v_{3,2} factors as the product of the two univariate polynomials
    assert polys[mi((3, 2))] == {
        mi((1, 0)): F(3, 2), mi((1, 2)): F(-3, 4), mi((3, 0)): F(-1, 2),
        mi((3, 2)): F(1, 4)}


def test_extraction_error_paths():
    c6 = cycle6_tensor()
    p = dict(c6.p)
    del p[(mi((1,)), mi((1,)), mi((2,)))]
    broken = IntersectionTensor(labels=c6.labels, identity=c6.identity, p=p)
    with pytest.raises(ExtractionError):
        extract_polynomials(broken, DEGLEX_SUM)


# -- Recurrences ------------------------------------------------------------------

def test_verify_recurrences():
    axis = axis_tensor()
    polys, _ = extract_polynomials(axis, DEGLEX_SUM)
    cert = verify_recurrences(polys, axis)
    assert cert.passed
    assert [c.name for c in cert.checks] == ["recurrence-identity"]

    diag = diag_tensor()
    one = PartialOrder.parse("ab:1,0")
    dpolys, _ = extract_polynomials(diag, one)
    cert = verify_recurrences(dpolys, diag, partial=one)
    assert cert.passed
    assert [c.name for c in cert.checks] == ["recurrence-identity",
                                             "recurrence-support"]

    bad = dict(polys)
    # v_(0,1) has no constant
    bad[mi((0, 1))] = {**polys[mi((0, 1))], mi((0, 0)): F(1)}
    cert = verify_recurrences(bad, axis)
    assert not cert.passed
    assert cert.witness == {"generator": "0,1", "a": "0,0", "monomial": "0,0",
                            "lhs": "0", "rhs": "1"}
    with pytest.raises(ValueError):
        verify_recurrences({mi((0, 0)): polys[mi((0, 0))]}, axis)


# -- Type (alpha, beta) -----------------------------------------------------------

def test_certify_type_ab_24cell():
    axis, diag = axis_tensor(), diag_tensor()
    for window in (ab(F(1, 2), F(0)), PartialOrder("ab", AlphaBeta(F(1, 2), F(0))),
                   PartialOrder.parse("ab:1/2,0"), ab(F(2, 3), F(1, 2))):
        cert = certify_type_ab(axis, window)
        assert cert.passed, window
        assert [c.name for c in cert.checks] == [
            "identity-at-origin", "generators-realized", "downset-closure",
            "unit-step-nonzero", "products-within-window"]
    cert = certify_type_ab(axis, ab(F(0), F(0)))
    assert not cert.passed
    assert cert.witness == {"generator": "0,1", "a": "0,1", "b": "1,0",
                            "bound": "0,2", "value": "4", "window": "ab:0,0"}
    assert certify_type_ab(diag, ab(F(0), F(0))).passed
    assert certify_type_ab(diag, ab(F(1), F(0))).passed

    with pytest.raises(ValueError):
        certify_type_ab(cycle6_tensor(), ab(F(1, 2), F(0)))
    with pytest.raises(ValueError):
        certify_type_ab(axis, PartialOrder.parse("componentwise"))


def test_type_ab_ignores_boundary_steps():
    # the same parameter certifies the type property but not the refined
    # window: the latter also constrains products at steps leaving D
    axis = axis_tensor()
    half = PartialOrder.parse("ab:1/2,0")
    assert certify_type_ab(axis, half).passed
    refined = certify_ppoly_refined(axis, DEGLEX_SUM, half)
    assert not refined.passed
    assert refined.witness["bound"] == "1,1"
    assert mi((1, 1)) not in axis.domain()


def test_ab_region_frozen_texts():
    assert ab_region_for_scheme(axis_tensor()).as_text() == \
        "alpha in [1/2, 1), beta in [0, 1)"
    assert ab_region_for_scheme(diag_tensor()).as_text() == \
        "alpha in [0, 1], beta in [0, 1)"
    assert ab_region_for_scheme(torus_tensor()).as_text() == \
        "alpha in [0, 1/2), beta in [0, 1/3)"


def test_ab_region_agrees_with_certification():
    rng = random.Random(902)
    samples = [(F(0), F(0)), (F(1, 2), F(0)), (F(1), F(0)), (F(1), F(9, 10))]
    samples += [(F(rng.randint(0, 8), 8), F(rng.randint(0, 7), 8))
                for _ in range(12)]
    for t in (axis_tensor(), diag_tensor(), torus_tensor()):
        region = ab_region_for_scheme(t)
        for alpha, beta in samples:
            expected = region_contains(region, alpha, beta)
            assert certify_type_ab(t, ab(alpha, beta)).passed == expected, \
                (alpha, beta)


def test_ab_region_degenerate_inputs():
    axis = axis_tensor()
    p = dict(axis.p)
    del p[(mi((0, 1)), mi((0, 1)), mi((0, 2)))]
    assert ab_region_for_scheme(IntersectionTensor(
        labels=axis.labels, identity=axis.identity, p=p)) is None
    swap = {lab: lab for lab in axis.labels}
    swap[mi((0, 0))], swap[mi((2, 0))] = mi((2, 0)), mi((0, 0))
    assert ab_region_for_scheme(axis.relabel(swap)) is None
    with pytest.raises(ValueError):
        ab_region_for_scheme(cycle6_tensor())


def test_torus_region_boundary_witness():
    cert = certify_type_ab(torus_tensor(), ab(F(1, 2), F(0)))
    assert not cert.passed
    # at alpha=1/2 the unrealized index (4,0) slips below (3,2)
    assert cert.witness == {"element": "3,2", "missing": "4,0"}


# -- Discovery --------------------------------------------------------------------

def retagged_24cell_scheme():
    scheme = distance_matrices(mdrg_check(cell24(), DEGLEX_SUM).table)
    return SchemeClasses(labels=["A%d" % i for i in range(len(scheme.labels))],
                         matrices=scheme.matrices, vertices=scheme.vertices)


def test_discover_labelings_24cell():
    tags = retagged_24cell_scheme()
    found = discover_labelings(tags, 2, DEGLEX_SUM)
    assert len(found) == 8
    by_generators = {d.generators: d for d in found}
    axis = by_generators[("A2", "A3")]
    assert axis.labeling.as_text() == "A0=0,0;A1=0,2;A2=1,0;A3=0,1;A4=2,0"
    for d in found:
        assert d.labeling.as_dict()["A0"] == mi((0, 0))
    # no single class realizes all four non-identity classes by distance
    assert discover_labelings(tags, 1, DEGLEX_SUM) == []


def test_discover_labelings_pauli():
    found = discover_labelings(pauli_scheme4(), 1, DEGLEX_SUM)
    assert len(found) == 1
    assert found[0].generators == ("A1",)
    assert found[0].labeling.as_text() == "A0=0;A1=1;A2=2"
    with pytest.raises(ValueError):
        discover_labelings(pauli_scheme4(), 3, DEGLEX_SUM)


def test_discover_rejects_non_scheme():
    eye = np.eye(3, dtype=np.int64)
    adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.int64)
    far = np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=np.int64)
    s = SchemeClasses(labels=["A0", "A1", "A2"], matrices=[eye, adj, far])
    with pytest.raises(ValueError):
        discover_labelings(s, 1, DEGLEX_SUM)


FAMILY_SCHEMES = {
    "C6": lambda: distance_matrices(mdrg_check(cycle(6), DEGLEX_SUM).table),
    "C7": lambda: distance_matrices(mdrg_check(cycle(7), DEGLEX_SUM).table),
    "K5": lambda: distance_matrices(mdrg_check(complete(5), DEGLEX_SUM).table),
    "H(3,2)": lambda: distance_matrices(mdrg_check(hamming_graph(3, 2),
                                                   DEGLEX_SUM).table),
    "C4xC3": lambda: distance_matrices(mdrg_check(
        cartesian_product([cycle(4), cycle(3)]), DEGLEX_SUM).table),
    "cell24": lambda: distance_matrices(mdrg_check(cell24(), DEGLEX_Y2).table),
    "pauli4": pauli_scheme4,
    "symmetrize:2": lambda: symmetrize(pauli_scheme4(), 2),
}


@functools.lru_cache(maxsize=None)
def family_scheme(name):
    return FAMILY_SCHEMES[name]()


@st.composite
def retagged_schemes(draw):
    """A family scheme with its classes permuted and given fresh tags, and
    its vertices permuted."""
    s = family_scheme(draw(st.sampled_from(sorted(FAMILY_SCHEMES))))
    k = len(s.labels)
    classes = draw(st.permutations(range(k)))
    points = np.array(draw(st.permutations(range(s.n))))
    tags = draw(st.lists(st.text("ABQxyz_", min_size=1, max_size=3),
                         min_size=k, max_size=k, unique=True))
    return SchemeClasses(labels=tags,
                         matrices=[s.matrices[c][np.ix_(points, points)]
                                   for c in classes],
                         vertices=[s.vertices[p] for p in points])


@settings(max_examples=60, deadline=None)
@given(retagged_schemes(), st.sampled_from([
    (1, "deglex-sum"), (1, "lex"),
    (2, "deglex-sum"), (2, "lex"), (2, "deglex-y2")]))
def test_discover_labelings_matches_graph_oracle(s, case):
    m, order = case[0], MonomialOrder.parse(case[1])
    if m >= len(s.labels):
        for discover in (discover_labelings, graph_discover_labelings):
            with pytest.raises(ValueError):
                discover(s, m, order)
        return
    assert discover_labelings(s, m, order) == graph_discover_labelings(s, m, order)


def test_labeling_matches_classes_by_text_form():
    by_tag = Labeling.parse("1,0=0,1;0,0=0,0")
    assert by_tag.keyed_by([mi((0, 0)), mi((1, 0))]) == {
        mi((0, 0)): mi((0, 0)), mi((1, 0)): mi((0, 1))}
    by_index = Labeling.from_dict({mi((0,)): mi((0,)), mi((1,)): mi((1,))})
    assert by_index.keyed_by(["0", "1"]) == {"0": mi((0,)), "1": mi((1,))}
    with pytest.raises(ValueError, match=r"labeling names \['0,0', '1,0'\]"):
        by_tag.keyed_by([mi((0, 0)), mi((0, 1))])

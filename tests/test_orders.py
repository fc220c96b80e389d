"""Multi-index arithmetic, total and partial orders, and their validators.

Claims covered here:
  * MultiIndex is an exact vector type rejecting negatives and floats.
  * The four built-in monomial orders compare as advertised and pass the
    exhaustive axiom validator on a box; a doctored comparator fails it
    with a concrete witness.
  * The (alpha, beta) partial order refines deglex-y2 for every valid
    parameter choice, refines deglex-sum exactly while alpha < 1, and
    its downsets / feasible parameter regions are computed exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mdrg import (ABRegion, AlphaBeta, Interval, MonomialOrder, MultiIndex,
                  PartialOrder, ab_feasible_region, box, check_domain,
                  downset_enum, validate_pair_compat)

from helpers import (Comparison, box_closure_oracle, fraction_downset, fraction_precedes,
                     interval_contains, key_compare, named_check, region_contains,
                     validate_monomial_order)

# -- Helpers ---------------------------------------------------------------------

def mi(*entries: int) -> MultiIndex:
    return MultiIndex(entries)


def lt(od: MonomialOrder, a: MultiIndex, b: MultiIndex) -> bool:
    return od.key(a) < od.key(b)


def all_orders() -> list[MonomialOrder]:
    return [MonomialOrder.parse("deglex-sum"),
            MonomialOrder.parse("deglex-y2"),
            MonomialOrder.parse("lex"),
            MonomialOrder.parse("wdeglex:1,3")]


# -- MultiIndex -------------------------------------------------------------------

def test_multiindex_construction_and_parse():
    a = MultiIndex((1, 0, 2))
    assert len(a) == 3
    assert a.degree == 3
    assert a.as_text() == "1,0,2"
    assert MultiIndex.parse(" 1, 0 ,2 ") == a
    assert MultiIndex.zero(2) == mi(0, 0)
    assert MultiIndex.unit(3, 2) == mi(0, 1, 0)


def test_multiindex_rejects_negatives_floats_and_bad_text():
    with pytest.raises(ValueError):
        MultiIndex((1, -1))
    with pytest.raises((TypeError, ValueError)):
        MultiIndex((1.5, 0))
    with pytest.raises(ValueError):
        MultiIndex.parse("1,x")


def test_multiindex_vector_arithmetic():
    assert mi(1, 2) + mi(0, 1) == mi(1, 3)
    assert mi(1, 2) == (1, 2) and hash(mi(1, 2)) == hash((1, 2))  # dict keys
    with pytest.raises(ValueError):
        mi(1, 0) + mi(1, 0, 0)
    with pytest.raises(TypeError):
        mi(1, 2) - mi(0, 2)  # no subtraction: a predecessor is a tuple splice
    with pytest.raises(TypeError):
        (0, 1) + mi(1, 0)  # no accidental tuple concatenation


def test_box_enumeration_and_componentwise():
    points = list(box((2, 1)))
    assert len(points) == 6
    assert points[0] == mi(0, 0)
    assert PartialOrder.componentwise().leq(mi(1, 0), mi(1, 1))
    assert not PartialOrder.componentwise().leq(mi(2, 0), mi(1, 1))


# -- Monomial orders ----------------------------------------------------------------

def test_deglex_sum_breaks_degree_ties_on_the_left():
    od = MonomialOrder.parse("deglex-sum")
    assert lt(od, mi(0, 2), mi(1, 1))
    assert lt(od, mi(1, 1), mi(2, 0))
    assert lt(od, mi(2, 0), mi(0, 3))  # degree dominates
    assert min([mi(2, 0), mi(0, 2), mi(1, 1)], key=od.key) == mi(0, 2)


def test_deglex_y2_breaks_degree_ties_on_the_second_entry():
    od = MonomialOrder.parse("deglex-y2")
    assert lt(od, mi(2, 0), mi(1, 1))
    assert lt(od, mi(1, 1), mi(0, 2))
    assert sorted([mi(0, 2), mi(2, 0), mi(1, 1)], key=od.key) == \
        [mi(2, 0), mi(1, 1), mi(0, 2)]
    with pytest.raises(ValueError):
        od.leq(mi(1, 0, 0), mi(0, 1, 0))
    with pytest.raises(ValueError):
        od.leq(mi(1, 0), mi(0, 1, 0))  # mixed lengths


def test_lex_ignores_degree():
    od = MonomialOrder.parse("lex")
    assert lt(od, mi(0, 100), mi(3, 0))
    assert lt(od, mi(1, 1), mi(1, 2))


def test_wdeglex_weighted_degree_then_lex():
    od = MonomialOrder.parse("wdeglex:5,1")
    assert lt(od, mi(0, 2), mi(1, 0))  # weight 2 vs 5
    assert lt(od, mi(1, 0), mi(0, 6))
    assert MonomialOrder.parse("wdeglex:1/2,3").weights == \
        (Fraction(1, 2), Fraction(3))


def test_order_parse_rejects_unknown_and_bad_weights():
    with pytest.raises(ValueError):
        MonomialOrder.parse("deglex")
    with pytest.raises(ValueError):
        MonomialOrder.parse("wdeglex:0,1")
    with pytest.raises(ValueError):
        MonomialOrder.parse("wdeglex:a,b")
    for od in all_orders():
        assert MonomialOrder.parse(od.as_text()) == od


def test_compare_monomial_trichotomy():
    od = MonomialOrder.parse("deglex-sum")
    assert od.leq(mi(1, 0), mi(0, 2)) and not od.leq(mi(0, 2), mi(1, 0))
    assert od.leq(mi(1, 1), mi(1, 1))
    assert od.leq(mi(0, 2), mi(2, 0)) and not od.leq(mi(2, 0), mi(0, 2))


def test_memoized_forms_leave_equality_hash_and_arity_errors_alone():
    for text, bad_m in (("deglex-y2", 3), ("wdeglex:1/2,3", 3)):
        fresh, used = MonomialOrder.parse(text), MonomialOrder.parse(text)
        used.forms(2)
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        for _ in range(2):
            with pytest.raises(ValueError):
                used.forms(bad_m)
    fresh, used = PartialOrder.parse("ab:1/2,0"), PartialOrder.parse("ab:1/2,0")
    assert used.forms(2) == ((2, 1), (0, 1))
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    assert used != PartialOrder.parse("ab:1/3,0")
    assert len({used, fresh, PartialOrder.componentwise()}) == 2
    for _ in range(2):
        with pytest.raises(ValueError):
            used.forms(3)
    assert PartialOrder.componentwise().forms(3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


# -- Order validators ----------------------------------------------------------------

def test_builtin_orders_pass_axiom_validation_on_box_4():
    for od in all_orders():
        cert = validate_monomial_order(od, 2, 4)
        assert cert.passed, (od.as_text(), cert.witness)
    assert validate_monomial_order(MonomialOrder.parse("deglex-sum"), 3, 3).passed
    assert validate_monomial_order(MonomialOrder.parse("lex"), 1, 4).passed


def test_broken_comparator_fails_antisymmetry_with_witness():
    def by_last_entry(a: MultiIndex, b: MultiIndex) -> Comparison:
        if a[-1] < b[-1]:
            return Comparison.LESS
        if a[-1] > b[-1]:
            return Comparison.GREATER
        return Comparison.EQUAL  # collapses distinct indices

    cert = validate_monomial_order(by_last_entry, 2, 2)
    assert not cert.passed
    failed = named_check(cert, "antisymmetry")
    assert failed is not None and not failed.passed
    assert failed.witness is not None


def test_comparator_with_wrong_minimum_fails_origin_check():
    base = MonomialOrder.parse("deglex-sum")

    def skewed(a: MultiIndex, b: MultiIndex) -> Comparison:
        flip = {Comparison.LESS: Comparison.GREATER,
                Comparison.GREATER: Comparison.LESS}
        rel = key_compare(base)(a, b)
        return flip.get(rel, rel)

    cert = validate_monomial_order(skewed, 2, 2)
    assert not named_check(cert, "origin-minimum").passed


# -- Partial orders -----------------------------------------------------------------

def test_ab_parameter_validation():
    with pytest.raises(ValueError):
        AlphaBeta(Fraction(2), Fraction(0))
    with pytest.raises(ValueError):
        AlphaBeta(Fraction(0), Fraction(1))
    with pytest.raises(ValueError):
        AlphaBeta(Fraction(-1, 2), Fraction(0))
    p = PartialOrder.parse("ab:1/2,0")
    assert p.ab == AlphaBeta(Fraction(1, 2), Fraction(0))
    assert p.as_text() == "ab:1/2,0"


def test_ab_precedes_known_pairs():
    half = PartialOrder.parse("ab:1/2,0")
    one = PartialOrder.parse("ab:1,0")
    assert half.leq(mi(1, 0), mi(0, 2))
    assert not half.leq(mi(1, 1), mi(0, 2))
    assert one.leq(mi(1, 1), mi(0, 2))  # the alpha = 1 boundary case
    assert not half.leq(mi(1, 0), mi(0, 1)) and not half.leq(mi(0, 1), mi(1, 0))
    assert half.leq(mi(1, 0), mi(0, 2)) and not half.leq(mi(0, 2), mi(1, 0))
    assert half.leq(mi(1, 1), mi(1, 1))


def test_componentwise_partial_order():
    p = PartialOrder.componentwise()
    assert p.leq(mi(1, 0, 2), mi(1, 1, 2))
    assert not p.leq(mi(1, 0), mi(0, 1)) and not p.leq(mi(0, 1), mi(1, 0))
    assert frozenset(downset_enum(mi(1, 1), p)) == frozenset(
        [mi(0, 0), mi(0, 1), mi(1, 0), mi(1, 1)])


def test_ab_downsets_at_the_alpha_one_boundary():
    one = PartialOrder.parse("ab:1,0")
    assert frozenset(downset_enum(mi(1, 1), one)) == frozenset(
        [mi(0, 0), mi(1, 0), mi(0, 1), mi(2, 0), mi(1, 1)])
    assert frozenset(downset_enum(mi(0, 2), one)) == frozenset(
        [mi(0, 0), mi(1, 0), mi(0, 1), mi(2, 0), mi(1, 1), mi(0, 2)])
    half = PartialOrder.parse("ab:1/2,0")
    assert frozenset(downset_enum(mi(0, 2), half)) == frozenset(
        [mi(0, 0), mi(1, 0), mi(0, 1), mi(0, 2)])


@st.composite
def partial_orders_and_points(draw):
    """``ab:alpha,beta`` with alpha in [0, 1], beta in [0, 1) and
    denominators up to 6 on N^2, or ``componentwise`` on N^m for m = 1..3;
    two points of [0, 4]^m."""
    if draw(st.booleans()):
        q, r = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        alpha = Fraction(draw(st.integers(0, q)), q)
        beta = Fraction(draw(st.integers(0, r - 1)), r)
        p, m = PartialOrder.alpha_beta(alpha, beta), 2
    else:
        p, m = PartialOrder.componentwise(), draw(st.integers(1, 3))
    point = st.lists(st.integers(0, 4), min_size=m, max_size=m).map(MultiIndex)
    return p, draw(point), draw(point)


@settings(max_examples=300, deadline=None)
@given(partial_orders_and_points())
def test_weight_rows_match_the_defining_inequalities(case):
    p, a, b = case
    assert p.leq(a, b) == fraction_precedes(p, a, b)
    assert p.leq(b, a) == fraction_precedes(p, b, a)
    assert a == b or not (p.leq(a, b) and p.leq(b, a))  # antisymmetric
    # lazily, in row-major order
    assert list(downset_enum(a, p)) == sorted(fraction_downset(a, p))


def test_pair_compat_deglex_y2_refines_every_valid_ab():
    od = MonomialOrder.parse("deglex-y2")
    for alpha in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)):
        for beta in (Fraction(0), Fraction(1, 2), Fraction(3, 4)):
            p = PartialOrder.alpha_beta(alpha, beta)
            cert = validate_pair_compat(p, od, 4, m=2)
            assert cert.passed, (p.as_text(), cert.witness)


def test_pair_compat_deglex_sum_fails_exactly_at_alpha_one():
    od = MonomialOrder.parse("deglex-sum")
    assert validate_pair_compat(PartialOrder.parse("ab:1/2,0"), od, 4, m=2).passed
    assert validate_pair_compat(PartialOrder.parse("ab:99/100,9/10"), od, 4,
                                m=2).passed
    one = PartialOrder.parse("ab:1,0")
    cert = validate_pair_compat(one, od, 4, m=2)
    assert not cert.passed
    failed = named_check(cert, "refines-order")
    assert not failed.passed
    assert failed.witness == {"a": "1,0", "b": "0,1", "order": "deglex-sum"}
    # the pair behind the scheme-level failures violates compatibility too
    assert one.leq(mi(1, 1), mi(0, 2))
    assert lt(od, mi(0, 2), mi(1, 1))


def test_pair_compat_componentwise_refines_all_builtins():
    p = PartialOrder.componentwise()
    for od in all_orders():
        assert validate_pair_compat(p, od, 3, m=2).passed


# -- Domain closure ------------------------------------------------------------------

def test_check_domain_box_closure():
    closed = [mi(0, 0), mi(1, 0), mi(0, 1), mi(1, 1)]
    assert check_domain(closed, "box").passed
    cert = check_domain([mi(0, 0), mi(1, 1)], "box")
    assert not cert.passed
    assert cert.witness["element"] == "1,1"
    assert named_check(check_domain([], "box"), "domain-nonempty").passed is False
    assert not check_domain([mi(1), mi(1, 0)], "box").passed


@st.composite
def downsets_with_holes(draw):
    """A union of boxes in N^m, m in 1..3, with up to three of its points
    removed and up to two points added: box-closed or not, with the least
    element of a gap anywhere in sorted order."""
    m = draw(st.integers(1, 3))
    point = st.tuples(*[st.integers(0, 4)] * m).map(MultiIndex)
    dom = {b for top in draw(st.lists(point, min_size=1, max_size=4)) for b in box(tuple(top))}
    dom -= set(draw(st.lists(st.sampled_from(sorted(dom)), max_size=3)))
    return dom | set(draw(st.lists(point, max_size=2)))


@settings(max_examples=200, deadline=None)
@given(downsets_with_holes())
def test_box_closure_by_predecessors_matches_the_box_scan(dom):
    """The least a in D whose box has a gap is the least a with some
    a - e_i outside D; only its box is enumerated, for the same witness."""
    assert check_domain(dom, "box").to_dict() == box_closure_oracle(dom).to_dict()


def test_check_domain_downset_depends_on_alpha():
    axis_domain = [mi(0, 0), mi(1, 0), mi(0, 1), mi(2, 0), mi(0, 2)]
    assert check_domain(axis_domain, PartialOrder.parse("ab:1/2,0")).passed
    cert = check_domain(axis_domain, PartialOrder.parse("ab:1,0"))
    assert not cert.passed
    assert cert.witness == {"element": "0,2", "missing": "1,1"}
    diagonal_domain = [mi(0, 0), mi(1, 0), mi(0, 1), mi(2, 0), mi(1, 1)]
    for text in ("ab:0,0", "ab:1/2,1/2", "ab:1,0"):
        assert check_domain(diagonal_domain, PartialOrder.parse(text)).passed


def first_gap(dom, p: PartialOrder):
    """The downset check as loops: the first b below an element a of D,
    a in sorted order and b in row-major order, that D lacks."""
    for a in sorted(dom):
        for b in sorted(fraction_downset(a, p)):
            if b not in dom:
                return {"element": a.as_text(), "missing": b.as_text()}
    return None


@settings(max_examples=300, deadline=None)
@given(tops=st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1,
                    max_size=6),
       closed=st.booleans(), q=st.integers(1, 4), r=st.integers(1, 4),
       data=st.data())
def test_check_domain_names_the_first_gap_of_the_loops(tops, closed, q, r, data):
    """D inside [0, 4]^2, either drawn points or the boxes below them."""
    p = PartialOrder.alpha_beta(Fraction(data.draw(st.integers(0, q)), q),
                                Fraction(data.draw(st.integers(0, r - 1)), r))
    dom = {MultiIndex(a) for a in tops}
    if closed:
        dom = {b for a in dom for b in box(tuple(a))}
    gap = first_gap(dom, p)
    cert = check_domain(dom, p)
    assert cert.passed == (gap is None)
    assert cert.witness == gap


# -- Intervals and feasible regions ---------------------------------------------------

def test_interval_algebra():
    unit = Interval(Fraction(0), Fraction(1), True, False)
    assert not unit.empty
    assert interval_contains(unit, Fraction(0))
    assert not interval_contains(unit, Fraction(1))
    assert unit.as_text() == "[0, 1)"
    assert Interval(Fraction(1), Fraction(0)).empty
    assert Interval(Fraction(1), Fraction(1), True, False).empty
    clamped = unit.clamp_geq(Fraction(1, 2))
    assert clamped == Interval(Fraction(1, 2), Fraction(1), True, False)
    cut = unit.clamp_leq(Fraction(1, 2), closed=False)
    assert cut == Interval(Fraction(0), Fraction(1, 2), True, False)
    assert unit.intersect(Interval(Fraction(1, 4), Fraction(3))) == \
        Interval(Fraction(1, 4), Fraction(1), True, False)


def test_ab_feasible_region_frozen_cases():
    full = ab_feasible_region([])
    assert full.alpha.as_text() == "[0, 1]"
    assert full.beta.as_text() == "[0, 1)"

    half = ab_feasible_region([(mi(1, 0), mi(0, 2))])
    assert half.alpha.as_text() == "[1/2, 1]"
    assert half.beta.as_text() == "[0, 1)"

    assert ab_feasible_region([(mi(2, 0), mi(1, 0))]) is None
    assert ab_feasible_region([(mi(0, 1), mi(1, 0))]) is None  # needs beta >= 1


def test_ab_feasible_region_respects_componentwise_pairs():
    rng = random.Random(11)
    for _ in range(20):
        b = MultiIndex((rng.randrange(3), rng.randrange(3)))
        c = b + MultiIndex((rng.randrange(2), rng.randrange(2)))
        region = ab_feasible_region([(b, c)])
        assert region is not None
        assert region.alpha.as_text() == "[0, 1]"
        assert region.beta.as_text() == "[0, 1)"


def test_ab_region_contains_matches_precedes():
    rng = random.Random(23)
    for _ in range(40):
        b = MultiIndex((rng.randrange(4), rng.randrange(4)))
        c = MultiIndex((rng.randrange(4), rng.randrange(4)))
        region = ab_feasible_region([(b, c)])
        for alpha in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)):
            for beta in (Fraction(0), Fraction(2, 5), Fraction(7, 8)):
                expected = PartialOrder.alpha_beta(alpha, beta).leq(b, c)
                got = region_contains(region, alpha, beta)
                assert got == expected, (b, c, alpha, beta)

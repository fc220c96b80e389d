"""Recurrence polynomials, the triangular boundary test and the
order-compatibility table against dense exact-algebra and loop oracles.

Inputs: tori C_a x C_b with renamed, reordered vertices under every
built-in order (plain, refined by ``componentwise``, and ``ab:1,0``
under deglex-y2); the same tori with their classes relabeled at random,
which are not certified and whose monomial vectors are not triangular;
and the generalized 24-cell grid under both label maps.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from mdrg import (ColoredGraph, MonomialOrder, PartialOrder,
                  boundary_check, cartesian_product, certify_ppoly,
                  certify_ppoly_refined, cycle, extract_polynomials,
                  gen24cell, mdrg_check, validate_pair_compat)

from helpers import (AXIS_LABELING, DIAGONAL_LABELING,
                     brute_force_pair_compat, solve_polynomials,
                     span_boundary_check)

ORDERS = ("deglex-sum", "lex", "deglex-y2")
# (order, partial) pairs that pass validate_pair_compat
WINDOWS = ([(order, None) for order in ORDERS]
           + [(order, "componentwise") for order in ORDERS]
           + [("deglex-y2", "ab:1,0")])


def _window(order_text, partial_text):
    order = MonomialOrder.parse(order_text)
    partial = PartialOrder.parse(partial_text) if partial_text else None
    leq = partial.precedes if partial else order.leq
    return order, partial, leq


@st.composite
def tori(draw):
    a, b = draw(st.integers(3, 7)), draw(st.integers(3, 6))
    g = cartesian_product([cycle(a), cycle(b)])
    names = draw(st.permutations(g.vertices))
    rename = {v: "v%d" % i for i, v in enumerate(names)}
    return ColoredGraph(2, [rename[v] for v in names],
                        [(rename[x], rename[y], c) for x, y, c in g.edge_names()])


def _certified(t, order, partial):
    if partial is None:
        return certify_ppoly(t, order)
    return certify_ppoly_refined(t, order, partial)


def _check_against_oracles(t, order, partial, leq):
    kwargs = {"partial": partial} if partial else {"order": order}
    assert (boundary_check(t, **kwargs).to_dict()
            == span_boundary_check(t, leq).to_dict())
    if _certified(t, order, partial).passed:
        polys, cert = extract_polynomials(t, **kwargs)
        assert cert.passed
        assert polys == solve_polynomials(t, leq)
        return True
    return False


@settings(max_examples=30, deadline=None)
@given(tori(), st.sampled_from(WINDOWS))
def test_recurrence_and_boundary_match_dense_oracles_on_tori(g, window):
    order, partial, leq = _window(*window)
    t = mdrg_check(g, order).tensor
    assert _check_against_oracles(t, order, partial, leq)


@settings(max_examples=40, deadline=None)
@given(tori(), st.sampled_from(WINDOWS), st.randoms(use_true_random=False))
def test_boundary_matches_rank_oracle_on_relabeled_tori(g, window, rng):
    order, partial, leq = _window(*window)
    t = mdrg_check(g, order).tensor
    moved = [lab for lab in t.labels if lab != t.identity]
    targets = list(moved)
    rng.shuffle(targets)
    relabeled = t.relabel({t.identity: t.identity, **dict(zip(moved, targets))})
    _check_against_oracles(relabeled, order, partial, leq)


@pytest.mark.parametrize("ell", ["2", "3", "4"])
@pytest.mark.parametrize("s", ["1/2", "3/4", "1"])
def test_recurrence_and_boundary_on_the_gen24cell_grid(ell, s):
    t = gen24cell(Fraction(ell), Fraction(s))
    axis, diag = AXIS_LABELING.apply(t), DIAGONAL_LABELING.apply(t)
    certified = [_check_against_oracles(labeled, *_window(*window))
                 for labeled in (axis, diag) for window in WINDOWS]
    assert any(certified)
    # the axis labeling under deglex-y2 fails the window and the boundary
    assert not certify_ppoly(axis, MonomialOrder.parse("deglex-y2")).passed
    assert not boundary_check(axis, order=MonomialOrder.parse("deglex-y2")).passed


@st.composite
def order_pairs(draw):
    if draw(st.booleans()):
        q, q2 = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        alpha = Fraction(draw(st.integers(0, q)), q)
        beta = Fraction(draw(st.integers(0, q2 - 1)), q2)
        partial, m = PartialOrder.alpha_beta(alpha, beta), 2
        bound = draw(st.integers(0, 4))
    else:
        partial, m = PartialOrder.componentwise(), draw(st.integers(1, 3))
        bound = draw(st.integers(0, 4 if m < 3 else 2))
    kinds = ["deglex-sum", "lex", "wdeglex"] + (["deglex-y2"] if m == 2 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "wdeglex":
        weights = draw(st.lists(st.fractions(min_value=Fraction(1, 4),
                                             max_value=4, max_denominator=4),
                                min_size=m, max_size=m))
        kind += ":" + ",".join(str(w) for w in weights)
    return partial, MonomialOrder.parse(kind), bound, m


@settings(max_examples=120, deadline=None)
@given(order_pairs())
@example((PartialOrder.parse("ab:1,0"), MonomialOrder.parse("lex"), 4, 2))
@example((PartialOrder.parse("ab:1,0"), MonomialOrder.parse("deglex-sum"), 3, 2))
def test_pair_compat_table_matches_triple_loop(pair):
    partial, order, bound, m = pair
    fast = validate_pair_compat(partial, order, bound, m=m)
    assert fast.to_dict() == brute_force_pair_compat(partial, order, bound, m).to_dict()


def test_pair_compat_ab_one_zero_fails_against_lex():
    cert = validate_pair_compat(PartialOrder.parse("ab:1,0"),
                                MonomialOrder.parse("lex"), 4)
    assert cert.check("refines-order").witness == {"a": "1,0", "b": "0,1",
                                                   "order": "lex"}
    assert cert.check("translation").passed and cert.check("origin-below").passed

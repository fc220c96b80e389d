"""Recurrence polynomials, the proved boundary certificate and the
order-compatibility table against dense exact-algebra and loop oracles.

Inputs: tori C_a x C_b with renamed, reordered vertices under every
built-in order (plain, refined by ``componentwise``, and ``ab:1,0``
under deglex-y2); the same tori with their classes relabeled at random,
which are mostly not certified, so ``boundary_check`` must refuse them;
the same tori with one generator product changed; and the generalized
24-cell grid under both label maps.
"""

from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings, strategies as st

from mdrg import (Certificate, ColoredGraph, IntersectionTensor, MonomialOrder, MultiIndex, PartialOrder,
                  boundary_check, cartesian_product, certify_ppoly,
                  certify_ppoly_refined, cycle, extract_polynomials,
                  gen24cell, mdrg_check, validate_pair_compat)

from helpers import (AXIS_LABELING, DIAGONAL_LABELING,
                     brute_force_pair_compat, named_check, pairwise_pair_compat,
                     solve_polynomials, span_boundary_check)

ORDERS = ("deglex-sum", "lex", "deglex-y2")
# (order, partial) pairs that pass validate_pair_compat
WINDOWS = ([(order, None) for order in ORDERS]
           + [(order, "componentwise") for order in ORDERS]
           + [("deglex-y2", "ab:1,0")])


def _window(order_text, partial_text):
    order = MonomialOrder.parse(order_text)
    partial = PartialOrder.parse(partial_text) if partial_text else None
    leq = partial.leq if partial else order.leq
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
    """On a certified window the proved boundary certificate is the rank
    oracle's and extraction solves the dense system; elsewhere
    ``boundary_check`` refuses."""
    window = partial if partial else order
    if not _certified(t, order, partial).passed:
        with pytest.raises(ValueError, match="certified window"):
            boundary_check(t, window)
        return False
    assert (boundary_check(t, window).to_dict()
            == span_boundary_check(t, leq).to_dict())
    polys, cert = extract_polynomials(t, window)
    assert cert.passed
    assert polys == solve_polynomials(t, leq)
    return True


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
    # the axis labeling under deglex-y2 fails the window, so the boundary
    # is not proved; the rank oracle finds a failing case
    assert not certify_ppoly(axis, MonomialOrder.parse("deglex-y2")).passed
    with pytest.raises(ValueError, match="certified window"):
        boundary_check(axis, MonomialOrder.parse("deglex-y2"))
    assert not span_boundary_check(axis, MonomialOrder.parse("deglex-y2").leq).passed


# -- The proved boundary certificate on perturbed tensors -------------------------

BOUNDARY_WINDOWS = ([MonomialOrder.parse(text) for text in ORDERS]
                    + [PartialOrder.parse(text) for text in
                       ("componentwise", "ab:1,0", "ab:1/2,0")])


@st.composite
def boundary_inputs(draw):
    """A torus tensor: as certified, with its classes permuted, or with one
    generator product p_{e_i,a}^b changed, dropped or added."""
    g = draw(tori())
    t = mdrg_check(g, MonomialOrder.parse(draw(st.sampled_from(ORDERS)))).tensor
    how = draw(st.sampled_from(["own", "permute", "perturb"]))
    if how == "permute":
        moved = [lab for lab in t.labels if lab != t.identity]
        targets = draw(st.permutations(moved))
        return t.relabel({t.identity: t.identity, **dict(zip(moved, targets))})
    if how == "perturb":
        p = dict(t.p)
        key = (MultiIndex.unit(2, draw(st.integers(1, 2))),
               draw(st.sampled_from(t.labels)), draw(st.sampled_from(t.labels)))
        p[key] = p.get(key, 0) + draw(st.sampled_from(
            [Fraction(1), Fraction(-1), Fraction(1, 2), -p.get(key, 1)]))
        return IntersectionTensor(labels=t.labels, identity=t.identity,
                                  p={k: v for k, v in p.items() if v})
    return t


@settings(max_examples=60, deadline=None)
@given(boundary_inputs(), st.sampled_from(BOUNDARY_WINDOWS))
def test_proved_boundary_matches_rank_oracle(t, window):
    """Where ``certify_ppoly`` passes under the window, the proof's
    certificate equals the rank oracle's, perturbed generator rows
    included; elsewhere ``boundary_check`` refuses."""
    if certify_ppoly(t, window).passed:
        event("certified")
        assert (boundary_check(t, window).to_dict()
                == span_boundary_check(t, window.leq).to_dict())
    else:
        event("refused")
        with pytest.raises(ValueError, match="certified window"):
            boundary_check(t, window)


def test_proved_boundary_on_a_permuted_torus():
    """The certified C4 x C3 tensor passes under every window with the
    oracle's case count.  With its classes permuted it is certified under
    none of them, so it is refused, although the rank oracle still finds
    its boundary span under deglex-sum."""
    t = mdrg_check(cartesian_product([cycle(4), cycle(3)]),
                   MonomialOrder.parse("deglex-sum")).tensor
    moved = [lab for lab in t.labels if lab != t.identity]
    targets = [MultiIndex(lab) for lab in
               ((1, 0), (2, 0), (1, 1), (0, 1), (2, 1))]
    permuted = t.relabel({t.identity: t.identity, **dict(zip(moved, targets))})
    for window in BOUNDARY_WINDOWS:
        cert = boundary_check(t, window)
        assert cert.passed
        assert cert.to_dict() == span_boundary_check(t, window.leq).to_dict()
        with pytest.raises(ValueError, match="certified window"):
            boundary_check(permuted, window)
    assert span_boundary_check(permuted, MonomialOrder.parse("deglex-sum").leq).passed


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
    slow = brute_force_pair_compat(partial, order, bound, m)
    # translation holds for linear forms, so the check leaves it out
    assert named_check(slow, "translation").passed
    assert fast.to_dict() == Certificate.of(
        c for c in slow.checks if c.name != "translation").to_dict()


@st.composite
def wide_order_pairs(draw):
    """Order pairs on boxes up to bound 12 (m = 2) or 4 (m = 3)."""
    if draw(st.booleans()):
        alpha = draw(st.fractions(0, 1, max_denominator=9))
        beta = Fraction(draw(st.integers(0, 8)), 9)
        partial, m = PartialOrder.alpha_beta(alpha, beta), 2
    else:
        partial, m = PartialOrder.componentwise(), draw(st.integers(1, 3))
    bound = draw(st.integers(0, 12 if m < 3 else 4))
    kinds = ["deglex-sum", "lex", "wdeglex"] + (["deglex-y2"] if m == 2 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "wdeglex":
        weights = draw(st.lists(st.fractions(min_value=Fraction(1, 9),
                                             max_value=9, max_denominator=9),
                                min_size=m, max_size=m))
        kind += ":" + ",".join(str(w) for w in weights)
    return partial, MonomialOrder.parse(kind), bound, m


@settings(max_examples=150, deadline=None)
@given(wide_order_pairs())
@example((PartialOrder.parse("ab:1,0"), MonomialOrder.parse("lex"), 12, 2))
@example((PartialOrder.parse("ab:1/3,8/9"), MonomialOrder.parse("deglex-y2"), 7, 2))
# a first bad pair past t = 1 in each shape: a = (0,2), b = (3,0) and
# a = (5,0), b = (0,6)
@example((PartialOrder.parse("ab:0,2/3"), MonomialOrder.parse("wdeglex:1,2"), 9, 2))
@example((PartialOrder.parse("ab:5/6,0"), MonomialOrder.parse("wdeglex:6,5"), 8, 2))
# form values past 2**62: the table switches to Python ints, the scan
# needs no switch
@example((PartialOrder.parse("ab:1/%d,0" % 2 ** 62), MonomialOrder.parse("lex"), 3, 2))
@example((PartialOrder.componentwise(),
          MonomialOrder.parse("wdeglex:1/%d,1,1" % 2 ** 62), 2, 3))
def test_pair_compat_differences_match_pairwise_table(pair):
    partial, order, bound, m = pair
    cert = validate_pair_compat(partial, order, bound, m=m)
    event(cert.verdict)
    assert cert.to_dict() == pairwise_pair_compat(partial, order, bound, m).to_dict()


def test_pair_compat_ab_one_zero_fails_against_lex():
    cert = validate_pair_compat(PartialOrder.parse("ab:1,0"),
                                MonomialOrder.parse("lex"), 4, m=2)
    assert named_check(cert, "refines-order").witness == {"a": "1,0", "b": "0,1",
                                                          "order": "lex"}
    assert [c.name for c in cert.checks] == ["refines-order", "origin-below"]
    assert named_check(cert, "origin-below").passed

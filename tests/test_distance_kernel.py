"""The all-sources relaxation kernel against the per-source search.

``m_distance_table`` relaxes integer codes of W a over the edges until
nothing changes, in int64 while the codes fit under 2^62 and in exact
Python ints past that.  Here its table is checked against
``helpers.m_distance_from`` (a label-setting search keyed by the order)
and the simple-path oracle ``helpers.brute_force_distance`` on random
connected graphs with n <= 12 and m <= 3, vertices renamed and reordered
at random: under all four order kinds (wdeglex with non-integer
weights), on orders whose codes pass the int64 bound, on one vertex, and
on disconnected graphs, which must raise with the same source and
unreachable vertex.  The weight matrices themselves are checked against
the defining comparisons.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mdrg import (ColoredGraph, DisconnectedGraphError, MonomialOrder,
                  MultiIndex, box, m_distance_table)

from helpers import (brute_force_distance, label_rows, m_distance_from,
                     orders, random_colored_graph, renamed)

TINY = Fraction(1, 10 ** 15)


@st.composite
def wide_orders(draw, m: int) -> MonomialOrder:
    """wdeglex with weights 1 and 10^-15, both present: for m >= 2 and
    n >= 2 the codes pass the int64 bound."""
    tiny = draw(st.lists(st.booleans(), min_size=m, max_size=m)
                .filter(lambda flags: len(set(flags)) == 2))
    return MonomialOrder("wdeglex", tuple(TINY if t else Fraction(1) for t in tiny))


def search_table(g: ColoredGraph, order: MonomialOrder):
    return tuple(tuple(m_distance_from(g, order, s)) for s in g.vertices)


def packed_code_fits(g: ColoredGraph, order: MonomialOrder) -> bool:
    forms = order.forms(g.m)
    radix = (g.n - 1) * max(sum(row) for row in forms) + 1
    return 2 * radix ** len(forms) < 2 ** 63


def assert_matches_oracles(g: ColoredGraph, order: MonomialOrder) -> None:
    table = m_distance_table(g, order)
    rows = label_rows(table)
    assert rows == search_table(g, order)
    for i, x in enumerate(g.vertices):
        for j, y in enumerate(g.vertices):
            assert rows[i][j] == brute_force_distance(g, order, x, y)
    assert_realized_in_order(table)


def assert_realized_in_order(table):
    """``labels`` holds each realized distance once, sorted by the order,
    and ``index`` uses every position."""
    assert table.labels == tuple(sorted(set(table.labels), key=table.order.key))
    assert table.index.shape == (table.graph.n, table.graph.n)
    assert sorted(set(table.index.ravel().tolist())) == list(range(len(table.labels)))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32), n=st.integers(1, 12), m=st.integers(1, 3),
       data=st.data())
def test_kernel_matches_search_and_simple_paths(seed, n, m, data):
    rng = random.Random(seed)
    g = renamed(random_colored_graph(rng, n, m), rng)
    order = data.draw(orders(m))
    assert packed_code_fits(g, order)
    assert_matches_oracles(g, order)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32), n=st.integers(2, 12), m=st.integers(2, 3),
       data=st.data())
def test_codes_past_the_bound_match_the_search(seed, n, m, data):
    rng = random.Random(seed)
    g = renamed(random_colored_graph(rng, n, m), rng)
    order = data.draw(wide_orders(m))
    assert not packed_code_fits(g, order)
    assert_matches_oracles(g, order)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_one_vertex(m):
    g = ColoredGraph(m, ["x"], [])
    kinds = ["deglex-sum", "lex", "wdeglex:" + ",".join(["1/3"] * m)]
    for order in map(MonomialOrder.parse, kinds + ["deglex-y2"] * (m == 2)):
        table = m_distance_table(g, order)
        assert table.labels == (MultiIndex.zero(m),)
        assert table.index.tolist() == [[0]]
        assert search_table(g, order) == ((MultiIndex.zero(m),),)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32), sizes=st.lists(st.integers(1, 5),
                                                    min_size=2, max_size=3),
       m=st.integers(1, 3), data=st.data())
def test_disconnected_graph_raises_like_the_search(seed, sizes, m, data):
    rng = random.Random(seed)
    vertices, edges = [], []
    for part, size in enumerate(sizes):
        piece = random_colored_graph(rng, size, m)
        vertices += ["%d.%s" % (part, v) for v in piece.vertices]
        edges += [("%d.%s" % (part, u), "%d.%s" % (part, v), c)
                  for u, v, c in piece.edge_names()]
    rng.shuffle(vertices)
    g = ColoredGraph(m, vertices, edges)
    order = data.draw(orders(m) if m == 1 else st.one_of(orders(m),
                                                         wide_orders(m)))
    with pytest.raises(DisconnectedGraphError) as expected:
        search_table(g, order)
    with pytest.raises(DisconnectedGraphError) as got:
        m_distance_table(g, order)
    assert (got.value.source, got.value.unreachable) == (
        expected.value.source, expected.value.unreachable)


def defining_key(order: MonomialOrder, a: MultiIndex):
    """Each kind's comparison as written in its definition."""
    if order.kind == "deglex-sum":
        return (sum(a), tuple(a))
    if order.kind == "deglex-y2":
        return (sum(a), a[1])
    if order.kind == "lex":
        return tuple(a)
    return (sum(w * e for w, e in zip(order.weights, a)), tuple(a))


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 3), data=st.data())
def test_forms_and_key_match_the_defining_comparisons(m, data):
    order = data.draw(orders(m))
    forms = order.forms(m)
    assert len(forms) == m and all(len(row) == m for row in forms)
    assert all(isinstance(w, int) and w >= 0 for row in forms for w in row)
    points = list(box((3 if m < 3 else 2,) * m))
    for a in points:
        assert order.key(a) == tuple(sum(w * e for w, e in zip(row, a))
                                     for row in forms)
    for a, b in itertools.product(points, repeat=2):
        ka, kb = defining_key(order, a), defining_key(order, b)
        assert (order.key(a) < order.key(b)) == (ka < kb)
        assert order.leq(a, b) == (ka <= kb)
        assert (order.key(a) == order.key(b)) == (a == b)


def test_forms_of_each_kind():
    assert MonomialOrder.parse("deglex-sum").forms(3) == ((1, 1, 1), (1, 0, 0),
                                                          (0, 1, 0))
    assert MonomialOrder.parse("deglex-y2").forms(2) == ((1, 1), (0, 1))
    assert MonomialOrder.parse("lex").forms(2) == ((1, 0), (0, 1))
    assert MonomialOrder.parse("wdeglex:1/2,3").forms(2) == ((1, 6), (1, 0))
    with pytest.raises(ValueError):
        MonomialOrder.parse("deglex-y2").forms(3)
    with pytest.raises(ValueError):
        MonomialOrder.parse("wdeglex:1/2,3").forms(3)

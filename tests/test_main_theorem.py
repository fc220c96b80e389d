"""The paper's main theorem on random Cartesian products and on the
nonbinary Johnson graphs.

A Cartesian product of 1-3 small distance-regular factors (cycles,
complete graphs, Hamming graphs), each factor in its own color, is
m-distance-regular under every monomial order: the m-distance is the
vector of factor distances, which is componentwise below the m-length of
every walk.  Its vertices are renamed and reordered, and in some
examples one edge gets another color.  A nonbinary Johnson graph
J_q(N, d) is not a product; it is 2-distance-regular under some orders
only.  Whenever ``mdrg_check`` passes, the distance scheme must be
m-variate P-polynomial under the same order: ``certify_ppoly``,
``boundary_check``, ``extract_polynomials`` and ``verify_recurrences``
pass on its tensor, and for m <= 2 labeling discovery finds the color
classes with the identity labeling.
"""

from __future__ import annotations

import math
import random

from hypothesis import given, settings, strategies as st

from mdrg import (ColoredGraph, Discovery, Labeling, MonomialOrder,
                  MultiIndex, ab_region_for_scheme, boundary_check,
                  cartesian_product, certify_ppoly, complete, cycle,
                  discover_labelings, extract_polynomials, hamming_graph,
                  mdrg_check, verify_recurrences)

from helpers import nonbinary_johnson, orders, renamed

FACTORS = {"C3": cycle(3), "C4": cycle(4), "C5": cycle(5), "C6": cycle(6),
           "K2": complete(2), "K3": complete(3), "K4": complete(4),
           "H(2,3)": hamming_graph(2, 3), "H(3,2)": hamming_graph(3, 2)}


def recolored(g: ColoredGraph, edge: int, shift: int) -> ColoredGraph:
    """g with its edge number ``edge`` moved ``shift`` colors on, mod m."""
    edges = g.edge_names()
    u, v, color = edges[edge]
    edges[edge] = (u, v, (color - 1 + shift) % g.m + 1)
    return ColoredGraph(g.m, g.vertices, edges)


@settings(max_examples=100, deadline=None)
@given(names=st.lists(st.sampled_from(sorted(FACTORS)), min_size=1, max_size=3)
       .filter(lambda names: math.prod(FACTORS[f].n for f in names) <= 64),
       seed=st.integers(0, 2 ** 32), perturb=st.booleans(), data=st.data())
def test_mdrg_products_are_p_polynomial(names, seed, perturb, data):
    rng = random.Random(seed)
    g = renamed(cartesian_product([FACTORS[f] for f in names]), rng)
    perturb = perturb and g.m > 1
    if perturb:
        g = recolored(g, rng.randrange(len(g.edges)), rng.randrange(1, g.m))
    order = data.draw(orders(g.m))
    result = mdrg_check(g, order)
    assert result.certificate.passed or perturb
    if result.certificate.passed:
        assert_p_polynomial(g, order, result)


def assert_p_polynomial(g, order, result):
    """The P-polynomial checks on the tensor of a passing ``mdrg_check``."""
    t = result.tensor
    assert certify_ppoly(t, order).passed
    assert boundary_check(t, order).passed
    polys, extracted = extract_polynomials(t, order)
    assert extracted.passed
    assert verify_recurrences(polys, t).passed
    if g.m <= 2:
        colors = tuple(MultiIndex.unit(g.m, i) for i in range(1, g.m + 1))
        identity = Labeling.from_dict({lab: lab for lab in t.labels})
        assert Discovery(colors, identity) in discover_labelings(
            result.scheme, g.m, order)


# (q, N, d) with 1 <= d < N and at most 160 words
JOHNSON = [(q, length, d) for q in (3, 4) for length in range(2, 8)
           for d in range(1, length)
           if math.comb(length, d) * (q - 1) ** d <= 160]


def swapped(g: ColoredGraph) -> ColoredGraph:
    """A two-colored graph with its colors exchanged."""
    return ColoredGraph(2, g.vertices,
                        [(u, v, 3 - c) for u, v, c in g.edge_names()])


@settings(max_examples=40, deadline=None)
@given(params=st.sampled_from(JOHNSON), swap=st.booleans(),
       seed=st.integers(0, 2 ** 32), data=st.data())
def test_nonbinary_johnson_mdrg_is_p_polynomial(params, swap, seed, data):
    g = nonbinary_johnson(*params)
    g = renamed(swapped(g) if swap else g, random.Random(seed))
    order = data.draw(orders(2))
    result = mdrg_check(g, order)
    if result.certificate.passed:
        assert_p_polynomial(g, order, result)


def test_nonbinary_johnson_j3_5_2():
    """J_3(5, 2), n = 40: with colors (move, change) 2-distance-regular
    under the orders that put degree or the first color first, with the
    triangle i + j <= 2 as classes and no (alpha, beta) type; with the
    colors swapped, under the orders that weigh the second color, with
    alpha = 1 and every beta."""
    g = nonbinary_johnson(3, 5, 2)
    assert g.n == 40
    triangle = sorted(MultiIndex((i, j)) for i in range(3) for j in range(3 - i))
    for graph, passing, failing, region in (
            (g, ["deglex-sum", "lex", "wdeglex:2,1"],
             ["deglex-y2", "wdeglex:1,2"], "empty"),
            (swapped(g), ["deglex-y2", "wdeglex:1,2"],
             ["deglex-sum", "lex", "wdeglex:2,1"],
             "alpha in [1, 1], beta in [0, 1)")):
        for text in failing:
            assert not mdrg_check(graph, MonomialOrder.parse(text)).certificate.passed
        for text in passing:
            order = MonomialOrder.parse(text)
            result = mdrg_check(graph, order)
            assert result.certificate.passed, text
            assert sorted(result.tensor.labels) == triangle
            assert_p_polynomial(graph, order, result)
            found = ab_region_for_scheme(result.tensor)
            assert (found.as_text() if found else "empty") == region

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
classes with the identity labeling.  On every such input ``mdrg_check``
compares the generator counts only and never runs the full pair-count
scan.

The generator route of ``pair_counts`` is also checked against the full
kernel on random connected graphs, where a color-i edge may join a pair
at a distance other than e_i, and on the inputs above, passing or not.
"""

from __future__ import annotations

import contextlib
import math
import random
from unittest import mock

import numpy as np
from hypothesis import event, given, settings, strategies as st

from mdrg import (Certificate, Check, ColoredGraph, Discovery, Labeling,
                  MonomialOrder, MultiIndex, ab_region_for_scheme,
                  boundary_check, cartesian_product, certify_ppoly, complete,
                  cycle, discover_labelings, distance_matrices,
                  extract_polynomials, hamming_graph, m_distance_table,
                  mdrg_check, verify_recurrences)
from mdrg import schemes
from mdrg.schemes import BadPair, _pair_witness, pair_counts

from helpers import nonbinary_johnson, orders, random_colored_graph, renamed

FACTORS = {"C3": cycle(3), "C4": cycle(4), "C5": cycle(5), "C6": cycle(6),
           "K2": complete(2), "K3": complete(3), "K4": complete(4),
           "H(2,3)": hamming_graph(2, 3), "H(3,2)": hamming_graph(3, 2)}
# trees that are not distance-regular: as a factor of a product, the
# counts through its color vary while those through the others do not
IRREGULAR = {"P3": ColoredGraph(1, "abc", [("a", "b", 1), ("b", "c", 1)]),
             "K1,3": ColoredGraph(1, "abcd", [("a", "b", 1), ("a", "c", 1),
                                              ("a", "d", 1)])}


def recolored(g: ColoredGraph, edge: int, shift: int) -> ColoredGraph:
    """g with its edge number ``edge`` moved ``shift`` colors on, mod m."""
    edges = g.edge_names()
    u, v, color = edges[edge]
    edges[edge] = (u, v, (color - 1 + shift) % g.m + 1)
    return ColoredGraph(g.m, g.vertices, edges)


@contextlib.contextmanager
def full_scans():
    """The list of k of every full ``pair_counts`` scan (no ``gens``)
    that ``mdrg_check`` runs inside the block."""
    calls = []
    kernel = schemes.pair_counts

    def counting(idx, k, gens=None):
        if gens is None:
            calls.append(k)
        return kernel(idx, k, gens)

    with mock.patch.object(schemes, "pair_counts", counting):
        yield calls


def checked_mdrg(g: ColoredGraph, order: MonomialOrder):
    """``mdrg_check``, asserting that it runs the full scan exactly when
    it fails at ``regular-counts``."""
    with full_scans() as scans:
        result = mdrg_check(g, order)
    counted = result.certificate.checks[-1].name == "regular-counts"
    assert len(scans) == (counted and not result.certificate.passed)
    return result


def product(names, rng: random.Random, perturb: bool) -> ColoredGraph:
    """A renamed product of FACTORS, with one edge recolored if asked."""
    g = renamed(cartesian_product([FACTORS[f] for f in names]), rng)
    if perturb and g.m > 1:
        g = recolored(g, rng.randrange(len(g.edges)), rng.randrange(1, g.m))
    return g


PRODUCTS = (st.lists(st.sampled_from(sorted(FACTORS)), min_size=1, max_size=3)
            .filter(lambda names: math.prod(FACTORS[f].n for f in names) <= 64))


@settings(max_examples=100, deadline=None)
@given(names=PRODUCTS, seed=st.integers(0, 2 ** 32), perturb=st.booleans(),
       data=st.data())
def test_mdrg_products_are_p_polynomial(names, seed, perturb, data):
    g = product(names, random.Random(seed), perturb)
    perturb = perturb and g.m > 1
    order = data.draw(orders(g.m))
    result = checked_mdrg(g, order)
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
            distance_matrices(result.table), g.m, order)


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
    result = checked_mdrg(g, order)
    if result.certificate.passed:
        assert_p_polynomial(g, order, result)


def bypassed(rng: random.Random, n: int, extra_edges: int) -> ColoredGraph:
    """A random connected two-colored graph on n >= 3 vertices in which
    the color-2 edge 0-1 has the color-1 detour 0-2-1: under an order
    with 2 e_1 < e_2 it joins a pair at distance 2 e_1, not e_2."""
    base = random_colored_graph(rng, n, 2, extra_edges)
    edges = {(u, v): c for u, v, c in base.edge_names()}
    for u, v in (("0", "1"), ("1", "0"), ("0", "2"), ("2", "0"),
                 ("1", "2"), ("2", "1")):
        edges.pop((u, v), None)
    edges.update({("0", "1"): 2, ("0", "2"): 1, ("1", "2"): 1})
    return ColoredGraph(2, base.vertices, [(u, v, c) for (u, v), c in edges.items()])


def test_bypassed_edge_joins_a_pair_at_another_distance():
    g = bypassed(random.Random(0), 8, 3)
    table = m_distance_table(g, MonomialOrder.parse("wdeglex:1,3"))
    assert table.labels[table.index[0, 1]] == MultiIndex((2, 0))


@st.composite
def graphs_and_orders(draw):
    """(graph, order): a renamed random connected graph (n <= 12, m <= 3),
    one with a bypassed color-2 edge, a product of FACTORS with or without
    a recolored edge, one with an IRREGULAR factor in any color, or a
    nonbinary Johnson graph of at most 60 words."""
    kind = draw(st.sampled_from(["random", "bypassed", "product", "irregular",
                                 "johnson"]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if kind == "random":
        g = random_colored_graph(rng, draw(st.integers(1, 12)), draw(st.integers(1, 3)),
                                 draw(st.integers(0, 10)))
    elif kind == "bypassed":
        g = bypassed(rng, draw(st.integers(3, 12)), draw(st.integers(0, 6)))
    elif kind == "product":
        g = product(draw(PRODUCTS), rng, draw(st.booleans()))
    elif kind == "irregular":
        factors = [FACTORS[f] for f in draw(st.lists(st.sampled_from(["C3", "C4", "K2"]),
                                                      min_size=1, max_size=2))]
        factors.insert(draw(st.integers(0, len(factors))),
                       IRREGULAR[draw(st.sampled_from(sorted(IRREGULAR)))])
        g = cartesian_product(factors)
    else:
        g = nonbinary_johnson(*draw(st.sampled_from(
            [params for params in JOHNSON
             if math.comb(params[1], params[2]) * (params[0] - 1) ** params[2] <= 60])))
    g = renamed(g, rng)
    if kind == "bypassed" and draw(st.booleans()):
        return g, MonomialOrder.parse("wdeglex:1,3")
    return g, draw(orders(g.m))


@settings(max_examples=300, deadline=None)
@given(graphs_and_orders())
def test_generator_route_matches_full_kernel(case):
    """Same verdict as the full scan, the same rows on a pass, and on a
    failure ``mdrg_check`` reports the full scan's first bad pair."""
    g, order = case
    table = m_distance_table(g, order)
    labels, k = table.labels, len(table.labels)
    units = [MultiIndex.unit(g.m, i) for i in range(1, g.m + 1)]
    result = checked_mdrg(g, order)
    if not all(unit in labels for unit in units):
        assert result.certificate.checks[-1].name == "colors-realized"
        event("a color unrealized")
        return
    full = pair_counts(table.index, k)
    route = pair_counts(table.index, k, [labels.index(unit) for unit in units])
    assert (route is None) == isinstance(full, BadPair)
    event("not m-distance-regular" if route is None else "m-distance-regular")
    if isinstance(full, BadPair):
        assert result.certificate == Certificate.of([
            Check("colors-realized", True),
            Check("regular-counts", False, _pair_witness(full, labels, g.vertices))])
        assert result.counts is None and result.tensor is None
    else:
        assert np.array_equal(route, full)
        assert np.array_equal(result.counts, full)
        assert result.certificate.passed


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

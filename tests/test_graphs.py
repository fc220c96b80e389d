"""Colored graphs and the m-distance computation.

Claims covered here:
  * ColoredGraph rejects malformed input with specific errors.
  * The m-distance table agrees with brute-force simple-path
    enumeration on random connected graphs under every built-in order.
  * Frozen distance facts: cycles, the 14x9 torus grid, the 24-cell.
  * The table is symmetric with a zero diagonal.
  * Walk counts are exact past 64 bits.
  * The local edge-step precedence check accepts and rejects the right
    (order, partial order) combinations on the 24-cell.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from mdrg import (ColoredGraph, DisconnectedGraphError, GraphStructureError,
                  MonomialOrder, MultiIndex, PartialOrder, cell24, complete,
                  cycle, cartesian_product, m_distance_table)

from helpers import (brute_force_distance, check_precompat_graph, color_matrix,
                     count_walks_by_type, cycle_distance, distance_profile,
                     is_connected, label_rows, m_distance_from,
                     random_colored_graph)

DEGLEX_SUM = MonomialOrder.parse("deglex-sum")
DEGLEX_Y2 = MonomialOrder.parse("deglex-y2")
LEX = MonomialOrder.parse("lex")


# -- Helpers ---------------------------------------------------------------------

def mi(*entries: int) -> MultiIndex:
    return MultiIndex(entries)


# -- Construction -----------------------------------------------------------------

def test_graph_rejects_malformed_input():
    with pytest.raises(GraphStructureError):
        ColoredGraph(0, ["a"], [])
    with pytest.raises(GraphStructureError):
        ColoredGraph(1, ["a", "a"], [])
    with pytest.raises(GraphStructureError):
        ColoredGraph(1, [], [])
    with pytest.raises(GraphStructureError):
        ColoredGraph(1, ["a", "b"], [("a", "c", 1)])
    with pytest.raises(GraphStructureError):
        ColoredGraph(1, ["a", "b"], [("a", "b", 2)])
    with pytest.raises(GraphStructureError):
        ColoredGraph(1, ["a", "b"], [("a", "a", 1)])
    with pytest.raises(GraphStructureError):
        ColoredGraph(2, ["a", "b"], [("a", "b", 1), ("b", "a", 2)])


def test_graph_rejects_bool_m_and_colors():
    # bool is a subclass of int: True would pass as m = 1 or color 1
    with pytest.raises(GraphStructureError, match="m must be an integer"):
        ColoredGraph(True, ["a", "b"], [("a", "b", 1)])
    for color in (True, False):
        with pytest.raises(GraphStructureError, match="has color"):
            ColoredGraph(2, ["a", "b"], [("a", "b", color)])
    with pytest.raises(GraphStructureError):
        ColoredGraph("1", ["a"], [])


def test_graph_accessors():
    g = ColoredGraph(2, ["a", "b", "c"], [("a", "b", 1), ("b", "c", 2)])
    assert g.n == 3
    assert g.edge_names() == [("a", "b", 1), ("b", "c", 2)]
    assert color_matrix(g, 1).sum() == 2
    assert np.array_equal(color_matrix(g, 1) + color_matrix(g, 2),
                          [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert is_connected(g)
    assert not is_connected(ColoredGraph(1, ["a", "b"], []))


# -- Single source and tables --------------------------------------------------------

def test_single_source_distances_on_a_two_colored_path():
    g = ColoredGraph(2, ["a", "b", "c", "d"],
                     [("a", "b", 1), ("b", "c", 2), ("c", "d", 1)])
    dist = m_distance_from(g, DEGLEX_SUM, "a")
    assert dist == [mi(0, 0), mi(1, 0), mi(1, 1), mi(2, 1)]


def test_disconnected_graph_raises_with_vertex_names():
    g = ColoredGraph(1, ["a", "b", "c"], [("a", "b", 1)])
    with pytest.raises(DisconnectedGraphError) as err:
        m_distance_from(g, LEX, "a")
    assert err.value.unreachable == "c"
    with pytest.raises(DisconnectedGraphError):
        m_distance_table(g, LEX)


def test_cycle_distances_match_arc_length():
    for n in (4, 6, 9, 14):
        g = cycle(n)
        table = m_distance_table(g, DEGLEX_SUM)
        rows = label_rows(table)
        for i in range(n):
            for j in range(n):
                assert rows[i][j] == MultiIndex((cycle_distance(n, i, j),))
        assert list(table.labels) == [MultiIndex((d,))
                                      for d in range(n // 2 + 1)]


def test_complete_graph_has_two_labels():
    table = m_distance_table(complete(5), DEGLEX_SUM)
    assert [x.as_text() for x in table.labels] == ["0", "1"]


def test_table_is_symmetric_with_zero_diagonal():
    g = cell24()
    rows = label_rows(m_distance_table(g, DEGLEX_SUM))
    for i in range(g.n):
        assert rows[i][i] == mi(0, 0)
        for j in range(g.n):
            assert rows[i][j] == rows[j][i]


def test_torus_grid_distances_are_componentwise_pairs():
    g = cartesian_product([cycle(14), cycle(9)])
    assert g.n == 126 and g.m == 2
    table = m_distance_table(g, DEGLEX_SUM)
    assert len(table.labels) == 40
    assert frozenset(table.labels) == frozenset(
        MultiIndex((i, j)) for i in range(8) for j in range(5))
    rows = label_rows(table)
    origin = g.vertices.index("0,0")
    assert rows[origin][g.vertices.index("3,2")] == mi(3, 2)
    assert rows[origin][g.vertices.index("13,8")] == mi(1, 1)
    # the product distance never depends on the tie-breaking order
    for od in (DEGLEX_Y2, LEX):
        other = m_distance_table(g, od)
        assert label_rows(other) == label_rows(table)


def test_24_cell_realizes_two_domains():
    g = cell24()
    axis = frozenset(m_distance_table(g, DEGLEX_SUM).labels)
    diag = frozenset(m_distance_table(g, DEGLEX_Y2).labels)
    assert axis == frozenset([mi(0, 0), mi(1, 0), mi(0, 1), mi(2, 0), mi(0, 2)])
    assert diag == frozenset([mi(0, 0), mi(1, 0), mi(0, 1), mi(2, 0), mi(1, 1)])


def test_distance_profile_counts_partners_of_vertex_zero():
    table = m_distance_table(cycle(6), DEGLEX_SUM)
    assert distance_profile(table) == {mi(0): 1, mi(1): 2, mi(2): 2, mi(3): 1}


# -- Oracle comparison ----------------------------------------------------------------

def test_label_setting_matches_brute_force_on_random_graphs():
    rng = random.Random(2024)
    orders = [DEGLEX_SUM, DEGLEX_Y2, LEX, MonomialOrder.parse("wdeglex:3,1")]
    for trial in range(12):
        n = rng.randint(4, 8)
        g = random_colored_graph(rng, n, 2, extra_edges=rng.randint(1, 3))
        od = orders[trial % len(orders)]
        rows = label_rows(m_distance_table(g, od))
        for i, x in enumerate(g.vertices):
            for j, y in enumerate(g.vertices):
                expected = brute_force_distance(g, od, x, y)
                assert rows[i][j] == expected, (trial, x, y)


def test_brute_force_agreement_for_three_colors():
    rng = random.Random(5)
    for _ in range(6):
        g = random_colored_graph(rng, 6, 3, extra_edges=2)
        rows = label_rows(m_distance_table(g, DEGLEX_SUM))
        for i, x in enumerate(g.vertices):
            for j, y in enumerate(g.vertices):
                assert rows[i][j] == brute_force_distance(g, DEGLEX_SUM, x, y)


# -- Walk counts -----------------------------------------------------------------------

def test_count_walks_by_type_on_a_small_path():
    g = ColoredGraph(2, ["a", "b", "c"], [("a", "b", 1), ("b", "c", 2)])
    assert count_walks_by_type(g, "a", "b", [1]) == 1
    assert count_walks_by_type(g, "a", "c", [1, 2]) == 1
    assert count_walks_by_type(g, "a", "c", [2, 1]) == 0
    assert count_walks_by_type(g, "a", "a", [1, 1]) == 1
    assert count_walks_by_type(g, "a", "a", []) == 1


def test_count_walks_by_type_on_a_cycle():
    g = cycle(4)
    assert count_walks_by_type(g, "0", "0", [1, 1]) == 2
    assert count_walks_by_type(g, "0", "2", [1, 1]) == 2
    assert count_walks_by_type(g, "0", "1", [1, 1]) == 0


def test_count_walks_by_type_does_not_overflow():
    # Walks of length L between distinct vertices of K_n number
    # ((n-1)^L - (-1)^L) / n; for n=20, L=16 that exceeds 2^63.
    n, length = 20, 16
    g = complete(n)
    expected = ((n - 1) ** length - (-1) ** length) // n
    assert expected > 2 ** 63
    assert count_walks_by_type(g, g.vertices[0], g.vertices[1],
                               [1] * length) == expected


# -- Edge-step precedence ----------------------------------------------------------------

def test_precompat_graph_on_the_24_cell():
    g = cell24()
    # diagonal labeling: the step d(x,y)=(0,1) -> d(x,z)=(1,1) along a
    # color-2 edge forces (1,1) below (0,2), so alpha must equal 1
    for text in ("ab:1,0", "ab:1,1/2", "ab:1,9/10"):
        assert check_precompat_graph(g, DEGLEX_Y2, PartialOrder.parse(text)).passed
    cert = check_precompat_graph(g, DEGLEX_Y2, PartialOrder.parse("ab:1/2,0"))
    assert not cert.passed
    assert cert.witness["d_xz"] == "1,1" and cert.witness["bound"] == "0,2"
    # at alpha=0 an antipodal step trips first: (2,0) not below (1,2)
    for text in ("ab:0,0", "componentwise"):
        cert = check_precompat_graph(g, DEGLEX_Y2, PartialOrder.parse(text))
        assert not cert.passed, text
        assert cert.witness["d_xz"] == "2,0" and cert.witness["bound"] == "1,2"
    # axis labeling: d(x,y)=(1,0) -> d(x,z)=(0,2) along a color-2 edge
    # needs (0,2) below (1,1), which requires beta >= 1: no admissible
    # parameter makes the axis domain edge-compatible
    for text in ("ab:1,0", "ab:1/2,0", "ab:2/3,1/2", "componentwise"):
        cert = check_precompat_graph(g, DEGLEX_SUM, PartialOrder.parse(text))
        assert not cert.passed, text
        w = cert.witness
        assert not PartialOrder.parse(text).leq(
            MultiIndex.parse(w["d_xz"]), MultiIndex.parse(w["bound"]))


def test_precompat_graph_componentwise_on_cycles():
    p = PartialOrder.componentwise()
    assert check_precompat_graph(cycle(7), DEGLEX_SUM, p).passed

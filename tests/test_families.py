"""Built-in graph and scheme families."""

from fractions import Fraction

import numpy as np
import pytest

from mdrg import (
    MonomialOrder,
    MultiIndex,
    SchemeClasses,
    cartesian_product,
    cell24,
    complete,
    cycle,
    gen24cell,
    hamming_graph,
    mdrg_check,
    pauli_scheme4,
    symmetrize,
    verify_scheme_axioms,
)

from mdrg.serialize import tensor_to_dict

from helpers import (AXIS_LABELING, DIAGONAL_LABELING, adjacency, color_matrix,
                     is_connected)

F = Fraction
mi = MultiIndex
DEGLEX_SUM = MonomialOrder.parse("deglex-sum")
DEGLEX_Y2 = MonomialOrder.parse("deglex-y2")


def test_cycle_and_complete_structure():
    g = cycle(6)
    assert g.n == 6 and g.m == 1 and len(g.edges) == 6
    assert len(adjacency(g)[0]) == 2
    assert is_connected(g)
    with pytest.raises(ValueError):
        cycle(2)
    k = complete(5)
    assert k.n == 5 and len(k.edges) == 10
    assert len(adjacency(k)[2]) == 4
    with pytest.raises(ValueError):
        complete(1)


def test_hamming_structure():
    h = hamming_graph(3, 2)
    assert h.n == 8 and len(h.edges) == 12
    assert set(h.vertices) == {"".join(bits) for bits in
                               __import__("itertools").product("01", repeat=3)}
    assert len(hamming_graph(2, 3).edges) == 18
    with pytest.raises(ValueError):
        hamming_graph(0, 2)
    with pytest.raises(ValueError):
        hamming_graph(1, 1)


def test_cartesian_product_structure():
    g = cartesian_product([cycle(4), complete(3)])
    assert g.m == 2 and g.n == 12
    assert "0,0" in g.vertices and "3,2" in g.vertices
    x = g.vertices.index("1,2")
    by_color = {}
    for nbr, color in adjacency(g)[x]:
        by_color.setdefault(color, []).append(nbr)
    assert len(by_color[1]) == 2  # cycle block
    assert len(by_color[2]) == 2  # complete block, shifted color
    triple = cartesian_product([cycle(3), cycle(3), complete(2)])
    assert triple.m == 3 and triple.n == 18
    with pytest.raises(ValueError):
        cartesian_product([])


def test_cell24_structure():
    g = cell24()
    assert g.n == 24 and g.m == 2
    assert len(g.edges) == 168
    assert is_connected(g)
    for nbrs in adjacency(g):
        colors = [c for _, c in nbrs]
        assert colors.count(1) == 6 and colors.count(2) == 8
    for name in g.vertices:
        coords = [int(part) for part in name.split(",")]
        assert sorted(abs(c) for c in coords) == [0, 0, 1, 1]


def test_symmetrize_pauli_matches_hamming():
    s2 = symmetrize(pauli_scheme4(), 2)
    assert s2.n == 16
    assert verify_scheme_axioms(s2).passed
    labels = set(s2.labels)
    assert labels == {mi((0, 0)), mi((1, 0)), mi((0, 1)), mi((2, 0)),
                      mi((1, 1)), mi((0, 2))}
    matrix = dict(zip(s2.labels, s2.matrices))
    row0 = {lab: int(matrix[lab][0].sum()) for lab in labels}
    assert row0 == {mi((0, 0)): 1, mi((1, 0)): 4, mi((0, 1)): 2,
                    mi((2, 0)): 4, mi((1, 1)): 4, mi((0, 2)): 1}
    union = matrix[mi((1, 0))] + matrix[mi((0, 1))]
    h = hamming_graph(2, 4)
    assert list(h.vertices) == list(s2.vertices)
    assert np.array_equal(union, color_matrix(h, 1))


def test_symmetrize_cube_of_one_class_base():
    base = SchemeClasses(
        labels=["I", "J-I"],
        matrices=[np.eye(2, dtype=np.int64),
                  np.array([[0, 1], [1, 0]], dtype=np.int64)])
    s3 = symmetrize(base, 3)
    assert s3.n == 8
    assert sorted(s3.labels) == [mi((0,)), mi((1,)), mi((2,)), mi((3,))]
    assert np.array_equal(s3.matrices[s3.labels.index(mi((1,)))],
                          color_matrix(hamming_graph(3, 2), 1))
    assert verify_scheme_axioms(s3).passed


def test_symmetrize_errors():
    with pytest.raises(ValueError):
        symmetrize(pauli_scheme4(), 0)
    no_identity = SchemeClasses(labels=["J"],
                                matrices=[np.ones((2, 2), dtype=np.int64)])
    with pytest.raises(ValueError):
        symmetrize(no_identity, 2)


def test_gen24cell_reproduces_the_24_cell():
    t = gen24cell(2, F(1, 2))
    assert t.labels == ("A0", "A1", "A2", "A3", "A4")
    assert t.identity == "A0"
    assert t.validate(strict_integral=True).passed
    assert t.valency("A1") == 8 and t.valency("A2") == 6
    assert t.valency("A3") == 8 and t.valency("A4") == 1
    assert t.get("A1", "A1", "A1") == 3   # up
    assert t.get("A1", "A3", "A1") == 1   # down
    assert t.get("A1", "A1", "A2") == 4   # half
    assert t.get("A2", "A2", "A2") == 4   # mid
    assert t.get("A2", "A1", "A1") == 3   # k2/2

    # label tuples come out in different orders, so compare canonically
    axis = mdrg_check(cell24(), DEGLEX_SUM).tensor
    diag = mdrg_check(cell24(), DEGLEX_Y2).tensor
    assert tensor_to_dict(AXIS_LABELING.apply(t)) == tensor_to_dict(axis)
    assert tensor_to_dict(DIAGONAL_LABELING.apply(t)) == tensor_to_dict(diag)


def test_gen24cell_accepts_fraction_text():
    assert gen24cell("2", "1/2") == gen24cell(2, F(1, 2))


def test_gen24cell_formal_fractional_case():
    t = gen24cell(3, F(3, 4))
    assert t.get("A1", "A1", "A2") == F(27, 2)
    assert t.validate().passed
    strict = t.validate(strict_integral=True)
    assert not strict.passed
    assert {c.name for c in strict.checks if not c.passed} == {"integrality"}


def test_gen24cell_row_sums_hold_formally():
    for ell, s in ((2, F(1, 2)), (3, F(1, 2)), (2, F(3, 4)), (4, F(5, 4))):
        assert gen24cell(ell, s).validate().passed


def test_gen24cell_rejects_bad_parameters():
    # these only screen the necessary conditions: a negative number or a
    # nonpositive valency
    for ell, s in ((2, F(1, 8)), (2, F(1, 4)), (2, F(1, 5))):
        with pytest.raises(ValueError, match="admissible"):
            gen24cell(ell, s)

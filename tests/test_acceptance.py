"""End-to-end acceptance run: six criteria, one test and verdict line each.

Every numeric comparison in this file is exact (Fraction or integer
equality, tolerance zero).  Criteria 1-3 carry wall-clock budgets which
are asserted, with generous slack against machine noise left to the
budget values themselves.
"""

import itertools
import json
import random
import time
from fractions import Fraction as F

import numpy as np
from mdrg import (
    ColoredGraph,
    cell24,
    MonomialOrder,
    MultiIndex,
    PartialOrder,
    ab_region_for_scheme,
    cartesian_product,
    certify_ppoly,
    certify_ppoly_refined,
    complete,
    cycle,
    discover_labelings,
    distance_matrices,
    extract_polynomials,
    gen24cell,
    hamming_graph,
    m_distance_table,
    mdrg_check,
    pauli_scheme4,
    symmetrize,
    verify_recurrences,
    verify_scheme_axioms,
)
from mdrg.cli import main
from mdrg.serialize import tensor_to_dict

from helpers import (
    AXIS_LABELING,
    Comparison,
    DIAGONAL_LABELING,
    brute_force_distance,
    check_additive_nonvanishing,
    check_sum_decomposition,
    check_triangle_conditions,
    check_walk_type_invariance,
    closed_form_v02,
    closed_form_v11,
    closed_form_v20,
    color_matrix,
    cycle_intersection_numbers,
    label_rows,
    random_colored_graph,
    validate_monomial_order,
)

mi = MultiIndex
DEGLEX_SUM = MonomialOrder.parse("deglex-sum")
DEGLEX_Y2 = MonomialOrder.parse("deglex-y2")
LEX = MonomialOrder.parse("lex")


def verdict(n, text):
    print("criterion %d: PASS (%s)" % (n, text))


def test_criterion_1_cell24_end_to_end(tmp_path, capsys):
    started = time.monotonic()
    graph_file = tmp_path / "cell24.json"
    assert main(["generate", "cell24", "--out", str(graph_file)]) == 0
    code = main(["certify-mdrg", str(graph_file), "--order", "deglex-sum"])
    out, _ = capsys.readouterr()
    assert code == 0
    report = json.loads(out)
    assert report["certificates"]["mdrg"]["verdict"] == "pass"
    assert report["results"]["classes"] == ["0,0", "0,1", "0,2", "1,0", "2,0"]
    assert report["results"]["valencies"] == {
        "0,0": "1", "1,0": "6", "0,1": "8", "0,2": "8", "2,0": "1"}

    result = mdrg_check(cell24(), DEGLEX_SUM)
    assert result.certificate.passed
    expected = AXIS_LABELING.apply(gen24cell(2, F(1, 2)))
    assert tensor_to_dict(result.tensor) == tensor_to_dict(expected)

    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    verdict(1, "24-cell certified, tensor matches gen24cell(2,1/2), "
               "%.2fs" % elapsed)



def test_criterion_2_cycle_product():
    started = time.monotonic()
    g = cartesian_product([cycle(14), cycle(9)])
    tensor = None
    for order in (DEGLEX_SUM, DEGLEX_Y2, LEX):
        result = mdrg_check(g, order)
        assert result.certificate.passed, order.as_text()
        assert len(distance_matrices(result.table).labels) == 40
        tensor = result.tensor

    p14 = cycle_intersection_numbers(14)
    p9 = cycle_intersection_numbers(9)
    labels = sorted(tensor.domain())
    rng = random.Random(4107)
    for _ in range(25):
        a, b, c = (rng.choice(labels) for _ in range(3))
        want = F(p14.get((a[0], b[0], c[0]), 0)) * p9.get((a[1], b[1], c[1]), 0)
        assert tensor.get(a, b, c) == want, (a, b, c)

    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    verdict(2, "C14 x C9 2-distance-regular under 3 orders, 25 product "
               "identities exact, %.2fs" % elapsed)


def test_criterion_3_symmetrization():
    started = time.monotonic()
    for k in (2, 3):
        s = symmetrize(pauli_scheme4(), k)
        assert verify_scheme_axioms(s).passed

        units = [s.matrices[s.labels.index(mi((1, 0)))],
                 s.matrices[s.labels.index(mi((0, 1)))]]
        h = hamming_graph(k, 4)
        assert list(s.vertices) == list(h.vertices)
        assert np.array_equal(units[0] + units[1], color_matrix(h, 1))

        edges = []
        for color, mat in enumerate(units, start=1):
            for x, y in np.argwhere(np.triu(mat, 1) == 1):
                edges.append((s.vertices[x], s.vertices[y], color))
        result = mdrg_check(ColoredGraph(2, list(s.vertices), edges),
                            DEGLEX_SUM)
        assert result.certificate.passed, k
        assert (sorted(m.tobytes()
                       for m in distance_matrices(result.table).matrices)
                == sorted(m.tobytes() for m in s.matrices))

    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    verdict(3, "symmetrized Pauli schemes match H(2,4)/H(3,4) and certify, "
               "%.2fs" % elapsed)


def test_criterion_4_gen24cell_family():
    partial_10 = PartialOrder.parse("ab:1,0")
    for ell, s in itertools.product((2, 3), (F(1, 2), F(3, 4))):
        t = gen24cell(ell, s)
        diag = DIAGONAL_LABELING.apply(t)
        axis = AXIS_LABELING.apply(t)

        assert certify_ppoly(diag, DEGLEX_Y2).passed
        assert certify_ppoly_refined(diag, DEGLEX_Y2, partial_10).passed

        cert = certify_ppoly(axis, DEGLEX_Y2)
        assert not cert.passed
        assert cert.witness["generator"] == "1,0"
        assert {cert.witness["a"], cert.witness["b"]} == {"0,1", "0,2"}

        assert certify_ppoly(axis, DEGLEX_SUM).passed

        axis_polys, _ = extract_polynomials(axis, DEGLEX_SUM)
        diag_polys, _ = extract_polynomials(diag, DEGLEX_Y2)
        fell = F(ell)
        assert axis_polys[mi((2, 0))] == closed_form_v20(fell, s)
        assert axis_polys[mi((0, 2))] == closed_form_v02(fell, s)
        assert diag_polys[mi((1, 1))] == closed_form_v11(fell, s)
        assert diag_polys[mi((2, 0))] == closed_form_v20(fell, s)

        assert (ab_region_for_scheme(axis).as_text()
                == "alpha in [1/2, 1), beta in [0, 1)")
        assert (ab_region_for_scheme(diag).as_text()
                == "alpha in [0, 1], beta in [0, 1)")
    verdict(4, "gen24cell grid: certificates, closed-form polynomials and "
               "parameter regions all exact")


def test_criterion_5_univariate_regression():
    expected = {
        "C6": {mi((2,)): {mi((2,)): F(1), mi((0,)): F(-2)},
               mi((3,)): {mi((3,)): F(1, 2), mi((1,)): F(-3, 2)}},
        "K5": {mi((1,)): {mi((1,)): F(1)}},
        "H(3,2)": {mi((2,)): {mi((2,)): F(1, 2), mi((0,)): F(-3, 2)},
                   mi((3,)): {mi((3,)): F(1, 6), mi((1,)): F(-7, 6)}},
    }
    graphs = {"C6": cycle(6), "K5": complete(5), "H(3,2)": hamming_graph(3, 2)}
    for name, g in graphs.items():
        result = mdrg_check(g, DEGLEX_SUM)
        assert result.certificate.passed, name
        polys, cert = extract_polynomials(result.tensor, DEGLEX_SUM)
        assert cert.passed
        for index, poly in expected[name].items():
            assert polys[index] == poly, (name, index)
        assert verify_recurrences(polys, result.tensor).passed, name

    scheme = distance_matrices(mdrg_check(cell24(), DEGLEX_SUM).table)
    assert discover_labelings(scheme, 1, DEGLEX_SUM) == []
    verdict(5, "C6/K5/H(3,2) distance-regular with exact polynomials and "
               "recurrences; no univariate structure on the 24-cell")


def test_criterion_6_property_suites():
    # (i) order axioms over the box [0,4]^m, plus a seeded bad comparator
    for text, m in (("deglex-sum", 1), ("deglex-sum", 2), ("deglex-sum", 3),
                    ("deglex-y2", 2), ("lex", 2), ("wdeglex:2,3", 2)):
        assert validate_monomial_order(MonomialOrder.parse(text), m, 4).passed

    rng = random.Random(13)
    priorities = {}

    def broken(a, b):
        for point in (a, b):
            if point not in priorities:
                priorities[point] = rng.random()
        if a == b:
            return Comparison.EQUAL
        return (Comparison.LESS if priorities[a] < priorities[b]
                else Comparison.GREATER)

    cert = validate_monomial_order(broken, 2, 4)
    assert not cert.passed
    failing = {c.name for c in cert.checks if not c.passed}
    assert "translation" in failing

    # (ii) structural consequences on every certified pass
    cases = [
        (cell24(), DEGLEX_SUM),
        (cell24(), DEGLEX_Y2),
        (cartesian_product([cycle(6), cycle(4)]), DEGLEX_Y2),
        (cartesian_product([cycle(14), cycle(9)]), DEGLEX_SUM),
        (hamming_graph(3, 2), DEGLEX_SUM),
    ]
    walk_rng = random.Random(5)
    for g, order in cases:
        result = mdrg_check(g, order)
        assert result.certificate.passed
        assert check_triangle_conditions(result.tensor, order).passed
        assert check_additive_nonvanishing(result.tensor).passed
        assert check_sum_decomposition(result.table, result.tensor).passed
        assert check_walk_type_invariance(g, walk_rng, samples=25).passed

    # (iii) label-setting search vs simple-path enumeration
    graph_rng = random.Random(20260825)
    orders_m2 = [DEGLEX_SUM, DEGLEX_Y2, LEX]
    for trial in range(50):
        n = graph_rng.randint(3, 10)
        m = graph_rng.randint(1, 3)
        g = random_colored_graph(graph_rng, n, m)
        order = graph_rng.choice(orders_m2) if m == 2 else DEGLEX_SUM
        rows = label_rows(m_distance_table(g, order))
        for i, x in enumerate(g.vertices):
            for j, y in enumerate(g.vertices):
                assert (rows[i][j]
                        == brute_force_distance(g, order, x, y)), trial
    verdict(6, "order validators, structural consequences and 50-graph "
               "distance oracle all agree")

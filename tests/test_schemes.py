"""Association scheme core: axioms, tensors, bases, regularity."""

import random
from fractions import Fraction

import numpy as np
import pytest

from mdrg import (
    ColoredGraph,
    IntersectionTensor,
    MonomialBasis,
    MonomialOrder,
    MultiIndex,
    SchemeClasses,
    boundary_check,
    cartesian_product,
    cell24,
    check_additive_nonvanishing,
    check_sum_decomposition,
    check_triangle_conditions,
    check_walk_type_invariance,
    cycle,
    distance_matrices,
    extract_polynomials,
    generator_rows,
    hamming_graph,
    intersection_tensor,
    m_distance_table,
    mat_vec,
    mdrg_check,
    monomial_coeffs,
    pauli_scheme4,
    verify_scheme_axioms,
)

from helpers import cycle_intersection_numbers, regular_representation

DEGLEX_SUM = MonomialOrder.parse("deglex-sum")

mi = MultiIndex


def cycle_tensor(n):
    table = m_distance_table(cycle(n), DEGLEX_SUM)
    return intersection_tensor(distance_matrices(table))


def test_scheme_classes_validation():
    eye = np.eye(3, dtype=np.int64)
    with pytest.raises(ValueError):
        SchemeClasses(labels=[], matrices=[])
    with pytest.raises(ValueError):
        SchemeClasses(labels=["a"], matrices=[np.ones((2, 3), dtype=np.int64)])
    with pytest.raises(ValueError):
        SchemeClasses(labels=["a"], matrices=[2 * eye])
    with pytest.raises(ValueError):
        SchemeClasses(labels=["a", "b"], matrices=[eye])
    with pytest.raises(ValueError):
        SchemeClasses(labels=["a", "a"], matrices=[eye, eye])
    with pytest.raises(ValueError):
        SchemeClasses(labels=["a"], matrices=[eye], vertices=["x", "x", "y"])

    s = pauli_scheme4()
    assert s.n == 4
    assert s.identity_index() == 0
    assert s.matrix_for("A2")[0, 3] == 1
    with pytest.raises(KeyError):
        s.matrix_for("A9")
    idx = s.class_index_matrix()
    assert idx[0, 0] == 0 and idx[0, 1] == 1 and idx[0, 3] == 2


def test_scheme_classes_reject_empty_class():
    eye = np.eye(2, dtype=np.int64)
    flip = np.array([[0, 1], [1, 0]], dtype=np.int64)
    with pytest.raises(ValueError, match="all zero"):
        SchemeClasses(labels=["o", "a", "z"],
                      matrices=[eye, flip, np.zeros((2, 2), dtype=np.int64)])


def test_class_index_matrix_rejects_bad_partitions():
    eye = np.eye(2, dtype=np.int64)
    ones = np.ones((2, 2), dtype=np.int64)
    overlapping = SchemeClasses(labels=["a", "b"], matrices=[eye, ones])
    with pytest.raises(ValueError):
        overlapping.class_index_matrix()
    gappy = SchemeClasses(labels=["a"], matrices=[eye])
    with pytest.raises(ValueError):
        gappy.class_index_matrix()


def test_axioms_pass():
    for s in (pauli_scheme4(),
              distance_matrices(m_distance_table(cycle(6), DEGLEX_SUM)),
              distance_matrices(m_distance_table(
                  cartesian_product([cycle(6), cycle(4)]),
                  MonomialOrder.parse("deglex-y2")))):
        cert = verify_scheme_axioms(s)
        assert cert.passed
        assert [c.name for c in cert.checks] == [
            "identity-class", "symmetry", "partition", "closure"]


def test_axioms_fail_no_identity():
    ones = np.ones((2, 2), dtype=np.int64)
    cert = verify_scheme_axioms(SchemeClasses(labels=["a"], matrices=[ones]))
    assert not cert.passed
    by_name = {c.name: c for c in cert.checks}
    assert not by_name["identity-class"].passed
    assert by_name["partition"].passed
    assert not by_name["closure"].passed  # skipped counts as failed


def test_axioms_fail_symmetry_and_partition():
    eye = np.eye(2, dtype=np.int64)
    upper = np.array([[0, 1], [0, 0]], dtype=np.int64)
    lower = upper.T
    cert = verify_scheme_axioms(
        SchemeClasses(labels=["o", "u", "l"], matrices=[eye, upper, lower]))
    by_name = {c.name: c for c in cert.checks}
    assert not by_name["symmetry"].passed
    assert by_name["symmetry"].witness["label"] == "u"
    assert by_name["partition"].passed

    cert = verify_scheme_axioms(
        SchemeClasses(labels=["o", "o2"], matrices=[eye, eye]))
    by_name = {c.name: c for c in cert.checks}
    assert not by_name["partition"].passed
    assert by_name["partition"].witness["coverage"] in (0, 2)


def test_axioms_fail_closure_on_path():
    # distance classes of the path a-b-c: products are not constant
    eye = np.eye(3, dtype=np.int64)
    adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.int64)
    far = np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=np.int64)
    s = SchemeClasses(labels=["A0", "A1", "A2"], matrices=[eye, adj, far],
                      vertices=["a", "b", "c"])
    cert = verify_scheme_axioms(s)
    by_name = {c.name: c for c in cert.checks}
    assert by_name["identity-class"].passed
    assert by_name["partition"].passed
    assert not by_name["closure"].passed
    w = by_name["closure"].witness
    assert w["count"] != w["count_ref"]
    with pytest.raises(ValueError):
        intersection_tensor(s)


def test_cycle_tensor_matches_arc_count_oracle():
    for n in (5, 6, 9, 12):
        t = cycle_tensor(n)
        oracle = cycle_intersection_numbers(n)
        diam = n // 2
        assert sorted(t.labels) == [mi((d,)) for d in range(diam + 1)]
        for a in range(diam + 1):
            for b in range(diam + 1):
                for c in range(diam + 1):
                    assert t.get(mi((a,)), mi((b,)), mi((c,))) == \
                        oracle.get((a, b, c), 0), (n, a, b, c)


def test_hamming_cube_tensor_frozen():
    table = m_distance_table(hamming_graph(3, 2), DEGLEX_SUM)
    t = intersection_tensor(distance_matrices(table))
    assert t.valency(mi((1,))) == 3
    # A1^2 = 3 A0 + 2 A2 in the cube
    assert t.get(mi((1,)), mi((1,)), mi((0,))) == 3
    assert t.get(mi((1,)), mi((1,)), mi((1,))) == 0
    assert t.get(mi((1,)), mi((1,)), mi((2,))) == 2
    assert t.get(mi((2,)), mi((1,)), mi((3,))) == 3
    assert t.get(mi((1,)), mi((2,)), mi((3,))) == 3
    assert t.get(mi((3,)), mi((3,)), mi((0,))) == 1
    cert = t.validate(strict_integral=True)
    assert cert.passed
    assert [c.name for c in cert.checks] == [
        "nonnegative", "identity-rule", "commutativity", "row-sums",
        "integrality"]


def test_tensor_constructor_and_accessors():
    t = cycle_tensor(6)
    assert t.labels_are_multiindex
    assert t.m == 1
    assert t.domain() == frozenset(mi((d,)) for d in range(4))
    assert t.valency(mi((1,))) == 2
    assert t.valency(mi((3,))) == 1
    assert t.get(mi((1,)), mi((1,)), mi((5,))) == 0
    with pytest.raises(ValueError):
        IntersectionTensor(labels=(mi((0,)),), identity=mi((1,)), p={})
    with pytest.raises(ValueError):
        IntersectionTensor(labels=(mi((0,)), mi((0,))), identity=mi((0,)), p={})


def test_tensor_validate_catches_tampering():
    base = cycle_tensor(6)

    def tampered(**changes):
        p = dict(base.p)
        for key, value in changes.items():
            a, b, c = key.split("_")
            triple = (mi((int(a),)), mi((int(b),)), mi((int(c),)))
            if value is None:
                p.pop(triple, None)
            else:
                p[triple] = Fraction(value)
        return IntersectionTensor(labels=base.labels, identity=base.identity, p=p)

    cert = tampered(**{"1_1_0": -2}).validate()
    assert not cert.passed
    assert "nonnegative" in {c.name for c in cert.checks if not c.passed}

    cert = tampered(**{"0_1_2": 1}).validate()
    by_name = {c.name: c for c in cert.checks}
    assert not by_name["identity-rule"].passed

    cert = tampered(**{"1_2_3": 7}).validate()
    by_name = {c.name: c for c in cert.checks}
    assert not by_name["commutativity"].passed

    cert = tampered(**{"1_1_2": None}).validate()
    by_name = {c.name: c for c in cert.checks}
    assert not by_name["row-sums"].passed

    # a formal tensor with fractional entries passes the default checks
    # but not the strict integral ones
    o, u = mi((0,)), mi((1,))
    formal = IntersectionTensor(
        labels=(o, u), identity=o,
        p={(o, o, o): Fraction(1), (o, u, u): Fraction(1),
           (u, o, u): Fraction(1), (u, u, o): Fraction(3, 2),
           (u, u, u): Fraction(1, 2)})
    assert formal.validate().passed
    strict = formal.validate(strict_integral=True)
    assert not strict.passed
    assert {c.name for c in strict.checks if not c.passed} == {"integrality"}


def test_tensor_relabel():
    t = cycle_tensor(5)
    mapping = {mi((0,)): "B0", mi((1,)): "B1", mi((2,)): "B2"}
    r = t.relabel(mapping)
    assert r.identity == "B0"
    assert not r.labels_are_multiindex
    with pytest.raises(ValueError):
        r.m
    assert r.get("B1", "B1", "B2") == t.get(mi((1,)), mi((1,)), mi((2,)))
    back = r.relabel({"B0": mi((0,)), "B1": mi((1,)), "B2": mi((2,))})
    assert back == t
    with pytest.raises(ValueError):
        t.relabel({mi((0,)): "B0"})
    with pytest.raises(ValueError):
        t.relabel({mi((0,)): "B", mi((1,)): "B", mi((2,)): "C"})


def test_generator_rows_contract():
    t = cycle_tensor(6)
    rows = generator_rows(t)
    g = mi((1,))
    for b in t.labels:
        assert dict(rows.get((g, b), [])) == {
            c: t.get(g, b, c) for c in t.labels if t.get(g, b, c) != 0}
    # applying A_1 to a class vector agrees with the dense matrix
    basis = MonomialBasis(t)
    index = {lab: i for i, lab in enumerate(t.labels)}
    unit = [0] * len(t.labels)
    unit[index[mi((1,))]] = 1
    image = basis.apply(g, unit)
    assert image == mat_vec(regular_representation(t)[g], unit)
    assert image[index[mi((0,))]] == 2
    assert image[index[mi((2,))]] == 1
    assert image[index[mi((1,))]] == 0

    with pytest.raises(ValueError):
        generator_rows(IntersectionTensor(labels=(mi((0,)),), identity=mi((0,)),
                                          p={(mi((0,)), mi((0,)), mi((0,))): 1}))
    opaque = t.relabel({mi((0,)): "B0", mi((1,)): "B1", mi((2,)): "B2",
                        mi((3,)): "B3"})
    with pytest.raises(ValueError):
        generator_rows(opaque)


def test_monomial_basis_rejects_non_commuting_generators():
    # Two generators on a formal tensor whose left-multiplication
    # matrices do not commute.
    o, x, y, z = mi((0, 0)), mi((1, 0)), mi((0, 1)), mi((1, 1))
    p = {(o, c, c): 1 for c in (o, x, y, z)}
    p.update({(x, o, x): 1, (x, x, o): 1, (x, y, z): 1, (x, z, y): 1,
              (y, o, y): 1, (y, y, o): 1, (y, x, x): 1, (y, z, z): 1})
    t = IntersectionTensor(labels=(o, x, y, z), identity=o, p=p)
    with pytest.raises(ValueError, match="do not commute at 1,1"):
        MonomialBasis(t).vector(z)
    with pytest.raises(ValueError, match="do not commute"):
        boundary_check(t, order=DEGLEX_SUM)
    with pytest.raises(ValueError, match="do not commute"):
        extract_polynomials(t, order=DEGLEX_SUM)


def test_monomial_basis_against_matrix_products():
    result = mdrg_check(cell24(), DEGLEX_SUM)
    assert result.certificate.passed
    t, scheme = result.tensor, result.scheme
    basis = MonomialBasis(t)
    index = {lab: i for i, lab in enumerate(scheme.labels)}
    rep_pair = [tuple(np.argwhere(mat == 1)[0]) for mat in scheme.matrices]
    a1 = scheme.matrix_for(mi((1, 0))).astype(np.int64)
    a2 = scheme.matrix_for(mi((0, 1))).astype(np.int64)
    for a in (mi((0, 0)), mi((1, 0)), mi((0, 1)), mi((2, 0)), mi((0, 2)),
              mi((1, 1)), mi((2, 1)), mi((2, 2))):
        product = np.linalg.matrix_power(a1, a[0]) @ np.linalg.matrix_power(a2, a[1])
        vec = basis.vector(a)
        for lab in scheme.labels:
            x, y = rep_pair[index[lab]]
            assert vec[index[lab]] == int(product[x, y]), (a, lab)
    assert monomial_coeffs(t, mi((0, 2))) == basis.vector(mi((0, 2)))
    with pytest.raises(ValueError):
        basis.vector(mi((1, 2, 0)))


def test_mdrg_check_torus_valencies():
    g = cartesian_product([cycle(6), cycle(4)])
    result = mdrg_check(g, MonomialOrder.parse("deglex-y2"))
    assert result.certificate.passed
    t = result.tensor
    assert len(t.labels) == 12
    for (a, b), k in {(1, 0): 2, (0, 1): 2, (3, 0): 1, (0, 2): 1,
                      (1, 1): 4, (3, 2): 1, (2, 1): 4}.items():
        assert t.valency(mi((a, b))) == k


def test_mdrg_check_fails_on_unused_color():
    g = ColoredGraph(m=2, vertices=["a", "b"], edges=[("a", "b", 1)])
    result = mdrg_check(g, DEGLEX_SUM)
    assert not result.certificate.passed
    check = result.certificate.checks[0]
    assert check.name == "colors-realized"
    assert check.witness["color"] == 2
    assert result.tensor is None and result.scheme is None


def test_mdrg_check_fails_on_irregular_coloring():
    edges = [("0", "1", 1), ("1", "2", 2), ("2", "3", 1), ("3", "4", 2),
             ("4", "0", 1)]
    g = ColoredGraph(m=2, vertices=[str(i) for i in range(5)], edges=edges)
    result = mdrg_check(g, DEGLEX_SUM)
    assert not result.certificate.passed
    by_name = {c.name: c for c in result.certificate.checks}
    assert by_name["colors-realized"].passed
    w = by_name["regular-counts"].witness
    assert w["count"] != w["count_ref"]
    assert result.tensor is None


def test_structural_consequences_on_24_cell():
    g = cell24()
    result = mdrg_check(g, DEGLEX_SUM)
    t, table = result.tensor, result.table
    assert check_triangle_conditions(t, DEGLEX_SUM).passed
    assert check_additive_nonvanishing(t).passed
    assert check_sum_decomposition(table, t).passed
    assert check_walk_type_invariance(g, random.Random(5)).passed


def test_triangle_violation_detected():
    labels = (mi((0,)), mi((1,)), mi((3,)))
    p = {(mi((0,)), mi((0,)), mi((0,))): Fraction(1),
         (mi((1,)), mi((1,)), mi((3,))): Fraction(2)}
    t = IntersectionTensor(labels=labels, identity=mi((0,)), p=p)
    cert = check_triangle_conditions(t, DEGLEX_SUM)
    assert not cert.passed
    assert cert.checks[0].witness["violated"] == "c<=a+b"


def test_additive_nonvanishing_violation_detected():
    labels = (mi((0,)), mi((1,)), mi((2,)))
    p = {(mi((0,)), mi((0,)), mi((0,))): Fraction(1),
         (mi((1,)), mi((1,)), mi((0,))): Fraction(2)}
    for a in (mi((1,)), mi((2,))):
        p[(mi((0,)), a, a)] = Fraction(1)
        p[(a, mi((0,)), a)] = Fraction(1)
    t = IntersectionTensor(labels=labels, identity=mi((0,)), p=p)
    cert = check_additive_nonvanishing(t)
    assert not cert.passed
    assert cert.checks[0].witness["sum"] == "2"


def test_sum_decomposition_violation_detected():
    table = m_distance_table(cycle(6), DEGLEX_SUM)
    t = cycle_tensor(6)
    p = dict(t.p)
    del p[(mi((1,)), mi((1,)), mi((2,)))]
    broken = IntersectionTensor(labels=t.labels, identity=t.identity, p=p)
    cert = check_sum_decomposition(table, broken)
    assert not cert.passed
    assert cert.checks[0].witness["count"] == 0


def test_walk_type_invariance_fails_on_ordered_colors():
    g = ColoredGraph(m=2, vertices=["a", "b", "c"],
                     edges=[("a", "b", 1), ("b", "c", 2)])
    cert = check_walk_type_invariance(g, random.Random(11), samples=200)
    assert not cert.passed
    w = cert.checks[0].witness
    assert len(set(w["counts"])) > 1

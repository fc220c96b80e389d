"""Association scheme core: axioms, tensors, generator rows, regularity."""

import functools
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdrg import schemes
from mdrg import (
    ColoredGraph,
    IntersectionTensor,
    MonomialOrder,
    MultiIndex,
    PartialOrder,
    SchemeClasses,
    boundary_check,
    cartesian_product,
    cell24,
    certify_ppoly,
    certify_ppoly_refined,
    certify_type_ab,
    cycle,
    distance_matrices,
    extract_polynomials,
    gen24cell,
    hamming_graph,
    intersection_tensor,
    m_distance_table,
    mdrg_check,
    pauli_scheme4,
    verify_recurrences,
    verify_scheme_axioms,
)

from helpers import (brute_force_validate, check_additive_nonvanishing,
                     check_sum_decomposition, check_triangle_conditions,
                     check_walk_type_invariance, cycle_intersection_numbers,
                     regular_representation, table_rows)

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
    assert s.matrices[s.labels.index("A2")][0, 3] == 1
    idx = s.index
    assert idx[0, 0] == 0 and idx[0, 1] == 1 and idx[0, 3] == 2


def test_scheme_classes_reject_empty_class():
    eye = np.eye(2, dtype=np.int64)
    flip = np.array([[0, 1], [1, 0]], dtype=np.int64)
    with pytest.raises(ValueError, match="all zero"):
        SchemeClasses(labels=["o", "a", "z"],
                      matrices=[eye, flip, np.zeros((2, 2), dtype=np.int64)])


def test_scheme_counts_are_shared_and_matrices_read_only(monkeypatch):
    calls = []
    kernel = schemes.pair_counts

    def counting(idx, k):
        calls.append(k)
        return kernel(idx, k)

    monkeypatch.setattr(schemes, "pair_counts", counting)
    s = pauli_scheme4()
    assert verify_scheme_axioms(s).passed
    assert intersection_tensor(s).valency("A1") == 2
    assert calls == [3]
    with pytest.raises(ValueError, match="read-only"):
        s.matrices[1][0, 0] = 1
    with pytest.raises(ValueError, match="read-only"):
        s.counts[0, 3] = 0
    # the matrices are copies: the caller's arrays stay writable
    eye = np.eye(2, dtype=np.int64)
    SchemeClasses(labels=["o"], matrices=[eye])
    eye[0, 0] = 1


def test_class_index_matrix_rejects_bad_partitions():
    eye = np.eye(2, dtype=np.int64)
    ones = np.ones((2, 2), dtype=np.int64)
    overlapping = SchemeClasses(labels=["a", "b"], matrices=[eye, ones])
    with pytest.raises(ValueError):
        overlapping.counts
    gappy = SchemeClasses(labels=["a"], matrices=[eye])
    with pytest.raises(ValueError):
        gappy.counts


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


@st.composite
def perturbed_tensors(draw):
    """Small tensors (cycles, the 24-cell family) with a few entries set
    to random rationals, zero or a negative value, or removed."""
    if draw(st.booleans()):
        base = cycle_tensor(draw(st.integers(3, 7)))
    else:
        base = gen24cell(draw(st.integers(2, 4)),
                         draw(st.sampled_from([Fraction(1, 2), Fraction(3, 4), 1])))
    p = dict(base.p)
    for _ in range(draw(st.integers(0, 3))):
        key = tuple(draw(st.sampled_from(base.labels)) for _ in range(3))
        if draw(st.booleans()):
            p.pop(key, None)
        else:
            p[key] = Fraction(draw(st.integers(-2, 6)), draw(st.integers(1, 3)))
    return IntersectionTensor(labels=base.labels, identity=base.identity, p=p)


@settings(max_examples=200, deadline=None)
@given(perturbed_tensors(), st.booleans())
def test_tensor_validate_matches_loop_oracle(t, strict):
    assert (t.validate(strict_integral=strict).to_dict()
            == brute_force_validate(t, strict_integral=strict).to_dict())


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


def test_tensor_validate_on_c10_cubed_is_linear():
    """C10^3 (k = 216, 140 608 entries) in closed form: p_{a,b}^c is the
    product of the cycle's numbers over the three coordinates.  A scan of
    all k^3 triples took seconds; the scans over the entries do not."""
    cyc = cycle_intersection_numbers(10)
    p = {(mi((a1, a2, a3)), mi((b1, b2, b3)), mi((c1, c2, c3))):
         Fraction(v1 * v2 * v3)
         for (a1, b1, c1), v1 in cyc.items()
         for (a2, b2, c2), v2 in cyc.items()
         for (a3, b3, c3), v3 in cyc.items()}
    labels = tuple(sorted({key[0] for key in p}))
    t = IntersectionTensor(labels=labels, identity=mi((0, 0, 0)), p=p)
    assert len(labels) == 216 and len(p) == 140608
    start = time.perf_counter()
    assert t.validate(strict_integral=True).passed
    assert time.perf_counter() - start < 4
    # one entry off: the commutativity witness takes the swap with the
    # smaller positions, and only that row sum breaks
    x, y, z = mi((2, 1, 0)), mi((1, 1, 0)), mi((1, 0, 0))
    p[(x, y, z)] += 1
    cert = IntersectionTensor(labels=labels, identity=t.identity, p=p).validate()
    by_name = {c.name: c for c in cert.checks}
    assert [c.name for c in cert.checks if not c.passed] == [
        "commutativity", "row-sums"]
    assert by_name["commutativity"].witness == {
        "a": "1,1,0", "b": "2,1,0", "c": "1,0,0", "p_ab": "2", "p_ba": "3"}
    assert by_name["row-sums"].witness == {
        "a": "2,1,0", "c": "1,0,0", "row_sum": "5", "valency": "4"}


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
    """The rows the step checks read are the products A_{e_i} A_a, each a
    slice of the tensor's arrays, read in label order of the class."""
    t = cycle_tensor(6)
    rows = table_rows(t)
    g = mi((1,))
    for b in t.labels:
        assert dict(rows.get((g, b), [])) == {
            c: t.get(g, b, c) for c in t.labels if t.get(g, b, c) != 0}
    # the row of A_1 A_1 is the column of A_1 in the dense matrix of A_1
    index = {lab: i for i, lab in enumerate(t.labels)}
    dense = regular_representation(t)[g]
    assert rows[g, g] == {mi((0,)): 2, mi((2,)): 1}
    assert rows[g, g] == {c: dense[index[c]][index[g]] for c in t.labels
                          if dense[index[c]][index[g]]}
    # class positions out of label order: each row still reads in label order
    backwards = IntersectionTensor(labels=t.labels[::-1], identity=t.identity, p=dict(t.p))
    assert backwards.steps.order.tolist() == [3, 2, 1, 0]
    assert all(list(row) == sorted(row) for row in table_rows(backwards).values())
    assert table_rows(backwards) == rows
    # a missing generator has no rows
    lone = IntersectionTensor(labels=(mi((0,)),), identity=mi((0,)),
                              p={(mi((0,)), mi((0,)), mi((0,))): 1})
    assert table_rows(lone) == {}
    assert lone.steps.gens.tolist() == [-1] and lone.steps.up.tolist() == [[-1]]
    opaque = t.relabel({mi((0,)): "B0", mi((1,)): "B1", mi((2,)): "B2",
                        mi((3,)): "B3"})
    with pytest.raises(ValueError):
        table_rows(opaque)
    with pytest.raises(ValueError):
        opaque.steps


def test_tensor_builds_its_step_table_once(monkeypatch):
    """Every check of one certify-ppoly run shares the tensor's successor
    table, built once and read-only; it stays out of eq and relabel."""
    builds = []
    build = IntersectionTensor.steps.func

    def counting(self):
        builds.append("steps")
        return build(self)

    table = functools.cached_property(counting)
    table.__set_name__(IntersectionTensor, "steps")
    monkeypatch.setattr(IntersectionTensor, "steps", table)
    t = mdrg_check(cartesian_product([cycle(4), cycle(3)]), DEGLEX_SUM).tensor
    twin = IntersectionTensor(labels=t.labels, identity=t.identity, p=dict(t.p))
    partial = PartialOrder.parse("componentwise")
    assert certify_ppoly(t, DEGLEX_SUM).passed
    assert certify_ppoly_refined(t, DEGLEX_SUM, partial).passed
    for window in (DEGLEX_SUM, partial):
        assert boundary_check(t, window).passed
        polys, cert = extract_polynomials(t, window)
        assert cert.passed
        assert verify_recurrences(polys, t, partial).passed
    certify_type_ab(t, PartialOrder.parse("ab:1/2,0"))
    assert builds == ["steps"]
    for array in t.steps:
        assert array.dtype == np.int64 and not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0
    assert t == twin
    assert "steps" not in vars(twin)
    swap = {lab: MultiIndex((lab[1], lab[0])) for lab in t.labels}
    swapped = t.relabel(swap)
    assert "steps" not in vars(swapped)
    assert swapped.relabel({v: k for k, v in swap.items()}) == t


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
    assert result.tensor is None and result.counts is None


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

"""The class index form of SchemeClasses against the class-matrix loops.

A scheme stores one n x n class index matrix and derives its 0/1
matrices on access; 0/1 input that does not partition has no index and
keeps only its structural axioms, read off the input once, so its
``matrices`` raise.  Either way the axioms, the identity class and the
index matrix must equal those of the dense matrix loops in ``helpers``,
and ``symmetrize`` must equal the sum of Kronecker products.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdrg import (MonomialOrder, SchemeClasses, cartesian_product, cycle,
                  distance_matrices, m_distance_table, mdrg_check,
                  pauli_scheme4, symmetrize, verify_scheme_axioms)

from helpers import (kron_symmetrize, matrix_class_index_matrix,
                     matrix_identity_index, matrix_verify_scheme_axioms)

DEGLEX_SUM = MonomialOrder.parse("deglex-sum")


def _assert_matches_oracle(labels, matrices, vertices):
    s = SchemeClasses(labels=labels, matrices=matrices, vertices=vertices)
    assert (verify_scheme_axioms(s).to_dict()
            == matrix_verify_scheme_axioms(labels, matrices, vertices).to_dict())
    assert s.identity_index() == matrix_identity_index(matrices)
    try:
        expected = matrix_class_index_matrix(matrices, vertices)
    except ValueError:
        with pytest.raises(ValueError, match="do not partition"):
            s.counts
        with pytest.raises(ValueError, match="do not partition"):
            s.matrices
        assert s.index is None
    else:
        assert np.array_equal(s.index, expected)
        assert [mat.tolist() for mat in s.matrices] == [
            np.asarray(mat).tolist() for mat in matrices]
        again = SchemeClasses.from_index(labels, expected, vertices)
        assert verify_scheme_axioms(again).to_dict() == verify_scheme_axioms(s).to_dict()
    # one (k, n, n) array, as the digit reader gives, is read as the list is
    stacked = SchemeClasses(labels=labels, matrices=np.array(matrices), vertices=vertices)
    assert verify_scheme_axioms(stacked).to_dict() == verify_scheme_axioms(s).to_dict()
    assert (stacked.index is None if s.index is None
            else np.array_equal(stacked.index, s.index))
    return s


@st.composite
def partitions(draw):
    """An n x n class index matrix with every class 0..k-1 used, symmetric
    or not, with or without a class that is exactly the diagonal."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 5))
    cells = draw(st.lists(st.integers(0, k - 1), min_size=n * n, max_size=n * n))
    idx = np.array(cells).reshape(n, n)
    if draw(st.booleans()):
        idx = np.triu(idx) + np.triu(idx, 1).T
    if draw(st.booleans()):
        idx = idx + 1
        np.fill_diagonal(idx, 0)
    return np.unique(idx, return_inverse=True)[1].reshape(n, n)


@settings(max_examples=300, deadline=None)
@given(partitions())
def test_partitions_match_matrix_loops(idx):
    k = int(idx.max()) + 1
    labels = ["A%d" % c for c in range(k)]
    vertices = ["v%d" % x for x in range(len(idx))]
    s = _assert_matches_oracle(labels, [idx == c for c in range(k)], vertices)
    assert s.index is not None and s.index.dtype == np.uint16


@st.composite
def stacks(draw):
    """k nonzero 0/1 matrices that may overlap and leave gaps."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 4))
    mats = []
    for _ in range(k):
        bits = draw(st.lists(st.integers(0, 1), min_size=n * n, max_size=n * n))
        mat = np.array(bits, dtype=np.int64).reshape(n, n)
        if draw(st.booleans()):
            mat = mat | mat.T
        if not mat.any():
            mat[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = 1
        mats.append(mat)
    if draw(st.booleans()):
        mats[0] = np.eye(n, dtype=np.int64)
    return mats


@settings(max_examples=300, deadline=None)
@given(stacks())
def test_overlapping_and_gappy_stacks_match_matrix_loops(mats):
    labels = ["A%d" % c for c in range(len(mats))]
    vertices = ["v%d" % x for x in range(len(mats[0]))]
    _assert_matches_oracle(labels, mats, vertices)


@pytest.mark.parametrize("make", [
    pauli_scheme4,
    lambda: distance_matrices(m_distance_table(cycle(7), DEGLEX_SUM)),
    lambda: distance_matrices(m_distance_table(
        cartesian_product([cycle(4), cycle(3)]), DEGLEX_SUM)),
    lambda: symmetrize(pauli_scheme4(), 2),
], ids=["pauli4", "c7", "c4xc3", "sym2"])
def test_schemes_match_matrix_loops(make):
    s = make()
    assert s.index is not None
    perm = np.random.default_rng(7).permutation(s.n)
    matrices = [mat[np.ix_(perm, perm)] for mat in s.matrices]
    cert = _assert_matches_oracle(list(s.labels), matrices, list(s.vertices))
    assert verify_scheme_axioms(cert).passed


def _complete_base(q):
    eye = np.eye(q, dtype=np.int64)
    return SchemeClasses(labels=["o", "J-I"], matrices=[eye, 1 - eye])


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("make", [
    pauli_scheme4,
    lambda: _complete_base(3),
    lambda: distance_matrices(m_distance_table(cycle(5), DEGLEX_SUM)),
    lambda: SchemeClasses.from_index(["o", "r", "l"],
                                     [[0, 1, 2], [2, 0, 1], [1, 2, 0]]),
], ids=["pauli4", "K3", "c5", "directed-c3"])
def test_symmetrize_matches_kronecker_sums(make, k):
    base = make()
    s = symmetrize(base, k)
    labels, matrices = kron_symmetrize(base, k)
    assert list(s.labels) == labels
    assert len(s.vertices) == base.n ** k
    assert [mat.tolist() for mat in s.matrices] == [mat.tolist() for mat in matrices]


def test_symmetrize_rejects_a_base_that_does_not_partition():
    eye = np.eye(3, dtype=np.int64)
    gappy = SchemeClasses(labels=["o", "a"], matrices=[eye, np.triu(1 - eye)])
    with pytest.raises(ValueError, match="partition"):
        symmetrize(gappy, 2)


def test_non_integer_class_arrays_are_rejected():
    with pytest.raises(ValueError, match="integer matrices, got float64"):
        SchemeClasses(labels=["a"], matrices=[[[0, 1.5], [1.9, 0]]])
    with pytest.raises(ValueError, match="integer matrices, got float64"):
        SchemeClasses(labels=["o", "a"],
                      matrices=[np.eye(2), np.ones((2, 2)) - np.eye(2)])
    with pytest.raises(ValueError, match="integer"):
        SchemeClasses.from_index(["o", "a"], [[0, 1.0], [1.0, 0]])
    s = SchemeClasses(labels=["o", "a"],
                      matrices=[np.eye(2, dtype=bool), ~np.eye(2, dtype=bool)])
    assert s.index.tolist() == [[0, 1], [1, 0]]
    s = SchemeClasses(labels=["o", "a"], matrices=np.array(
        [np.eye(2), 1 - np.eye(2)], dtype=np.uint64))
    assert s.index.tolist() == [[0, 1], [1, 0]]


@pytest.mark.parametrize("labels, stack", [
    (["o", "a"], np.array([[[1, 0], [0, 1]], [[0, 2], [2, 0]]], np.uint8)),
    (["o", "a"], np.array([[[1, 0], [0, 1]], [[0, 0], [0, 0]]], np.uint8)),
    (["o"], np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]]], np.uint8)),
    (["o", "a"], np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]]], np.float64)),
], ids=["entry-2", "zero-class", "labels", "float"])
def test_stack_and_list_of_matrices_fail_alike(labels, stack):
    with pytest.raises(ValueError) as as_list:
        SchemeClasses(labels=labels, matrices=list(stack))
    with pytest.raises(ValueError) as as_stack:
        SchemeClasses(labels=labels, matrices=stack)
    assert str(as_stack.value) == str(as_list.value)


def test_from_index_validation():
    with pytest.raises(ValueError, match="n x n"):
        SchemeClasses.from_index(["a"], [[0, 0]])
    with pytest.raises(ValueError, match="each of 0..1"):
        SchemeClasses.from_index(["a", "b"], [[0, 2], [1, 0]])
    with pytest.raises(ValueError, match="each of 0..1"):
        SchemeClasses.from_index(["a", "b"], [[0, -1], [1, 0]])
    with pytest.raises(ValueError, match="each of 0..2"):
        SchemeClasses.from_index(["a", "b", "c"], [[0, 2], [2, 0]])
    with pytest.raises(ValueError, match="each of 0..2"):
        SchemeClasses.from_index(["a", "b", "c"], [[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="duplicate"):
        SchemeClasses.from_index(["a", "a"], [[0, 1], [1, 0]])
    index = np.array([[0, 1], [1, 0]])
    s = SchemeClasses.from_index(["a", "b"], index, vertices=["x", "y"])
    index[0, 0] = 1  # a copy is stored
    assert s.index.tolist() == [[0, 1], [1, 0]]
    with pytest.raises(ValueError, match="read-only"):
        s.index[0, 0] = 1
    with pytest.raises(IndexError):
        s.matrices[2]
    assert s.matrices[-1].tolist() == [[0, 1], [1, 0]]


def test_distance_scheme_holds_only_its_index():
    result = mdrg_check(cartesian_product([cycle(16), cycle(16)]), DEGLEX_SUM)
    tracemalloc.start()
    try:
        scheme = distance_matrices(result.table)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert scheme.n == 256 and len(scheme.labels) == 81
    assert held < 1_000_000
    assert scheme.index.nbytes == 2 * 256 * 256
    assert verify_scheme_axioms(scheme).passed


def test_stack_that_does_not_partition_holds_no_class_matrices():
    """A (4, 512, 512) uint8 stack with one overlap and one asymmetric
    entry keeps only its three structural results, not the stack."""
    n = 512
    index = np.arange(n * n).reshape(n, n) % 3 + 1
    index = np.triu(index, 1) + np.triu(index, 1).T
    stack = np.array([index == c for c in range(4)], dtype=np.uint8)
    extra = 1 if index[5, 9] != 1 else 2
    stack[extra, 5, 9] = 1  # (5, 9) in two classes; class `extra` not symmetric
    labels, vertices = ["A%d" % c for c in range(4)], ["v%d" % x for x in range(n)]
    tracemalloc.start()
    try:
        s = SchemeClasses(labels=labels, matrices=stack, vertices=vertices)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert s.index is None and held < stack.nbytes
    assert (verify_scheme_axioms(s).to_dict()
            == matrix_verify_scheme_axioms(labels, stack, vertices).to_dict())
    with pytest.raises(ValueError, match="'x': 'v5', 'y': 'v9', 'coverage': 2"):
        s.matrices

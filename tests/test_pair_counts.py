"""The pair-count kernel against the triple-loop oracle.

Inputs are partitions of the pairs of n <= 9 points into at most four
classes (n for the cyclic ones), class 0 being the identity.  Symmetric:
vertex-permuted schemes (cycles, complete graphs, Hamming graphs),
fusions of their classes, which may or may not be schemes, random
colorings, which mostly are not, and colorings whose first pair of class
1 counts some (a, b) and (b, a) differently, which never are.  Not
symmetric: random directed colorings and the vertex-permuted difference
schemes x - y mod n of the cyclic groups, which are closed.  Symmetric
indices whose reference rows are swap-invariant take the kernel's half
scan; all others its full scan.  The generator route, with ``gens`` a
set of classes off the diagonal, is checked on the same partitions
against counts restricted to those classes.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from mdrg import SchemeClasses, intersection_tensor, verify_scheme_axioms
from mdrg import schemes
from mdrg.schemes import BadPair, pair_counts

from helpers import brute_force_pair_counts


def _cycle(n):
    d = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return np.minimum(d, n - d)


def _hamming(q):
    words = [(i // q, i % q) for i in range(q * q)]
    return np.array([[sum(a != b for a, b in zip(u, v)) for v in words]
                     for u in words])


BASES = ([_cycle(n) for n in range(1, 8)]
         + [1 - np.eye(n, dtype=np.int64) for n in range(2, 10)]
         + [_hamming(2), _hamming(3)])


def _symmetric_coloring(draw, n, colors):
    idx = np.zeros((n, n), dtype=np.int64)
    for x in range(n):
        for y in range(x + 1, n):
            idx[x, y] = idx[y, x] = draw(st.integers(1, colors))
    return idx


@st.composite
def partitions(draw):
    kind = draw(st.sampled_from(["fusion", "symmetric", "unswapped", "directed",
                                 "cyclic"]))
    if kind == "fusion":
        base = draw(st.sampled_from(BASES))
        n = len(base)
        perm = draw(st.permutations(range(n)))
        fusion = [0] + draw(st.lists(st.integers(1, 3), min_size=int(base.max()),
                                     max_size=int(base.max())))
        idx = np.array(fusion)[base[np.ix_(perm, perm)]]
    elif kind == "symmetric":
        idx = _symmetric_coloring(draw, draw(st.integers(1, 9)), draw(st.integers(1, 3)))
    elif kind == "unswapped":
        # (0, 1) is the first pair of class 1; z = 2 adds the code (2, 3)
        # to its row, and every z > 2 a code (a, a), so (3, 2) is missing
        n = draw(st.integers(3, 9))
        idx = _symmetric_coloring(draw, n, 3)
        idx[0, 1] = idx[1, 0] = 1
        idx[0, 2] = idx[2, 0] = 2
        idx[1, 2] = idx[2, 1] = 3
        idx[1, 3:] = idx[3:, 1] = idx[0, 3:]
    elif kind == "directed":
        n = draw(st.integers(1, 9))
        colors = draw(st.integers(1, 3))
        idx = np.array([[0 if x == y else draw(st.integers(1, colors))
                         for y in range(n)] for x in range(n)])
    else:
        n = draw(st.integers(1, 9))
        perm = np.array(draw(st.permutations(range(n))), dtype=np.int64)
        idx = np.subtract.outer(perm, perm) % n
    # renumber so that the classes in use are 0..k-1, identity first
    return np.unique(idx, return_inverse=True)[1].reshape(idx.shape)


def _recount(idx, x, y, a, b):
    return sum(1 for z in range(len(idx)) if idx[x, z] == a and idx[z, y] == b)


@settings(max_examples=300, deadline=None)
@given(partitions())
def test_pair_counts_matches_oracle(idx):
    k = int(idx.max()) + 1
    result = pair_counts(idx, k)
    # past k = 256 the codes leave 16 bits; unused classes change nothing
    wide = pair_counts(idx, 300)
    assert (wide == result if isinstance(result, BadPair)
            else np.array_equal(wide, result))
    expected = brute_force_pair_counts(idx)
    symmetric = np.array_equal(idx, idx.T)
    scheme = SchemeClasses(labels=[str(c) for c in range(k)],
                           matrices=[(idx == c).astype(np.int64) for c in range(k)])
    assert verify_scheme_axioms(scheme).passed == (isinstance(expected, dict)
                                                   and symmetric)
    if isinstance(expected, dict):
        assert not isinstance(result, BadPair)
        assert {(a, b, c): v for a, b, c, v in result.tolist()} == expected
        if not symmetric:
            return
        assert intersection_tensor(scheme).p == {
            (str(a), str(b), str(c)): Fraction(v)
            for (a, b, c), v in expected.items()}
        return
    assert isinstance(result, BadPair)
    x, y, a, b, c, count, x_ref, y_ref, count_ref = result
    assert (x, y) == expected
    assert idx[x, y] == idx[x_ref, y_ref] == c
    assert (x_ref, y_ref) == tuple(np.argwhere(idx == c)[0])
    assert _recount(idx, x, y, a, b) == count
    assert _recount(idx, x_ref, y_ref, a, b) == count_ref
    assert (a, b) == next(
        (a, b) for a in range(k) for b in range(k)
        if _recount(idx, x, y, a, b) != _recount(idx, x_ref, y_ref, a, b))


def _sorted_rows(monkeypatch, idx):
    """The number of rows of each np.sort call of ``pair_counts(idx)``."""
    calls = []
    sort = np.sort

    def counting(a, *args, **kwargs):
        calls.append(len(a))
        return sort(a, *args, **kwargs)

    monkeypatch.setattr(schemes.np, "sort", counting)
    try:
        result = pair_counts(idx, int(idx.max()) + 1)
    finally:
        monkeypatch.undo()
    return result, calls


def test_symmetric_scheme_sorts_only_the_upper_triangle(monkeypatch):
    for idx in (_hamming(3), _cycle(7), 1 - np.eye(9, dtype=np.int64)):
        n = len(idx)
        result, calls = _sorted_rows(monkeypatch, idx)
        assert not isinstance(result, BadPair)
        assert sum(calls[-n:]) == n * (n + 1) // 2
    # closed but not symmetric: every row of every source is sorted
    n = 7
    result, calls = _sorted_rows(monkeypatch, np.subtract.outer(range(n), range(n)) % n)
    assert not isinstance(result, BadPair)
    assert sum(calls[-n:]) == n * n


@settings(max_examples=300, deadline=None)
@given(partitions().filter(lambda idx: idx.max() > 0), st.data())
def test_generator_route_matches_oracle(idx, data):
    """With ``gens`` (classes off the diagonal, as class 0 is the
    identity), None exactly when some count #{z : idx[x,z] = a,
    idx[z,y] = g}, g in gens, depends on more than c = idx[x,y]; else the
    full counts of each class's first pair, as without ``gens``.  Past
    k = 256 the uint32 codes give the same answer."""
    k = int(idx.max()) + 1
    gens = data.draw(st.lists(st.integers(1, k - 1), min_size=1, unique=True))
    n = len(idx)
    rows, first = {}, {}
    agree = True
    for x in range(n):
        for y in range(n):
            row = sorted((idx[x, z], idx[z, y]) for z in range(n) if idx[z, y] in gens)
            first.setdefault(idx[x, y], (x, y))
            agree &= rows.setdefault(idx[x, y], row) == row
    result = pair_counts(idx, k, gens)
    wide = pair_counts(idx, 300, gens)
    assert (result is not None) == (wide is not None) == agree
    if agree:
        expected: dict = {}
        for c, (x, y) in first.items():
            for z in range(n):
                key = (idx[x, z], idx[z, y], c)
                expected[key] = expected.get(key, 0) + 1
        assert {(a, b, c): v for a, b, c, v in result.tolist()} == expected
        assert np.array_equal(wide, result)

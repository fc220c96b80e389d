"""Association-scheme classes, intersection numbers, and regularity.

The bridge between graphs and algebra: a connected colored graph is
m-distance-regular when, for every pair of distance labels (a, b), the
number of vertices z with d(x,z)=a and d(z,y)=b depends only on d(x,y).
When that holds, the distance matrices form an association scheme and
the counts are its intersection numbers p_{a,b}^c.

That one count is also the closure axiom of a scheme, so regularity,
closure and the intersection numbers all come from one integer kernel,
:func:`pair_counts`, which counts over the class index matrix instead of
multiplying class matrices.  No floating-point value is used.
"""

from __future__ import annotations

import functools
import math
import types
from collections import abc
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from .certificates import Certificate, Check, witness
# Not called here; kept as a module attribute that perfbench/tracing.py wraps.
from .exactlinalg import mat_vec  # noqa: F401
from .graphs import ColoredGraph, DistanceTable, m_distance_table
from .orders import MonomialOrder, MultiIndex

Label = Union[MultiIndex, str]
Steps = NamedTuple("Steps", [(name, np.ndarray) for name in (
    "gens", "up", "order", "coords", "color", "a", "b", "num", "diff", "hits")])


def label_text(label: Label) -> str:
    return label.as_text() if isinstance(label, MultiIndex) else str(label)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class SchemeClasses:
    """Classes of vertex pairs with distinct labels on named vertices.

    The one stored form is :attr:`index`, the read-only n x n class-index
    matrix (uint16 while k <= 65 535); :attr:`matrices` derives each 0/1
    matrix on access.  0/1 input that does not partition has ``index``
    None and keeps only its structural axioms, read off the input stack;
    its ``matrices`` and ``counts`` raise a ValueError naming where.
    :attr:`counts` is shared by the axioms and :func:`intersection_tensor`.
    """

    def __init__(self, labels: Sequence[Label], matrices: Sequence[np.ndarray],
                 vertices: Optional[Sequence[str]] = None):
        mats = [np.asarray(mat) for mat in matrices]
        if not mats:
            raise ValueError("no classes given")
        n = mats[0].shape[0]
        for mat in mats:
            if (mat.dtype.kind not in "biu" or mat.shape != (n, n)
                    or not ((mat == 0) | (mat == 1)).all()):
                raise ValueError("class matrices must be n x n 0/1 integer "
                                 "matrices, got %s %s" % (mat.dtype, mat.shape))
            if not mat.any():
                raise ValueError("class matrices must not be all zero")
        if len(labels) != len(mats):
            raise ValueError("%d labels for %d matrices" % (len(labels), len(mats)))
        cover, index = np.zeros((2, n, n), dtype=np.intp)  # no (k, n, n) copy of a list
        for c, one in enumerate(mat == 1 for mat in mats):
            cover += one
            index[one] = c
        partition = (cover == 1).all()
        self._store(labels, index if partition else None, vertices, n)
        if not partition:  # no index can exist: the dense definitions, then drop the stack
            asym = next((c for c, mat in enumerate(mats) if (mat != mat.T).any()), None)
            x, y = divmod(int(np.argmax(cover != 1)), n)
            self._structure = (
                next((c for c, a in enumerate(mats) if a.trace() == a.sum() == n), None),
                None if asym is None else self._symmetry_witness(
                    asym, np.argmax(mats[asym] != mats[asym].T)),
                witness(x=self.vertices[x], y=self.vertices[y], coverage=int(cover[x, y])))

    @classmethod
    def from_index(cls, labels: Sequence[Label], index: np.ndarray,
                   vertices: Optional[Sequence[str]] = None) -> "SchemeClasses":
        """The classes of an n x n integer matrix using each index 0..k-1."""
        index = np.asarray(index)
        k = len(labels)
        if (index.dtype.kind not in "iu" or index.ndim != 2 or not index.size
                or index.shape[0] != index.shape[1] or index.min() < 0
                or index.max() >= k
                or not np.bincount(index.ravel(), minlength=k).all()):
            raise ValueError("class indices must be an n x n integer matrix "
                             "using each of 0..%d" % (k - 1))
        self = cls.__new__(cls)
        self._store(labels, index, vertices, len(index))
        return self

    def _store(self, labels: Sequence[Label], index: Optional[np.ndarray],
               vertices: Optional[Sequence[str]], n: int) -> None:
        if len({label_text(lab) for lab in labels}) != len(labels):
            raise ValueError("duplicate class labels")
        names = tuple(str(v) for v in (range(n) if vertices is None else vertices))
        if len(names) != n or len(set(names)) != n:
            raise ValueError("vertex names must be %d distinct strings" % n)
        self.labels, self.vertices = tuple(labels), names
        self.index = None if index is None else _read_only(
            index.astype(np.uint16 if len(labels) <= 65535 else np.uint32))

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def matrices(self) -> Sequence[np.ndarray]:
        """The read-only 0/1 int64 class matrices in label order, made
        from :attr:`index` one at a time on access."""
        return _ClassMatrices(self._partition(), len(self.labels))

    def _partition(self) -> np.ndarray:
        if self.index is None:
            raise ValueError("classes do not partition the pairs: %s"
                             % self._structure[2])
        return self.index

    def _symmetry_witness(self, c: int, flat: int) -> dict:
        x, y = divmod(int(flat), self.n)
        return witness(label=self.labels[c], x=self.vertices[x], y=self.vertices[y])

    @functools.cached_property
    def _structure(self) -> tuple[Optional[int], Optional[dict], Optional[dict]]:
        """(identity class, symmetry witness, partition witness) read off
        :attr:`index` once; the constructor sets them where there is none.
        The identity is the class of (0, 0) if it is the diagonal.  A_c !=
        A_c^T where c meets a pair whose mirror is in another class, so
        the dense witness is the least such c at its first such pair."""
        idx, n = self.index, self.n
        c = idx[0, 0]
        ident = int(c) if np.array_equal(idx == c, np.eye(n, dtype=bool)) else None
        bad = idx != idx.T
        if not bad.any():
            return ident, None, None
        c = idx[bad].min()
        mine = bad & ((idx == c) | (idx.T == c))
        return ident, self._symmetry_witness(c, np.argmax(mine)), None

    def identity_index(self) -> Optional[int]:
        """The class that holds exactly the n pairs (x, x), or None."""
        return self._structure[0]

    @functools.cached_property
    def counts(self) -> Union[np.ndarray, "BadPair"]:
        """:func:`pair_counts` of :attr:`index`, read-only; ValueError if
        the classes do not partition the pairs."""
        counts = pair_counts(self._partition(), len(self.labels))
        return _read_only(counts) if isinstance(counts, np.ndarray) else counts


class _ClassMatrices(abc.Sequence):
    """The read-only 0/1 int64 matrices ``index == c``, each made when read."""

    def __init__(self, index: np.ndarray, k: int):
        self._index, self._k = index, k

    def __len__(self) -> int:
        return self._k

    def __getitem__(self, c: int) -> np.ndarray:
        return _read_only((self._index == range(self._k)[c]).astype(np.int64))


class BadPair(NamedTuple):
    """Pair (x, y) of class c whose count at (a, b) differs from that of
    the reference pair (x_ref, y_ref), the first pair of class c."""

    x: int
    y: int
    a: int
    b: int
    c: int
    count: int
    x_ref: int
    y_ref: int
    count_ref: int


def pair_counts(idx: np.ndarray, k: int, gens: Optional[Sequence[int]] = None
                ) -> Union[np.ndarray, BadPair, None]:
    """Counts #{z : idx[x,z] = a, idx[z,y] = b}, checked to depend only on c.

    ``idx`` holds n x n class indices in 0..k-1.  Row (x, y), the codes
    idx[x,z]*k + idx[z,y] sorted over z, is compared with its reference,
    the row of the first pair in row-major order of class idx[x,y].
    Returns the nonzero counts of the reference rows as rows
    (a, b, c, p_{a,b}^c) sorted by (c, a, b), or the first pair in
    row-major order that disagrees, at the first differing (a, b).  When
    ``idx`` is symmetric and the reference rows are unchanged by the swap
    a*k + b -> b*k + a, only targets y >= x are scanned: row (y, x) is the
    swap of row (x, y), so a failing pair below the diagonal has a failing
    mirror earlier in row-major order.

    With ``gens``, classes holding no pair (y, y), a row keeps only the z
    with idx[z,y] in ``gens``, padded to one length with z = y, whose code
    no kept z gives; sources go in blocks of about 2^20 codes, and a
    disagreement returns None.  Codes are below k*k: uint16 up to k = 256,
    which numpy 2 sorts several times faster than 8- or 64-bit integers,
    uint32 up to k = 65 535 (2.4x faster than int64), else int64.
    """
    n = idx.shape[0]
    idx = idx.astype(np.uint16 if k <= 256 else np.uint32 if k <= 65535 else np.int64)
    idx_t = np.ascontiguousarray(idx.T)
    classes, first = np.unique(idx, return_index=True)
    ref = np.zeros((k, n), dtype=idx.dtype)
    ref[classes] = np.sort(idx[first // n] * k + idx_t[first % n], axis=1)
    if gens is not None:
        kept = np.bincount(gens, minlength=k)[idx_t] > 0  # kept[y, z]: idx[z,y] in gens
        near = np.argsort(~kept, axis=1, kind="stable")[:, :kept.sum(axis=1).max()]
        near = np.where(np.take_along_axis(kept, near, 1), near, np.arange(n)[:, None])
        tail = np.take_along_axis(idx_t, near, 1)  # idx[z,y] over the near z of y
        near_ref = np.zeros((k, near.shape[1]), dtype=idx.dtype)
        near_ref[classes] = np.sort(idx[(first // n)[:, None], near[first % n]] * k
                                    + tail[first % n], axis=1)
        step = max(1, 2 ** 20 // near.size)
        for lo in range(0, n, step):
            rows = np.sort(idx[lo:lo + step, near] * k + tail, axis=2)
            if (rows != near_ref[idx[lo:lo + step]]).any():
                return None
    else:
        half = (np.array_equal(idx, idx_t)
                and np.array_equal(np.sort(ref % k * k + ref // k, axis=1), ref))
        for x in range(n):
            lo = x if half else 0
            rows = np.sort(idx[x] * k + idx_t[lo:], axis=1)
            bad = np.flatnonzero((rows != ref[idx[x, lo:]]).any(axis=1))
            if bad.size:
                y = lo + int(bad[0])
                c = int(idx[x, y])
                x_ref, y_ref = np.argwhere(idx == c)[0]
                counts = np.bincount(rows[y - lo], minlength=k * k)
                counts_ref = np.bincount(ref[c], minlength=k * k)
                flat = int(np.flatnonzero(counts != counts_ref)[0])
                a, b = divmod(flat, k)
                return BadPair(x, y, a, b, c, int(counts[flat]), int(x_ref),
                               int(y_ref), int(counts_ref[flat]))
    keys, counts = np.unique(
        np.repeat(classes.astype(np.int64) * (k * k), n) + ref[classes].ravel(),
        return_counts=True)
    c, ab = np.divmod(keys, k * k)
    return np.column_stack([ab // k, ab % k, c, counts])


def _pair_witness(bad: BadPair, labels: Sequence[Label],
                  vertices: Sequence[str]) -> dict:
    return witness(a=labels[bad.a], b=labels[bad.b], c=labels[bad.c],
                   x=vertices[bad.x], y=vertices[bad.y], count=bad.count,
                   x_ref=vertices[bad.x_ref], y_ref=vertices[bad.y_ref],
                   count_ref=bad.count_ref)


def verify_scheme_axioms(s: SchemeClasses) -> Certificate:
    """Certify the defining axioms of a symmetric association scheme.

    identity-class   exactly one class is the identity matrix
    symmetry         every class matrix is symmetric
    partition        the classes sum to the all-ones matrix
    closure          each product A_a A_b is constant on every class
                     support: ``s.counts`` by :func:`pair_counts`, whose
                     witness is the first bad pair (x, y) in row-major order
    """
    ident, sym_witness, part_witness = s._structure
    checks = [Check("identity-class", ident is not None,
                    None if ident is not None else witness(reason="no identity class")),
              Check("symmetry", sym_witness is None, sym_witness),
              Check("partition", part_witness is None, part_witness)]

    if part_witness is None and sym_witness is None and ident is not None:
        closure_witness = (_pair_witness(s.counts, s.labels, s.vertices)
                           if isinstance(s.counts, BadPair) else None)
        checks.append(Check("closure", closure_witness is None, closure_witness))
    else:
        checks.append(Check("closure", False,
                            witness(reason="skipped: structural axioms failed")))
    return Certificate.of(checks)


class IntersectionTensor:
    """Sparse intersection numbers p_{a,b}^c of an association scheme.

    The nonzero entries, on class positions (indices into ``labels``), are
    the read-only int64 arrays :attr:`a`, :attr:`b`, :attr:`c`, sorted by
    (a, b, c) without repeats, and :attr:`num`, the values times the least
    common denominator :attr:`den`: int64 while k max(|num|, den) < 2^63,
    so sums of k entries are exact, else Python ints (dtype=object).
    Labels are opaque tags or multi-indices; ``identity`` names A_o.  The
    checks read the arrays; :attr:`p`, the read-only map (a, b, c) ->
    Fraction on labels, and the integer view :attr:`steps` are built on
    first read.  Equality compares labels, identity and ``p``.
    """

    def __init__(self, labels: Sequence[Label], identity: Label,
                 p: Mapping[tuple[Label, Label, Label], Fraction]):
        where = {lab: i for i, lab in enumerate(labels)}  # other labels from k up
        values = [Fraction(v) for v in p.values()]
        den = math.lcm(*(v.denominator for v in values))
        vars(self).update(vars(IntersectionTensor.from_arrays(
            labels, identity, [[where.setdefault(lab, len(where)) for lab in key] for key in p],
            np.array([v.numerator * (den // v.denominator) for v in values], object),
            den, list(where))))

    @classmethod
    def from_arrays(cls, labels: Sequence[Label], identity: Label, entries, num: np.ndarray,
                    den: int = 1, names=()) -> "IntersectionTensor":
        """p = num / den at the distinct rows of class positions ``entries``, zeros
        dropped, ``den`` least; ValueError if ``identity`` is not a label, two labels
        share a text, or a nonzero entry is past the labels (``names[i]`` names i)."""
        if identity not in labels:
            raise ValueError("identity label %s not among labels" % label_text(identity))
        if len({label_text(lab) for lab in labels}) != len(labels):
            raise ValueError("duplicate labels")
        entries, num = np.asarray(entries, np.int64).reshape(-1, 3)[num != 0], num[num != 0]
        if (entries >= len(labels)).any():
            raise ValueError("p entry %s names a label not among labels" % [label_text(
                names[i]) for i in entries[(entries >= len(labels)).any(axis=1)][0].tolist()])
        order, top = np.lexsort(entries.T[::-1]), max(int(np.abs(num).max(initial=0)), den)
        self = cls.__new__(cls)
        self.labels, self.identity, self.den = tuple(labels), identity, den
        self.a, self.b, self.c = map(_read_only, entries[order].T.copy())
        self.num = _read_only(num[order].astype(
            np.int64 if len(labels) * top < 2 ** 63 else object))
        return self

    def __eq__(self, other: object) -> bool:  # on the label-keyed views
        return isinstance(other, IntersectionTensor) and (
            self.labels, self.identity, self.p) == (other.labels, other.identity, other.p)

    @functools.cached_property
    def p(self) -> Mapping[tuple[Label, Label, Label], Fraction]:
        """Read-only {(a, b, c): p_{a,b}^c} on labels, built on first read."""
        labels, den, arrays = self.labels, self.den, (self.a, self.b, self.c, self.num)
        return types.MappingProxyType({(labels[a], labels[b], labels[c]): Fraction(v, den)
                                       for a, b, c, v in zip(*map(np.ndarray.tolist, arrays))})

    @functools.cached_property
    def steps(self) -> Steps:
        """The read-only integer view of the steps a -> a + e_i on class positions:
        ``gens[i]``, ``up[i, a]`` those of e_{i+1}, labels[a] + e_{i+1} (-1 if no
        class; found from its predecessor), ``order`` the label order, ``coords``
        the labels (int64 below 2^62, else Python ints), and the generator entries
        p_{e_i,a}^b = ``num`` / den by ``color`` i, ``a``, ``b``, in label order, with
        ``diff`` = labels[a] + e_i - labels[b], whose window keys place b; ``hits[0, i,
        a]``, ``hits[1, i, a]`` are 1 where p_{e_i,a}^{a+e_i}, p_{e_i,a+e_i}^a != 0."""
        labels, k, m = self.labels, len(self.labels), self.m
        where = {(0,) * m: k, **{lab: i for i, lab in enumerate(labels)}}  # e_i - e_i is o
        up = np.full((m, k + 2), -1, np.int64)
        for b, lab in enumerate(labels):
            for i in (i for i, e in enumerate(lab) if e):
                up[i, where.get(lab[:i] + (lab[i] - 1,) + lab[i + 1:], k + 1)] = b
        gens, order = up[:, where[(0,) * m]], np.array(sorted(range(k), key=labels.__getitem__))
        color, rank = np.full(k + 1, -1, np.int64), np.argsort(order)
        color[gens] = np.arange(m)
        at = np.flatnonzero(color[self.a] >= 0)
        at = at[np.lexsort((rank[self.c[at]], rank[self.b[at]], color[self.a[at]]))]
        coords = np.array(labels, np.int64 if max(map(max, labels)) < 2 ** 62 else object)
        i, a, b = color[self.a[at]], self.b[at], self.c[at]
        diff = coords[a] - coords[b]
        diff[np.arange(len(at)), i] += 1
        hits, rise, fall = np.zeros((2, m, k), np.int64), b == up[i, a], a == up[i, b]
        hits[0, i[rise], a[rise]] = hits[1, i[fall], b[fall]] = 1
        return Steps(*map(_read_only, (gens, up[:, :k], order, coords, i, a, b, self.num[at],
                                       diff, hits)))

    def get(self, a: Label, b: Label, c: Label) -> Fraction:
        return self.p.get((a, b, c), Fraction(0))

    def domain(self) -> frozenset[Label]:
        return frozenset(self.labels)

    def valency(self, a: Label) -> Fraction:
        return self.get(a, a, self.identity)

    @functools.cached_property
    def labels_are_multiindex(self) -> bool:
        return all(isinstance(lab, MultiIndex) for lab in self.labels)

    @functools.cached_property
    def m(self) -> int:
        if not self.labels_are_multiindex:
            raise ValueError("labels are opaque tags; no m defined")
        lengths = {len(lab) for lab in self.labels}  # type: ignore[arg-type]
        if len(lengths) != 1:
            raise ValueError("mixed multi-index lengths")
        return lengths.pop()

    def relabel(self, mapping: Mapping[Label, Label]) -> "IntersectionTensor":
        """Apply a bijective label substitution: the arrays stay as they are."""
        if set(mapping.keys()) != set(self.labels):
            raise ValueError("relabeling keys must equal the label set")
        return IntersectionTensor.from_arrays(  # duplicate labels raise
            [mapping[lab] for lab in self.labels], mapping[self.identity],
            np.column_stack([self.a, self.b, self.c]), self.num, self.den)

    def validate(self, strict_integral: bool = False) -> Certificate:
        """Necessary conditions on the numbers themselves.

        nonnegativity, p_{o,a}^c = delta_{a,c}, commutativity
        p_{a,b}^c = p_{b,a}^c, and the row sums sum_b p_{a,b}^c = k_a.
        ``strict_integral`` adds an integrality check (finite schemes have
        integer intersection numbers; formal parameterized tensors need
        not).  Each witness is the first failure in ``itertools.product``
        order: the least failing key (a k + b) k + c or a k + c, exact while
        k^3 < 2^63.  O(N log N + k^2) in ``num``'s dtype.
        """
        labels, k, den, num = self.labels, len(self.labels), self.den, self.num
        a, b, c, o = self.a, self.b, self.c, labels.index(self.identity)

        def least(keys: np.ndarray, names: str) -> Optional[dict]:  # its labels by name
            return {name: labels[int(keys.min()) // k ** e % k] for e, name
                    in zip(range(len(names) - 1, -1, -1), names)} if keys.size else None

        key, swap = (a * k + b) * k + c, (b * k + a) * k + c
        bad = least(key[num < 0], "abc")
        checks = [Check("nonnegative", not bad,
                        bad and witness(**bad, value=self.get(*bad.values())))]
        tables = np.zeros((3, k, k), num.dtype)  # p_{o,x}^y, sum_b p_{x,b}^y, p_{x,y}^o
        tables[0, b[a == o], c[a == o]] = num[a == o]
        np.add.at(tables[1], (a, c), num)
        tables[2, a[c == o], b[c == o]] = num[c == o]
        bad = least(np.flatnonzero(tables[0] != den * np.eye(k, dtype=num.dtype)), "ac")
        checks.append(Check("identity-rule", not bad, bad and witness(
            **bad, value=self.get(self.identity, *bad.values()))))
        # p_{a,b}^c != p_{b,a}^c fails at (a, b, c) and (b, a, c): the least is first
        at = np.minimum(np.searchsorted(key, swap), len(key) - 1)
        failing = num != np.where(key[at] == swap, num[at], 0)
        bad = least(((np.minimum(a, b) * k + np.maximum(a, b)) * k + c)[failing], "abc")
        checks.append(Check("commutativity", not bad, bad and witness(
            **bad, p_ab=self.get(*bad.values()), p_ba=self.get(bad["b"], bad["a"], bad["c"]))))
        bad = least(np.flatnonzero(tables[1] != tables[2].diagonal()[:, None]), "ac")
        checks.append(Check("row-sums", not bad, bad and witness(
            **bad, valency=self.valency(bad["a"]), row_sum=sum(
                (self.get(bad["a"], x, bad["c"]) for x in labels), Fraction(0)))))
        if strict_integral:
            bad = least(key[num % den != 0], "abc")
            checks.append(Check("integrality", not bad,
                                bad and witness(**bad, value=self.get(*bad.values()))))
        return Certificate.of(checks)


def intersection_tensor(s: SchemeClasses) -> IntersectionTensor:
    """Read off intersection numbers from ``s.counts``, which
    :func:`verify_scheme_axioms` already took; ``ValueError`` with the
    first constancy violation unless the axioms hold."""
    ident = s.identity_index()
    if ident is None:
        raise ValueError("scheme has no identity class")
    if isinstance(s.counts, BadPair):
        raise ValueError("not an association scheme: closure fails at %s"
                         % _pair_witness(s.counts, s.labels, s.vertices))
    return IntersectionTensor.from_arrays(s.labels, s.labels[ident], s.counts[:, :3],
                                          s.counts[:, 3])


def distance_matrices(table: DistanceTable) -> SchemeClasses:
    """The classes of the realized distance labels, sorted by the order:
    the table's index matrix."""
    return SchemeClasses.from_index(table.labels, table.index,
                                    table.graph.vertices)


# -- Generator associativity ----------------------------------------------------

def associativity(t: IntersectionTensor) -> Check:
    """Generator associativity (A_{e_i} A_a) A_b = A_{e_i} (A_a A_b), that is
    sum_d p_{e_i,a}^d p_{d,b}^c = sum_d p_{a,b}^d p_{e_i,d}^c, for every
    generator e_i that is a class and all classes a, b, c.

    Every scheme passes.  On a commutative tensor with the identity rule
    that :func:`mdrg.ppoly.certify_ppoly` certifies, the product is then
    associative and the generator rows fix every p_{a,b}^c: along the
    window A_{a+e_i} = (A_{e_i} A_a - sum_{d < a+e_i} p_{e_i,a}^d A_d) /
    p_{e_i,a}^{a+e_i}, and ((A_{e_i} A_a) Y) Z = A_{e_i} ((A_a Y) Z) =
    A_{e_i} (A_a (Y Z)) = (A_{e_i} A_a) (Y Z) by the check and induction.
    So the generators commute: A_{e_i} (A_{e_j} X) = A_{e_j} (A_{e_i} X).

    Both sides are one join of the N entries (class positions, ``num``)
    with the generator rows: (d, b, c) with (g, a, d) and (a, b, d) with
    (g, d, c), summed by key ((g k + a) k + b) k + c, that is
    (b k + c) + (g k + a) k^2 and (a k + b) k + (g k^3 + c).  A sum has
    at most 2k terms of at most (max |num|)^2, so int64 is exact while
    2 k (max |num|)^2 < 2^63 and k^4 < 2^63; past that the same code runs
    on Python ints (dtype=object).  The witness is the least failing
    (generator, a, b, c) in class positions, with both sides.
    """
    k, top = len(t.labels), int(np.abs(t.num).max(initial=0))
    dtype = np.int64 if max(k ** 4, 2 * k * top * top) < 2 ** 63 else object
    entries, v = np.column_stack([t.a, t.b, t.c]).astype(dtype), t.num.astype(dtype)
    units = [i for i, lab in enumerate(t.labels)
             if isinstance(lab, MultiIndex) and sum(lab) == 1]
    on = (entries[:, :1] == units).any(axis=1)
    gen, gv = entries[on], v[on]
    column = np.concatenate([gen[:, 2], gen[:, 1] + k])  # right side shifted by k
    by_column = np.argsort(column)
    found = np.concatenate([entries[:, 0], entries[:, 2] + k])
    lo = np.searchsorted(column[by_column], found, "left")
    count = np.searchsorted(column[by_column], found, "right") - lo
    i = np.repeat(np.arange(len(found)), count)  # entry i % N meets gen row j
    j = by_column[np.repeat(lo - np.cumsum(count) + count, count) + np.arange(len(i))]
    parts = entries @ np.array([[0, k * k], [k, k], [1, 0]], dtype)
    gparts = gen @ np.array([[k ** 3, k ** 3], [k * k, 0], [0, 1]], dtype)
    keys = parts.T.ravel()[i] + gparts.T.ravel()[j]
    terms = np.concatenate([v, -v])[i] * np.concatenate([gv, gv])[j]
    del i, j  # the largest arrays: keep at most five of their size alive
    order = np.argsort(keys)
    keys, terms = keys[order], terms[order]
    starts = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]])[:len(keys)])
    failing = keys[starts[np.add.reduceat(terms, starts) != 0]]
    if not failing.size:
        return Check("associativity", True)
    g, x, y, z = (t.labels[int(failing[0]) // k ** e % k] for e in (3, 2, 1, 0))
    lhs = sum((t.get(g, x, d) * t.get(d, y, z) for d in t.labels), Fraction(0))
    rhs = sum((t.get(x, y, d) * t.get(g, d, z) for d in t.labels), Fraction(0))
    return Check("associativity", False,
                 witness(generator=g, a=x, b=y, c=z, lhs=lhs, rhs=rhs))


# -- m-distance-regularity ------------------------------------------------------

@dataclass
class MdrgResult:
    """Outcome of :func:`mdrg_check`; on pass, the counts :attr:`tensor` reads."""

    certificate: Certificate
    table: DistanceTable
    counts: Optional[np.ndarray] = field(repr=False, compare=False)

    @functools.cached_property
    def tensor(self) -> Optional[IntersectionTensor]:
        return None if self.counts is None else IntersectionTensor.from_arrays(  # o first
            self.table.labels, self.table.labels[0], self.counts[:, :3], self.counts[:, 3])


def mdrg_check(g: ColoredGraph, order: MonomialOrder) -> MdrgResult:
    """Certify that a connected colored graph is m-distance-regular.

    Checks that every unit e_i is a realized distance and that the counts
    #{z : d(x,z)=a, d(z,y)=b} depend only on d(x,y); they are then the
    intersection numbers of the scheme of the distance matrices A_a.  The
    counts with b = e_i suffice (the b_i, a_i, c_i argument of Brouwer,
    Cohen, Neumaier, Distance-Regular Graphs, 1989, ch. 4): let each
    A_a A_{e_i} lie in V = span{A_a}.  A walk of m-length c = d(x,y) != o
    with last edge zy of color i has d(x,z) = c - e_i and d(z,y) = e_i, or
    a shorter walk exists, as the order is strictly monotone under sums.
    So p_{c-e_i,e_i}^c > 0, and by the triangle bound every other class of
    A_{c-e_i} A_{e_i} comes before c: by induction each A_c is a polynomial
    in the A_{e_i}, and V is closed under products.  The full scan runs
    only when the generator counts differ, to name the first bad pair.
    """
    table = m_distance_table(g, order)
    labels = table.labels

    checks: list[Check] = []
    units = [MultiIndex.unit(g.m, c) for c in range(1, g.m + 1)]
    missing = [c for c, unit in enumerate(units, 1) if unit not in labels]
    checks.append(Check(
        "colors-realized", not missing,
        None if not missing else witness(
            color=missing[0], unit=units[missing[0] - 1],
            realized=sorted(lab.as_text() for lab in labels))))
    if missing:
        return MdrgResult(Certificate.of(checks), table, None)

    counts = pair_counts(table.index, len(labels), [labels.index(u) for u in units])
    if counts is None:
        counts = pair_counts(table.index, len(labels))
    count_witness = (_pair_witness(counts, labels, g.vertices)
                     if isinstance(counts, BadPair) else None)
    checks.append(Check("regular-counts", count_witness is None, count_witness,
                        detail=None if count_witness else
                        "all %d vertex pairs consistent" % (g.n * g.n)))
    return MdrgResult(Certificate.of(checks), table,
                      None if count_witness else _read_only(counts))

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
import itertools
import math
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


def _tensor_from_counts(counts: np.ndarray, labels: Sequence[Label],
                        identity: Label) -> "IntersectionTensor":
    values = {v: Fraction(v) for v in set(counts[:, 3].tolist())}  # one per value
    p = {(labels[a], labels[b], labels[c]): values[value]
         for a, b, c, value in counts.tolist()}
    return IntersectionTensor(labels=tuple(labels), identity=identity, p=p)


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


@dataclass(frozen=True, eq=True)
class IntersectionTensor:
    """Sparse intersection numbers p_{a,b}^c of an association scheme.

    ``p`` maps (a, b, c) to a nonzero rational; absent keys mean zero.
    ``identity`` names the class acting as A_o.  Labels may be opaque
    tags (e.g. for parameterized families) or multi-indices.  The checks
    share :attr:`rows`, kept outside eq, hash and repr.
    """

    labels: tuple[Label, ...]
    identity: Label
    p: Mapping[tuple[Label, Label, Label], Fraction] = field(compare=True)

    def __post_init__(self) -> None:
        if self.identity not in self.labels:
            raise ValueError("identity label %r not among labels" % (self.identity,))
        texts = [label_text(lab) for lab in self.labels]
        if len(set(texts)) != len(texts):
            raise ValueError("duplicate labels")
        declared = set(self.labels)
        bad = next((key for key in self.p if not declared.issuperset(key)), None)
        if bad is not None:
            raise ValueError("p entry %s names a label not among labels"
                             % [label_text(lab) for lab in bad])

    # generator_rows(self), built on first use; read-only
    rows = functools.cached_property(lambda self: generator_rows(self))

    def get(self, a: Label, b: Label, c: Label) -> Fraction:
        return self.p.get((a, b, c), Fraction(0))

    def domain(self) -> frozenset[Label]:
        return frozenset(self.labels)

    def valency(self, a: Label) -> Fraction:
        return self.get(a, a, self.identity)

    @property
    def labels_are_multiindex(self) -> bool:
        return all(isinstance(lab, MultiIndex) for lab in self.labels)

    @property
    def m(self) -> int:
        if not self.labels_are_multiindex:
            raise ValueError("labels are opaque tags; no m defined")
        lengths = {len(lab) for lab in self.labels}  # type: ignore[arg-type]
        if len(lengths) != 1:
            raise ValueError("mixed multi-index lengths")
        return lengths.pop()

    def relabel(self, mapping: Mapping[Label, Label]) -> "IntersectionTensor":
        """Apply a bijective label substitution."""
        if set(mapping.keys()) != set(self.labels):
            raise ValueError("relabeling keys must equal the label set")
        if len(set(mapping.values())) != len(self.labels):
            raise ValueError("relabeling must be injective")
        return IntersectionTensor(
            labels=tuple(mapping[lab] for lab in self.labels),
            identity=mapping[self.identity],
            p={(mapping[a], mapping[b], mapping[c]): v
               for (a, b, c), v in self.p.items()})

    def validate(self, strict_integral: bool = False) -> Certificate:
        """Necessary conditions on the numbers themselves.

        nonnegativity, p_{o,a}^c = delta_{a,c}, commutativity
        p_{a,b}^c = p_{b,a}^c, and the row sums sum_b p_{a,b}^c = k_a.
        ``strict_integral`` adds an integrality check (finite schemes have
        integer intersection numbers; formal parameterized tensors need
        not).  O(nnz + k^2): each witness is the first failure in
        ``itertools.product`` order over the labels.
        """
        # The scans run on the numbers times their common denominator, as
        # ints (absent = 0); witnesses still report the rationals.
        checks: list[Check] = []
        scale = math.lcm(*(v.denominator for v in self.p.values()))
        p = {key: v.numerator * (scale // v.denominator) for key, v in self.p.items()}
        neg = next((key for key, v in p.items() if v < 0), None)
        checks.append(Check("nonnegative", neg is None,
                            None if neg is None else
                            witness(a=neg[0], b=neg[1], c=neg[2], value=self.p[neg])))

        delta_witness = next((witness(a=a, c=c, value=self.get(self.identity, a, c))
                              for a, c in itertools.product(self.labels, repeat=2)
                              if p.get((self.identity, a, c), 0) != scale * (a == c)),
                             None)
        checks.append(Check("identity-rule", delta_witness is None, delta_witness))

        # p_{a,b}^c != p_{b,a}^c fails at a stored key and at its swap, so
        # the first failing triple in product order is the least of these.
        pos = {lab: i for i, lab in enumerate(self.labels)}
        first = min(((min(pos[a], pos[b]), max(pos[a], pos[b]), pos[c])
                     for (a, b, c), v in p.items() if v != p.get((b, a, c), 0)),
                    default=None)
        comm_witness = None
        if first is not None:
            a, b, c = (self.labels[i] for i in first)
            comm_witness = witness(a=a, b=b, c=c,
                                   p_ab=self.get(a, b, c), p_ba=self.get(b, a, c))
        checks.append(Check("commutativity", comm_witness is None, comm_witness))

        sums: dict = {}  # (a, c) -> sum_b p_{a,b}^c
        for (a, b, c), v in p.items():
            sums[a, c] = sums.get((a, c), 0) + v
        sum_witness = next((witness(a=a, c=c,
                                    row_sum=Fraction(sums.get((a, c), 0), scale),
                                    valency=self.valency(a))
                            for a, c in itertools.product(self.labels, repeat=2)
                            if sums.get((a, c), 0) != p.get((a, a, self.identity), 0)),
                           None)
        checks.append(Check("row-sums", sum_witness is None, sum_witness))

        if strict_integral:
            frac = next((key for key, v in self.p.items() if v.denominator != 1), None)
            checks.append(Check("integrality", frac is None,
                                None if frac is None else
                                witness(a=frac[0], b=frac[1], c=frac[2],
                                        value=self.p[frac])))
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
    return _tensor_from_counts(s.counts, s.labels, s.labels[ident])


def distance_matrices(table: DistanceTable) -> SchemeClasses:
    """The classes of the realized distance labels, sorted by the order:
    the table's index matrix."""
    return SchemeClasses.from_index(table.labels, table.index,
                                    table.graph.vertices)


# -- Generator products and associativity ---------------------------------------

def generator_rows(t: IntersectionTensor) -> dict:
    """Sparse view (e_i, a) -> {b: p_{e_i,a}^b, ...} of the products
    A_{e_i} A_a, built in one pass over ``t.p``; ``t.rows`` keeps it.
    Zero entries are left out, each row is sorted by b, and integral
    values become ints.  A generator that is not a class has no rows.
    """
    units = [MultiIndex.unit(t.m, c) for c in range(1, t.m + 1)]
    rows: dict = {}
    for (g, a, b), value in t.p.items():
        if g in units and value != 0:
            value = Fraction(value)
            rows.setdefault((g, a), []).append(
                (b, value.numerator if value.denominator == 1 else value))
    return {key: dict(sorted(row)) for key, row in rows.items()}


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

    Both sides are one join of the N entries (class positions, values times
    their common denominator s) with the generator rows: (d, b, c) with
    (g, a, d) and (a, b, d) with (g, d, c), summed by key ((g k + a) k + b)
    k + c, that is (b k + c) + (g k + a) k^2 and (a k + b) k + (g k^3 + c).
    A sum has at most 2k terms of at most (max |s p|)^2, so int64 is exact
    while 2 k (max |s p|)^2 < 2^63 and k^4 < 2^63; past that the same code
    runs on Python ints (dtype=object).  The witness is the least failing
    (generator, a, b, c) in class positions, with both sides.
    """
    pos = {lab: i for i, lab in enumerate(t.labels)}
    k = len(t.labels)
    ratios = [v.as_integer_ratio() for v in t.p.values()]
    scale = math.lcm(*(d for _, d in ratios))
    values = [n * (scale // d) for n, d in ratios]
    top = max(map(abs, values), default=0)
    dtype = np.int64 if max(k ** 4, 2 * k * top * top) < 2 ** 63 else object
    entries = np.fromiter(map(pos.__getitem__, itertools.chain.from_iterable(t.p)),
                          dtype, 3 * len(values)).reshape(-1, 3)
    v = np.array(values, dtype)
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
        return None if self.counts is None else _tensor_from_counts(
            self.counts, self.table.labels, MultiIndex.zero(self.table.graph.m))


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

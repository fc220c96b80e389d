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

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from .certificates import Certificate, Check, witness
# Not called here; kept as a module attribute that perfbench/tracing.py wraps.
from .exactlinalg import mat_vec  # noqa: F401
from .graphs import ColoredGraph, DistanceTable, count_walks_by_type, m_distance_table
from .orders import MonomialOrder, MultiIndex, box

Label = Union[MultiIndex, str]


def label_text(label: Label) -> str:
    return label.as_text() if isinstance(label, MultiIndex) else str(label)


class SchemeClasses:
    """A set of 0/1 class matrices with distinct labels on named vertices."""

    def __init__(self, labels: Sequence[Label], matrices: Sequence[np.ndarray],
                 vertices: Optional[Sequence[str]] = None):
        mats = [np.asarray(mat, dtype=np.int64) for mat in matrices]
        if not mats:
            raise ValueError("no classes given")
        n = mats[0].shape[0]
        for mat in mats:
            if mat.shape != (n, n):
                raise ValueError("class matrices must all be n x n")
            if not np.isin(mat, (0, 1)).all():
                raise ValueError("class matrices must be 0/1")
            if not mat.any():
                raise ValueError("class matrices must not be all zero")
        if len(labels) != len(mats):
            raise ValueError("%d labels for %d matrices" % (len(labels), len(mats)))
        texts = [label_text(lab) for lab in labels]
        if len(set(texts)) != len(texts):
            raise ValueError("duplicate class labels")
        if vertices is None:
            vertices = [str(i) for i in range(n)]
        names = tuple(str(v) for v in vertices)
        if len(names) != n or len(set(names)) != n:
            raise ValueError("vertex names must be %d distinct strings" % n)
        self.labels = tuple(labels)
        self.matrices = tuple(mats)
        self.vertices = names

    @property
    def n(self) -> int:
        return self.matrices[0].shape[0]

    def identity_index(self) -> Optional[int]:
        eye = np.eye(self.n, dtype=np.int64)
        for i, mat in enumerate(self.matrices):
            if np.array_equal(mat, eye):
                return i
        return None

    def matrix_for(self, label: Label) -> np.ndarray:
        for lab, mat in zip(self.labels, self.matrices):
            if lab == label:
                return mat
        raise KeyError("no class labeled %r" % (label,))

    def class_index_matrix(self) -> np.ndarray:
        """n x n matrix holding the class index of each vertex pair.

        Requires the classes to partition all pairs; raises otherwise.
        """
        idx = np.full((self.n, self.n), -1, dtype=np.int64)
        for i, mat in enumerate(self.matrices):
            overlap = (idx != -1) & (mat == 1)
            if overlap.any():
                x, y = np.argwhere(overlap)[0]
                raise ValueError("classes overlap at (%s, %s)"
                                 % (self.vertices[x], self.vertices[y]))
            idx[mat == 1] = i
        if (idx == -1).any():
            x, y = np.argwhere(idx == -1)[0]
            raise ValueError("pair (%s, %s) not covered by any class"
                             % (self.vertices[x], self.vertices[y]))
        return idx


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


def pair_counts(idx: np.ndarray, k: int) -> Union[np.ndarray, BadPair]:
    """Counts #{z : idx[x,z] = a, idx[z,y] = b}, checked to depend only on c.

    ``idx`` is an n x n matrix of class indices in 0..k-1.  For each
    source x the codes idx[x,z]*k + idx[z,y] are sorted over z, one sorted
    row per target y; two pairs have the same counts exactly when their
    sorted rows are equal.  Each row is compared with the row of the
    first pair, in row-major order, of its class idx[x,y].

    Returns the nonzero counts as rows (a, b, c, p_{a,b}^c), sorted by
    (c, a, b), or the first pair in row-major order that disagrees with
    its reference, at the first differing (a, b).  Codes are below k*k,
    so 16 bits hold them exactly up to k = 256; numpy 2 sorts 16-bit
    integers several times faster than 8- or 64-bit ones on x86.
    """
    n = idx.shape[0]
    idx = idx.astype(np.uint16 if k <= 256 else np.int64)
    idx_t = np.ascontiguousarray(idx.T)
    classes, first = np.unique(idx, return_index=True)
    ref = np.zeros((k, n), dtype=idx.dtype)
    ref[classes] = np.sort(idx[first // n] * k + idx_t[first % n], axis=1)
    for x in range(n):
        rows = np.sort(idx[x] * k + idx_t, axis=1)
        bad = np.flatnonzero((rows != ref[idx[x]]).any(axis=1))
        if bad.size:
            y = int(bad[0])
            c = int(idx[x, y])
            x_ref, y_ref = np.argwhere(idx == c)[0]
            counts = np.bincount(rows[y], minlength=k * k)
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
    p = {(labels[a], labels[b], labels[c]): Fraction(value)
         for a, b, c, value in counts.tolist()}
    return IntersectionTensor(labels=tuple(labels), identity=identity, p=p)


def verify_scheme_axioms(s: SchemeClasses) -> Certificate:
    """Certify the defining axioms of a symmetric association scheme.

    identity-class   exactly one class is the identity matrix
    symmetry         every class matrix is symmetric
    partition        the classes sum to the all-ones matrix
    closure          each product A_a A_b is constant on every class
                     support (the constants are the intersection numbers);
                     counted by :func:`pair_counts`, whose witness is the
                     first bad pair (x, y) in row-major order
    """
    checks: list[Check] = []

    ident = s.identity_index()
    checks.append(Check("identity-class", ident is not None,
                        None if ident is not None else witness(reason="no identity class")))

    sym_witness = None
    for lab, mat in zip(s.labels, s.matrices):
        if not np.array_equal(mat, mat.T):
            x, y = np.argwhere(mat != mat.T)[0]
            sym_witness = witness(label=lab, x=s.vertices[x], y=s.vertices[y])
            break
    checks.append(Check("symmetry", sym_witness is None, sym_witness))

    total = np.zeros((s.n, s.n), dtype=np.int64)
    for mat in s.matrices:
        total += mat
    part_witness = None
    if not (total == 1).all():
        x, y = np.argwhere(total != 1)[0]
        part_witness = witness(x=s.vertices[x], y=s.vertices[y],
                               coverage=int(total[x, y]))
    checks.append(Check("partition", part_witness is None, part_witness))

    if part_witness is None and sym_witness is None and ident is not None:
        counts = pair_counts(s.class_index_matrix(), len(s.matrices))
        closure_witness = (_pair_witness(counts, s.labels, s.vertices)
                           if isinstance(counts, BadPair) else None)
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
    tags (e.g. for parameterized families) or multi-indices.
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
        not).
        """
        checks: list[Check] = []
        neg = next((key for key, v in self.p.items() if v < 0), None)
        checks.append(Check("nonnegative", neg is None,
                            None if neg is None else
                            witness(a=neg[0], b=neg[1], c=neg[2], value=self.p[neg])))

        delta_witness = None
        for a, c in itertools.product(self.labels, repeat=2):
            expected = Fraction(1) if a == c else Fraction(0)
            if self.get(self.identity, a, c) != expected:
                delta_witness = witness(a=a, c=c,
                                        value=self.get(self.identity, a, c))
                break
        checks.append(Check("identity-rule", delta_witness is None, delta_witness))

        comm_witness = None
        for a, b, c in itertools.product(self.labels, repeat=3):
            if self.get(a, b, c) != self.get(b, a, c):
                comm_witness = witness(a=a, b=b, c=c,
                                       p_ab=self.get(a, b, c), p_ba=self.get(b, a, c))
                break
        checks.append(Check("commutativity", comm_witness is None, comm_witness))

        sum_witness = None
        for a, c in itertools.product(self.labels, repeat=2):
            total = sum((self.get(a, b, c) for b in self.labels), Fraction(0))
            if total != self.valency(a):
                sum_witness = witness(a=a, c=c, row_sum=total,
                                      valency=self.valency(a))
                break
        checks.append(Check("row-sums", sum_witness is None, sum_witness))

        if strict_integral:
            frac = next((key for key, v in self.p.items() if v.denominator != 1), None)
            checks.append(Check("integrality", frac is None,
                                None if frac is None else
                                witness(a=frac[0], b=frac[1], c=frac[2],
                                        value=self.p[frac])))
        return Certificate.of(checks)


def intersection_tensor(s: SchemeClasses) -> IntersectionTensor:
    """Read off intersection numbers, cross-checking every pair class.

    Requires :func:`verify_scheme_axioms` to hold; raises ``ValueError``
    with the first constancy violation otherwise.
    """
    ident = s.identity_index()
    if ident is None:
        raise ValueError("scheme has no identity class")
    counts = pair_counts(s.class_index_matrix(), len(s.matrices))
    if isinstance(counts, BadPair):
        raise ValueError(
            "not an association scheme: product %s*%s is not constant "
            "on class %s (pair %s,%s)"
            % (label_text(s.labels[counts.a]), label_text(s.labels[counts.b]),
               label_text(s.labels[counts.c]),
               s.vertices[counts.x], s.vertices[counts.y]))
    return _tensor_from_counts(counts, s.labels, s.labels[ident])


def _label_index(table: DistanceTable,
                 labels: Sequence[MultiIndex]) -> np.ndarray:
    """n x n matrix holding the position in ``labels`` of each distance."""
    position = {lab: i for i, lab in enumerate(labels)}
    return np.array([[position[lab] for lab in row] for row in table.labels],
                    dtype=np.int64)


def distance_matrices(table: DistanceTable,
                      idx: Optional[np.ndarray] = None) -> SchemeClasses:
    """0/1 matrices of the realized distance labels, sorted by the order.

    ``idx`` is the label index matrix of the table, if already built.
    """
    labels = table.sorted_labels()
    if idx is None:
        idx = _label_index(table, labels)
    mats = [(idx == c).astype(np.int64) for c in range(len(labels))]
    return SchemeClasses(labels=labels, matrices=mats,
                         vertices=table.graph.vertices)


# -- Generator products and monomial coordinates -------------------------------

def generator_rows(t: IntersectionTensor) -> dict:
    """Sparse view (e_i, a) -> [(b, p_{e_i,a}^b), ...] of the products
    A_{e_i} A_a, built in one pass over ``t.p``.

    Zero entries are left out and integral values become ints, so
    products of them stay ints.  Every e_i must be a class.
    """
    units = [MultiIndex.unit(t.m, c) for c in range(1, t.m + 1)]
    missing = [unit for unit in units if unit not in t.domain()]
    if missing:
        raise ValueError("generator %s is not a class label" % missing[0].as_text())
    rows: dict = {}
    for (g, a, b), value in t.p.items():
        if g in units and value != 0:
            value = Fraction(value)
            rows.setdefault((g, a), []).append(
                (b, value.numerator if value.denominator == 1 else value))
    return rows


class MonomialBasis:
    """Coordinates of products of generator classes in the class basis.

    ``vector(a)`` returns the coordinates of A_{e_1}^{a_1} ... A_{e_m}^{a_m},
    as ints, or Fractions where the tensor has them.  Vectors are built
    incrementally by applying generators through :func:`generator_rows`;
    when a multi-index has two nonzero entries the vector is computed
    along two different generator paths and compared, which verifies
    that the order of application is irrelevant.
    """

    def __init__(self, t: IntersectionTensor):
        if not t.labels_are_multiindex:
            raise ValueError("monomial coordinates need multi-index labels")
        self.tensor = t
        self.m = t.m
        self.rows = generator_rows(t)
        self.index = {lab: i for i, lab in enumerate(t.labels)}
        origin = MultiIndex.zero(self.m)
        if t.identity != origin:
            raise ValueError("identity class must be labeled o")
        unit_vec = [0] * len(t.labels)
        unit_vec[self.index[origin]] = 1
        self._cache: dict[MultiIndex, list] = {origin: unit_vec}

    def apply(self, gen: MultiIndex, vec: list) -> list:
        """Coordinates of A_gen times the element with coordinates ``vec``."""
        out = [0] * len(vec)
        for a, x in zip(self.tensor.labels, vec):
            if x:
                for b, value in self.rows.get((gen, a), ()):
                    out[self.index[b]] += value * x
        return out

    def vector(self, a: MultiIndex) -> list:
        if len(a) != self.m:
            raise ValueError("index has m=%d, tensor has m=%d" % (len(a), self.m))
        cached = self._cache.get(a)
        if cached is not None:
            return cached
        nonzero = [i for i, e in enumerate(a) if e > 0]
        paths = []
        for i in dict.fromkeys((nonzero[0], nonzero[-1])):
            gen = MultiIndex.unit(self.m, i + 1)
            paths.append(self.apply(gen, self.vector(a - gen)))
        if paths[0] != paths[-1]:
            raise ValueError(
                "generator matrices do not commute at %s; "
                "tensor is not from a commutative scheme" % a.as_text())
        self._cache[a] = paths[0]
        return paths[0]


def monomial_coeffs(t: IntersectionTensor, a: MultiIndex) -> list:
    """Coordinates of the monomial product A^a in the class basis."""
    return MonomialBasis(t).vector(a)


# -- m-distance-regularity ------------------------------------------------------

@dataclass
class MdrgResult:
    """Outcome of :func:`mdrg_check`: certificate plus artifacts on pass."""

    certificate: Certificate
    table: DistanceTable
    scheme: Optional[SchemeClasses]
    tensor: Optional[IntersectionTensor]


def mdrg_check(g: ColoredGraph, order: MonomialOrder) -> MdrgResult:
    """Certify that a connected colored graph is m-distance-regular.

    Checks that every unit e_i is a realized distance and that, for each
    ordered vertex pair, the vector of counts #{z : d(x,z)=a, d(z,y)=b}
    depends only on d(x,y).  The counts come from :func:`pair_counts`,
    the kernel that also checks scheme closure; its witness is the first
    bad pair in row-major order.  On success the distance matrices form
    an association scheme whose intersection numbers are those counts.
    """
    table = m_distance_table(g, order)
    labels = table.sorted_labels()

    checks: list[Check] = []
    missing = [c for c in range(1, g.m + 1)
               if MultiIndex.unit(g.m, c) not in table.realized]
    checks.append(Check(
        "colors-realized", not missing,
        None if not missing else witness(
            color=missing[0], unit=MultiIndex.unit(g.m, missing[0]),
            realized=sorted(lab.as_text() for lab in labels))))
    if missing:
        return MdrgResult(Certificate.of(checks), table, None, None)

    idx = _label_index(table, labels)
    counts = pair_counts(idx, len(labels))
    count_witness = (_pair_witness(counts, labels, g.vertices)
                     if isinstance(counts, BadPair) else None)
    checks.append(Check("regular-counts", count_witness is None, count_witness,
                        detail=None if count_witness else
                        "all %d vertex pairs consistent" % (g.n * g.n)))
    certificate = Certificate.of(checks)
    if count_witness is not None:
        return MdrgResult(certificate, table, None, None)
    tensor = _tensor_from_counts(counts, labels, MultiIndex.zero(g.m))
    return MdrgResult(certificate, table, distance_matrices(table, idx), tensor)


# -- Structural consequences (checked independently in the test suite) ----------

def check_triangle_conditions(t: IntersectionTensor,
                              order: MonomialOrder) -> Certificate:
    """p_{a,b}^c != 0 forces the three triangle bounds under the order."""
    for (a, b, c), value in t.p.items():
        if value == 0:
            continue
        for lhs, r1, r2, name in ((a, b, c, "a<=b+c"), (b, a, c, "b<=a+c"),
                                  (c, a, b, "c<=a+b")):
            if not order.leq(lhs, r1 + r2):  # type: ignore[operator]
                return Certificate.single(
                    "triangle", False,
                    witness(a=a, b=b, c=c, violated=name, value=value))
    return Certificate.single("triangle", True)


def check_additive_nonvanishing(t: IntersectionTensor) -> Certificate:
    """a, b, a+b all realized forces p_{a,b}^{a+b} != 0."""
    dom = t.domain()
    for a, b in itertools.product(sorted(dom), repeat=2):
        total = a + b  # type: ignore[operator]
        if total in dom and t.get(a, b, total) == 0:
            return Certificate.single("additive-nonvanishing", False,
                                      witness(a=a, b=b, sum=total))
    return Certificate.single("additive-nonvanishing", True)


def check_sum_decomposition(table: DistanceTable,
                            t: IntersectionTensor) -> Certificate:
    """Every componentwise split of a realized distance is realized.

    For each c in D and each b <= c componentwise there must exist, for
    every pair at distance c, a vertex z with d(x,z)=b and d(z,y)=c-b.
    With regularity certified the count of such z is the same for all
    pairs at distance c, so checking p_{b,c-b}^c != 0 covers every pair;
    one representative pair per class is additionally re-counted straight
    from the table.
    """
    dom = t.domain()
    g = table.graph
    rep: dict[MultiIndex, tuple[int, int]] = {}
    for i, row in enumerate(table.labels):
        for j, lab in enumerate(row):
            if lab not in rep:
                rep[lab] = (i, j)
    for c in sorted(dom):
        for b in box(tuple(c)):  # type: ignore[arg-type]
            remainder = c - b  # type: ignore[operator]
            if b not in dom or remainder not in dom:
                return Certificate.single(
                    "sum-decomposition", False,
                    witness(c=c, b=b, missing=b if b not in dom else remainder))
            if t.get(b, remainder, c) == 0:
                return Certificate.single("sum-decomposition", False,
                                          witness(c=c, b=b, count=0))
            x, y = rep[c]  # type: ignore[index]
            found = sum(1 for z in range(g.n)
                        if table.labels[x][z] == b and table.labels[z][y] == remainder)
            if found != t.get(b, remainder, c):
                return Certificate.single(
                    "sum-decomposition", False,
                    witness(c=c, b=b, recount=found, tensor=t.get(b, remainder, c)))
    return Certificate.single("sum-decomposition", True)


def check_walk_type_invariance(g: ColoredGraph, rng: random.Random,
                               samples: int = 50,
                               max_length: int = 4) -> Certificate:
    """Walk counts depend only on the multiset of edge colors.

    Samples (x, y, color sequence) triples and compares the walk count of
    every distinct permutation of the sequence.
    """
    for _ in range(samples):
        x = rng.choice(g.vertices)
        y = rng.choice(g.vertices)
        length = rng.randint(2, max_length)
        colors = tuple(rng.randint(1, g.m) for _ in range(length))
        perms = sorted(set(itertools.permutations(colors)))
        counts = [count_walks_by_type(g, x, y, perm) for perm in perms]
        if len(set(counts)) != 1:
            return Certificate.single(
                "walk-type-invariance", False,
                witness(x=x, y=y, types=[list(p) for p in perms],
                        counts=counts))
    return Certificate.single("walk-type-invariance", True,
                              detail="%d sampled triples" % samples)

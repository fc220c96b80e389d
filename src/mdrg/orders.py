"""Multi-indices and the orders used to compare per-color walk lengths.

A walk in a graph with edge colors 1..m has an m-length: the vector in N^m
counting how many edges of each color it uses.  Distances are minima of
such vectors, so everything downstream depends on how N^m is ordered.
This module provides:

    - MultiIndex: an immutable element of N^m with vector add.
    - MonomialOrder: total orders on N^m (degree-lex variants, lex,
      weighted degree-lex) that are translation invariant with minimum o.
    - PartialOrder: the two-parameter family ``ab:alpha,beta`` on N^2
      ((i,j) precedes (i',j') iff i+alpha*j <= i'+alpha*j' and
      beta*i+j <= beta*i'+j') and the componentwise order on N^m.
    - a validator for compatibility of a (partial, total) order pair on
      a finite box.
    - downset enumeration and domain-closure checks.
    - exact interval arithmetic for the feasible (alpha, beta) parameter
      region of a system of "b precedes c" constraints.

Both kinds of order compare multi-indices through integer weight rows W,
kept sparse (``sparse(m)``), and nothing else: a monomial order compares
W a lexicographically, a partial order entrywise; ``key`` and ``leq`` read
one multi-index, ``keys``, ``nonneg`` and ``walk`` a (k, m) array.  All
arithmetic is exact: parameters are ``fractions.Fraction``, and no
comparison ever goes through floating point.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .certificates import Certificate, Check, witness


class MultiIndex(tuple):
    """An element of N^m; supports vector ``+``.

    Entries are nonnegative ints.  Instances are hashable and usable as
    dict keys, and equal to the plain tuple of their entries.
    """

    def __new__(cls, entries: Iterable[int]) -> "MultiIndex":
        values = tuple(entries)
        for e in values:
            if not isinstance(e, int):
                raise TypeError("multi-index entries must be ints, got %r" % (e,))
            if e < 0:
                raise ValueError("multi-index entries must be >= 0, got %d" % e)
        return super().__new__(cls, values)

    @classmethod
    def zero(cls, m: int) -> "MultiIndex":
        return cls((0,) * m)

    @classmethod
    def unit(cls, m: int, color: int) -> "MultiIndex":
        """e_color for color in 1..m."""
        if not 1 <= color <= m:
            raise ValueError("color %d out of range 1..%d" % (color, m))
        return cls(tuple(1 if i == color - 1 else 0 for i in range(m)))

    @classmethod
    def parse(cls, text: str) -> "MultiIndex":
        parts = [p.strip() for p in text.split(",")]
        try:
            return cls(tuple(int(p) for p in parts))
        except ValueError as exc:
            raise ValueError("bad multi-index text %r" % text) from exc

    @property
    def degree(self) -> int:
        return sum(self)

    def as_text(self) -> str:
        return ",".join(str(e) for e in self)

    def __add__(self, other: "MultiIndex") -> "MultiIndex":  # type: ignore[override]
        if len(self) != len(other):
            raise ValueError("mixed lengths: %d vs %d" % (len(self), len(other)))
        return MultiIndex(tuple(a + b for a, b in zip(self, other)))

    def __radd__(self, other):
        # Returning NotImplemented would fall back to tuple concatenation,
        # silently producing a longer index; refuse outright.
        raise TypeError("cannot add %r to a multi-index" % (other,))

    def __repr__(self) -> str:
        return "MultiIndex(%s)" % (tuple(self),)


def box(bounds: Sequence[int]) -> Iterator[MultiIndex]:
    """All multi-indices a with 0 <= a_i <= bounds[i], in row-major order."""
    return map(MultiIndex, itertools.product(*(range(b + 1) for b in bounds)))


class _WeightRows:
    """W = (head rows, then the unit rows e_lo..e_{hi-1}) as ``sparse(m)`` = (head,
    lo, hi), so W a costs O(m); memoized by m in ``_forms``, errors not."""

    def sparse(self, m: int) -> tuple[tuple[tuple[int, ...], ...], int, int]:
        if m not in self._forms:
            self._forms[m] = self._weights(m)  # type: ignore[attr-defined]
        return self._forms[m]

    def forms(self, m: int) -> tuple[tuple[int, ...], ...]:
        head, lo, hi = self.sparse(m)
        return (*head, *(tuple(int(i == j) for j in range(m)) for i in range(lo, hi)))

    def key(self, a: MultiIndex) -> tuple[int, ...]:
        """W a, which heaps and sorts use directly."""
        head, lo, hi = self.sparse(len(a))
        return tuple([sum(map(operator.mul, row, a)) for row in head]) + tuple(a[lo:hi])

    def leq(self, a: MultiIndex, b: MultiIndex) -> bool:
        """a below b: W (b - a) >= 0, entrywise (partial) or lexicographically."""
        if len(a) != len(b):
            raise ValueError("mixed lengths: %d vs %d" % (len(a), len(b)))
        key = self.key(tuple(map(operator.sub, b, a)))
        return min(key) >= 0 if isinstance(self, PartialOrder) else key >= (0,) * len(key)

    def keys(self, coords: np.ndarray) -> np.ndarray:
        """W a for the rows a of an (n, m) integer array: int64 while max(1, max |a|) sum(W),
        a bound on every key and row sum, is below 2^63, else Python ints (object)."""
        head, lo, hi = self.sparse(coords.shape[1])
        top = max(1, int(np.abs(coords).max(initial=0))) * (sum(map(sum, head)) + hi - lo)
        coords = coords.astype(np.int64 if top < 2 ** 63 else object, copy=False)
        rows = np.array(head, coords.dtype).reshape(len(head), coords.shape[1])
        return np.concatenate([coords @ rows.T, coords[:, lo:hi]], axis=1)

    def nonneg(self, diffs: np.ndarray) -> np.ndarray:
        """W d >= 0 for each row d of an (n, m) integer array, as ``leq`` (a, a + d)."""
        diff = self.keys(diffs)
        return ((diff >= 0).all(axis=1) if isinstance(self, PartialOrder)
                else diff[np.arange(len(diff)), (diff != 0).argmax(axis=1)] >= 0)

    def walk(self, coords: np.ndarray) -> np.ndarray:
        """Rows of ``coords`` by ``key``; a partial order's by sum(W a), then a (W >= 0)."""
        keys = self.keys(coords)
        return np.lexsort((*coords.T[::-1], keys.sum(axis=1)) if isinstance(self, PartialOrder)
                          else keys.T[::-1])


# -- Total (monomial) orders --------------------------------------------------

DEGLEX_SUM = "deglex-sum"
DEGLEX_Y2 = "deglex-y2"
LEX = "lex"
WDEGLEX = "wdeglex"

_ORDER_KINDS = (DEGLEX_SUM, DEGLEX_Y2, LEX, WDEGLEX)


@dataclass(frozen=True)
class MonomialOrder(_WeightRows):
    """A total, translation-invariant well-order on N^m with minimum o.

    Kinds:
        ``deglex-sum``  total degree first, ties by leftmost entry (lex).
        ``deglex-y2``   total degree first, ties by the second entry;
                        defined for m = 2 only.
        ``lex``         plain lexicographic comparison.
        ``wdeglex``     weighted degree sum(w_i a_i) first, ties by lex;
                        weights are positive rationals.
    """

    kind: str
    weights: Optional[tuple[Fraction, ...]] = None
    _forms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in _ORDER_KINDS:
            raise ValueError("unknown order kind %r" % self.kind)
        if self.kind == WDEGLEX:
            if not self.weights:
                raise ValueError("wdeglex needs weights")
            if any(w <= 0 for w in self.weights):
                raise ValueError("wdeglex weights must be positive")
        elif self.weights is not None:
            raise ValueError("weights only apply to wdeglex")

    def _weights(self, m: int) -> tuple[tuple[tuple[int, ...], ...], int, int]:
        """Integer weight matrix W: a is below b iff W a < W b lexicographically.

        ``deglex-sum`` has W = [1...1; I_{m-1}], ``deglex-y2`` [[1,1],[0,1]],
        ``lex`` I, and ``wdeglex`` its weights times their common
        denominator over I_{m-1} (Robbiano's weight-matrix orders).  Every
        W is square, invertible and nonnegative, and read from the last row
        up each row brings in one new entry of a, so W a = d is solved by
        substitution.
        """
        if self.kind == LEX:
            return (), 0, m
        if self.kind == DEGLEX_Y2:
            if m != 2:
                raise ValueError("deglex-y2 is defined for m=2, got m=%d" % m)
            return ((1, 1),), 1, 2
        weights = self.weights or (1,) * m  # deglex-sum: unit weights
        if len(weights) != m:
            raise ValueError("wdeglex weights have length %d, index has m=%d"
                             % (len(weights), m))
        scale = math.lcm(*(w.denominator for w in weights))
        return (tuple(int(w * scale) for w in weights),), 0, m - 1

    def as_text(self) -> str:
        if self.kind == WDEGLEX:
            assert self.weights is not None
            return "wdeglex:" + ",".join(str(w) for w in self.weights)
        return self.kind

    @classmethod
    def parse(cls, text: str) -> "MonomialOrder":
        text = text.strip()
        if text.startswith("wdeglex:"):
            raw = text[len("wdeglex:"):]
            try:
                weights = tuple(Fraction(p.strip()) for p in raw.split(","))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError("bad wdeglex weights %r" % raw) from exc
            return cls(WDEGLEX, weights)
        if text in (DEGLEX_SUM, DEGLEX_Y2, LEX):
            return cls(text)
        raise ValueError("unknown order %r" % text)


# -- Partial orders ------------------------------------------------------------

AB = "ab"
COMPONENTWISE = "componentwise"


@dataclass(frozen=True)
class AlphaBeta:
    """Parameters for the two-inequality partial order on N^2.

    Requires 0 <= alpha <= 1 and 0 <= beta < 1; under these bounds
    alpha*beta < 1, so mutual precedence forces equality and the relation
    is a genuine partial order.
    """

    alpha: Fraction
    beta: Fraction

    def __post_init__(self) -> None:
        alpha, beta = Fraction(self.alpha), Fraction(self.beta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        if not (0 <= alpha <= 1):
            raise ValueError("alpha must lie in [0, 1], got %s" % alpha)
        if not (0 <= beta < 1):
            raise ValueError("beta must lie in [0, 1), got %s" % beta)


@dataclass(frozen=True)
class PartialOrder(_WeightRows):
    """Either ``ab:alpha,beta`` on N^2 or ``componentwise`` on N^m."""

    kind: str
    ab: Optional[AlphaBeta] = None
    _forms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in (AB, COMPONENTWISE):
            raise ValueError("unknown partial order kind %r" % self.kind)
        if (self.kind == AB) != (self.ab is not None):
            raise ValueError("ab parameters required iff kind is 'ab'")

    @classmethod
    def alpha_beta(cls, alpha, beta) -> "PartialOrder":
        return cls(AB, AlphaBeta(Fraction(alpha), Fraction(beta)))

    @classmethod
    def componentwise(cls) -> "PartialOrder":
        return cls(COMPONENTWISE)

    def _weights(self, m: int) -> tuple[tuple[tuple[int, ...], ...], int, int]:
        """Integer rows W with a preceding b iff W a <= W b entrywise.

        ``componentwise`` has W = I.  For ``ab`` with alpha = p/q and
        beta = p'/q' the rows are the two defining forms times their
        denominators, (q, p) and (p', q').  Every W is nonnegative with a
        positive diagonal.
        """
        if self.kind == COMPONENTWISE:
            return (), 0, m
        if m != 2:
            raise ValueError("ab order is defined for m=2, got m=%d" % m)
        assert self.ab is not None
        al, be = self.ab.alpha, self.ab.beta
        return ((al.denominator, al.numerator), (be.numerator, be.denominator)), 0, 0

    def as_text(self) -> str:
        if self.kind == COMPONENTWISE:
            return COMPONENTWISE
        assert self.ab is not None
        return "ab:%s,%s" % (self.ab.alpha, self.ab.beta)

    @classmethod
    def parse(cls, text: str) -> "PartialOrder":
        text = text.strip()
        if text == COMPONENTWISE:
            return cls.componentwise()
        if text.startswith("ab:"):
            raw = text[len("ab:"):]
            parts = raw.split(",")
            if len(parts) != 2:
                raise ValueError("ab order needs two parameters, got %r" % raw)
            try:
                alpha, beta = (Fraction(p.strip()) for p in parts)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError("bad ab parameters %r" % raw) from exc
            return cls.alpha_beta(alpha, beta)
        raise ValueError("unknown partial order %r" % text)


def downset_enum(a: MultiIndex, p: PartialOrder) -> Iterator[MultiIndex]:
    """All b in N^m with b preceding a, lazily, in row-major order.

    The rows W of ``p.forms`` are nonnegative with a positive diagonal,
    so b below a gives W_jj b_j <= (W b)_j <= (W a)_j: the box
    b_j <= (W a)_j // W_jj holds the downset, and is scanned.
    """
    bounds = [sum(map(operator.mul, row, a)) // row[j]
              for j, row in enumerate(p.forms(len(a)))]
    return (b for b in box(bounds) if p.leq(b, a))


# -- Validators ----------------------------------------------------------------

def validate_pair_compat(p: PartialOrder, order: MonomialOrder,
                         box_bound: int, m: int) -> Certificate:
    """Test that a partial order and a total order form a compatible pair.

    On [0, box_bound]^m:
        refines-order   a precedes b implies a <= b under the total order
        origin-below    o precedes every point

    A built-in partial order is a <= b entrywise under nonnegative integer
    forms W (:meth:`PartialOrder.forms`), and a built-in monomial order
    compares keys W' a, W' nonnegative and invertible.  So origin-below
    holds, as W a >= 0 for a >= 0.  And componentwise (W = I) refines every
    built-in monomial order: if a precedes b, a != b, then x = b - a >= 0
    is nonzero, so W' x >= 0 is nonzero too, hence lexicographically
    positive, and a sorts strictly below b.

    Only ``ab`` (m = 2) is searched, in O(B) integer steps and O(1)
    memory, B = box_bound.  W(a+c) <= W(b+c) iff W a <= W b, so a pair
    (a, b) is bad by x = b - a alone: W x >= 0 and W' x lexicographically
    negative.  Such an x has one negative entry (x >= 0 makes W' x
    positive, and x <= 0 gives (W x)_j <= W_jj x_j < 0 where x_j < 0), so
    it is (u, -t) or (-t, u) with t >= 1.  It fits at a iff a >= max(0, -x)
    and a + x <= B, so it first fits at a = (0, t), b = (u, 0), or at
    a = (t, 0), b = (0, u); every (0, t) comes before every (t', 0) in
    row-major order.  For a fixed shape and t, W x and W' x grow entrywise
    with u, so W x >= 0 holds from a least u, a ceiling division per row,
    and W' x is lexicographically least there: that u, if at most B, is
    the only candidate.  A row with zero u-weight and positive t-weight
    rules a shape out, and the least u never shrinks as t grows.  The
    least bad t of the first shape that has one gives a, and its u gives
    b: the row-major-first bad pair, as a scan of all pairs would find.
    """
    order.sparse(m)  # ValueError where the order does not apply at m
    bad = _first_bad_pair(p.forms(m), order.forms(m), box_bound) if p.kind == AB else None
    return Certificate.of([
        Check("refines-order", bad is None,
              bad and witness(a=bad[0], b=bad[1], order=order.as_text())),
        Check("origin-below", True)])


def _first_bad_pair(weights, keys, box_bound: int):
    """The first bad (a, b) of :func:`validate_pair_compat` for m = 2, or None."""
    for pos, neg in ((0, 1), (1, 0)):  # x_pos = u >= 0, x_neg = -t < 0
        if not all(row[pos] for row in weights):  # then row[neg] > 0: no t fits
            continue
        for t in range(1, box_bound + 1):
            u = max(-(-row[neg] * t // row[pos]) for row in weights)
            if u > box_bound:
                break
            x = (u, -t) if pos == 0 else (-t, u)
            if tuple(sum(map(operator.mul, row, x)) for row in keys) < (0, 0):
                return (MultiIndex(max(0, -e) for e in x), MultiIndex(max(0, e) for e in x))
    return None


def check_domain(dom: Iterable[MultiIndex],
                 mode: Union[str, PartialOrder]) -> Certificate:
    """Closure of a finite domain D in N^m.

    ``mode="box"`` asks for componentwise (box) closure: every a' <= a
    componentwise with a in D lies in D.  Passing a :class:`PartialOrder`
    asks D to be a downset of that order.  The witness names the least
    element of D with a gap below it and the first missing index in
    row-major order.  For a box that a is the least with some a - e_i not in
    D (unit steps down to a gap leave D at some c - e_i, c in D, c <= a).
    """
    dset = frozenset(dom)
    if not dset:
        return Certificate.single("domain-nonempty", False, witness(reason="empty domain"))
    ms = {len(a) for a in dset}
    if len(ms) != 1:
        return Certificate.single("domain-uniform", False, witness(lengths=sorted(ms)))
    if mode == "box":
        name, below = "box-closure", lambda a: box(tuple(a))
        dom = (a for a in sorted(dset) for i, e in enumerate(a)
               if e and a[:i] + (e - 1,) + a[i + 1:] not in dset)
    elif isinstance(mode, PartialOrder):
        name, below, dom = "downset-closure", lambda a: downset_enum(a, mode), sorted(dset)
    else:
        raise ValueError("mode must be 'box' or a PartialOrder, got %r" % (mode,))
    gap = next(((a, b) for a in dom for b in below(a) if b not in dset), None)
    return Certificate.single(name, gap is None, None if gap is None
                              else witness(element=gap[0], missing=gap[1]))


# -- Exact intervals and (alpha, beta) feasibility ------------------------------

@dataclass(frozen=True)
class Interval:
    """A rational interval with independently open/closed endpoints."""

    lo: Fraction
    hi: Fraction
    lo_closed: bool = True
    hi_closed: bool = True

    @property
    def empty(self) -> bool:
        if self.lo > self.hi:
            return True
        return self.lo == self.hi and not (self.lo_closed and self.hi_closed)

    def intersect(self, other: "Interval") -> "Interval":
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        # an endpoint that both share is closed iff closed in both
        return Interval(lo, hi,
                        all(i.lo_closed for i in (self, other) if i.lo == lo),
                        all(i.hi_closed for i in (self, other) if i.hi == hi))

    def clamp_leq(self, t: Fraction, closed: bool = True) -> "Interval":
        """Intersect with {x <= t} (closed) or {x < t}."""
        return self.intersect(Interval(self.lo, t, self.lo_closed, closed))

    def clamp_geq(self, t: Fraction, closed: bool = True) -> "Interval":
        """Intersect with {x >= t} (closed) or {x > t}."""
        return self.intersect(Interval(t, self.hi, closed, self.hi_closed))

    def as_text(self) -> str:
        if self.empty:
            return "empty"
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return "%s%s, %s%s" % (left, self.lo, self.hi, right)


ALPHA_RANGE = Interval(Fraction(0), Fraction(1), True, True)
BETA_RANGE = Interval(Fraction(0), Fraction(1), True, False)

ABConstraint = tuple[MultiIndex, MultiIndex]


@dataclass(frozen=True)
class ABRegion:
    """A product of exact intervals inside [0,1] x [0,1)."""

    alpha: Interval
    beta: Interval

    @property
    def empty(self) -> bool:
        return self.alpha.empty or self.beta.empty

    def as_text(self) -> str:
        if self.empty:
            return "empty"
        return "alpha in %s, beta in %s" % (self.alpha.as_text(), self.beta.as_text())


def ab_feasible_region(constraints: Iterable[ABConstraint]) -> Optional[ABRegion]:
    """Exact parameter region where every constraint ``b precedes c`` holds.

    Each constraint splits into one inequality in alpha alone and one in
    beta alone, so the feasible set is a product of intervals intersected
    with alpha in [0,1], beta in [0,1).  Returns None when empty.
    """
    axes = [ALPHA_RANGE, BETA_RANGE]
    for b, c in constraints:
        if len(b) != 2 or len(c) != 2:
            raise ValueError("ab constraints take m=2 indices")
        # alpha: b1 + alpha*b2 <= c1 + alpha*c2  <=>  alpha*(b2-c2) <= c1-b1
        # beta:  beta*b1 + b2 <= beta*c1 + c2    <=>  beta*(b1-c1) <= c2-b2
        for axis, (i, j) in enumerate(((0, 1), (1, 0))):
            coef, rhs = b[j] - c[j], Fraction(c[i] - b[i])
            if coef > 0:
                axes[axis] = axes[axis].clamp_leq(rhs / coef)
            elif coef < 0:
                axes[axis] = axes[axis].clamp_geq(rhs / coef)
            elif rhs < 0:
                return None
        if axes[0].empty or axes[1].empty:
            return None
    region = ABRegion(*axes)
    return None if region.empty else region

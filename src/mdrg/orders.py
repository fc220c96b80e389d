"""Multi-indices and the orders used to compare per-color walk lengths.

A walk in a graph with edge colors 1..m has an m-length: the vector in N^m
counting how many edges of each color it uses.  Distances are minima of
such vectors, so everything downstream depends on how N^m is ordered.
This module provides:

    - MultiIndex: an immutable element of N^m with vector add/subtract.
    - MonomialOrder: total orders on N^m (degree-lex variants, lex,
      weighted degree-lex) that are translation invariant with minimum o.
    - PartialOrder: the two-parameter family ``ab:alpha,beta`` on N^2
      ((i,j) precedes (i',j') iff i+alpha*j <= i'+alpha*j' and
      beta*i+j <= beta*i'+j') and the componentwise order on N^m.
    - exhaustive validators for the order axioms and for compatibility of
      a (partial, total) order pair on a finite box.
    - downset enumeration and domain-closure checks.
    - exact interval arithmetic for the feasible (alpha, beta) parameter
      region of a system of "b precedes c" constraints.

All arithmetic is exact: parameters are ``fractions.Fraction``, and no
comparison ever goes through floating point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cmp_to_key
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .certificates import Certificate, Check, witness


class Comparison(Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


class MultiIndex(tuple):
    """An element of N^m; supports vector ``+`` and ``-``.

    Entries are nonnegative ints.  Subtraction is only defined when the
    result stays in N^m.  Instances are hashable and usable as dict keys.
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
    def m(self) -> int:
        return len(self)

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

    def __sub__(self, other: "MultiIndex") -> "MultiIndex":
        if len(self) != len(other):
            raise ValueError("mixed lengths: %d vs %d" % (len(self), len(other)))
        diff = tuple(a - b for a, b in zip(self, other))
        if any(d < 0 for d in diff):
            raise ValueError("difference %s - %s leaves N^m" % (self, other))
        return MultiIndex(diff)

    def __repr__(self) -> str:
        return "MultiIndex(%s)" % (tuple(self),)


def componentwise_leq(a: MultiIndex, b: MultiIndex) -> bool:
    if len(a) != len(b):
        raise ValueError("mixed lengths: %d vs %d" % (len(a), len(b)))
    return all(x <= y for x, y in zip(a, b))


def box(bounds: Sequence[int]) -> Iterator[MultiIndex]:
    """All multi-indices a with 0 <= a_i <= bounds[i], in row-major order."""
    for values in itertools.product(*(range(b + 1) for b in bounds)):
        yield MultiIndex(values)


# -- Total (monomial) orders --------------------------------------------------

DEGLEX_SUM = "deglex-sum"
DEGLEX_Y2 = "deglex-y2"
LEX = "lex"
WDEGLEX = "wdeglex"

_ORDER_KINDS = (DEGLEX_SUM, DEGLEX_Y2, LEX, WDEGLEX)


@dataclass(frozen=True)
class MonomialOrder:
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

    # All built-in kinds admit a sort key; heaps and sorts use it directly.
    def key(self, a: MultiIndex):
        if self.kind == DEGLEX_SUM:
            return (a.degree, tuple(a))
        if self.kind == DEGLEX_Y2:
            if len(a) != 2:
                raise ValueError("deglex-y2 is defined for m=2, got m=%d" % len(a))
            return (a.degree, a[1])
        if self.kind == LEX:
            return tuple(a)
        assert self.kind == WDEGLEX
        if self.weights is None or len(self.weights) != len(a):
            raise ValueError("wdeglex weights have length %s, index has m=%d"
                             % (None if self.weights is None else len(self.weights), len(a)))
        wdeg = sum((w * e for w, e in zip(self.weights, a)), Fraction(0))
        return (wdeg, tuple(a))

    def compare(self, a: MultiIndex, b: MultiIndex) -> Comparison:
        if len(a) != len(b):
            raise ValueError("mixed lengths: %d vs %d" % (len(a), len(b)))
        ka, kb = self.key(a), self.key(b)
        if ka < kb:
            return Comparison.LESS
        if ka > kb:
            return Comparison.GREATER
        return Comparison.EQUAL

    def leq(self, a: MultiIndex, b: MultiIndex) -> bool:
        return self.compare(a, b) is not Comparison.GREATER

    def lt(self, a: MultiIndex, b: MultiIndex) -> bool:
        return self.compare(a, b) is Comparison.LESS

    def min_of(self, items: Iterable[MultiIndex]) -> MultiIndex:
        return min(items, key=self.key)

    def sorted(self, items: Iterable[MultiIndex]) -> list[MultiIndex]:
        return sorted(items, key=self.key)

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


def compare_monomial(order: MonomialOrder, a: MultiIndex, b: MultiIndex) -> Comparison:
    """Compare under a total order; one of LESS / EQUAL / GREATER."""
    return order.compare(a, b)


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
class PartialOrder:
    """Either ``ab:alpha,beta`` on N^2 or ``componentwise`` on N^m."""

    kind: str
    ab: Optional[AlphaBeta] = None

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

    def precedes(self, a: MultiIndex, b: MultiIndex) -> bool:
        """True iff a is below-or-equal b in this partial order."""
        if len(a) != len(b):
            raise ValueError("mixed lengths: %d vs %d" % (len(a), len(b)))
        if self.kind == COMPONENTWISE:
            return componentwise_leq(a, b)
        if len(a) != 2:
            raise ValueError("ab order is defined for m=2, got m=%d" % len(a))
        assert self.ab is not None
        al, be = self.ab.alpha, self.ab.beta
        return (a[0] + al * a[1] <= b[0] + al * b[1]
                and be * a[0] + a[1] <= be * b[0] + b[1])

    def forms(self, m: int) -> list[tuple[int, ...]]:
        """Integer rows W with a preceding b iff W a <= W b entrywise.

        ``componentwise`` has W = I.  For ``ab`` with alpha = p/q and
        beta = p'/q' the rows are the two defining forms times their
        denominators, (q, p) and (p', q').
        """
        if self.kind == COMPONENTWISE:
            return [tuple(int(i == j) for j in range(m)) for i in range(m)]
        if m != 2:
            raise ValueError("ab order is defined for m=2, got m=%d" % m)
        assert self.ab is not None
        al, be = self.ab.alpha, self.ab.beta
        return [(al.denominator, al.numerator), (be.numerator, be.denominator)]

    def key(self, a: MultiIndex):
        """Sort key of a linear extension: a strictly below b sorts first.

        If a strictly precedes b, no form is larger at a and, the forms
        being injective together, one is smaller; so is their sum.
        """
        total = sum(w * e for row in self.forms(len(a)) for w, e in zip(row, a))
        return (total, tuple(a))

    def compare(self, a: MultiIndex, b: MultiIndex) -> Comparison:
        ab_ = self.precedes(a, b)
        ba = self.precedes(b, a)
        if ab_ and ba:
            # Only possible at a == b: the defining forms are injective
            # on the valid parameter range.
            return Comparison.EQUAL
        if ab_:
            return Comparison.LESS
        if ba:
            return Comparison.GREATER
        return Comparison.INCOMPARABLE

    def downset(self, a: MultiIndex) -> frozenset[MultiIndex]:
        return downset_enum(a, self)

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


def compare_partial(p: PartialOrder, a: MultiIndex, b: MultiIndex) -> Comparison:
    """Compare under a partial order; INCOMPARABLE when neither precedes."""
    return p.compare(a, b)


def downset_enum(a: MultiIndex, p: PartialOrder) -> frozenset[MultiIndex]:
    """All b in N^m with b preceding a.  Finite by the order axioms.

    For ``ab`` the two defining inequalities bound each coordinate:
    b1 <= a1 + alpha*a2 and b2 <= beta*a1 + a2, so enumerating the box
    spanned by those bounds suffices.  For ``componentwise`` the box is a
    itself.
    """
    if p.kind == COMPONENTWISE:
        return frozenset(b for b in box(tuple(a)))
    if len(a) != 2:
        raise ValueError("ab order is defined for m=2, got m=%d" % len(a))
    assert p.ab is not None
    al, be = p.ab.alpha, p.ab.beta
    hi1 = int(a[0] + al * a[1])
    hi2 = int(be * a[0] + a[1])
    return frozenset(b for b in box((hi1, hi2)) if p.precedes(b, a))


# -- Validators ----------------------------------------------------------------

CompareFn = Callable[[MultiIndex, MultiIndex], Comparison]


def _as_compare(order: Union[MonomialOrder, CompareFn]) -> CompareFn:
    if isinstance(order, MonomialOrder):
        return order.compare
    return order


def validate_monomial_order(order: Union[MonomialOrder, CompareFn],
                            m: int, box_bound: int) -> Certificate:
    """Exhaustively test the total-order axioms on [0, box_bound]^m.

    Checks, each with a concrete witness on failure:
        totality        every pair compares LESS/EQUAL/GREATER
        antisymmetry    EQUAL iff identical, and compare(a,b)
                        mirrors compare(b,a)
        transitivity    LESS is transitive over all triples
        translation     compare(a,b) == compare(a+c, b+c) for all triples
        origin-minimum  o is strictly below every other point

    Well-orderedness is not decidable by sampling; on N^m it follows from
    translation invariance plus o being the minimum, which are tested.
    """
    cmp = _as_compare(order)
    points = list(box((box_bound,) * m))
    checks: list[Check] = []

    tot_witness = None
    for a, b in itertools.product(points, repeat=2):
        if cmp(a, b) is Comparison.INCOMPARABLE:
            tot_witness = witness(a=a, b=b)
            break
    checks.append(Check("totality", tot_witness is None, tot_witness))

    anti_witness = None
    for a, b in itertools.product(points, repeat=2):
        rel, rev = cmp(a, b), cmp(b, a)
        if (rel is Comparison.EQUAL) != (a == b):
            anti_witness = witness(a=a, b=b, relation=rel.value)
            break
        mirror = {Comparison.LESS: Comparison.GREATER,
                  Comparison.GREATER: Comparison.LESS,
                  Comparison.EQUAL: Comparison.EQUAL}.get(rel)
        if mirror is not None and rev is not mirror:
            anti_witness = witness(a=a, b=b, relation=rel.value, reverse=rev.value)
            break
    checks.append(Check("antisymmetry", anti_witness is None, anti_witness))

    trans_witness = None
    for a, b, c in itertools.product(points, repeat=3):
        if (cmp(a, b) is Comparison.LESS and cmp(b, c) is Comparison.LESS
                and cmp(a, c) is not Comparison.LESS):
            trans_witness = witness(a=a, b=b, c=c)
            break
    checks.append(Check("transitivity", trans_witness is None, trans_witness))

    shift_witness = None
    for a, b, c in itertools.product(points, repeat=3):
        if cmp(a, b) is not cmp(a + c, b + c):
            shift_witness = witness(a=a, b=b, shift=c)
            break
    checks.append(Check("translation", shift_witness is None, shift_witness))

    origin = MultiIndex.zero(m)
    min_witness = None
    for a in points:
        if a != origin and cmp(origin, a) is not Comparison.LESS:
            min_witness = witness(a=a)
            break
    checks.append(Check("origin-minimum", min_witness is None, min_witness))

    return Certificate.of(checks)


def validate_pair_compat(p: PartialOrder, order: MonomialOrder,
                         box_bound: int, m: Optional[int] = None) -> Certificate:
    """Test that a partial order and a total order form a compatible pair.

    On [0, box_bound]^m:
        refines-order   a precedes b implies a <= b under the total order
        translation     a precedes b implies a+c precedes b+c
        origin-below    o precedes every point

    The partial order is evaluated once, through its integer forms
    (:meth:`PartialOrder.forms`; forms of a+c are sums), and the total
    order through the ranks of its keys.  Each witness is the first in
    row-major order of the points, pairs or triples.
    """
    if m is None:
        if p.kind == AB:
            m = 2
        else:
            raise ValueError("m is required for the componentwise order")
    points = list(box((box_bound,) * m))
    weights = p.forms(m)
    # Form values of a+c are at most 2 * box_bound * (largest row sum);
    # below 2**62 int64 holds them exactly, above it Python ints do.
    big = 2 * box_bound * max(sum(row) for row in weights) >= 2 ** 62
    dtype = object if big else np.int64
    forms = np.array(points, dtype=dtype) @ np.array(weights, dtype=dtype).T
    keys = [order.key(a) for a in points]
    rank = {key: r for r, key in enumerate(sorted(set(keys)))}
    ranks = np.array([rank[key] for key in keys])
    n = len(points)
    precedes = (forms[:, None, :] <= forms[None, :, :]).all(axis=2)
    checks: list[Check] = []

    bad = precedes & ~np.eye(n, dtype=bool) & (ranks[:, None] >= ranks[None, :])
    refine_witness = None
    if bad.any():
        a, b = np.argwhere(bad)[0]
        refine_witness = witness(a=points[a], b=points[b], order=order.as_text())
    checks.append(Check("refines-order", refine_witness is None, refine_witness))

    shift_witness = None
    sums = forms[:, None, :] + forms[None, :, :]
    for a in range(n):
        moved = ((forms[a] + forms)[None, :, :] <= sums).all(axis=2)
        bad = precedes[a][:, None] & ~moved
        if bad.any():
            b, c = np.argwhere(bad)[0]
            shift_witness = witness(a=points[a], b=points[b], shift=points[c])
            break
    checks.append(Check("translation", shift_witness is None, shift_witness))

    # points[0] is the origin
    below = np.flatnonzero(~precedes[0])
    below_witness = witness(a=points[below[0]]) if below.size else None
    checks.append(Check("origin-below", below_witness is None, below_witness))

    return Certificate.of(checks)


def check_domain(dom: Iterable[MultiIndex],
                 mode: Union[str, PartialOrder]) -> Certificate:
    """Closure of a finite domain D in N^m.

    ``mode="box"`` asks for componentwise (box) closure: every a' <= a
    componentwise with a in D lies in D.  Passing a :class:`PartialOrder`
    asks D to be a downset of that order.  The witness names an element of
    D and the missing smaller index.
    """
    dset = frozenset(dom)
    if not dset:
        return Certificate.single("domain-nonempty", False, witness(reason="empty domain"))
    ms = {len(a) for a in dset}
    if len(ms) != 1:
        return Certificate.single("domain-uniform", False,
                                  witness(lengths=sorted(ms)))
    if isinstance(mode, str):
        if mode != "box":
            raise ValueError("mode must be 'box' or a PartialOrder, got %r" % mode)
        name = "box-closure"
        below: Callable[[MultiIndex], Iterable[MultiIndex]] = lambda a: box(tuple(a))
    else:
        name = "downset-closure"
        below = lambda a: downset_enum(a, mode)
    for a in sorted(dset):
        for b in below(a):
            if b not in dset:
                return Certificate.single(name, False, witness(element=a, missing=b))
    return Certificate.single(name, True)


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

    def contains(self, x: Fraction) -> bool:
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and not self.lo_closed:
            return False
        if x == self.hi and not self.hi_closed:
            return False
        return True

    def intersect(self, other: "Interval") -> "Interval":
        if self.lo > other.lo:
            lo, lo_closed = self.lo, self.lo_closed
        elif self.lo < other.lo:
            lo, lo_closed = other.lo, other.lo_closed
        else:
            lo, lo_closed = self.lo, self.lo_closed and other.lo_closed
        if self.hi < other.hi:
            hi, hi_closed = self.hi, self.hi_closed
        elif self.hi > other.hi:
            hi, hi_closed = other.hi, other.hi_closed
        else:
            hi, hi_closed = self.hi, self.hi_closed and other.hi_closed
        return Interval(lo, hi, lo_closed, hi_closed)

    def clamp_leq(self, t: Fraction, closed: bool = True) -> "Interval":
        """Intersect with {x <= t} (closed) or {x < t}."""
        return self.intersect(Interval(self.lo, t, self.lo_closed, closed))

    def clamp_geq(self, t: Fraction, closed: bool = True) -> "Interval":
        """Intersect with {x >= t} (closed) or {x > t}."""
        return self.intersect(Interval(t, self.hi, closed, self.hi_closed))

    def remove_leq(self, t: Fraction, removed_closed: bool = True) -> "Interval":
        """Subtract {x <= t} (or {x < t}); the result is again an interval."""
        if t < self.lo or (t == self.lo and not removed_closed and not self.lo_closed):
            return self
        return Interval(t, self.hi, not removed_closed, self.hi_closed)

    def remove_geq(self, t: Fraction, removed_closed: bool = True) -> "Interval":
        """Subtract {x >= t} (or {x > t}); the result is again an interval."""
        if t > self.hi or (t == self.hi and not removed_closed and not self.hi_closed):
            return self
        return Interval(self.lo, t, self.lo_closed, not removed_closed)

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

    def contains(self, alpha: Fraction, beta: Fraction) -> bool:
        return self.alpha.contains(alpha) and self.beta.contains(beta)

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
    alpha, beta = ALPHA_RANGE, BETA_RANGE
    for b, c in constraints:
        if len(b) != 2 or len(c) != 2:
            raise ValueError("ab constraints take m=2 indices")
        # b1 + alpha*b2 <= c1 + alpha*c2  <=>  alpha*(b2-c2) <= c1-b1
        coef, rhs = b[1] - c[1], Fraction(c[0] - b[0])
        if coef > 0:
            alpha = alpha.clamp_leq(rhs / coef)
        elif coef < 0:
            alpha = alpha.clamp_geq(rhs / coef)
        elif rhs < 0:
            return None
        # beta*b1 + b2 <= beta*c1 + c2  <=>  beta*(b1-c1) <= c2-b2
        coef, rhs = b[0] - c[0], Fraction(c[1] - b[1])
        if coef > 0:
            beta = beta.clamp_leq(rhs / coef)
        elif coef < 0:
            beta = beta.clamp_geq(rhs / coef)
        elif rhs < 0:
            return None
        if alpha.empty or beta.empty:
            return None
    region = ABRegion(alpha, beta)
    return None if region.empty else region


def order_key_function(order: Union[MonomialOrder, CompareFn]):
    """A sort key for heaps: native keys for built-ins, cmp wrapper else."""
    if isinstance(order, MonomialOrder):
        return order.key

    def as_int(a: MultiIndex, b: MultiIndex) -> int:
        rel = order(a, b)
        if rel is Comparison.LESS:
            return -1
        if rel is Comparison.GREATER:
            return 1
        if rel is Comparison.EQUAL:
            return 0
        raise ValueError("comparator returned INCOMPARABLE; not a total order")

    return cmp_to_key(as_int)

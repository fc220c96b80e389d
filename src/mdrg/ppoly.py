"""P-polynomial certification for multi-index-labeled schemes.

A scheme whose classes carry multi-index labels is m-variate
P-polynomial with respect to a monomial order when its label set D is
box-closed, every product A_{e_i} A_a expands over labels at most
a + e_i, and the coefficient at exactly a + e_i never vanishes while
a + e_i stays in D.  Each class is then a polynomial in the generator
classes A_{e_1}..A_{e_m}; those polynomials are read off the recurrence
x_i v_a = sum_b p_{e_i,a}^b v_b, and the boundary span condition is a
triangular elimination against the monomial vectors, both over a sparse
view of the generator products.  A refined variant replaces the order window by a
compatible partial order; the two-parameter family ``ab:alpha,beta``
gives the type-(alpha, beta) notion, whose exact feasible parameter
region is also computed.  Finally, labelings can be discovered from the
bare scheme matrices by trying every ordered generator tuple.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .certificates import Certificate, Check, witness
# Not called here; kept as module attributes that perfbench/tracing.py wraps.
from .exactlinalg import in_span, mat_vec, solve_columns  # noqa: F401
from .graphs import ColoredGraph
from .orders import (ABRegion, AlphaBeta, Interval, MonomialOrder, MultiIndex,
                     PartialOrder, ab_feasible_region, box, check_domain,
                     validate_pair_compat)
from .schemes import (IntersectionTensor, Label, MonomialBasis, SchemeClasses,
                      label_text, mdrg_check, verify_scheme_axioms)


class IncompatibleOrderPairError(ValueError):
    """The partial order does not refine the monomial order on the
    covering box; refined certification is not meaningful for the pair."""


class ExtractionError(ValueError):
    """The recurrence cannot produce a polynomial: a zero leading
    coefficient, or a product reaching a class outside the window.

    With certification passed this cannot happen; it signals that the
    prerequisite was skipped or an internal inconsistency."""


# -- Polynomials -----------------------------------------------------------------

class Polynomial:
    """A polynomial over Q in m variables, stored as multidegree -> coefficient."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[MultiIndex, Fraction]):
        cleaned = {}
        for a, value in coeffs.items():
            value = Fraction(value)
            if value != 0:
                cleaned[MultiIndex(a)] = value
        self._coeffs = cleaned

    def coeff(self, a: MultiIndex) -> Fraction:
        return self._coeffs.get(a, Fraction(0))

    def terms(self) -> list[tuple[MultiIndex, Fraction]]:
        return sorted(self._coeffs.items(), key=lambda kv: (kv[0].degree, tuple(kv[0])))

    def monomials(self) -> frozenset[MultiIndex]:
        return frozenset(self._coeffs)

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self._coeffs)
        for a, value in other._coeffs.items():
            out[a] = out.get(a, Fraction(0)) + value
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(Fraction(-1))

    def scale(self, factor: Fraction) -> "Polynomial":
        return Polynomial({a: factor * v for a, v in self._coeffs.items()})

    def shift(self, color: int) -> "Polynomial":
        """Multiply by the variable x_color (1-based)."""
        if not self._coeffs:
            return self
        m = len(next(iter(self._coeffs)))
        e = MultiIndex.unit(m, color)
        return Polynomial({a + e: v for a, v in self._coeffs.items()})

    def evaluate(self, arguments: Sequence[np.ndarray]) -> np.ndarray:
        """Evaluate at pairwise-commuting square matrices over Fraction.

        Arguments are numpy object arrays; the result is exact.
        """
        if not arguments:
            raise ValueError("need one matrix per variable")
        n = arguments[0].shape[0]
        eye = np.array([[Fraction(1) if i == j else Fraction(0)
                         for j in range(n)] for i in range(n)], dtype=object)
        powers: dict[MultiIndex, np.ndarray] = {}

        def monomial(a: MultiIndex) -> np.ndarray:
            if a in powers:
                return powers[a]
            if a.degree == 0:
                value = eye
            else:
                i = next(k for k, e in enumerate(a) if e > 0)
                value = arguments[i] @ monomial(a - MultiIndex.unit(len(a), i + 1))
            powers[a] = value
            return value

        total = np.array([[Fraction(0)] * n for _ in range(n)], dtype=object)
        for a, coefficient in self._coeffs.items():
            total = total + monomial(a) * coefficient
        return total

    def as_text(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for a, v in self.terms():
            parts.append("%s*x^(%s)" % (v, a.as_text()))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return "Polynomial(%s)" % self.as_text()


# -- Labelings -------------------------------------------------------------------

@dataclass(frozen=True)
class Labeling:
    """A bijection from class tags to multi-indices."""

    pairs: tuple[tuple[Label, MultiIndex], ...]

    @classmethod
    def from_dict(cls, mapping: Mapping[Label, MultiIndex]) -> "Labeling":
        return cls(tuple(sorted(mapping.items(), key=lambda kv: label_text(kv[0]))))

    def as_dict(self) -> dict[Label, MultiIndex]:
        return dict(self.pairs)

    def apply(self, t: IntersectionTensor) -> IntersectionTensor:
        """Relabel a tensor; the identity class must receive the origin."""
        mapping = self.as_dict()
        if set(mapping) != set(t.labels):
            raise ValueError("labeling names %s but the tensor has classes %s"
                             % (sorted(map(label_text, mapping)),
                                sorted(map(label_text, t.labels))))
        values = list(mapping.values())
        ms = {len(v) for v in values}
        if len(ms) != 1:
            raise ValueError("labeling mixes multi-index lengths")
        if len(set(values)) != len(values):
            raise ValueError("labeling is not injective")
        origin = MultiIndex.zero(ms.pop())
        if mapping[t.identity] != origin:
            raise ValueError("labeling must send the identity class %s to %s"
                             % (label_text(t.identity), origin.as_text()))
        return t.relabel(mapping)  # type: ignore[arg-type]

    def as_text(self) -> str:
        return ";".join("%s=%s" % (label_text(tag), idx.as_text())
                        for tag, idx in self.pairs)

    @classmethod
    def parse(cls, text: str) -> "Labeling":
        mapping: dict[Label, MultiIndex] = {}
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            if "=" not in chunk:
                raise ValueError("bad labeling entry %r" % chunk)
            tag, _, idx = chunk.partition("=")
            tag = tag.strip()
            if tag in mapping:
                raise ValueError("tag %r labeled twice" % tag)
            mapping[tag] = MultiIndex.parse(idx)
        if not mapping:
            raise ValueError("empty labeling")
        return cls.from_dict(mapping)


# -- Certification ---------------------------------------------------------------

def _structural_checks(t: IntersectionTensor) -> tuple[list[Check], Optional[int]]:
    if not t.labels_are_multiindex:
        raise ValueError("certification needs multi-index labels; apply a labeling")
    m = t.m
    origin = MultiIndex.zero(m)
    checks = [Check("identity-at-origin", t.identity == origin,
                    None if t.identity == origin else witness(identity=t.identity))]
    missing = [c for c in range(1, m + 1)
               if MultiIndex.unit(m, c) not in t.domain()]
    checks.append(Check("generators-realized", not missing,
                        None if not missing else
                        witness(color=missing[0],
                                unit=MultiIndex.unit(m, missing[0]))))
    return checks, m


def _window_checks(t: IntersectionTensor, m: int, leq, window_text: str,
                   successors_only: bool = False) -> list[Check]:
    dom = t.domain()
    units = [MultiIndex.unit(m, c) for c in range(1, m + 1)]
    window_witness = None
    for unit in units:
        for a in sorted(dom):
            up = a + unit  # type: ignore[operator]
            if successors_only and up not in dom:
                continue
            for b in sorted(dom):
                value = t.get(unit, a, b)
                if value != 0 and not leq(b, up):
                    window_witness = witness(generator=unit, a=a, b=b,
                                             bound=up, value=value,
                                             window=window_text)
                    break
            if window_witness:
                break
        if window_witness:
            break
    checks = [Check("products-within-window", window_witness is None,
                    window_witness)]

    succ_witness = None
    for unit in units:
        for a in sorted(dom):
            up = a + unit  # type: ignore[operator]
            if up in dom and t.get(unit, a, up) == 0:
                succ_witness = witness(generator=unit, a=a, successor=up)
                break
        if succ_witness:
            break
    checks.append(Check("successor-nonzero", succ_witness is None, succ_witness))
    return checks


def certify_ppoly(t: IntersectionTensor, order: MonomialOrder) -> Certificate:
    """Certify the m-variate P-polynomial property w.r.t. a monomial order.

    Checks: the identity is labeled o and every unit e_i is a class
    (structure), D is box-closed, every nonzero p_{e_i,a}^b has
    b <= a + e_i under the order, and p_{e_i,a}^{a+e_i} != 0 whenever
    a + e_i stays in D.
    """
    checks, m = _structural_checks(t)
    checks.extend(check_domain(t.domain(), "box").checks)
    checks.extend(_window_checks(t, m, order.leq, order.as_text()))
    return Certificate.of(checks)


def certify_ppoly_refined(t: IntersectionTensor, order: MonomialOrder,
                          partial: PartialOrder) -> Certificate:
    """Refined certification: the window is a compatible partial order.

    The pair (partial, order) is first validated on a box covering
    D + e_i; an incompatible pair raises
    :class:`IncompatibleOrderPairError` (a usage error, not a property
    failure of the scheme).
    """
    checks, m = _structural_checks(t)
    bound = max((max(a) for a in t.domain()), default=0) + 1  # type: ignore[arg-type]
    compat = validate_pair_compat(partial, order, bound, m=m)
    if not compat.passed:
        raise IncompatibleOrderPairError(
            "partial order %s does not refine %s on the covering box: %s"
            % (partial.as_text(), order.as_text(), compat.witness))
    checks.extend(check_domain(t.domain(), "box").checks)
    checks.extend(_window_checks(t, m, partial.precedes, partial.as_text()))
    return Certificate.of(checks)


def _eliminate(vec: list, rows: dict[int, tuple]) -> Optional[int]:
    """Reduce ``vec`` in place against echelon rows, top position first.

    ``rows`` maps a pivot position r to (pivot, [(s, value), ...]) with
    every s below r.  Returns None when ``vec`` reduces to zero, else its
    top nonzero position, on which no row pivots.
    """
    for r in range(len(vec) - 1, -1, -1):
        if not vec[r]:
            continue
        if r not in rows:
            return r
        pivot, entries = rows[r]
        factor = Fraction(vec[r]) / pivot
        vec[r] = 0
        for s, value in entries:
            vec[s] -= factor * value
    return None


def boundary_check(t: IntersectionTensor,
                   order: Optional[MonomialOrder] = None,
                   partial: Optional[PartialOrder] = None) -> Certificate:
    """Span condition at the boundary of D.

    For every a in D with a + e_i outside D, the product A_{e_i} A^a must
    lie in the span of the monomials A^b with b in D and b below a + e_i
    (under the order, or the partial order if given).  Tested exactly by
    reducing the product against an echelon of the window's monomial
    vectors, each pivoted on its largest class under the order.  On a
    certified tensor A^b tops out at class b, so the vectors are their
    own echelon and each case costs one pass over the product.
    """
    if (order is None) == (partial is None):
        raise ValueError("give exactly one of order/partial")
    leq = order.leq if order is not None else partial.precedes  # type: ignore[union-attr]
    key = order.key if order is not None else partial.key  # type: ignore[union-attr]
    basis = MonomialBasis(t)
    m = t.m
    dom = sorted(t.domain())
    units = [MultiIndex.unit(m, c) for c in range(1, m + 1)]
    # position r of a reordered vector holds the r-th class under the order
    positions = [basis.index[lab] for lab in sorted(dom, key=key)]
    cases = 0
    for a in dom:
        for unit in units:
            up = a + unit  # type: ignore[operator]
            if up in basis.index:
                continue
            cases += 1
            window = [b for b in dom if leq(b, up)]
            rows: dict[int, tuple] = {}
            for b in window:
                vec = [basis.vector(b)[i] for i in positions]
                top = _eliminate(vec, rows)
                if top is not None:
                    rows[top] = (vec[top], [(s, value) for s, value
                                            in enumerate(vec[:top]) if value])
            target = basis.apply(unit, basis.vector(a))
            if _eliminate([target[i] for i in positions], rows) is not None:
                return Certificate.single(
                    "boundary-span", False,
                    witness(generator=unit, a=a, bound=up, window=window))
    return Certificate.single("boundary-span", True,
                              detail="%d boundary cases" % cases)


def extract_polynomials(t: IntersectionTensor,
                        order: Optional[MonomialOrder] = None,
                        partial: Optional[PartialOrder] = None
                        ) -> tuple[dict[MultiIndex, Polynomial], Certificate]:
    """Defining polynomials v_n with v_n(A_{e_1}..A_{e_m}) = A_n.

    Read off the recurrence x_i v_a = sum_b p_{e_i,a}^b v_b: for n in D
    other than o, with e_i its first color and a = n - e_i,

        v_n = (x_i v_a - sum_{b != n} p_{e_i,a}^b v_b) / p_{e_i,a}^n,

    taking D in increasing order (for a partial order, a linear
    extension), so every v on the right is already known.  The returned
    certificate records that every leading coefficient is nonzero.
    Raises :class:`ExtractionError` when p_{e_i,a}^n is zero or some b on
    the right is not below n (certification prerequisite violated).  The
    monomial vectors of D are built first, so generators that do not
    commute raise ``ValueError`` as in :class:`MonomialBasis`.
    """
    if (order is None) == (partial is None):
        raise ValueError("give exactly one of order/partial")
    leq = order.leq if order is not None else partial.precedes  # type: ignore[union-attr]
    key = order.key if order is not None else partial.key  # type: ignore[union-attr]
    basis = MonomialBasis(t)
    dom = sorted(t.domain())
    for n in dom:
        basis.vector(n)
    origin = MultiIndex.zero(t.m)
    polys = {origin: Polynomial({origin: Fraction(1)})}
    for n in sorted(dom, key=key)[1:]:  # o sorts first
        unit = MultiIndex.unit(t.m, next(i for i, e in enumerate(n) if e) + 1)
        a = n - unit
        row = dict(basis.rows.get((unit, a), ()))
        lead = row.pop(n, 0)
        if not lead:
            raise ExtractionError("p_{%s,%s}^%s is zero; certify the scheme first"
                                  % (unit.as_text(), a.as_text(), n.as_text()))
        outside = [b for b in row if not leq(b, n)]
        if outside:
            raise ExtractionError(
                "A_%s A_%s reaches A_%s, which is not below %s; certify the "
                "scheme first" % (unit.as_text(), a.as_text(),
                                  outside[0].as_text(), n.as_text()))
        coeffs = {c + unit: value for c, value in polys[a]._coeffs.items()}
        for b, p in row.items():
            for c, value in polys[b]._coeffs.items():
                coeffs[c] = coeffs.get(c, 0) - p * value
        polys[n] = Polynomial({c: value / lead for c, value in coeffs.items()})
    polys = {n: polys[n] for n in dom}
    lead_witness = next((witness(n=n) for n in dom if polys[n].coeff(n) == 0),
                        None)
    certificate = Certificate.of([
        Check("unique-solution", True,
              detail="%d polynomials extracted" % len(polys)),
        Check("leading-nonzero", lead_witness is None, lead_witness),
    ])
    return polys, certificate


def verify_recurrences(polys: Mapping[MultiIndex, Polynomial],
                       t: IntersectionTensor,
                       partial: Optional[PartialOrder] = None) -> Certificate:
    """Check x_i v_a = sum_b p_{e_i,a}^b v_b for every a + e_i in D.

    With a partial order given, additionally checks that every class b
    contributing to the right side lies below a + e_i.
    """
    m = t.m
    dom = sorted(t.domain())
    units = [MultiIndex.unit(m, c) for c in range(1, m + 1)]
    support_witness = None
    identity_witness = None
    for color, unit in enumerate(units, start=1):
        for a in dom:
            up = a + unit  # type: ignore[operator]
            if up not in t.domain():
                continue
            if a not in polys:
                raise ValueError("no polynomial for class %s" % a.as_text())
            lhs = polys[a].shift(color)
            rhs = Polynomial({})
            for b in dom:
                value = t.get(unit, a, b)
                if value == 0:
                    continue
                if (partial is not None and support_witness is None
                        and not partial.precedes(b, up)):
                    support_witness = witness(generator=unit, a=a, b=b,
                                              bound=up)
                if b not in polys:
                    raise ValueError("no polynomial for class %s" % b.as_text())
                rhs = rhs + polys[b].scale(value)
            if identity_witness is None and lhs != rhs:
                diff = lhs - rhs
                mono = sorted(diff.monomials())[0]
                identity_witness = witness(
                    generator=unit, a=a, monomial=mono,
                    lhs=lhs.coeff(mono), rhs=rhs.coeff(mono))
    checks = [Check("recurrence-identity", identity_witness is None,
                    identity_witness)]
    if partial is not None:
        checks.append(Check("recurrence-support", support_witness is None,
                            support_witness))
    return Certificate.of(checks)


# -- Type (alpha, beta) -----------------------------------------------------------

def _as_partial(ab: Union[PartialOrder, AlphaBeta, tuple]) -> PartialOrder:
    if isinstance(ab, PartialOrder):
        return ab
    if isinstance(ab, AlphaBeta):
        return PartialOrder("ab", ab)
    alpha, beta = ab
    return PartialOrder.alpha_beta(alpha, beta)


def certify_type_ab(t: IntersectionTensor,
                    ab: Union[PartialOrder, AlphaBeta, tuple]) -> Certificate:
    """Certify the type-(alpha, beta) property of a bivariate labeling.

    D must be a downset of the (alpha, beta) partial order; for every
    a and a + e_i both in D the coefficients p_{e_i,a}^{a+e_i} and
    p_{e_i,a+e_i}^a must be nonzero; and every nonzero p_{e_i,a}^b with
    a + e_i in D must satisfy b below a + e_i.  Unlike plain
    certification, nothing is imposed at boundary steps leaving D.
    """
    partial = _as_partial(ab)
    if partial.kind != "ab":
        raise ValueError("type certification needs an ab partial order")
    checks, m = _structural_checks(t)
    if m != 2:
        raise ValueError("type-(alpha,beta) certification needs m=2, got m=%d" % m)
    checks.extend(check_domain(t.domain(), partial).checks)

    dom = t.domain()
    units = [MultiIndex.unit(2, 1), MultiIndex.unit(2, 2)]
    step_witness = None
    for unit in units:
        for a in sorted(dom):
            up = a + unit  # type: ignore[operator]
            if up not in dom:
                continue
            if t.get(unit, a, up) == 0:
                step_witness = witness(generator=unit, a=a, successor=up,
                                       direction="up")
                break
            if t.get(unit, up, a) == 0:
                step_witness = witness(generator=unit, a=a, successor=up,
                                       direction="down")
                break
        if step_witness:
            break
    checks.append(Check("unit-step-nonzero", step_witness is None, step_witness))
    checks.extend(_window_checks(t, 2, partial.precedes, partial.as_text(),
                                 successors_only=True)[:1])
    return Certificate.of(checks)


def ab_region_for_scheme(t: IntersectionTensor) -> Optional[ABRegion]:
    """Exact set of (alpha, beta) for which :func:`certify_type_ab` passes.

    The window conditions contribute "b below a+e_i" constraints, each a
    pair of half-line conditions on alpha and beta separately; the
    downset condition contributes exclusions "b never below a" for b
    outside D.  The result is a product of intervals (None when empty);
    configurations whose feasible set is not a product raise ValueError.
    """
    checks, m = _structural_checks(t)
    if m != 2:
        raise ValueError("parameter regions need m=2, got m=%d" % m)
    if not all(c.passed for c in checks):
        return None
    dom = t.domain()
    units = [MultiIndex.unit(2, 1), MultiIndex.unit(2, 2)]

    # Parameter-free requirements first: both unit-step coefficients.
    for unit in units:
        for a in sorted(dom):
            up = a + unit  # type: ignore[operator]
            if up in dom and (t.get(unit, a, up) == 0 or t.get(unit, up, a) == 0):
                return None

    constraints = []
    for unit in units:
        for a in sorted(dom):
            up = a + unit  # type: ignore[operator]
            if up not in dom:
                continue
            for b in sorted(dom):
                if t.get(unit, a, b) != 0:
                    constraints.append((b, up))
    region = ab_feasible_region(constraints)
    if region is None:
        return None
    alpha, beta = region.alpha, region.beta

    exclusions = []
    for a in sorted(dom):
        bound = a[0] + a[1]
        for b in box((bound, bound)):
            if b not in dom:
                exclusions.append((b, a))

    def halfline(coef: int, rhs: int):
        if coef > 0:
            return ("leq", Fraction(rhs, coef))
        if coef < 0:
            return ("geq", Fraction(rhs, coef))
        return ("all",) if rhs >= 0 else ("none",)

    def solution_set(line, interval: Interval) -> Interval:
        if line[0] == "all":
            return interval
        if line[0] == "none":
            return Interval(Fraction(1), Fraction(0))
        if line[0] == "leq":
            return interval.clamp_leq(line[1])
        return interval.clamp_geq(line[1])

    def remove(line, interval: Interval) -> Interval:
        if line[0] == "leq":
            return interval.remove_leq(line[1])
        assert line[0] == "geq"
        return interval.remove_geq(line[1])

    # Each exclusion removes its solution rectangle.  A rectangle touching
    # both parameter axes properly cannot be subtracted from a product of
    # intervals; such exclusions are retried after others shrink the
    # region and only reported once the region is stable.
    for _ in range(len(exclusions) + 2):
        changed = False
        blocked = None
        for b, a in exclusions:
            line_a = halfline(b[1] - a[1], a[0] - b[0])
            line_b = halfline(b[0] - a[0], a[1] - b[1])
            sol_a = solution_set(line_a, alpha)
            sol_b = solution_set(line_b, beta)
            if sol_a.empty or sol_b.empty:
                continue
            covers_a = sol_a == alpha
            covers_b = sol_b == beta
            if covers_a and covers_b:
                return None
            if covers_b:
                alpha = remove(line_a, alpha)
                changed = True
            elif covers_a:
                beta = remove(line_b, beta)
                changed = True
            else:
                blocked = (b, a)
                continue
            if alpha.empty or beta.empty:
                return None
        if not changed:
            if blocked is not None:
                raise ValueError(
                    "feasible region is not a product of intervals: "
                    "excluding %s below %s cuts a corner"
                    % (blocked[0].as_text(), blocked[1].as_text()))
            break
    region = ABRegion(alpha, beta)
    return None if region.empty else region


# -- Labeling discovery ------------------------------------------------------------

@dataclass
class Discovery:
    """A successful labeling: generator tuple, tag-to-index map, certificate."""

    generators: tuple[Label, ...]
    labeling: Labeling
    certificate: Certificate


def discover_labelings(s: SchemeClasses, m: int,
                       order: MonomialOrder) -> list[Discovery]:
    """All ordered generator m-tuples realizing the scheme by distances.

    For each ordered tuple of distinct non-identity classes, colors the
    union graph by the tuple and accepts when the m-distance matrices
    coincide with the scheme's classes as a set and the graph certifies
    m-distance-regular.  Candidates whose union graph is disconnected
    are skipped (their distances are undefined).
    """
    axioms = verify_scheme_axioms(s)
    if not axioms.passed:
        raise ValueError("input is not an association scheme: %s" % axioms.witness)
    ident = s.identity_index()
    assert ident is not None
    candidates = [i for i in range(len(s.matrices)) if i != ident]
    if not 1 <= m <= len(candidates):
        raise ValueError("m must lie in 1..%d" % len(candidates))
    by_bytes = {mat.tobytes(): i for i, mat in enumerate(s.matrices)}
    found: list[Discovery] = []
    for tup in itertools.permutations(candidates, m):
        edges: list[tuple[str, str, int]] = []
        for color, class_index in enumerate(tup, start=1):
            mat = s.matrices[class_index]
            for x, y in np.argwhere(np.triu(mat, 1) == 1):
                edges.append((s.vertices[x], s.vertices[y], color))
        graph = ColoredGraph(m, s.vertices, edges)
        if not graph.is_connected():
            continue
        result = mdrg_check(graph, order)
        if not result.certificate.passed or result.scheme is None:
            continue
        if len(result.scheme.matrices) != len(s.matrices):
            continue
        mapping: dict[Label, MultiIndex] = {}
        matched = True
        for lab, mat in zip(result.scheme.labels, result.scheme.matrices):
            index = by_bytes.get(mat.tobytes())
            if index is None:
                matched = False
                break
            mapping[s.labels[index]] = lab  # type: ignore[assignment]
        if not matched:
            continue
        found.append(Discovery(
            generators=tuple(s.labels[i] for i in tup),
            labeling=Labeling.from_dict(mapping),
            certificate=result.certificate))
    return found

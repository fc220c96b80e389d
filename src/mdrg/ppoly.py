"""P-polynomial certification for multi-index-labeled schemes.

A scheme whose classes carry multi-index labels is m-variate
P-polynomial with respect to a monomial order when its label set D is
box-closed, every product A_{e_i} A_a expands over labels at most
a + e_i, and the coefficient at exactly a + e_i never vanishes while
a + e_i stays in D.  Each class is then a polynomial in the generator
classes A_{e_1}..A_{e_m}; those polynomials are read off the recurrence
x_i v_a = sum_b p_{e_i,a}^b v_b, and the boundary span condition follows
from a certified window by a triangularity proof.  Every step check reads
the successor table ``t.steps`` and the generator rows, slices of the
tensor's sorted arrays, on class positions.  A refined variant replaces
the order window by a compatible partial order; the two-parameter family
``ab:alpha,beta`` gives the type-(alpha, beta) notion, whose exact
feasible parameter region, always a product of intervals, is computed in
one pass.  Finally, labelings can be discovered from a bare scheme by
trying every ordered generator tuple on its intersection numbers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

from .certificates import Certificate, Check, witness
# Not called here; kept as module attributes that perfbench/tracing.py wraps.
from .exactlinalg import in_span, mat_vec, solve_columns  # noqa: F401
from .schemes import mdrg_check  # noqa: F401
from .graphs import least_labels
from .orders import (ABRegion, MonomialOrder, MultiIndex,
                     PartialOrder, ab_feasible_region, box, check_domain,
                     validate_pair_compat)
from .schemes import (IntersectionTensor, Label, SchemeClasses,
                      intersection_tensor, label_text, verify_scheme_axioms)


# The order a window check reads: ``leq``, ``key`` and ``as_text``.
Window = Union[MonomialOrder, PartialOrder]


class IncompatibleOrderPairError(ValueError):
    """The partial order does not refine the monomial order on the
    covering box; refined certification is not meaningful for the pair."""


class ExtractionError(ValueError):
    """The recurrence cannot produce a polynomial: a zero leading
    coefficient, or a product reaching a class outside the window.

    With certification passed this cannot happen; it signals that the
    prerequisite was skipped or an internal inconsistency."""


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

    def keyed_by(self, labels: Sequence[Label]) -> dict[Label, MultiIndex]:
        """The map keyed by ``labels``, matched to the tags by text form
        ("1,0" names (1, 0)); ValueError unless they name exactly those."""
        by_text = {label_text(tag): idx for tag, idx in self.pairs}
        texts = [label_text(lab) for lab in labels]
        if set(by_text) != set(texts):
            raise ValueError("labeling names %s but the tensor has classes %s"
                             % (sorted(by_text), sorted(texts)))
        return {lab: by_text[text] for lab, text in zip(labels, texts)}

    def apply(self, t: IntersectionTensor) -> IntersectionTensor:
        """Relabel a tensor; the identity class must receive the origin."""
        mapping = self.keyed_by(t.labels)
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
    m, origin = t.m, not any(t.identity)
    checks = [Check("identity-at-origin", origin,
                    None if origin else witness(identity=t.identity))]
    missing = next((i + 1 for i, g in enumerate(t.steps.gens.tolist()) if g < 0), None)
    checks.append(Check("generators-realized", missing is None, None if missing is None
                        else witness(color=missing, unit=MultiIndex.unit(m, missing))))
    return checks, m


def _steps(t: IntersectionTensor) -> tuple[dict, list]:
    """Rows {(g, a): {b: p_{g,a}^b}} for each generator g that is a class,
    each the slice of the sorted arrays at (g, a) with b in label order, and
    steps (i, g, a, up, rows[g, a] or {}) for each color i and class a in
    label order, with g and up the positions of e_i and a + e_i (``t.steps``)."""
    gens, up, order, at = t.steps
    rows: dict = {}
    for g, a, b, v in zip(*(col[at].tolist() for col in (t.a, t.b, t.c, t.num))):
        rows.setdefault((g, a), {})[b] = v // t.den if v % t.den == 0 else Fraction(v, t.den)
    order = order.tolist()
    return rows, [(i, g, a, u, rows.get((g, a), {})) for i, (g, ups)
                  in enumerate(zip(gens.tolist(), up[:, order].tolist()))
                  for a, u in zip(order, ups)]


def _outside_window(t: IntersectionTensor, steps, leq, window_text: str) -> Optional[dict]:
    """Witness of the first p_{e_i,a}^b in the rows of ``steps`` with b not
    below a + e_i, made as a multi-index only where it is no class."""
    labels = t.labels
    return next((witness(generator=labels[g], a=labels[a], b=labels[b], bound=bound,
                         value=Fraction(value), window=window_text)
                 for _, g, a, up, row in steps if row
                 for bound in (labels[up] if up >= 0 else labels[a] + labels[g],)
                 for b, value in row.items() if not leq(labels[b], bound)), None)


def certify_ppoly(t: IntersectionTensor, window: Window) -> Certificate:
    """Certify the m-variate P-polynomial property w.r.t. a window order.

    Checks: the identity is labeled o and every unit e_i is a class
    (structure), D is box-closed, every nonzero p_{e_i,a}^b has
    b <= a + e_i under the order, and p_{e_i,a}^{a+e_i} != 0 whenever
    a + e_i stays in D.
    """
    checks, _ = _structural_checks(t)
    checks.extend(check_domain(t.labels, "box").checks)
    (_, steps), labels = _steps(t), t.labels
    window_witness = _outside_window(t, steps, window.leq, window.as_text())
    succ_witness = next((witness(generator=MultiIndex.unit(t.m, i + 1), a=labels[a],
                                 successor=labels[up])
                         for i, g, a, up, row in steps if up >= 0 and up not in row), None)
    checks.append(Check("products-within-window", window_witness is None, window_witness))
    checks.append(Check("successor-nonzero", succ_witness is None, succ_witness))
    return Certificate.of(checks)


def certify_ppoly_refined(t: IntersectionTensor, order: MonomialOrder,
                          partial: PartialOrder) -> Certificate:
    """Refined certification: the window is a compatible partial order.

    The pair (partial, order) is first validated on a box covering
    D + e_i; an incompatible pair raises
    :class:`IncompatibleOrderPairError` (a usage error, not a property
    failure of the scheme).
    """
    _, m = _structural_checks(t)
    bound = max((max(a) for a in t.labels), default=0) + 1  # type: ignore[arg-type]
    compat = validate_pair_compat(partial, order, bound, m=m)
    if not compat.passed:
        raise IncompatibleOrderPairError(
            "partial order %s does not refine %s on the covering box: %s"
            % (partial.as_text(), order.as_text(), compat.witness))
    return certify_ppoly(t, partial)


def boundary_check(t: IntersectionTensor, window: Window) -> Certificate:
    """Span condition at the boundary of D, certified by proof.

    For a in D with a + e_i outside D, A_{e_i} A^a lies in the span of the
    monomials A^b, b in D below a + e_i under ``window``, wherever
    :func:`certify_ppoly` passes under ``window``; it is re-run, and
    ValueError names its first failing check.  Proof: the window compares
    linear forms, so b <= a implies b + e <= a + e.  By induction A^a =
    lambda_a A_a + sum_{c < a} mu_c A_c, lambda_a != 0: for a = n + e_i,
    A^a = lambda_n A_{e_i} A_n + sum_{c < n} mu_c A_{e_i} A_c, and the
    window check gives p_{e_i,n}^a != 0 and every other class <= a, or
    <= c + e_i < a, boundary steps included.  So span{A^b : b <= u} =
    span{A_c : c <= u}, which holds A_{e_i} A^a for u = a + e_i likewise.
    """
    hypotheses = certify_ppoly(t, window)
    if not hypotheses.passed:
        raise ValueError("boundary span needs a certified window: %s" % hypotheses.witness)
    cases = int((t.steps.up < 0).sum())
    return Certificate.single("boundary-span", True, detail="%d boundary cases" % cases)


def _residual(polys: Mapping[MultiIndex, Mapping], unit: MultiIndex,
              a: MultiIndex, row: Mapping[int, Fraction], labels: Sequence) -> dict:
    """x_i v_a - sum_b p_{e_i,a}^b v_b over ``row`` = {b: p_{e_i,a}^b}, b a
    position in ``labels``: a coefficient map that may hold zeros.  ValueError
    names the first of a, then the b in row order, that has no polynomial."""
    for b in (a, *(labels[b] for b in row)):
        if b not in polys:
            raise ValueError("no polynomial for class %s" % b.as_text())
    diff = {c + unit: value for c, value in polys[a].items()}
    for b, p in row.items():
        for c, value in polys[labels[b]].items():
            diff[c] = diff.get(c, 0) - p * value
    return diff


def extract_polynomials(t: IntersectionTensor, window: Window
                        ) -> tuple[dict[MultiIndex, dict], Certificate]:
    """Defining polynomials v_n with v_n(A_{e_1}..A_{e_m}) = A_n, each a
    zero-free map multidegree -> Fraction coefficient.

    Read off the recurrence x_i v_a = sum_b p_{e_i,a}^b v_b: for n in D
    other than o, with e_i its first color and a = n - e_i,

        v_n = (x_i v_a - sum_{b != n} p_{e_i,a}^b v_b) / p_{e_i,a}^n,

    taking D in increasing ``window.key`` order (for a partial order, a
    linear extension), so every v on the right is already known.  The
    returned certificate records that every leading coefficient is
    nonzero.  Raises :class:`ExtractionError` when p_{e_i,a}^n is zero or
    some b on the right is not below n under ``window`` (certification
    prerequisite violated).
    """
    labels, (gens, _, order, _), (rows, _) = t.labels, t.steps, _steps(t)
    where = {lab: n for n, lab in enumerate(labels)}
    origin = MultiIndex.zero(t.m)
    polys = {origin: {origin: Fraction(1)}}
    for n in sorted(order.tolist(), key=lambda n: window.key(labels[n]))[1:]:  # o first
        top = labels[n]
        i = next(i for i, e in enumerate(top) if e)
        below = top[:i] + (top[i] - 1,) + top[i + 1:]
        g, a = int(gens[i]), where.get(below, -1)
        row = dict(rows.get((g, a), {}))
        lead = row.pop(n, 0)
        if not lead:
            raise ExtractionError("p_{%s,%s}^%s is zero; certify the scheme first" % tuple(
                x.as_text() for x in (MultiIndex.unit(t.m, i + 1), MultiIndex(below), top)))
        outside = [b for b in row if not window.leq(labels[b], top)]
        if outside:
            raise ExtractionError(
                "A_%s A_%s reaches A_%s, which is not below %s; certify the "
                "scheme first" % (labels[g].as_text(), labels[a].as_text(),
                                  labels[outside[0]].as_text(), top.as_text()))
        polys[top] = {c: value / lead for c, value
                      in _residual(polys, labels[g], labels[a], row, labels).items() if value}
    lead_witness = next((witness(n=n) for n in sorted(polys) if not polys[n].get(n)), None)
    certificate = Certificate.of([
        Check("unique-solution", True,
              detail="%d polynomials extracted" % len(polys)),
        Check("leading-nonzero", lead_witness is None, lead_witness),
    ])
    return polys, certificate


def verify_recurrences(polys: Mapping[MultiIndex, Mapping[MultiIndex, Fraction]],
                       t: IntersectionTensor,
                       partial: Optional[PartialOrder] = None) -> Certificate:
    """Check x_i v_a = sum_b p_{e_i,a}^b v_b for every a + e_i in D.

    With a partial order given, additionally checks that every class b
    contributing to the right side lies below a + e_i.  An identity
    witness names the least monomial, as a tuple, where the sides differ,
    with the coefficient of each side.
    """
    labels, support_witness, identity_witness = t.labels, None, None
    for i, g, a, up, row in _steps(t)[1]:
        if up < 0:
            continue
        unit = labels[g] if g >= 0 else MultiIndex.unit(t.m, i + 1)
        a, up = labels[a], labels[up]
        diff = _residual(polys, unit, a, row, labels)
        if partial is not None and support_witness is None:
            support_witness = next((witness(generator=unit, a=a, b=labels[b], bound=up)
                                    for b in row if not partial.leq(labels[b], up)), None)
        if identity_witness is None and any(diff.values()):
            mono = min(c for c, value in diff.items() if value)
            lhs = Fraction(polys[a].get(mono[:i] + (mono[i] - 1,) + mono[i + 1:], 0)
                           if mono[i] else 0)
            identity_witness = witness(
                generator=unit, a=a, monomial=mono,
                lhs=lhs, rhs=Fraction(lhs - diff[mono]))
    checks = [Check("recurrence-identity", identity_witness is None, identity_witness)]
    if partial is not None:
        checks.append(Check("recurrence-support", support_witness is None, support_witness))
    return Certificate.of(checks)


# -- Type (alpha, beta) -----------------------------------------------------------

def _type_ab_requirements(t: IntersectionTensor) -> tuple[Optional[dict], list]:
    """The requirements of the type-(alpha, beta) property on the steps
    a -> a + e_i inside D, in one pass over the generator rows: the
    witness of the first step whose coefficient p_{e_i,a}^{a+e_i} (up) or
    p_{e_i,a+e_i}^a (down) is zero, and those steps, whose rows each ask
    every b below a + e_i.

    :func:`certify_type_ab` and :func:`ab_region_for_scheme` both read
    them, so the certificate and the region cannot drift apart.
    """
    (rows, steps), labels = _steps(t), t.labels
    inside = [step for step in steps if step[3] >= 0]
    step_witness = next((witness(generator=MultiIndex.unit(t.m, i + 1), a=labels[a],
                                 successor=labels[up],
                                 direction="up" if up not in row else "down")
                         for i, g, a, up, row in inside
                         if up not in row or a not in rows.get((g, up), {})), None)
    return step_witness, inside


def certify_type_ab(t: IntersectionTensor, partial: PartialOrder) -> Certificate:
    """Certify the type-(alpha, beta) property of a bivariate labeling.

    D must be a downset of the (alpha, beta) partial order; for every
    a and a + e_i both in D the coefficients p_{e_i,a}^{a+e_i} and
    p_{e_i,a+e_i}^a must be nonzero; and every nonzero p_{e_i,a}^b with
    a + e_i in D must satisfy b below a + e_i.  Unlike plain
    certification, nothing is imposed at boundary steps leaving D.
    """
    if partial.kind != "ab":
        raise ValueError("type certification needs an ab partial order")
    checks, m = _structural_checks(t)
    if m != 2:
        raise ValueError("type-(alpha,beta) certification needs m=2, got m=%d" % m)
    checks.extend(check_domain(t.labels, partial).checks)
    step_witness, inside = _type_ab_requirements(t)
    checks.append(Check("unit-step-nonzero", step_witness is None, step_witness))
    window_witness = _outside_window(t, inside, partial.leq, partial.as_text())
    checks.append(Check("products-within-window", window_witness is None, window_witness))
    return Certificate.of(checks)


def ab_region_for_scheme(t: IntersectionTensor) -> Optional[ABRegion]:
    """Exact set of (alpha, beta) for which :func:`certify_type_ab` passes,
    as a product of intervals; None when empty.

    The unit steps do not depend on the parameters, and each window
    constraint "b below a+e_i" is one half-line condition on alpha and one
    on beta (:func:`ab_feasible_region`).  The downset condition excludes,
    for a in D and b outside D, the parameters with b below a, that is
    alpha (b2 - a2) <= a1 - b1 and beta (b1 - a1) <= a2 - b2:

    - b <= a componentwise: both hold everywhere; the region is empty.
    - b1 > a1, b2 < a2: the first holds iff alpha >= t = (b1-a1)/(a2-b2).
      If t <= 1, the second holds for every beta < 1, as beta (b1-a1) <
      b1-a1 <= a2-b2, so exactly alpha >= t is excluded; if t > 1, no
      alpha <= 1 is, and cutting off alpha >= t changes nothing.
    - b2 > a2, b1 < a1: symmetrically exactly beta >= (b2-a2)/(a1-b1).
    - Otherwise one inequality fails for all alpha, beta >= 0.

    So every exclusion cuts a half-line off one axis: the region stays a
    product of intervals, and the order of the cuts does not matter.
    """
    checks, m = _structural_checks(t)
    if m != 2:
        raise ValueError("parameter regions need m=2, got m=%d" % m)
    step_witness, inside = _type_ab_requirements(t)
    if not all(c.passed for c in checks) or step_witness is not None:
        return None
    region = ab_feasible_region((t.labels[b], t.labels[up])
                                for *_, up, row in inside for b in row)
    if region is None:
        return None
    alpha, beta = region.alpha, region.beta
    dom = set(t.labels)
    for a in t.labels:
        for b in box((a[0] + a[1],) * 2):
            d1, d2 = b[0] - a[0], b[1] - a[1]
            if b in dom:
                continue
            if d1 <= 0 and d2 <= 0:
                return None
            if d1 > 0 > d2:
                alpha = alpha.clamp_leq(Fraction(d1, -d2), closed=False)
            elif d2 > 0 > d1:
                beta = beta.clamp_leq(Fraction(d2, -d1), closed=False)
    region = ABRegion(alpha, beta)
    return None if region.empty else region


# -- Labeling discovery ------------------------------------------------------------

@dataclass
class Discovery:
    """A successful labeling: generator tuple and tag-to-index map."""

    generators: tuple[Label, ...]
    labeling: Labeling


def discover_labelings(s: SchemeClasses, m: int,
                       order: MonomialOrder) -> list[Discovery]:
    """All ordered generator m-tuples realizing the scheme by distances.

    A tuple (g_1..g_m) of distinct non-identity classes colors the union
    graph of the A_{g_i} by i.  Each class c gets the least a with c in
    the support of A^a = A_{g_1}^{a_1}..A_{g_m}^{a_m}, by a label-setting
    search (:func:`least_labels`) from the identity with an edge b -> c
    of color i whenever p_{b,g_i}^c != 0.  The tuple is accepted when
    every class is reached, the labels are distinct and each g_i gets
    e_i.  The cost does not depend on the number of vertices.

    These are the graph's conditions (connected, distance partition equal
    to the scheme's, colors realized): the A's commute in a symmetric
    scheme, so A^a counts the walks of m-length a and is a nonnegative
    combination of classes; hence d(x, y) = min{a : (A^a)_{xy} != 0} is
    the label of the class of (x, y).  A pair at distance e_i is an edge
    of color i, so e_i is realized iff g_i gets e_i.
    """
    axioms = verify_scheme_axioms(s)
    if not axioms.passed:
        raise ValueError("input is not an association scheme: %s" % axioms.witness)
    t = intersection_tensor(s)
    k, ident = len(s.labels), s.labels.index(t.identity)
    candidates = [i for i in range(k) if i != ident]
    if not 1 <= m <= len(candidates):
        raise ValueError("m must lie in 1..%d" % len(candidates))
    support: list[list[list[int]]] = [[[] for _ in range(k)] for _ in range(k)]
    for b, g, c in zip(t.a.tolist(), t.b.tolist(), t.c.tolist()):
        support[b][g].append(c)  # support[b][g]: the c with p_{b,g}^c != 0
    units = [MultiIndex.unit(m, i) for i in range(1, m + 1)]
    found: list[Discovery] = []
    for tup in itertools.permutations(candidates, m):
        adjacency = [[(c, color) for color, g in enumerate(tup, start=1)
                      for c in row[g]] for row in support]
        labels = least_labels(adjacency, m, order.key, ident)
        if (None in labels or len(set(labels)) != k
                or any(labels[g] != unit for g, unit in zip(tup, units))):
            continue
        found.append(Discovery(
            generators=tuple(s.labels[i] for i in tup),
            labeling=Labeling.from_dict(dict(zip(s.labels, labels)))))
    return found

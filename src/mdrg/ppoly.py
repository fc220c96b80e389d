"""P-polynomial certification for multi-index-labeled schemes.

A scheme whose classes carry multi-index labels is m-variate
P-polynomial with respect to a monomial order when its label set D is
box-closed, every product A_{e_i} A_a expands over labels at most
a + e_i, and the coefficient at exactly a + e_i never vanishes while
a + e_i stays in D.  Each class is then a polynomial in A_{e_1}..A_{e_m},
read off x_i v_a = sum_b p_{e_i,a}^b v_b in integers; the boundary span
condition follows by a triangularity proof.  Every check reads the
tensor's integer view ``t.steps`` and compares window keys as arrays.
Partial orders refine the window (``ab:alpha,beta``: type (alpha, beta),
whose region is a product of intervals), and labelings can be discovered
from a bare scheme by trying every ordered generator tuple.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

import numpy as np

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


# The order a window check reads: ``nonneg``, ``walk``, ``as_text`` and its hash.
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


def _below(t: IntersectionTensor, window: Window) -> np.ndarray:
    """Per entry of ``t.steps``: is b below a + e_i under ``window``?  Kept per window."""
    memo = vars(t).setdefault("_below", {})
    if window not in memo:
        memo[window] = window.nonneg(t.steps.diff)
    return memo[window]


def _outside_window(t: IntersectionTensor, window: Window, inside: bool = False
                    ) -> Optional[dict]:
    """Witness of the first entry of ``t.steps`` with b not below a + e_i (with
    ``inside``, on steps inside D); a bound that is no class is made here."""
    s, labels = t.steps, t.labels
    up = s.up[s.color, s.a]
    for j in np.flatnonzero(~_below(t, window) & ((up >= 0) | (not inside)))[:1].tolist():
        g, a = s.gens[s.color[j]], s.a[j]
        return witness(generator=labels[g], a=labels[a], b=labels[s.b[j]],
                       bound=labels[up[j]] if up[j] >= 0 else labels[a] + labels[g],
                       value=Fraction(int(s.num[j]), t.den), window=window.as_text())
    return None


def _step_witness(t: IntersectionTensor, down: bool) -> Optional[dict]:
    """Witness of the first step a -> a + e_i inside D, by i and then a in label
    order, with p_{e_i,a}^{a+e_i} zero, or with ``down`` p_{e_i,a+e_i}^a zero."""
    s = t.steps
    hits, up = s.hits[:, :, s.order] > 0, s.up[:, s.order]
    for i, j in np.argwhere((up >= 0) & ~(hits[0] & hits[1] if down else hits[0]))[:1].tolist():
        extra = {"direction": "down" if hits[0, i, j] else "up"} if down else {}
        return witness(generator=MultiIndex.unit(t.m, i + 1), a=t.labels[s.order[j]],
                       successor=t.labels[up[i, j]], **extra)
    return None


def certify_ppoly(t: IntersectionTensor, window: Window) -> Certificate:
    """Certify the m-variate P-polynomial property w.r.t. a window order.

    Checks: the identity is labeled o and every unit e_i is a class
    (structure), D is box-closed, every nonzero p_{e_i,a}^b has
    b <= a + e_i under the order, and p_{e_i,a}^{a+e_i} != 0 whenever
    a + e_i stays in D.
    """
    checks = [*_structural_checks(t)[0], *check_domain(t.labels, "box").checks]
    out, succ = _outside_window(t, window), _step_witness(t, False)
    return Certificate.of([*checks, Check("products-within-window", out is None, out),
                           Check("successor-nonzero", succ is None, succ)])


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


def _rows(t: IntersectionTensor) -> dict:
    """The generator rows of ``t.steps``: (i, a) -> [(num, b, entry)], b in label order."""
    s = t.steps
    entries = zip(*(x.tolist() for x in (s.color, s.a, s.num, s.b, np.arange(len(s.a)))))
    return {k: [r[2:] for r in g] for k, g in itertools.groupby(entries, lambda r: r[:2])}


def _recurrence(t: IntersectionTensor, vs: dict, i: int, a: int, row: list) -> tuple[dict, int]:
    """den x_i v_a - sum p v_b over (p, b, _) in ``row``, over the returned denominator
    (each v in ``vs`` numerators over one); ValueError names the first class without a v."""
    for x in (a, *(b for _, b, _ in row)):
        if x not in vs:
            raise ValueError("no polynomial for class %s" % t.labels[x].as_text())
    (va, da), lcm = vs[a], math.lcm(vs[a][1], *(vs[b][1] for _, b, _ in row))
    out = {c[:i] + (c[i] + 1,) + c[i + 1:]: t.den * lcm // da * x for c, x in va.items()}
    for p, b, _ in row:
        for c, x in vs[b][0].items():
            out[c] = out.get(c, 0) - p * lcm // vs[b][1] * x
    return out, lcm


def extract_polynomials(t: IntersectionTensor, window: Window
                        ) -> tuple[dict[MultiIndex, dict], Certificate]:
    """Defining polynomials v_n with v_n(A_{e_1}..A_{e_m}) = A_n, each a
    zero-free map multidegree -> Fraction coefficient.

    Read off the recurrence x_i v_a = sum_b p_{e_i,a}^b v_b: for n in D
    other than o, with e_i its first color and a = n - e_i,

        v_n = (x_i v_a - sum_{b != n} p_{e_i,a}^b v_b) / p_{e_i,a}^n,

    in ``window.walk`` order.  Each v is integer numerators over one
    denominator (Python ints, exact at any size); a Fraction is made per
    returned coefficient.  The certificate records that every leading
    coefficient is nonzero.  Raises :class:`ExtractionError` when
    p_{e_i,a}^n is zero or a b on the right is not below n (certify first).
    """
    labels, s, m, rows = t.labels, t.steps, t.m, _rows(t)
    where, made = {lab: n for n, lab in enumerate(labels)}, dict(zip(labels, labels))
    below = _below(t, window).tolist()
    vs = {where.get((0,) * m, -1): ({(0,) * m: 1}, 1)}  # class -> (numerators, denominator)
    for n in window.walk(s.coords)[1:].tolist():  # o first
        top = labels[n]
        i = next(i for i, e in enumerate(top) if e)
        prev = top[:i] + (top[i] - 1,) + top[i + 1:]
        a = where.get(prev, -1)
        row = rows.get((i, a), [])
        lead = next((p for p, b, _ in row if b == n), 0)
        if not lead:
            raise ExtractionError("p_{%s,%s}^%s is zero; certify the scheme first" % (
                MultiIndex.unit(m, i + 1).as_text(), ",".join(map(str, prev)), top.as_text()))
        out = next((b for _, b, j in row if not below[j]), None)
        if out is not None:
            raise ExtractionError("A_%s A_%s reaches A_%s, which is not below %s; certify the "
                                  "scheme first" % tuple(x.as_text() for x in (
                                      labels[s.gens[i]], labels[a], labels[out], top)))
        v, lcm = _recurrence(t, vs, i, a, [step for step in row if step[1] != n])
        v, den = {c: x for c, x in v.items() if x}, lead * lcm
        g = math.gcd(den, *v.values())
        vs[n] = ({c: x // g for c, x in v.items()}, den // g)
    polys = {labels[n] if n >= 0 else MultiIndex.zero(m): {
        made[c] if c in made else made.setdefault(c, MultiIndex(c)): Fraction(x, d)
        for c, x in v.items()} for n, (v, d) in vs.items()}
    lead_witness = next((witness(n=n) for n in sorted(polys) if not polys[n].get(n)), None)
    return polys, Certificate.of([
        Check("unique-solution", True, detail="%d polynomials extracted" % len(polys)),
        Check("leading-nonzero", lead_witness is None, lead_witness)])


def verify_recurrences(polys: Mapping[MultiIndex, Mapping[MultiIndex, Fraction]],
                       t: IntersectionTensor,
                       partial: Optional[PartialOrder] = None) -> Certificate:
    """Check x_i v_a = sum_b p_{e_i,a}^b v_b for every a + e_i in D.

    With a partial order given, additionally checks that every class b
    contributing to the right side lies below a + e_i.  An identity
    witness names the least monomial, as a tuple, where the sides differ,
    with the coefficient of each side.  Each step is checked in integers,
    as :func:`extract_polynomials` solves it.
    """
    labels, s, rows, identity = t.labels, t.steps, _rows(t), None
    vs = {n: ({c: x.numerator * (d // x.denominator) for c, x in polys[lab].items()}, d)
          for n, lab in enumerate(labels) if lab in polys
          for d in [math.lcm(*(x.denominator for x in polys[lab].values()))]}
    for i, j in zip(*(x.tolist() for x in np.nonzero(s.up[:, s.order] >= 0))):  # in D, in order
        a = int(s.order[j])
        diff, lcm = _recurrence(t, vs, i, a, rows.get((i, a), []))
        mono = min((c for c, x in diff.items() if x), default=None)
        if identity is None and mono is not None:
            lhs = Fraction(polys[labels[a]].get(mono[:i] + (mono[i] - 1,) + mono[i + 1:], 0)
                           if mono[i] else 0)
            unit = labels[s.gens[i]] if s.gens[i] >= 0 else MultiIndex.unit(t.m, i + 1)
            identity = witness(generator=unit, a=labels[a], monomial=MultiIndex(mono), lhs=lhs,
                               rhs=lhs - Fraction(diff[mono], t.den * lcm))
    checks = [Check("recurrence-identity", identity is None, identity)]
    if partial is not None:
        support = _outside_window(t, partial, inside=True)
        checks.append(Check("recurrence-support", support is None, support and {
            key: support[key] for key in ("generator", "a", "b", "bound")}))
    return Certificate.of(checks)


# -- Type (alpha, beta) -----------------------------------------------------------

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
    step, out = _step_witness(t, True), _outside_window(t, partial, True)
    return Certificate.of([*checks, *check_domain(t.labels, partial).checks,
                           Check("unit-step-nonzero", step is None, step),
                           Check("products-within-window", out is None, out)])


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
    if not all(c.passed for c in checks) or _step_witness(t, True) is not None:
        return None
    up = t.steps.up[t.steps.color, t.steps.a]
    region = ab_feasible_region((t.labels[b], t.labels[c]) for b, c
                                in zip(t.steps.b[up >= 0].tolist(), up[up >= 0].tolist()))
    dom = set(t.labels)
    gaps = [(b[0] - a[0], b[1] - a[1]) for a in t.labels
            for b in box((a[0] + a[1],) * 2) if b not in dom]
    if region is None or any(d1 <= 0 and d2 <= 0 for d1, d2 in gaps):
        return None
    cuts = ([Fraction(x, -y) for x, y in gaps if x > 0 > y],
            [Fraction(y, -x) for x, y in gaps if y > 0 > x])
    region = ABRegion(*(axis.clamp_leq(min(cut, default=Fraction(2)), closed=False)
                        for axis, cut in zip((region.alpha, region.beta), cuts)))
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

"""Extraction, recurrences and window checks on integers, against the
Fraction path they replaced.

``extract_polynomials`` and ``verify_recurrences`` carry each polynomial
as integer numerators over one denominator, and the window checks
compare blocks of integer keys, int64 under a written bound and Python
ints past it.  Here they are compared with
``helpers.fraction_extract_polynomials`` and
``helpers.fraction_verify_recurrences`` (label-keyed generator rows,
Fraction dicts, windows by their defining inequalities) and with the
dom x dom scans: polynomials, certificates, witnesses and error messages
must agree.

Inputs: tori, Hamming graphs, J_q(N, d), the generalized 24-cell grid
(rational values), tensors with the labels other than o permuted, and
each of these with its intersection numbers negated (negative leading
coefficients) or scaled past the int64 bound of the tensor arrays.  Broken polynomials: one coefficient +1 or -1, one
term dropped, one polynomial missing, one polynomial scaled past the
int64 bound.  Windows whose weights or parameters pass the bound make
the key blocks Python ints.
"""

import functools
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from mdrg import (IntersectionTensor, MonomialOrder, MultiIndex, PartialOrder,
                  cartesian_product, certify_ppoly, certify_type_ab, cycle,
                  extract_polynomials, gen24cell, hamming_graph, mdrg_check,
                  verify_recurrences)

from helpers import (AXIS_LABELING, DIAGONAL_LABELING, defining_leq,
                     fraction_extract_polynomials, fraction_verify_recurrences,
                     nonbinary_johnson, scan_unit_steps, scan_window_checks)

BIG = 2 ** 70
BASES = ([("torus", a, b) for a in (3, 4, 5, 6) for b in (3, 4, 5)]
         + [("hamming", 2, 3), ("hamming", 2, 4), ("hamming", 3, 2)]
         + [("johnson", 3, 3, 2), ("johnson", 4, 3, 2), ("johnson", 3, 4, 2)]
         + [("gen24cell", ell, s, labeling) for ell in ("2", "3") for s in ("1/2", "1")
            for labeling in ("axis", "diagonal")])
WINDOW_CHECKS = ("products-within-window", "successor-nonzero")


@functools.lru_cache(maxsize=None)
def _base(name: tuple) -> IntersectionTensor:
    kind, *args = name
    if kind == "gen24cell":
        labeling = AXIS_LABELING if args[2] == "axis" else DIAGONAL_LABELING
        return labeling.apply(gen24cell(Fraction(args[0]), Fraction(args[1])))
    g = {"torus": lambda a, b: cartesian_product([cycle(a), cycle(b)]),
         "hamming": hamming_graph, "johnson": nonbinary_johnson}[kind](*args)
    return mdrg_check(g, MonomialOrder.parse("deglex-sum" if g.m == 2 else "lex")).tensor


def _scaled(t: IntersectionTensor, factor) -> IntersectionTensor:
    return IntersectionTensor(labels=t.labels, identity=t.identity,
                              p={key: value * factor for key, value in t.p.items()})


@st.composite
def tensors(draw):
    """(a certified tensor, the tensor tested): the same, or its labels
    other than o permuted, then its numbers scaled or not."""
    base = _base(draw(st.sampled_from(BASES)))
    t = base
    if draw(st.booleans()):
        moved = [lab for lab in t.labels if lab != t.identity]
        t = t.relabel({t.identity: t.identity, **dict(zip(moved, draw(st.permutations(moved))))})
    factor = draw(st.sampled_from([1, -1, BIG, Fraction(BIG, 3)]))
    if factor != 1:
        t = _scaled(t, factor)
        assert t.num.dtype == (np.int64 if factor == -1 else object)
    return base, t


def _windows(m: int) -> list:
    windows = [MonomialOrder.parse("lex"), MonomialOrder.parse("deglex-sum"),
               MonomialOrder.parse("wdeglex:" + ",".join(["%d" % BIG] + ["1"] * (m - 1))),
               PartialOrder.parse("componentwise")]
    if m == 2:
        windows += [MonomialOrder.parse("deglex-y2"), PartialOrder.parse("ab:1/2,0"),
                    PartialOrder.parse("ab:1/%d,1/3" % BIG)]
    return windows


def _outcome(call):
    """The result of ``call()``, or the class and message of its ValueError."""
    try:
        return call()
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def _extraction(extract, t, window):
    return _outcome(lambda: (lambda polys, cert: (polys, cert.to_dict()))(*extract(t, window)))


@settings(max_examples=60, deadline=None)
@given(tensors())
def test_extraction_matches_the_fraction_path(case):
    """Polynomials and certificate, or the ExtractionError or ValueError
    message, under every window, key blocks in int64 and Python ints."""
    _, t = case
    for window in _windows(t.m):
        fast = _extraction(extract_polynomials, t, window)
        assert fast == _extraction(fraction_extract_polynomials, t, window), window.as_text()
        if isinstance(fast[0], dict):
            assert all(type(value) is Fraction for v in fast[0].values() for value in v.values())


def _broken(polys: dict, data) -> dict:
    """``polys`` with one change drawn: a coefficient +1 or -1, a term
    dropped, a polynomial missing or scaled past int64, or none."""
    kind = data.draw(st.sampled_from(["plus", "minus", "drop", "missing", "scale", "none"]))
    n = data.draw(st.sampled_from(sorted(polys)))
    broken, terms = dict(polys), dict(polys[n])
    c = data.draw(st.sampled_from(sorted(terms)))
    if kind == "missing":
        del broken[n]
        return broken
    if kind == "drop":
        del terms[c]
    elif kind == "scale":
        terms = {x: value * BIG for x, value in terms.items()}
    elif kind != "none":
        terms[c] += 1 if kind == "plus" else -1
    broken[n] = {x: value for x, value in terms.items() if value}
    return broken


@settings(max_examples=60, deadline=None)
@given(tensors(), st.data())
def test_recurrences_match_the_fraction_path(case, data):
    """The certificate, witnesses included, or the ValueError naming the
    first class without a polynomial, on the polynomials of the certified
    tensor and of the tensor tested, each whole or broken once."""
    base, t = case
    texts = ("deglex-sum", "deglex-y2", "lex") if t.m == 2 else ("lex",)
    order = next(order for order in map(MonomialOrder.parse, texts)
                 if certify_ppoly(base, order).passed)
    partials = [None, PartialOrder.parse("componentwise")]
    if t.m == 2:
        partials.append(PartialOrder.parse("ab:1/%d,0" % BIG))
    sources = [extract_polynomials(base, order)[0]]
    if certify_ppoly(t, order).passed:
        sources.append(extract_polynomials(t, order)[0])
    for polys in sources:
        for candidate in (polys, _broken(polys, data)):
            for partial in partials:
                assert (_outcome(lambda: verify_recurrences(candidate, t, partial).to_dict())
                        == _outcome(lambda: fraction_verify_recurrences(
                            candidate, t, partial).to_dict()))
    if t is not base and certify_ppoly(t, order).passed:
        assert verify_recurrences(sources[-1], t).passed


def _named(cert, names):
    return [c.to_dict() for c in cert.checks if c.name in names]


@settings(max_examples=40, deadline=None)
@given(tensors())
def test_window_checks_past_the_int64_bound_match_the_scans(case):
    """Weights and (alpha, beta) denominators past 2^63 make the key blocks
    Python ints; the checks still name the scans' witnesses, the scans
    reading each window by its defining inequalities."""
    _, t = case
    for window in _windows(t.m):
        if "%d" % BIG not in window.as_text():
            continue
        assert window.keys(t.steps.coords).dtype == object
        leq = functools.partial(defining_leq, window)
        assert (_named(certify_ppoly(t, window), WINDOW_CHECKS)
                == [c.to_dict() for c in scan_window_checks(t, leq, window.as_text())])
        if isinstance(window, PartialOrder) and window.kind == "ab":
            assert (_named(certify_type_ab(t, window), ("unit-step-nonzero",
                                                        "products-within-window"))
                    == [scan_unit_steps(t).to_dict(),
                        scan_window_checks(t, leq, window.as_text(),
                                           successors_only=True)[0].to_dict()])


def test_labels_past_int64_keep_python_ints():
    """A label entry past 2^62 keeps ``coords`` in Python ints, so a label
    plus a unit cannot wrap; extraction and recurrences still agree with
    the Fraction path.  (The box-closure witness of such a label would
    enumerate its box, so the certificate is not asked for.)"""
    base = mdrg_check(cycle(6), MonomialOrder.parse("lex")).tensor
    t = base.relabel({MultiIndex((3,)): MultiIndex((2 ** 64,)),
                      **{lab: lab for lab in base.labels[:3]}})
    assert t.steps.coords.dtype == object and t.steps.up.tolist() == [[1, 2, -1, -1]]
    for window in (MonomialOrder.parse("lex"), MonomialOrder.parse("wdeglex:3")):
        assert (_extraction(extract_polynomials, t, window)
                == _extraction(fraction_extract_polynomials, t, window))
    polys = extract_polynomials(base, MonomialOrder.parse("lex"))[0]
    assert (verify_recurrences(polys, t).to_dict()
            == fraction_verify_recurrences(polys, t).to_dict())


def test_key_blocks_are_int64_under_the_bound_and_exact_past_it():
    """``keys`` is int64 while max(1, max |a|) sum(W) < 2^63, here 5 (w + 2)
    for wdeglex:w,1, and the same block of Python ints past it."""
    coords = np.array([[0, 0], [3, 1], [1, 5]], np.int64)
    for text, dtype in (("deglex-sum", np.int64), ("wdeglex:%d,1" % 2 ** 60, np.int64),
                        ("wdeglex:%d,1" % 2 ** 61, object)):
        order = MonomialOrder.parse(text)
        keys = order.keys(coords)
        assert keys.dtype == dtype
        assert keys.tolist() == [list(order.key(MultiIndex(row))) for row in coords.tolist()]

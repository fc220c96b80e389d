"""The window, unit-step, recurrence and (alpha, beta)-region checks read
the successor table ``t.steps`` and the generator rows on class positions;
here the table is compared with a dict oracle, the checks with the dom x
dom scans and the retry-loop region of ``helpers``, and the region with
certification.  On long labels the checks make a fixed number of
multi-indices, whatever m.

Inputs: tori C_a x C_b under deglex-sum and deglex-y2 with their own
labels, with the two coordinates swapped, with the non-identity labels
permuted, and with the classes sent onto random points of a small box;
cycles with their classes sent onto such points (not box-closed, with
zero, one or both generators among the classes); and the generalized
24-cell grid under both label maps.
"""

import functools
import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mdrg import (IntersectionTensor, Labeling, MonomialOrder, MultiIndex,
                  PartialOrder, ab_region_for_scheme,
                  cartesian_product, certify_ppoly, certify_ppoly_refined,
                  certify_type_ab, cycle, extract_polynomials, gen24cell,
                  hamming_graph, mdrg_check, verify_recurrences)
from mdrg.cli import main
from mdrg.serialize import dump_json, graph_to_dict, tensor_to_dict

from helpers import (AXIS_LABELING, DIAGONAL_LABELING, REPROVERS, dict_steps,
                     region_contains, scan_ab_region, scan_recurrences,
                     scan_unit_steps, scan_window_checks)

PARTIALS = [PartialOrder.parse(text) for text in
            ("componentwise", "ab:0,0", "ab:1/2,0", "ab:1,0", "ab:1/3,1/2")]
WINDOW_CHECKS = ("products-within-window", "successor-nonzero")


@st.composite
def relabeled_tori(draw):
    a, b = draw(st.integers(3, 7)), draw(st.integers(3, 6))
    if draw(st.booleans()):  # a cycle, whose classes go onto points of N^2
        g, how = cycle(a + b), "points"
    else:
        g = cartesian_product([cycle(a), cycle(b)])
        how = draw(st.sampled_from(["own", "swap", "permute", "points"]))
    t = mdrg_check(g, MonomialOrder.parse(
        draw(st.sampled_from(["deglex-sum", "deglex-y2"])) if g.m == 2
        else "lex")).tensor
    moved = [lab for lab in t.labels if lab != t.identity]
    if how == "own":
        return t
    if how == "swap":
        targets = [MultiIndex((lab[1], lab[0])) for lab in moved]
    elif how == "permute":
        targets = draw(st.permutations(moved))
    else:
        side = next(s for s in range(2, 9) if s * s >= len(moved) + 3)
        side += draw(st.integers(0, 2))
        units = [MultiIndex((1, 0)), MultiIndex((0, 1))]
        points = [MultiIndex((i, j)) for i in range(side) for j in range(side)
                  if (i or j) and MultiIndex((i, j)) not in units]
        keep = draw(st.integers(0, 2))  # how many generators stay classes
        targets = draw(st.permutations(
            units[:keep] + draw(st.permutations(points))[:len(moved) - keep]))
    return t.relabel({t.identity: MultiIndex((0, 0)), **dict(zip(moved, targets))})


def _gen24cell_grid():
    for ell in ("2", "3", "4"):
        for s in ("1/2", "3/4", "1"):
            t = gen24cell(Fraction(ell), Fraction(s))
            yield AXIS_LABELING.apply(t)
            yield DIAGONAL_LABELING.apply(t)


def _check_table(t):
    gens, up = dict_steps(t)
    assert t.steps.gens.tolist() == gens and t.steps.up.tolist() == up
    assert [t.labels[a] for a in t.steps.order.tolist()] == sorted(t.labels)


@settings(max_examples=80, deadline=None)
@given(relabeled_tori(), st.randoms(use_true_random=False))
def test_step_table_matches_the_dict_oracle(t, rng):
    """``up`` and the generator positions against ``where.get(a + e_i)``,
    on tori (some with e_1 or e_2 missing) and on a Labeling.apply copy
    that permutes the labels other than the origin."""
    _check_table(t)
    moved = [lab for lab in t.labels if lab != t.identity]
    targets = list(moved)
    rng.shuffle(targets)
    _check_table(Labeling.from_dict({t.identity: t.identity, **dict(zip(moved, targets))}
                                    ).apply(t))


def test_step_table_on_families_and_missing_generators():
    orders = {2: "deglex-sum", 3: "lex"}
    for g in (cartesian_product([cycle(3)] * 3), hamming_graph(2, 3), hamming_graph(3, 2)):
        _check_table(mdrg_check(g, MonomialOrder.parse(orders.get(g.m, "lex"))).tensor)
    for t in _gen24cell_grid():
        _check_table(t)
    # no unit class at all: every step of o leaves D, and no generator has a row
    t = gen24cell(Fraction(2), Fraction(1, 2))
    far = Labeling.parse("A0=0,0;A1=1,1;A2=2,0;A3=0,2;A4=3,0").apply(t)
    _check_table(far)
    assert far.steps.gens.tolist() == [-1, -1]
    failing = {c.name: c.witness for c in certify_ppoly(far, MonomialOrder.parse("lex")).checks
               if not c.passed}
    assert failing["generators-realized"] == {"color": 1, "unit": "1,0"}
    REPROVERS["generators-realized"](far, failing["generators-realized"])


def _two_labels(m: int) -> IntersectionTensor:
    """K2 with its classes labeled o and e_1 in N^m."""
    o, e = MultiIndex.zero(m), MultiIndex.unit(m, 1)
    return IntersectionTensor(labels=(o, e), identity=o,
                              p={(o, o, o): 1, (o, e, e): 1, (e, o, e): 1, (e, e, o): 1})


def _constructions(call) -> int:
    """How many MultiIndex objects ``call()`` makes."""
    made, make = [], MultiIndex.__new__
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MultiIndex, "__new__", staticmethod(
            lambda cls, entries: made.append(1) or make(cls, entries)))
        call()
    return len(made)


@pytest.mark.parametrize("window", ["deglex-sum", "componentwise"])
def test_long_labels_make_a_fixed_number_of_multi_indices(tmp_path, capsys, window):
    """The step checks work on class positions: on two labels of length m
    the multi-indices made do not grow with m.  The label-keyed generator
    rows made 5 012 in the certify-ppoly command at m = 1000."""
    order = (MonomialOrder.parse(window) if window != "componentwise"
             else PartialOrder.parse(window))
    in_check, in_command = [], []
    for m in (3, 1000):
        t = _two_labels(m)
        in_check.append(_constructions(lambda: certify_ppoly(t, order)))
        failing = [c.name for c in certify_ppoly(t, order).checks if not c.passed]
        assert failing == ["generators-realized"]
        path = tmp_path / ("two%d.json" % m)
        path.write_text(dump_json(tensor_to_dict(t)))
        argv = ["certify-ppoly", str(path), "--order", "deglex-sum", "--boundary",
                "--recurrences"] + (["--partial", window] if window == "componentwise" else [])
        in_command.append(_constructions(lambda: main(argv)))
    capsys.readouterr()
    assert in_check[0] == in_check[1] < 10, in_check
    assert in_command[0] == in_command[1] < 20, in_command


def test_two_labels_at_m_3000_run_under_half_a_second(tmp_path, capsys):
    """The order half of the long-label blowup: ``--order`` is checked on
    its sparse form and the window keys cost O(k m), so two labels of
    length 3000 run certify-ppoly --boundary --recurrences in under 0.5 s
    (with the dense weight rows, 2.4 s on a 2-CPU machine)."""
    path = tmp_path / "two3000.json"
    path.write_text(dump_json(tensor_to_dict(_two_labels(3000))))
    argv = ["certify-ppoly", str(path), "--order", "deglex-sum", "--boundary", "--recurrences"]
    times = []
    for _ in range(2):
        started = time.perf_counter()
        assert main(argv) == 1  # generators-realized: e_2..e_3000 are no classes
        times.append(time.perf_counter() - started)
    capsys.readouterr()
    assert min(times) < 0.5, times


def test_certify_ppoly_makes_a_fraction_per_printed_coefficient(tmp_path, capsys, monkeypatch):
    """certify-ppoly --boundary --recurrences --polys on C14 x C9 (k = 40)
    makes at most one Fraction per printed coefficient and a few more; the
    Fraction recurrence made 1 622 for its 180 terms.  The tensor's integer
    view is built once for all the checks."""
    graph = tmp_path / "c14xc9.json"
    graph.write_text(dump_json(graph_to_dict(cartesian_product([cycle(14), cycle(9)]))))
    made, make, builds, build = [], Fraction.__new__, [], IntersectionTensor.steps.func
    view = functools.cached_property(lambda t: builds.append(1) or build(t))
    view.__set_name__(IntersectionTensor, "steps")
    monkeypatch.setattr(IntersectionTensor, "steps", view)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Fraction, "__new__", staticmethod(
            lambda cls, *args, **kwargs: made.append(1) or make(cls, *args, **kwargs)))
        code = main(["certify-ppoly", str(graph), "--order", "deglex-sum", "--boundary",
                     "--recurrences", "--polys", str(tmp_path / "polys.json")])
    report = json.loads(capsys.readouterr().out)
    terms = sum(len(poly["terms"]) for poly in report["results"]["polynomials"])
    assert code == 0 and terms == 180
    assert len(made) <= terms + 10, len(made)
    assert builds == [1]


def _named(cert, names):
    return [c.to_dict() for c in cert.checks if c.name in names]


def _check_against_scans(t):
    orders = [MonomialOrder.parse(text) for text in ("deglex-sum", "lex",
                                                     "deglex-y2")]
    for order in orders:
        assert (_named(certify_ppoly(t, order), WINDOW_CHECKS)
                == [c.to_dict() for c in scan_window_checks(
                    t, order.leq, order.as_text())])
    for partial in PARTIALS:
        refined = certify_ppoly_refined(t, orders[2], partial)
        assert (_named(refined, WINDOW_CHECKS)
                == [c.to_dict() for c in scan_window_checks(
                    t, partial.leq, partial.as_text())])
        if partial.kind != "ab":
            continue
        typed = certify_type_ab(t, partial)
        assert (_named(typed, ("unit-step-nonzero", "products-within-window"))
                == [scan_unit_steps(t).to_dict(),
                    scan_window_checks(t, partial.leq, partial.as_text(),
                                       successors_only=True)[0].to_dict()])
    region = ab_region_for_scheme(t)
    loop = scan_ab_region(t)
    assert (region and region.as_text()) == (loop and loop.as_text())
    for order in orders:
        if certify_ppoly(t, order).passed:
            polys, _ = extract_polynomials(t, order)
            _check_recurrences(t, polys)


def _check_recurrences(t, polys):
    for partial in (None, PARTIALS[0], PARTIALS[1]):
        assert (verify_recurrences(polys, t, partial).to_dict()
                == scan_recurrences(polys, t, partial).to_dict())
    # a wrong polynomial gives an identity witness on both routes
    n = max(polys)
    broken = dict(polys)
    coeffs = dict(polys[n])
    origin = MultiIndex.zero(t.m)
    coeffs[origin] = coeffs.get(origin, 0) + 1
    broken[n] = {c: value for c, value in coeffs.items() if value}
    fast = verify_recurrences(broken, t)
    assert fast.to_dict() == scan_recurrences(broken, t).to_dict()
    failing = [c for c in fast.checks if not c.passed]
    assert [c.name for c in failing] == ["recurrence-identity"]
    REPROVERS["recurrence-identity"](t, failing[0].witness, broken)


@settings(max_examples=60, deadline=None)
@given(relabeled_tori())
def test_generator_row_checks_match_scans_on_tori(t):
    _check_against_scans(t)


def test_generator_row_checks_match_scans_on_the_gen24cell_grid():
    for t in _gen24cell_grid():
        _check_against_scans(t)


def test_missing_generator_reads_zeros():
    t = mdrg_check(cartesian_product([cycle(6), cycle(4)]),
                   MonomialOrder.parse("deglex-sum")).tensor
    # (0,1) is no class: the labels move to the first axis and beyond
    moved = sorted(lab for lab in t.labels if lab != t.identity)
    targets = [MultiIndex((i, 0)) for i in range(1, len(moved))] + [MultiIndex((1, 1))]
    lacking = t.relabel({t.identity: t.identity, **dict(zip(moved, targets))})
    assert MultiIndex((0, 1)) not in lacking.domain()
    _check_against_scans(lacking)
    assert not certify_type_ab(
        lacking, PartialOrder.alpha_beta(Fraction(1, 2), Fraction(0))).passed
    assert ab_region_for_scheme(lacking) is None


@pytest.mark.parametrize("direction", ["up", "down"])
def test_unit_step_names_the_coefficient_that_vanishes(direction):
    """C5 x C4 with one coefficient of the step o -> e_2 dropped,
    p_{e_2,o}^{e_2} (up) or p_{e_2,e_2}^o (down): no scheme, since a scheme
    loses both together, but only such a tensor tells the two apart."""
    t = mdrg_check(cartesian_product([cycle(5), cycle(4)]),
                   MonomialOrder.parse("deglex-sum")).tensor
    o, e2 = t.identity, MultiIndex((0, 1))
    drop = (e2, o, e2) if direction == "up" else (e2, e2, o)
    broken = IntersectionTensor(labels=t.labels, identity=o,
                                p={key: v for key, v in t.p.items() if key != drop})
    check, = _named(certify_type_ab(broken, PARTIALS[1]), ["unit-step-nonzero"])
    assert check == scan_unit_steps(broken).to_dict()
    assert check["witness"] == {"generator": "0,1", "a": "0,0", "successor": "0,1",
                                "direction": direction}
    REPROVERS["unit-step-nonzero"](broken, check["witness"])


def _grid(t):
    """Every ratio p/q in [0, 1] with q at most the largest coordinate sum
    of D plus one, which holds every cut point of the region, and the
    midpoints between neighbours, which stand for the open sides."""
    top = max(sum(lab) for lab in t.labels) + 1
    cuts = sorted({Fraction(p, q) for q in range(1, top + 1)
                   for p in range(q + 1)})
    return sorted(set(cuts) | {(x + y) / 2 for x, y in zip(cuts, cuts[1:])})


def _region_agrees(t, pairs):
    region = ab_region_for_scheme(t)
    for alpha, beta in pairs:
        expected = region_contains(region, alpha, beta)
        assert certify_type_ab(
            t, PartialOrder.alpha_beta(alpha, beta)).passed == expected, \
            (alpha, beta, region and region.as_text())


@settings(max_examples=40, deadline=None)
@given(relabeled_tori(), st.data())
def test_region_contains_exactly_the_certified_parameters(t, data):
    grid = _grid(t)
    betas = [x for x in grid if x < 1]
    alpha = data.draw(st.sampled_from(grid))
    beta = data.draw(st.sampled_from(betas))
    pairs = [(a, beta) for a in grid] + [(alpha, b) for b in betas]
    pairs += data.draw(st.lists(st.tuples(st.sampled_from(grid),
                                          st.sampled_from(betas)), max_size=10))
    _region_agrees(t, pairs)


def test_region_on_the_gen24cell_grid():
    for t in _gen24cell_grid():
        grid = _grid(t)
        _region_agrees(t, [(a, b) for a in grid for b in grid if b < 1])


@pytest.mark.parametrize("a, b, text", [
    (3, 6, "alpha in [0, 1/3), beta in [0, 1)"),
    (8, 3, "alpha in [0, 1), beta in [0, 1/4)")])
def test_torus_regions_are_cut_open(a, b, text):
    t = mdrg_check(cartesian_product([cycle(a), cycle(b)]),
                   MonomialOrder.parse("deglex-y2")).tensor
    assert ab_region_for_scheme(t).as_text() == text
    grid = _grid(t)
    _region_agrees(t, [(x, y) for x in grid for y in grid if y < 1])


def test_region_is_empty_when_a_componentwise_smaller_index_is_missing():
    # C8 with its classes 1..4 sent to e1, e2, (2,1), (1,2): every step
    # inside D starts at o, but (1,1) and (2,0), below (2,1) componentwise,
    # are missing, so no parameter makes D a downset
    t = mdrg_check(cycle(8), MonomialOrder.parse("lex")).tensor
    targets = [(0, 0), (1, 0), (0, 1), (2, 1), (1, 2)]
    t = t.relabel({MultiIndex((i,)): MultiIndex(p) for i, p in enumerate(targets)})
    assert scan_ab_region(t) is None
    assert ab_region_for_scheme(t) is None
    grid = _grid(t)
    _region_agrees(t, [(x, y) for x in grid for y in grid if y < 1])

"""The generator associativity check against the dense oracle.

Inputs: distance tensors of tori, of the 24-cell and of the generalized
24-cell grid, which every scheme passes; the same tori after the
symmetric 4-cycle move on classes that are not generators, which keeps
every check of ``validate`` and every generator row, so only
associativity can see it; single-entry changes anywhere; the tensors
scaled past the int64 bound; and the corrupted C6 x C6 tensor through
the command line.
"""

import contextlib
import functools
import io
import json
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

from mdrg import (IntersectionTensor, MonomialOrder, MultiIndex,
                  associativity, cartesian_product, cell24, cycle, gen24cell,
                  mdrg_check)
from mdrg.cli import main
from mdrg.serialize import dump_json, tensor_from_dict, tensor_to_dict

from helpers import (AXIS_LABELING, DIAGONAL_LABELING, associativity_oracle,
                     four_cycle_move, table_rows)

mi = MultiIndex
DEGLEX_SUM = MonomialOrder.parse("deglex-sum")


@functools.lru_cache(maxsize=None)
def torus(*sizes):
    return mdrg_check(cartesian_product([cycle(n) for n in sizes]), DEGLEX_SUM).tensor


def reproducer():
    """The C6 x C6 tensor with the 4-cycle move at class (0,1)."""
    return four_cycle_move(torus(6, 6), mi((0, 1)), mi((0, 2)), mi((1, 1)),
                           mi((0, 3)), mi((1, 2)))


def _cli(tensor, *argv):
    """Exit code and report of one command on a document of ``tensor``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tensor.json")
        with open(path, "w", encoding="ascii") as handle:
            handle.write(dump_json(tensor_to_dict(tensor)))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([argv[0], path, *argv[1:]])
    return code, json.loads(out.getvalue())


@pytest.mark.parametrize("sizes", [(3, 3), (4, 3), (6, 6), (7, 5), (4, 3, 3)])
def test_distance_tensors_pass(sizes):
    t = torus(*sizes)
    assert associativity(t).passed
    assert associativity_oracle(t) is None


@pytest.mark.parametrize("ell", ["2", "3", "4"])
@pytest.mark.parametrize("s", ["1/2", "3/4", "1"])
def test_gen24cell_grid_passes(ell, s):
    t = gen24cell(Fraction(ell), Fraction(s))
    for labeled in (AXIS_LABELING.apply(t), DIAGONAL_LABELING.apply(t)):
        assert associativity(labeled).passed
        assert associativity_oracle(labeled) is None


def test_cell24_passes():
    assert associativity(mdrg_check(cell24(), DEGLEX_SUM).tensor).passed


@st.composite
def moved_tori(draw):
    """A torus C_a x C_b, 3 <= a, b <= 7, after a 4-cycle move drawn from
    the support: p_{x1,y1}^c and p_{x2,y2}^c are positive, so the tensor
    stays nonnegative, and x1, x2, y1, y2 are distinct classes other than
    the identity and the generators."""
    t = torus(draw(st.integers(3, 7)), draw(st.integers(3, 7)))
    free = [lab for lab in t.labels if sum(lab) > 1]
    c = draw(st.sampled_from(t.labels))
    support = [(x, y) for x in free for y in free if x != y and t.get(x, y, c)]
    moves = [(x1, x2, y1, y2) for x1, y1 in support for x2, y2 in support
             if len({x1, x2, y1, y2}) == 4]
    if not moves:
        event("no move")
        return t, None
    move = draw(st.sampled_from(moves))
    # as a document reads it back: labels in text order, which fixes the
    # class positions of the witness
    return t, tensor_from_dict(tensor_to_dict(four_cycle_move(t, c, *move)))


@settings(max_examples=40, deadline=None)
@given(moved_tori())
def test_four_cycle_move_fails_at_the_oracle_witness(case):
    t, moved = case
    if moved is None:
        assert associativity(t).passed
        return
    assert moved.validate().passed
    assert table_rows(moved) == table_rows(t)
    expected = associativity_oracle(moved)
    assert expected is not None
    check = associativity(moved)
    assert not check.passed and check.witness == expected
    code, report = _cli(moved, "certify-ppoly", "--order", "deglex-sum",
                        "--boundary", "--recurrences")
    assert code == 1
    assert list(report["certificates"]) == ["numbers"]
    assert report["certificates"]["numbers"]["checks"][-1] == {
        "name": "associativity", "passed": False, "witness": expected}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(3, 4), (4, 4), (5, 3), (3, 3, 3)]), st.data())
def test_single_entry_changes_match_the_oracle(sizes, data):
    """Any one entry p_{a,b}^c raised or lowered, generator rows included;
    the tensor need not pass ``validate``."""
    t = torus(*sizes)
    key = tuple(data.draw(st.sampled_from(t.labels)) for _ in range(3))
    step = data.draw(st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 3)]))
    p = dict(t.p)
    p[key] = p.get(key, 0) + step
    changed = IntersectionTensor(labels=t.labels, identity=t.identity,
                                 p={k: v for k, v in p.items() if v})
    check, expected = associativity(changed), associativity_oracle(changed)
    event("fails" if expected else "passes")
    assert check.passed == (expected is None)
    assert check.witness == expected


@pytest.mark.parametrize("factor", [Fraction(2 ** 62), Fraction(1, 2 ** 62)])
def test_past_the_int64_bound(factor):
    """Scaling every value by f scales both sides by f^2: the same verdict
    and classes, on Python ints once 2 k (max |s p|)^2 passes 2^63."""
    for t in (torus(4, 3), reproducer()):
        scaled = IntersectionTensor(labels=t.labels, identity=t.identity,
                                    p={k: v * factor for k, v in t.p.items()})
        check, plain = associativity(scaled), associativity(t)
        assert check.passed == plain.passed
        assert check.witness == associativity_oracle(scaled)
        if not plain.passed:
            for side in ("lhs", "rhs"):
                assert (Fraction(check.witness[side])
                        == Fraction(plain.witness[side]) * factor ** 2)


def test_every_generator_is_checked():
    """C10 with a 4-cycle move on classes 2..5 times C4: only the
    generator (1,0) of the corrupted factor fails, and (0,1) comes first
    in class positions."""
    bad = four_cycle_move(mdrg_check(cycle(10), DEGLEX_SUM).tensor, mi((1,)),
                          mi((2,)), mi((4,)), mi((3,)), mi((5,)))
    good = mdrg_check(cycle(4), DEGLEX_SUM).tensor
    pair = {(x, y): mi((x[0], y[0])) for x in bad.labels for y in good.labels}
    t = IntersectionTensor(
        labels=tuple(sorted(pair.values())), identity=mi((0, 0)),
        p={(pair[a1, a2], pair[b1, b2], pair[c1, c2]): v1 * v2
           for (a1, b1, c1), v1 in bad.p.items() for (a2, b2, c2), v2 in good.p.items()})
    assert t.validate().passed
    check = associativity(t)
    assert not check.passed and check.witness["generator"] == "1,0"
    assert check.witness == associativity_oracle(t)


def test_noncommuting_generators_fail():
    # two generators on a formal tensor whose left-multiplication
    # matrices do not commute
    o, x, y, z = mi((0, 0)), mi((1, 0)), mi((0, 1)), mi((1, 1))
    p = {(o, c, c): 1 for c in (o, x, y, z)}
    p.update({(x, o, x): 1, (x, x, o): 1, (x, y, z): 1, (x, z, y): 1,
              (y, o, y): 1, (y, y, o): 1, (y, x, x): 1, (y, z, z): 1})
    t = IntersectionTensor(labels=(o, x, y, z), identity=o, p=p)
    check = associativity(t)
    assert not check.passed
    assert check.witness == associativity_oracle(t)


def test_reproducer_fails_every_command():
    """The corrupted C6 x C6 tensor keeps every generator row, so before
    the check it passed certification; now each command exits 1 at
    numbers.associativity with the oracle's witness."""
    t = tensor_from_dict(tensor_to_dict(reproducer()))
    assert t.validate().passed and table_rows(t) == table_rows(torus(6, 6))
    expected = associativity_oracle(t)
    assert expected == {"generator": "0,1", "a": "0,1", "b": "0,3", "c": "0,1",
                        "lhs": "0", "rhs": "1"}
    for argv in (["certify-ppoly", "--order", "deglex-sum"],
                 ["certify-ppoly", "--order", "deglex-sum", "--boundary",
                  "--recurrences"],
                 ["certify-ppoly", "--order", "deglex-sum", "--partial",
                  "componentwise", "--boundary"],
                 ["type-ab", "--region"]):
        code, report = _cli(t, *argv)
        assert code == 1
        assert report["certificates"]["numbers"]["checks"][-1]["witness"] == expected

"""The table-driven order-axiom validator against the loop oracle.

``validate_monomial_order`` reads all five axiom checks from one table
of comparator results over the doubled box; ``helpers.
brute_force_monomial_order`` runs them as the original pair and triple
loops.  The two must agree on every check's verdict and witness, for the
built-in orders and for broken comparators: one that ignores all but
the last entry, one that reverses deglex-sum, random priorities, and
random relation tables that also answer INCOMPARABLE or disagree with
their mirror image.
"""

from __future__ import annotations

import itertools
import random

from hypothesis import given, settings, strategies as st

from mdrg import MonomialOrder, MultiIndex, box

from helpers import (Comparison, brute_force_monomial_order, key_compare,
                     validate_monomial_order)

BUILTIN = {1: ["deglex-sum", "lex", "wdeglex:3/2"],
           2: ["deglex-sum", "deglex-y2", "lex", "wdeglex:1/2,3"],
           3: ["deglex-sum", "lex", "wdeglex:2,1/3,1"]}


def by_last_entry(a: MultiIndex, b: MultiIndex) -> Comparison:
    if a[-1] < b[-1]:
        return Comparison.LESS
    if a[-1] > b[-1]:
        return Comparison.GREATER
    return Comparison.EQUAL


def skewed(a: MultiIndex, b: MultiIndex) -> Comparison:
    rel = key_compare(MonomialOrder.parse("deglex-sum"))(a, b)
    return {Comparison.LESS: Comparison.GREATER,
            Comparison.GREATER: Comparison.LESS}.get(rel, rel)


def priorities(rng: random.Random, wide: list):
    """Random total order of the points; not translation invariant."""
    rank = {point: rng.random() for point in wide}

    def cmp(a: MultiIndex, b: MultiIndex) -> Comparison:
        if a == b:
            return Comparison.EQUAL
        return Comparison.LESS if rank[a] < rank[b] else Comparison.GREATER
    return cmp


def relation_table(rng: random.Random, wide: list, noise: float):
    """deglex-sum with each answer replaced, with probability ``noise``,
    by a random relation (INCOMPARABLE included)."""
    base = key_compare(MonomialOrder.parse("deglex-sum"))
    table = {(a, b): (rng.choice(list(Comparison)) if rng.random() < noise
                      else base(a, b))
             for a, b in itertools.product(wide, repeat=2)}
    return lambda a, b: table[(a, b)]


def assert_same(cmp, m: int, bound: int) -> None:
    got = validate_monomial_order(cmp, m, bound)
    expected = brute_force_monomial_order(cmp, m, bound)
    assert got.checks == expected.checks


def test_builtin_and_seeded_broken_orders_match_the_loops():
    for m, bound in ((1, 3), (2, 2), (3, 1)):
        for text in BUILTIN[m]:
            assert_same(MonomialOrder.parse(text), m, bound)
        assert_same(by_last_entry, m, bound)
        assert_same(skewed, m, bound)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32),
       shape=st.sampled_from([(1, 4), (2, 1), (2, 2), (3, 1)]),
       noise=st.sampled_from([0.0, 0.002, 0.02, 0.3]), random_order=st.booleans())
def test_broken_comparators_match_the_loops(seed, shape, noise, random_order):
    m, bound = shape
    rng = random.Random(seed)
    wide = list(box((2 * bound,) * m))
    cmp = (priorities(rng, wide) if random_order
           else relation_table(rng, wide, noise))
    assert_same(cmp, m, bound)

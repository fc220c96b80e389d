"""The paper's main theorem on random Cartesian products.

A Cartesian product of 1-3 small distance-regular factors (cycles,
complete graphs, Hamming graphs), each factor in its own color, is
m-distance-regular under every monomial order: the m-distance is the
vector of factor distances, which is componentwise below the m-length of
every walk.  Its vertices are renamed and reordered, and in some
examples one edge gets another color.  Whenever ``mdrg_check`` passes,
the distance scheme must be m-variate P-polynomial under the same order:
``certify_ppoly``, ``boundary_check``, ``extract_polynomials`` and
``verify_recurrences`` pass on its tensor, and for m <= 2 labeling
discovery finds the color classes with the identity labeling.
"""

from __future__ import annotations

import math
import random

from hypothesis import given, settings, strategies as st

from mdrg import (ColoredGraph, Discovery, Labeling, MultiIndex,
                  boundary_check, cartesian_product, certify_ppoly, complete,
                  cycle, discover_labelings, extract_polynomials,
                  hamming_graph, mdrg_check, verify_recurrences)

from helpers import orders, renamed

FACTORS = {"C3": cycle(3), "C4": cycle(4), "C5": cycle(5), "C6": cycle(6),
           "K2": complete(2), "K3": complete(3), "K4": complete(4),
           "H(2,3)": hamming_graph(2, 3), "H(3,2)": hamming_graph(3, 2)}


def recolored(g: ColoredGraph, edge: int, shift: int) -> ColoredGraph:
    """g with its edge number ``edge`` moved ``shift`` colors on, mod m."""
    edges = g.edge_names()
    u, v, color = edges[edge]
    edges[edge] = (u, v, (color - 1 + shift) % g.m + 1)
    return ColoredGraph(g.m, g.vertices, edges)


@settings(max_examples=100, deadline=None)
@given(names=st.lists(st.sampled_from(sorted(FACTORS)), min_size=1, max_size=3)
       .filter(lambda names: math.prod(FACTORS[f].n for f in names) <= 64),
       seed=st.integers(0, 2 ** 32), perturb=st.booleans(), data=st.data())
def test_mdrg_products_are_p_polynomial(names, seed, perturb, data):
    rng = random.Random(seed)
    g = renamed(cartesian_product([FACTORS[f] for f in names]), rng)
    perturb = perturb and g.m > 1
    if perturb:
        g = recolored(g, rng.randrange(len(g.edges)), rng.randrange(1, g.m))
    order = data.draw(orders(g.m))
    result = mdrg_check(g, order)
    assert result.certificate.passed or perturb
    if not result.certificate.passed:
        return
    t = result.tensor
    assert certify_ppoly(t, order).passed
    assert boundary_check(t, order).passed
    polys, extracted = extract_polynomials(t, order)
    assert extracted.passed
    assert verify_recurrences(polys, t).passed
    if g.m <= 2:
        colors = tuple(MultiIndex.unit(g.m, i) for i in range(1, g.m + 1))
        identity = Labeling.from_dict({lab: lab for lab in t.labels})
        assert Discovery(colors, identity) in discover_labelings(
            result.scheme, g.m, order)

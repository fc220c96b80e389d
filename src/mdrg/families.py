"""Generators for the graph and scheme families used throughout.

Concrete graphs: cycles, complete graphs, Hamming graphs, Cartesian
products with one color block per factor, the 24-cell with its two-color
geometry, and the Pauli-style two-class scheme on four points.  Abstract
constructions: k-fold symmetrization of a base scheme and the
two-parameter family of formal intersection tensors that interpolates
the 24-cell.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

import numpy as np

from .graphs import ColoredGraph
from .orders import MultiIndex
from .schemes import IntersectionTensor, Label, SchemeClasses


def cycle(n: int) -> ColoredGraph:
    """The cycle on n >= 3 vertices, single color."""
    if n < 3:
        raise ValueError("cycle needs n >= 3, got %d" % n)
    names = [str(i) for i in range(n)]
    edges = [(names[i], names[(i + 1) % n], 1) for i in range(n)]
    return ColoredGraph(1, names, edges)


def complete(n: int) -> ColoredGraph:
    """The complete graph on n >= 2 vertices, single color."""
    if n < 2:
        raise ValueError("complete graph needs n >= 2, got %d" % n)
    names = [str(i) for i in range(n)]
    edges = [(names[i], names[j], 1) for i in range(n) for j in range(i + 1, n)]
    return ColoredGraph(1, names, edges)


def _word(letters: Sequence[int], q: int) -> str:
    if q <= 10:
        return "".join(str(d) for d in letters)
    return ",".join(str(d) for d in letters)


def hamming_graph(k: int, q: int) -> ColoredGraph:
    """H(k, q): words of length k over q letters, adjacent iff they
    differ in exactly one position.  Single color."""
    if k < 1 or q < 2:
        raise ValueError("hamming graph needs k >= 1 and q >= 2")
    words = list(itertools.product(range(q), repeat=k))
    names = [_word(w, q) for w in words]
    edges = []
    for w in words:
        for pos in range(k):
            for letter in range(w[pos] + 1, q):
                other = w[:pos] + (letter,) + w[pos + 1:]
                edges.append((_word(w, q), _word(other, q), 1))
    return ColoredGraph(1, names, edges)


def cartesian_product(factors: Sequence[ColoredGraph]) -> ColoredGraph:
    """Cartesian product; factor i keeps its own block of colors.

    A product vertex is adjacent to another when they agree in all but
    one coordinate and the differing coordinate is an edge of that
    factor; the edge color is the factor's color shifted past the colors
    of all earlier factors, so m = sum of factor m's.
    """
    if not factors:
        raise ValueError("need at least one factor")
    m_total = sum(g.m for g in factors)
    names = [",".join(parts) for parts in itertools.product(*(g.vertices for g in factors))]
    edges: list[tuple[str, str, int]] = []
    offset = 0
    for pos, g in enumerate(factors):
        before = [h.vertices for h in factors[:pos]]
        after = [h.vertices for h in factors[pos + 1:]]
        for u, v, color in g.edge_names():
            for left in itertools.product(*before):
                for right in itertools.product(*after):
                    a = ",".join(left + (u,) + right)
                    b = ",".join(left + (v,) + right)
                    edges.append((a, b, offset + color))
        offset += g.m
    return ColoredGraph(m_total, names, edges)


# -- Symmetrization --------------------------------------------------------------

SYMMETRIZE_MAX_ENTRIES = 2 ** 24  # of symmetrize's q^(2k) index entries, ~49 B each


def symmetrize(base: SchemeClasses, k: int) -> SchemeClasses:
    """The k-fold symmetric tensor scheme of a base scheme.

    For a base scheme with identity A_0 and classes A_1..A_m on q points,
    the class of multi-index n (with |n| <= k) is the sum over all
    distinct arrangements of n_1 copies of A_1, ..., n_m copies of A_m
    and k-|n| copies of A_0 of the corresponding Kronecker products: a
    pair of words lies in it when exactly n_j of its letter positions
    hold a pair of class A_j.  Each such position adds R^m + R^(m-j)
    (R = k+1) to the pair's code, one Kronecker sum per position, so the
    code |n| R^m + sum_j n_j R^(m-j) sorts as the labels: by |n|, then lex.

    Vertices are words of base-vertex indices, matching
    :func:`hamming_graph` names, so for the one-class base the union of
    the unit classes is literally H(k, q).
    """
    if k < 1:
        raise ValueError("need k >= 1")
    ident = base.identity_index()
    if ident is None:
        raise ValueError("base scheme has no identity class")
    if base.index is None:
        raise ValueError("base classes must partition the vertex pairs")
    others = [i for i in range(len(base.labels)) if i != ident]
    if not others:  # m = 0: one empty label, and q^(2k) = 1 bounds no k
        raise ValueError("base scheme has no class besides the identity")
    m, q, radix = len(others), base.n, k + 1
    if q ** (2 * min(k, 64)) > SYMMETRIZE_MAX_ENTRIES:  # q > 1 passes it by k = 13
        raise ValueError("%d^%d index entries, more than %d"
                         % (q, 2 * k, SYMMETRIZE_MAX_ENTRIES))
    if radix ** (m + 1) >= 2 ** 63:
        raise ValueError("too many classes for int64 codes")
    weight = np.zeros(len(base.labels), dtype=np.int64)
    weight[others] = [radix ** m + radix ** (m - j) for j in range(1, m + 1)]
    code = np.zeros((1, 1), dtype=np.int64)
    for _ in range(k):
        code = (code[:, None, :, None] + weight[base.index][None, :, None, :]
                ).reshape(len(code) * q, -1)
    combos = sorted((combo for combo in itertools.product(range(radix), repeat=m)
                     if sum(combo) <= k), key=sum)
    names = [_word(w, q) for w in itertools.product(range(q), repeat=k)]
    return SchemeClasses.from_index([MultiIndex(combo) for combo in combos],
                                    np.unique(code, return_inverse=True)[1]
                                    .reshape(code.shape), names)


def pauli_scheme4() -> SchemeClasses:
    """Two-class scheme on 4 points from bit-flip tensor words.

    With s = J - I on two points, the classes are I (x) I,
    I (x) s + s (x) I, and s (x) s: pairs of 2-bit words grouped by how
    many bits differ.
    """
    differing_bits = [[bin(x ^ y).count("1") for y in range(4)] for x in range(4)]
    return SchemeClasses.from_index(["A0", "A1", "A2"], differing_bits,
                                    ["00", "01", "10", "11"])


# -- The 24-cell and its two-parameter interpolation ------------------------------

def cell24() -> ColoredGraph:
    """The 24-cell skeleton colored by Euclidean distance.

    Vertices are the 24 vectors with two entries from {-1, +1} and two
    zeros.  Color 1 joins pairs at squared distance 4 (inner product 0),
    color 2 joins pairs at squared distance 6 (inner product -1).  The
    remaining distances (squared 2 and 8) are not edges.
    """
    vectors = []
    for i, j in itertools.combinations(range(4), 2):
        for si, sj in itertools.product((1, -1), repeat=2):
            v = [0, 0, 0, 0]
            v[i], v[j] = si, sj
            vectors.append(tuple(v))
    vectors.sort(reverse=True)
    names = {v: ",".join(str(c) for c in v) for v in vectors}
    edges = []
    for a, b in itertools.combinations(vectors, 2):
        inner = sum(x * y for x, y in zip(a, b))
        if inner == 0:
            edges.append((names[a], names[b], 1))
        elif inner == -1:
            edges.append((names[a], names[b], 2))
    return ColoredGraph(2, [names[v] for v in vectors], edges)


def gen24cell(ell, s) -> IntersectionTensor:
    """Formal five-class tensor interpolating the 24-cell scheme.

    Parameters are exact rationals; ell=2, s=1/2 reproduces the 24-cell
    intersection numbers.  Classes keep opaque tags A0..A4 (A0 the
    identity); multi-index labelings are applied separately.  Validation
    covers necessary conditions only: all numbers nonnegative and all
    valencies positive.  Integrality can be checked via
    ``IntersectionTensor.validate(strict_integral=True)``; existence of
    an actual scheme with these numbers is not decided here.
    """
    ell = Fraction(ell)
    s = Fraction(s)
    lo = 4 * s - 1
    hi = 4 * s + 1
    k1 = 16 * ell * s * s
    k2 = 2 * lo * hi
    up = 2 * (ell - 1) * s * hi
    down = 2 * (ell - 1) * s * lo
    half = 8 * ell * s * s
    mid = 32 * s * s - 4

    zero = Fraction(0)
    one = Fraction(1)
    l0 = [[one if r == c else zero for c in range(5)] for r in range(5)]
    l1 = [
        [zero, k1, zero, zero, zero],
        [one, up, k2 / 2, down, zero],
        [zero, half, zero, half, zero],
        [zero, down, k2 / 2, up, one],
        [zero, zero, zero, k1, zero],
    ]
    l2 = [
        [zero, zero, k2, zero, zero],
        [zero, k2 / 2, zero, k2 / 2, zero],
        [one, zero, mid, zero, one],
        [zero, k2 / 2, zero, k2 / 2, zero],
        [zero, zero, k2, zero, zero],
    ]
    l3 = [
        [zero, zero, zero, k1, zero],
        [zero, down, k2 / 2, up, one],
        [zero, half, zero, half, zero],
        [one, up, k2 / 2, down, zero],
        [zero, k1, zero, zero, zero],
    ]
    l4 = [[one if r + c == 4 else zero for c in range(5)] for r in range(5)]

    tags = ["A0", "A1", "A2", "A3", "A4"]
    p: dict[tuple[Label, Label, Label], Fraction] = {}
    for i, mat in enumerate((l0, l1, l2, l3, l4)):
        for k_row in range(5):
            for j in range(5):
                value = mat[k_row][j]
                if value < 0:
                    raise ValueError(
                        "negative intersection number p[%s,%s]^%s = %s; "
                        "parameters outside the admissible range"
                        % (tags[i], tags[j], tags[k_row], value))
                if value:
                    p[(tags[i], tags[j], tags[k_row])] = value
    tensor = IntersectionTensor(labels=tuple(tags), identity="A0", p=p)
    for tag in tags:
        if tensor.valency(tag) <= 0:
            raise ValueError("class %s has valency %s; parameters outside "
                             "the admissible range" % (tag, tensor.valency(tag)))
    return tensor

"""Shared oracles for the test suite.

Everything here recomputes expected values by a route independent of the
library internals: simple-path enumeration instead of the label-setting
search, direct counting on cycles instead of tensor products, explicit
closed-form coefficient tables for the generalized 24-cell polynomials,
dense Fraction elimination (``mdrg.exactlinalg``) instead of the
recurrence and the triangular boundary test, and plain loops over the
box instead of the order-compatibility table.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction

import numpy as np

from mdrg import (Certificate, Check, ColoredGraph, Comparison, Labeling,
                  MonomialOrder, MultiIndex, PartialOrder, Polynomial, box,
                  in_span, mat_vec, solve_columns)
from mdrg.certificates import witness

# The two label maps of the 24-cell family.  Diagonal sends the valency-8
# class A1 to (1,1); axis sends it to (0,2).
DIAGONAL_LABELING = Labeling.parse("A0=0,0;A1=1,1;A2=1,0;A3=0,1;A4=2,0")
AXIS_LABELING = Labeling.parse("A0=0,0;A1=0,2;A2=1,0;A3=0,1;A4=2,0")


# -- Brute-force m-distance ---------------------------------------------------

def brute_force_distance(g: ColoredGraph, order: MonomialOrder,
                         x: str, y: str) -> MultiIndex:
    """Minimum m-length over all simple paths from x to y.

    Removing a repeated-vertex loop from a walk can only lower the count
    vector componentwise, so the optimum over walks is attained on a
    simple path and plain DFS enumeration is a sound oracle.
    """
    start, goal = g.index(x), g.index(y)
    if start == goal:
        return MultiIndex.zero(g.m)
    best: list[MultiIndex] = []
    counts = [0] * g.m
    visited = [False] * g.n
    visited[start] = True

    def dfs(v: int) -> None:
        for w, color in g.neighbors(v):
            if visited[w]:
                continue
            counts[color - 1] += 1
            if w == goal:
                candidate = MultiIndex(counts)
                if not best or order.lt(candidate, best[0]):
                    best[:] = [candidate]
            else:
                visited[w] = True
                dfs(w)
                visited[w] = False
            counts[color - 1] -= 1

    dfs(start)
    if not best:
        raise AssertionError("no path from %s to %s" % (x, y))
    return best[0]


def random_colored_graph(rng: random.Random, n: int, m: int,
                         extra_edges: int = 3) -> ColoredGraph:
    """Connected graph on n vertices: a random tree plus a few chords."""
    names = [str(i) for i in range(n)]
    edges: set[tuple[int, int]] = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    for _ in range(extra_edges):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    colored = [(names[u], names[v], rng.randint(1, m)) for u, v in sorted(edges)]
    return ColoredGraph(m, names, colored)


# -- Cycle oracle --------------------------------------------------------------

def cycle_distance(n: int, i: int, j: int) -> int:
    return min((i - j) % n, (j - i) % n)


def cycle_intersection_numbers(n: int) -> dict[tuple[int, int, int], int]:
    """All p_{a,b}^c of the cycle C_n, counted directly on Z_n."""
    p: dict[tuple[int, int, int], int] = {}
    for c in range(n // 2 + 1):
        counts = Counter(
            (cycle_distance(n, 0, z), cycle_distance(n, z, c))
            for z in range(n))
        for (a, b), value in counts.items():
            p[(a, b, c)] = value
    return p


# -- Matrix evaluation of extracted polynomials --------------------------------

def fraction_matrix(mat: np.ndarray) -> np.ndarray:
    return np.array([[Fraction(int(v)) for v in row] for row in mat],
                    dtype=object)


def evaluate_terms(terms: dict[MultiIndex, Fraction],
                   generators: list[np.ndarray]) -> np.ndarray:
    """Sum of coef * prod_i G_i^{a_i}, computed with plain matmul."""
    n = generators[0].shape[0]
    total = np.array([[Fraction(0)] * n for _ in range(n)], dtype=object)
    for a, coef in terms.items():
        term = np.array([[Fraction(1) if i == j else Fraction(0)
                          for j in range(n)] for i in range(n)], dtype=object)
        for i, exponent in enumerate(a):
            for _ in range(exponent):
                term = term @ generators[i]
        total = total + term * coef
    return total


# -- Generalized 24-cell closed forms -------------------------------------------

def closed_form_v11(ell: Fraction, s: Fraction) -> dict[MultiIndex, Fraction]:
    kappa = (4 * s - 1) * (4 * s + 1)
    return {
        MultiIndex((1, 1)): Fraction(1) / kappa,
        MultiIndex((0, 1)): Fraction(-1),
    }


def closed_form_v20(ell: Fraction, s: Fraction) -> dict[MultiIndex, Fraction]:
    kappa = (4 * s - 1) * (4 * s + 1)
    return {
        MultiIndex((2, 0)): Fraction(1) / (2 * kappa),
        MultiIndex((1, 0)): -2 * (8 * s * s - 1) / kappa,
        MultiIndex((0, 0)): Fraction(-1),
    }


def closed_form_v02(ell: Fraction, s: Fraction) -> dict[MultiIndex, Fraction]:
    denom = 2 * (ell - 1) * s * (4 * s + 1)
    return {
        MultiIndex((0, 2)): Fraction(1) / denom,
        MultiIndex((0, 1)): -2 * (ell - 1) * s * (4 * s - 1) / denom,
        MultiIndex((1, 0)): -8 * ell * s * s / denom,
        MultiIndex((0, 0)): -16 * ell * s * s / denom,
    }


# -- Pair-count oracle ------------------------------------------------------------

def brute_force_pair_counts(idx: np.ndarray):
    """Triple loop over (x, y, z) counting #{z : idx[x,z]=a, idx[z,y]=b}.

    Returns {(a, b, c): count} when the counts of every pair equal those
    of the first pair of its class c, else the first pair (x, y), in
    row-major order, whose counts differ.
    """
    n = len(idx)
    reference: dict[int, Counter] = {}
    for x in range(n):
        for y in range(n):
            counts = Counter((int(idx[x][z]), int(idx[z][y])) for z in range(n))
            c = int(idx[x][y])
            if c not in reference:
                reference[c] = counts
            elif counts != reference[c]:
                return (x, y)
    return {(a, b, c): value for c, counts in reference.items()
            for (a, b), value in counts.items()}


# -- Dense exact-algebra oracles for polynomials and the boundary ----------------

def regular_representation(t) -> dict:
    """Dense left-multiplication matrices of the generators e_1..e_m.

    The matrix of generator g has entry (b, a) = p_{g,a}^b, so applying
    it to the coordinate vector of A_a yields the coordinates of A_g A_a.
    """
    index = {lab: i for i, lab in enumerate(t.labels)}
    out = {}
    for color in range(1, t.m + 1):
        g = MultiIndex.unit(t.m, color)
        mat = [[Fraction(0)] * len(t.labels) for _ in t.labels]
        for (a, b, c), value in t.p.items():
            if a == g:
                mat[index[c]][index[b]] = value
        out[g] = mat
    return out


def dense_monomial_vector(t, a: MultiIndex) -> list:
    """Coordinates of A_{e_1}^{a_1} ... A_{e_m}^{a_m}, by dense mat_vec."""
    reps = regular_representation(t)
    vec = [Fraction(int(lab == t.identity)) for lab in t.labels]
    for color, exponent in enumerate(a, start=1):
        for _ in range(exponent):
            vec = mat_vec(reps[MultiIndex.unit(len(a), color)], vec)
    return vec


def solve_polynomials(t, leq) -> dict:
    """v_n from solving sum_{a below n} f_a A^a = A_n by Gaussian elimination."""
    dom = sorted(t.domain())
    vectors = {a: dense_monomial_vector(t, a) for a in dom}
    polys = {}
    for n in dom:
        candidates = [a for a in dom if leq(a, n)]
        target = [Fraction(int(lab == n)) for lab in t.labels]
        solution = solve_columns([vectors[a] for a in candidates], target)
        assert solution is not None, n
        polys[n] = Polynomial(dict(zip(candidates, solution)))
    return polys


def span_boundary_check(t, leq) -> Certificate:
    """The boundary span test as one rank comparison per case."""
    reps = regular_representation(t)
    dom = sorted(t.domain())
    vectors = {a: dense_monomial_vector(t, a) for a in dom}
    cases = 0
    for a in dom:
        for color in range(1, t.m + 1):
            unit = MultiIndex.unit(t.m, color)
            up = a + unit
            if up in t.domain():
                continue
            cases += 1
            window = [b for b in dom if leq(b, up)]
            if not in_span([vectors[b] for b in window],
                           mat_vec(reps[unit], vectors[a])):
                return Certificate.single(
                    "boundary-span", False,
                    witness(generator=unit, a=a, bound=up, window=window))
    return Certificate.single("boundary-span", True,
                              detail="%d boundary cases" % cases)


# -- Order-pair compatibility oracle ---------------------------------------------

def brute_force_pair_compat(p: PartialOrder, order: MonomialOrder,
                            box_bound: int, m: int) -> Certificate:
    """The three compatibility checks as plain loops over the box."""
    points = list(box((box_bound,) * m))
    checks = []

    refine_witness = None
    for a, b in itertools.product(points, repeat=2):
        if a != b and p.precedes(a, b) and order.compare(a, b) is not Comparison.LESS:
            refine_witness = witness(a=a, b=b, order=order.as_text())
            break
    checks.append(Check("refines-order", refine_witness is None, refine_witness))

    shift_witness = None
    for a, b, c in itertools.product(points, repeat=3):
        if p.precedes(a, b) and not p.precedes(a + c, b + c):
            shift_witness = witness(a=a, b=b, shift=c)
            break
    checks.append(Check("translation", shift_witness is None, shift_witness))

    origin = MultiIndex.zero(m)
    below_witness = None
    for a in points:
        if not p.precedes(origin, a):
            below_witness = witness(a=a)
            break
    checks.append(Check("origin-below", below_witness is None, below_witness))
    return Certificate.of(checks)

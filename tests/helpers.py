"""Shared oracles for the test suite.

Everything here recomputes expected values by a route independent of the
library internals: simple-path enumeration and a single-source
label-setting search instead of the all-sources relaxation, direct counting on cycles instead of tensor products, explicit
closed-form coefficient tables for the generalized 24-cell polynomials,
dense Fraction elimination (``mdrg.exactlinalg``) instead of the
recurrence and the proved boundary certificate, dense products of every
intersection matrix instead of the sorted integer sums of the
associativity check, plain loops over the box
instead of the order-compatibility table and the order-axiom table,
Fraction loops over every label triple and the label-keyed dict scans
over ``t.p`` instead of the class-position arrays of
``IntersectionTensor`` (``validate``, ``associativity``, the generator
rows, ``relabel`` and the document reader), and dom x dom scans through ``t.get``
instead of the generator rows, with the retry loop for the (alpha, beta)
region, the label-keyed Fraction recurrence instead of the integer one
of extraction and the recurrence check, every box of D enumerated
instead of the immediate-predecessor test of box closure, a colored graph certified per generator tuple instead of the
label-setting search over the intersection numbers, loops over dense
0/1 class matrices and sums of Kronecker products instead of the class
index matrix, the defining Fraction inequalities of each partial
order instead of its integer weight rows, and ``json.loads`` of the
whole text, or a text-mode reader that decodes the whole file and
matches the layout in that ``str``, instead of the document reader's
byte-level layout match and digit stack.

It also holds the checks that only the tests run: the structural
consequences of m-distance-regularity (triangle bounds, additive
nonvanishing, sum decomposition, walk-type invariance, edge-step
precedence), the order-axiom validator with its four-way comparison,
per-color adjacency matrices and lists, interval membership, readers
of documents the CLI only writes, the graph renaming and order
strategy that the property tests share, and the nonbinary Johnson
graphs, the one family of oracle graphs that is not a product.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from collections import Counter
from enum import Enum
from fractions import Fraction
from typing import Any, Callable, Mapping, Optional, Sequence, Union

import numpy as np
from hypothesis import strategies as st

from mdrg import (ABRegion, Certificate, Check, ColoredGraph,
                  DisconnectedGraphError, Discovery, DistanceTable,
                  IntersectionTensor, Interval, Labeling, MonomialOrder,
                  MultiIndex, PartialOrder, SchemeClasses,
                  ab_feasible_region, box, distance_matrices, in_span,
                  intersection_tensor, mat_vec, m_distance_table, mdrg_check,
                  solve_columns, verify_scheme_axioms)
from mdrg.certificates import witness
from mdrg.graphs import least_labels
from mdrg.schemes import BadPair, _pair_witness, _read_only, label_text, pair_counts
from mdrg.serialize import (InputFormatError, _check_list, _layout, _required,
                            fraction_from_json, graph_from_dict,
                            label_from_text, scheme_from_dict,
                            tensor_from_dict)

# The two label maps of the 24-cell family.  Diagonal sends the valency-8
# class A1 to (1,1); axis sends it to (0,2).
DIAGONAL_LABELING = Labeling.parse("A0=0,0;A1=1,1;A2=1,0;A3=0,1;A4=2,0")
AXIS_LABELING = Labeling.parse("A0=0,0;A1=0,2;A2=1,0;A3=0,1;A4=2,0")


def named_check(cert: Certificate, name: str) -> Check:
    """The check of ``cert`` called ``name``; KeyError if it has none."""
    for check in cert.checks:
        if check.name == name:
            return check
    raise KeyError(name)


class Comparison(Enum):
    """The four-way answer of a comparator, as the order validators read it."""

    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


def json_load_document(path: str):
    """``load_document`` as json alone reads it: the whole text through
    ``json.loads``, class matrices as nested lists, with the same dispatch
    and messages."""
    with open(path, "r", encoding="ascii") as handle:
        text = handle.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError("%s: not valid JSON (%s)" % (path, exc)) from exc
    return _dispatch(path, data)


def text_load_document(path: str):
    """``load_document`` as a text-mode reader: the whole file decoded to
    one ``str`` (universal newlines), a scheme in ``dump_json``'s layout
    matched in that text with its values by json's scanner and each class
    matrix compared, 1s read as 0s, with a zero matrix's text, any other
    text through ``json.loads``; the same dispatch and messages."""
    with open(path, "r", encoding="ascii") as handle:
        text = handle.read()
    try:
        data = _text_read_scheme(text) or json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError("%s: not valid JSON (%s)" % (path, exc)) from exc
    return _dispatch(path, data)


def _dispatch(path: str, data: Any):
    if not isinstance(data, dict):
        raise InputFormatError("%s: top level must be an object" % path)
    if "edges" in data:
        return graph_from_dict(data)
    if "matrices" in data:
        return scheme_from_dict(data)
    if "p" in data:
        return tensor_from_dict(data)
    raise InputFormatError("%s: expected one of the keys edges/matrices/p" % path)


def _text_read_scheme(text: str) -> Optional[dict]:
    """The object of a scheme document in ``dump_json``'s layout, keys
    labels, matrices and optionally vertices, values by json's C scanner
    but a digit stack by :func:`_text_read_digits`; None for any other text."""
    scan, data, pos = json.JSONDecoder().raw_decode, {}, 0
    try:
        for key in ("labels", "matrices", "vertices"):
            head = '%s\n  "%s": ' % ("," if data else "{", key)
            if not text.startswith(head, pos):
                break
            pos += len(head)
            data[key], pos = (key == "matrices" and _text_read_digits(text, pos)
                              or scan(text, pos))
    except (ValueError, RecursionError):  # json.loads raises it again
        return None
    done = "matrices" in data and len(text) - pos == 3 and text.endswith("\n}\n")
    return data if done else None


def _text_read_digits(text: str, pos: int) -> Optional[tuple[np.ndarray, int]]:
    """The read-only (k, n, n) uint8 stack at ``pos``, and its end, if each
    matrix's text is that of a zero n x n matrix with some 0s made 1s."""
    end = text.find("]", pos)  # of the first row, which has n entries
    n = text.count(",", pos, end) + 1
    if not 0 < n * (end - pos) <= 2 * (len(text) - pos):  # no row; template too big
        return None
    zeros, offsets = _layout((n, n), "\n    ")
    template, matrices, sep = str(zeros, "ascii"), [], "[\n    "
    while text.startswith(sep, pos):
        pos += len(sep)
        matrix = text[pos:pos + len(template)]  # template has no 1
        if matrix.replace("1", "0") != template:
            return None
        matrices.append(np.frombuffer(matrix.encode("ascii"), np.uint8).take(offsets) - 48)
        pos, sep = pos + len(template), ",\n    "
    if matrices and text.startswith("\n  ]", pos):
        return _read_only(np.stack(matrices).reshape(-1, n, n)), pos + 4
    return None


# -- Brute-force m-distance ---------------------------------------------------

def brute_force_distance(g: ColoredGraph, order: MonomialOrder,
                         x: str, y: str) -> MultiIndex:
    """Minimum m-length over all simple paths from x to y.

    Removing a repeated-vertex loop from a walk can only lower the count
    vector componentwise, so the optimum over walks is attained on a
    simple path and plain DFS enumeration is a sound oracle.
    """
    start, goal = g.vertices.index(x), g.vertices.index(y)
    if start == goal:
        return MultiIndex.zero(g.m)
    best: list[MultiIndex] = []
    counts = [0] * g.m
    visited = [False] * g.n
    visited[start] = True
    nbrs = adjacency(g)

    def dfs(v: int) -> None:
        for w, color in nbrs[v]:
            if visited[w]:
                continue
            counts[color - 1] += 1
            if w == goal:
                candidate = MultiIndex(counts)
                if not best or order.key(candidate) < order.key(best[0]):
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


def m_distance_from(g: ColoredGraph, order: MonomialOrder,
                    source: str) -> list[MultiIndex]:
    """Single-source m-distances aligned with ``g.vertices``, by the
    label-setting search :func:`mdrg.graphs.least_labels` instead of the
    all-sources relaxation over radix codes; raises
    :class:`DisconnectedGraphError` naming the first unreachable vertex."""
    done = least_labels(adjacency(g), g.m, order.key, g.vertices.index(source))
    if None in done:
        raise DisconnectedGraphError(source, g.vertices[done.index(None)])
    return done  # type: ignore[return-value]


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


def renamed(g: ColoredGraph, rng: random.Random) -> ColoredGraph:
    """The same graph with fresh vertex names in a shuffled vertex list."""
    names = dict(zip(g.vertices, ("v%d" % i for i in rng.sample(range(g.n), g.n))))
    vertices = list(names.values())
    rng.shuffle(vertices)
    return ColoredGraph(g.m, vertices,
                        [(names[u], names[v], c) for u, v, c in g.edge_names()])


def nonbinary_johnson(q: int, length: int, d: int) -> ColoredGraph:
    """J_q(N, d) for N = ``length``: the words in {0..q-1}^N with d nonzero
    entries, named by their digits.  Color 1 joins two words whose
    supports share d - 1 positions and that agree there; color 2 joins two
    words with the same support that differ in one value."""
    words = [w for w in itertools.product(range(q), repeat=length)
             if sum(map(bool, w)) == d]
    supports = [frozenset(i for i, x in enumerate(w) if x) for w in words]
    edges = []
    for (u, su), (v, sv) in itertools.combinations(zip(words, supports), 2):
        common = su & sv
        if len(common) == d - 1 and all(u[i] == v[i] for i in common):
            color = 1
        elif su == sv and sum(x != y for x, y in zip(u, v)) == 1:
            color = 2
        else:
            continue
        edges.append(("".join(map(str, u)), "".join(map(str, v)), color))
    return ColoredGraph(2, ["".join(map(str, w)) for w in words], edges)


def weights(m: int):
    return st.lists(st.fractions(min_value=Fraction(1, 4), max_value=4,
                                 max_denominator=4),
                    min_size=m, max_size=m)


@st.composite
def orders(draw, m: int) -> MonomialOrder:
    """Any built-in order kind for m colors; wdeglex with weights in
    [1/4, 4] of denominator at most 4."""
    kinds = ["deglex-sum", "lex", "wdeglex"] + (["deglex-y2"] if m == 2 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "wdeglex":
        return MonomialOrder("wdeglex", tuple(draw(weights(m))))
    return MonomialOrder.parse(kind)


# -- Graph and distance-table views ---------------------------------------------

def label_rows(table: DistanceTable) -> tuple:
    """The n x n m-distances of a table as rows of labels:
    ``label_rows(table)[i][j]`` is the m-distance between vertices i and j."""
    return tuple(tuple(table.labels[c] for c in row) for row in table.index.tolist())


def distances_oracle(table: DistanceTable) -> dict[str, str]:
    """The distances object as one dict {"x|y": label} over x before y
    in vertex order, built pair by pair; a key written twice (names with
    "|") keeps the later pair's label."""
    g = table.graph
    texts = [lab.as_text() for lab in table.labels]
    distances = {}
    for i, (x, row) in enumerate(zip(g.vertices, table.index.tolist())):
        for y, c in zip(g.vertices[i + 1:], row[i + 1:]):
            distances["%s|%s" % (x, y)] = texts[c]
    return distances


def adjacency(g: ColoredGraph) -> list[list[tuple[int, int]]]:
    """(neighbour, color) lists of each vertex, read from ``g.edges``."""
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for iu, iv, color in g.edges:
        nbrs[iu].append((iv, color))
        nbrs[iv].append((iu, color))
    return nbrs


def color_matrix(g: ColoredGraph, color: int) -> np.ndarray:
    """0/1 adjacency matrix of the given color."""
    if not 1 <= color <= g.m:
        raise ValueError("color %d outside 1..%d" % (color, g.m))
    mat = np.zeros((g.n, g.n), dtype=np.int64)
    for iu, iv, c in g.edges:
        if c == color:
            mat[iu, iv] = 1
            mat[iv, iu] = 1
    return mat


def is_connected(g: ColoredGraph) -> bool:
    nbrs = adjacency(g)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w, _ in nbrs[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def count_walks_by_type(g: ColoredGraph, x: str, y: str,
                        colors: Sequence[int]) -> int:
    """Number of walks from x to y whose edge colors are exactly ``colors``.

    Computed as a chain of matrix-vector products with the per-color
    adjacency matrices, on Python ints so that counts never overflow.
    """
    vec = np.zeros(g.n, dtype=object)
    vec[g.vertices.index(x)] = 1
    for color in colors:
        vec = color_matrix(g, color).astype(object) @ vec
    return int(vec[g.vertices.index(y)])


def distance_profile(table: DistanceTable) -> dict[MultiIndex, int]:
    """Per-label count of partners of a fixed vertex; well-defined only
    for regular instances, reported from vertex 0."""
    counts: dict[MultiIndex, int] = {}
    for lab in label_rows(table)[0]:
        counts[lab] = counts.get(lab, 0) + 1
    return counts


# -- Structural consequences of m-distance-regularity ------------------------------
#
# Necessary conditions on a certified graph or its intersection numbers,
# each with a witness on failure: the certifier's results are checked
# against them.

def check_precompat_graph(g: ColoredGraph, order: MonomialOrder,
                          p: PartialOrder) -> Certificate:
    """Local test that the graph's distances respect a partial order.

    For every ordered pair (x, y) and every edge (y, z) of color i the
    distance must satisfy d(x,z) preceded-by d(x,y) + e_i.  This is the
    one-step version of the walk condition: extending any walk by one
    edge can only move the target distance up in the partial order.
    """
    rows = label_rows(m_distance_table(g, order))
    units = [MultiIndex.unit(g.m, c) for c in range(1, g.m + 1)]
    nbrs = adjacency(g)
    for xi in range(g.n):
        row = rows[xi]
        for yi in range(g.n):
            bound_base = row[yi]
            for zi, color in nbrs[yi]:
                if not p.leq(row[zi], bound_base + units[color - 1]):
                    w = witness(
                        x=g.vertices[xi], y=g.vertices[yi], z=g.vertices[zi],
                        color=color, d_xy=bound_base, d_xz=row[zi],
                        bound=bound_base + units[color - 1],
                        partial=p.as_text())
                    return Certificate.single("edge-step-precedence", False, w)
    return Certificate.single("edge-step-precedence", True,
                              detail="checked %d vertex/edge incidences"
                                     % (g.n * 2 * len(g.edges)))


def check_triangle_conditions(t: IntersectionTensor,
                              order: MonomialOrder) -> Certificate:
    """p_{a,b}^c != 0 forces the three triangle bounds under the order."""
    for (a, b, c), value in t.p.items():
        if value == 0:
            continue
        for lhs, r1, r2, name in ((a, b, c, "a<=b+c"), (b, a, c, "b<=a+c"),
                                  (c, a, b, "c<=a+b")):
            if not order.leq(lhs, r1 + r2):
                return Certificate.single(
                    "triangle", False,
                    witness(a=a, b=b, c=c, violated=name, value=value))
    return Certificate.single("triangle", True)


def check_additive_nonvanishing(t: IntersectionTensor) -> Certificate:
    """a, b, a+b all realized forces p_{a,b}^{a+b} != 0."""
    dom = t.domain()
    for a, b in itertools.product(sorted(dom), repeat=2):
        total = a + b
        if total in dom and t.get(a, b, total) == 0:
            return Certificate.single("additive-nonvanishing", False,
                                      witness(a=a, b=b, sum=total))
    return Certificate.single("additive-nonvanishing", True)


def check_sum_decomposition(table: DistanceTable,
                            t: IntersectionTensor) -> Certificate:
    """Every componentwise split of a realized distance is realized.

    For each c in D and each b <= c componentwise there must exist, for
    every pair at distance c, a vertex z with d(x,z)=b and d(z,y)=c-b.
    With regularity certified the count of such z is the same for all
    pairs at distance c, so checking p_{b,c-b}^c != 0 covers every pair;
    one representative pair per class is additionally re-counted straight
    from the table.
    """
    dom = t.domain()
    n = table.graph.n
    rows = label_rows(table)
    # the first pair of each class in row-major order
    first = dict(zip(table.labels, np.unique(table.index, return_index=True)[1]))
    for c in sorted(dom):
        for b in box(tuple(c)):
            remainder = MultiIndex(x - y for x, y in zip(c, b))
            if b not in dom or remainder not in dom:
                return Certificate.single(
                    "sum-decomposition", False,
                    witness(c=c, b=b, missing=b if b not in dom else remainder))
            if t.get(b, remainder, c) == 0:
                return Certificate.single("sum-decomposition", False,
                                          witness(c=c, b=b, count=0))
            x, y = divmod(int(first[c]), n)
            found = sum(1 for z in range(n)
                        if rows[x][z] == b and rows[z][y] == remainder)
            if found != t.get(b, remainder, c):
                return Certificate.single(
                    "sum-decomposition", False,
                    witness(c=c, b=b, recount=found, tensor=t.get(b, remainder, c)))
    return Certificate.single("sum-decomposition", True)


def check_walk_type_invariance(g: ColoredGraph, rng: random.Random,
                               samples: int = 50,
                               max_length: int = 4) -> Certificate:
    """Walk counts depend only on the multiset of edge colors.

    Samples (x, y, color sequence) triples and compares the walk count of
    every distinct permutation of the sequence.
    """
    for _ in range(samples):
        x = rng.choice(g.vertices)
        y = rng.choice(g.vertices)
        length = rng.randint(2, max_length)
        colors = tuple(rng.randint(1, g.m) for _ in range(length))
        perms = sorted(set(itertools.permutations(colors)))
        counts = [count_walks_by_type(g, x, y, perm) for perm in perms]
        if len(set(counts)) != 1:
            return Certificate.single(
                "walk-type-invariance", False,
                witness(x=x, y=y, types=[list(p) for p in perms],
                        counts=counts))
    return Certificate.single("walk-type-invariance", True,
                              detail="%d sampled triples" % samples)


# -- Document readers the CLI does not need ------------------------------------------

def multiindex_from_json(value: Union[str, list]) -> MultiIndex:
    if isinstance(value, str):
        return MultiIndex.parse(value)
    if isinstance(value, list):
        return MultiIndex(value)
    raise InputFormatError("bad multi-index %r" % (value,))


def polynomials_from_dict(data: Mapping[str, Any]) -> dict[MultiIndex, dict]:
    """The zero-free coefficient maps of a ``polynomials_to_dict`` document."""
    polys: dict[MultiIndex, dict] = {}
    for entry in data["polynomials"]:
        n = MultiIndex.parse(str(entry["n"]))
        coeffs = {MultiIndex.parse(str(term["a"])): fraction_from_json(term["coef"])
                  for term in entry["terms"]}
        polys[n] = {a: value for a, value in coeffs.items() if value}
    return polys


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


# -- Class-matrix loops (oracle for the class index form) --------------------------

def matrix_identity_index(matrices) -> "int | None":
    """The first class matrix equal to the identity."""
    eye = np.eye(len(matrices[0]), dtype=np.int64)
    for i, mat in enumerate(matrices):
        if np.array_equal(mat, eye):
            return i
    return None


def matrix_class_index_matrix(matrices, vertices) -> np.ndarray:
    """Class index of each pair, filled class by class; raises ValueError
    at the first overlap, else at the first uncovered pair."""
    n = len(matrices[0])
    idx = np.full((n, n), -1, dtype=np.int64)
    for i, mat in enumerate(matrices):
        mat = np.asarray(mat)
        overlap = (idx != -1) & (mat == 1)
        if overlap.any():
            x, y = np.argwhere(overlap)[0]
            raise ValueError("classes overlap at (%s, %s)" % (vertices[x], vertices[y]))
        idx[mat == 1] = i
    if (idx == -1).any():
        x, y = np.argwhere(idx == -1)[0]
        raise ValueError("pair (%s, %s) not covered by any class"
                         % (vertices[x], vertices[y]))
    return idx


def matrix_verify_scheme_axioms(labels, matrices, vertices) -> Certificate:
    """``verify_scheme_axioms`` as loops over the class matrices; closure
    runs ``pair_counts`` on :func:`matrix_class_index_matrix`."""
    mats = [np.asarray(mat, dtype=np.int64) for mat in matrices]
    n = len(mats[0])
    checks = []
    ident = matrix_identity_index(mats)
    checks.append(Check("identity-class", ident is not None,
                        None if ident is not None else witness(reason="no identity class")))
    sym_witness = None
    for lab, mat in zip(labels, mats):
        if not np.array_equal(mat, mat.T):
            x, y = np.argwhere(mat != mat.T)[0]
            sym_witness = witness(label=lab, x=vertices[x], y=vertices[y])
            break
    checks.append(Check("symmetry", sym_witness is None, sym_witness))
    total = np.zeros((n, n), dtype=np.int64)
    for mat in mats:
        total += mat
    part_witness = None
    if not (total == 1).all():
        x, y = np.argwhere(total != 1)[0]
        part_witness = witness(x=vertices[x], y=vertices[y], coverage=int(total[x, y]))
    checks.append(Check("partition", part_witness is None, part_witness))
    if part_witness is None and sym_witness is None and ident is not None:
        counts = pair_counts(matrix_class_index_matrix(mats, vertices), len(mats))
        closure_witness = (_pair_witness(counts, labels, vertices)
                           if isinstance(counts, BadPair) else None)
        checks.append(Check("closure", closure_witness is None, closure_witness))
    else:
        checks.append(Check("closure", False,
                            witness(reason="skipped: structural axioms failed")))
    return Certificate.of(checks)


def _arrangements(counts):
    """Distinct sequences containing counts[s] copies of each symbol s."""
    if sum(counts) == 0:
        yield ()
        return
    for s, c in enumerate(counts):
        if c:
            rest = list(counts)
            rest[s] -= 1
            for tail in _arrangements(rest):
                yield (s,) + tail


def kron_symmetrize(base: SchemeClasses, k: int):
    """(labels, matrices) of ``symmetrize(base, k)``: each class the sum of
    the Kronecker products over the arrangements of its base classes."""
    ident = matrix_identity_index(base.matrices)
    others = [i for i in range(len(base.labels)) if i != ident]
    m = len(others)
    q = base.n
    labels, matrices = [], []
    for total in range(k + 1):
        for combo in itertools.product(range(k + 1), repeat=m):
            if sum(combo) != total:
                continue
            acc = np.zeros((q ** k, q ** k), dtype=np.int64)
            for arrangement in _arrangements([k - total] + list(combo)):
                term = np.array([[1]], dtype=np.int64)
                for s in arrangement:
                    term = np.kron(term, base.matrices[ident if s == 0 else others[s - 1]])
                acc += term
            labels.append(MultiIndex(combo))
            matrices.append(acc)
    return labels, matrices


def brute_force_validate(t, strict_integral: bool = False) -> Certificate:
    """``IntersectionTensor.validate`` as plain loops over every triple
    of labels in ``Fraction`` arithmetic, absent entries read as 0."""
    checks = []
    neg = next((key for key, v in t.p.items() if v < 0), None)
    checks.append(Check("nonnegative", neg is None, None if neg is None else
                        witness(a=neg[0], b=neg[1], c=neg[2], value=t.p[neg])))
    found = None
    for a, c in itertools.product(t.labels, repeat=2):
        if t.get(t.identity, a, c) != (Fraction(1) if a == c else Fraction(0)):
            found = witness(a=a, c=c, value=t.get(t.identity, a, c))
            break
    checks.append(Check("identity-rule", found is None, found))
    found = None
    for a, b, c in itertools.product(t.labels, repeat=3):
        if t.get(a, b, c) != t.get(b, a, c):
            found = witness(a=a, b=b, c=c, p_ab=t.get(a, b, c), p_ba=t.get(b, a, c))
            break
    checks.append(Check("commutativity", found is None, found))
    found = None
    for a, c in itertools.product(t.labels, repeat=2):
        total = sum((t.get(a, b, c) for b in t.labels), Fraction(0))
        if total != t.valency(a):
            found = witness(a=a, c=c, row_sum=total, valency=t.valency(a))
            break
    checks.append(Check("row-sums", found is None, found))
    if strict_integral:
        frac = next((key for key, v in t.p.items() if v.denominator != 1), None)
        checks.append(Check("integrality", frac is None, None if frac is None else
                            witness(a=frac[0], b=frac[1], c=frac[2], value=t.p[frac])))
    return Certificate.of(checks)


# -- The label-keyed dict scans (oracles for the class-position arrays) -------------

def dict_validate(t, strict_integral: bool = False) -> Certificate:
    """``IntersectionTensor.validate`` as dict scans over ``t.p``: the
    values times their common denominator as ints, absent keys 0."""
    checks: list[Check] = []
    scale = math.lcm(*(v.denominator for v in t.p.values()))
    p = {key: v.numerator * (scale // v.denominator) for key, v in t.p.items()}
    neg = next((key for key, v in p.items() if v < 0), None)
    checks.append(Check("nonnegative", neg is None, None if neg is None else
                        witness(a=neg[0], b=neg[1], c=neg[2], value=t.p[neg])))
    delta_witness = next((witness(a=a, c=c, value=t.get(t.identity, a, c))
                          for a, c in itertools.product(t.labels, repeat=2)
                          if p.get((t.identity, a, c), 0) != scale * (a == c)), None)
    checks.append(Check("identity-rule", delta_witness is None, delta_witness))
    pos = {lab: i for i, lab in enumerate(t.labels)}
    first = min(((min(pos[a], pos[b]), max(pos[a], pos[b]), pos[c])
                 for (a, b, c), v in p.items() if v != p.get((b, a, c), 0)), default=None)
    comm_witness = None
    if first is not None:
        a, b, c = (t.labels[i] for i in first)
        comm_witness = witness(a=a, b=b, c=c, p_ab=t.get(a, b, c), p_ba=t.get(b, a, c))
    checks.append(Check("commutativity", comm_witness is None, comm_witness))
    sums: dict = {}  # (a, c) -> sum_b p_{a,b}^c
    for (a, b, c), v in p.items():
        sums[a, c] = sums.get((a, c), 0) + v
    sum_witness = next((witness(a=a, c=c, row_sum=Fraction(sums.get((a, c), 0), scale),
                                valency=t.valency(a))
                        for a, c in itertools.product(t.labels, repeat=2)
                        if sums.get((a, c), 0) != p.get((a, a, t.identity), 0)), None)
    checks.append(Check("row-sums", sum_witness is None, sum_witness))
    if strict_integral:
        frac = next((key for key, v in t.p.items() if v.denominator != 1), None)
        checks.append(Check("integrality", frac is None, None if frac is None else
                            witness(a=frac[0], b=frac[1], c=frac[2], value=t.p[frac])))
    return Certificate.of(checks)


def dict_associativity(t) -> Check:
    """``schemes.associativity`` on entries converted from ``t.p``: class
    positions from a label dict, values over their lcm, the same join."""
    pos = {lab: i for i, lab in enumerate(t.labels)}
    k = len(t.labels)
    ratios = [v.as_integer_ratio() for v in t.p.values()]
    scale = math.lcm(*(d for _, d in ratios))
    values = [n * (scale // d) for n, d in ratios]
    top = max(map(abs, values), default=0)
    dtype = np.int64 if max(k ** 4, 2 * k * top * top) < 2 ** 63 else object
    entries = np.fromiter(map(pos.__getitem__, itertools.chain.from_iterable(t.p)),
                          dtype, 3 * len(values)).reshape(-1, 3)
    v = np.array(values, dtype)
    units = [i for i, lab in enumerate(t.labels)
             if isinstance(lab, MultiIndex) and sum(lab) == 1]
    on = (entries[:, :1] == units).any(axis=1)
    gen, gv = entries[on], v[on]
    column = np.concatenate([gen[:, 2], gen[:, 1] + k])
    by_column = np.argsort(column)
    found = np.concatenate([entries[:, 0], entries[:, 2] + k])
    lo = np.searchsorted(column[by_column], found, "left")
    count = np.searchsorted(column[by_column], found, "right") - lo
    i = np.repeat(np.arange(len(found)), count)
    j = by_column[np.repeat(lo - np.cumsum(count) + count, count) + np.arange(len(i))]
    parts = entries @ np.array([[0, k * k], [k, k], [1, 0]], dtype)
    gparts = gen @ np.array([[k ** 3, k ** 3], [k * k, 0], [0, 1]], dtype)
    keys = parts.T.ravel()[i] + gparts.T.ravel()[j]
    terms = np.concatenate([v, -v])[i] * np.concatenate([gv, gv])[j]
    order = np.argsort(keys)
    keys, terms = keys[order], terms[order]
    starts = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]])[:len(keys)])
    failing = keys[starts[np.add.reduceat(terms, starts) != 0]]
    if not failing.size:
        return Check("associativity", True)
    g, x, y, z = (t.labels[int(failing[0]) // k ** e % k] for e in (3, 2, 1, 0))
    lhs = sum((t.get(g, x, d) * t.get(d, y, z) for d in t.labels), Fraction(0))
    rhs = sum((t.get(x, y, d) * t.get(g, d, z) for d in t.labels), Fraction(0))
    return Check("associativity", False,
                 witness(generator=g, a=x, b=y, c=z, lhs=lhs, rhs=rhs))


def dict_generator_rows(t) -> dict:
    """The generator rows (e_i, a) -> {b: p_{e_i,a}^b}, label-keyed and each
    sorted by b, in one pass over ``t.p``: the oracle of ``table_rows``."""
    units = [MultiIndex.unit(t.m, c) for c in range(1, t.m + 1)]
    rows: dict = {}
    for (g, a, b), value in t.p.items():
        if g in units and value != 0:
            value = Fraction(value)
            rows.setdefault((g, a), []).append(
                (b, value.numerator if value.denominator == 1 else value))
    return {key: dict(sorted(row)) for key, row in rows.items()}


def table_rows(t) -> dict:
    """The generator rows that the step checks read (the entries of
    ``t.steps``, on class positions), keyed by labels in the order read."""
    s, rows = t.steps, {}
    for i, a, b, v in zip(*(x.tolist() for x in (s.color, s.a, s.b, s.num))):
        rows.setdefault((t.labels[s.gens[i]], t.labels[a]), {})[t.labels[b]] = (
            v // t.den if v % t.den == 0 else Fraction(v, t.den))
    return rows


def dict_steps(t) -> tuple:
    """(gens, up) of ``t.steps`` from a label-keyed dict and MultiIndex sums:
    the position of e_i and of a + e_i (``where.get``), -1 where no class."""
    where = {lab: i for i, lab in enumerate(t.labels)}
    units = [MultiIndex.unit(t.m, i) for i in range(1, t.m + 1)]
    return ([where.get(unit, -1) for unit in units],
            [[where.get(a + unit, -1) for a in t.labels] for unit in units])


def dict_relabel(t, mapping) -> dict:
    """The label-keyed p of ``t.relabel(mapping)``."""
    return {(mapping[a], mapping[b], mapping[c]): v for (a, b, c), v in t.p.items()}


def dict_tensor_from_dict(data: Mapping[str, Any]) -> tuple:
    """(labels, identity, p) of a tensor document, read row by row into a
    label-keyed dict; an input error at the first row at fault, then the
    label checks, then the first nonzero entry naming an undeclared label."""
    labels, identity, rows = _required(data, "tensor", "labels", "identity", "p")
    _check_list("labels", labels, "class labels")
    _check_list("identity", [identity], "class labels")
    _check_list("p", rows)
    p: dict = {}
    for row in rows:
        if not (isinstance(row, (list, tuple)) and len(row) == 4):
            raise InputFormatError("p entries are [a, b, c, value], got %r" % (row,))
        _check_list("p entries", list(row[:3]), "class labels")
        key = tuple(map(label_from_text, row[:3]))
        if key in p:
            raise InputFormatError("p lists %r twice" % (row[:3],))
        p[key] = fraction_from_json(row[3])
    labels, identity = tuple(map(label_from_text, labels)), label_from_text(identity)
    if identity not in labels:
        raise InputFormatError("identity label %s not among labels" % label_text(identity))
    if len({label_text(lab) for lab in labels}) != len(labels):
        raise InputFormatError("duplicate labels")
    p = {key: v for key, v in p.items() if v}
    bad = next((key for key in p if not set(labels).issuperset(key)), None)
    if bad is not None:
        raise InputFormatError("p entry %s names a label not among labels"
                               % [label_text(lab) for lab in bad])
    return labels, identity, p


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


def associativity_oracle(t) -> Optional[dict]:
    """The witness of ``schemes.associativity`` from dense Fraction
    matrices of every class: (B_x)[c][b] = p_{x,b}^c, as in
    :func:`regular_representation`.  For each generator g, in class
    position order, and each class a, (B_g B_a)[c][b] is
    sum_d p_{a,b}^d p_{g,d}^c and sum_d p_{g,a}^d (B_d)[c][b] is
    sum_d p_{g,a}^d p_{d,b}^c; the first (g, a, b, c) in class positions
    where they differ is returned with both sides, else None."""
    index = {lab: i for i, lab in enumerate(t.labels)}
    reps = {x: [[Fraction(0)] * len(t.labels) for _ in t.labels] for x in t.labels}
    for (x, b, c), value in t.p.items():
        reps[x][index[c]][index[b]] = Fraction(value)
    units = [MultiIndex.unit(t.m, i) for i in range(1, t.m + 1)]
    for g in sorted((u for u in units if u in index), key=index.__getitem__):
        for a in t.labels:
            right = [[sum(x * y for x, y in zip(row, col)) for col in zip(*reps[a])]
                     for row in reps[g]]
            left = [[sum(t.get(g, a, d) * reps[d][c][b] for d in t.labels)
                     for b in range(len(t.labels))] for c in range(len(t.labels))]
            for b, c in itertools.product(range(len(t.labels)), repeat=2):
                if left[c][b] != right[c][b]:
                    return witness(generator=g, a=a, b=t.labels[b], c=t.labels[c],
                                   lhs=left[c][b], rhs=right[c][b])
    return None


def four_cycle_move(t, c, x1, x2, y1, y2):
    """``t`` with p_{x1,y2}^c and p_{x2,y1}^c raised by 1 and p_{x1,y1}^c
    and p_{x2,y2}^c lowered by 1, each with its transpose.  With x1, x2,
    y1, y2 distinct and other than the identity, the identity rule, the
    row sums and commutativity still hold; with none of them a generator,
    no generator row p_{e_i,a}^b changes either."""
    p = dict(t.p)
    for a, b, step in ((x1, y2, 1), (x2, y1, 1), (x1, y1, -1), (x2, y2, -1)):
        for key in (a, b, c), (b, a, c):
            p[key] = p.get(key, 0) + step
    return IntersectionTensor(labels=t.labels, identity=t.identity,
                              p={key: value for key, value in p.items() if value})


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
        polys[n] = {a: value for a, value in zip(candidates, solution) if value}
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


# -- Partial orders by their defining inequalities ---------------------------------

def fraction_precedes(p: PartialOrder, a: MultiIndex, b: MultiIndex) -> bool:
    """a below-or-equal b, per kind: componentwise entries, or the two
    (alpha, beta) inequalities in Fraction arithmetic."""
    if len(a) != len(b):
        raise ValueError("mixed lengths: %d vs %d" % (len(a), len(b)))
    if p.kind == "componentwise":
        return all(x <= y for x, y in zip(a, b))
    if len(a) != 2:
        raise ValueError("ab order is defined for m=2, got m=%d" % len(a))
    al, be = p.ab.alpha, p.ab.beta
    return (a[0] + al * a[1] <= b[0] + al * b[1]
            and be * a[0] + a[1] <= be * b[0] + b[1])


def fraction_downset(a: MultiIndex, p: PartialOrder) -> frozenset:
    """All b preceding a, per kind: the box below a for ``componentwise``;
    for ``ab`` the box b1 <= a1 + alpha*a2, b2 <= beta*a1 + a2, filtered."""
    if p.kind == "componentwise":
        return frozenset(box(tuple(a)))
    al, be = p.ab.alpha, p.ab.beta
    hi1 = int(a[0] + al * a[1])
    hi2 = int(be * a[0] + a[1])
    return frozenset(b for b in box((hi1, hi2)) if fraction_precedes(p, b, a))


def box_closure_oracle(dom) -> Certificate:
    """``check_domain(dom, "box")`` as it was written: every box of D is
    enumerated, D in sorted order and each box in row-major order, up to
    the first index missing from D."""
    dset = frozenset(dom)
    if not dset:
        return Certificate.single("domain-nonempty", False, witness(reason="empty domain"))
    ms = {len(a) for a in dset}
    if len(ms) != 1:
        return Certificate.single("domain-uniform", False, witness(lengths=sorted(ms)))
    gap = next(((a, b) for a in sorted(dset) for b in box(tuple(a)) if b not in dset), None)
    return Certificate.single("box-closure", gap is None, None if gap is None
                              else witness(element=gap[0], missing=gap[1]))


# -- Order-pair compatibility oracle ---------------------------------------------

def brute_force_pair_compat(p: PartialOrder, order: MonomialOrder,
                            box_bound: int, m: int) -> Certificate:
    """The three compatibility checks as plain loops over the box."""
    points = list(box((box_bound,) * m))
    checks = []

    refine_witness = None
    for a, b in itertools.product(points, repeat=2):
        if (a != b and fraction_precedes(p, a, b)
                and not order.key(a) < order.key(b)):
            refine_witness = witness(a=a, b=b, order=order.as_text())
            break
    checks.append(Check("refines-order", refine_witness is None, refine_witness))

    shift_witness = None
    for a, b, c in itertools.product(points, repeat=3):
        if fraction_precedes(p, a, b) and not fraction_precedes(p, a + c, b + c):
            shift_witness = witness(a=a, b=b, shift=c)
            break
    checks.append(Check("translation", shift_witness is None, shift_witness))

    origin = MultiIndex.zero(m)
    below_witness = None
    for a in points:
        if not fraction_precedes(p, origin, a):
            below_witness = witness(a=a)
            break
    checks.append(Check("origin-below", below_witness is None, below_witness))
    return Certificate.of(checks)


def pairwise_pair_compat(p: PartialOrder, order: MonomialOrder,
                         box_bound: int, m: int) -> Certificate:
    """``validate_pair_compat`` as one table over all pairs of the box:
    (B+1)^(2m) * m bytes, so for small boxes only."""
    points = list(box((box_bound,) * m))
    weights = p.forms(m)
    big = box_bound * max(sum(row) for row in weights) >= 2 ** 62
    dtype = object if big else np.int64
    forms = np.array(points, dtype=dtype) @ np.array(weights, dtype=dtype).T
    keys = [order.key(a) for a in points]
    rank = {key: r for r, key in enumerate(sorted(set(keys)))}
    ranks = np.array([rank[key] for key in keys])
    n = len(points)
    precedes = (forms[:, None, :] <= forms[None, :, :]).all(axis=2)
    checks = []

    bad = precedes & ~np.eye(n, dtype=bool) & (ranks[:, None] >= ranks[None, :])
    refine_witness = None
    if bad.any():
        a, b = np.argwhere(bad)[0]
        refine_witness = witness(a=points[a], b=points[b], order=order.as_text())
    checks.append(Check("refines-order", refine_witness is None, refine_witness))

    below = np.flatnonzero(~precedes[0])
    below_witness = witness(a=points[below[0]]) if below.size else None
    checks.append(Check("origin-below", below_witness is None, below_witness))
    return Certificate.of(checks)


# -- Monomial-order axioms: one comparison table, and plain loops as its oracle --

def brute_force_monomial_order(order, m: int, box_bound: int) -> Certificate:
    """The five total-order axiom checks as plain loops over the box,
    calling the comparator on every pair and triple."""
    cmp = _as_compare(order)
    points = list(box((box_bound,) * m))
    checks = []

    tot_witness = None
    for a, b in itertools.product(points, repeat=2):
        if cmp(a, b) is Comparison.INCOMPARABLE:
            tot_witness = witness(a=a, b=b)
            break
    checks.append(Check("totality", tot_witness is None, tot_witness))

    anti_witness = None
    for a, b in itertools.product(points, repeat=2):
        rel, rev = cmp(a, b), cmp(b, a)
        if (rel is Comparison.EQUAL) != (a == b):
            anti_witness = witness(a=a, b=b, relation=rel.value)
            break
        mirror = {Comparison.LESS: Comparison.GREATER,
                  Comparison.GREATER: Comparison.LESS,
                  Comparison.EQUAL: Comparison.EQUAL}.get(rel)
        if mirror is not None and rev is not mirror:
            anti_witness = witness(a=a, b=b, relation=rel.value, reverse=rev.value)
            break
    checks.append(Check("antisymmetry", anti_witness is None, anti_witness))

    trans_witness = None
    for a, b, c in itertools.product(points, repeat=3):
        if (cmp(a, b) is Comparison.LESS and cmp(b, c) is Comparison.LESS
                and cmp(a, c) is not Comparison.LESS):
            trans_witness = witness(a=a, b=b, c=c)
            break
    checks.append(Check("transitivity", trans_witness is None, trans_witness))

    shift_witness = None
    for a, b, c in itertools.product(points, repeat=3):
        if cmp(a, b) is not cmp(a + c, b + c):
            shift_witness = witness(a=a, b=b, shift=c)
            break
    checks.append(Check("translation", shift_witness is None, shift_witness))

    origin = MultiIndex.zero(m)
    min_witness = None
    for a in points:
        if a != origin and cmp(origin, a) is not Comparison.LESS:
            min_witness = witness(a=a)
            break
    checks.append(Check("origin-minimum", min_witness is None, min_witness))
    return Certificate.of(checks)


CompareFn = Callable[[MultiIndex, MultiIndex], Comparison]


def key_compare(order: MonomialOrder) -> CompareFn:
    """The comparator of a monomial order, read from its sort key."""
    def cmp(a: MultiIndex, b: MultiIndex) -> Comparison:
        if len(a) != len(b):
            raise ValueError("mixed lengths: %d vs %d" % (len(a), len(b)))
        ka, kb = order.key(a), order.key(b)
        if ka < kb:
            return Comparison.LESS
        return Comparison.GREATER if ka > kb else Comparison.EQUAL
    return cmp


def _as_compare(order: Union[MonomialOrder, CompareFn]) -> CompareFn:
    if isinstance(order, MonomialOrder):
        return key_compare(order)
    return order


def validate_monomial_order(order: Union[MonomialOrder, CompareFn],
                            m: int, box_bound: int) -> Certificate:
    """Exhaustively test the total-order axioms on [0, box_bound]^m.

    Checks, each with a concrete witness on failure:
        totality        every pair compares LESS/EQUAL/GREATER
        antisymmetry    EQUAL iff identical, and compare(a,b)
                        mirrors compare(b,a)
        transitivity    LESS is transitive over all triples
        translation     compare(a,b) == compare(a+c, b+c) for all triples
        origin-minimum  o is strictly below every other point

    The comparator is called once on every pair of the doubled box
    [0, 2*box_bound]^m, which holds every a+c; the checks read that
    table.  Each witness is the first in row-major order of the points,
    pairs or triples.  Well-orderedness is not decidable by sampling; on
    N^m it follows from translation invariance plus o being the minimum,
    which are tested.  :func:`brute_force_monomial_order` is its oracle.
    """
    cmp = _as_compare(order)
    rels = list(Comparison)
    less, equal, greater, incomparable = range(4)
    code = {rel: i for i, rel in enumerate(rels)}
    wide = list(box((2 * box_bound,) * m))
    table = np.array([[code[cmp(a, b)] for b in wide] for a in wide], dtype=np.int8)
    points = list(box((box_bound,) * m))
    # row-major position in the doubled box; digits of a+c stay below its side
    side = 2 * box_bound + 1
    pos = np.array(points, dtype=np.int64) @ side ** np.arange(m - 1, -1, -1)
    rel = table[np.ix_(pos, pos)]
    checks: list[Check] = []

    hit = _first(rel == incomparable)
    checks.append(Check("totality", hit is None,
                        None if hit is None else witness(a=points[hit[0]],
                                                         b=points[hit[1]])))

    unequal = (rel == equal) != np.eye(len(points), dtype=bool)
    mirror = np.array([greater, equal, less, -1])[rel]
    hit = _first(unequal | ((mirror >= 0) & (rel.T != mirror)))
    anti_witness = None
    if hit is not None:
        a, b = hit
        anti_witness = witness(a=points[a], b=points[b], relation=rels[rel[a, b]].value)
        if not unequal[a, b]:
            anti_witness["reverse"] = rels[rel[b, a]].value
    checks.append(Check("antisymmetry", anti_witness is None, anti_witness))

    below = rel == less
    trans_witness = None
    for a in range(len(points)):
        hit = _first(below[a][:, None] & below & ~below[a][None, :])
        if hit is not None:
            trans_witness = witness(a=points[a], b=points[hit[0]], c=points[hit[1]])
            break
    checks.append(Check("transitivity", trans_witness is None, trans_witness))

    shift_witness = None
    moved = pos[:, None] + pos[None, :]  # [b, c] -> position of b+c
    for a in range(len(points)):
        hit = _first(rel[a][:, None] != table[(pos[a] + pos)[None, :], moved])
        if hit is not None:
            shift_witness = witness(a=points[a], b=points[hit[0]], shift=points[hit[1]])
            break
    checks.append(Check("translation", shift_witness is None, shift_witness))

    # points[0] is the origin
    hit = _first(rel[0, 1:] != less)
    checks.append(Check("origin-minimum", hit is None,
                        None if hit is None else witness(a=points[hit[0] + 1])))

    return Certificate.of(checks)


def _first(mask: np.ndarray) -> Optional[tuple[int, ...]]:
    """Row-major first True position of ``mask``, or None."""
    hits = np.argwhere(mask)
    return tuple(int(i) for i in hits[0]) if hits.size else None


# -- dom x dom scans of the generator products ------------------------------------
#
# The window, unit-step, recurrence and (alpha, beta)-region checks as they
# were written before they read generator rows: every (e_i, a, b) in
# (unit, sorted a, sorted b) order through ``t.get``, and the region by
# retrying exclusions until it is stable.

def _units(m: int) -> list:
    return [MultiIndex.unit(m, c) for c in range(1, m + 1)]


def scan_window_checks(t, leq, window_text: str,
                       successors_only: bool = False) -> list:
    """``products-within-window`` and ``successor-nonzero``."""
    dom = t.domain()
    window_witness = None
    for unit, a in itertools.product(_units(t.m), sorted(dom)):
        up = a + unit
        if successors_only and up not in dom:
            continue
        found = next((b for b in sorted(dom)
                      if t.get(unit, a, b) != 0 and not leq(b, up)), None)
        if found is not None:
            window_witness = witness(generator=unit, a=a, b=found, bound=up,
                                     value=t.get(unit, a, found),
                                     window=window_text)
            break
    succ_witness = next((witness(generator=unit, a=a, successor=a + unit)
                         for unit, a in itertools.product(_units(t.m), sorted(dom))
                         if a + unit in dom and t.get(unit, a, a + unit) == 0),
                        None)
    return [Check("products-within-window", window_witness is None, window_witness),
            Check("successor-nonzero", succ_witness is None, succ_witness)]


def scan_unit_steps(t) -> Check:
    """``unit-step-nonzero`` of the type-(alpha, beta) certificate."""
    dom = t.domain()
    for unit, a in itertools.product(_units(2), sorted(dom)):
        up = a + unit
        if up not in dom:
            continue
        for direction, value in (("up", t.get(unit, a, up)),
                                 ("down", t.get(unit, up, a))):
            if value == 0:
                return Check("unit-step-nonzero", False,
                             witness(generator=unit, a=a, successor=up,
                                     direction=direction))
    return Check("unit-step-nonzero", True)


def scan_recurrences(polys, t, partial=None) -> Certificate:
    """``verify_recurrences`` with the right side summed over all of D."""
    dom = sorted(t.domain())
    support_witness = identity_witness = None
    for color, unit in enumerate(_units(t.m), start=1):
        for a in dom:
            up = a + unit
            if up not in t.domain():
                continue
            lhs = {c + unit: value for c, value in polys[a].items()}
            rhs: dict = {}
            for b in dom:
                value = t.get(unit, a, b)
                if value == 0:
                    continue
                if (partial is not None and support_witness is None
                        and not partial.leq(b, up)):
                    support_witness = witness(generator=unit, a=a, b=b, bound=up)
                for c, coef in polys[b].items():
                    rhs[c] = rhs.get(c, Fraction(0)) + value * coef
            rhs = {c: coef for c, coef in rhs.items() if coef}
            if identity_witness is None and lhs != rhs:
                mono = sorted(c for c in set(lhs) | set(rhs)
                              if lhs.get(c) != rhs.get(c))[0]
                identity_witness = witness(generator=unit, a=a, monomial=mono,
                                           lhs=lhs.get(mono, Fraction(0)),
                                           rhs=rhs.get(mono, Fraction(0)))
    checks = [Check("recurrence-identity", identity_witness is None, identity_witness)]
    if partial is not None:
        checks.append(Check("recurrence-support", support_witness is None,
                            support_witness))
    return Certificate.of(checks)


# -- The Fraction path of extraction and recurrences ---------------------------
#
# ``extract_polynomials`` and ``verify_recurrences`` as they were written
# before they ran on integers: label-keyed generator rows
# (``dict_generator_rows``), the classes walked by a sort on a Python key,
# windows compared by their defining inequalities (``defining_leq``), and
# every polynomial a dict of Fractions.

def fraction_walk_key(window, a: MultiIndex):
    """The sort key the extraction walks D by: the defining key of a monomial
    order; for a partial order the sum of its two defining forms times
    their denominators (componentwise: of the entries), then a."""
    if isinstance(window, MonomialOrder):
        return defining_key(window, a)
    if window.kind == "componentwise":
        return (sum(a), tuple(a))
    al, be = window.ab.alpha, window.ab.beta
    return ((a[0] + al * a[1]) * al.denominator + (be * a[0] + a[1]) * be.denominator, tuple(a))


def _fraction_residual(polys, unit: MultiIndex, a: MultiIndex, row: Mapping) -> dict:
    """x_i v_a - sum_b p_{e_i,a}^b v_b over ``row`` = {b: p}; ValueError names
    the first of a, then the b in row order, that has no polynomial."""
    for b in (a, *row):
        if b not in polys:
            raise ValueError("no polynomial for class %s" % b.as_text())
    diff = {c + unit: value for c, value in polys[a].items()}
    for b, p in row.items():
        for c, value in polys[b].items():
            diff[c] = diff.get(c, 0) - p * value
    return diff


def fraction_extract_polynomials(t, window) -> tuple:
    """(polys, certificate) of the recurrence on Fractions."""
    from mdrg import ExtractionError
    rows, origin = dict_generator_rows(t), MultiIndex.zero(t.m)
    polys = {origin: {origin: Fraction(1)}}
    for top in sorted(t.labels, key=lambda a: fraction_walk_key(window, a))[1:]:
        i = next(i for i, e in enumerate(top) if e)
        unit, below = MultiIndex.unit(t.m, i + 1), MultiIndex(top[:i] + (top[i] - 1,) + top[i + 1:])
        row = dict(rows.get((unit, below), {}))
        lead = row.pop(top, 0)
        if not lead:
            raise ExtractionError("p_{%s,%s}^%s is zero; certify the scheme first"
                                  % (unit.as_text(), below.as_text(), top.as_text()))
        outside = [b for b in row if not defining_leq(window, b, top)]
        if outside:
            raise ExtractionError(
                "A_%s A_%s reaches A_%s, which is not below %s; certify the scheme first"
                % (unit.as_text(), below.as_text(), outside[0].as_text(), top.as_text()))
        polys[top] = {c: value / lead for c, value
                      in _fraction_residual(polys, unit, below, row).items() if value}
    lead_witness = next((witness(n=n) for n in sorted(polys) if not polys[n].get(n)), None)
    return polys, Certificate.of([
        Check("unique-solution", True, detail="%d polynomials extracted" % len(polys)),
        Check("leading-nonzero", lead_witness is None, lead_witness)])


def fraction_verify_recurrences(polys, t, partial=None) -> Certificate:
    """``verify_recurrences`` on Fractions, over the steps a -> a + e_i in D
    by color, then a in label order."""
    rows, dom = dict_generator_rows(t), set(t.labels)
    support_witness = identity_witness = None
    for i, unit in enumerate(_units(t.m)):
        for a in sorted(dom):
            up = a + unit
            if up not in dom:
                continue
            row = rows.get((unit, a), {})
            diff = _fraction_residual(polys, unit, a, row)
            if partial is not None and support_witness is None:
                support_witness = next((witness(generator=unit, a=a, b=b, bound=up) for b in row
                                        if not defining_leq(partial, b, up)), None)
            if identity_witness is None and any(diff.values()):
                mono = min(c for c, value in diff.items() if value)
                lhs = Fraction(polys[a].get(mono[:i] + (mono[i] - 1,) + mono[i + 1:], 0)
                               if mono[i] else 0)
                identity_witness = witness(generator=unit, a=a, monomial=mono, lhs=lhs,
                                           rhs=Fraction(lhs - diff[mono]))
    checks = [Check("recurrence-identity", identity_witness is None, identity_witness)]
    if partial is not None:
        checks.append(Check("recurrence-support", support_witness is None, support_witness))
    return Certificate.of(checks)


def interval_contains(interval: Interval, x: Fraction) -> bool:
    """x lies in the interval, each endpoint open or closed."""
    lo, hi = interval.lo, interval.hi
    return ((lo < x or (lo == x and interval.lo_closed))
            and (x < hi or (x == hi and interval.hi_closed)))


def region_contains(region: Optional[ABRegion], alpha: Fraction,
                    beta: Fraction) -> bool:
    """(alpha, beta) lies in the region; None stands for the empty one."""
    return (region is not None and interval_contains(region.alpha, alpha)
            and interval_contains(region.beta, beta))


def scan_ab_region(t):
    """The (alpha, beta) region by the retry loop: each exclusion "b below
    a" (a in D, b not) removes its solution rectangle when that rectangle
    spans one axis, and is retried until the region is stable.  Returns
    None when empty; raises when a corner would have to be cut."""
    dom = t.domain()
    if (t.identity != MultiIndex.zero(2)
            or any(unit not in dom for unit in _units(2))
            or not scan_unit_steps(t).passed):
        return None
    region = ab_feasible_region(
        (b, a + unit) for unit, a in itertools.product(_units(2), sorted(dom))
        if a + unit in dom for b in sorted(dom) if t.get(unit, a, b) != 0)
    if region is None:
        return None
    sides = [region.alpha, region.beta]

    def solutions(coef, rhs, interval):  # {x : coef * x <= rhs} in interval
        if coef > 0:
            return interval.clamp_leq(Fraction(rhs, coef))
        if coef < 0:
            return interval.clamp_geq(Fraction(rhs, coef))
        return interval if rhs >= 0 else Interval(Fraction(1), Fraction(0))

    def remove(coef, rhs, interval):
        bound = Fraction(rhs, coef)
        if coef > 0:  # remove {x <= bound}
            if bound < interval.lo:
                return interval
            return Interval(bound, interval.hi, False, interval.hi_closed)
        if bound > interval.hi:  # remove {x >= bound}
            return interval
        return Interval(interval.lo, bound, interval.lo_closed, False)

    exclusions = [(b, a) for a in sorted(dom) for b in box((a[0] + a[1],) * 2)
                  if b not in dom]
    for _ in range(len(exclusions) + 2):
        changed, blocked = False, None
        for b, a in exclusions:
            lines = [(b[1] - a[1], a[0] - b[0]), (b[0] - a[0], a[1] - b[1])]
            sols = [solutions(*line, side) for line, side in zip(lines, sides)]
            if sols[0].empty or sols[1].empty:
                continue
            covers = [sol == side for sol, side in zip(sols, sides)]
            if all(covers):
                return None
            if not any(covers):
                blocked = (b, a)
                continue
            axis = 0 if covers[1] else 1
            sides[axis] = remove(*lines[axis], sides[axis])
            changed = True
            if sides[axis].empty:
                return None
        if not changed:
            if blocked is not None:
                raise ValueError("not a product of intervals at %s below %s" % blocked)
            break
    region = ABRegion(*sides)
    return None if region.empty else region


# -- Labeling discovery by graphs -------------------------------------------------

def graph_discover_labelings(s: SchemeClasses, m: int,
                             order: MonomialOrder) -> list:
    """``discover_labelings`` on graphs: for each ordered tuple of distinct
    non-identity classes, color the union graph by the tuple, and accept
    when it is connected, certifies m-distance-regular, and its distance
    matrices coincide with the scheme's classes as a set."""
    axioms = verify_scheme_axioms(s)
    if not axioms.passed:
        raise ValueError("input is not an association scheme: %s" % axioms.witness)
    ident = s.identity_index()
    candidates = [i for i in range(len(s.labels)) if i != ident]
    if not 1 <= m <= len(candidates):
        raise ValueError("m must lie in 1..%d" % len(candidates))
    by_bytes = {mat.tobytes(): i for i, mat in enumerate(s.matrices)}
    found = []
    for tup in itertools.permutations(candidates, m):
        edges = [(s.vertices[x], s.vertices[y], color)
                 for color, class_index in enumerate(tup, start=1)
                 for x, y in np.argwhere(np.triu(s.matrices[class_index], 1) == 1)]
        graph = ColoredGraph(m, s.vertices, edges)
        if not is_connected(graph):
            continue
        result = mdrg_check(graph, order)
        if not result.certificate.passed:
            continue
        dist = distance_matrices(result.table)
        if len(dist.matrices) != len(s.matrices):
            continue
        indices = [by_bytes.get(mat.tobytes()) for mat in dist.matrices]
        if None in indices:
            continue
        found.append(Discovery(
            generators=tuple(s.labels[i] for i in tup),
            labeling=Labeling.from_dict({s.labels[i]: lab for i, lab
                                         in zip(indices, dist.labels)})))
    return found


# -- Re-provers of the step checks -------------------------------------------------
#
# Each confirms one failing check of a certify-ppoly, type-ab or recurrence
# certificate from the tensor and the witness alone, by ``t.get`` and the
# defining inequalities of the window order (never its weight rows).

def defining_key(order: MonomialOrder, x) -> tuple:
    """The sort tuple that the ``MonomialOrder`` docstring names for its kind."""
    if order.kind == "lex":
        return tuple(x)
    if order.kind == "deglex-y2":
        return (sum(x), x[1])
    return (sum(w * e for w, e in zip(order.weights or (1,) * len(x), x)), *x)


def defining_leq(window, a: MultiIndex, b: MultiIndex) -> bool:
    """a below-or-equal b under a window order by its definition: the
    Fraction inequalities of a partial order, or ``defining_key``."""
    if isinstance(window, PartialOrder):
        return fraction_precedes(window, a, b)
    return defining_key(window, a) <= defining_key(window, b)


def window_from_text(text: str):
    """The partial or monomial order a witness names."""
    try:
        return PartialOrder.parse(text)
    except ValueError:
        return MonomialOrder.parse(text)


def _color(t, unit: MultiIndex) -> int:
    """i for e_{i+1} in N^m; AssertionError for anything else."""
    assert len(unit) == t.m and sorted(unit) == [0] * (t.m - 1) + [1], unit
    return unit.index(1)


def _plus(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return MultiIndex(x + y for x, y in zip(a, b))


def _indices(w: Mapping[str, Any], *names: str) -> list:
    return [MultiIndex.parse(w[name]) for name in names]


def reprove_generators_realized(t, w, polys=None) -> None:
    unit, = _indices(w, "unit")
    assert _color(t, unit) + 1 == w["color"]
    assert unit not in t.labels and t.get(unit, unit, t.identity) == 0


def reprove_products_within_window(t, w, polys=None) -> None:
    g, a, b, bound = _indices(w, "generator", "a", "b", "bound")
    _color(t, g)
    assert a in t.labels and bound == _plus(a, g)
    assert t.get(g, a, b) == Fraction(w["value"]) != 0
    assert not defining_leq(window_from_text(w["window"]), b, bound)


def reprove_successor_nonzero(t, w, polys=None) -> None:
    g, a, up = _indices(w, "generator", "a", "successor")
    _color(t, g)
    assert a in t.labels and up in t.labels and up == _plus(a, g)
    assert t.get(g, a, up) == 0


def reprove_unit_step_nonzero(t, w, polys=None) -> None:
    g, a, up = _indices(w, "generator", "a", "successor")
    _color(t, g)
    assert a in t.labels and up in t.labels and up == _plus(a, g)
    assert (t.get(g, a, up) if w["direction"] == "up" else t.get(g, up, a)) == 0


def reprove_recurrence_identity(t, w, polys) -> None:
    """x_i v_a and sum_b p_{e_i,a}^b v_b differ at the witness monomial, by
    the coefficients it names; ``polys`` as the extraction gave them."""
    g, a, mono = _indices(w, "generator", "a", "monomial")
    i = _color(t, g)
    assert _plus(a, g) in t.labels
    shifted = MultiIndex(e - (j == i) for j, e in enumerate(mono)) if mono[i] else None
    lhs = polys[a].get(shifted, Fraction(0))
    rhs = sum((t.get(g, a, b) * polys[b].get(mono, 0) for b in t.labels), Fraction(0))
    assert (lhs, rhs) == (Fraction(w["lhs"]), Fraction(w["rhs"])) and lhs != rhs


REPROVERS = {
    "generators-realized": reprove_generators_realized,
    "products-within-window": reprove_products_within_window,
    "successor-nonzero": reprove_successor_nonzero,
    "unit-step-nonzero": reprove_unit_step_nonzero,
    "recurrence-identity": reprove_recurrence_identity,
}


def reprove_report(report: Mapping[str, Any]) -> list:
    """Re-prove every failing check of a certify-ppoly or type-ab report
    that has a re-prover, from the input document it names (read by
    ``json_load_document``, labeled as the report says) and the witness;
    returns the names re-proved."""
    failing = [check for certificate in report.get("certificates", {}).values()
               for check in certificate["checks"]
               if not check["passed"] and check["name"] in REPROVERS]
    if not failing:
        return []
    inputs = report["inputs"]
    doc = json_load_document(inputs["input"])
    if isinstance(doc, ColoredGraph):
        doc = mdrg_check(doc, MonomialOrder.parse(inputs["order"])).tensor
    elif isinstance(doc, SchemeClasses):
        doc = intersection_tensor(doc)
    t = Labeling.parse(inputs["labeling"]).apply(doc) if "labeling" in inputs else doc
    results = report.get("results", {})
    polys = polynomials_from_dict(results) if "polynomials" in results else None
    for check in failing:
        REPROVERS[check["name"]](t, check["witness"], polys)
    return [check["name"] for check in failing]

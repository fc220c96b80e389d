"""Edge-colored graphs and vector-valued distances.

A :class:`ColoredGraph` is a finite simple undirected graph whose edges
carry colors 1..m.  The m-length of a walk is the vector counting edges
of each color; the m-distance between two vertices is the minimum walk
m-length under a chosen monomial order, always reached on a simple path.

Every built-in order compares W a lexicographically for an integer
weight matrix W (:meth:`MonomialOrder.forms`).  :func:`m_distance_table`
packs W a into one radix-R integer code and relaxes all sources at once
over the edge codes, in int64 under a written bound, else in exact
Python ints.  :func:`least_labels`, a label-setting search keyed by
``order.key``, serves labeling discovery on the classes of a scheme.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .orders import MonomialOrder, MultiIndex


class GraphStructureError(ValueError):
    """Raised when edges/vertices do not form a valid colored graph."""


class DisconnectedGraphError(ValueError):
    """Raised when a distance is requested in a disconnected graph."""

    def __init__(self, source: str, unreachable: str):
        self.source = source
        self.unreachable = unreachable
        super().__init__("vertex %r is unreachable from %r" % (unreachable, source))


class ColoredGraph:
    """Simple undirected graph with edge colors in 1..m.

    Vertices are named by opaque strings; the vertex list fixes the index
    order used by all matrices and tables.  At most one edge may join a
    pair of vertices, loops are rejected, and m and the colors are ints,
    not bools, with colors in 1..m.
    """

    def __init__(self, m: int, vertices: Sequence[str],
                 edges: Iterable[tuple[str, str, int]]):
        if not isinstance(m, int) or isinstance(m, bool):
            raise GraphStructureError("m must be an integer, got %r" % (m,))
        if m < 1:
            raise GraphStructureError("need m >= 1, got %d" % m)
        names = tuple(str(v) for v in vertices)
        if len(set(names)) != len(names):
            raise GraphStructureError("duplicate vertex names")
        if not names:
            raise GraphStructureError("empty vertex set")
        index = {v: i for i, v in enumerate(names)}
        seen_pairs: set[tuple[int, int]] = set()
        normalized: list[tuple[int, int, int]] = []
        for u, v, color in edges:
            if u not in index or v not in index:
                raise GraphStructureError("edge (%r, %r) uses unknown vertex" % (u, v))
            if (not isinstance(color, int) or isinstance(color, bool)
                    or not 1 <= color <= m):
                raise GraphStructureError(
                    "edge (%r, %r) has color %r outside 1..%d" % (u, v, color, m))
            iu, iv = index[u], index[v]
            if iu == iv:
                raise GraphStructureError("loop at %r" % u)
            pair = (min(iu, iv), max(iu, iv))
            if pair in seen_pairs:
                raise GraphStructureError("duplicate edge between %r and %r" % (u, v))
            seen_pairs.add(pair)
            normalized.append((pair[0], pair[1], color))
        normalized.sort()
        self.m = m
        self.vertices = names
        self.edges = tuple(normalized)
        adjacency: list[list[tuple[int, int]]] = [[] for _ in names]
        for iu, iv, color in self.edges:
            adjacency[iu].append((iv, color))
            adjacency[iv].append((iu, color))
        self._adjacency = [tuple(nbrs) for nbrs in adjacency]

    @property
    def n(self) -> int:
        return len(self.vertices)

    def edge_names(self) -> list[tuple[str, str, int]]:
        return [(self.vertices[u], self.vertices[v], c) for u, v, c in self.edges]


def least_labels(adjacency: Sequence[Sequence[tuple[int, int]]], m: int,
                 key, source: int) -> list[Optional[MultiIndex]]:
    """Least m-length of a walk from ``source`` to each node (None when
    unreachable) over adjacency lists of (neighbour, color): a heap keyed
    by the monomial order, where a popped label is final because appending
    an edge never decreases a label (translation invariance, o minimal)."""
    zero = MultiIndex.zero(m)
    units = [MultiIndex.unit(m, c) for c in range(1, m + 1)]
    done: list[Optional[MultiIndex]] = [None] * len(adjacency)
    counter = itertools.count()
    heap = [(key(zero), next(counter), source, zero)]
    remaining = len(adjacency)
    while heap and remaining:
        _, _, v, label = heapq.heappop(heap)
        if done[v] is not None:
            continue
        done[v] = label
        remaining -= 1
        for w, color in adjacency[v]:
            if done[w] is None:
                nxt = label + units[color - 1]
                heapq.heappush(heap, (key(nxt), next(counter), w, nxt))
    return done


@dataclass(frozen=True)
class DistanceTable:
    """All-pairs m-distances of a connected colored graph.

    ``labels`` is the set D of realized m-distances, sorted by the order,
    and ``index[i, j]`` (an n x n int64 matrix) is the position in
    ``labels`` of the m-distance between vertices i and j; the diagonal
    is 0, the position of o, and the matrix is symmetric.
    """

    graph: ColoredGraph = field(repr=False)
    order: MonomialOrder
    labels: tuple[MultiIndex, ...]
    index: np.ndarray = field(repr=False, compare=False)


def m_distance_table(g: ColoredGraph, order: MonomialOrder) -> DistanceTable:
    """All-pairs m-distances; verifies symmetry and the o diagonal.

    With W = ``order.forms(m)`` (r rows), a walk of m-length a gets the
    additive code sum_i (W a)_i R^(r-1-i), R = (n-1) * (largest row sum
    of W) + 1.  Edge codes are positive, so the least code over walks is
    reached on a simple path, where each (W a)_i is below R: the code
    spells W a in radix R, and as W >= 0 a lexicographically larger W a'
    has a larger first differing digit, which outweighs every later one.
    So the least code is the code of the m-distance.  All sources are
    relaxed at once: row y takes the min of itself and row z plus the
    code of edge yz over its neighbours z (padded with the neutral
    (y, 0)) until a round changes nothing; round t covers the walks of t
    edges, so at most n rounds run.  Entries start at R^r (unreachable)
    and edge codes are below R^r, so no candidate reaches 2 R^r: the
    table is int64 while 2 R^r < 2^63, else exact Python ints.  Each
    distinct code is decoded once and checked against W a.
    """
    forms = order.forms(g.m)
    r = len(forms)
    radix = (g.n - 1) * max(sum(row) for row in forms) + 1
    far = radix ** r
    dtype = np.int64 if 2 * far < 2 ** 63 else object
    step = [0] + [sum(w * radix ** (r - 1 - i) for i, w in enumerate(column))
                  for column in zip(*forms)]
    deg = max(map(len, g._adjacency))
    nbr, color = np.array([nbrs + ((y, 0),) * (deg - len(nbrs))
                           for y, nbrs in enumerate(g._adjacency)],
                          dtype=np.int64).reshape(g.n, deg, 2).T
    cost = np.array(step, dtype=dtype)[color]
    dist = np.full((g.n, g.n), far, dtype=dtype)
    np.fill_diagonal(dist, 0)
    buf, last = np.empty_like(dist), None
    while last is None or not np.array_equal(dist, last):
        last = dist.copy()
        for z, code in zip(nbr, cost):
            np.add(dist[z], code[:, None], out=buf)
            np.minimum(dist, buf, out=dist)
    del buf, last  # np.unique reuses their memory
    cut = np.flatnonzero(dist[0] == far)
    if cut.size:
        raise DisconnectedGraphError(g.vertices[0], g.vertices[cut[0]])
    codes, index = np.unique(dist, return_inverse=True)
    ordered = [_decode(order, forms, int(code), radix) for code in codes]
    index = index.reshape(g.n, g.n)
    zero_bad = (index.diagonal() != 0) | (ordered[0] != MultiIndex.zero(g.m))
    asymmetric = np.tril(index != index.T, -1)
    bad = np.flatnonzero(zero_bad | asymmetric.any(axis=1))
    if bad.size:
        i = int(bad[0])
        if zero_bad[i]:
            raise ValueError("nonzero self-distance at %r" % g.vertices[i])
        j = int(np.flatnonzero(asymmetric[i])[0])
        raise ValueError(
            "asymmetric distances between %r and %r: %s vs %s"
            % (g.vertices[i], g.vertices[j], ordered[index[i, j]].as_text(),
               ordered[index[j, i]].as_text()))
    return DistanceTable(graph=g, order=order, labels=tuple(ordered), index=index)


def _decode(order: MonomialOrder, forms, code: int, radix: int) -> MultiIndex:
    """The multi-index a whose W a has the radix-R digits of ``code``.

    Solved from the last row of W up: in every built-in weight matrix
    each row brings in one new entry of a.  The result is checked
    against the key, so a failed decode raises instead of mislabeling.
    """
    digits, rest = [], code
    for _ in forms:
        rest, digit = divmod(rest, radix)
        digits.append(digit)
    digits.reverse()
    a: list = [None] * len(forms[0])
    for row, digit in zip(reversed(forms), reversed(digits)):
        j = next(j for j, w in enumerate(row) if w and a[j] is None)
        rest = digit - sum(w * e for w, e in zip(row, a) if e is not None)
        a[j] = rest // row[j]
    label = MultiIndex(a)
    if order.key(label) != tuple(digits):
        raise ValueError("distance code %d does not decode under %s"
                         % (code, order.as_text()))
    return label

"""Edge-colored graphs and vector-valued distances.

A :class:`ColoredGraph` is a finite simple undirected graph whose edges
carry colors 1..m.  The m-length of a walk is the vector counting edges
of each color; the m-distance between two vertices is the minimum walk
m-length under a chosen monomial order.  Because every order here is
translation invariant with minimum o, a label-setting search (Dijkstra
with multi-index labels keyed by the order) computes single-source
distances exactly; an optimal walk can always be taken to be a simple
path, which is what the brute-force oracle in the test suite enumerates.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .certificates import Certificate, Check, witness
from .orders import (Comparison, CompareFn, MonomialOrder, MultiIndex,
                     PartialOrder, order_key_function)

OrderLike = Union[MonomialOrder, CompareFn]


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
    pair of vertices, loops are rejected, and colors must lie in 1..m.
    """

    def __init__(self, m: int, vertices: Sequence[str],
                 edges: Iterable[tuple[str, str, int]]):
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
            if not isinstance(color, int) or not 1 <= color <= m:
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
        self._index = index
        self.edges = tuple(normalized)
        adjacency: list[list[tuple[int, int]]] = [[] for _ in names]
        for iu, iv, color in self.edges:
            adjacency[iu].append((iv, color))
            adjacency[iv].append((iu, color))
        self._adjacency = [tuple(nbrs) for nbrs in adjacency]
        self._color_matrices: dict[int, np.ndarray] = {}

    @property
    def n(self) -> int:
        return len(self.vertices)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError("unknown vertex %r" % name) from None

    def neighbors(self, i: int) -> tuple[tuple[int, int], ...]:
        return self._adjacency[i]

    def edge_names(self) -> list[tuple[str, str, int]]:
        return [(self.vertices[u], self.vertices[v], c) for u, v, c in self.edges]

    def color_matrix(self, color: int) -> np.ndarray:
        """0/1 adjacency matrix of the given color (cached)."""
        if not 1 <= color <= self.m:
            raise ValueError("color %d outside 1..%d" % (color, self.m))
        if color not in self._color_matrices:
            mat = np.zeros((self.n, self.n), dtype=np.int64)
            for iu, iv, c in self.edges:
                if c == color:
                    mat[iu, iv] = 1
                    mat[iv, iu] = 1
            self._color_matrices[color] = mat
        return self._color_matrices[color]

    def union_matrix(self) -> np.ndarray:
        total = np.zeros((self.n, self.n), dtype=np.int64)
        for color in range(1, self.m + 1):
            total += self.color_matrix(color)
        return total

    def is_connected(self) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w, _ in self._adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n


def m_distance_from(g: ColoredGraph, order: OrderLike,
                    source: str) -> list[MultiIndex]:
    """Single-source m-distances as a list aligned with ``g.vertices``.

    Label-setting search: the frontier is a heap keyed by the monomial
    order; when a vertex is popped its label is final, because appending
    an edge never decreases a label (translation invariance, o minimal).
    Raises :class:`DisconnectedGraphError` naming an unreachable vertex.
    """
    key = order_key_function(order)
    src = g.index(source)
    zero = MultiIndex.zero(g.m)
    units = [MultiIndex.unit(g.m, c) for c in range(1, g.m + 1)]
    done: list[Optional[MultiIndex]] = [None] * g.n
    counter = itertools.count()
    heap = [(key(zero), next(counter), src, zero)]
    remaining = g.n
    while heap and remaining:
        _, _, v, label = heapq.heappop(heap)
        if done[v] is not None:
            continue
        done[v] = label
        remaining -= 1
        for w, color in g.neighbors(v):
            if done[w] is None:
                nxt = label + units[color - 1]
                heapq.heappush(heap, (key(nxt), next(counter), w, nxt))
    if remaining:
        unreachable = g.vertices[done.index(None)]
        raise DisconnectedGraphError(source, unreachable)
    return done  # type: ignore[return-value]


@dataclass(frozen=True)
class DistanceTable:
    """All-pairs m-distances of a connected colored graph.

    ``labels[i][j]`` is the m-distance between vertices i and j; the
    diagonal is o and the table is symmetric.  ``realized`` is the set D
    of labels that occur.
    """

    graph: ColoredGraph = field(repr=False)
    order: MonomialOrder
    labels: tuple[tuple[MultiIndex, ...], ...]
    realized: frozenset[MultiIndex]

    def label(self, x: str, y: str) -> MultiIndex:
        return self.labels[self.graph.index(x)][self.graph.index(y)]

    def sorted_labels(self) -> list[MultiIndex]:
        return self.order.sorted(self.realized)


def m_distance_table(g: ColoredGraph, order: MonomialOrder) -> DistanceTable:
    """All-sources distance table; verifies symmetry and the o diagonal."""
    rows = [m_distance_from(g, order, s) for s in g.vertices]
    zero = MultiIndex.zero(g.m)
    for i in range(g.n):
        if rows[i][i] != zero:
            raise ValueError("nonzero self-distance at %r" % g.vertices[i])
        for j in range(i):
            if rows[i][j] != rows[j][i]:
                raise ValueError(
                    "asymmetric distances between %r and %r: %s vs %s"
                    % (g.vertices[i], g.vertices[j],
                       rows[i][j].as_text(), rows[j][i].as_text()))
    realized = frozenset(lab for row in rows for lab in row)
    return DistanceTable(graph=g, order=order,
                         labels=tuple(tuple(row) for row in rows),
                         realized=realized)


def count_walks_by_type(g: ColoredGraph, x: str, y: str,
                        colors: Sequence[int]) -> int:
    """Number of walks from x to y whose edge colors are exactly ``colors``.

    Computed as a chain of matrix-vector products with the per-color
    adjacency matrices, on Python ints so that counts never overflow.
    """
    vec = np.zeros(g.n, dtype=object)
    vec[g.index(x)] = 1
    for color in colors:
        vec = g.color_matrix(color).astype(object) @ vec
    return int(vec[g.index(y)])


def distance_profile(table: DistanceTable) -> dict[MultiIndex, int]:
    """Per-label count of partners of a fixed vertex; well-defined only
    for regular instances, reported from vertex 0 (useful diagnostics)."""
    counts: dict[MultiIndex, int] = {}
    for lab in table.labels[0]:
        counts[lab] = counts.get(lab, 0) + 1
    return counts


def check_precompat_graph(g: ColoredGraph, order: MonomialOrder,
                          p: PartialOrder) -> Certificate:
    """Local test that the graph's distances respect a partial order.

    For every ordered pair (x, y) and every edge (y, z) of color i the
    distance must satisfy d(x,z) preceded-by d(x,y) + e_i.  This is the
    one-step version of the walk condition: extending any walk by one
    edge can only move the target distance up in the partial order.
    """
    table = m_distance_table(g, order)
    units = [MultiIndex.unit(g.m, c) for c in range(1, g.m + 1)]
    for xi in range(g.n):
        row = table.labels[xi]
        for yi in range(g.n):
            bound_base = row[yi]
            for zi, color in g.neighbors(yi):
                if not p.precedes(row[zi], bound_base + units[color - 1]):
                    w = witness(
                        x=g.vertices[xi], y=g.vertices[yi], z=g.vertices[zi],
                        color=color, d_xy=bound_base, d_xz=row[zi],
                        bound=bound_base + units[color - 1],
                        partial=p.as_text())
                    return Certificate.single("edge-step-precedence", False, w)
    return Certificate.single("edge-step-precedence", True,
                              detail="checked %d vertex/edge incidences"
                                     % (g.n * 2 * len(g.edges)))

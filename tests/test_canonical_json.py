"""The canonical writer against ``json.dumps(..., sort_keys=True, indent=2)``.

``dump_json`` joins dicts, lists and strings and writes ints, true,
false and null itself, and delegates every other value to
``json.dumps``; its bytes must not differ from json's on
any value json accepts, nor on the uint8 digit arrays of scheme
documents, which json reads here through ``ndarray.tolist``, nor on
distance tables, which json reads as the per-pair dict of
``helpers.distances_oracle``.
"""

import json
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdrg import (ColoredGraph, MonomialOrder, cartesian_product, cycle,
                  hamming_graph, m_distance_table, pauli_scheme4, symmetrize)
from mdrg.cli import main
from mdrg.serialize import dump_json, graph_to_dict, scheme_to_dict, table_to_dict

from helpers import distances_oracle


def reference(value):
    return json.dumps(value, sort_keys=True, indent=2,
                      default=np.ndarray.tolist) + "\n"


# Integers past 64 bits, but below the 4300-digit limit of int -> str.
INTS = st.integers(-2 ** 200, 2 ** 200)
# Any code point but surrogates: non-ASCII and control characters included.
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)


@st.composite
def ints_with_a_bool(draw):
    items = draw(st.lists(INTS, max_size=5))
    items.insert(draw(st.integers(0, len(items))), draw(st.booleans()))
    return items


# Lists and tuples of exactly str, written in one join: empty, non-ASCII
# and control characters included.
STRINGS = st.lists(TEXT, max_size=6)
SCALARS = st.one_of(st.none(), st.booleans(), INTS,
                    st.floats(allow_nan=True, allow_infinity=True), TEXT,
                    st.lists(INTS, max_size=6), ints_with_a_bool(),
                    STRINGS, STRINGS.map(tuple))


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
        st.dictionaries(INTS, children, max_size=4),
        st.dictionaries(TEXT, children, max_size=4).map(OrderedDict))


VALUES = st.recursive(SCALARS, containers, max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(VALUES)
def test_dump_json_matches_json_dumps(value):
    assert dump_json(value) == reference(value)


def test_dump_json_fixed_cases():
    for value in ({}, [], (), "", 0, -1, True, None, 1.5, [[]], {"a": {}},
                  {"b": [1, 2], "a": [True, 1], "é": "\x00\n "},
                  [1, [2, [3, []]], {"x": (4,)}], {2: "b", 10: "a"},
                  [2 ** 70, -2 ** 70, 0], ["", "é", "\x00\n\"", "\u2028"], ("a",),
                  {"k": ["x", "y"]}):
        assert dump_json(value) == reference(value)


def test_dump_json_writes_bools_and_null_itself(monkeypatch):
    """A document of strings, ints, bools and None never reaches json's
    pure-Python indent encoder, which took about 7.6 us per leaf."""
    value = {"a": [True, False, None], "b": {"c": True, "d": None}, "e": [1, "x"]}
    expected = reference(value)
    monkeypatch.setattr(json, "dumps", None)
    assert dump_json(value) == expected


@st.composite
def class_stacks(draw):
    """Read-only uint8 arrays of digits: 0/1 stacks of shape (k, n, n), k
    in 1..6 and n in 1..12, or r x c matrices, r and c in 1..12."""
    if draw(st.booleans()):
        k, n = draw(st.integers(1, 6)), draw(st.integers(1, 12))
        shape, digits = (k, n, n), st.integers(0, 1)
    else:
        shape = (draw(st.integers(1, 12)), draw(st.integers(1, 12)))
        digits = st.integers(0, 9)
    size = int(np.prod(shape))
    stack = np.array(draw(st.lists(digits, min_size=size, max_size=size)),
                     dtype=np.uint8).reshape(shape)
    stack.flags.writeable = False
    return stack


def nested(children):
    return st.one_of(st.lists(children, min_size=1, max_size=3),
                     st.dictionaries(TEXT, children, min_size=1, max_size=3))


@settings(max_examples=200, deadline=None)
@given(st.recursive(class_stacks(), nested, max_leaves=6))
def test_dump_json_writes_class_stacks_at_any_depth(value):
    assert dump_json(value) == reference(value)


def test_dump_json_refuses_other_arrays():
    for bad in (np.zeros((2, 2), np.int64), np.full((1, 2, 2), 10, np.uint8),
                np.zeros(3, np.uint8), np.zeros((1, 0, 0), np.uint8)):
        with pytest.raises(ValueError):
            dump_json({"matrices": bad})


def test_dump_json_symmetrize_document():
    document = scheme_to_dict(symmetrize(pauli_scheme4(), 4))
    assert document["matrices"].dtype == np.uint8
    assert dump_json(document) == reference(document)


def test_dump_json_symmetrize_document_peak_memory():
    """The writer holds the k*n^2-byte stack, one matrix's digit buffer
    and the pieces of text joined once, not one Python object per entry."""
    s = symmetrize(pauli_scheme4(), 4)
    tracemalloc.start()
    try:
        text = dump_json(scheme_to_dict(s))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(text)


def test_dump_json_distances_report_peak_memory():
    """The distances object is written from the class-index matrix: one
    piece per (vertex, label) and one string per row, joined once, not a
    formatted key and a dict entry per pair."""
    table = m_distance_table(hamming_graph(4, 4), MonomialOrder.parse("deglex-sum"))
    tracemalloc.start()
    try:
        text = dump_json(table_to_dict(table))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * len(text)


def test_dump_json_distances_report(tmp_path, capsys):
    graph = hamming_graph(4, 4)
    table = m_distance_table(graph, MonomialOrder.parse("deglex-sum"))
    text = dump_json(table_to_dict(table))
    assert text == reference(json.loads(text))
    assert json.loads(text)["distances"] == distances_oracle(table)
    path = tmp_path / "h44.json"
    path.write_text(dump_json(graph_to_dict(graph)))
    assert main(["distances", str(path), "--order", "deglex-sum"]) == 0
    out = capsys.readouterr().out
    assert out == reference(json.loads(out))


def assert_distances_report_is_the_dict(graph):
    """The report's bytes are json's for the per-pair dict of the oracle."""
    table = m_distance_table(graph, MonomialOrder.parse("deglex-sum"))
    report = table_to_dict(table)
    assert dump_json(report) == reference(dict(report, distances=distances_oracle(table)))


# Vertex names with "|", quotes, backslashes, control and non-ASCII
# characters, the empty name, and prefix chains such as "a", "a|b".
NAMES = st.one_of(TEXT, st.text(st.sampled_from('ab|"\\\x00\n\x7f\xe9\u2603\U0001d11e'),
                                max_size=4),
                  st.lists(st.sampled_from(["a", "b", ""]), max_size=3).map("|".join))
SMALL_GRAPHS = st.sampled_from([
    ColoredGraph(1, ["x"], []), cycle(3), cycle(4), cycle(7), hamming_graph(2, 3),
    hamming_graph(3, 2), cartesian_product([cycle(3), cycle(4)]),
    cartesian_product([cycle(4), cycle(4)])])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_distances_report_matches_the_per_pair_dict(data):
    graph = data.draw(SMALL_GRAPHS)
    names = data.draw(st.lists(NAMES, min_size=graph.n, max_size=graph.n, unique=True))
    new = dict(zip(graph.vertices, names))
    assert_distances_report_is_the_dict(ColoredGraph(
        graph.m, names, [(new[u], new[v], c) for u, v, c in graph.edge_names()]))


def test_distances_report_sorts_whole_keys_when_a_head_starts_another():
    """The head "a|" starts "a|b|", so rows by head would put "a|b|c" of
    the pair (a|b, c) after "a|c"; the keys are sorted whole instead.  The
    pairs (a, b|c) and (a|b, c) share the key "a|b|c", which keeps the
    label of (a|b, c), the later pair."""
    names = ["a", "b|c", "a|b", "x", "c", "y"]
    graph = ColoredGraph(1, names, [(names[i - 1], names[i], 1) for i in range(6)])
    pairs = [(x, y) for i, x in enumerate(names) for y in names[i + 1:]]
    by_head = [x + "|" + y for x, y in sorted(pairs, key=lambda p: (p[0] + "|", p[1]))]
    assert sorted(by_head) != by_head
    oracle = distances_oracle(m_distance_table(graph, MonomialOrder.parse("deglex-sum")))
    assert len(oracle) == len(pairs) - 1 and oracle["a|b|c"] == "2"
    assert_distances_report_is_the_dict(graph)

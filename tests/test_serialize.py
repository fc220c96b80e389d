"""JSON document round trips and input validation."""

import json
import os
import re
import tempfile
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdrg import (
    ColoredGraph,
    IntersectionTensor,
    MonomialOrder,
    MultiIndex,
    SchemeClasses,
    cell24,
    cycle,
    distance_matrices,
    gen24cell,
    m_distance_table,
    mdrg_check,
    pauli_scheme4,
    symmetrize,
    verify_scheme_axioms,
)
from mdrg import serialize
from mdrg.serialize import (
    InputFormatError,
    dump_json,
    fraction_from_json,
    fraction_to_text,
    graph_from_dict,
    graph_to_dict,
    label_from_text,
    load_document,
    polynomials_to_dict,
    scheme_from_dict,
    scheme_to_dict,
    table_to_dict,
    tensor_from_dict,
    tensor_to_dict,
)

from helpers import (json_load_document, multiindex_from_json,
                     polynomials_from_dict, text_load_document)

F = Fraction
mi = MultiIndex


def test_fraction_text_round_trip():
    assert fraction_to_text(F(3)) == "3"
    assert fraction_to_text(F(-7, 2)) == "-7/2"
    assert fraction_from_json("3/4") == F(3, 4)
    assert fraction_from_json(" -7/2 ") == F(-7, 2)
    assert fraction_from_json(5) == F(5)
    assert fraction_from_json("+3") == F(3)
    assert fraction_from_json("\t-0/5\n") == F(0)
    # only "p" or "p/q" in ASCII digits: not the rest of Fraction()'s syntax
    for bad in (1.5, True, False, [1], "7/0", "abc", None, "1.5", "1_000",
                "1e10000000", "1E3", "\u0663", "7/\u0663", " 7/", "/7", "7/-2",
                "+ 7", "--7", "inf", "nan", "0x10", "", " ", "\u00a07"):
        with pytest.raises(InputFormatError):
            fraction_from_json(bad)


def test_tensor_from_dict_parses_each_label_text_once(monkeypatch):
    texts, values = [], []
    read, parse = serialize.label_from_text, serialize.fraction_from_json
    monkeypatch.setattr(serialize, "label_from_text",
                        lambda x: texts.append(x) or read(x))
    monkeypatch.setattr(serialize, "fraction_from_json",
                        lambda x: values.append(x) or parse(x))
    tensor = mdrg_check(cell24(), MonomialOrder.parse("deglex-sum")).tensor
    t = tensor_from_dict(tensor_to_dict(tensor))
    assert (t.p, t.identity, set(t.labels)) == (tensor.p, tensor.identity,
                                                set(tensor.labels))
    # each p text once, then the declared labels and the identity
    assert len(texts) == 2 * len(tensor.labels) + 1
    assert len(set(texts)) == len(tensor.labels)
    # each value text once
    assert sorted(values) == sorted({row[3] for row in tensor_to_dict(tensor)["p"]})


def test_label_and_multiindex_parsing():
    assert label_from_text("1,2") == mi((1, 2))
    assert label_from_text("3") == mi((3,))
    assert label_from_text("A1") == "A1"
    assert multiindex_from_json("0,2") == mi((0, 2))
    assert multiindex_from_json([0, 2]) == mi((0, 2))
    with pytest.raises(InputFormatError):
        multiindex_from_json({"a": 1})


def test_graph_round_trip():
    g = cell24()
    data = graph_to_dict(g)
    back = graph_from_dict(data)
    assert back.m == g.m
    assert back.vertices == g.vertices
    assert sorted(back.edge_names()) == sorted(g.edge_names())
    assert json.loads(dump_json(data)) == data


def test_graph_from_dict_errors():
    with pytest.raises(InputFormatError):
        graph_from_dict({"m": 1, "vertices": ["a"]})
    with pytest.raises(InputFormatError):
        graph_from_dict({"m": "1", "vertices": ["a"], "edges": []})
    with pytest.raises(InputFormatError):
        graph_from_dict({"m": 1, "vertices": ["a", "b"], "edges": [["a", "b"]]})
    with pytest.raises(InputFormatError):
        graph_from_dict({"m": 1, "vertices": ["a", "b"],
                         "edges": [["a", "b", "1"]]})
    # JSON true is a bool, which Python counts as the int 1
    with pytest.raises(InputFormatError):
        graph_from_dict({"m": True, "vertices": ["a", "b"],
                         "edges": [["a", "b", 1]]})
    with pytest.raises(InputFormatError):
        graph_from_dict({"m": 1, "vertices": ["a", "b"],
                         "edges": [["a", "b", True]]})


def test_graph_documents_are_lists_of_strings_with_bounded_m():
    path = {"vertices": ["a", "b", "c"], "edges": [["a", "b", 1], ["b", "c", 2]]}
    for bad, message in (({"vertices": "abc"}, "vertices must be a list, got str"),
                         ({"edges": {"a": "b"}}, "edges must be a list, got dict"),
                         ({"vertices": ["a", "b", None]}, "got None"),
                         ({"vertices": ["a", "b", 3]}, "got 3"),
                         ({"edges": [["a", "b", 1], ["b", None, 2]]},
                          "edge endpoints must be vertex names"),
                         ({"m": 3}, "m=3 is more than the number of edges (2)")):
        with pytest.raises(InputFormatError, match=re.escape(message)):
            graph_from_dict({"m": 2, **path, **bad})
    assert graph_from_dict({"m": 2, **path}).m == 2
    assert graph_from_dict({"m": 1, "vertices": ["a"], "edges": []}).n == 1


def test_scheme_round_trip():
    s = pauli_scheme4()
    back = scheme_from_dict(scheme_to_dict(s))
    assert back.labels == s.labels
    assert back.vertices == s.vertices
    for a, b in zip(back.matrices, s.matrices):
        assert np.array_equal(a, b)
    # multi-index labels survive the text form
    dist = distance_matrices(
        mdrg_check(cell24(), MonomialOrder.parse("deglex-sum")).table)
    again = scheme_from_dict(scheme_to_dict(dist))
    assert again.labels == dist.labels
    with pytest.raises(InputFormatError):
        scheme_from_dict({"labels": ["A0"]})


def test_scheme_from_dict_rejects_non_integer_entries():
    for bad in (1.9, 1.0, "1", True, None):
        with pytest.raises(InputFormatError, match="integer matrices"):
            scheme_from_dict({"labels": ["o"], "matrices": [[[bad]]]})
    for matrices in ([[[1, 0], [0, 1]], [[1]]], [[1, 0], [0, 1]], 1):
        with pytest.raises(InputFormatError, match="integer matrices"):
            scheme_from_dict({"labels": ["o"], "matrices": matrices})


def test_tensor_round_trip():
    for t in (gen24cell(2, F(1, 2)), gen24cell(3, F(3, 4)),
              mdrg_check(cell24(), MonomialOrder.parse("deglex-sum")).tensor):
        data = tensor_to_dict(t)
        back = tensor_from_dict(data)
        assert set(back.labels) == set(t.labels)
        assert back.identity == t.identity
        assert back.p == t.p
        assert tensor_to_dict(back) == data


def test_tensor_from_dict_errors():
    with pytest.raises(InputFormatError):
        tensor_from_dict({"labels": ["0"], "identity": "0"})
    with pytest.raises(InputFormatError):
        tensor_from_dict({"labels": ["0"], "identity": "0",
                          "p": [["0", "0", "0"]]})
    with pytest.raises(InputFormatError):
        tensor_from_dict({"labels": ["0"], "identity": "0",
                          "p": [["0", "0", "0", 1.5]]})
    # a value that is not text is parsed every time, so a bool, a list or
    # a float after the same value as text is still an input error
    for value in (True, [1], 1.0):
        with pytest.raises(InputFormatError, match="rational"):
            tensor_from_dict({"labels": ["0", "1"], "identity": "0",
                              "p": [["0", "0", "0", "1"], ["0", "1", "1", value]]})
    # an entry listed twice is an error, also when one of the values is zero
    with pytest.raises(InputFormatError, match="twice"):
        tensor_from_dict({"labels": ["0", "1"], "identity": "0",
                          "p": [["1", "1", "0", 0], ["1", "1", "0", 2]]})
    for bad in ({"labels": ["0", 1]}, {"identity": 0},
                {"p": [["0", "0", None, 1]]}):
        with pytest.raises(InputFormatError, match="must be"):
            tensor_from_dict(dict({"labels": ["0"], "identity": "0",
                                   "p": [["0", "0", "0", 1]]}, **bad))
    for rows in (5, None, "p", {"0": 1}):
        with pytest.raises(InputFormatError, match="p must be a list"):
            tensor_from_dict({"labels": ["0"], "identity": "0", "p": rows})
    # zero entries are dropped on input
    t = tensor_from_dict({"labels": ["0", "1"], "identity": "0",
                          "p": [["0", "0", "0", 1], ["1", "1", "0", 0]]})
    assert (mi((1,)), mi((1,)), mi((0,))) not in t.p


def test_tensor_from_dict_reads_num_as_int64_within_the_bound(monkeypatch):
    """The reader hands from_arrays an int64 ``num`` while k * max(|num|,
    den) < 2^63, the bound from_arrays states, and Python ints past it."""
    seen, build = [], IntersectionTensor.from_arrays
    monkeypatch.setattr(IntersectionTensor, "from_arrays", lambda *args: seen.append(
        args[3].dtype) or build(*args))
    for top, dtype in ((2 ** 62 - 1, np.int64), (2 ** 62, object)):
        t = tensor_from_dict({"labels": ["0", "1"], "identity": "0",
                              "p": [["0", "0", "0", 1], ["1", "1", "0", str(top)]]})
        assert seen.pop() == t.num.dtype == dtype
        assert t.p[mi((1,)), mi((1,)), mi((0,))] == top
    half = tensor_from_dict({"labels": ["0", "1"], "identity": "0",
                             "p": [["0", "0", "0", 1], ["1", "1", "0", "3/2"]]})
    assert (seen.pop(), half.den, half.num.tolist()) == (np.int64, 2, [2, 3])


def test_table_to_dict():
    table = m_distance_table(cycle(4), MonomialOrder.parse("deglex-sum"))
    data = json.loads(dump_json(table_to_dict(table)))
    assert data["order"] == "deglex-sum"
    assert data["realized"] == ["0", "1", "2"]
    assert data["distances"]["0|1"] == "1"
    assert data["distances"]["0|2"] == "2"
    assert "1|0" not in data["distances"]
    assert len(data["distances"]) == 6


def test_polynomials_round_trip():
    polys = {
        mi((0, 0)): {mi((0, 0)): F(1)},
        mi((0, 2)): {mi((0, 2)): F(1, 3), mi((1, 0)): F(2), mi((0, 0)): F(-8, 3)},
    }
    data = polynomials_to_dict(polys)
    assert data["polynomials"][0]["n"] == "0,0"
    # terms by degree, ties by multidegree, whatever the dict order
    assert data["polynomials"][1]["terms"] == [
        {"a": "0,0", "coef": "-8/3"}, {"a": "1,0", "coef": "2"},
        {"a": "0,2", "coef": "1/3"}]
    assert polynomials_from_dict(data) == polys


def test_load_document_dispatch(tmp_path):
    graph_path = tmp_path / "g.json"
    graph_path.write_text(dump_json(graph_to_dict(cycle(5))))
    assert isinstance(load_document(str(graph_path)), ColoredGraph)

    scheme_path = tmp_path / "s.json"
    scheme_path.write_text(dump_json(scheme_to_dict(pauli_scheme4())))
    assert isinstance(load_document(str(scheme_path)), SchemeClasses)

    tensor_path = tmp_path / "t.json"
    tensor_path.write_text(dump_json(tensor_to_dict(gen24cell(2, F(1, 2)))))
    loaded = load_document(str(tensor_path))
    assert isinstance(loaded, IntersectionTensor)
    assert loaded.valency("A1") == 8

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputFormatError):
        load_document(str(bad))
    bad.write_text("[1, 2]")
    with pytest.raises(InputFormatError):
        load_document(str(bad))
    bad.write_text("{\"foo\": 1}")
    with pytest.raises(InputFormatError):
        load_document(str(bad))


def test_dump_json_is_deterministic():
    data = {"b": [3, 2], "a": {"y": 1, "x": "1/2"}}
    text = dump_json(data)
    assert text == dump_json({"a": {"x": "1/2", "y": 1}, "b": [3, 2]})
    assert text.endswith("\n")
    assert json.loads(text) == data


# -- The digit reader against json ----------------------------------------------

MUTANTS = ("none", "whitespace", "entry", "nudge", "drop-row", "drop-matrix",
           "trailing", "second-key", "quoted-key", "escaped-key", "top-level-list")


@st.composite
def scheme_texts(draw, mutant):
    """The dump_json text of a scheme document with k, n in 1..6 and 0/1
    class matrices (half of them a partition), changed by ``mutant``."""
    k, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        cells = draw(st.lists(st.integers(0, k - 1), min_size=n * n, max_size=n * n))
        stack = np.arange(k)[:, None] == np.array(cells)
    else:
        stack = draw(st.lists(st.integers(0, 1), min_size=k * n * n,
                              max_size=k * n * n))
    stack = np.array(stack, dtype=np.uint8).reshape(k, n, n)
    document = {"labels": ["A%d" % i for i in range(k)],
                "vertices": ["v%d" % i for i in range(n)], "matrices": stack}
    if mutant in ("drop-row", "drop-matrix"):
        lists = stack.tolist()  # dump_json writes them as it writes the stack
        i = draw(st.integers(0, k - 1))
        if mutant == "drop-row":
            del lists[i][draw(st.integers(0, n - 1))]
        else:
            del lists[i]
        document["matrices"] = lists
    text = dump_json(document)
    start = text.index('"matrices"')
    if mutant == "whitespace":
        at = draw(st.sampled_from([i for i, c in enumerate(text) if c in " \n"]))
        space = draw(st.sampled_from([" ", "\t", "\n", "\r\n"]))
        text = text[:at] + space + text[at:]
    elif mutant == "entry":
        at = draw(st.sampled_from([i for i, c in enumerate(text)
                                   if c in "01" and i > start]))
        entry = draw(st.sampled_from(["10", "-1", "1.0", "true", "2"]))
        text = text[:at] + entry + text[at + 1:]
    elif mutant == "nudge":  # one byte of the layout, not a digit, raised by one
        at = draw(st.sampled_from([i for i, c in enumerate(text)
                                   if c in "[], \n" and i > start + 11]))
        text = text[:at] + chr(ord(text[at]) + 1) + text[at + 1:]
    elif mutant == "trailing":
        text += draw(st.sampled_from(["x", "{}", "0", "\n\t "]))
    elif mutant == "second-key":
        value = draw(st.sampled_from(["[[[1]]]", "0"]))
        text = (text.replace("{\n", '{\n  "matrices": %s,\n' % value, 1)
                if draw(st.booleans()) else
                text[:-3] + ',\n  "matrices": %s\n}\n' % value)
    elif mutant == "quoted-key":
        text = text.replace("{\n", '{\n  "x\\"matrices": 0,\n', 1)
    elif mutant == "escaped-key":
        text = text.replace('"matrices"', '"matri\\u0063es"')
    elif mutant == "top-level-list":
        text = "[" + text + "]"
    return text


def _outcome(load, path):
    """What ``load(path)`` gives: the classes, or the exception's type and
    text; classes that do not partition have no matrices, only the
    witnesses of their axioms."""
    try:
        s = load(path)
    except Exception as exc:  # compared with the oracle's, not handled
        return type(exc), str(exc)
    if not isinstance(s, SchemeClasses):
        return graph_to_dict(s) if isinstance(s, ColoredGraph) else tensor_to_dict(s)
    if s.index is None:
        return s.labels, s.vertices, verify_scheme_axioms(s).to_dict()
    return s.labels, s.vertices, s.index.tolist(), [mat.tolist() for mat in s.matrices]


@pytest.mark.parametrize("mutant", MUTANTS)
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_load_document_reads_scheme_texts_as_json_does(mutant, data):
    text = data.draw(scheme_texts(mutant))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.json")
        with open(path, "w", encoding="ascii", newline="") as handle:
            handle.write(text)
        assert _outcome(load_document, path) == _outcome(json_load_document, path)
    if mutant == "none":  # the digit reader, not json, read it
        assert isinstance(serialize._read_scheme(text.encode())["matrices"], np.ndarray)


def test_load_document_reads_every_one_byte_change_as_json_does(tmp_path):
    """Each byte of a two-matrix stack's text, its brackets and the
    indents around it raised or lowered by one, reads as json reads it."""
    stack = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]]], dtype=np.uint8)
    text = dump_json({"labels": ["A0", "A1"], "matrices": stack})
    path = str(tmp_path / "s.json")
    start = text.index('"matrices"')
    for at in range(start, len(text)):
        for step in (-1, 1):
            with open(path, "w", encoding="ascii", newline="") as handle:
                handle.write(text[:at] + chr(ord(text[at]) + step) + text[at + 1:])
            assert _outcome(load_document, path) == _outcome(json_load_document, path)


def test_load_document_sizes_no_template_past_the_text(tmp_path):
    """A first row of 20 000 entries and nothing after it: a 20 000 x
    20 000 zero matrix's text would be about 4.4 GB, so the reader builds
    no template and json reads the row."""
    text = ('{\n  "labels": ["A0"],\n  "matrices": [\n    [\n      [\n'
            + "        0,\n" * 19999 + "        0\n      ]\n    ]\n  ]\n}\n")
    path = str(tmp_path / "row.json")
    with open(path, "w", encoding="ascii") as handle:
        handle.write(text)
    tracemalloc.start()
    try:
        outcome = _outcome(load_document, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome == _outcome(json_load_document, path)
    assert peak <= 10 * len(text)


def test_load_document_holds_the_text_and_one_matrix(tmp_path):
    """symmetrize:4 of the Pauli scheme (n = 256, k = 15, 10.9 MB) is read
    with at most 1.6 times its bytes in memory: the bytes and the stack,
    not a decoded copy of the text as well (2.0 times), nor json's nested
    lists (3.0 times)."""
    sym4 = symmetrize(pauli_scheme4(), 4)
    text = dump_json(scheme_to_dict(sym4))
    path = tmp_path / "sym4.json"
    path.write_text(text)
    tracemalloc.start()
    try:
        loaded = load_document(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * len(text)
    assert (loaded.labels, loaded.vertices) == (sym4.labels, sym4.vertices)
    assert np.array_equal(loaded.index, sym4.index)


# -- The byte reader against the text-mode reader ----------------------------

def _writer_texts() -> list[bytes]:
    """dump_json texts of scheme documents: pauli4, symmetrize:2 of it, and
    schemes on one vertex and on two, the last without vertices."""
    one = SchemeClasses(["A0"], np.ones((1, 1, 1), np.uint8), ["x"])
    two = SchemeClasses(["A0", "A1"], np.array([np.eye(2), 1 - np.eye(2)], np.uint8),
                        ["x", "y"])
    documents = [scheme_to_dict(s) for s in (pauli_scheme4(),
                                             symmetrize(pauli_scheme4(), 2), one, two)]
    del documents[-1]["vertices"]
    return [dump_json(document).encode("ascii") for document in documents]


WRITER_TEXTS = _writer_texts()
BYTE_MUTANTS = ("none", "template-byte", "digit", "non-ascii", "truncate", "crlf",
                "cr", "indent")


def _mutate(draw, raw: bytes, mutant: str) -> bytes:
    """``raw`` changed by ``mutant``: one byte of the stack that is not a
    digit set to another ASCII byte, a digit made 2 or /, a byte of
    128..255 put anywhere, the text cut anywhere, each \\n made \\r\\n or
    \\r, or the labels or vertices list written at 2-space indents."""
    start = raw.index(b'"matrices": ') + 12
    stack = range(start, raw.index(b"\n  ]", start) + 4)
    if mutant == "template-byte":
        at = draw(st.sampled_from([i for i in stack if raw[i] not in b"01"]))
        byte = draw(st.integers(0, 127).filter(lambda b: b != raw[at]))
        return raw[:at] + bytes([byte]) + raw[at + 1:]
    if mutant == "digit":
        at = draw(st.sampled_from([i for i in stack if raw[i] in b"01"]))
        return raw[:at] + draw(st.sampled_from([b"2", b"/"])) + raw[at + 1:]
    if mutant == "non-ascii":
        at = draw(st.integers(0, len(raw)))
        return raw[:at] + bytes([draw(st.integers(128, 255))]) + raw[at:]
    if mutant == "truncate":
        return raw[:draw(st.integers(0, len(raw) - 1))]
    if mutant in ("crlf", "cr"):
        return raw.replace(b"\n", b"\r\n" if mutant == "crlf" else b"\r")
    if mutant == "indent":
        key = draw(st.sampled_from([b"labels", b"vertices"] if b'"vertices"' in raw
                                   else [b"labels"]))
        head = b'"%s": ' % key
        at = raw.index(head) + len(head)
        end = raw.index(b"]", at) + 1
        value = json.loads(raw[at:end])
        return raw[:at] + json.dumps(value, indent=2).encode("ascii") + raw[end:]
    return raw


def _outcomes(raw: bytes) -> tuple:
    """What load_document and the text-mode reader make of the file ``raw``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.json")
        with open(path, "wb") as handle:
            handle.write(raw)
        return _outcome(load_document, path), _outcome(text_load_document, path)


@pytest.mark.parametrize("mutant", BYTE_MUTANTS)
@settings(max_examples=30, deadline=None)
@given(st.data())
def test_load_document_reads_bytes_as_the_text_reader_does(mutant, data):
    """The same scheme, or the same error type and message, as a reader
    that decodes the whole file in text mode and matches the layout there."""
    raw = _mutate(data.draw, data.draw(st.sampled_from(WRITER_TEXTS)), mutant)
    outcome, oracle = _outcomes(raw)
    assert outcome == oracle
    if mutant in ("none", "indent"):  # the digit stack, read in place
        assert isinstance(serialize._read_scheme(raw)["matrices"], np.ndarray)


@pytest.mark.parametrize("mutant", ("crlf", "cr", "non-ascii", "truncate"))
@settings(max_examples=15, deadline=None)
@given(st.data())
def test_graph_and_tensor_documents_keep_their_messages(mutant, data):
    """Graph and tensor documents, with \\r\\n or \\r line ends, a non-ASCII
    byte, or cut short (after \\r\\n ends, so json's error positions count
    one \\n per line end), read as the text reader reads them."""
    document = data.draw(st.sampled_from([graph_to_dict(cycle(5)),
                                          tensor_to_dict(gen24cell(2, F(1, 2)))]))
    raw = dump_json(document).encode("ascii")
    if mutant == "truncate":
        raw = raw.replace(b"\n", b"\r\n")[:data.draw(st.integers(0, 2 * len(raw)))]
    elif mutant == "non-ascii":
        at = data.draw(st.integers(0, len(raw)))
        raw = raw[:at] + bytes([data.draw(st.integers(128, 255))]) + raw[at:]
    else:
        raw = raw.replace(b"\n", b"\r\n" if mutant == "crlf" else b"\r")
    outcome, oracle = _outcomes(raw)
    assert outcome == oracle
    if mutant in ("crlf", "cr"):
        assert outcome == (graph_to_dict(graph_from_dict(document)) if "edges" in document
                           else document)


@pytest.mark.parametrize("end", [b"\r\n", b"\r"])
def test_crlf_scheme_document_takes_the_digit_stack_path(tmp_path, monkeypatch, end):
    """A writer-layout symmetrize:3 document with \\r\\n or \\r line ends is
    read as its LF copy is, by the digit stack checked in place: its line
    ends are read as LF before the layout is matched, not left to json."""
    sym3 = symmetrize(pauli_scheme4(), 3)
    raw = dump_json(scheme_to_dict(sym3)).encode("ascii")
    (tmp_path / "lf.json").write_bytes(raw)
    (tmp_path / "crlf.json").write_bytes(raw.replace(b"\n", end))
    stacks, read = [], serialize._read_scheme
    monkeypatch.setattr(serialize, "_read_scheme",
                        lambda raw: stacks.append(read(raw)) or stacks[-1])
    lf, crlf = (load_document(str(tmp_path / name)) for name in ("lf.json", "crlf.json"))
    assert [isinstance(data["matrices"], np.ndarray) for data in stacks] == [True, True]
    assert (crlf.labels, crlf.vertices) == (lf.labels, lf.vertices) == (sym3.labels,
                                                                         sym3.vertices)
    assert np.array_equal(crlf.index, lf.index) and np.array_equal(lf.index, sym3.index)


@pytest.mark.parametrize("value, message", [
    (["a", "b"], None),
    ([], None),
    (["a", 1, None], "vertex names must be strings, got 1"),
    ([None, "a", 2], "vertex names must be strings, got None"),
    ([True], "vertex names must be strings, got True"),
    ("ab", "vertices must be a list, got str"),
])
def test_check_list_names_the_first_item_that_is_no_string(value, message):
    if message is None:
        serialize._check_list("vertices", value, "vertex names")
        serialize._check_list("vertices", value + [1])  # no names: items unchecked
        return
    with pytest.raises(InputFormatError) as err:
        serialize._check_list("vertices", value, "vertex names")
    assert str(err.value) == message

"""JSON round-tripping for graphs, schemes, tensors, tables, polynomials.

Rationals travel as JSON integers or "p" or "p/q" text in ASCII digits,
class matrices hold integers, and floats are rejected on the way in, so
no inexact value can enter a computation.  Class labels are written as
their text form; on the way in, anything that parses as a comma-separated
tuple of integers becomes a multi-index, anything else an opaque tag.

Output is canonical JSON: :func:`dump_json` writes the bytes of
``json.dumps(data, sort_keys=True, indent=2)`` without json's slow
pure-Python indent path.  Documents are read as bytes.  A scheme's
``matrices`` is one read-only (k, n, n) uint8 stack of 0/1 entries, each
matrix written into a zero matrix's text at its digit offsets, and read
by checking its bytes against that text in place; any other text is
decoded once and reads, or fails, as json's.  The distances report's
``distances`` is the :class:`DistanceTable`, written from its class-index
matrix as {"x|y": label}: keys in (x + "|", y) order, their string order
unless an x + "|" starts another (a name with "|"); then sorted whole.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Mapping, Optional, Union

import numpy as np

from .graphs import ColoredGraph, DistanceTable
from .orders import MultiIndex
from .schemes import IntersectionTensor, Label, SchemeClasses, _read_only, label_text


class InputFormatError(ValueError):
    """Malformed or ambiguous input document."""


# -- Scalars and labels ----------------------------------------------------------

def fraction_to_text(value: Fraction) -> str:
    return str(value if type(value) in (int, Fraction) else Fraction(value))  # "p" or "p/q"


def fraction_from_json(value: Union[str, int]) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise InputFormatError("rationals must be integers or 'p/q' strings, "
                               "got %r" % (value,))
    if isinstance(value, int):
        return Fraction(value)
    # not Fraction()'s syntax, which takes "1.5", "1_000" and "1e10000000"
    if isinstance(value, str) and re.fullmatch(
            r"\s*[+-]?[0-9]+(/[0-9]+)?\s*", value, re.ASCII):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputFormatError("bad rational %r" % value) from exc
    raise InputFormatError("bad rational %r" % (value,))


def label_from_text(text: str) -> Label:
    try:
        return MultiIndex.parse(text)
    except (ValueError, TypeError):
        return str(text)


def _check_list(key: str, value: Any, names: str = "") -> None:
    """An input error unless ``value`` is a list, of strings given ``names``."""
    if not isinstance(value, list):
        raise InputFormatError("%s must be a list, got %s" % (key, type(value).__name__))
    for v in value if names and not set(map(type, value)) <= {str} else ():
        if not isinstance(v, str):
            raise InputFormatError("%s must be strings, got %r" % (names, v))


def _required(data: Mapping[str, Any], document: str, *keys: str) -> list:
    """The values of ``keys``; an input error names the first one missing."""
    missing = [key for key in keys if key not in data]
    if missing:
        raise InputFormatError("%s document needs keys %s; missing %r"
                               % (document, ", ".join(keys), missing[0]))
    return [data[key] for key in keys]


# -- Graphs ----------------------------------------------------------------------

def graph_to_dict(g: ColoredGraph) -> dict:
    return {
        "m": g.m,
        "vertices": list(g.vertices),
        "edges": [[u, v, c] for u, v, c in g.edge_names()],
    }


def graph_from_dict(data: Mapping[str, Any]) -> ColoredGraph:
    m, vertices, edges = _required(data, "graph", "m", "vertices", "edges")
    if not isinstance(m, int) or isinstance(m, bool):
        raise InputFormatError("m must be an integer")
    _check_list("vertices", vertices, "vertex names")
    _check_list("edges", edges)
    # each color needs an edge, and a larger m costs O(m) in every key
    if m > max(1, len(edges)):
        raise InputFormatError("m=%d is more than the number of edges (%d); "
                               "every color needs an edge" % (m, len(edges)))
    for edge in edges:
        if not (isinstance(edge, (list, tuple)) and len(edge) == 3):
            raise InputFormatError("edges are [u, v, color] triples, got %r" % (edge,))
        u, v, color = edge
        if not isinstance(u, str) or not isinstance(v, str):
            raise InputFormatError("edge endpoints must be vertex names, got %r" % (edge,))
        if not isinstance(color, int) or isinstance(color, bool):
            raise InputFormatError("edge color must be an integer, got %r" % (color,))
    return ColoredGraph(m, vertices, edges)


# -- Scheme classes ---------------------------------------------------------------

def scheme_to_dict(s: SchemeClasses) -> dict:
    """The scheme document; ``matrices`` is one read-only (k, n, n) uint8
    array of 0/1 entries, k*n^2 bytes, made from :attr:`SchemeClasses.index`."""
    # len(s.matrices) raises the partition witness when there is no index
    classes = np.arange(len(s.matrices), dtype=s.index.dtype)
    stack = (s.index == classes[:, None, None]).view(np.uint8)
    return {
        "labels": [label_text(lab) for lab in s.labels],
        "vertices": list(s.vertices),
        "matrices": _read_only(stack),
    }


def scheme_from_dict(data: Mapping[str, Any]) -> SchemeClasses:
    labels, matrices = _required(data, "scheme", "labels", "matrices")
    try:
        stack = np.asarray(matrices)  # the reader's stack as it is; JSON true becomes 1
    except ValueError as exc:  # ragged nesting
        raise InputFormatError("matrices must be n x n integer matrices") from exc
    if (stack.ndim != 3 or stack.dtype.kind not in "iu" or stack is not matrices
            and any(bool in set(map(type, row)) for mat in matrices for row in mat)):
        raise InputFormatError("matrices must be n x n integer matrices")
    _check_list("labels", labels, "class labels")
    vertices = data.get("vertices")
    if vertices is not None:
        _check_list("vertices", vertices, "vertex names")
    return SchemeClasses(list(map(label_from_text, labels)), stack, vertices)


# -- Intersection tensors ----------------------------------------------------------

def tensor_to_dict(t: IntersectionTensor) -> dict:
    return {"labels": sorted(map(label_text, t.labels)), "identity": label_text(t.identity),
            "p": sorted([*map(label_text, key), fraction_to_text(v)] for key, v in t.p.items())}


def tensor_from_dict(data: Mapping[str, Any]) -> IntersectionTensor:
    """A tensor document read into class positions, each distinct label or value
    text parsed once; an input error names the first row with a fault of each
    kind in turn: shape, label type, value type, value, repeated (a, b, c)."""
    labels, identity, rows = _required(data, "tensor", "labels", "identity", "p")
    _check_list("labels", labels, "class labels")
    _check_list("identity", [identity], "class labels")
    _check_list("p", rows)
    if not (set(map(type, rows)) <= {list, tuple} and set(map(len, rows)) <= {4}):
        raise InputFormatError("p entries are [a, b, c, value], got %r" % (next(
            row for row in rows if type(row) not in (list, tuple) or len(row) != 4),))
    texts = list(itertools.chain.from_iterable(row[:3] for row in rows))
    values = [row[3] for row in rows]
    _check_list("p entries", texts, "class labels")
    odd = [v for v in values if type(v) is not str and type(v) is not int]  # parse raises
    fractions = {v: fraction_from_json(v) for v in odd[:1] or dict.fromkeys(values)}
    den = math.lcm(*(v.denominator for v in fractions.values()))
    nums = {v: f.numerator * (den // f.denominator) for v, f in fractions.items()}
    declared, k = list(map(label_from_text, labels)), len(labels)
    where = {lab: i for i, lab in enumerate(declared)}  # other labels from k up
    position = {x: where.setdefault(label_from_text(x), k + len(where))
                for x in dict.fromkeys(texts)}
    entries = np.fromiter(map(position.__getitem__, texts), np.int64).reshape(-1, 3)
    order = np.lexsort(entries.T[::-1])  # stable: a repeat sorts after its first
    repeat = order[1:][(entries[order[1:]] == entries[order[:-1]]).all(axis=1)]
    if repeat.size:
        raise InputFormatError("p lists %r twice" % (rows[int(repeat.min())][:3],))
    dtype = np.int64 if k * max([den, *map(abs, nums.values())]) < 2 ** 63 else object
    num = np.fromiter(map(nums.__getitem__, values), dtype, len(values))  # from_arrays's bound
    try:
        return IntersectionTensor.from_arrays(declared, label_from_text(identity), entries,
                                              num, den, {i: lab for lab, i in where.items()})
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc


# -- Distance tables ---------------------------------------------------------------

def table_to_dict(table: DistanceTable) -> dict:
    """The distances report; ``distances`` is the table itself, which
    :func:`dump_json` writes as the object {"x|y": label} over x before y."""
    return {
        "order": table.order.as_text(),
        "vertices": list(table.graph.vertices),
        "realized": sorted(lab.as_text() for lab in table.labels),
        "size": len(table.labels),
        "distances": table,
    }


# -- Defining polynomials ---------------------------------------------------------

def polynomials_to_dict(polys: Mapping[MultiIndex, Mapping[MultiIndex, Fraction]]
                        ) -> dict:
    """Each v_n's terms by degree, ties by multidegree."""
    out = []
    for n in sorted(polys):
        terms = sorted(polys[n].items(), key=lambda kv: (kv[0].degree, tuple(kv[0])))
        out.append({
            "n": n.as_text(),
            "terms": [{"a": a.as_text(), "coef": fraction_to_text(v)}
                      for a, v in terms],
        })
    return {"polynomials": out}


# -- Documents ---------------------------------------------------------------------

def load_document(path: str) -> Union[ColoredGraph, SchemeClasses, IntersectionTensor]:
    """Read a JSON file once, as bytes, and dispatch on its keys: "edges"
    means a colored graph, "matrices" a scheme given by class matrices, "p" an
    abstract intersection tensor.  A scheme's digit stack is checked in place,
    CR and CRLF read as LF (:func:`_read_scheme`); any other text is decoded once."""
    with open(path, "rb") as handle:
        text = handle.read()
    try:
        data = _read_scheme(text.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
                            if b"\r" in text else text)
        if data is None:
            text = text.decode("ascii").replace("\r\n", "\n").replace("\r", "\n")
            data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError("%s: not valid JSON (%s)" % (path, exc)) from exc
    del text  # before the document is built, as json.load kept no text
    if not isinstance(data, dict):
        raise InputFormatError("%s: top level must be an object" % path)
    if "edges" in data:
        return graph_from_dict(data)
    if "matrices" in data:
        return scheme_from_dict(data)
    if "p" in data:
        return tensor_from_dict(data)
    raise InputFormatError("%s: expected one of the keys edges/matrices/p" % path)


def _read_scheme(raw: bytes) -> Optional[dict]:
    """The object of a scheme document in :func:`dump_json`'s layout (keys labels,
    matrices, maybe vertices), values but the digit stack decoded alone; else None."""
    data, pos = {}, 0
    try:
        for key, tail in (("labels", b',\n  "matrices": '), ("matrices", b""),
                          ("vertices", b"\n}\n")):
            head = b'%s\n  "%s": ' % (b"," if data else b"{", key.encode())
            if not raw.startswith(head, pos):
                break
            pos += len(head)
            end = raw.find(tail, pos)  # of the value, if not the digit stack
            data[key], pos = (_read_digits(raw, pos) if not tail else
                              (json.loads(raw[pos:end].decode("ascii")), end))
    except (ValueError, RecursionError):  # json.loads raises it again
        return None
    done = "matrices" in data and len(raw) - pos == 3 and raw.endswith(b"\n}\n")
    return data if done else None


def _read_digits(raw: bytes, pos: int) -> tuple[np.ndarray, int]:
    """The read-only (k, n, n) uint8 stack at ``pos`` and its end, if each matrix's
    bytes less a zero n x n matrix's text are 0 or 1 at its digits, else 0."""
    end = raw.find(b"]", pos)  # of the first row, which has n entries
    n = raw.count(b",", pos, end) + 1
    if not 0 < n * (end - pos) <= 2 * (len(raw) - pos):  # no row; template too big
        raise ValueError("no digit stack")
    template, offsets = _layout((n, n), "\n    ")
    allowed, matrices, sep = template == ord("0"), [], b"[\n    "
    while raw.startswith(sep, pos):
        excess = np.frombuffer(raw, np.uint8, template.size, pos + len(sep)) - template
        if (excess > allowed).any():
            raise ValueError("not a zero matrix with some 0s made 1s")
        matrices.append(excess.take(offsets))
        pos, sep = pos + len(sep) + template.size, b",\n    "
    if not (matrices and raw.startswith(b"\n  ]", pos)):
        raise ValueError("no digit stack")
    return _read_only(np.stack(matrices).reshape(-1, n, n)), pos + 4


def dump_json(data: Any) -> str:
    """Canonical report text: the bytes of ``json.dumps(data,
    sort_keys=True, indent=2) + "\\n"``, an array written as its nested
    lists, a :class:`DistanceTable` as its {"x|y": label} object (see
    :func:`_encode_pairs`).  With an indent json's encoder is pure Python,
    one step per entry, so dicts, lists (one join if all items are exactly
    str), strings, ints, bools and None are written here; any other value
    goes to ``json.dumps``, re-indented, which is exact because JSON
    strings hold no raw newline.  The only arrays are uint8 arrays of
    digits, such as :func:`scheme_to_dict`'s stacks: each matrix is a copy
    of the text of one zero matrix, built once per array, with its digits
    put at their offsets; any other array is a ValueError.  Every piece
    goes to one list, joined once: the text is copied once."""
    out: list[str] = []
    _encode(data, "\n", out)
    out.append("\n")
    return "".join(out)


def _encode(value: Any, nl: str, out: list) -> None:
    kind = type(value)
    if kind is np.ndarray:
        if value.dtype != np.uint8 or value.ndim < 2 or not value.size or value.max() > 9:
            raise ValueError("only nonempty uint8 arrays of digits 0..9 are written, "
                             "got %s %s" % (value.dtype, value.shape))
        _encode_digits(value, nl, out)
        return
    if kind is DistanceTable:
        _encode_pairs(value, nl, out)
        return
    if kind is dict and value and all(type(key) is str for key in value):
        brackets, keys = "{}", sorted(value)
        heads = [encode_basestring_ascii(key) + ": " for key in keys]
        items = [value[key] for key in keys]
    elif (kind is list or kind is tuple) and value:
        brackets, heads, items = "[]", [""] * len(value), value
    else:
        out.append(encode_basestring_ascii(value) if kind is str else str(value) if kind is int
                   else "null" if value is None else str(value).lower() if kind is bool
                   else json.dumps(value, sort_keys=True, indent=2).replace("\n", nl))
        return
    inner = nl + "  "
    sep, comma, append = brackets[0] + inner, "," + inner, out.append
    if brackets == "[]" and type(items[0]) is str and set(map(type, items)) == {str}:
        return append(sep + comma.join(map(encode_basestring_ascii, items)) + nl + "]")
    for head, item in zip(heads, items):
        append(sep + head)
        _encode(item, inner, out)
        sep = comma
    append(nl + brackets[1])


def _encode_pairs(table: DistanceTable, nl: str, out: list) -> None:
    """The object {"x|y": label} over x before y in vertex order, at ``nl``,
    with no dict, sort or encode per pair.  With h_x = x + "|", if no h_x
    starts another, keys h_x + y and h_x' + y' (x != x') first differ
    inside h_x and h_x', so string order is (h_x, y) order: rows by head,
    y by name, each row one join of pieces ``y": "label`` made once per
    (y, label).  If some head starts the next one in sorted order, which
    needs a "|" in a name, the per-pair dict is written, keys sorted whole."""
    names, k, index = table.graph.vertices, len(table.labels), table.index
    texts = [lab.as_text() for lab in table.labels]
    heads = sorted(range(len(names)), key=lambda i: names[i] + "|")
    if any(names[b].startswith(names[a] + "|") for a, b in zip(heads, heads[1:])):
        return _encode({names[i] + "|" + names[j]: texts[index[i, j]]
                        for i, j in zip(*np.triu_indices(len(names), 1))}, nl, out)
    ys = [encode_basestring_ascii(y)[1:] + ": " for y in names]
    class Pieces(dict):  # ys[j] + label c by code j k + c, made when first read
        def __missing__(self, code: int) -> str:
            self[code] = text = ys[code // k] + encode_basestring_ascii(texts[code % k])
            return text
    by_name = np.array(sorted(range(len(names)), key=names.__getitem__))
    piece, sep = Pieces().__getitem__, "{"
    for i in heads:
        cols = by_name[by_name > i]
        if cols.size:
            head = nl + "  " + encode_basestring_ascii(names[i])[:-1] + "|"
            out.append(sep + head + ("," + head).join(
                map(piece, (cols * k + index[i, cols]).tolist())))
            sep = ","
    out.append(nl + "}" if sep == "," else "{}")


def _layout(shape: tuple[int, int], nl: str) -> tuple[np.ndarray, np.ndarray]:
    """The text of a zero matrix of ``shape`` written at ``nl``, as uint8
    codes, and the offsets of its digits in row-major order."""
    inner = nl + "  "
    row = "[" + inner + "  " + ("0," + inner + "  ") * (shape[1] - 1) + "0" + inner + "]"
    text = np.frombuffer(("[" + inner + ("," + inner).join([row] * shape[0]) + nl + "]")
                         .encode("ascii"), np.uint8)
    return text, np.flatnonzero(text == ord("0"))


def _encode_digits(value: np.ndarray, nl: str, out: list, layout: tuple = ()) -> None:
    """An array of digits written as nested lists at ``nl``, each matrix
    by scattering its digits into a copy of one zero matrix's text."""
    layout = layout or _layout(value.shape[-2:], nl + "  " * (value.ndim - 2))
    if value.ndim == 2:
        text = layout[0].copy()
        text[layout[1]] = value.ravel() + 48
        out.append(str(text, "ascii"))
        return
    for i, matrix in enumerate(value):
        out.append(("," if i else "[") + nl + "  ")
        _encode_digits(matrix, nl + "  ", out, layout)
    out.append(nl + "]")

"""The class-position arrays of ``IntersectionTensor`` against the
label-keyed dict scans of ``helpers``: ``validate`` (with and without
integrality), ``associativity``, the generator rows that the step checks
read, relabeling and the document round trip give the same results,
certificates byte for byte.

Inputs: the families' tensors (tori, Hamming graphs, the generalized
24-cell grid with rational values, with its opaque tags and under both
label maps, symmetrize:2 of pauli4) and mutants of them: one entry
raised or lowered by 1, the symmetric 4-cycle move, one entry made
negative, and one value past the int64 bound, which puts ``num`` on
Python ints.  Malformed documents name the same row, with the same
message, as the row-by-row dict reader.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from mdrg import (IntersectionTensor, MonomialOrder, associativity,
                  cartesian_product, cycle, gen24cell, hamming_graph,
                  intersection_tensor, mdrg_check, pauli_scheme4, symmetrize)
from mdrg.serialize import InputFormatError, dump_json, tensor_from_dict, tensor_to_dict

from helpers import (AXIS_LABELING, DIAGONAL_LABELING, dict_associativity,
                     dict_generator_rows, dict_relabel, dict_tensor_from_dict,
                     dict_validate, four_cycle_move, table_rows)

DEGLEX_SUM = MonomialOrder.parse("deglex-sum")


def _family_tensors() -> list:
    tensors = [mdrg_check(cartesian_product([cycle(n) for n in sizes]), DEGLEX_SUM).tensor
               for sizes in ((3, 4), (4, 4), (5, 3), (6, 4), (3, 3, 3))]
    tensors += [mdrg_check(hamming_graph(k, q), DEGLEX_SUM).tensor
                for k, q in ((2, 3), (3, 2), (2, 4))]
    for ell, s in (("2", "1/2"), ("3", "3/4"), ("5/2", "2/3"), ("7/3", "5/4")):
        t = gen24cell(Fraction(ell), Fraction(s))
        tensors += [t, AXIS_LABELING.apply(t), DIAGONAL_LABELING.apply(t)]
    tensors.append(intersection_tensor(symmetrize(pauli_scheme4(), 2)))
    return tensors


FAMILY = _family_tensors()


def _mutated(t, key, how: str):
    p = dict(t.p)
    if how == "step":
        p[key] = p.get(key, 0) + 1
    elif how == "lower":
        p[key] = p.get(key, 0) - 1
    elif how == "negative":
        p[key] = -abs(p.get(key, 0)) or Fraction(-1)
    elif how == "past-int64":
        p[key] = p.get(key, 0) + 2 ** 64
    return IntersectionTensor(labels=t.labels, identity=t.identity,
                              p={k: v for k, v in p.items() if v})


@st.composite
def tensors(draw):
    t = draw(st.sampled_from(FAMILY))
    how = draw(st.sampled_from(["none", "step", "lower", "negative", "past-int64",
                                "four-cycle"]))
    event(how)
    if how == "none":
        return t
    if how == "four-cycle":
        others = [lab for lab in t.labels if lab != t.identity]
        if len(others) < 5:
            return t
        c, x1, x2, y1, y2 = draw(st.permutations(others))[:5]
        return four_cycle_move(t, c, x1, x2, y1, y2)
    key = (tuple(t.p)[draw(st.integers(0, len(t.p) - 1))] if draw(st.booleans())
           else tuple(draw(st.sampled_from(t.labels)) for _ in range(3)))
    return _mutated(t, key, how)


def _rows_in_order(rows: dict) -> dict:
    return {key: list(row.items()) for key, row in rows.items()}


@settings(max_examples=80, deadline=None)
@given(tensors(), st.randoms(use_true_random=False))
def test_array_core_matches_the_dict_scans(t, rng):
    for strict in (False, True):
        assert (dump_json(t.validate(strict).to_dict())
                == dump_json(dict_validate(t, strict).to_dict()))
    event("validate " + t.validate(True).verdict)
    assert associativity(t) == dict_associativity(t)
    event("associativity " + ("passes" if associativity(t).passed else "fails"))
    if t.labels_are_multiindex:
        assert _rows_in_order(table_rows(t)) == _rows_in_order(dict_generator_rows(t))
    else:
        with pytest.raises(ValueError):
            table_rows(t)
        with pytest.raises(ValueError):
            dict_generator_rows(t)
    targets = list(t.labels)
    rng.shuffle(targets)
    mapping = dict(zip(t.labels, targets))
    moved = t.relabel(mapping)
    assert moved.labels == tuple(targets) and moved.identity == mapping[t.identity]
    assert dict(moved.p) == dict_relabel(t, mapping)
    assert (dump_json(moved.validate().to_dict())
            == dump_json(dict_validate(moved).to_dict()))
    document = tensor_to_dict(t)
    back = tensor_from_dict(document)
    assert (back.labels, back.identity, dict(back.p)) == dict_tensor_from_dict(document)
    assert dict(back.p) == dict(t.p) and dump_json(tensor_to_dict(back)) == dump_json(document)


def test_past_the_bound_num_holds_python_ints():
    t = FAMILY[0]
    key = next(iter(t.p))
    big = _mutated(t, key, "past-int64")
    assert t.num.dtype == np.int64 and big.num.dtype == object
    assert big.p[key] == t.p[key] + 2 ** 64
    assert big.validate().to_dict() == dict_validate(big).to_dict()
    assert not big.validate().passed


def test_row_sums_near_the_bound_do_not_wrap():
    """Three entries of one row sum to k_a + 2^64 while each fits int64:
    int64 sums would wrap to k_a and pass; k max|num| >= 2^63 keeps them
    on Python ints, and the row fails where the dict scan says."""
    t = FAMILY[0]
    x, z = t.labels[1], t.labels[2]
    p = {key: v for key, v in t.p.items() if key[::2] != (x, z)}
    top = 2 ** 63 - 1
    p.update({(x, t.labels[0], z): top, (x, t.labels[1], z): top,
              (x, t.labels[2], z): t.valency(x) + 2})
    wide = IntersectionTensor(labels=t.labels, identity=t.identity, p=p)
    assert wide.num.dtype == object
    check = wide.validate().checks[3]
    assert check.name == "row-sums" and check.witness["a"] == x.as_text()
    assert wide.validate().to_dict() == dict_validate(wide).to_dict()


def test_equality_and_the_stored_form():
    """The arrays are sorted, zero-free and read-only over the least
    common denominator; equality compares labels, identity and p."""
    t = FAMILY[-1]
    keys = (t.a * len(t.labels) + t.b) * len(t.labels) + t.c
    assert (np.diff(keys) > 0).all() and (t.num != 0).all()
    assert not any(x.flags.writeable for x in (t.a, t.b, t.c, t.num))
    half = IntersectionTensor(labels=t.labels, identity=t.identity,
                              p={**t.p, next(iter(t.p)): Fraction(1, 2)})
    assert half.den == 2 and half != t
    twin = IntersectionTensor(labels=t.labels, identity=t.identity,
                              p={**t.p, (t.identity,) * 3: 1, next(iter(t.p)): 0})
    assert twin.den == 1 and "p" not in vars(twin)
    assert twin == IntersectionTensor(labels=t.labels, identity=t.identity,
                                      p={k: v for k, v in twin.p.items()})


# -- Malformed documents ------------------------------------------------------------

@st.composite
def faulty_documents(draw):
    """A family document with repeated rows, rows naming undeclared labels
    (with zero and nonzero values), a label written a second way, an
    undeclared identity or a declared label listed twice."""
    document = tensor_to_dict(draw(st.sampled_from(FAMILY)))
    rows = [list(row) for row in document["p"]]
    labels = list(document["labels"])
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["repeat", "unknown", "unknown-zero", "respell"]))
        event(kind)
        row = list(rows[draw(st.integers(0, len(rows) - 1))])
        if kind == "unknown":
            row[draw(st.integers(0, 2))], row[3] = "9,9", "1"
        elif kind == "unknown-zero":
            row[draw(st.integers(0, 2))], row[3] = draw(st.sampled_from(["9,9", "x"])), "0"
        elif kind == "respell" and "," in row[0]:
            row[0] = row[0].replace(",", ", ")
        rows.insert(draw(st.integers(0, len(rows))), row)
    if draw(st.booleans()):
        document["identity"] = draw(st.sampled_from(["9,9", "A9", labels[-1]]))
    if draw(st.booleans()):
        labels.append(labels[0])
    document["labels"], document["p"] = labels, rows
    return document


def _outcome(read, document):
    try:
        result = read(document)
    except InputFormatError as exc:
        return "error", str(exc)
    if isinstance(result, IntersectionTensor):
        result = (result.labels, result.identity, dict(result.p))
    return "tensor", result


@settings(max_examples=120, deadline=None)
@given(faulty_documents())
def test_reader_names_the_rows_of_the_dict_reader(document):
    outcome = _outcome(tensor_from_dict, document)
    event(outcome[1].partition(" ")[0] if outcome[0] == "error" else "read")
    assert outcome == _outcome(dict_tensor_from_dict, document)


@pytest.mark.parametrize("row, message", [
    ([["0"], "0", "0", "1"], "class labels must be strings, got ['0']"),
    (["0", "0", "0"], "p entries are [a, b, c, value], got ['0', '0', '0']"),
    ("0", "p entries are [a, b, c, value], got '0'"),
    (["0", "0", "0", True], "rationals must be integers or 'p/q' strings, got True"),
    (["0", "0", "0", 1.0], "rationals must be integers or 'p/q' strings, got 1.0"),
    (["0", "0", "0", "1/0"], "bad rational '1/0'"),
    (["0", "0", "0", [1]], "bad rational [1]"),
])
def test_one_bad_row_is_named_as_the_dict_reader_names_it(row, message):
    document = tensor_to_dict(FAMILY[0])
    document["p"].insert(3, row)
    assert _outcome(tensor_from_dict, document) == ("error", message)
    assert _outcome(dict_tensor_from_dict, document) == ("error", message)

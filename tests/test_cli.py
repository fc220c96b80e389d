"""CLI behavior: exit codes, report shape, determinism."""

import json
import re
import time
from fractions import Fraction

import pytest

from mdrg import (
    ColoredGraph,
    MonomialOrder,
    MultiIndex,
    __version__,
    cartesian_product,
    cell24,
    complete,
    cycle,
    m_distance_table,
    mdrg_check,
    pauli_scheme4,
)
import mdrg.cli
import mdrg.families
import mdrg.ppoly
import mdrg.schemes
from mdrg.cli import main
from mdrg.schemes import distance_matrices
from mdrg.serialize import (
    dump_json,
    graph_to_dict,
    scheme_to_dict,
    tensor_to_dict,
)

from helpers import four_cycle_move, polynomials_from_dict, reprove_report

mi = MultiIndex
AXIS_TEXT = "A0=0,0;A1=0,2;A2=1,0;A3=0,1;A4=2,0"


def run(capsys, *argv):
    """Run the CLI; an exit-1 certify-ppoly or type-ab report has each of
    its failing step checks re-proved from its input and witness."""
    code = main(list(argv))
    out, err = capsys.readouterr()
    if code == 1 and argv[0] in ("certify-ppoly", "type-ab") and out:
        reprove_report(json.loads(out))
    return code, out, err


@pytest.fixture()
def cell24_graph(tmp_path):
    path = tmp_path / "cell24.json"
    path.write_text(dump_json(graph_to_dict(cell24())))
    return str(path)


@pytest.fixture()
def gen24_tensor(tmp_path, capsys):
    path = tmp_path / "t24.json"
    assert main(["generate", "gen24cell:2,1/2", "--out", str(path)]) == 0
    capsys.readouterr()
    return str(path)


def test_no_arguments_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 2
    assert "usage" in err


def test_version(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.strip() == __version__


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    first = run(capsys, "generate", "cycle:4")
    assert first[0] == 0
    monkeypatch.setattr(mdrg.cli, "build_parser", None)  # a rebuild would fail
    again = run(capsys, "generate", "cycle:4")
    assert again[:2] == first[:2] and again[2].startswith("elapsed: ")
    code, out, err = run(capsys, "generate")
    assert (code, out) == (2, "") and "usage" in err
    code, out, _ = run(capsys, "generate", "cycle:4", "--quiet")
    assert (code, out) == (0, "")


def test_generate_stdout_and_file(tmp_path, capsys):
    code, out, err = run(capsys, "generate", "cycle:6")
    assert code == 0
    doc = json.loads(out)
    assert doc["m"] == 1 and len(doc["edges"]) == 6
    assert "elapsed" in err

    path = tmp_path / "c6.json"
    code, out, _ = run(capsys, "generate", "cycle:6", "--out", str(path))
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text()) == doc


def test_generate_errors(capsys, tmp_path):
    code, _, err = run(capsys, "generate", "moebius:7")
    assert code == 2
    assert "error: unknown family" in err
    code, _, err = run(capsys, "generate", "cycle:two")
    assert code == 2
    code, _, err = run(capsys, "generate", "symmetrize:2")
    assert code == 2
    assert "--scheme" in err
    code, _, err = run(capsys, "generate", "gen24cell:2,1/8")
    assert code == 2
    assert "admissible" in err


def test_distances_on_product(tmp_path, capsys):
    c6 = tmp_path / "c6.json"
    c4 = tmp_path / "c4.json"
    assert main(["generate", "cycle:6", "--out", str(c6)]) == 0
    assert main(["generate", "cycle:4", "--out", str(c4)]) == 0
    prod = tmp_path / "t.json"
    assert main(["generate", "cartesian:%s,%s" % (c6, c4),
                 "--out", str(prod)]) == 0
    capsys.readouterr()
    code, out, err = run(capsys, "distances", str(prod), "--order", "deglex-y2")
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "distances"
    assert report["version"] == __version__
    assert report["results"]["size"] == 12
    assert report["results"]["distances"]["0,0|3,2"] == "3,2"
    assert re.search(r"elapsed: \d+\.\d\d\ds", err)


def test_certify_mdrg_cell24(cell24_graph, capsys):
    code, out, _ = run(capsys, "certify-mdrg", cell24_graph,
                       "--order", "deglex-sum")
    assert code == 0
    report = json.loads(out)
    assert report["certificates"]["mdrg"]["verdict"] == "pass"
    assert report["results"]["classes"] == ["0,0", "0,1", "0,2", "1,0", "2,0"]
    assert report["results"]["valencies"] == {
        "0,0": "1", "0,1": "8", "0,2": "8", "1,0": "6", "2,0": "1"}


def test_certify_mdrg_failure_has_witness(tmp_path, capsys):
    doc = {"m": 2, "vertices": [str(i) for i in range(5)],
           "edges": [["0", "1", 1], ["1", "2", 2], ["2", "3", 1],
                     ["3", "4", 2], ["4", "0", 1]]}
    path = tmp_path / "odd.json"
    path.write_text(dump_json(doc))
    code, out, _ = run(capsys, "certify-mdrg", str(path),
                       "--order", "deglex-sum")
    assert code == 1
    report = json.loads(out)
    checks = {c["name"]: c for c in report["certificates"]["mdrg"]["checks"]}
    assert checks["regular-counts"]["passed"] is False
    assert checks["regular-counts"]["witness"]["count"] == 1
    assert checks["regular-counts"]["witness"]["count_ref"] == 0


def test_output_is_byte_deterministic(cell24_graph, capsys):
    _, first, _ = run(capsys, "certify-mdrg", cell24_graph,
                      "--order", "deglex-sum")
    _, second, _ = run(capsys, "certify-mdrg", cell24_graph,
                       "--order", "deglex-sum")
    assert first == second


def test_verify_scheme(tmp_path, capsys):
    scheme = tmp_path / "pauli.json"
    assert main(["generate", "pauli4", "--out", str(scheme)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "verify-scheme", str(scheme))
    assert code == 0
    report = json.loads(out)
    assert report["certificates"]["axioms"]["verdict"] == "pass"
    assert report["certificates"]["numbers"]["verdict"] == "pass"

    tensor = tmp_path / "formal.json"
    assert main(["generate", "gen24cell:3,3/4", "--out", str(tensor)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "verify-scheme", str(tensor))
    assert code == 0  # formal tensors skip the integrality requirement
    report = json.loads(out)
    assert report["certificates"]["numbers"]["verdict"] == "pass"

    bad = tmp_path / "bad.json"
    bad.write_text(dump_json({"labels": ["0", "1"], "identity": "0",
                              "p": [["0", "0", "0", 1], ["1", "1", "0", -2],
                                    ["0", "1", "1", 1], ["1", "0", "1", 1]]}))
    code, out, _ = run(capsys, "verify-scheme", str(bad))
    assert code == 1
    assert json.loads(out)["certificates"]["numbers"]["verdict"] == "fail"

    code, _, err = run(capsys, "verify-scheme", "no-such-file.json")
    assert code == 2
    assert "error: cannot read" in err


def test_empty_class_is_input_error(tmp_path, capsys):
    # class "z" covers no pair: bad input, not a certified failure
    scheme = tmp_path / "empty-class.json"
    scheme.write_text(dump_json({
        "labels": ["o", "a", "z"], "vertices": ["u", "v"],
        "matrices": [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, 0], [0, 0]]]}))
    path = str(scheme)
    for argv in (["verify-scheme", path],
                 ["certify-ppoly", path, "--order", "lex"]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "error: class matrices must not be all zero" in err


# True among integers: np.asarray reads the mixed list as int64, true as 1
@pytest.mark.parametrize("entry", [1.0, 1.9, "1", True])
def test_non_integer_class_entry_is_input_error(tmp_path, capsys, entry):
    scheme = tmp_path / "float-entry.json"
    scheme.write_text(json.dumps({
        "labels": ["o", "a"], "vertices": ["u", "v"],
        "matrices": [[[entry, 0], [0, 1]], [[0, 1], [1, 0]]]}))
    for argv in (["verify-scheme", str(scheme)],
                 ["certify-ppoly", str(scheme), "--order", "lex"],
                 ["type-ab", str(scheme), "--region"]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "error: matrices must be n x n integer matrices" in err


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


@pytest.mark.parametrize("owner, name, exc", [
    (mdrg.cli, "load_document", MemoryError()),
    (mdrg.schemes, "pair_counts", RuntimeError("kernel fault")),
], ids=["MemoryError", "RuntimeError"])
def test_internal_fault_exits_3_with_one_line(tmp_path, capsys, monkeypatch,
                                              owner, name, exc):
    """A fault that is neither a verdict nor an input error: exit 3, one
    stderr line naming the exception, nothing on stdout."""
    scheme = tmp_path / "k2.json"
    scheme.write_text(dump_json({"labels": ["A0", "A1"],
                                 "matrices": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]}))
    assert run(capsys, "verify-scheme", str(scheme))[0] == 0
    monkeypatch.setattr(owner, name, _raise(exc))
    code, out, err = run(capsys, "verify-scheme", str(scheme))
    assert code == 3
    assert out == ""
    assert err == "internal error: %r\n" % exc
    assert type(exc).__name__ in err


def test_verify_scheme_rejects_graph(cell24_graph, capsys):
    code, _, err = run(capsys, "verify-scheme", cell24_graph)
    assert code == 2
    assert "graph file" in err


def test_certify_ppoly_from_graph(cell24_graph, capsys):
    code, out, _ = run(capsys, "certify-ppoly", cell24_graph,
                       "--order", "deglex-sum")
    assert code == 0
    report = json.loads(out)
    assert report["certificates"]["mdrg"]["verdict"] == "pass"
    assert report["certificates"]["ppoly"]["verdict"] == "pass"
    assert report["results"]["domain"] == ["0,0", "0,1", "0,2", "1,0", "2,0"]

    # the order also drives the distance computation, so deglex-y2 lands
    # on the diagonal domain and passes as well
    code, out, _ = run(capsys, "certify-ppoly", cell24_graph,
                       "--order", "deglex-y2")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["domain"] == ["0,0", "0,1", "1,0", "1,1", "2,0"]

    code, _, err = run(capsys, "certify-ppoly", cell24_graph,
                       "--order", "deglex-y2", "--labeling", AXIS_TEXT)
    assert code == 2  # labeling names do not match the distance classes
    assert "bad --labeling" in err


def test_certify_ppoly_graph_stops_at_mdrg(cell24_graph, capsys):
    # lex never realizes the unit of color 1, so the mdrg stage fails
    # and no ppoly certificate is emitted
    code, out, _ = run(capsys, "certify-ppoly", cell24_graph,
                       "--order", "lex")
    assert code == 1
    report = json.loads(out)
    assert sorted(report["certificates"]) == ["mdrg"]
    checks = {c["name"]: c for c in report["certificates"]["mdrg"]["checks"]}
    assert checks["colors-realized"]["witness"]["unit"] == "1,0"


def test_certify_ppoly_scheme_wrong_order_exits_1(tmp_path, capsys):
    table = m_distance_table(cell24(), MonomialOrder.parse("deglex-sum"))
    path = tmp_path / "scheme.json"
    path.write_text(dump_json(scheme_to_dict(distance_matrices(table))))
    code, out, _ = run(capsys, "certify-ppoly", str(path),
                       "--order", "deglex-y2")
    assert code == 1
    report = json.loads(out)
    assert report["certificates"]["axioms"]["verdict"] == "pass"
    checks = {c["name"]: c for c in report["certificates"]["ppoly"]["checks"]}
    assert checks["products-within-window"]["witness"] == {
        "a": "0,1", "b": "0,2", "bound": "1,1", "generator": "1,0",
        "value": "3", "window": "deglex-y2"}


def _corrupted(tmp_path, graph, entry):
    """The deglex-sum distance tensor of ``graph`` with p[a,b]^c changed
    from 1 to 7, for ``entry`` = [a, b, c]."""
    tensor = mdrg_check(graph, MonomialOrder.parse("deglex-sum")).tensor
    document = tensor_to_dict(tensor)
    for row in document["p"]:
        if row[:3] == entry:
            assert row[3] == "1"
            row[3] = "7"
    path = tmp_path / "corrupted.json"
    path.write_text(dump_json(document))
    return str(path)


def _corrupted_cycle6(tmp_path):
    """The cycle:6 tensor with p[1,2]^1 changed from 1 to 7."""
    return _corrupted(tmp_path, cycle(6), ["1", "2", "1"])


@pytest.mark.parametrize("argv", [
    ["certify-ppoly", "--order", "deglex-sum", "--boundary", "--recurrences"],
    ["type-ab", "--region"],
    ["type-ab", "--alpha", "1/2", "--beta", "0"]])
def test_tensor_input_is_validated(tmp_path, capsys, argv):
    # type-ab checks m = 2 before any certificate, so it reads an m = 2
    # tensor: C4 x C3 with p[(1,0),(0,1)]^(1,1) changed from 1 to 7
    path = (_corrupted_cycle6(tmp_path) if argv[0] == "certify-ppoly" else
            _corrupted(tmp_path, cartesian_product([cycle(4), cycle(3)]),
                       ["1,0", "0,1", "1,1"]))
    code, out, _ = run(capsys, argv[0], path, *argv[1:])
    assert code == 1
    report = json.loads(out)
    assert sorted(report["certificates"]) == ["numbers"]
    failing = [c["name"] for c in report["certificates"]["numbers"]["checks"]
               if not c["passed"]]
    assert failing == ["commutativity", "row-sums"]
    assert "results" not in report


@pytest.mark.parametrize("argv, message", [
    (["type-ab", "--alpha", "x", "--beta", "0"], "Invalid literal for Fraction"),
    (["type-ab", "--alpha", "2", "--beta", "0"], "alpha must lie in [0, 1], got 2"),
    (["type-ab", "--alpha", "1/2"], "give both --alpha and --beta"),
    (["type-ab", "--region"], "type-(alpha,beta) needs m=2, got m=1"),
    (["certify-ppoly", "--order", "deglex-y2"],
     "bad --order: deglex-y2 is defined for m=2, got m=1")],
    ids=["alpha-x", "alpha-2", "alpha-alone", "region-m1", "order-m1"])
def test_usage_is_checked_before_tensor_numbers(tmp_path, capsys, argv, message):
    path = _corrupted_cycle6(tmp_path)
    code, out, err = run(capsys, argv[0], path, *argv[1:])
    assert code == 2
    assert out == ""
    assert "error: " in err and message in err


def test_partial_arity_is_checked_before_mdrg(tmp_path, capsys):
    # the path on three vertices is not distance-regular (exit 1 with
    # a fitting order), but an ab order does not fit its m = 1
    p3 = _write(tmp_path, "p3.json", graph_to_dict(
        ColoredGraph(1, ["a", "b", "c"], [("a", "b", 1), ("b", "c", 1)])))
    code, out, _ = run(capsys, "certify-ppoly", p3, "--order", "deglex-sum")
    assert code == 1
    assert json.loads(out)["certificates"]["mdrg"]["verdict"] == "fail"
    code, out, err = run(capsys, "certify-ppoly", p3, "--order", "deglex-sum",
                         "--partial", "ab:1,0")
    assert code == 2
    assert out == ""
    assert "error: bad --partial: ab order is defined for m=2, got m=1" in err


@pytest.mark.parametrize("command", ["distances", "certify-mdrg",
                                     "certify-ppoly"])
def test_order_arity_is_usage_error(tmp_path, capsys, command):
    c6 = tmp_path / "c6.json"
    c6.write_text(dump_json(graph_to_dict(cycle(6))))
    product = tmp_path / "c6xc4.json"
    product.write_text(dump_json(graph_to_dict(
        cartesian_product([cycle(6), cycle(4)]))))
    for path, order, message in (
            (c6, "deglex-y2", "deglex-y2 is defined for m=2, got m=1"),
            (product, "wdeglex:1,2,3",
             "wdeglex weights have length 3, index has m=2")):
        code, out, err = run(capsys, command, str(path), "--order", order)
        assert code == 2
        assert out == ""
        assert "error: bad --order: " + message in err


def test_certify_ppoly_tensor_needs_labeling(gen24_tensor, capsys):
    code, _, err = run(capsys, "certify-ppoly", gen24_tensor,
                       "--order", "deglex-sum")
    assert code == 2
    assert "labeling" in err
    code, out, _ = run(capsys, "certify-ppoly", gen24_tensor,
                       "--order", "deglex-sum", "--labeling", AXIS_TEXT)
    assert code == 0
    report = json.loads(out)
    assert report["inputs"]["labeling"] == AXIS_TEXT
    assert report["inputs"]["order"] == "deglex-sum"


def test_certify_ppoly_polys_and_recurrences(gen24_tensor, tmp_path, capsys):
    out_file = tmp_path / "polys.json"
    code, out, _ = run(capsys, "certify-ppoly", gen24_tensor,
                       "--order", "deglex-sum", "--labeling", AXIS_TEXT,
                       "--polys", str(out_file), "--recurrences", "--boundary")
    assert code == 0
    report = json.loads(out)
    assert sorted(report["certificates"]) == [
        "boundary", "extraction", "ppoly", "recurrences"]
    for name, cert in report["certificates"].items():
        assert cert["verdict"] == "pass", name
    polys = polynomials_from_dict(json.loads(out_file.read_text()))
    assert polys[mi((2, 0))] == {
        mi((0, 0)): Fraction(-1), mi((1, 0)): Fraction(-2, 3),
        mi((2, 0)): Fraction(1, 6)}
    first = report["results"]["polynomials"][0]
    assert first == {"n": "0,0", "terms": [{"a": "0,0", "coef": "1"}]}


def test_certify_ppoly_partial_flags(gen24_tensor, capsys):
    code, _, err = run(capsys, "certify-ppoly", gen24_tensor,
                       "--order", "deglex-sum", "--labeling", AXIS_TEXT,
                       "--partial", "ab:1,0")
    assert code == 2
    assert "does not refine" in err

    code, out, err = run(capsys, "certify-ppoly", gen24_tensor,
                         "--order", "deglex-sum", "--labeling", AXIS_TEXT,
                         "--partial", "ab:1/2,0", "--recurrences")
    assert code == 1
    assert "skipping extraction" in err
    report = json.loads(out)
    assert report["inputs"]["partial"] == "ab:1/2,0"
    assert report["certificates"]["ppoly"]["verdict"] == "fail"
    assert "recurrences" not in report["certificates"]

    code, _, err = run(capsys, "certify-ppoly", gen24_tensor,
                       "--order", "nope")
    assert code == 2
    assert "bad --order" in err


def test_type_ab_parameters_and_region(gen24_tensor, capsys):
    code, out, _ = run(capsys, "type-ab", gen24_tensor, "--labeling", AXIS_TEXT,
                       "--alpha", "1/2", "--beta", "0")
    assert code == 0
    report = json.loads(out)
    assert report["inputs"]["alpha"] == "1/2"
    assert report["certificates"]["type-ab"]["verdict"] == "pass"

    code, out, _ = run(capsys, "type-ab", gen24_tensor, "--labeling", AXIS_TEXT,
                       "--alpha", "0", "--beta", "0")
    assert code == 1
    assert json.loads(out)["certificates"]["type-ab"]["verdict"] == "fail"

    code, out, _ = run(capsys, "type-ab", gen24_tensor, "--labeling", AXIS_TEXT,
                       "--region")
    assert code == 0
    report = json.loads(out)
    assert report["results"] == {
        "alpha": "[1/2, 1)", "beta": "[0, 1)",
        "region": "alpha in [1/2, 1), beta in [0, 1)"}


def test_type_ab_usage_errors(gen24_tensor, cell24_graph, capsys):
    code, _, err = run(capsys, "type-ab", gen24_tensor, "--labeling", AXIS_TEXT,
                       "--alpha", "2", "--beta", "0")
    assert code == 2
    assert "alpha must lie in [0, 1], got 2" in err
    code, _, err = run(capsys, "type-ab", gen24_tensor, "--labeling", AXIS_TEXT,
                       "--region", "--alpha", "1/2")
    assert code == 2
    assert "either --region" in err
    code, _, err = run(capsys, "type-ab", gen24_tensor, "--labeling", AXIS_TEXT)
    assert code == 2
    code, _, err = run(capsys, "type-ab", cell24_graph, "--region")
    assert code == 2
    assert "scheme or tensor" in err


def test_discover(tmp_path, capsys):
    pauli = tmp_path / "pauli.json"
    assert main(["generate", "pauli4", "--out", str(pauli)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "discover", str(pauli), "--m", "1",
                       "--order", "deglex-sum")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["count"] == 1
    assert report["results"]["labelings"] == [
        {"generators": ["A1"], "labeling": "A0=0;A1=1;A2=2"}]

    # both orderings of the two unit classes work in two variables
    code, out, _ = run(capsys, "discover", str(pauli), "--m", "2",
                       "--order", "deglex-sum")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["count"] == 2
    assert report["results"]["labelings"] == [
        {"generators": ["A1", "A2"], "labeling": "A0=0,0;A1=1,0;A2=0,1"},
        {"generators": ["A2", "A1"], "labeling": "A0=0,0;A1=0,1;A2=1,0"}]

    code, _, err = run(capsys, "discover", str(pauli), "--m", "0",
                       "--order", "deglex-sum")
    assert code == 2


def test_discover_none_found(tmp_path, capsys):
    table = m_distance_table(cell24(), MonomialOrder.parse("deglex-sum"))
    path = tmp_path / "scheme.json"
    path.write_text(dump_json(scheme_to_dict(distance_matrices(table))))
    code, out, _ = run(capsys, "discover", str(path), "--m", "1",
                       "--order", "deglex-sum")
    assert code == 1
    report = json.loads(out)
    assert report["results"]["count"] == 0
    assert report["results"]["labelings"] == []


def test_quiet_silences_everything(cell24_graph, capsys):
    code, out, err = run(capsys, "certify-mdrg", cell24_graph,
                         "--order", "deglex-sum", "--quiet")
    assert code == 0
    assert out == "" and err == ""
    code, out, err = run(capsys, "certify-ppoly", cell24_graph,
                         "--order", "lex", "--quiet")
    assert code == 1
    assert out == "" and err == ""
    # a failing window: extraction is skipped without a note
    code, out, err = run(capsys, "certify-ppoly", cell24_graph,
                         "--order", "deglex-sum", "--partial", "ab:1/2,0",
                         "--recurrences", "--quiet")
    assert code == 1
    assert out == "" and err == ""


# -- Honest exit codes: input errors exit 2, property failures exit 1 --------------

def _c6_document():
    return tensor_to_dict(
        mdrg_check(cycle(6), MonomialOrder.parse("deglex-sum")).tensor)


def _write(tmp_path, name, document):
    path = tmp_path / name
    path.write_text(dump_json(document))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["verify-scheme"],
    ["certify-ppoly", "--order", "deglex-sum", "--boundary", "--recurrences"],
    ["type-ab", "--region"]])
def test_tensor_entry_must_name_declared_labels(tmp_path, capsys, argv):
    document = _c6_document()
    document["p"].append(["1", "1", "9", "5"])
    path = _write(tmp_path, "c6-extra.json", document)
    code, out, err = run(capsys, argv[0], path, *argv[1:])
    assert code == 2
    assert out == ""
    assert "error: p entry ['1', '1', '9'] names a label not among labels" in err


def test_identity_not_among_labels_names_its_text(tmp_path, capsys):
    path = _write(tmp_path, "bad-identity.json",
                  {"labels": ["0", "1"], "identity": "5", "p": [["0", "0", "0", "1"]]})
    code, out, err = run(capsys, "verify-scheme", path)
    assert (code, out) == (2, "")
    assert err == "error: identity label 5 not among labels\n"


def test_graph_certification_never_builds_the_label_keyed_view(tmp_path, capsys,
                                                               monkeypatch):
    """On a graph, every check of certify-ppoly reads the tensor's arrays
    and generator rows: the label-keyed ``p`` is never built."""
    graph = _write(tmp_path, "torus.json",
                   graph_to_dict(cartesian_product([cycle(5), cycle(4)])))
    argv = ["certify-ppoly", graph, "--order", "deglex-sum", "--boundary",
            "--recurrences", "--polys", str(tmp_path / "polys.json")]
    code, expected, _ = run(capsys, *argv)
    assert code == 0

    def refuse(self):
        raise AssertionError("the label-keyed p was built")
    monkeypatch.setattr(mdrg.schemes.IntersectionTensor, "p", property(refuse))
    assert run(capsys, *argv)[:2] == (0, expected)
    tensor = mdrg_check(cartesian_product([cycle(5), cycle(4)]),
                        MonomialOrder.parse("deglex-sum")).tensor
    with pytest.raises(AssertionError, match="label-keyed"):
        tensor_to_dict(tensor)


def test_far_label_pair_check_is_cheap(tmp_path, capsys):
    """One label "200,0" makes the covering box [0, 201]^2: 40 804 points,
    whose table of all pairs would take 3.1 GiB.  The pair check reads
    their 403^2 differences instead, and the verdict is the document's."""
    tensor = mdrg_check(cartesian_product([complete(2), complete(2)]),
                        MonomialOrder.parse("deglex-sum")).tensor
    far = tensor.relabel({lab: mi((200, 0)) if lab == (1, 1) else lab
                          for lab in tensor.labels})
    path = _write(tmp_path, "far.json", tensor_to_dict(far))
    start = time.perf_counter()
    code, out, err = run(capsys, "certify-ppoly", path, "--order", "deglex-sum",
                         "--partial", "componentwise")
    assert time.perf_counter() - start < 1
    assert code == 1
    checks = json.loads(out)["certificates"]["ppoly"]["checks"]
    assert [c["witness"] for c in checks if c["name"] == "box-closure"] == [
        {"element": "200,0", "missing": "2,0"}]


@pytest.mark.parametrize("argv, name, missing", [
    (["type-ab", "--alpha", "1/2", "--beta", "1/3"], "downset-closure", "0,2"),
    (["certify-ppoly", "--order", "deglex-sum", "--partial", "ab:1/2,1/3"],
     "box-closure", "2,0")])
def test_far_label_ab_checks_stop_at_the_first_gap(tmp_path, capsys, argv,
                                                   name, missing):
    """The Klein-group tensor with its class 1,1 relabelled 2000,0.  The
    pair check scans B = 2001 differences per shape, where a table of all
    (2B+1)^2 would take over a GB, and each domain check stops at the
    first index missing below 2000,0 in row-major order."""
    tensor = mdrg_check(cartesian_product([complete(2), complete(2)]),
                        MonomialOrder.parse("deglex-sum")).tensor
    far = tensor.relabel({lab: mi((2000, 0)) if lab == (1, 1) else lab
                          for lab in tensor.labels})
    path = _write(tmp_path, "far.json", tensor_to_dict(far))
    start = time.perf_counter()
    code, out, err = run(capsys, argv[0], path, *argv[1:])
    assert time.perf_counter() - start < 1
    assert code == 1
    checks = [c for cert in json.loads(out)["certificates"].values()
              for c in cert["checks"]]
    assert [c["witness"] for c in checks if c["name"] == name] == [
        {"element": "2000,0", "missing": missing}]


def test_boundary_is_skipped_when_certification_fails(tmp_path, capsys):
    """The Klein-group tensor with 1,1 relabelled 2000,0 is not box-closed.
    Building the monomial A^(2000,0) for the boundary check would recurse
    once per unit of the label; --boundary waits for a passing ppoly."""
    tensor = mdrg_check(cartesian_product([complete(2), complete(2)]),
                        MonomialOrder.parse("deglex-sum")).tensor
    far = tensor.relabel({lab: mi((2000, 0)) if lab == (1, 1) else lab
                          for lab in tensor.labels})
    path = _write(tmp_path, "far.json", tensor_to_dict(far))
    start = time.perf_counter()
    code, out, err = run(capsys, "certify-ppoly", path, "--order",
                         "wdeglex:1,3000", "--boundary")
    assert time.perf_counter() - start < 1
    assert code == 1
    assert "Traceback" not in err
    assert "skipping boundary: certification failed" in err
    report = json.loads(out)
    assert sorted(report["certificates"]) == ["ppoly"]
    assert report["certificates"]["ppoly"]["verdict"] == "fail"


@pytest.mark.parametrize("m", [12, 70])
def test_long_label_pair_check_is_cheap(tmp_path, capsys, m):
    """The Z_2 tensor on the labels o and e_1 of length m.  A table of the
    3^m differences would ask for 21.8 GiB at m = 12 and pass numpy's 64
    dimensions at m = 70; componentwise refines every built-in order by
    proof, so the verdict is the document's: e_2 is not a class."""
    o, g = ",".join("0" * m), ",".join("1" + "0" * (m - 1))
    path = _write(tmp_path, "z2.json", {
        "labels": [o, g], "identity": o,
        "p": [[o, o, o, 1], [o, g, g, 1], [g, o, g, 1], [g, g, o, 1]]})
    start = time.perf_counter()
    code, out, err = run(capsys, "certify-ppoly", path, "--order", "deglex-sum",
                         "--partial", "componentwise")
    assert time.perf_counter() - start < 1
    assert code == 1
    assert "Traceback" not in err
    ppoly = json.loads(out)["certificates"]["ppoly"]
    assert [c["name"] for c in ppoly["checks"] if not c["passed"]] == [
        "generators-realized"]


@pytest.mark.parametrize("command", ["distances", "certify-mdrg", "certify-ppoly"])
def test_disconnected_graph_is_usage_error(tmp_path, capsys, command):
    path = _write(tmp_path, "cut.json", {"m": 1, "vertices": ["a", "b", "c"],
                                         "edges": [["a", "b", 1]]})
    code, out, err = run(capsys, command, path, "--order", "deglex-sum")
    assert code == 2
    assert out == ""
    assert err == "error: vertex 'c' is unreachable from 'a'\n"


@pytest.mark.parametrize("command", ["distances", "certify-mdrg"])
def test_bool_in_graph_document_is_usage_error(tmp_path, capsys, command):
    # JSON true is a Python bool, which isinstance counts as the int 1
    for m, color, message in ((True, 1, "m must be an integer"),
                              (1, True, "edge color must be an integer, got True")):
        path = _write(tmp_path, "triangle.json", {
            "m": m, "vertices": ["a", "b", "c"],
            "edges": [["a", "b", color], ["b", "c", color], ["c", "a", color]]})
        code, out, err = run(capsys, command, path, "--order", "lex")
        assert code == 2
        assert out == ""
        assert err == "error: %s\n" % message


def test_unwritable_output_is_usage_error(tmp_path, capsys, gen24_tensor):
    target = tmp_path / "missing" / "x.json"
    for argv in (["generate", "cycle:6", "--out", str(target)],
                 ["certify-ppoly", gen24_tensor, "--order", "deglex-sum",
                  "--labeling", AXIS_TEXT, "--polys", str(target)]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: cannot write %s: No such file or directory\n" % target
    assert not target.parent.exists()


@pytest.mark.parametrize("argv", [
    ["certify-ppoly", "--order", "deglex-sum"], ["type-ab", "--region"]])
def test_labels_of_mixed_length_are_usage_error(tmp_path, capsys, argv):
    document = _c6_document()
    relabel = {"0": "0,0", "1": "1,0", "2": "0,1", "3": "3"}
    document["labels"] = [relabel[lab] for lab in document["labels"]]
    document["identity"] = "0,0"
    document["p"] = [[relabel[x] for x in row[:3]] + row[3:]
                     for row in document["p"]]
    path = _write(tmp_path, "mixed.json", document)
    code, out, err = run(capsys, argv[0], path, *argv[1:])
    assert code == 2
    assert out == ""
    assert "multi-index labels of one length" in err


def test_order_and_partial_arity_on_tensors(tmp_path, gen24_tensor, capsys):
    c6 = _write(tmp_path, "c6.json", _c6_document())
    for argv, message in (
            ([c6, "--order", "deglex-y2"],
             "bad --order: deglex-y2 is defined for m=2, got m=1"),
            ([gen24_tensor, "--labeling", AXIS_TEXT, "--order", "wdeglex:1,2,3"],
             "bad --order: wdeglex weights have length 3, index has m=2"),
            ([c6, "--order", "lex", "--partial", "ab:1,0"],
             "bad --partial: ab order is defined for m=2, got m=1")):
        code, out, err = run(capsys, "certify-ppoly", *argv, "--boundary")
        assert code == 2
        assert out == ""
        assert "error: " + message in err
    for mode in (["--region"], ["--alpha", "1/2", "--beta", "0"]):
        code, out, err = run(capsys, "type-ab", c6, *mode)
        assert code == 2
        assert "error: type-(alpha,beta) needs m=2, got m=1" in err


def test_discover_validates_m_and_reports_non_schemes(tmp_path, capsys):
    pauli = tmp_path / "pauli.json"
    assert main(["generate", "pauli4", "--out", str(pauli)]) == 0
    capsys.readouterr()
    for m, order, message in (("3", "deglex-sum", "--m must lie in 1..2"),
                              ("1", "deglex-y2", "bad --order: deglex-y2")):
        code, out, err = run(capsys, "discover", str(pauli), "--m", m,
                             "--order", order)
        assert code == 2
        assert out == ""
        assert message in err
    # a path on three vertices: its distance classes are not closed
    path = _write(tmp_path, "p3.json", {
        "labels": ["A0", "A1", "A2"],
        "matrices": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                     [[0, 1, 0], [1, 0, 1], [0, 1, 0]],
                     [[0, 0, 1], [0, 0, 0], [1, 0, 0]]]})
    code, out, _ = run(capsys, "discover", path, "--m", "1",
                       "--order", "deglex-sum")
    assert code == 1
    report = json.loads(out)
    assert sorted(report["certificates"]) == ["axioms"]
    assert report["certificates"]["axioms"]["verdict"] == "fail"
    assert "results" not in report


def test_non_commuting_generators_fail_associativity(tmp_path, capsys):
    # the C4 x C3 tensor with p_{a,b}^{1,0} moved around a 4-cycle of
    # (a, b) pairs: still commutative, with valid identity rule and row
    # sums, but (A_{0,1} A_{0,1}) A_{1,0} != A_{0,1} (A_{0,1} A_{1,0}) at
    # class (1,0), so A_{1,0} and A_{0,1} no longer commute either
    tensor = mdrg_check(cartesian_product([cycle(4), cycle(3)]),
                        MonomialOrder.parse("deglex-sum")).tensor
    moved = four_cycle_move(tensor, mi((1, 0)), mi((1, 1)), mi((1, 0)),
                            mi((0, 1)), mi((2, 0)))
    path = _write(tmp_path, "noncommuting.json", tensor_to_dict(moved))
    # verify-scheme does not run the associativity check yet (ROADMAP)
    assert run(capsys, "verify-scheme", path)[0] == 0
    for argv in (["certify-ppoly", "--order", "deglex-sum"],
                 ["certify-ppoly", "--order", "deglex-sum", "--boundary"],
                 ["certify-ppoly", "--order", "deglex-sum", "--recurrences"],
                 ["type-ab", "--region"], ["type-ab", "--alpha", "1/2", "--beta", "0"]):
        code, out, _ = run(capsys, argv[0], path, *argv[1:])
        assert code == 1
        report = json.loads(out)
        assert list(report["certificates"]) == ["numbers"]
        checks = report["certificates"]["numbers"]["checks"]
        assert [check["name"] for check in checks if check["passed"]] == [
            "nonnegative", "identity-rule", "commutativity", "row-sums"]
        assert checks[-1] == {
            "name": "associativity", "passed": False,
            "witness": {"generator": "0,1", "a": "0,1", "b": "1,0", "c": "1,0",
                        "lhs": "3", "rhs": "2"}}
        assert "results" not in report


def test_extraction_error_is_an_internal_fault(tmp_path, capsys, monkeypatch):
    """ExtractionError after a passing ppoly certificate is a bug: exit 3,
    one stderr line, nothing on stdout."""
    path = _write(tmp_path, "c6.json", _c6_document())
    argv = ["certify-ppoly", path, "--order", "deglex-sum", "--recurrences"]
    assert run(capsys, *argv)[0] == 0
    exc = mdrg.ppoly.ExtractionError("p_{1,2}^3 is zero; certify the scheme first")
    monkeypatch.setattr(mdrg.cli, "extract_polynomials", _raise(exc))
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == "internal error: %r\n" % exc


@pytest.mark.parametrize("relabel, failing", [
    ({"0": "0,0", "1": "1,0", "2": "2,0", "3": "3,0"}, "generators-realized"),
    ({"0": "1", "1": "0", "2": "2", "3": "3"}, "identity-at-origin")])
def test_boundary_without_monomial_basis_is_skipped(tmp_path, capsys,
                                                    relabel, failing):
    document = _c6_document()
    document["labels"] = [relabel[lab] for lab in document["labels"]]
    document["identity"] = relabel[document["identity"]]
    document["p"] = [[relabel[x] for x in row[:3]] + row[3:]
                     for row in document["p"]]
    path = _write(tmp_path, "relabeled.json", document)
    code, out, err = run(capsys, "certify-ppoly", path, "--order", "lex",
                         "--boundary", "--recurrences")
    assert code == 1
    assert "skipping boundary" in err
    report = json.loads(out)
    assert sorted(report["certificates"]) == ["ppoly"]
    checks = {c["name"]: c for c in report["certificates"]["ppoly"]["checks"]}
    assert not checks[failing]["passed"]


# -- --labeling matches classes by their text form ---------------------------------

def test_labeling_applies_to_multi_index_classes(tmp_path, capsys):
    graph = _write(tmp_path, "c6.json", graph_to_dict(cycle(6)))
    code, out, _ = run(capsys, "certify-ppoly", graph, "--order", "deglex-sum",
                       "--labeling", "0=0;1=1;2=2;3=3")
    assert code == 0
    report = json.loads(out)
    assert report["inputs"]["labeling"] == "0=0;1=1;2=2;3=3"
    assert report["results"]["domain"] == ["0", "1", "2", "3"]
    # swapping two classes is applied, and fails the window checks
    code, out, _ = run(capsys, "certify-ppoly", graph, "--order", "deglex-sum",
                       "--labeling", "0=0;1=2;2=1;3=3")
    assert code == 1
    assert json.loads(out)["certificates"]["ppoly"]["verdict"] == "fail"
    tensor = _write(tmp_path, "c6-tensor.json", _c6_document())
    code, _, _ = run(capsys, "certify-ppoly", tensor, "--order", "deglex-sum",
                     "--labeling", "0=0;1=1;2=2;3=3")
    assert code == 0


@pytest.mark.parametrize("command", [
    ["certify-ppoly", "--order", "deglex-sum"], ["type-ab", "--region"]])
def test_labeling_names_are_checked_before_axioms(tmp_path, capsys, command):
    # a path on three vertices fails its axioms; the wrong tag comes first
    path = _write(tmp_path, "p3.json", {
        "labels": ["A0", "A1", "A2"],
        "matrices": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                     [[0, 1, 0], [1, 0, 1], [0, 1, 0]],
                     [[0, 0, 1], [0, 0, 0], [1, 0, 0]]]})
    code, out, err = run(capsys, command[0], path, *command[1:],
                         "--labeling", "A0=0,0;A1=1,0;A9=0,1")
    assert code == 2
    assert out == ""
    assert ("bad --labeling: labeling names ['A0', 'A1', 'A9'] but the tensor "
            "has classes ['A0', 'A1', 'A2']") in err
    code, out, _ = run(capsys, command[0], path, *command[1:],
                       "--labeling", "A0=0,0;A1=1,0;A2=0,1")
    assert code == 1
    assert json.loads(out)["certificates"]["axioms"]["verdict"] == "fail"


# -- symmetrize:k needs a base whose classes partition the pairs -------------------

@pytest.mark.parametrize("second", [
    [[0, 1, 0], [1, 0, 0], [0, 0, 0]],  # (x, z) lies in no class
    [[1, 1, 1]] * 3])                    # the diagonal lies in both classes
def test_symmetrize_rejects_a_base_that_does_not_partition(tmp_path, capsys, second):
    base = _write(tmp_path, "base.json", {
        "labels": ["A0", "A1"],
        "matrices": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], second],
        "vertices": ["x", "y", "z"]})
    for k in ("1", "2"):
        code, out, err = run(capsys, "generate", "symmetrize:" + k, "--scheme", base)
        assert code == 2
        assert out == ""
        assert ("error: family 'symmetrize:%s': base classes must partition "
                "the vertex pairs\n" % k) in err


def test_symmetrize_states_its_size_before_it_allocates(tmp_path, capsys,
                                                        monkeypatch):
    """symmetrize:3 of the 4-point Pauli scheme has 4^6 = 4096 index
    entries; under a bound of 4095 it is refused before numpy is asked for
    anything, as symmetrize:14 (4^28 entries, 32 GiB) is under the real one."""
    base = _write(tmp_path, "pauli4.json", scheme_to_dict(pauli_scheme4()))
    monkeypatch.setattr(mdrg.families, "SYMMETRIZE_MAX_ENTRIES", 4095)
    code, out, err = run(capsys, "generate", "symmetrize:3", "--scheme", base)
    assert (code, out) == (2, "")
    assert ("error: family 'symmetrize:3': 4^6 index entries, more than 4095\n"
            in err)
    monkeypatch.setattr(mdrg.families, "SYMMETRIZE_MAX_ENTRIES", 4096)
    assert run(capsys, "generate", "symmetrize:3", "--scheme", base)[0] == 0


def test_symmetrize_refuses_a_base_with_only_the_identity(tmp_path, capsys):
    """A one-point base has m = 0 classes besides the identity, so its
    q^(2k) = 1 index entries bound no k: symmetrize:100000 once ran 10^5
    rounds and named a vertex with 100 000 characters."""
    base = _write(tmp_path, "one.json", {"labels": ["o"], "matrices": [[[1]]],
                                         "vertices": ["x"]})
    for k in ("1", "100000"):
        code, out, err = run(capsys, "generate", "symmetrize:" + k, "--scheme", base)
        assert (code, out) == (2, "")
        assert ("error: family 'symmetrize:%s': base scheme has no class "
                "besides the identity\n" % k) in err


@pytest.mark.parametrize("kind, argv, message", [
    ("scheme", ["distances", "{}", "--order", "lex"], "{} is not a graph file"),
    ("tensor", ["certify-mdrg", "{}", "--order", "lex"], "{} is not a graph file"),
    ("scheme", ["generate", "cartesian:{g},{}"], "{} is not a graph file"),
    ("graph", ["generate", "symmetrize:2", "--scheme", "{}"],
     "{} is not a scheme file"),
    ("graph", ["verify-scheme", "{}"], "{} is a graph file; verify-scheme takes "
     "class matrices or an intersection tensor"),
    ("graph", ["type-ab", "{}", "--region"], "type-ab takes a scheme or tensor file"),
    ("tensor", ["discover", "{}", "--m", "1", "--order", "lex"],
     "discover takes a scheme file with class matrices")])
def test_document_of_the_wrong_kind_is_a_usage_error(tmp_path, capsys, kind, argv,
                                                     message):
    """Each command names the document kinds it takes; any other is exit 2
    with nothing on stdout."""
    documents = {"graph": graph_to_dict(cycle(6)),
                 "scheme": scheme_to_dict(pauli_scheme4()),
                 "tensor": _c6_document()}
    graph = _write(tmp_path, "g.json", documents["graph"])
    path = _write(tmp_path, "{%s}.json" % kind, documents[kind])
    code, out, err = run(capsys, *(a.replace("{g}", graph).replace("{}", path)
                                   for a in argv))
    assert (code, out) == (2, "")
    assert err == "error: %s\n" % message.replace("{}", path)


@pytest.mark.parametrize("argv, names", [
    (["certify-ppoly", "--order", "deglex-sum", "--labeling",
      "A0=0,0;A1=1,0;A2=0,1;A3=1,1;A4=2,0"],
     ["products-within-window", "successor-nonzero"]),
    (["type-ab", "--alpha", "1/2", "--beta", "0", "--labeling",
      "A0=0,0;A1=1,0;A2=0,1;A3=1,1;A4=2,0"],
     ["unit-step-nonzero", "products-within-window"]),
    (["certify-ppoly", "--order", "lex", "--labeling",
      "A0=0,0;A1=1,0;A2=1,1;A3=2,0;A4=0,2"],
     ["generators-realized", "products-within-window", "successor-nonzero"])])
def test_step_failures_reprove_from_the_report(gen24_tensor, capsys, argv, names):
    """``run`` re-proves the failing step checks of every exit-1 report;
    these three hold each kind the CLI prints, and each re-prover must
    reject a witness moved off its failure."""
    code, out, _ = run(capsys, argv[0], gen24_tensor, *argv[1:])
    report = json.loads(out)
    assert code == 1 and reprove_report(report) == names
    for certificate in report["certificates"].values():
        for check in certificate["checks"]:
            if check["name"] in names:
                check["witness"]["a"] = "3,3"  # no class: every re-prover says so
    with pytest.raises(AssertionError):
        reprove_report(report)

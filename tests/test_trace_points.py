"""The benchmark's tracer wraps mdrg functions at the module attributes
listed in ``perfbench/tracing.py`` (``POINTS``).  Every listed attribute
must exist, or ``--trace 1`` stops with AttributeError, and a traced
command must print the same bytes as an untraced one.
"""

import importlib
import importlib.util
import json
import math
import pathlib

import pytest

from mdrg import cartesian_product, cycle
from mdrg.cli import main
from mdrg.serialize import dump_json, graph_to_dict

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
AXIS_TEXT = "A0=0,0;A1=0,2;A2=1,0;A3=0,1;A4=2,0"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_point_resolves():
    for owner_path, attr, _, _ in _tracing().POINTS:
        module_path, _, class_name = owner_path.partition(":")
        owner = importlib.import_module(module_path)
        if class_name:
            owner = getattr(owner, class_name)
        assert callable(getattr(owner, attr, None)), (owner_path, attr)


def _traced(argv, capsys):
    """Run ``argv`` plain and traced; both must exit 0 with the same
    stdout.  Returns the traced run's layer metrics and the report."""
    capsys.readouterr()
    assert main(argv) == 0
    plain = capsys.readouterr().out
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        assert main(argv) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out == plain
    return tracer.layer_metrics(), json.loads(plain)


def test_traced_report_is_byte_identical(tmp_path, capsys):
    tensor = tmp_path / "t24.json"
    assert main(["generate", "gen24cell:2,1/2", "--out", str(tensor)]) == 0
    metrics, _ = _traced(["type-ab", str(tensor), "--labeling", AXIS_TEXT,
                          "--region"], capsys)
    assert metrics["ppoly.type_ab.calls"] == 1


@pytest.mark.parametrize("m", [1, 2])
def test_traced_discover_counts_tuples(tmp_path, capsys, m):
    pauli = tmp_path / "pauli.json"
    assert main(["generate", "pauli4", "--out", str(pauli)]) == 0
    metrics, _ = _traced(["discover", str(pauli), "--m", str(m),
                          "--order", "deglex-sum"], capsys)
    # the tracer counts the tuples from the scheme's three class matrices
    assert metrics["ppoly.discover.tuples"] == math.perm(3 - 1, m)
    assert metrics["ppoly.discover.found"] == m
    assert metrics["ppoly.discover_labelings.calls"] == 1


@pytest.mark.parametrize("argv", [
    ["--order", "deglex-sum"],
    ["--order", "deglex-y2", "--partial", "ab:1/2,0"],
    ["--order", "deglex-sum", "--labeling", AXIS_TEXT]])
def test_traced_boundary_cases_match_the_report(tmp_path, capsys, argv):
    """The benchmark counts boundary cases from the labels
    (``_boundary_cases``: a + e_i not a class); the count must equal the
    ``boundary-span`` detail, which the step table gives."""
    if "--labeling" in argv:
        path = tmp_path / "t24.json"
        assert main(["generate", "gen24cell:2,1/2", "--out", str(path)]) == 0
    else:
        path = tmp_path / "c5x4.json"
        path.write_text(dump_json(graph_to_dict(cartesian_product([cycle(5), cycle(4)]))))
    metrics, report = _traced(["certify-ppoly", str(path), "--boundary",
                               "--recurrences", *argv], capsys)
    detail = report["certificates"]["boundary"]["checks"][0]["detail"]
    assert detail == "%d boundary cases" % metrics["ppoly.boundary_cases"]
    assert metrics["ppoly.boundary_check.calls"] == 1
    assert report["certificates"]["recurrences"]["verdict"] == "pass"

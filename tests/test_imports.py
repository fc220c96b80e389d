"""Every import in the package is used, and so is every public name.

A name imported by a module of ``src/mdrg`` must be referenced in that
module, be listed in its ``__all__``, or sit on an import line marked
``# noqa: F401`` (kept as a module attribute for outside callers, such as
the benchmark's tracer, which wraps functions where the caller looks them
up).  A name in ``mdrg.__all__`` must be referenced by the package
outside its own definition and ``__init__.py``, or by the benchmark in
``perfbench/``: code that only the tests call belongs in
``tests/helpers.py``.  So must every public method or property of a
class of the package: some attribute read in the package, other than
inside the method itself or an option read off the argparse namespace
``args``, or in the benchmark must name it.  Checked
with the standard ``ast`` module, so no linter is needed.  And the
package stays within its line budget and names no floating dtype.
"""

import ast
import re
from pathlib import Path

import pytest

import mdrg

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mdrg"
BENCHMARK = ROOT / "perfbench"
# the most lines src/mdrg/*.py may hold together (ROADMAP, Quality of design)
LINE_BUDGET = 3069


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        span = lines[node.lineno - 1:node.end_lineno]
        if any("# noqa: F401" in line for line in span):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported: set[str] = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            exported.update(ast.literal_eval(node.value))
    return sorted("%s:%d %s" % (path.name, line, name)
                  for name, line in imported.items()
                  if name not in used and name not in exported)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path) == []


def _reads_args(node: ast.Attribute) -> bool:
    """Whether ``node`` reads an option off the argparse namespace
    ``args`` (``args.scheme`` names a flag, not a method)."""
    return isinstance(node.value, ast.Name) and node.value.id == "args"


def _references(tree: ast.AST, strings: bool = False,
                names: bool = True) -> set[str]:
    """Names read in ``tree``, as a bare name or an attribute other than
    an option of ``args``, outside the body of the function or class
    that defines them; with ``strings``, also every string constant (the
    benchmark's tracer names the functions it wraps); without ``names``,
    attributes only."""
    found: set[str] = set()

    def visit(node: ast.AST, inside: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if names and isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute) and not _reads_args(node):
            name = node.attr
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            name = None
        if name is not None and name not in inside:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def test_every_public_name_is_used_outside_the_tests():
    used: set[str] = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used |= _references(ast.parse(path.read_text()))
    for path in BENCHMARK.glob("*.py"):
        used |= _references(ast.parse(path.read_text()), strings=True)
    assert sorted(set(mdrg.__all__) - used) == []


def test_every_public_method_is_used_outside_the_tests():
    """A method is read as ``obj.name``, so a bare name (``sorted``, the
    builtin) does not count; the benchmark's strings do (its tracer wraps
    ``IntersectionTensor.validate`` by name)."""
    used: set[str] = set()
    methods: list[str] = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        used |= _references(tree, names=False)
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                methods += ["%s:%s.%s" % (path.name, cls.name, node.name)
                            for node in cls.body
                            if isinstance(node, (ast.FunctionDef,
                                                 ast.AsyncFunctionDef))
                            and not node.name.startswith("_")]
    for path in BENCHMARK.glob("*.py"):
        used |= _references(ast.parse(path.read_text()), strings=True,
                            names=False)
    assert [name for name in methods
            if name.rpartition(".")[2] not in used] == []


def test_src_within_line_budget():
    lines = sum(len(path.read_text().splitlines())
                for path in PACKAGE.glob("*.py"))
    assert lines <= LINE_BUDGET


# float16 ... float128, np.float_, np.floating, dtype=float (ROADMAP north
# star: integers and Fraction are the number types)
FLOAT_DTYPE = re.compile(r"float(16|32|64|128)|np\.float|dtype\s*=\s*float\b")


def test_src_names_no_floating_dtype():
    hits = ["%s:%d %s" % (path.relative_to(ROOT), number, line.strip())
            for path in sorted((ROOT / "src").rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if FLOAT_DTYPE.search(line)]
    assert hits == []

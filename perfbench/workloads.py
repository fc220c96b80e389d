"""Workload inputs and command lists for the mdrg benchmark.

Every input document is built with ``mdrg.families`` and
``mdrg.serialize``.  The seed permutes and renames the vertices of every
graph and scheme document (tensors have no vertices and are written as
generated) and shuffles the command order of ``small-batch``; the
program sees only the written files.  ``Inputs`` keeps what is needed to
map a seeded output back to the seed-independent form that the
references in ``references.json`` describe.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from mdrg import (MonomialOrder, SchemeClasses, cartesian_product, cell24,
                  complete, cycle, gen24cell, hamming_graph, mdrg_check,
                  pauli_scheme4, symmetrize)
from mdrg.graphs import ColoredGraph
from mdrg.serialize import dump_json, scheme_to_dict, tensor_to_dict

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = ("distance-heavy", "many-classes", "scheme-input", "small-batch")

# The two label maps of the 24-cell family (the same strings as the test
# helpers): diagonal sends the valency-8 class A1 to (1,1), axis to (0,2).
DIAGONAL = "A0=0,0;A1=1,1;A2=1,0;A3=0,1;A4=2,0"
AXIS = "A0=0,0;A1=0,2;A2=1,0;A3=0,1;A4=2,0"
GEN24CELL_GRID = [(ell, s) for ell in ("2", "3", "4")
                  for s in ("1/2", "3/4", "1")]
SYMMETRIZE_K = 4


@dataclass(frozen=True)
class Command:
    """One CLI invocation.

    ``argv`` tokens of the form ``@name`` stand for the path of document
    ``name`` in the work directory.  ``out`` names a document the command
    writes; the check reads it back.  ``expect`` is a hand-written
    reference that takes the place of the generated one in
    ``references.json``; ``known_defect`` says why such a command is
    expected to disagree with the program at present.
    """

    id: str
    argv: tuple[str, ...]
    out: Optional[str] = None
    expect: Optional[dict] = None
    known_defect: Optional[str] = None


@dataclass
class GraphMap:
    """How a seeded graph document maps back to the generated graph."""

    original: dict[str, str]     # seeded name -> generated name
    position: dict[str, int]     # generated name -> generated index


@dataclass
class Inputs:
    """Paths of the written documents and their seeded vertex maps."""

    workdir: str
    graphs: dict[str, GraphMap] = field(default_factory=dict)
    base_orders: dict[str, list[int]] = field(default_factory=dict)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name + ".json")

    def argv(self, command: Command) -> list[str]:
        return [self.path(tok[1:]) if tok.startswith("@") else tok
                for tok in command.argv]

    def write(self, name: str, document: dict) -> None:
        with open(self.path(name), "w", encoding="ascii") as handle:
            handle.write(dump_json(document))

    def write_graph(self, name: str, g: ColoredGraph,
                    rng: random.Random) -> None:
        """Write g with its vertices shuffled and renamed."""
        n = g.n
        renamed = ["v%d" % i for i in rng.sample(range(n), n)]
        new_name = dict(zip(g.vertices, renamed))
        edges = []
        for u, v, color in g.edge_names():
            if rng.random() < 0.5:
                u, v = v, u
            edges.append([new_name[u], new_name[v], color])
        rng.shuffle(edges)
        vertices = [new_name[g.vertices[i]] for i in rng.sample(range(n), n)]
        self.write(name, {"m": g.m, "vertices": vertices, "edges": edges})
        self.graphs[name] = GraphMap(
            original={new: old for old, new in new_name.items()},
            position={old: i for i, old in enumerate(g.vertices)})

    def write_scheme(self, name: str, s: SchemeClasses,
                     rng: random.Random) -> None:
        """Write s with its vertices shuffled and renamed.

        Seeded position j holds generated vertex ``order[j]``.
        """
        n = s.n
        order = rng.sample(range(n), n)
        renamed = ["v%d" % i for i in rng.sample(range(n), n)]
        idx = np.array(order)
        permuted = SchemeClasses(
            labels=s.labels,
            matrices=[mat[np.ix_(idx, idx)] for mat in s.matrices],
            vertices=[renamed[i] for i in order])
        self.write(name, scheme_to_dict(permuted))
        self.base_orders[name] = order


def _corrupted_cycle6() -> dict:
    """The cycle:6 tensor with p[1,2]^1 changed from 1 to 7."""
    tensor = mdrg_check(cycle(6), MonomialOrder.parse("deglex-sum")).tensor
    document = tensor_to_dict(tensor)
    for row in document["p"]:
        if row[:3] == ["1", "2", "1"]:
            row[3] = "7"
    return document


def _recolored_cell24() -> ColoredGraph:
    """cell24 with its first edge switched to the other color."""
    g = cell24()
    edges = g.edge_names()
    u, v, color = edges[0]
    edges[0] = (u, v, 3 - color)
    return ColoredGraph(g.m, g.vertices, edges)


def _gen24cell_name(ell: str, s: str) -> str:
    return "gen24cell_%s_%s" % (ell, s.replace("/", "-"))


def build_inputs(workload: str, seed: int, workdir: str) -> Inputs:
    """Write every document the workload's commands read."""
    rng = random.Random("%s/%d" % (workload, seed))
    inputs = Inputs(workdir)
    if workload == "distance-heavy":
        inputs.write_graph("h44", hamming_graph(4, 4), rng)
        inputs.write_graph("c16xc16",
                           cartesian_product([cycle(16), cycle(16)]), rng)
    elif workload == "many-classes":
        inputs.write_graph("c14xc9",
                           cartesian_product([cycle(14), cycle(9)]), rng)
    elif workload == "scheme-input":
        base = pauli_scheme4()
        inputs.write_scheme("pauli4", base, rng)
        inputs.write_scheme("sym4", symmetrize(base, SYMMETRIZE_K), rng)
    elif workload == "small-batch":
        for n in range(5, 21):
            inputs.write_graph("c%d" % n, cycle(n), rng)
        for n in range(3, 9):
            inputs.write_graph("k%d" % n, complete(n), rng)
        inputs.write_graph("cell24", cell24(), rng)
        inputs.write_graph("cell24_recolored", _recolored_cell24(), rng)
        for ell, s in GEN24CELL_GRID:
            inputs.write(_gen24cell_name(ell, s),
                         tensor_to_dict(gen24cell(Fraction(ell), Fraction(s))))
        for k in (2, 3):
            inputs.write_scheme("sym%d" % k, symmetrize(pauli_scheme4(), k),
                                rng)
        inputs.write("c6_corrupted", _corrupted_cycle6())
    else:
        raise ValueError("unknown workload %r" % workload)
    return inputs


def _small_batch() -> list[Command]:
    cmds = []
    for n in range(5, 21):
        cmds.append(Command("c%d-ppoly" % n, (
            "certify-ppoly", "@c%d" % n, "--order", "deglex-sum",
            "--boundary", "--recurrences")))
    for n in range(3, 9):
        cmds.append(Command("k%d-ppoly-lex" % n, (
            "certify-ppoly", "@k%d" % n, "--order", "lex", "--recurrences")))
    for order in ("deglex-sum", "deglex-y2", "lex"):
        cmds.append(Command("cell24-ppoly-" + order, (
            "certify-ppoly", "@cell24", "--order", order)))
    cmds.append(Command("cell24-ppoly-ab10", (
        "certify-ppoly", "@cell24", "--order", "deglex-y2",
        "--partial", "ab:1,0")))
    for ell, s in GEN24CELL_GRID:
        name = _gen24cell_name(ell, s)
        doc = "@" + name
        cmds.append(Command(name + "-verify", ("verify-scheme", doc)))
        cmds.append(Command(name + "-ppoly-axis", (
            "certify-ppoly", doc, "--order", "deglex-sum", "--labeling", AXIS,
            "--boundary", "--recurrences")))
        cmds.append(Command(name + "-ppoly-diagonal", (
            "certify-ppoly", doc, "--order", "deglex-y2",
            "--labeling", DIAGONAL, "--boundary", "--recurrences")))
        for tag, labeling in (("axis", AXIS), ("diagonal", DIAGONAL)):
            cmds.append(Command("%s-region-%s" % (name, tag), (
                "type-ab", doc, "--labeling", labeling, "--region")))
            cmds.append(Command("%s-ab-%s" % (name, tag), (
                "type-ab", doc, "--labeling", labeling,
                "--alpha", "1/2", "--beta", "0")))
    for k in (2, 3):
        cmds.append(Command("sym%d-verify" % k, ("verify-scheme", "@sym%d" % k)))
        for order in ("deglex-sum", "deglex-y2"):
            cmds.append(Command("sym%d-ppoly-%s" % (k, order), (
                "certify-ppoly", "@sym%d" % k, "--order", order,
                "--boundary", "--recurrences")))
    cmds.append(Command("sym2-discover", (
        "discover", "@sym2", "--m", "2", "--order", "deglex-sum")))
    # Expected failures: exit 1 with a witness.
    cmds.append(Command("cell24-recolored-mdrg", (
        "certify-mdrg", "@cell24_recolored", "--order", "deglex-sum")))
    cmds.append(Command("gen24cell-axis-deglex-y2", (
        "certify-ppoly", "@" + _gen24cell_name("2", "1/2"),
        "--order", "deglex-y2", "--labeling", AXIS)))
    cmds.append(Command(
        "c6-corrupted-ppoly",
        ("certify-ppoly", "@c6_corrupted", "--order", "deglex-sum",
         "--recurrences"),
        expect={"exit": 1, "failing": ["numbers.*"]},
        known_defect="certify-ppoly does not validate tensor inputs: the "
                     "cycle:6 tensor with p[1,2]^1=7 fails verify-scheme "
                     "but certify-ppoly exits 0 (ROADMAP open item 2)"))
    return cmds


def commands(workload: str, seed: int) -> list[Command]:
    """The command list of one pass, in the order it runs."""
    if workload == "distance-heavy":
        return [
            Command("h44-distances", ("distances", "@h44", "--order",
                                      "deglex-sum")),
            Command("c16xc16-mdrg", ("certify-mdrg", "@c16xc16", "--order",
                                     "deglex-sum")),
        ]
    if workload == "many-classes":
        common = ("certify-ppoly", "@c14xc9", "--order", "deglex-sum",
                  "--boundary", "--recurrences")
        return [
            Command("c14xc9-ppoly", common + ("--polys", "@polys_total"),
                    out="polys_total"),
            Command("c14xc9-ppoly-componentwise",
                    common + ("--polys", "@polys_partial",
                              "--partial", "componentwise"),
                    out="polys_partial"),
        ]
    if workload == "scheme-input":
        return [
            Command("generate-symmetrize", (
                "generate", "symmetrize:%d" % SYMMETRIZE_K,
                "--scheme", "@pauli4", "--out", "@generated"),
                out="generated"),
            Command("sym4-verify", ("verify-scheme", "@sym4")),
            Command("sym4-ppoly", ("certify-ppoly", "@sym4", "--order",
                                   "deglex-y2", "--boundary",
                                   "--recurrences")),
            Command("sym4-region", ("type-ab", "@sym4", "--region")),
        ]
    if workload == "small-batch":
        cmds = _small_batch()
        random.Random("%s/%d/order" % (workload, seed)).shuffle(cmds)
        return cmds
    raise ValueError("unknown workload %r" % workload)


def symmetrized_canonical(matrices: np.ndarray, base_order: list[int],
                          k: int) -> np.ndarray:
    """Undo a base-vertex permutation on a k-fold symmetrized scheme.

    The seeded base holds generated vertex ``base_order[j]`` at position
    j, so seeded word (j_1..j_k) is generated word
    (base_order[j_1]..base_order[j_k]); vertex names are index words and
    stay put.
    """
    q = len(base_order)
    inverse = [0] * q
    for j, original in enumerate(base_order):
        inverse[original] = j
    select = [sum(inverse[u] * q ** (k - 1 - p) for p, u in enumerate(word))
              for word in itertools.product(range(q), repeat=k)]
    return matrices[:, select][:, :, select]

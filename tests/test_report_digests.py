"""CLI outputs pinned by sha256: exit code, stdout, written files, stderr.

Each case runs one command in a fresh directory holding the input files
below, with relative paths, so reports do not depend on where the test
runs.  A digest covers the exit code, the stdout bytes, the bytes of
every file the command writes (``--out``, ``--polys``) and, when
anything is left of it without the ``elapsed:`` line, stderr.  Any change
to a report, to ``scheme_to_dict`` bytes, to ``generate`` output or to an
error message shows here.
"""

import hashlib
import json
import time
from collections import Counter

import pytest

from mdrg import (ColoredGraph, MonomialOrder, MultiIndex, cartesian_product,
                  cycle, distance_matrices, mdrg_check)
from mdrg import schemes
from mdrg.cli import main
from mdrg.serialize import (dump_json, graph_to_dict, scheme_to_dict,
                            tensor_to_dict)

from helpers import REPROVERS, four_cycle_move, reprove_report

DEGLEX_SUM = MonomialOrder.parse("deglex-sum")


def _distance_scheme(graph) -> str:
    return dump_json(scheme_to_dict(
        distance_matrices(mdrg_check(graph, DEGLEX_SUM).table)))


def _scheme(labels, matrices) -> str:
    return dump_json({"labels": labels, "matrices": matrices})


def _graph(graph) -> str:
    return dump_json(graph_to_dict(graph))


def _k2(**fields) -> str:
    """The scheme of K2 with some fields replaced."""
    return dump_json(dict({"labels": ["A0", "A1"], "vertices": ["u", "v"],
                           "matrices": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]},
                          **fields))


K3_P = [["0", "0", "0", 1], ["0", "1", "1", 1], ["1", "0", "1", 1],
        ["1", "1", "0", 2], ["1", "1", "1", 1]]


def _k3_tensor(**fields) -> str:
    """The intersection numbers of K3 with some fields replaced."""
    return dump_json(dict({"labels": ["0", "1"], "identity": "0", "p": K3_P},
                          **fields))


def _noncommuting() -> str:
    """The C4 x C3 tensor with p_{a,b}^{1,0} moved around a 4-cycle of
    (a, b) pairs: it passes ``validate``, but not ``associativity``."""
    t = mdrg_check(cartesian_product([cycle(4), cycle(3)]), DEGLEX_SUM).tensor
    c, x1, x2, y1, y2 = (MultiIndex(lab) for lab in
                         ((1, 0), (1, 1), (1, 0), (0, 1), (2, 0)))
    return dump_json(tensor_to_dict(four_cycle_move(t, c, x1, x2, y1, y2)))


def _corrupted6x6() -> str:
    """The C6 x C6 tensor with the 4-cycle move at class (0,1) on classes
    that are not generators: every generator row, and so every window,
    boundary and recurrence check, reads the numbers of the scheme."""
    t = mdrg_check(cartesian_product([cycle(6), cycle(6)]), DEGLEX_SUM).tensor
    c, x1, x2, y1, y2 = (MultiIndex(lab) for lab in
                         ((0, 1), (0, 2), (1, 1), (0, 3), (1, 2)))
    return dump_json(tensor_to_dict(four_cycle_move(t, c, x1, x2, y1, y2)))


I3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
ROTATE = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]

INPUTS = {
    "c6.json": lambda: _distance_scheme(cycle(6)),
    "c4x3.json": lambda: _distance_scheme(cartesian_product([cycle(4), cycle(3)])),
    "overlap.json": lambda: _scheme(["A0", "A1"], [I3, [[1, 1, 1]] * 3]),
    "gap.json": lambda: _scheme(["A0", "A1"], [I3, [[0, 1, 0], [1, 0, 0], [0, 0, 0]]]),
    "asym.json": lambda: _scheme(["A0", "A1", "A2"],
                                 [I3, ROTATE, [list(r) for r in zip(*ROTATE)]]),
    "noident.json": lambda: _scheme(["A0", "A1"],
                                    [[[1, 1, 0], [1, 1, 0], [0, 0, 1]],
                                     [[0, 0, 1], [0, 0, 1], [1, 1, 0]]]),
    "path.json": lambda: _scheme(["A0", "A1", "A2"],
                                 [I3, [[0, 1, 0], [1, 0, 1], [0, 1, 0]],
                                  [[0, 0, 1], [0, 0, 0], [1, 0, 0]]]),
    "c6g.json": lambda: _graph(cycle(6)),
    "c4x3g.json": lambda: _graph(cartesian_product([cycle(4), cycle(3)])),
    "pathg.json": lambda: dump_json({"m": 1, "vertices": ["a", "b", "c"],
                                     "edges": [["a", "b", 1], ["b", "c", 1]]}),
    "split.json": lambda: dump_json({"m": 1, "vertices": ["a", "b", "c"],
                                     "edges": [["a", "b", 1]]}),
    # two colors, not m-distance-regular: the pair (a, d) is the witness
    "irreg2g.json": lambda: dump_json({
        "m": 2, "vertices": ["a", "b", "c", "d", "e", "f"],
        "edges": [["a", "b", 1], ["b", "c", 2], ["c", "d", 1], ["d", "e", 2],
                  ["e", "a", 1], ["b", "f", 2], ["f", "d", 1]]}),
    # malformed graph documents: each is an input error (exit 2)
    "textvertices.json": lambda: dump_json({"m": 1, "vertices": "abc",
                                            "edges": [["a", "b", 1], ["b", "c", 1]]}),
    "textedges.json": lambda: dump_json({"m": 1, "vertices": ["a", "b"],
                                         "edges": {"a": "b"}}),
    "nullvertex.json": lambda: dump_json({"m": 1, "vertices": ["a", "b", None],
                                          "edges": [["a", "b", 1], ["b", None, 1]]}),
    "numbervertex.json": lambda: dump_json({"m": 1, "vertices": ["a", "b", 3],
                                            "edges": [["a", "b", 1], ["b", 3, 1]]}),
    "listvertex.json": lambda: dump_json({"m": 1, "vertices": ["a", ["b"]],
                                          "edges": [["a", "b", 1]]}),
    "nullend.json": lambda: dump_json({"m": 1, "vertices": ["a", "b", "None"],
                                       "edges": [["a", "b", 1], ["b", None, 1]]}),
    "numberend.json": lambda: dump_json({"m": 1, "vertices": ["a", "b", "3"],
                                         "edges": [["a", "b", 1], ["b", 3, 1]]}),
    "bigm.json": lambda: dump_json({"m": 2000, "vertices": ["a", "b", "c"],
                                    "edges": [["a", "b", 1], ["b", "c", 1],
                                              ["c", "a", 1]]}),
    # scheme and tensor documents whose names are not lists of strings, and
    # a tensor listing one (a, b, c) twice: each is an input error (exit 2)
    "textvertscheme.json": lambda: _k2(vertices="uv"),
    "nullvertscheme.json": lambda: _k2(vertices=[None, 7]),
    "textlabelscheme.json": lambda: _k2(labels="AB"),
    "numberlabelscheme.json": lambda: _k2(labels=[0, 1]),
    "textlabeltensor.json": lambda: _k3_tensor(labels="01"),
    "nullentrytensor.json": lambda: _k3_tensor(
        labels=["0", "None"], p=[["0", "0", "0", 1], [None, "0", None, 1],
                                 ["0", None, None, 1], [None, None, "0", 2],
                                 [None, None, None, 1]]),
    "duplicatetensor.json": lambda: _k3_tensor(p=K3_P + [["1", "1", "0", "5"]]),
    # p that is not a list, and a value that is not "p" or "p/q" text
    "numberp.json": lambda: _k3_tensor(p=5),
    "nullp.json": lambda: _k3_tensor(p=None),
    "exponenttensor.json": lambda: _k3_tensor(
        p=K3_P[:-1] + [["1", "1", "1", "1e10000000"]]),
    "noncommuting.json": _noncommuting,
    "corrupted6x6.json": _corrupted6x6,
    "c7.json": lambda: dump_json(tensor_to_dict(mdrg_check(cycle(7), DEGLEX_SUM).tensor)),
}

GENERATED = [
    ["generate", "pauli4", "--out", "pauli4.json"],
    ["generate", "symmetrize:2", "--scheme", "pauli4.json", "--out", "sym2.json"],
    ["generate", "symmetrize:3", "--scheme", "pauli4.json", "--out", "sym3.json"],
]

# (file, --labeling for certify-ppoly or None, --labeling for type-ab or None)
SCHEMES = [
    ("pauli4.json", "A0=0;A1=1;A2=2", "A0=0,0;A1=1,0;A2=0,1"),
    ("sym2.json", None, None),
    ("sym3.json", None, None),
    ("c6.json", None, None),
    ("c4x3.json", None, None),
]
# class count of each failing file
FAILING = {"overlap.json": 2, "gap.json": 2, "asym.json": 3, "noident.json": 2,
           "path.json": 3}

# --partial windows and type-ab parameters
WINDOWS = [
    ["certify-ppoly", "c4x3.json", "--order", "deglex-sum", "--partial",
     "componentwise", "--boundary", "--recurrences", "--polys", "p.json"],
    ["certify-ppoly", "c4x3.json", "--order", "deglex-y2", "--partial",
     "ab:1/2,0", "--boundary", "--recurrences"],
    ["certify-ppoly", "c4x3.json", "--order", "deglex-sum", "--partial", "ab:1,0"],
    ["type-ab", "c4x3.json", "--alpha", "1/2", "--beta", "0"],
    ["type-ab", "c4x3.json", "--alpha", "1", "--beta", "0"],
]

# distance tables and m-distance-regularity of graph files; the wdeglex
# weights push the radix codes past int64, so those tables are relaxed in
# exact Python ints
GRAPHS = [
    ["distances", "c6g.json", "--order", "deglex-sum"],
    ["distances", "c4x3g.json", "--order", "deglex-sum"],
    ["distances", "c4x3g.json", "--order", "lex"],
    ["distances", "c4x3g.json", "--order", "wdeglex:1000000000000,1"],
    ["distances", "split.json", "--order", "lex"],
    ["distances", "irreg2g.json", "--order", "lex"],
    ["distances", "irreg2g.json", "--order", "wdeglex:1000000000000,1"],
    ["certify-mdrg", "c6g.json", "--order", "deglex-sum"],
    ["certify-mdrg", "c4x3g.json", "--order", "deglex-sum"],
    ["certify-mdrg", "c4x3g.json", "--order", "lex"],
    ["certify-mdrg", "c4x3g.json", "--order", "wdeglex:1000000000000,1"],
    ["certify-mdrg", "pathg.json", "--order", "lex"],
    ["certify-mdrg", "irreg2g.json", "--order", "lex"],
    ["certify-mdrg", "irreg2g.json", "--order", "wdeglex:1000000000000,1"],
    ["certify-ppoly", "c4x3g.json", "--order", "deglex-sum", "--boundary",
     "--recurrences"],
    # type-ab takes no graph file: an input error (exit 2)
    ["type-ab", "c6g.json", "--region"],
]

# tensors that pass validate but belong to no scheme: numbers fails at
# associativity before any certification
ASSOCIATIVITY = [
    ["certify-ppoly", "noncommuting.json", "--order", "deglex-sum",
     "--boundary", "--recurrences"],
    ["certify-ppoly", "corrupted6x6.json", "--order", "deglex-sum",
     "--boundary", "--recurrences"],
    ["type-ab", "corrupted6x6.json", "--region"],
]

# a scheme under labelings that fail at the step checks: C7 with classes 2
# and 3 swapped (products-within-window and successor-nonzero), and C7 in
# N^2 with class 3 at e_2 and class 2 at 2 e_2, where p_{3,3}^2 = 0
# (unit-step-nonzero)
STEP_FAILURES = [
    ["certify-ppoly", "c7.json", "--order", "deglex-sum", "--labeling", "0=0;1=1;2=3;3=2"],
    ["type-ab", "c7.json", "--labeling", "0=0,0;1=1,0;2=0,2;3=0,1", "--alpha", "1/2",
     "--beta", "0"],
]

# graph documents that are not lists of vertex names and [u, v, color]
# edges, or whose m exceeds max(1, number of edges)
BAD_GRAPHS = [["distances", path, "--order", "lex"] for path in (
    "textvertices.json", "textedges.json", "nullvertex.json",
    "numbervertex.json", "listvertex.json", "nullend.json", "numberend.json")]
BAD_GRAPHS.append(["certify-mdrg", "bigm.json", "--order", "deglex-sum"])
BAD_DOCUMENTS = [["verify-scheme", path] for path in (
    "textvertscheme.json", "nullvertscheme.json", "textlabelscheme.json",
    "numberlabelscheme.json", "textlabeltensor.json", "nullentrytensor.json",
    "duplicatetensor.json", "numberp.json", "nullp.json",
    "exponenttensor.json")]


def _with_labeling(argv, labeling):
    return argv + ["--labeling", labeling] if labeling else argv


def _cases():
    cases = [["generate", "pauli4"],
             ["generate", "symmetrize:2", "--scheme", "pauli4.json"],
             ["generate", "symmetrize:2", "--scheme", "c6.json"],
             ["generate", "symmetrize:2", "--scheme", "asym.json"]]
    cases += GENERATED
    for path, ppoly_labeling, ab_labeling in SCHEMES:
        cases += [
            ["verify-scheme", path],
            _with_labeling(["certify-ppoly", path, "--order", "deglex-sum",
                            "--boundary", "--recurrences", "--polys", "polys.json"],
                           ppoly_labeling),
            _with_labeling(["type-ab", path, "--region"], ab_labeling),
            ["discover", path, "--m", "1", "--order", "deglex-sum"],
            ["discover", path, "--m", "2", "--order", "deglex-sum"],
        ]
    for path, k in FAILING.items():
        cases += [
            ["verify-scheme", path],
            ["certify-ppoly", path, "--order", "deglex-sum", "--labeling",
             ";".join("A%d=%d" % (i, i) for i in range(k))],
            ["discover", path, "--m", "1", "--order", "deglex-sum"],
        ]
    cases += WINDOWS + GRAPHS + ASSOCIATIVITY + STEP_FAILURES + BAD_GRAPHS + BAD_DOCUMENTS
    return cases


CASES = {" ".join(argv): argv for argv in _cases()}

DIGESTS = {
    'certify-mdrg bigm.json --order deglex-sum':
        '57fcff3e7175de6f071a0fefae061c7588fb213f3a8bb38d0344c3254a026d24',
    'certify-mdrg c4x3g.json --order deglex-sum':
        'ed22f9257cb1c8a9648d9744d296367091bcb986cd2b0e7bbf64c4f0a80ed4f5',
    'certify-mdrg c4x3g.json --order lex':
        'acc74709e36d053e02b2ffad69ed0f107176968ac4b8eb285239de8736464c0b',
    'certify-mdrg c4x3g.json --order wdeglex:1000000000000,1':
        '923fdd6f309b416ed34e9a05a79608dc7efb7dede261f8d29adb4b1708ae412c',
    'certify-mdrg c6g.json --order deglex-sum':
        '8418b42aaaf0a208ea8738480af1791f46da0fb2702d76fc05fcc6b4ed32d797',
    'certify-mdrg irreg2g.json --order lex':
        '382139ad12086e02a8689181f9b996db1062b4a19b4123f3abfe959d904d1d86',
    'certify-mdrg irreg2g.json --order wdeglex:1000000000000,1':
        '5049592fa0e1b8ec36d8444158ff00a55506139eb0b2c84c744b3c71c19e25ac',
    'certify-mdrg pathg.json --order lex':
        '9d38ac0201cb123db53c5d6ad977270fbdbd105b582462ecd102126f2396e86d',
    'certify-ppoly asym.json --order deglex-sum --labeling A0=0;A1=1;A2=2':
        '78aae5e2957fa48682dcf58c9017158a1b83278241c4fc273c14c9278d0be466',
    'certify-ppoly c4x3.json --order deglex-sum --boundary --recurrences --polys polys.json':
        'eb12cfa324e5414b67cab7213d287d137899bd66582154d342d84638f1fb725d',
    'certify-ppoly c4x3.json --order deglex-sum --partial ab:1,0':
        'e8e6fd8e7b1299b90879c507343fddec1f9f6d886de3a0b32d2773cae5338af5',
    'certify-ppoly c4x3.json --order deglex-sum --partial componentwise --boundary --recurrences --polys p.json':
        '8cf21cd5d2abdbaeb1c78939a2cc56e39b3ec432d7d3b2bd83b79dbc895be369',
    'certify-ppoly c4x3.json --order deglex-y2 --partial ab:1/2,0 --boundary --recurrences':
        '470dedba5540380cf2c7d61a28d657151a62c3b529191cb0705ad54ab4fd6842',
    'certify-ppoly c4x3g.json --order deglex-sum --boundary --recurrences':
        '1a5715008ec768e7d9bf1ecda2086acea071e383f6215d36418fbcb775a747c4',
    'certify-ppoly c6.json --order deglex-sum --boundary --recurrences --polys polys.json':
        '34f0dd4ff5427cb2d8895843fecf1bb82c30f4ac6ba49e2a36870c503b976bf3',
    'certify-ppoly c7.json --order deglex-sum --labeling 0=0;1=1;2=3;3=2':
        '4f99f85f2902db25e46abf36df2081b1b31c9d2dcd719b4768b00ac17d1e481c',
    'certify-ppoly corrupted6x6.json --order deglex-sum --boundary --recurrences':
        '55076917a34a518ca4803f1cb0b1a1a3ded13c8d8b1ec44f3a3a95f9066ca962',
    'certify-ppoly gap.json --order deglex-sum --labeling A0=0;A1=1':
        '4481877431899b1deef012591f4bdf699b47fdbff465bac200e4ed4eecb0610f',
    'certify-ppoly noident.json --order deglex-sum --labeling A0=0;A1=1':
        '9f1e77db512c852b6ecf0f13f4a0f0fee510e9a92e28cfb32c96cc89ed8eb085',
    'certify-ppoly noncommuting.json --order deglex-sum --boundary --recurrences':
        '9eea70541c7ec59b37e15681343cdf09da1fb7da90b5ddf2a0f1922bb887c64e',
    'certify-ppoly overlap.json --order deglex-sum --labeling A0=0;A1=1':
        'f44308fdd1677d97adcc3d9422bf9313c20a3593da4ffa2135effc8edc4aa528',
    'certify-ppoly path.json --order deglex-sum --labeling A0=0;A1=1;A2=2':
        'd8a7729e84dca60fcf4e0b8a0f92ab7158aad27753669f8dc8113c1fdc9efec7',
    'certify-ppoly pauli4.json --order deglex-sum --boundary --recurrences --polys polys.json --labeling A0=0;A1=1;A2=2':
        '846c8dc36f828d14a4473e3ec833952dc596395afd8ae280b16d4fdc70db5877',
    'certify-ppoly sym2.json --order deglex-sum --boundary --recurrences --polys polys.json':
        '148172b7f8961f91171afae818f10069d4641e54a436de5d9b5b0b1577258a35',
    'certify-ppoly sym3.json --order deglex-sum --boundary --recurrences --polys polys.json':
        '6889e8bdb538e8f4c222f169a21193f709b11c19b1b3b6684c2131110ed0e48b',
    'discover asym.json --m 1 --order deglex-sum':
        'ea88f8b34bfc8cfea521c091c6ee232a4d6a607c07310a5aae002f01430fa637',
    'discover c4x3.json --m 1 --order deglex-sum':
        '87774dbab16ddb184a02fa6d0ad1b25c7a699d05736d43e04579cd8d842e5772',
    'discover c4x3.json --m 2 --order deglex-sum':
        'e44d7f82f9d09d66f2e89a025bdcd1eadbad795d3c4916a12ac8db95a0bb3244',
    'discover c6.json --m 1 --order deglex-sum':
        '5e1e431e2b2700e67e48b9512afbd546b3266c0480e17336137516347e1a931b',
    'discover c6.json --m 2 --order deglex-sum':
        '164718a5e7a4259f3b45021d6a7bf8f721dff7a2a0157b9c289f0d007737d3bb',
    'discover gap.json --m 1 --order deglex-sum':
        '0d3140448a1fc95e135a0abf90b30feca749e5c0a1f118a88e071865f3b5f4b0',
    'discover noident.json --m 1 --order deglex-sum':
        '59229555b8c035c9564f98b41b926bafbeed02943c6631105e13e268954b6ff3',
    'discover overlap.json --m 1 --order deglex-sum':
        '08265abd60a648bdce91a9d6592506da74719e205f557d2ddcc85f2eef90f719',
    'discover path.json --m 1 --order deglex-sum':
        '71bae2d65d9e6bf399dbdefb497de7215f96934a70032882d1b252e7f0e0dec6',
    'discover pauli4.json --m 1 --order deglex-sum':
        '4a73a463399f6cad1b31415c52b3d624cd17fc3d84272bcaa4c3b15948a4524a',
    'discover pauli4.json --m 2 --order deglex-sum':
        '603c149ccfa0a05cbbcf8211d74f86ca104cc33b0e8593c65e72dde3f0998d6a',
    'discover sym2.json --m 1 --order deglex-sum':
        '3cc737f26fce6b67f13bd702ba278edf7e4d0806d5916cfceb9568d58ba8a756',
    'discover sym2.json --m 2 --order deglex-sum':
        'dffd2c45bdb4e183aa497de83ed5c7dd688ef8e2d01b19b4f688a0240d78beca',
    'discover sym3.json --m 1 --order deglex-sum':
        '4fbeaf954685bb4a4591ab200cf616195ccde8d423d292f00ddefbc025e9cf9d',
    'discover sym3.json --m 2 --order deglex-sum':
        '38a7e456d35487e58108ed112b39041532684473df822ea3761d25aa113acb09',
    'distances c4x3g.json --order deglex-sum':
        'c52554218c820726e071df058b1e970c38d93593e3f01a881c62d6a2229bd400',
    'distances c4x3g.json --order lex':
        'b4083b23c54cbf566b8c8b67efcc70da51b02234de9894191c03d9eee8ba2604',
    'distances c4x3g.json --order wdeglex:1000000000000,1':
        'ae827e07ddf7e801ed61f807bfc99730449f27eac2974cf12509ba380c507f0c',
    'distances c6g.json --order deglex-sum':
        '034d3671361bde035048bf69163c27b741d0f8e9f0ffbb6a516adceaea0d75cd',
    'distances irreg2g.json --order lex':
        'ce10dfcfa2241609f94bad8c19c369ace01a2da5f941936113f23cf18d0481d1',
    'distances irreg2g.json --order wdeglex:1000000000000,1':
        '512e284cc37b1e84ac09eb3affa6582aba7e68b499c43573dd12ac16862fef9c',
    'distances listvertex.json --order lex':
        '4625919667cb418f5802a3aa80d2ec34f9d58312e219c539ce3b178274741039',
    'distances nullend.json --order lex':
        '4d959ff18dd42e52d0867b15c25ed2de31e1ca5642c56735d2dce626711417a6',
    'distances nullvertex.json --order lex':
        'fb0ae973e567e14b1192b79299afe046ec848984daaec076be90fee9dba21055',
    'distances numberend.json --order lex':
        '40d2f239902fb94d805dda02bd7491951518a753f8bd0db1c2f5e40d737beee1',
    'distances numbervertex.json --order lex':
        '2476c68d25019946739cbc97e7757560abda0cb8905324da11592980723cb621',
    'distances split.json --order lex':
        '7bbc75a8b6c48862794172dd8606f61c04493ce8692d174cd020e5a7894a0eba',
    'distances textedges.json --order lex':
        '44d9f6d6dbc9be5d31902a45584cd13acf43ef8e549daddebafbb0feee532155',
    'distances textvertices.json --order lex':
        '8a22bbffbe01a8adb888a31c5f35f3699dbec104ba95514a2d08fd8ebe447986',
    'generate pauli4':
        'b9e87203cd06f4748aace55d1f65dc9e890ac650f49810d9bae28608947d26a2',
    'generate pauli4 --out pauli4.json':
        '15b2916292140beaa96dff03b7472eee643eb629616e79cdf093bbb73ddc143e',
    'generate symmetrize:2 --scheme asym.json':
        '3323380252ea643a34620d843a67e6fdd1deb07b609ccd04a958b1c2b4c13f1e',
    'generate symmetrize:2 --scheme c6.json':
        '6eaebf4bb8f13f7c581ebba15bef149fe72d97e5441edd686e24cb15312984a1',
    'generate symmetrize:2 --scheme pauli4.json':
        '412201e0a06e49a1c77ff83f156f9d18e238aeea7b94ddccd83c32b6147a7945',
    'generate symmetrize:2 --scheme pauli4.json --out sym2.json':
        'a39a79000cd4d8c820ea3234b29726a5e5b98facc0ca9f6404e3a37c03492189',
    'generate symmetrize:3 --scheme pauli4.json --out sym3.json':
        '7702f7d1198eb2b1cfea9a2ec7dc911b700b301ce84cdb8c11173e562fd33406',
    'type-ab c4x3.json --alpha 1 --beta 0':
        '144ca48ebcb0de0c26e9087b4b627158a5b653d35468c5ec41022f2bbb753ba0',
    'type-ab c4x3.json --alpha 1/2 --beta 0':
        'b3e36482549da733f1815447461706c0917e12a1a95aff68f39d935aab8e1716',
    'type-ab c4x3.json --region':
        '202ffd2c6d6616c7662d1110291d7220d7755ebfe3f04ac8cc832658d401b997',
    'type-ab c6.json --region':
        '2fba55f84048fd43a0d197eb0cc8f9be6559cf040d4bb92892e807cdf355ef90',
    'type-ab c6g.json --region':
        'd6d67a7435e8e95b51a65ddf2c38d4b73ae3efdc7f30394d5491c5fdedb3ebed',
    'type-ab c7.json --labeling 0=0,0;1=1,0;2=0,2;3=0,1 --alpha 1/2 --beta 0':
        '1ab1bf63b8909371c9bd0b0ef12664cf3a60f8cf77ab893c9ea660a383191197',
    'type-ab corrupted6x6.json --region':
        'e16050ae92652cb583b77e0cafd5d47105635b702d4ddcba10803de32a05e263',
    'type-ab pauli4.json --region --labeling A0=0,0;A1=1,0;A2=0,1':
        '1e828cf838cc56724a75db139c630297f520e4b7958ae2f3cf8ad816e2822aad',
    'type-ab sym2.json --region':
        '85a1cab68f76f2bebfc5e1129153287abfd9e7d0911b88371d4ed99ee496f542',
    'type-ab sym3.json --region':
        '1c63a02e0aeb62423b3739c1ee59711661c227ae4f790ef356ce8d9c91654992',
    'verify-scheme asym.json':
        '30a88c498736f1c0365a611f42ef6db694ddede43823515f89085264c97c3488',
    'verify-scheme c4x3.json':
        '059e1fc0f75fd8dfdcd272f0f9fee6056af284541f471e4d0dd88728b74b39ee',
    'verify-scheme c6.json':
        'ef01b8d219012568899aa24eb674cf1d898dcf455d7a790ea6aeccbed737972e',
    'verify-scheme duplicatetensor.json':
        '21d551892b5147159e7ce26aa7b90e17d589cf87f272804c42eb4b74b4c0cbd7',
    'verify-scheme exponenttensor.json':
        'f8ffca053bb6f1736af1629d5ee0c4567032bd34400d2b0dc4b6104c75d90c56',
    'verify-scheme gap.json':
        '6c9cf00fdfb5e18a2f60ff4159a44a8265d742bf25904ca0f9e3e27330c20709',
    'verify-scheme noident.json':
        '8e2edb1dd638bfad7b55bdb083ab51121d59d672afd78e32a7b1cbc2bdaadac3',
    'verify-scheme nullentrytensor.json':
        'a82fa5fe3c89e29ac2bfd320a3b93342ac4d7beda7a12e36fc89f003aa33f795',
    'verify-scheme nullp.json':
        '037a51c870e04ac0c498c8c4700d45fda2674e9da44ba1327269cb99666deb31',
    'verify-scheme nullvertscheme.json':
        'fb0ae973e567e14b1192b79299afe046ec848984daaec076be90fee9dba21055',
    'verify-scheme numberlabelscheme.json':
        '03226b16338f215c5114d0dad5a7d022a354d0f6685788eb95e89a79c2416944',
    'verify-scheme numberp.json':
        '2d860e6e31ff7b0035a5f7678037058532d1319d19601bce154717c70d0351b3',
    'verify-scheme overlap.json':
        '994658b55053f32dae4e76b8252793c08e84abc56cd888601a46fa4446a5417a',
    'verify-scheme path.json':
        'd18c3e42dae225e1ed36f3fb910dbae14b693976a3756978d1b4ad2ab8c29d58',
    'verify-scheme pauli4.json':
        'b56ad64dd6c1fb7a9d8db55a3ed204d440ce718a517b1ce830d2ba9fb62e95ec',
    'verify-scheme sym2.json':
        'dd9d134029510d59aa90ee9f6a2e743fbce7ba11ccc74d4bc08731c67a59c952',
    'verify-scheme sym3.json':
        '71b49fdac8cc008bf91c4c61f698928e78dbb214be15300c381ec0131064de32',
    'verify-scheme textlabelscheme.json':
        'f755caecd374eaa590ca1dccfa77bb9d37cd0ce549a9dce06af7336c7266945c',
    'verify-scheme textlabeltensor.json':
        'f755caecd374eaa590ca1dccfa77bb9d37cd0ce549a9dce06af7336c7266945c',
    'verify-scheme textvertscheme.json':
        '8a22bbffbe01a8adb888a31c5f35f3699dbec104ba95514a2d08fd8ebe447986',
}


def _run(tmp_path, capsys, argv, inputs=INPUTS) -> tuple:
    """(exit code, stdout, stderr) of ``argv`` run in ``tmp_path`` after
    writing ``inputs`` and the ``GENERATED`` documents it needs."""
    for name, text in inputs.items():
        (tmp_path / name).write_text(text())
    for setup in GENERATED:
        if setup == argv:
            break
        assert main(setup) == 0
    capsys.readouterr()
    code = main(list(argv))
    return (code, *capsys.readouterr())


def _digest(tmp_path, capsys, argv, inputs=INPUTS) -> str:
    code, out, err = _run(tmp_path, capsys, argv, inputs)
    digest = hashlib.sha256(b"exit %d\n" % code + out.encode("ascii"))
    for i, flag in enumerate(argv):
        if flag in ("--out", "--polys"):
            path = tmp_path / argv[i + 1]
            digest.update(b"\n%s\n" % argv[i + 1].encode()
                          + (path.read_bytes() if path.exists() else b"missing"))
    err = "".join(line for line in err.splitlines(keepends=True)
                  if not line.startswith("elapsed: "))
    if err:
        digest.update(b"\nstderr\n" + err.encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_digest(name, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _digest(tmp_path, capsys, CASES[name]) == DIGESTS[name]


def test_failing_step_checks_reprove_from_their_witnesses(tmp_path, capsys, monkeypatch):
    """Every exit-1 certify-ppoly and type-ab report above: each failing
    step check is confirmed from the input document and its witness alone
    (``helpers.reprove_report``), not only pinned by the bytes; the
    ``STEP_FAILURES`` reach every step check."""
    failing = Counter()
    for i, name in enumerate(sorted(CASES)):
        if CASES[name][0] not in ("certify-ppoly", "type-ab"):
            continue
        (tmp_path / str(i)).mkdir()
        monkeypatch.chdir(tmp_path / str(i))
        code, out, _ = _run(tmp_path / str(i), capsys, CASES[name])
        if code == 1:
            report = json.loads(out)
            assert reprove_report(report) == [
                check["name"] for certificate in report["certificates"].values()
                for check in certificate["checks"]
                if not check["passed"] and check["name"] in REPROVERS]
            failing.update(check["name"] for certificate in report["certificates"].values()
                           for check in certificate["checks"] if not check["passed"])
    assert set(failing) == {"associativity", "closure", "downset-closure",
                            "identity-class", "partition", "symmetry",
                            "products-within-window", "successor-nonzero",
                            "unit-step-nonzero"}, failing


def _c32_recolored() -> str:
    """C32 x C32 with its first edge in the other color."""
    g = cartesian_product([cycle(32), cycle(32)])
    edges = g.edge_names()
    u, v, color = edges[0]
    edges[0] = (u, v, 3 - color)
    return _graph(ColoredGraph(2, g.vertices, edges))


# certify-mdrg past k = 256 (289 classes), where the full scan sorts
# uint32 codes: file -> (document, full scans run, digest); exit 0 and 1
LARGE = {
    "c32xc32.json": (lambda: _graph(cartesian_product([cycle(32), cycle(32)])), 0,
                     '8a4ccc152a4aabeede507dfd2ad2e1c9a1cc6fa593b3d0e027930a6a7b161a34'),
    "c32xc32r.json": (_c32_recolored, 1,
                      '3004946bb505ecfce28a99fba68d18892c070d1fc5f4a79b6aa310f7c87e0c60'),
}


@pytest.mark.parametrize("name", sorted(LARGE))
def test_certify_mdrg_past_k_256(name, tmp_path, capsys, monkeypatch):
    """C32 x C32 certifies from its generator counts alone, in under 3 s;
    with one edge recolored the full scan names the same first bad pair."""
    build, scans, expected = LARGE[name]
    monkeypatch.chdir(tmp_path)
    kernel, full = schemes.pair_counts, []

    def counting(idx, k, gens=None):
        if gens is None:
            full.append(k)
        return kernel(idx, k, gens)

    monkeypatch.setattr(schemes, "pair_counts", counting)
    started = time.perf_counter()
    digest = _digest(tmp_path, capsys, ["certify-mdrg", name, "--order", "deglex-sum"],
                     {name: build})
    elapsed = time.perf_counter() - started
    assert digest == expected
    assert full == [289] * scans
    assert scans or elapsed < 3.0

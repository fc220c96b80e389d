"""Command-line front end.

One command per process.  Reports are JSON on stdout with sorted keys,
so identical inputs produce byte-identical output; timing and
diagnostics go to stderr.  Exit codes: 0 the property is certified,
1 the property fails (a witness is in the report), 2 input or usage
error, 3 an internal or resource fault (one ``internal error:`` line).
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from typing import Optional

from . import __version__
from .certificates import Certificate
from .families import (cartesian_product, cell24, complete, cycle, gen24cell,
                       hamming_graph, pauli_scheme4, symmetrize)
from .graphs import (ColoredGraph, DisconnectedGraphError, GraphStructureError,
                     m_distance_table)
from .orders import AlphaBeta, MonomialOrder, MultiIndex, PartialOrder
from .ppoly import (IncompatibleOrderPairError, Labeling,
                    ab_region_for_scheme, boundary_check, certify_ppoly,
                    certify_ppoly_refined, certify_type_ab,
                    discover_labelings, extract_polynomials,
                    verify_recurrences)
from .schemes import (IntersectionTensor, SchemeClasses, associativity,
                      intersection_tensor, label_text, mdrg_check,
                      verify_scheme_axioms)
from .serialize import (InputFormatError, dump_json, graph_to_dict,
                        load_document, polynomials_to_dict, scheme_to_dict,
                        table_to_dict, tensor_to_dict)


class UsageError(Exception):
    """Bad flags, parameters, or input documents: exit code 2."""


def _parse(parse, flag: str, value):
    """``parse(value)``, None for None; a ValueError is a usage error."""
    if value is None:
        return None
    try:
        return parse(value)
    except ValueError as exc:
        raise UsageError("bad %s: %s" % (flag, exc))


def _check_arity(m: int, order, partial=None) -> None:
    """``--order`` and ``--partial`` (``sparse(m)``) must be defined for m."""
    for flag, given in (("--order", order), ("--partial", partial)):
        if given is not None:
            _parse(given.sparse, flag, m)


def _input_m(doc, labeling: Optional[Labeling]) -> int:
    """The m of a certification input, read before any certificate: the
    graph's m, else the length of the ``--labeling`` indices, else of the
    document's labels, which must be multi-indices of one length.  A
    labeling of a scheme or tensor must name exactly its classes."""
    if isinstance(doc, ColoredGraph):
        return doc.m
    if labeling is not None:
        _parse(labeling.keyed_by, "--labeling", doc.labels)
    labels = doc.labels if labeling is None else labeling.as_dict().values()
    lengths = {len(lab) if isinstance(lab, MultiIndex) else -1 for lab in labels}
    if labeling is not None and len(lengths) != 1:
        raise UsageError("bad --labeling: labeling mixes multi-index lengths")
    if len(lengths) != 1 or -1 in lengths:
        raise UsageError("certification needs multi-index labels of one "
                         "length; apply a labeling")
    return lengths.pop()


def _load(path: str, kind=object, wrong: str = ""):
    """The document at ``path``; unless it is a ``kind``, ``wrong.format(path)``."""
    try:
        doc = load_document(path)
    except OSError as exc:
        raise UsageError("cannot read %s: %s" % (path, exc.strerror or exc))
    except (InputFormatError, ValueError) as exc:
        raise UsageError(str(exc))
    if not isinstance(doc, kind):
        raise UsageError(wrong.format(path))
    return doc


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="ascii") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError("cannot write %s: %s" % (path, exc.strerror or exc))


def _report(command: str, inputs: dict, certificates: Optional[dict] = None,
            results: Optional[dict] = None) -> dict:
    doc = {"version": __version__, "command": command, "inputs": inputs}
    if certificates:
        doc["certificates"] = {name: cert.to_dict() for name, cert in certificates.items()}
    if results is not None:
        doc["results"] = results
    return doc


def _verdict_code(certificates: dict) -> int:
    return 0 if all(cert.passed for cert in certificates.values()) else 1


# -- generate ---------------------------------------------------------------------

def _generate_document(family: str, scheme_path: Optional[str]) -> dict:
    name, _, params = family.partition(":")
    try:
        if name == "cycle":
            return graph_to_dict(cycle(int(params)))
        if name == "complete":
            return graph_to_dict(complete(int(params)))
        if name == "hamming":
            k, q = (int(x) for x in params.split(","))
            return graph_to_dict(hamming_graph(k, q))
        if name == "cartesian":
            paths = [p for p in params.split(",") if p]
            if len(paths) < 2:
                raise UsageError("cartesian needs at least two graph files")
            return graph_to_dict(cartesian_product(
                [_load(p, ColoredGraph, "{} is not a graph file") for p in paths]))
        if name == "cell24":
            return graph_to_dict(cell24())
        if name == "pauli4":
            return scheme_to_dict(pauli_scheme4())
        if name == "symmetrize":
            if scheme_path is None:
                raise UsageError("symmetrize:k reads a scheme file; "
                                 "give one with --scheme")
            base = _load(scheme_path, SchemeClasses, "{} is not a scheme file")
            return scheme_to_dict(symmetrize(base, int(params)))
        if name == "gen24cell":
            ell_text, _, s_text = params.partition(",")
            return tensor_to_dict(gen24cell(Fraction(ell_text), Fraction(s_text)))
    except UsageError:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError("family %r: %s" % (family, exc))
    raise UsageError("unknown family %r; know cycle:n, complete:n, hamming:k,q, "
                     "cartesian:file1,file2,..., cell24, gen24cell:ell,s, "
                     "pauli4, symmetrize:k" % family)


def cmd_generate(args: argparse.Namespace) -> tuple[dict, int]:
    document = _generate_document(args.family, args.scheme)
    if args.out:
        _write(args.out, dump_json(document))
        return {}, 0
    return document, 0


# -- distances ---------------------------------------------------------------------

def cmd_distances(args: argparse.Namespace) -> tuple[dict, int]:
    order = _parse(MonomialOrder.parse, "--order", args.order)
    doc = _load(args.input, ColoredGraph, "{} is not a graph file")
    _check_arity(doc.m, order)
    return _report("distances", {"input": args.input, "order": order.as_text()},
                   results=table_to_dict(m_distance_table(doc, order))), 0


# -- certify-mdrg ------------------------------------------------------------------

def cmd_certify_mdrg(args: argparse.Namespace) -> tuple[dict, int]:
    order = _parse(MonomialOrder.parse, "--order", args.order)
    doc = _load(args.input, ColoredGraph, "{} is not a graph file")
    _check_arity(doc.m, order)
    result = mdrg_check(doc, order)
    certificates = {"mdrg": result.certificate}
    results = {}
    if result.counts is not None:  # valencies p_{a,a}^o; o is class 0
        labels = [lab.as_text() for lab in result.table.labels]
        results["classes"] = sorted(labels)
        a, b, c, _ = result.counts.T
        results["valencies"] = {labels[i]: str(value) for i, _, _, value
                                in result.counts[(a == b) & (c == 0)].tolist()}
    return _report("certify-mdrg", {"input": args.input, "order": order.as_text()},
                   certificates, results), _verdict_code(certificates)


# -- verify-scheme -----------------------------------------------------------------

def cmd_verify_scheme(args: argparse.Namespace) -> tuple[dict, int]:
    doc = _load(args.input, (SchemeClasses, IntersectionTensor),
                "{} is a graph file; verify-scheme takes class matrices or "
                "an intersection tensor")
    certificates: dict[str, Certificate] = {}
    if isinstance(doc, SchemeClasses):
        certificates["axioms"] = verify_scheme_axioms(doc)
        if certificates["axioms"].passed:
            certificates["numbers"] = intersection_tensor(doc).validate(
                strict_integral=True)
    else:
        certificates["numbers"] = doc.validate()
    return _report("verify-scheme", {"input": args.input},
                   certificates), _verdict_code(certificates)


# -- certify-ppoly -----------------------------------------------------------------

def _tensor_from_document(doc, labeling: Optional[Labeling],
                          order: Optional[MonomialOrder],
                          certificates: dict) -> Optional[IntersectionTensor]:
    """Reduce an input document checked by :func:`_input_m` to a tensor;
    None means a certificate already failed (exit 1).  A tensor's
    ``numbers`` certificate, with :func:`associativity`, shows if it fails."""
    if isinstance(doc, ColoredGraph):
        result = mdrg_check(doc, order)
        certificates["mdrg"] = result.certificate
        tensor = result.tensor
    elif isinstance(doc, SchemeClasses):
        certificates["axioms"] = verify_scheme_axioms(doc)
        tensor = intersection_tensor(doc) if certificates["axioms"].passed else None
    else:
        numbers = doc.validate()
        tensor = doc if numbers.passed else None
    if tensor is not None and labeling is not None:
        tensor = _parse(labeling.apply, "--labeling", tensor)
    if isinstance(doc, IntersectionTensor):
        if tensor is not None:
            numbers = Certificate.of([*numbers.checks, associativity(tensor)])
        if not numbers.passed:
            certificates["numbers"] = numbers
            return None
    return tensor


def cmd_certify_ppoly(args: argparse.Namespace) -> tuple[dict, int]:
    order = _parse(MonomialOrder.parse, "--order", args.order)
    partial = _parse(PartialOrder.parse, "--partial", args.partial or None)
    labeling = _parse(Labeling.parse, "--labeling", args.labeling)
    inputs = {"input": args.input, "order": order.as_text()}
    if partial is not None:
        inputs["partial"] = partial.as_text()
    if labeling is not None:
        inputs["labeling"] = labeling.as_text()
    certificates: dict[str, Certificate] = {}
    doc = _load(args.input)
    _check_arity(_input_m(doc, labeling), order, partial)
    tensor = _tensor_from_document(doc, labeling, order, certificates)
    if tensor is None:
        return _report("certify-ppoly", inputs, certificates), 1

    window = order if partial is None else partial
    results: dict = {"domain": sorted(lab.as_text() for lab in tensor.labels)}
    want_polys = args.polys is not None or args.recurrences
    try:
        ppoly = (certify_ppoly(tensor, order) if partial is None
                 else certify_ppoly_refined(tensor, order, partial))
    except IncompatibleOrderPairError as exc:
        raise UsageError(str(exc))
    certificates["ppoly"] = ppoly
    if args.boundary and ppoly.passed:
        certificates["boundary"] = boundary_check(tensor, window)
    elif args.boundary and not args.quiet:
        print("skipping boundary: certification failed", file=sys.stderr)
    if want_polys and ppoly.passed:
        polys, certificates["extraction"] = extract_polynomials(tensor, window)
        polys_doc = polynomials_to_dict(polys)
        results["polynomials"] = polys_doc["polynomials"]
        if args.polys:
            _write(args.polys, dump_json(polys_doc))
        if args.recurrences:
            certificates["recurrences"] = verify_recurrences(polys, tensor, partial)
    elif want_polys and not args.quiet:
        print("skipping extraction: certification failed", file=sys.stderr)
    return _report("certify-ppoly", inputs, certificates,
                   results), _verdict_code(certificates)


# -- type-ab -----------------------------------------------------------------------

def cmd_type_ab(args: argparse.Namespace) -> tuple[dict, int]:
    labeling = _parse(Labeling.parse, "--labeling", args.labeling)
    inputs = {"input": args.input}
    if labeling is not None:
        inputs["labeling"] = labeling.as_text()
    parameters = args.alpha is not None or args.beta is not None
    if args.region == parameters:
        raise UsageError("give either --region or both --alpha and --beta")
    if parameters:
        if args.alpha is None or args.beta is None:
            raise UsageError("give both --alpha and --beta")
        try:
            ab = AlphaBeta(Fraction(args.alpha), Fraction(args.beta))
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(str(exc))
    doc = _load(args.input, (SchemeClasses, IntersectionTensor),
                "type-ab takes a scheme or tensor file")
    m = _input_m(doc, labeling)
    if m != 2:
        raise UsageError("type-(alpha,beta) needs m=2, got m=%d" % m)
    certificates: dict[str, Certificate] = {}
    tensor = _tensor_from_document(doc, labeling, None, certificates)
    if tensor is None:
        return _report("type-ab", inputs, certificates), 1

    if args.region:
        region = ab_region_for_scheme(tensor)
        results = {"region": "empty" if region is None else region.as_text()}
        if region is not None:
            results["alpha"] = region.alpha.as_text()
            results["beta"] = region.beta.as_text()
        code = _verdict_code(certificates) if region is not None else 1
        return _report("type-ab", inputs, certificates, results), code

    inputs["alpha"] = str(ab.alpha)
    inputs["beta"] = str(ab.beta)
    certificates["type-ab"] = certify_type_ab(tensor, PartialOrder("ab", ab))
    return _report("type-ab", inputs, certificates), _verdict_code(certificates)


# -- discover ----------------------------------------------------------------------

def cmd_discover(args: argparse.Namespace) -> tuple[dict, int]:
    order = _parse(MonomialOrder.parse, "--order", args.order)
    doc = _load(args.input, SchemeClasses,
                "discover takes a scheme file with class matrices")
    if not 1 <= args.m < len(doc.labels):
        raise UsageError("--m must lie in 1..%d" % (len(doc.labels) - 1))
    _check_arity(args.m, order)
    inputs = {"input": args.input, "m": args.m, "order": order.as_text()}
    axioms = verify_scheme_axioms(doc)
    if not axioms.passed:
        return _report("discover", inputs, {"axioms": axioms}), 1
    found = discover_labelings(doc, args.m, order)
    results = {
        "count": len(found),
        "labelings": [{"generators": [label_text(g) for g in d.generators],
                       "labeling": d.labeling.as_text()} for d in found],
    }
    return _report("discover", inputs, results=results), 0 if found else 1


# -- Parser ------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdrg",
        description="exact m-distance, distance-regularity, and P-polynomial "
                    "certification for edge-colored graphs and association schemes")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("generate", help="emit a named graph/scheme/tensor family")
    p.add_argument("family", help="cycle:n | complete:n | hamming:k,q | "
                                  "cartesian:f1,f2,... | cell24 | "
                                  "gen24cell:ell,s | pauli4 | symmetrize:k")
    p.add_argument("--scheme", help="base scheme file for symmetrize:k")
    p.add_argument("--out", help="write here instead of stdout")
    p.set_defaults(handler=cmd_generate)

    p = sub.add_parser("distances", help="all-pairs m-distance table")
    p.add_argument("input", help="graph file")
    p.add_argument("--order", required=True)
    p.set_defaults(handler=cmd_distances)

    p = sub.add_parser("certify-mdrg", help="certify m-distance-regularity")
    p.add_argument("input", help="graph file")
    p.add_argument("--order", required=True)
    p.set_defaults(handler=cmd_certify_mdrg)

    p = sub.add_parser("verify-scheme", help="association scheme axioms")
    p.add_argument("input", help="scheme or tensor file")
    p.set_defaults(handler=cmd_verify_scheme)

    p = sub.add_parser("certify-ppoly", help="multivariate P-polynomial property")
    p.add_argument("input", help="graph, scheme, or tensor file")
    p.add_argument("--order", required=True)
    p.add_argument("--partial", help="refine the window: ab:a,b | componentwise")
    p.add_argument("--labeling", help="tag=index map, e.g. 'A0=0,0;A1=1,0'")
    p.add_argument("--boundary", action="store_true",
                   help="also check the boundary span condition")
    p.add_argument("--polys", metavar="FILE",
                   help="extract defining polynomials and write them here")
    p.add_argument("--recurrences", action="store_true",
                   help="re-verify the three-term-style recurrences")
    p.set_defaults(handler=cmd_certify_ppoly)

    p = sub.add_parser("type-ab", help="type-(alpha,beta) certification")
    p.add_argument("input", help="scheme or tensor file")
    p.add_argument("--labeling")
    p.add_argument("--alpha", help="rational in [0,1]")
    p.add_argument("--beta", help="rational in [0,1)")
    p.add_argument("--region", action="store_true",
                   help="compute the exact feasible (alpha,beta) region")
    p.set_defaults(handler=cmd_type_ab)

    p = sub.add_parser("discover", help="find P-polynomial labelings of a scheme")
    p.add_argument("input", help="scheme file")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--order", required=True)
    p.set_defaults(handler=cmd_discover)

    for sp in sub.choices.values():
        sp.add_argument("--quiet", action="store_true",
                        help="no output, just the exit code")
    return parser


_PARSER: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[list[str]] = None) -> int:
    # Built once per process: building costs far more than parsing, and
    # parse_args returns a fresh namespace each call.
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    start = time.perf_counter()
    try:
        report, code = args.handler(args)
        elapsed = time.perf_counter() - start
        text = dump_json(report) if report and not args.quiet else ""
    except Exception as exc:  # 2 for a usage or input error, 3 for any other fault
        usage = isinstance(exc, (UsageError, DisconnectedGraphError, GraphStructureError,
                                 InputFormatError))
        if not args.quiet:
            print(("error: %s" if usage else "internal error: %r") % exc, file=sys.stderr)
        return 2 if usage else 3
    if not args.quiet:
        sys.stdout.write(text)
        print("elapsed: %.3fs" % elapsed, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

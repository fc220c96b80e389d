"""Output checks: seed-independent signatures compared with references.

A passing command's signature is its exit code plus a digest of its
report with the input path replaced by ``<input>`` (for ``distances``
the vertex names are first mapped back through the seed's renaming) and
a digest of any file it writes.  An expected failure is checked by exit
code and the names of its failing checks only, because its witness
vertices depend on the seed.
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
from typing import Optional

import numpy as np

from workloads import SYMMETRIZE_K, Command, Inputs, symmetrized_canonical


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _canonical(report: dict) -> bytes:
    return json.dumps(report, sort_keys=True, indent=2).encode("ascii")


def failing_checks(report: dict) -> list[str]:
    """``certificate.check`` names of every failing check."""
    return sorted("%s.%s" % (cert_name, check["name"])
                  for cert_name, cert in report.get("certificates", {}).items()
                  for check in cert["checks"] if not check["passed"])


def _unrename_distances(report: dict, inputs: Inputs, doc: str) -> None:
    graph = inputs.graphs[doc]
    results = report["results"]
    distances = {}
    for key, value in results["distances"].items():
        x, y = (graph.original[v] for v in key.split("|"))
        if graph.position[x] > graph.position[y]:
            x, y = y, x
        distances["%s|%s" % (x, y)] = value
    results["distances"] = distances
    results["vertices"] = sorted((graph.original[v] for v in results["vertices"]),
                                 key=graph.position.__getitem__)


def _file_digest(command: Command, inputs: Inputs) -> str:
    path = inputs.path(command.out)
    if command.argv[0] != "generate":
        with open(path, "rb") as handle:
            return _sha256(handle.read())
    with open(path, "r", encoding="ascii") as handle:
        document = json.load(handle)
    matrices = np.array(document["matrices"], dtype=np.int8)
    canonical = symmetrized_canonical(matrices, inputs.base_orders["pauli4"],
                                      SYMMETRIZE_K)
    head = _canonical({"labels": document["labels"],
                       "vertices": document["vertices"]})
    return _sha256(head + canonical.tobytes())


def signature(command: Command, code: Optional[int], stdout: str,
              inputs: Inputs) -> dict:
    """Seed-independent summary of one command's outcome."""
    if code is None:
        return {"exit": None}
    if code != 0:
        failing = failing_checks(json.loads(stdout)) if stdout else []
        return {"exit": code, "failing": failing}
    sig: dict = {"exit": 0}
    if stdout:
        report = json.loads(stdout)
        if "input" in report.get("inputs", {}):
            report["inputs"]["input"] = "<input>"
        if command.argv[0] == "distances":
            _unrename_distances(report, inputs, command.argv[1][1:])
        sig["report"] = _sha256(_canonical(report))
    if command.out is not None:
        sig["file"] = _file_digest(command, inputs)
    return sig


def raw_digest(command: Command, stdout: str, inputs: Inputs) -> str:
    """Digest of the exact bytes a command printed and wrote."""
    digest = hashlib.sha256(stdout.encode("utf-8"))
    if command.out is not None:
        with open(inputs.path(command.out), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def agrees(sig: dict, reference: dict) -> bool:
    """True when a signature satisfies a reference.

    ``failing`` entries of a reference are shell-style patterns; each
    failing check must match one and each pattern must match a check.
    """
    if sig.get("exit") != reference["exit"]:
        return False
    if "failing" in reference:
        failing = sig.get("failing", [])
        patterns = reference["failing"]
        return (all(any(fnmatch.fnmatchcase(name, pat) for pat in patterns)
                    for name in failing)
                and all(any(fnmatch.fnmatchcase(name, pat) for name in failing)
                        for pat in patterns))
    return all(sig.get(key) == value for key, value in reference.items())

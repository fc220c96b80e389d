"""Pass/fail certificates with re-checkable witnesses.

Every verification routine in this package returns a :class:`Certificate`
made of named :class:`Check` entries.  A failing check always carries a
witness: a JSON-safe dictionary holding the concrete counterexample
(vertices by name, multi-indices and rationals as text) so that a reader
can re-verify the violation without re-running the search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Mapping, Optional


def witness_value(value: Any) -> Any:
    """Coerce a value into the JSON-safe form used inside witnesses.

    Rationals become ``p/q`` strings, objects exposing ``as_text`` (multi-
    indices) are rendered through it, tuples/lists/sets recurse.  Plain
    strings, booleans and ints pass through.  Floats are rejected: all
    reported quantities in this package are exact.
    """
    if isinstance(value, bool) or isinstance(value, int):
        return value
    if isinstance(value, float):
        raise TypeError("witnesses must be exact; got a float: %r" % (value,))
    if isinstance(value, Fraction):
        return str(value)
    if hasattr(value, "as_text"):
        return value.as_text()
    if isinstance(value, str):
        return value
    if isinstance(value, Mapping):
        return {str(k): witness_value(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [witness_value(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(witness_value(v) for v in value)
    if value is None:
        return None
    raise TypeError("cannot place %r in a witness" % (value,))


def witness(**fields: Any) -> dict:
    """Build a witness dictionary, coercing every field."""
    return {name: witness_value(value) for name, value in fields.items()}


@dataclass(frozen=True)
class Check:
    """One named condition: ``passed`` plus an optional counterexample."""

    name: str
    passed: bool
    witness: Optional[dict] = None
    detail: Optional[str] = None

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"name": self.name, "passed": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.detail is not None:
            out["detail"] = self.detail
        return out


@dataclass(frozen=True)
class Certificate:
    """An ordered collection of checks; passes iff every check passes."""

    checks: tuple[Check, ...]

    @staticmethod
    def of(checks: Iterable[Check]) -> "Certificate":
        return Certificate(checks=tuple(checks))

    @staticmethod
    def single(name: str, passed: bool, witness: Optional[dict] = None,
               detail: Optional[str] = None) -> "Certificate":
        return Certificate(checks=(Check(name, passed, witness, detail),))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    @property
    def witness(self) -> Optional[dict]:
        """Witness of the first failing check, if any."""
        return next((c.witness for c in self.checks if not c.passed), None)

    def to_dict(self) -> dict:
        return {"verdict": self.verdict, "checks": [c.to_dict() for c in self.checks]}

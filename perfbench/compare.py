"""Summarise or compare result sets written by ``run.py --record``.

    python3 perfbench/compare.py A.jsonl            # one set: spreads
    python3 perfbench/compare.py A.jsonl B.jsonl    # A is the base

For each workload and end-to-end metric (runs with ``--trace 0``) it
prints the median and quartiles of each side, the spread (quartile
distance over median) and, with two sets, the change of the median.
From traced runs it prints the median of every per-layer time and its
change, so a perf change can show in which layer its saving appears.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def load(path: str) -> tuple[dict, dict]:
    """{(workload, trace): {metric: [values]}} and {metric: unit}."""
    table: dict = defaultdict(lambda: defaultdict(list))
    units: dict = {}
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            key = (record["workload"], record["trace"])
            for name, metric in record["result"]["metrics"].items():
                table[key][name].append(metric["value"])
                units[name] = metric["unit"]
    return table, units


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def describe(values: list) -> str:
    q1, q2, q3 = quartiles(values)
    spread = (q3 - q1) / q2 if q2 else 0.0
    return "%10.4g [%10.4g, %10.4g] spread %5.1f%% n=%d" % (
        q2, q1, q3, 100 * spread, len(values))


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sides = [load(path) for path in argv]
    units = {}
    for _, side_units in sides:
        units.update(side_units)
    keys = sorted({key for table, _ in sides for key in table})
    for workload, trace in keys:
        print("== %s (%s)" % (workload, "traced" if trace else "end to end"))
        names = [name for name in sides[0][0].get((workload, trace), {})]
        if trace:
            names = [n for n in names if units[n] == "s"]
        for name in names:
            columns = []
            medians = []
            for table, _ in sides:
                values = table.get((workload, trace), {}).get(name)
                if not values:
                    columns.append("%-52s" % "-")
                    continue
                columns.append(describe(values))
                medians.append(statistics.median(values))
            line = "  %-34s %-5s %s" % (name, units[name], " | ".join(columns))
            if len(medians) == 2:
                if medians[0]:
                    line += " | %+6.1f%%" % (100 * (medians[1] / medians[0] - 1))
                else:
                    line += " | %+.4g" % (medians[1] - medians[0])
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

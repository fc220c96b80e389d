"""Run the benchmark over several seeds and summarise the spreads.

    python3 perfbench/series.py --out FILE [--workloads a,b] [--seeds 1-10]
                                [--seconds 10] [--trace 0|1]

Each run is a fresh ``run.py`` process (peak memory is per process),
one after another; results are appended to FILE with ``--record`` and
summarised by ``compare.py`` at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
from workloads import WORKLOADS  # noqa: E402


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    status = 0
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--record", args.out],
                stdout=subprocess.PIPE, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 else None
            print("%s seed %d: exit %d, %.1f s, %s" % (
                workload, seed, proc.returncode, time.perf_counter() - start,
                {k: round(v["value"], 4) for k, v in result["metrics"].items()}
                if result and not args.trace else
                result and (result["correct"], result["failed"])), flush=True)
            if proc.returncode != 0 or not result["correct"]:
                status = 1
    sys.stdout.flush()
    subprocess.run([sys.executable, os.path.join(HERE, "compare.py"), args.out])
    return status


if __name__ == "__main__":
    sys.exit(main())

"""Run one workload of the mdrg benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Drives the real CLI path in-process: ``mdrg.cli.main(argv)`` with stdout
and stderr captured, closed loop, one command after another, in a single
thread with ``MDRG_THREADS`` unset.  One untimed warm-up pass comes
first; passes then repeat until ``--seconds`` have gone by (at least
one).  Every command's outcome is checked against ``references.json``
after its pass, outside the timed interval.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends the
first half of the time on untraced passes and the second half on passes
with spans around each layer (see ``tracing.py``); it reports the
per-layer metrics, and every traced report must be byte-identical to the
untraced one.  The last line of stdout is the JSON result.

``--record FILE`` appends the result with its environment to FILE (one
JSON object per line; ``compare.py`` reads these).  ``--make-references``
regenerates ``references.json`` from the program as it is.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

from probe import Sampler

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCES = os.path.join(HERE, "references.json")
SETUP_REPEATS = 3

END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("cmd_p50_ms", "ms"),
              ("cmd_p90_ms", "ms"), ("peak_rss_mb", "MB")]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="FILE",
                        help="append the result to this JSON-lines file")
    parser.add_argument("--make-references", action="store_true",
                        help="rewrite references.json from this checkout")
    parser.add_argument("--time-setup", action="store_true",
                        help="time one set-up in this process (used by the "
                             "benchmark itself)")
    args = parser.parse_args(argv)
    if not args.make_references and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_program() -> None:
    """Import mdrg from this checkout's src/."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "mdrg", "__init__.py")):
        raise SystemExit("error: no mdrg package under %s" % src)
    sys.path.insert(0, src)
    import mdrg.cli  # noqa: F401


class Pass:
    """Outcome of one pass over the command list.

    ``latencies`` exclude probe time; ``scale`` turns them into nominal
    seconds (see probe.py); ``elapsed`` is the unscaled wall time of the
    commands with probe time included.
    """

    def __init__(self, latencies: list, outcomes: list, scale: float,
                 elapsed: float):
        self.latencies = latencies
        self.outcomes = outcomes     # (command, exit code or None, stdout)
        self.wall = sum(latencies)
        self.scale = scale
        self.elapsed = elapsed
        self.raws: list = []


def run_command(main_fn, command, argv):
    """Exit code (None if it raised) and stdout of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main_fn(argv)
    except Exception:  # a crash is a failed command, not a failed run
        code = None
        print("command %s raised:\n%s" % (command.id, traceback.format_exc()),
              file=sys.stderr)
    return code, out.getvalue()


def run_pass(main_fn, commands, argvs) -> Pass:
    """Run every command once while the machine is being probed."""
    latencies, outcomes = [], []
    elapsed = 0.0
    gc.collect()
    with Sampler() as sampler:
        for command, argv in zip(commands, argvs):
            (code, stdout), seconds, probed = sampler.measure(
                run_command, main_fn, command, argv)
            latencies.append(seconds - probed)
            elapsed += seconds
            outcomes.append((command, code, stdout))
    return Pass(latencies, outcomes, sampler.scale(), elapsed)


class Checker:
    """Checks outcomes against the references and counts mismatches."""

    def __init__(self, inputs, references: dict):
        import check
        self._check = check
        self.inputs = inputs
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.known_wrong = 0
        self.reported: set = set()

    def check(self, done: Pass) -> list:
        """Count mismatches; return the raw digest of every outcome."""
        check = self._check
        raws = []
        for command, code, stdout in done.outcomes:
            self.attempted += 1
            reference = command.expect or self.references[command.id]
            try:
                sig = check.signature(command, code, stdout, self.inputs)
                ok = check.agrees(sig, reference)
                raw = check.raw_digest(command, stdout, self.inputs)
            except (ValueError, KeyError, OSError) as exc:
                sig, ok, raw = {"error": repr(exc)}, False, None
            if not ok:
                if command.known_defect:
                    self.known_wrong += 1
                    label = "known wrong verdict (%s)" % command.known_defect
                else:
                    self.failed += 1
                    label = "MISMATCH"
                if command.id not in self.reported:
                    self.reported.add(command.id)
                    print("%s %s: got %s, expected %s"
                          % (label, command.id, sig, reference), file=sys.stderr)
            raws.append(raw)
        return raws


def timed_passes(main_fn, commands, argvs, checker, seconds: float) -> list:
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        done = run_pass(main_fn, commands, argvs)
        done.raws = checker.check(done)
        passes.append(done)
    return passes


def percentile(samples: list, q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def environment() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def make_references() -> None:
    """Record the signature of every command; seeds 0 and 1 must agree."""
    import check
    import mdrg.cli
    from workloads import WORKLOADS, build_inputs, commands
    references = {}
    for workload in WORKLOADS:
        per_seed = []
        for seed in (0, 1):
            workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
            try:
                inputs = build_inputs(workload, seed, workdir)
                cmds = sorted(commands(workload, seed), key=lambda c: c.id)
                done = run_pass(mdrg.cli.main, cmds,
                                [inputs.argv(c) for c in cmds])
                per_seed.append({c.id: check.signature(c, code, out, inputs)
                                 for c, code, out in done.outcomes
                                 if c.expect is None})
            finally:
                shutil.rmtree(workdir)
        if per_seed[0] != per_seed[1]:
            raise SystemExit("error: %s signatures depend on the seed" % workload)
        references[workload] = per_seed[0]
    with open(REFERENCES, "w", encoding="ascii") as handle:
        json.dump(references, handle, sort_keys=True, indent=1)
        handle.write("\n")


def time_setup(workload: str, seed: int) -> None:
    """In a fresh process: import mdrg and build the inputs once; print
    the seconds it took, less probe time, and the machine's scale."""
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        with Sampler() as sampler:
            _, import_s, import_probed = sampler.measure(import_program)
            from workloads import build_inputs
            _, build_s, build_probed = sampler.measure(build_inputs, workload,
                                                       seed, workdir)
    finally:
        shutil.rmtree(workdir)
    print(json.dumps({"seconds": import_s - import_probed + build_s - build_probed,
                      "scale": sampler.scale()}))


def setup_times(workload: str, seed: int) -> tuple[float, float]:
    """Median set-up time over SETUP_REPEATS fresh processes, unscaled
    and in nominal seconds."""
    runs = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--time-setup",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True, check=True, timeout=120)
        runs.append(json.loads(child.stdout.splitlines()[-1]))
    return (statistics.median(r["seconds"] for r in runs),
            statistics.median(r["seconds"] * r["scale"] for r in runs))


def end_to_end(passes: list, setup_s: float) -> dict:
    # One latency per command, its median over the passes; the percentiles
    # are taken over the command mix, so a few slow moments of the machine
    # do not become the tail.
    latencies = [statistics.median(p.latencies[i] * p.scale for p in passes)
                 for i in range(len(passes[0].latencies))]
    return {
        "setup_s": setup_s,
        "run_s": statistics.median(p.wall * p.scale for p in passes),
        "cmd_p50_ms": 1000 * statistics.median(latencies),
        "cmd_p90_ms": 1000 * percentile(latencies, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_passes(main_fn, commands, argvs, checker, seconds: float,
                  baseline: list):
    """Passes with spans installed; returns them with per-layer values.

    Each traced outcome must be byte-identical to ``baseline``, the raw
    digests of an untraced pass.
    """
    import tracing
    tracer = tracing.Tracer()
    traced_main = tracer.wrap(tracing.TOP, main_fn)
    passes, layers = [], []
    tracer.install()
    try:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            tracer.reset()
            done = run_pass(traced_main, commands, argvs)
            done.raws = checker.check(done)
            for (command, _, _), raw, want in zip(done.outcomes, done.raws,
                                                  baseline):
                if raw != want:
                    checker.failed += 1
                    print("MISMATCH %s: traced output differs from untraced"
                          % command.id, file=sys.stderr)
            values = tracer.layer_metrics()
            top_ns = sum(end - begin for _, begin, end, parent in tracer.spans
                         if parent < 0)
            for name, unit, _ in tracing.PER_LAYER:
                if unit == "s" and name in values:
                    values[name] *= done.scale
            values["trace.coverage"] = top_ns / 1e9 / done.elapsed
            layers.append(values)
            passes.append(done)
    finally:
        tracer.uninstall()
    return passes, layers


def per_layer(plain: list, traced: list, layers: list, checker) -> dict:
    import tracing
    metrics = {name: statistics.median_low(values.get(name, 0)
                                           for values in layers)
               for name, _, _ in tracing.PER_LAYER}
    metrics["trace.overhead"] = (
        statistics.median(p.wall * p.scale for p in traced)
        / statistics.median(p.wall * p.scale for p in plain))
    metrics["check.fail_frac"] = ((checker.failed + checker.known_wrong)
                                  / checker.attempted)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("MDRG_THREADS", None)
    if args.time_setup:
        time_setup(args.workload, args.seed)
        return 0
    import_program()
    import mdrg.cli
    import tracing
    from workloads import WORKLOADS, build_inputs, commands

    if args.make_references:
        make_references()
        return 0
    if args.workload not in WORKLOADS:
        print("error: unknown workload %r; know %s"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    with open(REFERENCES, encoding="ascii") as handle:
        references = json.load(handle)[args.workload]

    setup_raw, setup_s = setup_times(args.workload, args.seed)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        # A relative path keeps report sizes the same in every checkout.
        inputs = build_inputs(args.workload, args.seed,
                              os.path.relpath(workdir))
        cmds = commands(args.workload, args.seed)
        argvs = [inputs.argv(c) for c in cmds]
        checker = Checker(inputs, references)
        main_fn = mdrg.cli.main
        checker.check(run_pass(main_fn, cmds, argvs))   # warm-up

        if args.trace == 0:
            passes = timed_passes(main_fn, cmds, argvs, checker, args.seconds)
            traced = []
            metrics = end_to_end(passes, setup_s)
            units = dict(END_TO_END)
        else:
            passes = timed_passes(main_fn, cmds, argvs, checker,
                                  args.seconds / 2)
            traced, layers = traced_passes(main_fn, cmds, argvs, checker,
                                           args.seconds / 2, passes[-1].raws)
            metrics = per_layer(passes, traced, layers, checker)
            units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    samples = sum(len(p.latencies) for p in passes)
    raw = {"setup_s": setup_raw,
           "run_s": statistics.median(p.wall for p in passes),
           "scale": statistics.median(p.scale for p in passes)}
    print("workload %s seed %d trace %d: nproc %s, python %s, numpy %s"
          % (args.workload, args.seed, args.trace, env["nproc"], env["python"],
             env["numpy"]))
    print("passes %d timed + %d traced + 1 warm-up; %d commands a pass; "
          "cmd_samples %d" % (len(passes), len(traced), len(cmds), samples))
    print("unscaled setup_s %.4g s, run_s %.4g s; scale %.4g"
          % (raw["setup_s"], raw["run_s"], raw["scale"]))
    print("fail_frac %d/%d ratio (%d known wrong verdicts)"
          % (checker.failed + checker.known_wrong, checker.attempted,
             checker.known_wrong))
    for name, value in metrics.items():
        print("%-36s %.6g %s" % (name, value, units[name]))
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    if args.record:
        with open(args.record, "a", encoding="ascii") as handle:
            handle.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "trace": args.trace, "seconds": args.seconds, "env": env,
                "cmd_samples": samples, "known_wrong": checker.known_wrong,
                "unscaled": raw, "result": result}, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
